//! The secret-type contract. Secret bytes live only in three leaf
//! types — `AeadKey`, `elgamal::SecretKey` and `shamir::Share` — and
//! every other type that holds secrets holds them through a leaf.
//!
//! Each leaf wipes itself in its own `Drop`, has no `Display`, and, where
//! it has equality at all, compares through `ConstantTimeEq`. Those are
//! bounds below, so breaking one fails to compile. The composite types
//! (`ArrayState`, `BfeKeyState`, `BfeSecretKey`, `DeviceKey`, `Keyring`)
//! derive `Debug`, `PartialEq` and their drop glue, which run the leaves'
//! impls. The run-time test checks that no secret byte reaches the
//! `Debug` output of any of the eight.
//!
//! An `AeadKey` is expanded into an `aes_gcm::Aes128Gcm` for each seal or
//! open; the cipher's key schedule starts with the key itself, so the
//! cipher wipes itself in its own `Drop` too.

use std::fmt::Display;

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use safetypin::bfe::{keygen, BfeKeyState, BfeParams, BfeSecretKey};
use safetypin::primitives::aead::AeadKey;
use safetypin::primitives::elgamal::{KeyPair, SecretKey};
use safetypin::primitives::shamir::{self, Share};
use safetypin::seckv::{ArrayState, MemStore, SecureArray};
use safetypin_store::{DeviceKey, Keyring};
use subtle::ConstantTimeEq;

/// Holds only for a type with a `Drop` impl of its own: drop glue
/// inherited from a field does not satisfy a `Drop` bound.
#[allow(
    drop_bounds,
    reason = "a `T: Drop` bound holds only for a type's own `Drop` impl, the property under test"
)]
fn wipes_on_drop<T: Drop>() {}

/// Holds for a type whose equality is backed by `ct_eq`.
fn compares_in_constant_time<T: Eq + ConstantTimeEq>() {}

/// `<T as AmbiguousIfDisplay<_>>` names one impl, and compiles, only
/// while `T` is not `Display`; a `Display` impl adds a second candidate
/// and the call no longer resolves.
trait AmbiguousIfDisplay<A> {
    fn check() {}
}
impl<T: ?Sized> AmbiguousIfDisplay<()> for T {}
struct IsDisplay;
impl<T: ?Sized + Display> AmbiguousIfDisplay<IsDisplay> for T {}

/// The same trick for `PartialEq`.
trait AmbiguousIfPartialEq<A> {
    fn check() {}
}
impl<T: ?Sized> AmbiguousIfPartialEq<()> for T {}
struct IsPartialEq;
impl<T: ?Sized + PartialEq> AmbiguousIfPartialEq<IsPartialEq> for T {}

#[test]
fn leaf_secret_types_wipe_and_compare_in_constant_time() {
    wipes_on_drop::<AeadKey>();
    wipes_on_drop::<SecretKey>();
    wipes_on_drop::<Share>();
    wipes_on_drop::<aes_gcm::Aes128Gcm>();
    compares_in_constant_time::<AeadKey>();
    compares_in_constant_time::<Share>();
    // The scalar has no equality; giving it one means adding it to the
    // constant-time list above.
    <SecretKey as AmbiguousIfPartialEq<_>>::check();
}

#[test]
fn no_secret_type_is_display() {
    <AeadKey as AmbiguousIfDisplay<_>>::check();
    <SecretKey as AmbiguousIfDisplay<_>>::check();
    <Share as AmbiguousIfDisplay<_>>::check();
    <aes_gcm::Aes128Gcm as AmbiguousIfDisplay<_>>::check();
    <ArrayState as AmbiguousIfDisplay<_>>::check();
    <BfeSecretKey as AmbiguousIfDisplay<_>>::check();
    <BfeKeyState as AmbiguousIfDisplay<_>>::check();
    <DeviceKey as AmbiguousIfDisplay<_>>::check();
    <Keyring as AmbiguousIfDisplay<_>>::check();
}

/// True when `rendered` shows any four consecutive bytes of `secret` the
/// way a leak prints them: a `{:?}` list in decimal, a `{:x?}` list, or
/// a hex string in either case.
fn shows(rendered: &str, secret: &[u8]) -> bool {
    secret.windows(4).any(|w| {
        let list = |f: fn(&u8) -> String| w.iter().map(f).collect::<Vec<_>>().join(", ");
        let hex: String = w.iter().map(|b| format!("{b:02x}")).collect();
        [
            list(|b| b.to_string()),
            list(|b| format!("{b:x}")),
            hex.to_uppercase(),
            hex,
        ]
        .iter()
        .any(|needle| rendered.contains(needle.as_str()))
    })
}

fn random_key(rng: &mut StdRng) -> [u8; 16] {
    let mut key = [0u8; 16];
    rng.fill_bytes(&mut key);
    key
}

#[test]
fn debug_output_of_every_secret_type_shows_no_secret_byte() {
    let mut rng = StdRng::seed_from_u64(0x5EC7_0001);

    let aead = random_key(&mut rng);
    let scalar = KeyPair::generate(&mut rng).sk;
    let share = shamir::share(b"a transport key!", 2, 3, &mut rng)
        .unwrap()
        .remove(0);
    let blocks: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 8]).collect();
    let array = SecureArray::setup(&mut MemStore::new(), &blocks, &mut rng).unwrap();
    let (_, bfe, _) = keygen(
        BfeParams::new(64, 2).unwrap(),
        &mut MemStore::new(),
        &mut rng,
    )
    .unwrap();
    let devices = [random_key(&mut rng), random_key(&mut rng)];

    let cases: Vec<(&str, String, Vec<Vec<u8>>)> = vec![
        (
            "AeadKey",
            format!("{:?}", AeadKey::from_bytes(aead)),
            vec![aead.to_vec()],
        ),
        (
            "SecretKey",
            format!("{scalar:?}"),
            vec![scalar.to_bytes().to_vec()],
        ),
        ("Share", format!("{share:?}"), vec![share.data.clone()]),
        (
            "ArrayState",
            format!("{:?}", array.export_state()),
            vec![array.root_key_bytes().to_vec()],
        ),
        (
            "BfeSecretKey",
            format!("{bfe:?}"),
            vec![bfe.array_root_key().to_vec()],
        ),
        (
            "BfeKeyState",
            format!("{:?}", bfe.export_state()),
            vec![bfe.array_root_key().to_vec()],
        ),
        (
            "DeviceKey",
            format!("{:?}", DeviceKey::from_bytes(devices[0])),
            vec![devices[0].to_vec()],
        ),
        (
            "Keyring",
            format!(
                "{:?}",
                Keyring::new(devices.iter().map(|&k| DeviceKey::from_bytes(k)).collect())
            ),
            devices.iter().map(|k| k.to_vec()).collect(),
        ),
    ];
    for (name, rendered, secrets) in cases {
        for secret in secrets {
            // The probe itself sees a raw print.
            assert!(shows(&format!("{secret:?}"), &secret));
            assert!(shows(&format!("{secret:x?}"), &secret));
            assert!(
                !shows(&rendered, &secret),
                "{name}'s Debug output shows secret bytes: {rendered}"
            );
        }
    }
}
