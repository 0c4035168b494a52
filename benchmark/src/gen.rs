//! Seeded input generation: usernames, human-skewed PINs and secrets.
//!
//! Everything a run feeds the system derives from `--seed`; the same
//! seed gives the same users, PINs, secrets, client RNG streams and
//! daemon provisioning seed.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// One generated user.
#[derive(Clone)]
pub struct User {
    pub name: Vec<u8>,
    pub pin: Vec<u8>,
    pub secret: Vec<u8>,
}

/// SplitMix64 step: the generator's only source of bits.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent 64-bit stream key from the run seed, a role
/// label and an index.
pub fn mix(seed: u64, role: &str, index: u64) -> u64 {
    let mut state = seed ^ 0x5AFE_7EA1_0000_0000;
    for byte in role.bytes() {
        state = splitmix(&mut state) ^ u64::from(byte);
    }
    state ^= index.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix(&mut state)
}

/// A client-side RNG stream for `(seed, role, index)`.
pub fn rng(seed: u64, role: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, role, index))
}

/// Numeric patterns people pick, most popular first.
const POPULAR: [&str; 16] = [
    "123456", "111111", "000000", "123123", "654321", "121212", "666666", "112233", "789456",
    "159753", "222222", "555555", "999999", "131313", "777777", "147258",
];

/// Six-letter words typed on a phone keypad (the dictionary method of
/// Staneková & Stanek): distinct words collide on the same digits, so
/// the PIN distribution is skewed the way memorable PINs are.
const WORDS: [&str; 24] = [
    "secret", "summer", "winter", "dragon", "monkey", "shadow", "master", "hunter", "soccer",
    "tigger", "purple", "orange", "silver", "ginger", "cookie", "banana", "flower", "london",
    "yellow", "pepper", "cheese", "family", "friend", "spring",
];

fn keypad(word: &str) -> String {
    word.bytes()
        .map(|c| match c {
            b'a'..=b'c' => '2',
            b'd'..=b'f' => '3',
            b'g'..=b'i' => '4',
            b'j'..=b'l' => '5',
            b'm'..=b'o' => '6',
            b'p'..=b's' => '7',
            b't'..=b'v' => '8',
            _ => '9',
        })
        .collect()
}

/// Picks rank `r` from `n` with weight ∝ 1/(r+1) (a Zipf head).
fn zipf(bits: u64, n: usize) -> usize {
    let total: f64 = (1..=n).map(|r| 1.0 / r as f64).sum();
    let mut target = (bits >> 11) as f64 / (1u64 << 53) as f64 * total;
    for r in 0..n {
        target -= 1.0 / (r + 1) as f64;
        if target <= 0.0 {
            return r;
        }
    }
    n - 1
}

/// A six-digit PIN from a human-skewed dictionary: a quarter are popular
/// numeric patterns, a quarter keypad words, a quarter dates (DDMMYY),
/// the rest uniform. Safe for the benchmark because the cluster is
/// `Hash(salt, PIN)` with a per-user salt: equal PINs share no state.
fn skewed_pin(state: &mut u64) -> Vec<u8> {
    let kind = splitmix(state) % 4;
    let bits = splitmix(state);
    let pin = match kind {
        0 => POPULAR[zipf(bits, POPULAR.len())].to_string(),
        1 => keypad(WORDS[zipf(bits, WORDS.len())]),
        2 => format!(
            "{:02}{:02}{:02}",
            1 + bits % 28,
            1 + (bits >> 8) % 12,
            (bits >> 16) % 100
        ),
        _ => format!("{:06}", bits % 1_000_000),
    };
    pin.into_bytes()
}

/// The `index`-th user of `role` under `seed`.
pub fn user(seed: u64, role: &str, index: usize) -> User {
    let mut state = mix(seed, role, index as u64);
    let pin = skewed_pin(&mut state);
    let mut secret = Vec::with_capacity(32);
    for _ in 0..4 {
        secret.extend_from_slice(&splitmix(&mut state).to_be_bytes());
    }
    User {
        name: format!("{role}-{seed:016x}-{index:05}").into_bytes(),
        pin,
        secret,
    }
}

/// `count` users of `role`.
pub fn users(seed: u64, role: &str, count: usize) -> Vec<User> {
    (0..count).map(|i| user(seed, role, i)).collect()
}

/// A PIN guaranteed to differ from `pin` (last digit rotated).
pub fn wrong_pin(pin: &[u8]) -> Vec<u8> {
    let mut wrong = pin.to_vec();
    if let Some(last) = wrong.last_mut() {
        *last = b'0' + (*last - b'0' + 1) % 10;
    }
    wrong
}
