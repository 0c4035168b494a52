//! SHA-256 (FIPS 180-4): the one hash kernel behind [`crate::hashes`].
//!
//! Two kernels compute the same bytes, and [`Sha256::new`] picks one per
//! hasher at run time:
//!
//! - **SHA-NI** (x86-64 CPUs with the SHA extensions): `sha256msg1` and
//!   `sha256msg2` extend the message schedule four words at a time and
//!   `sha256rnds2` runs two rounds per instruction, with the state held in
//!   the `ABEF`/`CDGH` register layout those instructions expect.
//! - **Portable** (every other CPU): the textbook rounds over a rolling
//!   16-word schedule, with the round constants in a `const` table.
//!
//! Neither branches on data or indexes a table by data, so both are
//! constant-time: `hash_parts` hashes secret Diffie–Hellman points in
//! [`crate::elgamal`]'s KDF. `finalize` pads in the hasher's own 64-byte
//! buffer and allocates nothing.
//!
//! The vendored `sha2` crate is not used here: it is the kernel the
//! benchmark's speed canary times, and this crate's test oracle. The
//! tests check both kernels against the FIPS 180-4 vectors, the streaming
//! hasher against `sha2` at every padding boundary, and SHA-NI against the
//! portable kernel block by block.
//!
//! This module and [`crate::zeroize`] hold the crate's unsafe code: the
//! call into the `#[target_feature]` kernel and its unaligned loads and
//! stores.

#![allow(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]

/// The initial hash value `H(0)` (FIPS 180-4 §5.3.3): the first 32 bits of
/// the fractional parts of the square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// The round constants `K` (FIPS 180-4 §4.2.2): the first 32 bits of the
/// fractional parts of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Streaming SHA-256.
pub(crate) struct Sha256 {
    kernel: Kernel,
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    /// Bytes absorbed so far, modulo 2^64.
    total_len: u64,
}

impl Sha256 {
    /// A fresh hasher on the fastest kernel this CPU runs.
    pub(crate) fn new() -> Self {
        Self::with_kernel(Kernel::detect())
    }

    fn with_kernel(kernel: Kernel) -> Self {
        Self {
            kernel,
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data`: whole blocks go straight to the kernel, the rest
    /// waits in the buffer.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = core::cmp::min(64 - self.buf_len, data.len());
            let (head, rest) = data.split_at(take);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(head);
            self.buf_len += take;
            if self.buf_len < 64 {
                return;
            }
            self.kernel.compress(&mut self.state, &self.buf);
            self.buf_len = 0;
            data = rest;
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            self.kernel.compress(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Pads (FIPS 180-4 §5.1.1: `0x80`, zeros, the 64-bit big-endian bit
    /// length) in the buffer and returns the digest.
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= 56 {
            self.kernel.compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        self.kernel.compress(&mut self.state, &self.buf);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// Which compression function a hasher runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kernel {
    Portable,
    /// Built only by [`Kernel::detect`] (and the tests), after
    /// [`ni::available`] held.
    #[cfg(target_arch = "x86_64")]
    Ni,
}

impl Kernel {
    fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            return Kernel::Ni;
        }
        Kernel::Portable
    }

    /// Compresses `blocks` (a whole number of 64-byte blocks) into `state`.
    fn compress(self, state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0);
        match self {
            Kernel::Portable => portable::compress(state, blocks),
            #[cfg(target_arch = "x86_64")]
            Kernel::Ni => {
                // SAFETY: `Kernel::Ni` exists only once `ni::available` saw
                // the SHA, SSE2, SSSE3 and SSE4.1 extensions on this CPU.
                unsafe { ni::compress(state, blocks) }
            }
        }
    }
}

mod portable {
    use super::K;

    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        for block in blocks.chunks_exact(64) {
            // `w[i % 16]` holds schedule word `W_i` for the 16 rounds that
            // read it; round `i >= 16` overwrites `W_{i-16}` with `W_i`.
            let mut w = [0u32; 16];
            for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
                *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
            }
            let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
            for (i, k) in K.iter().enumerate() {
                if i >= 16 {
                    let w15 = w[(i + 1) % 16];
                    let w2 = w[(i + 14) % 16];
                    let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
                    let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
                    w[i % 16] = w[i % 16]
                        .wrapping_add(s0)
                        .wrapping_add(w[(i + 9) % 16])
                        .wrapping_add(s1);
                }
                let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
                let ch = (e & f) ^ (!e & g);
                let t1 = h
                    .wrapping_add(s1)
                    .wrapping_add(ch)
                    .wrapping_add(*k)
                    .wrapping_add(w[i % 16]);
                let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
                let maj = (a & b) ^ (a & c) ^ (b & c);
                let t2 = s0.wrapping_add(maj);
                h = g;
                g = f;
                f = e;
                e = d.wrapping_add(t1);
                d = c;
                c = b;
                b = a;
                a = t1.wrapping_add(t2);
            }
            for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
                *s = s.wrapping_add(v);
            }
        }
    }
}

/// The SHA-NI kernel. Its functions are safe `#[target_feature]` functions,
/// so calling one is `unsafe` only from code compiled without those
/// features: the caller must have seen them in [`ni::available`].
#[cfg(target_arch = "x86_64")]
mod ni {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Whether this CPU has the SHA extensions and the SSE levels the
    /// kernel's shuffles need.
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Schedule words `W_i..W_{i+4}` from the sixteen before them, given
    /// as `W_{i-16}..W_{i-12}`, …, `W_{i-4}..W_i` (FIPS 180-4 §6.2.2 step 1).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        // `msg1` adds σ0 of the next word to each of w0's; the align brings
        // in `W_{i-7}..W_{i-3}`; `msg2` adds σ1 of the word two back,
        // feeding its own first two outputs into its last two.
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds `4·group .. 4·group + 4` on schedule words `w`: each
    /// `sha256rnds2` runs two rounds on the low two words of `w + K`.
    /// Two rounds turn the old `ABEF` into the new `CDGH`, so the two
    /// registers trade roles between the calls.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn rounds(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, group: usize) {
        let k = &K[4 * group..4 * group + 4];
        let k = _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32);
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32::<0x0e>(wk));
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Reverses the bytes of each 32-bit lane: the message is big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // State words `a..h` → the instructions' layout. A register's name
        // lists its lanes from 3 down to 0: `abef` holds `f` in lane 0.
        let (lo, hi) = state.split_at(4);
        let dcba = _mm_set_epi32(lo[3] as i32, lo[2] as i32, lo[1] as i32, lo[0] as i32);
        let hgfe = _mm_set_epi32(hi[3] as i32, hi[2] as i32, hi[1] as i32, hi[0] as i32);
        let cdab = _mm_shuffle_epi32::<0xb1>(dcba);
        let efgh = _mm_shuffle_epi32::<0x1b>(hgfe);
        let mut abef = _mm_alignr_epi8::<8>(cdab, efgh);
        let mut cdgh = _mm_blend_epi16::<0xf0>(efgh, cdab);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 bytes, so the 16-byte loads at `p`,
            // `p + 1`, `p + 2` and `p + 3` stay inside it, and `loadu` has
            // no alignment requirement.
            let m = unsafe {
                [
                    _mm_loadu_si128(p),
                    _mm_loadu_si128(p.add(1)),
                    _mm_loadu_si128(p.add(2)),
                    _mm_loadu_si128(p.add(3)),
                ]
            };
            let mut w0 = _mm_shuffle_epi8(m[0], bswap);
            let mut w1 = _mm_shuffle_epi8(m[1], bswap);
            let mut w2 = _mm_shuffle_epi8(m[2], bswap);
            let mut w3 = _mm_shuffle_epi8(m[3], bswap);
            rounds(&mut abef, &mut cdgh, w0, 0);
            rounds(&mut abef, &mut cdgh, w1, 1);
            rounds(&mut abef, &mut cdgh, w2, 2);
            rounds(&mut abef, &mut cdgh, w3, 3);
            for group in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds(&mut abef, &mut cdgh, w0, group);
                w1 = schedule(w1, w2, w3, w0);
                rounds(&mut abef, &mut cdgh, w1, group + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds(&mut abef, &mut cdgh, w2, group + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds(&mut abef, &mut cdgh, w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32::<0x1b>(abef);
        let dchg = _mm_shuffle_epi32::<0xb1>(cdgh);
        let (lo, hi) = state.split_at_mut(4);
        // SAFETY: `lo` and `hi` are four `u32`s (16 bytes) each, and
        // `storeu` has no alignment requirement.
        unsafe {
            _mm_storeu_si128(lo.as_mut_ptr().cast(), _mm_blend_epi16::<0xf0>(feba, dchg));
            _mm_storeu_si128(hi.as_mut_ptr().cast(), _mm_alignr_epi8::<8>(dchg, feba));
        }
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "the vendored `sha2` is this module's test oracle"
)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use sha2::Digest;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Every kernel this CPU runs; SHA-NI only where it is detected.
    fn kernels() -> Vec<Kernel> {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            return vec![Kernel::Portable, Kernel::Ni];
        }
        println!("note: no SHA extensions on this CPU; checking the portable kernel only");
        vec![Kernel::Portable]
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    fn oracle(data: &[u8]) -> [u8; 32] {
        sha2::Sha256::digest(data).into()
    }

    #[test]
    fn new_picks_sha_ni_where_detected() {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            assert_eq!(Sha256::new().kernel, Kernel::Ni);
            return;
        }
        println!("note: no SHA extensions on this CPU; the portable kernel is the only one");
        assert_eq!(Sha256::new().kernel, Kernel::Portable);
    }

    #[test]
    fn fips_180_4_vectors_on_every_kernel() {
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                  hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        let million_a = vec![b'a'; 1_000_000];
        for kernel in kernels() {
            for (message, expected) in vectors {
                assert_eq!(hex(&digest_with(kernel, message)), expected, "{kernel:?}");
            }
            assert_eq!(
                hex(&digest_with(kernel, &million_a)),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?}"
            );
        }
    }

    #[test]
    fn streaming_matches_the_oracle_at_every_padding_boundary() {
        let data: Vec<u8> = (0..=300u32).map(|i| (i * 131 + 7) as u8).collect();
        for kernel in kernels() {
            for len in 0..=300 {
                let message = &data[..len];
                let expected = oracle(message);
                for split in [0, 1, 7, 55, 56, 63, 64, 65] {
                    if split > len {
                        continue;
                    }
                    let (head, tail) = message.split_at(split);
                    let mut h = Sha256::with_kernel(kernel);
                    h.update(head);
                    h.update(tail);
                    assert_eq!(h.finalize(), expected, "{kernel:?} len {len} split {split}");
                }
            }
        }
    }

    #[test]
    fn streaming_matches_the_oracle_on_random_chunkings() {
        let mut rng = StdRng::seed_from_u64(0x5a17_2560);
        for kernel in kernels() {
            for _ in 0..1000 {
                let mut message = vec![0u8; rng.gen_range(0..4097usize)];
                rng.fill(&mut message[..]);
                let mut h = Sha256::with_kernel(kernel);
                let mut rest = &message[..];
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at(rng.gen_range(1..rest.len() + 1));
                    h.update(chunk);
                    rest = tail;
                }
                assert_eq!(h.finalize(), oracle(&message), "{kernel:?}");
            }
        }
    }

    #[test]
    fn sha_ni_matches_portable_block_by_block() {
        #[cfg(target_arch = "x86_64")]
        if ni::available() {
            let mut rng = StdRng::seed_from_u64(0x0005_4a4e);
            for _ in 0..10_000 {
                let state: [u32; 8] = core::array::from_fn(|_| rng.gen());
                let mut block = [0u8; 64];
                rng.fill(&mut block[..]);
                let (mut fast, mut slow) = (state, state);
                Kernel::Ni.compress(&mut fast, &block);
                Kernel::Portable.compress(&mut slow, &block);
                assert_eq!(fast, slow, "state {state:08x?} block {}", hex(&block));
            }
            return;
        }
        println!("note: no SHA extensions on this CPU; SHA-NI left unchecked");
    }
}
