//! Best-effort secret wiping (volatile writes the optimizer must keep).
//!
//! A plain `for b in buf { *b = 0 }` before a deallocation is dead-store
//! eliminated: the compiler proves the memory is never read again and
//! drops the writes, leaving key bytes in freed memory for the
//! post-compromise adversary SafetyPin's threat model assumes. The
//! helpers here write through [`core::ptr::write_volatile`] — which the
//! optimizer may not elide — and follow with a [`compiler_fence`] so
//! the wipe is ordered before the deallocation that follows in `Drop`.
//!
//! The crate is otherwise `deny(unsafe_code)`: only this module and the
//! SHA-256 kernel (`crate::sha256`) opt back in, and this one is
//! deliberately tiny so the whole surface is reviewable at once. The guarantees are those of the
//! `zeroize` crate's approach: protection against the compiler, not
//! against a swapped-out page or a hardware side channel.

#![allow(unsafe_code)]

use core::sync::atomic::{compiler_fence, Ordering};

/// Overwrites `buf` with zeros using volatile writes.
pub fn wipe_bytes(buf: &mut [u8]) {
    for b in buf.iter_mut() {
        // SAFETY: `b` is a valid, aligned, exclusive reference for the
        // duration of the write.
        unsafe { core::ptr::write_volatile(b, 0) };
    }
    compiler_fence(Ordering::SeqCst);
}

/// Overwrites a fixed-size byte array with zeros using volatile writes.
pub fn wipe_array<const N: usize>(buf: &mut [u8; N]) {
    wipe_bytes(buf.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wipe_bytes_clears_every_byte() {
        let mut buf = vec![0xA5u8; 37];
        wipe_bytes(&mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn wipe_array_clears_every_byte() {
        let mut buf = [0xFFu8; 16];
        wipe_array(&mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn wipe_empty_is_a_no_op() {
        let mut buf: [u8; 0] = [];
        wipe_array(&mut buf);
    }
}
