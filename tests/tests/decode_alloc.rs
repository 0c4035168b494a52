//! A peer's declared sequence count does not size the decoder's
//! allocations: decoding a frame reserves memory in proportion to the
//! frame, whatever item count it claims.
//!
//! One test per binary: the allocator below is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use safetypin::primitives::wire::Decode;
use safetypin_proto::{Envelope, PROTO_VERSION};

/// The system allocator, plus the largest single request seen while
/// `COUNTING` is set.
struct Peak;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

impl Peak {
    fn note(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            LARGEST.fetch_max(size, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards its layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the note only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Peak {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Peak = Peak;

/// The largest single allocation made while decoding `frame`.
fn largest_allocation_decoding(frame: &[u8]) -> usize {
    LARGEST.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let decoded = Envelope::from_bytes(frame);
    COUNTING.store(false, Ordering::Relaxed);
    drop(decoded);
    LARGEST.load(Ordering::Relaxed)
}

/// An envelope whose provider request (`ProviderRequest`, message tag
/// 4) starts with `head` and then declares `u16::MAX` per-HSM recovery
/// requests, followed by one byte more of zero padding than that count
/// (so the count passes the one-byte-per-item check).
fn crafted_frame(head: &[u8]) -> Vec<u8> {
    let mut frame = PROTO_VERSION.to_be_bytes().to_vec();
    frame.push(4);
    frame.extend_from_slice(head);
    frame.extend_from_slice(&u32::from(u16::MAX).to_be_bytes());
    frame.resize(frame.len() + usize::from(u16::MAX) + 1, 0);
    frame
}

#[test]
fn a_declared_count_does_not_size_the_allocation() {
    // `Recover` (variant tag 4) is one `(u64, RecoveryRequest)`
    // sequence; `RecoverBatch` (variant tag 6) is a user count (here 1)
    // and then one such sequence per user.
    let frames = [
        ("Recover", crafted_frame(&[4])),
        ("RecoverBatch", crafted_frame(&[6, 0, 0, 0, 1])),
    ];
    for (name, frame) in frames {
        let largest = largest_allocation_decoding(&frame);
        assert!(
            largest <= 8 * frame.len(),
            "decoding a {}-byte {name} frame allocated {largest} B in one request",
            frame.len()
        );
    }
}
