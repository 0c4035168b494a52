//! A save allocates for the backup it builds, not for the fleet's public
//! keys: `Client::backup` must allocate fewer bytes than one HSM's slot
//! points, however many HSMs the client encrypts across.
//!
//! One test per binary: the counting allocator below is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use safetypin::bfe::BfeParams;
use safetypin::{Deployment, SystemParams};

/// The system allocator, plus a tally of the bytes requested while
/// `COUNTING` is set.
struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

impl Counting {
    fn tally(size: usize) {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call forwards its layout and pointer unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the tally only
// touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tally(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tally(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_save_allocates_less_than_one_devices_slot_points() {
    let mut rng = StdRng::seed_from_u64(25);
    // The small fleet with a 1,024-slot filter: the backup's own
    // ciphertext work (≈ 10 KB) must fit under the bound with room to
    // spare, and test_small's 128 slots × 32 B is only 4 KB.
    let params = SystemParams {
        bfe: BfeParams::new(1 << 10, 3).unwrap(),
        ..SystemParams::test_small(16)
    };
    let d = Deployment::provision(params, &mut rng).unwrap();
    let mut client = d.new_client(b"alloc-probe").unwrap();
    // The first backup draws the series salt and builds the process's
    // lazy tables; measure a steady-state one.
    client.backup(b"314159", b"warm-up", 0, &mut rng).unwrap();

    ALLOCATED.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let artifact = client.backup(b"314159", b"measured", 0, &mut rng);
    COUNTING.store(false, Ordering::Relaxed);
    let allocated = ALLOCATED.load(Ordering::Relaxed);

    artifact.unwrap();
    let slot_points = params.bfe.slots * 32;
    assert!(
        allocated < slot_points,
        "a save allocated {allocated} B, one HSM's slot points are {slot_points} B"
    );
}
