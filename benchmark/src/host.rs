//! What the benchmark reads from the host: CPU time, peak memory, the
//! store directory's filesystem, and the noise canary.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sha2::{Digest, Sha256};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: user+system CPU of every thread of
/// this process, living or exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time in milliseconds. `/proc/self/stat` has the same
/// number at 10 ms ticks, too coarse to bracket a 10 ms operation.
pub fn process_cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer,
    // which refers to a live, properly aligned `Timespec` whose layout
    // matches the 64-bit Linux C struct; no other memory is touched.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is unavailable");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in mounts.lines() {
        // "<id> <parent> <dev> <root> <mount point> <opts> ... - <fstype> ..."
        let fields: Vec<&str> = line.split(' ').collect();
        let (Some(mount), Some(sep)) = (fields.get(4), fields.iter().position(|f| *f == "-"))
        else {
            continue;
        };
        let Some(fstype) = fields.get(sep + 1) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, fstype)| fstype)
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Runs `sync`, so that what a build or an earlier run left dirty is
/// written back before this run is timed, not during it.
pub fn drain_dirty_pages() {
    let _ = std::process::Command::new("sync").status();
}

/// One reading of the noise canary.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    /// SHA-256 over 64 MiB, milliseconds.
    pub cpu_ms: f64,
    /// 200 × (4 KiB write + fsync), milliseconds.
    pub fsync_ms: f64,
}

/// Times the fixed CPU kernel and the fixed fsync kernel in `dir`.
pub fn calibrate(dir: &Path) -> std::io::Result<Calibration> {
    // 64 MiB as 512 ticks of 128 KiB, priced at the median tick: one
    // preempted tick does not move the reading.
    let ticks: Vec<f64> = (0..512).map(|_| canary_tick()).collect();
    let cpu_ms = 512.0 * crate::stats::median(&ticks);

    std::fs::create_dir_all(dir)?;
    let path = dir.join("calibration.bin");
    let mut file = std::fs::File::create(&path)?;
    let page = [0x5Au8; 4096];
    let start = Instant::now();
    for _ in 0..200 {
        file.write_all(&page)?;
        file.sync_data()?;
    }
    let fsync_ms = start.elapsed().as_secs_f64() * 1e3;
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(Calibration { cpu_ms, fsync_ms })
}

/// Whether two canary readings differ by more than 10 % on either
/// kernel.
pub fn drifted(a: Calibration, b: Calibration) -> bool {
    let off = |x: f64, y: f64| (x - y).abs() > 0.10 * x.min(y);
    off(a.cpu_ms, b.cpu_ms) || off(a.fsync_ms, b.fsync_ms)
}

/// A scratch directory inside the checkout, removed on drop.
pub struct TempDir(pub std::path::PathBuf);

impl TempDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        let dir = crate::out_dir()
            .join("tmp")
            .join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one canary tick costs on the reference host at its usual
/// speed; only fixes the unit of the speed-corrected timings.
pub const CANARY_REF_MS: f64 = 0.70;

/// One tick of the speed canary: SHA-256 over 128 KiB, in milliseconds.
///
/// The reference host's CPU speed drifts by ±12 % over seconds, and the
/// timings of operations drift with it; a tick taken next to each
/// operation tracks the drift (block medians of the two move together),
/// so timings are reported scaled by `CANARY_REF_MS / tick`.
pub fn canary_tick() -> f64 {
    static BLOCK: [u8; 1 << 17] = [0xA5; 1 << 17];
    let start = Instant::now();
    let mut hasher = Sha256::new();
    hasher.update(&BLOCK[..]);
    std::hint::black_box(hasher.finalize());
    start.elapsed().as_secs_f64() * 1e3
}

/// The tick taken after an operation that ran for `op_ms`: the median
/// of enough *twin* ticks to cover about 4 % of the operation's time. A
/// twin tick runs on two threads at once and averages them, because the
/// fleet fans an operation out over both cores of the reference host and
/// either core may be the slow one.
pub fn op_tick(op_ms: f64) -> f64 {
    let count = ((0.04 * op_ms / CANARY_REF_MS).round() as usize).clamp(1, 9);
    let ticks: Vec<f64> = (0..count)
        .map(|_| {
            std::thread::scope(|scope| {
                let other = scope.spawn(canary_tick);
                let mine = canary_tick();
                (mine + other.join().expect("a tick does not panic")) / 2.0
            })
        })
        .collect();
    crate::stats::median(&ticks)
}

/// Ticks the canary on its own thread, one tick every 20 ms (3 % of a
/// core), while a phase that cannot be interleaved with ticks runs —
/// set-up is a few long calls into the system.
pub struct CanarySampler {
    stop: Arc<AtomicBool>,
    ticks: std::thread::JoinHandle<Vec<f64>>,
}

impl CanarySampler {
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let seen = Arc::clone(&stop);
        let ticks = std::thread::spawn(move || {
            let mut ticks = Vec::new();
            while !seen.load(Ordering::SeqCst) {
                ticks.push(canary_tick());
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            ticks
        });
        Self { stop, ticks }
    }

    /// Stops ticking and returns the median tick in milliseconds.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::SeqCst);
        let ticks = self.ticks.join().expect("the canary thread does not panic");
        crate::stats::median(&ticks)
    }
}
