//! The benchmark's fixed definition: workloads, metrics, scale. The
//! root `BENCHMARK.json` is printed from these tables (`manifest`), so
//! the file and the program cannot drift apart.

use safetypin::SystemParams;
use safetypin_store::Durability;

use crate::json::{obj, Json};

/// How long one run may measure (`--seconds` from the driver).
pub const RUN_SECONDS: u64 = 10;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "recover_solo",
        why: "one user's full recovery at a time: one fleet-wide epoch per op, so log, multisig, \
              per-frame and fsync costs dominate (the user's latency)",
    },
    Workload {
        name: "recover_wave",
        why: "16 users per RecoverBatch wave: the epoch is amortised 16x, so coalesced HSM \
              decrypt/puncture work dominates (fleet capacity)",
    },
    Workload {
        name: "save_mixed",
        why: "back-to-back saves beside continuous solo recoveries: saves bypass HSM decrypt and \
              contend with epochs for the fleet lock (the common op)",
    },
    Workload {
        name: "inproc_wave",
        why: "recover_wave's engine without sockets, daemon or files: wire/lock/fsync changes \
              must leave it flat, crypto/log/engine changes must move it",
    },
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Worsening (share of the parent's median) that counts as a
    /// regression; end-to-end metrics only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("op_p50_ms", "ms", "lower", 0.25),
    e2e("op_p90_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.20),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

pub const PER_LAYER: [Metric; 66] = [
    layer("client.new_ms", "ms", "lower"),
    layer("client.backup_ms", "ms", "lower"),
    layer("client.start_recovery_ms", "ms", "lower"),
    layer("client.finish_ms", "ms", "lower"),
    layer("client.keying_bytes", "B", "lower"),
    layer("lhe.encrypt_ms", "ms", "lower"),
    layer("lhe.reconstruct_ms", "ms", "lower"),
    layer("bfe.encrypt_ms", "ms", "lower"),
    layer("proto.encode_ms", "ms", "lower"),
    layer("proto.decode_ms", "ms", "lower"),
    layer("proto.wire_bytes_per_op", "B", "lower"),
    layer("proto.frames_per_op", "count", "lower"),
    layer("proto.ping_ms", "ms", "lower"),
    layer("daemon.request_ms", "ms", "lower"),
    layer("daemon.lock_wait_ms", "ms", "lower"),
    layer("daemon.refused", "count", "lower"),
    layer("daemon.persist_s", "s", "lower"),
    layer("daemon.restore_s", "s", "lower"),
    layer("provider.insert_log_ms", "ms", "lower"),
    layer("provider.run_epoch_ms", "ms", "lower"),
    layer("provider.prove_inclusion_ms", "ms", "lower"),
    layer("provider.recover_round_ms", "ms", "lower"),
    layer("provider.put_backup_ms", "ms", "lower"),
    layer("provider.self_ms", "ms", "lower"),
    layer("provider.hsm_rounds_per_op", "count", "lower"),
    layer("provider.hsm_messages_per_op", "count", "lower"),
    layer("authlog.insert_ms", "ms", "lower"),
    layer("authlog.insert_many_ms", "ms", "lower"),
    layer("authlog.cut_epoch_ms", "ms", "lower"),
    layer("authlog.prove_ms", "ms", "lower"),
    layer("authlog.proof_bytes", "B", "lower"),
    layer("multisig.sign_ms", "ms", "lower"),
    layer("multisig.verify_aggregate_ms", "ms", "lower"),
    layer("hsm.recover_round_ms", "ms", "lower"),
    layer("hsm.epoch_round_ms", "ms", "lower"),
    layer("hsm.enroll_round_ms", "ms", "lower"),
    layer("hsm.requests_per_group", "count", "higher"),
    layer("hsm.shares_ok_frac", "ratio", "higher"),
    layer("bfe.decrypt_ms", "ms", "lower"),
    layer("bfe.puncture_ms", "ms", "lower"),
    layer("bfe.puncture_many_ms", "ms", "lower"),
    layer("bfe.keygen_ms_per_slot", "ms", "lower"),
    layer("seckv.read_batch_ms", "ms", "lower"),
    layer("seckv.delete_batch_ms", "ms", "lower"),
    layer("seckv.aead_ops_per_op", "count", "lower"),
    layer("seckv.blocks_fetched_per_op", "count", "lower"),
    layer("seckv.blocks_written_per_op", "count", "lower"),
    layer("store.fsyncs_per_op", "count", "lower"),
    layer("store.fsync_ms", "ms", "lower"),
    layer("store.wal_bytes_per_op", "B", "lower"),
    layer("store.cache_hit_rate", "ratio", "higher"),
    layer("store.put_ms", "ms", "lower"),
    layer("store.flush_ms", "ms", "lower"),
    layer("store.dir_bytes_per_user", "B", "lower"),
    layer("primitives.var_mults_per_op", "count", "lower"),
    layer("primitives.fixed_mults_per_op", "count", "lower"),
    layer("primitives.msm_terms_per_op", "count", "lower"),
    layer("primitives.msm_calls_per_op", "count", "lower"),
    layer("primitives.mul_us", "us", "lower"),
    layer("primitives.aead_us_per_kib", "us", "lower"),
    layer("core.recover_many_ms", "ms", "lower"),
    layer("telemetry.overhead_ratio", "ratio", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
    layer("trace.attributed_frac", "ratio", "higher"),
    layer("host.calib_cpu_ms", "ms", "lower"),
    layer("host.calib_fsync_ms", "ms", "lower"),
];

/// Users per wave on the wave workloads.
pub const WAVE: usize = 16;

/// Wrong-PIN probes run outside the timed window.
pub const PROBES: usize = 20;

/// The scale a run executes at. `full` is the recorded benchmark scale;
/// `smoke` exercises every code path in seconds and is never compared.
#[derive(Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
    pub total: u64,
    pub cluster: usize,
    pub slots: u64,
    pub durability: Durability,
    /// `recover_solo`: recoveries.
    pub solo_ops: usize,
    /// `recover_wave`: waves of [`WAVE`] users.
    pub wave_ops: usize,
    /// `save_mixed`: saves on connection A.
    pub save_ops: usize,
    /// `save_mixed`: users connection B may recover.
    pub save_bg_pool: usize,
    /// `inproc_wave`: waves of [`WAVE`] users.
    pub inproc_ops: usize,
    /// Ops per mode in the traced run (waves on wave workloads).
    pub traced_ops: usize,
    pub traced_waves: usize,
}

impl Scale {
    /// Op counts are sized so a workload's timed phase takes 7–9 s on
    /// the 2-core reference host; `--seconds` cuts it short on a slower
    /// one. Counts, not durations, are fixed so that every run leaves
    /// the log and the punctured slots in the same state, and every
    /// workload stays far below the fleet's half-puncture budget
    /// `N·slots/(2k·n)` = 8192 recoveries.
    pub fn full() -> Self {
        Self {
            smoke: false,
            total: 32,
            cluster: 8,
            slots: 1 << 14,
            durability: Durability::Relaxed,
            solo_ops: 500,
            wave_ops: 96,
            save_ops: 400,
            save_bg_pool: 400,
            inproc_ops: 80,
            traced_ops: 60,
            traced_waves: 12,
        }
    }

    pub fn smoke() -> Self {
        Self {
            smoke: true,
            slots: 1 << 10,
            solo_ops: 48,
            wave_ops: 3,
            save_ops: 48,
            save_bg_pool: 32,
            inproc_ops: 3,
            traced_ops: 12,
            traced_waves: 2,
            ..Self::full()
        }
    }

    pub fn params(&self) -> SystemParams {
        SystemParams::scaled(self.total, self.cluster, self.slots)
            .expect("the benchmark's fixed scale is a valid parameter set")
    }

    pub fn durability_name(&self) -> &'static str {
        match self.durability {
            Durability::Strict => "strict",
            Durability::Relaxed => "relaxed",
        }
    }

    /// The provenance block every result carries.
    pub fn to_json(self) -> Json {
        let params = self.params();
        obj([
            ("label", if self.smoke { "smoke" } else { "full" }.into()),
            ("hsms", self.total.into()),
            ("cluster", self.cluster.into()),
            ("threshold", params.lhe.threshold.into()),
            ("bfe_slots", self.slots.into()),
            ("bfe_hashes", u64::from(params.bfe.hashes).into()),
            (
                "audits_per_epoch",
                u64::from(params.audits_per_epoch).into(),
            ),
            ("secret_bytes", 32u64.into()),
            ("wave", WAVE.into()),
            (
                "ops",
                obj([
                    ("recover_solo", self.solo_ops.into()),
                    ("recover_wave_waves", self.wave_ops.into()),
                    ("save_mixed_saves", self.save_ops.into()),
                    ("save_mixed_recovery_pool", self.save_bg_pool.into()),
                    ("inproc_wave_waves", self.inproc_ops.into()),
                    ("traced_ops_per_mode", self.traced_ops.into()),
                    ("traced_waves_per_mode", self.traced_waves.into()),
                ]),
            ),
            ("durability", self.durability_name().into()),
            ("crypto_backend", "dlog-mock".into()),
        ])
    }
}

fn metric_json(metric: &Metric) -> Json {
    let mut fields = vec![
        ("name".to_string(), metric.name.into()),
        ("unit".to_string(), metric.unit.into()),
        ("better".to_string(), metric.better.into()),
    ];
    if let Some(bound) = metric.bound {
        fields.push(("bound".to_string(), bound.into()));
    }
    Json::Obj(fields)
}

/// The root `BENCHMARK.json`.
pub fn manifest() -> Json {
    obj([
        (
            "command",
            Json::Arr(vec!["bash".into(), "benchmark/run.sh".into()]),
        ),
        ("paths", Json::Arr(vec!["benchmark".into()])),
        ("run_seconds", RUN_SECONDS.into()),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}
