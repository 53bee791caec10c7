//! The run's result: the contract line on stdout and a detail line on
//! stderr.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    S,
    Us,
    Ns,
    OpsPerS,
    Bytes,
    Mb,
    Ratio,
    Count,
}

impl Unit {
    const ALL: [Unit; 8] = [
        Unit::S,
        Unit::Us,
        Unit::Ns,
        Unit::OpsPerS,
        Unit::Bytes,
        Unit::Mb,
        Unit::Ratio,
        Unit::Count,
    ];

    pub fn parse(s: &str) -> Option<Unit> {
        Unit::ALL.into_iter().find(|u| u.as_str() == s)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Unit::S => "s",
            Unit::Us => "us",
            Unit::Ns => "ns",
            Unit::OpsPerS => "ops/s",
            Unit::Bytes => "bytes",
            Unit::Mb => "MB",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
        }
    }
}

/// The end-to-end metrics an untraced run prints (`end_to_end` in
/// `BENCHMARK.json`), measured on every workload. The tail percentiles
/// are per-layer metrics instead: two spinning threads on the 2-vCPU
/// reference box lose 2–3% of their time to host stalls of 1–17 ms, so
/// any percentile above p97 measures the host as much as the program.
pub const END_TO_END: [(&str, Unit); 7] = [
    ("setup_s", Unit::S),
    ("vip_p50_us", Unit::Us),
    ("guest_p50_us", Unit::Us),
    ("goodput_ops_s", Unit::OpsPerS),
    ("rss_growth_bytes_per_op", Unit::Bytes),
    ("rss_peak_mb", Unit::Mb),
    ("recover_s", Unit::S),
];

/// The per-layer metrics a traced run prints (`per_layer` in
/// `BENCHMARK.json`). Every one is reported on every workload: counts of
/// a layer the workload does not use read 0, and no time is listed here
/// unless every workload exercises its layer. Timings of layers that run
/// on some workloads only are in the detail line and the span file.
pub const PER_LAYER: [(&str, Unit); 30] = [
    ("vip_p99_us", Unit::Us),
    ("guest_p99_us", Unit::Us),
    ("vip_error_ratio", Unit::Ratio),
    ("guest_error_ratio", Unit::Ratio),
    ("store.commit_ns.vip", Unit::Ns),
    ("store.commit_ns.guest", Unit::Ns),
    ("store.commits_per_op.vip", Unit::Count),
    ("store.commits_per_op.guest", Unit::Count),
    ("store.moved_ops.vip", Unit::Count),
    ("store.moved_ops.guest", Unit::Count),
    ("store.auto_checkpoints", Unit::Count),
    ("router.plan_ns_per_op", Unit::Ns),
    ("persist.checkpoint_s", Unit::S),
    ("persist.snapshot_write_s", Unit::S),
    ("persist.snapshot_bytes", Unit::Bytes),
    ("persist.recover_s", Unit::S),
    ("wal.appends.group", Unit::Count),
    ("wal.appends.sync", Unit::Count),
    ("wal.bytes_per_op", Unit::Bytes),
    ("wal.frames_per_flush", Unit::Count),
    ("wal.replay_frames", Unit::Count),
    ("reactor.shed", Unit::Count),
    ("reactor.deadline_shed", Unit::Count),
    ("reactor.frames_per_turn", Unit::Count),
    ("reactor.idle_turn_share", Unit::Ratio),
    ("reactor.batch_envelopes", Unit::Count),
    ("reactor.queue_depth_max", Unit::Count),
    ("codec.frame_bytes", Unit::Bytes),
    ("trace.unattributed_share", Unit::Ratio),
    ("trace.overhead_share", Unit::Ratio),
];

pub struct Report {
    pub workload: &'static str,
    /// Names this run's span file: `trace-<tag>.jsonl`.
    pub tag: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: Vec<(String, Unit, f64)>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            tag: workload.to_string(),
            correct: false,
            attempted: 0,
            failed: 0,
            values: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, unit: Unit, value: f64) {
        self.values.push((name.to_string(), unit, value));
    }

    pub fn values(&self) -> impl Iterator<Item = (&str, Unit, f64)> {
        self.values.iter().map(|(n, u, v)| (n.as_str(), *u, *v))
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.get(name).map(|(_, v)| v)
    }

    fn get(&self, name: &str) -> Option<(Unit, f64)> {
        self.values.iter().rev().find(|v| v.0 == name).map(|v| (v.1, v.2))
    }

    /// The contract line: exactly the declared metrics of the run's mode.
    /// `Err` names a declared metric the run did not measure.
    pub fn contract_line(&self, trace: bool) -> Result<String, String> {
        let declared: &[(&str, Unit)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in declared {
            match self.get(name) {
                Some((u, v)) if u == unit && v.is_finite() => metrics.push(entry(name, unit, v)),
                Some((u, v)) => {
                    return Err(format!("{name} = {v} {} (declared {})", u.as_str(), unit.as_str()))
                }
                None => return Err(format!("{name} was not measured")),
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }

    /// Every value the run measured, declared or not.
    pub fn detail_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(
                |(n, u, v)| if v.is_finite() { entry(n, *u, *v) } else { format!("\"{n}\": null") },
            )
            .collect();
        format!("{{\"workload\": \"{}\", \"detail\": {{{}}}}}", self.workload, metrics.join(", "))
    }
}

fn entry(name: &str, unit: Unit, value: f64) -> String {
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}", unit.as_str())
}
