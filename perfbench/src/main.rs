//! `apc-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire-steady --seed 1 --seconds 45 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --calibrate
//! ```
//!
//! A run is [`CHILDREN`] child processes of this binary, one after the
//! other, each measuring its share of `--seconds` on a fresh store with
//! inputs drawn from the run's seed and its index. One process per
//! measurement keeps each memory figure its own and bounds what the
//! stores' retained memory can grow to. [`combine`] makes the run's
//! value of each metric from the children's.
//!
//! The last line of stdout is the result: `correct`, `attempted`,
//! `failed` and the metrics `BENCHMARK.json` declares for the mode
//! (end-to-end with `--trace 0`, per-layer with `--trace 1`). The line
//! before it, on stderr, carries the run's value of everything the children
//! measured. A traced run also writes each child's sampled spans to
//! `perfbench/out/trace-<workload>-<seed>-<child>.jsonl`.

mod gen;
mod inproc;
mod report;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use apc_store::{ShardTopology, StoreBuilder, StoreOp};

use report::{Report, Unit};
use stats::Delta;

/// Child processes per run.
const CHILDREN: u64 = 9;
/// Metrics the children report as the best of several measurements (the
/// quietest latency window, the fastest recovery).
const BEST_OF: [&str; 4] = ["vip_p50_us", "guest_p50_us", "recover_s", "persist.recover_s"];
/// Metrics that grow with the work a child got done. In process, the two
/// sessions take turns starving each other for up to a second at a time,
/// so one child's share swings by ±25%; the mean of equal-length children
/// is the run's rate.
const MEAN_OF: [&str; 2] = ["goodput_ops_s", "rss_peak_mb"];
/// Ops per session fed to the router's plan timing.
const PLAN_OPS: usize = 100_000;
/// Stream id the children's seeds are drawn from.
const CHILD_SEEDS: u64 = 0x200;

/// Every workload's store: the default sizing (4 shards, 2 VIP ports, 6
/// guest ports) with a checkpoint seal every 256 commits per shard.
fn builder() -> StoreBuilder {
    StoreBuilder::new().checkpoint_every(256)
}

/// Where runs keep their WAL, snapshots, samples and span files.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: bool,
    /// Set in a child: its index.
    child: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 45,
        trace: false,
        calibrate: false,
        child: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => args.trace = number()? != 0,
            "--child" => args.child = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.calibrate {
        wire::calibrate(args.seed);
        return ExitCode::SUCCESS;
    }
    let workload: &'static str = match args.workload.as_str() {
        "wire-steady" => "wire-steady",
        "wire-flood" => "wire-flood",
        "inproc-durable" => "inproc-durable",
        other => {
            eprintln!("unknown workload {other:?}: wire-steady | wire-flood | inproc-durable");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.child {
        child(&args, workload, k);
        return ExitCode::SUCCESS;
    }
    match run_children(&args, workload).and_then(|report| {
        eprintln!("{}", report.detail_line());
        println!("{}", report.contract_line(args.trace)?);
        Ok(())
    }) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// One child: measures the workload once and prints its values for the
/// parent.
fn child(args: &Args, workload: &'static str, k: u64) {
    let seed = gen::draw(args.seed, CHILD_SEEDS, k);
    let mut report = Report::new(workload);
    report.tag = format!("{workload}-{}-{k}", args.seed);
    let lat = match workload {
        "wire-steady" => wire::run(wire::STEADY, seed, args.seconds, args.trace, &mut report),
        "wire-flood" => wire::run(wire::FLOOD, seed, args.seconds, args.trace, &mut report),
        _ => inproc::run(seed, args.seconds, args.trace, &mut report),
    };
    for (tier, l) in ["vip", "guest"].iter().zip(&lat) {
        report.put(&format!("{tier}_p50_us"), Unit::Us, l.best_window_median_us());
        report.put(&format!("{tier}_p50_all_us"), Unit::Us, l.percentile_us(50.0));
        report.put(&format!("{tier}_p99_us"), Unit::Us, l.percentile_us(99.0));
        report.put(&format!("samples.{tier}"), Unit::Count, l.len() as f64);
    }
    println!("result {} {} {}", report.correct, report.attempted, report.failed);
    for (name, unit, value) in report.values() {
        println!("metric {name} {} {value}", unit.as_str());
    }
}

/// The run: [`CHILDREN`] children in turn, their values combined by
/// [`combine`].
fn run_children(args: &Args, workload: &'static str) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this binary: {e}"))?;
    let per_child = (args.seconds / CHILDREN).max(1);
    let mut report = Report::new(workload);
    report.correct = true;
    let mut values: Vec<(String, Unit, Vec<f64>)> = Vec::new();
    for k in 0..CHILDREN {
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &per_child.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--child", &k.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start child {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("child {k} of {workload} failed: {}", out.status));
        }
        for line in String::from_utf8_lossy(&out.stdout).lines() {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                ["result", correct, attempted, failed] => {
                    report.correct &= *correct == "true";
                    report.attempted += attempted.parse::<u64>().unwrap_or(0);
                    report.failed += failed.parse::<u64>().unwrap_or(0);
                }
                ["metric", name, unit, value] => {
                    let unit = Unit::parse(unit).ok_or_else(|| format!("child {k}: {line:?}"))?;
                    let value =
                        value.parse::<f64>().map_err(|e| format!("child {k}: {line:?}: {e}"))?;
                    match values.iter_mut().find(|v| v.0 == *name) {
                        Some(v) => v.2.push(value),
                        None => values.push((name.to_string(), unit, vec![value])),
                    }
                }
                _ => return Err(format!("child {k}: unexpected line {line:?}")),
            }
        }
    }
    for (name, unit, mut v) in values {
        report.put(&name, unit, combine(&name, &mut v));
    }
    Ok(report)
}

/// The run's value of a metric from its children's: the best for the
/// [`BEST_OF`] metrics, the mean for the [`MEAN_OF`] ones, and otherwise
/// the median, so one child hit by a host stall moves it little.
fn combine(name: &str, values: &mut [f64]) -> f64 {
    if BEST_OF.contains(&name) {
        values.iter().copied().fold(f64::NAN, f64::min)
    } else if MEAN_OF.contains(&name) {
        values.iter().sum::<f64>() / values.len() as f64
    } else {
        stats::median(values)
    }
}

/// Store layers from the program's own scrape across the measured phase.
fn store_layers(report: &mut Report, d: &Delta<'_>, vip_ops: f64, guest_ops: f64) {
    let vip = [("tier", "vip")];
    let guest = [("tier", "guest")];
    report.put("store.commit_ns.vip", Unit::Ns, d.mean("store_commit_latency_ns", &vip));
    report.put("store.commit_ns.guest", Unit::Ns, d.mean("store_commit_latency_ns", &guest));
    let commits = |labels: &[(&str, &str)], ops: f64| {
        stats::ratio(d.value("store_commits_total", labels) as f64, ops)
    };
    report.put("store.commits_per_op.vip", Unit::Count, commits(&vip, vip_ops));
    report.put("store.commits_per_op.guest", Unit::Count, commits(&guest, guest_ops));
    report.put("store.moved_ops.vip", Unit::Count, d.value("store_moved_ops_total", &vip) as f64);
    report.put(
        "store.moved_ops.guest",
        Unit::Count,
        d.value("store_moved_ops_total", &guest) as f64,
    );
    let seals = d.value("store_auto_checkpoints_total", &[]) as f64;
    report.put("store.auto_checkpoints", Unit::Count, seals);
}

/// WAL layers from `Wal::scrape` deltas; zeros on a store without one.
fn wal_layers(report: &mut Report, d: Option<&Delta<'_>>, ops: f64, replay_frames: u64) {
    let value = |name, labels: &[(&str, &str)]| d.map_or(0, |d| d.value(name, labels)) as f64;
    let mean = |name| d.map_or(0.0, |d| d.mean(name, &[]));
    report.put(
        "wal.appends.group",
        Unit::Count,
        value("store_wal_appends_total", &[("class", "group")]),
    );
    report.put(
        "wal.appends.sync",
        Unit::Count,
        value("store_wal_appends_total", &[("class", "sync")]),
    );
    report.put(
        "wal.bytes_per_op",
        Unit::Bytes,
        stats::ratio(value("store_wal_appended_bytes_total", &[]), ops),
    );
    report.put("wal.frames_per_flush", Unit::Count, mean("store_wal_group_frames"));
    report.put("wal.replay_frames", Unit::Count, replay_frames as f64);
    if d.is_some() {
        report.put("wal.fsync_ns", Unit::Ns, mean("store_wal_fsync_latency_ns"));
    }
}

/// Mean `ShardTopology::plan` time per op over `batches`.
fn plan_ns_per_op(topology: &ShardTopology, batches: Vec<Vec<StoreOp>>) -> f64 {
    let ops: usize = batches.iter().map(Vec::len).sum();
    let started = Instant::now();
    for batch in batches {
        std::hint::black_box(topology.plan(std::hint::black_box(batch)));
    }
    stats::ratio(started.elapsed().as_nanos() as f64, ops as f64)
}

/// Tracing overhead: the traced windows' cost over the untraced ones',
/// minus one (0 when either side saw nothing).
fn overhead(traced: f64, untraced: f64) -> f64 {
    if traced.is_finite() && untraced.is_finite() && untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    }
}

fn write_trace(tag: &str, threads: &[(&str, &trace::Tracer)]) {
    let path = out_dir().join(format!("trace-{tag}.jsonl"));
    if let Err(e) = trace::write_spans(&path, threads) {
        eprintln!("could not write {}: {e}", path.display());
    }
}
