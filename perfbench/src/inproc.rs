//! The durable in-process workload: two closed-loop sessions on one hot
//! shard of a WAL-backed store, a live split and merge at fixed points of
//! the guest's op stream, snapshots along the way, then a crash and a
//! recovery from the last snapshot plus the WAL.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use apc_store::workload::keys_on_shard;
use apc_store::{
    DurabilityClass, MetricsSnapshot, Request, Store, StoreOp, StoreResp, TierCredential, Wal,
    WalConfig,
};

use crate::gen::{self, GenOp};
use crate::report::{Report, Unit};
use crate::stats::{self, Delta, Latencies};
use crate::trace::{Layer, Tracer};

/// The shard both sessions' keys route to.
const HOT: usize = 0;
const VIP_KEYS: u32 = 256;
const GUEST_KEYS: u32 = 2_048;
/// Warm-up ops per session (VIP, guest): fixed work, part of set-up.
const WARMUP: [u64; 2] = [200, 20_000];
/// Guest steps into the measured phase at which the benchmark splits the
/// hot shard, and merges the child back.
const SPLIT_AT: u64 = 20_000;
const MERGE_AT: u64 = 60_000;
/// A snapshot is written every this many measured guest steps.
const SNAPSHOT_EVERY: u64 = 40_000;
/// Ops per session (VIP, guest) after the measured phase and a final
/// snapshot, before the crash: the WAL tail every recovery replays.
const TAIL: [u64; 2] = [100, 10_000];
/// Recoveries per run, each from its own copy of the crashed files; the
/// fastest is reported.
const RECOVERIES: usize = 9;
/// The expected value of a CAS meant to miss: no session writes it.
const MISS: u64 = 1 << 63;

/// One persist cycle's timings: rotate the WAL, seal a checkpoint, write
/// the snapshot, truncate the WAL before the rotation point.
#[derive(Default)]
struct Persisted {
    cycles: u64,
    checkpoint_ns: u64,
    write_ns: u64,
    bytes: u64,
}

fn persist(store: &Store, wal: &Wal, path: &Path, tr: &mut Tracer, on: bool, p: &mut Persisted) {
    let id = p.cycles;
    let t = tr.start(on);
    let cut = wal.rotate().expect("rotate the WAL");
    let t = tr.end(on, Layer::WalRotate, None, id, t);
    let c = Instant::now();
    let snap = store.checkpoint();
    p.checkpoint_ns += c.elapsed().as_nanos() as u64;
    let t = tr.end(on, Layer::PersistCheckpoint, None, id, t);
    let w = Instant::now();
    snap.write_to(path).expect("write the snapshot");
    p.write_ns += w.elapsed().as_nanos() as u64;
    let t = tr.end(on, Layer::PersistSnapshotWrite, None, id, t);
    wal.truncate_before(cut);
    tr.end(on, Layer::WalTruncate, None, id, t);
    p.bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    p.cycles += 1;
}

/// What a session thread hands back.
struct Session {
    tr: Tracer,
    /// Start of the measured phase on `tr`'s clock.
    t0: u64,
    lat: Latencies,
    /// Per key: the value the session last had acknowledged.
    shadow: Vec<u64>,
    /// Guest steps whose write the store acknowledged (one bit each).
    written: Vec<u64>,
    /// Ops in even (traced) and odd (untraced) one-second windows of the
    /// measured phase, the first window left out.
    ops_by_window: [u64; 2],
    errors: u64,
    mismatches: u64,
    attempted: u64,
    split_ns: u64,
    merge_ns: u64,
    persisted: Persisted,
}

impl Session {
    fn new(tr: Tracer, keys: u32, base: u32, capacity: usize) -> Session {
        Session {
            tr,
            t0: 0,
            lat: Latencies::with_capacity(capacity),
            shadow: (base..base + keys).map(gen::preload_value).collect(),
            written: Vec::new(),
            ops_by_window: [0; 2],
            errors: 0,
            mismatches: 0,
            attempted: 0,
            split_ns: 0,
            merge_ns: 0,
            persisted: Persisted::default(),
        }
    }
}

/// The shared run context of one set-up.
struct Ctx<'a> {
    store: &'a Store,
    wal: &'a Wal,
    snapshot: &'a Path,
    keys: &'a [String],
    seed: u64,
    seconds: u64,
    barrier: &'a Barrier,
    phase_start: &'a AtomicU64,
}

impl Ctx<'_> {
    /// Waits for the other threads at the set-up line, then at the start
    /// line; returns the measured phase's start and end.
    fn line_up(&self) -> (u64, u64) {
        self.barrier.wait();
        self.barrier.wait();
        let t0 = self.phase_start.load(Ordering::Acquire);
        (t0, t0 + self.seconds * 1_000_000_000)
    }

    /// Waits at the end of the measured phase while the final snapshot
    /// is written, before the session runs its tail.
    fn finish_line(&self) {
        self.barrier.wait();
        self.barrier.wait();
    }
}

fn vip_session(ctx: &Ctx<'_>, mut s: Session) -> Session {
    let ticket = ctx.store.admit_vip().expect("a VIP port is free");
    let cred = TierCredential::for_ticket(&ticket);
    let mut client = ctx.store.client(ticket);
    let mut step = 0u64;
    let mut run = |s: &mut Session, step: u64, timed: Option<(bool, u64)>| {
        let GenOp::Put(k, v) = gen::vip_put(ctx.seed, VIP_KEYS, step) else { unreachable!() };
        let key = ctx.keys[k as usize].clone();
        let req = Request::new(vec![StoreOp::Put(key, v)])
            .credential(cred)
            .durability(DurabilityClass::Sync);
        let t = Instant::now();
        let resp = client.request(req);
        let ns = t.elapsed().as_nanos() as u64;
        let expected = Ok(StoreResp::Value(Some(s.shadow[k as usize])));
        let ok = resp.results.first().is_some_and(|r| r.is_ok());
        if ok {
            s.mismatches += u64::from(resp.results[0] != expected);
            s.shadow[k as usize] = v;
        }
        if let Some((on, at)) = timed {
            s.attempted += 1;
            s.errors += u64::from(!ok);
            s.lat.push(at - s.t0, !ok, ns);
            if on {
                s.tr.record(Layer::StoreRequestVip, None, step, at, at + ns);
            }
        }
    };
    while step < WARMUP[0] {
        run(&mut s, step, None);
        step += 1;
    }
    let (t0, t_end) = ctx.line_up();
    s.t0 = t0;
    closed_loop(&mut s, t0, t_end, |s, on, at| {
        run(s, step, Some((on, at)));
        step += 1;
    });
    ctx.finish_line();
    for _ in 0..TAIL[0] {
        run(&mut s, step, None);
        step += 1;
    }
    s
}

fn guest_session(ctx: &Ctx<'_>, mut s: Session) -> Session {
    let mut client = ctx.store.client(ctx.store.admit_guest());
    let base = VIP_KEYS as usize;
    let mut step = 0u64;
    let mut run = |s: &mut Session, step: u64, timed: Option<(bool, u64)>| {
        let op = gen::guest_op(ctx.seed, GUEST_KEYS, step);
        let k = op.key() as usize;
        let key = ctx.keys[base + k].clone();
        let current = s.shadow[k];
        let (store_op, write) = match op {
            GenOp::Get(_) => (StoreOp::Get(key), None),
            GenOp::Put(_, v) => (StoreOp::Put(key, v), Some(v)),
            GenOp::Cas { new, hit, .. } => {
                let expect = Some(if hit { current } else { MISS });
                (StoreOp::Cas { key, expect, new }, hit.then_some(new))
            }
        };
        let t = Instant::now();
        let resp = client.request(Request::new(vec![store_op]));
        let ns = t.elapsed().as_nanos() as u64;
        let expected = match op {
            GenOp::Get(_) | GenOp::Put(..) => StoreResp::Value(Some(current)),
            GenOp::Cas { hit, .. } => StoreResp::Cas { ok: hit, actual: Some(current) },
        };
        let ok = match resp.results.first() {
            Some(Ok(r)) => {
                s.mismatches += u64::from(*r != expected);
                if let Some(v) = write {
                    s.shadow[k] = v;
                    let (word, bit) = ((step / 64) as usize, step % 64);
                    if s.written.len() <= word {
                        s.written.resize(word + 1, 0);
                    }
                    s.written[word] |= 1 << bit;
                }
                true
            }
            _ => false,
        };
        if let Some((on, at)) = timed {
            s.attempted += 1;
            s.errors += u64::from(!ok);
            s.lat.push(at - s.t0, !ok, ns);
            if on {
                s.tr.record(Layer::StoreRequestGuest, None, step, at, at + ns);
            }
        }
    };
    while step < WARMUP[1] {
        run(&mut s, step, None);
        step += 1;
    }
    let (t0, t_end) = ctx.line_up();
    s.t0 = t0;
    let first = step;
    let mut child = None;
    closed_loop(&mut s, t0, t_end, |s, on, at| {
        let n = step - first;
        if n == SPLIT_AT {
            let t = Instant::now();
            child = Some(ctx.store.split_shard(HOT).expect("split the hot shard"));
            s.split_ns = t.elapsed().as_nanos() as u64;
            if on {
                s.tr.record(Layer::StoreSplit, None, n, at, at + s.split_ns);
            }
        } else if n == MERGE_AT {
            if let Some(c) = child.take() {
                let t = Instant::now();
                ctx.store.merge_shard(c).expect("merge the child back");
                s.merge_ns = t.elapsed().as_nanos() as u64;
                if on {
                    s.tr.record(Layer::StoreMerge, None, n, at, at + s.merge_ns);
                }
            }
        } else if n > 0 && n.is_multiple_of(SNAPSHOT_EVERY) {
            persist(ctx.store, ctx.wal, ctx.snapshot, &mut s.tr, on, &mut s.persisted);
        }
        run(s, step, Some((on, at)));
        step += 1;
    });
    ctx.finish_line();
    for _ in 0..TAIL[1] {
        run(&mut s, step, None);
        step += 1;
    }
    s
}

/// Runs `op` back to back until `t_end`, keeping the window accounting.
fn closed_loop(s: &mut Session, t0: u64, t_end: u64, mut op: impl FnMut(&mut Session, bool, u64)) {
    loop {
        let now = s.tr.now();
        if now >= t_end {
            break;
        }
        let on = s.tr.tracing_at(t0, now);
        op(s, on, now);
        let window = (now - t0) / 1_000_000_000;
        if window > 0 {
            s.ops_by_window[(window % 2) as usize] += 1;
        }
        if on {
            s.tr.window_ns += s.tr.now() - now;
        }
    }
}

/// Runs the workload: set-up, measured phase, crash and recovery. Fills
/// `report` and returns the (VIP, guest) latency samples.
pub fn run(seed: u64, seconds: u64, trace: bool, report: &mut Report) -> [Latencies; 2] {
    let dir = crate::out_dir().join(format!("inproc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let wal_dir = dir.join("wal");
    let snapshot = dir.join("store.snapshot");

    let setup_started = Instant::now();
    let wal = Wal::open(&wal_dir, WalConfig::default()).expect("open the WAL");
    let store = crate::builder().build_with_wal(Arc::clone(&wal)).expect("default sizing is valid");
    let keys = keys_on_shard(&store.topology(), HOT, (VIP_KEYS + GUEST_KEYS) as usize);
    let preload = keys
        .iter()
        .enumerate()
        .map(|(k, key)| StoreOp::Put(key.clone(), gen::preload_value(k as u32)));
    store.client(store.admit_guest()).execute(preload.collect());
    let epoch = Instant::now();
    let mut setup_tr = Tracer::new(false, epoch, 0);
    persist(&store, &wal, &snapshot, &mut setup_tr, false, &mut Persisted::default());

    // Sample buffers are sized for the whole run before the RSS baseline.
    let cap = |per_s: f64| (per_s * seconds as f64) as usize;
    let span_cap = if trace { 1 << 17 } else { 0 };
    let vip = Session::new(Tracer::new(trace, epoch, span_cap), VIP_KEYS, 0, cap(20_000.0));
    let mut guest =
        Session::new(Tracer::new(trace, epoch, span_cap), GUEST_KEYS, VIP_KEYS, cap(300_000.0));
    guest.written.reserve(cap(300_000.0) / 64 + WARMUP[1] as usize / 64 + 1);
    let barrier = Barrier::new(3);
    let phase_start = AtomicU64::new(0);
    let ctx = Ctx {
        store: &store,
        wal: &wal,
        snapshot: &snapshot,
        keys: &keys,
        seed,
        seconds,
        barrier: &barrier,
        phase_start: &phase_start,
    };

    let mut rss_base = 0;
    let mut before: Option<(MetricsSnapshot, MetricsSnapshot)> = None;
    let ((vip, guest), (rss_after, rss_peak, after, topology)) = std::thread::scope(|s| {
        let v = s.spawn(|| vip_session(&ctx, vip));
        let g = s.spawn(|| guest_session(&ctx, guest));
        barrier.wait();
        report.put("setup_s", Unit::S, setup_started.elapsed().as_secs_f64());
        rss_base = stats::proc_status_bytes("VmRSS");
        before = Some((store.scrape(), wal.scrape()));
        phase_start.store(setup_tr.now(), Ordering::Release);
        barrier.wait();
        barrier.wait();
        let measured = (
            stats::proc_status_bytes("VmRSS"),
            stats::proc_status_bytes("VmHWM"),
            (store.scrape(), wal.scrape()),
            store.topology(),
        );
        persist(&store, &wal, &snapshot, &mut setup_tr, false, &mut Persisted::default());
        barrier.wait();
        let sessions =
            (v.join().expect("VIP session panicked"), g.join().expect("guest session panicked"));
        (sessions, measured)
    });

    // Crash: the WAL loses its unflushed buffer and the process's memory
    // is gone. Recover from the last snapshot plus the WAL's segments,
    // which hold the tail written after it: [`RECOVERIES`] times, each
    // from its own synced copy of the crashed files, and the fastest
    // counts, so a slow fsync or a busy host does not make the run's
    // recovery time.
    wal.simulate_crash();
    drop(store);
    drop(wal);
    let copies: Vec<PathBuf> = (0..RECOVERIES)
        .map(|r| {
            let copy = dir.join(format!("crashed-{r}"));
            copy_synced(&wal_dir, &copy.join("wal"));
            copy_synced_file(&snapshot, &copy.join("store.snapshot"));
            copy
        })
        .collect();
    let mut open_s = Vec::new();
    let mut persist_recover_s = Vec::new();
    let mut recover_s = Vec::new();
    let mut replay_frames = 0;
    let mut values = Vec::new();
    for copy in &copies {
        let t = Instant::now();
        let wal = Wal::open(copy.join("wal"), WalConfig::default()).expect("reopen the WAL");
        let opened = t.elapsed().as_secs_f64();
        replay_frames = stats::value(&wal.scrape(), "store_wal_replay_frames", &[]);
        let t = Instant::now();
        let recovered = crate::builder()
            .recover_with_wal(copy.join("store.snapshot"), wal)
            .expect("recover snapshot + WAL");
        let replayed = t.elapsed().as_secs_f64();
        open_s.push(opened);
        persist_recover_s.push(replayed);
        recover_s.push(opened + replayed);
        if values.is_empty() {
            let gets = keys.iter().map(|k| StoreOp::Get(k.clone())).collect();
            values = recovered.client(recovered.admit_guest()).execute(gets);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    let fastest = |v: Vec<f64>| v.into_iter().fold(f64::NAN, f64::min);
    let open_s = fastest(open_s);
    let persist_recover_s = fastest(persist_recover_s);
    let recover_s = fastest(recover_s);

    // Every Sync-acknowledged VIP write reads back; every guest key holds
    // its preload value or a value the guest had acknowledged.
    let vip_lost = (0..VIP_KEYS as usize)
        .filter(|&k| values[k] != StoreResp::Value(Some(vip.shadow[k])))
        .count();
    let guest_bad = (0..GUEST_KEYS as usize)
        .filter(|&k| {
            let global = VIP_KEYS as usize + k;
            match values[global] {
                StoreResp::Value(Some(v)) if v == gen::preload_value(global as u32) => false,
                StoreResp::Value(Some(v)) => !guest_wrote(seed, &guest.written, k as u32, v),
                _ => true,
            }
        })
        .count();

    let mismatches = vip.mismatches + guest.mismatches;
    report.correct = mismatches == 0 && vip_lost == 0 && guest_bad == 0 && vip.errors == 0;
    report.attempted = vip.attempted + guest.attempted;
    report.failed = vip.errors + guest.errors + mismatches;
    if !report.correct {
        eprintln!(
            "oracle: {mismatches} wrong answers, {vip_lost} Sync writes lost, {guest_bad} guest keys \
             hold a value never written, {} VIP errors",
            vip.errors
        );
    }

    let (vlat, glat) = (vip.lat, guest.lat);
    let ok = [vlat.ok() as f64, glat.ok() as f64];
    let completed = ok[0] + ok[1];
    report.put("goodput_ops_s", Unit::OpsPerS, completed / seconds as f64);
    let growth = rss_after as f64 - rss_base as f64;
    report.put("rss_growth_bytes_per_op", Unit::Bytes, stats::ratio(growth, completed));
    report.put("rss_peak_mb", Unit::Mb, rss_peak as f64 / f64::from(1 << 20));
    report.put("recover_s", Unit::S, recover_s);
    report.put(
        "vip_error_ratio",
        Unit::Ratio,
        stats::ratio(vip.errors as f64, vip.attempted as f64),
    );
    report.put(
        "guest_error_ratio",
        Unit::Ratio,
        stats::ratio(guest.errors as f64, guest.attempted as f64),
    );
    report.put("store.split_s", Unit::S, guest.split_ns as f64 / 1e9);
    report.put("store.merge_s", Unit::S, guest.merge_ns as f64 / 1e9);
    report.put("wal.open_s", Unit::S, open_s);

    let Some((store_before, wal_before)) = before.filter(|_| trace) else { return [vlat, glat] };
    let d = Delta { before: &store_before, after: &after.0 };
    crate::store_layers(report, &d, ok[0], ok[1]);
    let w = Delta { before: &wal_before, after: &after.1 };
    crate::wal_layers(report, Some(&w), completed, replay_frames);
    let p = &guest.persisted;
    let cycles = p.cycles.max(1) as f64;
    report.put("persist.checkpoint_s", Unit::S, p.checkpoint_ns as f64 / cycles / 1e9);
    report.put("persist.snapshot_write_s", Unit::S, p.write_ns as f64 / cycles / 1e9);
    report.put("persist.snapshot_bytes", Unit::Bytes, p.bytes as f64);
    report.put("persist.recover_s", Unit::S, persist_recover_s);
    for name in [
        "reactor.shed",
        "reactor.deadline_shed",
        "reactor.frames_per_turn",
        "reactor.batch_envelopes",
        "reactor.queue_depth_max",
    ] {
        report.put(name, Unit::Count, 0.0);
    }
    report.put("reactor.idle_turn_share", Unit::Ratio, 0.0);
    report.put("codec.frame_bytes", Unit::Bytes, 0.0);

    let mean = |tr: &Tracer, l: Layer| {
        let t = tr.total(l);
        stats::ratio(t.ns as f64, t.count as f64)
    };
    report.put("store.request_ns.vip", Unit::Ns, mean(&vip.tr, Layer::StoreRequestVip));
    report.put("store.request_ns.guest", Unit::Ns, mean(&guest.tr, Layer::StoreRequestGuest));
    let spans = [
        Layer::StoreRequestVip,
        Layer::StoreRequestGuest,
        Layer::StoreSplit,
        Layer::StoreMerge,
        Layer::WalRotate,
        Layer::PersistCheckpoint,
        Layer::PersistSnapshotWrite,
        Layer::WalTruncate,
    ];
    let covered = vip.tr.covered_ns(&spans) + guest.tr.covered_ns(&spans);
    let busy = vip.tr.busy_ns() + guest.tr.busy_ns();
    report.put(
        "trace.unattributed_share",
        Unit::Ratio,
        stats::ratio(busy as f64 - covered as f64, busy as f64),
    );
    // Overhead: guest ops per second in untraced windows over traced ones,
    // leaving out the first window, which holds the split and the merge.
    let windows = [((seconds - 1) / 2) as f64, (seconds / 2) as f64];
    let rate = |w: usize| stats::ratio(guest.ops_by_window[w] as f64, windows[w]);
    report.put("trace.overhead_share", Unit::Ratio, crate::overhead(rate(1), rate(0)));

    let mut batches = Vec::new();
    for step in 0..crate::PLAN_OPS as u64 {
        let GenOp::Put(k, v) = gen::vip_put(seed, VIP_KEYS, step) else { unreachable!() };
        batches.push(vec![StoreOp::Put(keys[k as usize].clone(), v)]);
        let key = keys[(VIP_KEYS + gen::guest_op(seed, GUEST_KEYS, step).key()) as usize].clone();
        batches.push(vec![StoreOp::Get(key)]);
    }
    report.put("router.plan_ns_per_op", Unit::Ns, crate::plan_ns_per_op(&topology, batches));

    crate::write_trace(&report.tag, &[("vip", &vip.tr), ("guest", &guest.tr)]);
    [vlat, glat]
}

/// Copies every file of directory `from` into `to` and syncs the copies.
fn copy_synced(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create the copy directory");
    for entry in std::fs::read_dir(from).expect("list the WAL directory").flatten() {
        copy_synced_file(&entry.path(), &to.join(entry.file_name()));
    }
}

fn copy_synced_file(from: &Path, to: &Path) {
    std::fs::copy(from, to).expect("copy a crashed file");
    std::fs::File::open(to).and_then(|f| f.sync_all()).expect("sync a copied file");
}

/// Whether the guest had value `v` acknowledged for its key `k`.
fn guest_wrote(seed: u64, written: &[u64], k: u32, v: u64) -> bool {
    if v >> 48 != gen::INPROC_GUEST + 1 {
        return false;
    }
    let step = v & ((1 << 48) - 1);
    let acked = written.get((step / 64) as usize).is_some_and(|w| w >> (step % 64) & 1 == 1);
    acked && gen::guest_op(seed, GUEST_KEYS, step).key() == k
}
