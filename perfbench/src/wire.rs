//! The open-loop wire workloads: one VIP and one guest connection into a
//! [`StoreServer`], driven from one thread that sends whatever is due,
//! runs one reactor turn, and drains the answers, in a loop.
//!
//! Requests leave on a Poisson schedule fixed by the seed, whatever the
//! server does, and each is timed from the instant it was due. After the
//! measured phase a bounded drain collects late answers; whatever is
//! still unanswered counts as failed, so an overloaded run still ends.
//!
//! The generator and the reactor share the thread on purpose. On two
//! vCPUs, a generator thread beside a reactor thread makes every request
//! a handoff between vCPUs, and the host's scheduling of the two moved the
//! run median latency by up to 3× between runs; one thread leaves the
//! other vCPU to the kernel and the host, and a request that comes due
//! during a long turn still counts the wait from its due instant.

use std::time::{Duration, Instant};

use apc_net::{
    decode_message, encode_hello, encode_request, ConnEnd, FrameReader, Message, ServerConfig,
    StoreServer, WireResult,
};
use apc_store::{
    MetricsSnapshot, Request, ShardTopology, Store, StoreError, StoreOp, StoreResp, TierCredential,
};

use crate::gen::{self, GenOp};
use crate::report::{Report, Unit};
use crate::stats::{self, Delta, Latencies};
use crate::trace::{Layer, Tracer};

/// One wire workload: Poisson rates per connection and the guests'
/// deadline. The rates are fixed constants chosen from the capacity sweep
/// of `--calibrate` (recorded in `BENCHMARK.json`), never derived at run
/// time.
#[derive(Clone, Copy, Debug)]
pub struct WireSpec {
    pub vip_rate: f64,
    pub guest_rate: f64,
    pub guest_deadline_ms: Option<u32>,
}

/// 10% VIP, 90% guest, at about a third of the measured capacity: at
/// half, queueing doubles how far the host's speed drift moves the
/// median latency.
pub const STEADY: WireSpec =
    WireSpec { vip_rate: 4_000.0, guest_rate: 36_000.0, guest_deadline_ms: None };

/// Guests offered above capacity with a short deadline, beside a VIP
/// trickle. Not in `BENCHMARK.json`: above capacity its latencies and
/// goodput swing from run to run on the 2-vCPU reference box by more than
/// any bound the benchmark may set. Run it by hand to watch the reactor's
/// shedding.
pub const FLOOD: WireSpec =
    WireSpec { vip_rate: 4_000.0, guest_rate: 250_000.0, guest_deadline_ms: Some(2) };

const VIP_TOKEN: u64 = 0x5eed;
/// Warm-up requests per connection (VIP, guest), sent in pipelined bursts
/// and awaited: a fixed amount of work, so set-up time follows the
/// system's speed.
const WARMUP: [u64; 2] = [2_000, 20_000];
const WARMUP_DEPTH: u64 = 64;
const DRAIN_BOUND: Duration = Duration::from_secs(1);
/// A set-up that takes longer has hung: the child fails rather than
/// outlive the run's time limit.
const SETUP_BOUND: Duration = Duration::from_secs(60);
/// Requests a connection may have in flight. One due beyond it fails at
/// the client unsent, like a stream refused past a concurrency limit. It
/// bounds how many frames a stall can pile up for one reactor turn, above
/// the reactor's own backlog plus one turn's dispatch, so the reactor's
/// shedding is what a flood exercises.
const WINDOW: usize = 2_048;
/// Retry budget of every wire request (nothing reconfigures on these
/// workloads, so none is spent).
const RETRY_BUDGET: u32 = 4;
/// Recoveries from the run's snapshot; the fastest is reported.
const RECOVERIES: usize = 15;
/// The guest backlog gauge is sampled every this many traced turns.
const DEPTH_SAMPLE: u64 = 8;

/// `Rec::value` of an absent key.
const ABSENT: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Unanswered,
    /// Not sent: the connection already had [`WINDOW`] requests in flight.
    Refused,
    Ok,
    Shed,
    Deadline,
    Error,
}

/// One request's schedule and outcome; the op itself is regenerated from
/// the seed when the oracle replays it.
#[derive(Clone, Copy)]
struct Rec {
    due: u64,
    sent: u64,
    done: u64,
    status: Status,
    /// The returned (previous) value, `ABSENT` for none.
    value: u64,
}

struct Side {
    stream: u64,
    cred: TierCredential,
    deadline_ms: Option<u32>,
    rate: f64,
    key_base: u32,
    end: ConnEnd,
    reader: FrameReader,
    buf: Vec<u8>,
    recs: Vec<Rec>,
    answered: usize,
    /// First step of the measured phase.
    measured_from: usize,
    next_due: u64,
    /// Answers that match no request, or answer one twice.
    protocol_faults: u64,
    frame_bytes: u64,
    frames: u64,
}

impl Side {
    fn next_step(&self) -> u64 {
        self.recs.len() as u64
    }

    fn request(&self, seed: u64, keys: &[String]) -> Request {
        let key = |k: u32| keys[(self.key_base + k) as usize].clone();
        let op = match gen::wire_op(seed, self.stream, self.next_step()) {
            GenOp::Get(k) => StoreOp::Get(key(k)),
            GenOp::Put(k, v) => StoreOp::Put(key(k), v),
            GenOp::Cas { .. } => unreachable!("the wire mix has no CAS"),
        };
        let req = Request::new(vec![op]).credential(self.cred).retry_budget(RETRY_BUDGET);
        match self.deadline_ms {
            Some(ms) => req.deadline_ms(ms),
            None => req,
        }
    }

    /// Encodes and sends the next request, due at `due`, unless the
    /// window is full.
    fn send(&mut self, seed: u64, keys: &[String], due: u64, tr: &mut Tracer, on: bool) {
        if self.recs.len() - self.answered >= WINDOW {
            let now = tr.now();
            self.recs.push(Rec {
                due,
                sent: now,
                done: now,
                status: Status::Refused,
                value: ABSENT,
            });
            self.answered += 1;
            return;
        }
        let req = self.request(seed, keys);
        let id = self.next_step() + 1;
        let span = self.span_id(id);
        let t = tr.start(on);
        let frame = encode_request(id, &req);
        let t = tr.end(on, Layer::CodecEncode, Some(Layer::Request), span, t);
        self.end.send(&frame);
        tr.end(on, Layer::ConnSend, Some(Layer::Request), span, t);
        self.frame_bytes += frame.len() as u64;
        self.frames += 1;
        let sent = tr.now();
        self.recs.push(Rec { due, sent, done: 0, status: Status::Unanswered, value: ABSENT });
    }

    /// Drains and decodes every complete response; returns how many.
    fn receive(&mut self, tr: &mut Tracer, on: bool, turn: u64) -> usize {
        self.buf.clear();
        let t = tr.start(on);
        if self.end.drain_into(&mut self.buf) == 0 {
            return 0;
        }
        tr.end(on, Layer::ConnDrain, None, turn, t);
        self.reader.push(&self.buf);
        let now = tr.now();
        let mut got = 0;
        while let Ok(Some(payload)) = self.reader.next_payload() {
            let t = tr.start(on);
            let Ok(Message::Response { id, results }) = decode_message(&payload) else {
                self.protocol_faults += 1;
                continue;
            };
            tr.end(on, Layer::CodecDecode, Some(Layer::Request), self.span_id(id), t);
            self.frame_bytes += payload.len() as u64;
            self.frames += 1;
            got += 1;
            match id.checked_sub(1).and_then(|i| self.recs.get_mut(i as usize)) {
                Some(rec) if rec.status == Status::Unanswered => {
                    self.answered += 1;
                    rec.done = now;
                    (rec.status, rec.value) = outcome(&results);
                }
                _ => self.protocol_faults += 1,
            }
        }
        got
    }

    /// Span ids of one request share this id: the connection's stream in
    /// the top bits, the request id below.
    fn span_id(&self, id: u64) -> u64 {
        self.stream << 48 | id
    }

    fn outstanding(&self) -> bool {
        self.answered < self.recs.len()
    }
}

fn outcome(results: &[WireResult]) -> (Status, u64) {
    match results {
        [Ok(StoreResp::Value(v))] => (Status::Ok, v.unwrap_or(ABSENT)),
        [Err(StoreError::RetryBudgetExhausted { .. })] => (Status::Shed, ABSENT),
        [Err(StoreError::DeadlineExceeded { .. })] => (Status::Deadline, ABSENT),
        _ => (Status::Error, ABSENT),
    }
}

/// What the reactor did during the measured phase.
#[derive(Default)]
struct ReactorAcc {
    turns: u64,
    idle_turns: u64,
    frames: u64,
    shed: u64,
    deadline_shed: u64,
    /// Frames ingested in traced turns.
    traced_frames: u64,
    /// Store commit time inside traced windows (scrape deltas taken at
    /// each window's edges).
    traced_commit_ns: u64,
    queue_depth_max: u64,
}

fn commit_ns(snap: &MetricsSnapshot) -> u64 {
    let vip = stats::hist(snap, "store_commit_latency_ns", &[("tier", "vip")]).0;
    vip + stats::hist(snap, "store_commit_latency_ns", &[("tier", "guest")]).0
}

/// The server and what its turns did.
struct Reactor<'a> {
    server: StoreServer<'a>,
    acc: ReactorAcc,
    /// The commit-time sum at the start of the current traced window.
    window_commit: Option<u64>,
}

impl Reactor<'_> {
    /// One reactor turn; in the measured phase its statistics, and in a
    /// traced window its span. Returns whether the turn did any work.
    fn turn(&mut self, tr: &mut Tracer, measuring: bool, on: bool) -> bool {
        match (on, self.window_commit) {
            (true, None) => self.window_commit = Some(commit_ns(&self.server.scrape())),
            (false, Some(c)) => self.close_window(c),
            _ => {}
        }
        let t = tr.start(on);
        let ps = self.server.poll();
        let idle = ps.frames == 0 && ps.served == 0 && ps.shed == 0 && ps.deadline_shed == 0;
        let acc = &mut self.acc;
        if on && !idle {
            tr.record(Layer::ReactorPoll, None, acc.turns, t, tr.now());
            acc.traced_frames += ps.frames as u64;
        }
        if measuring {
            acc.turns += 1;
            acc.idle_turns += u64::from(idle);
            acc.frames += ps.frames as u64;
            acc.shed += ps.shed as u64;
            acc.deadline_shed += ps.deadline_shed as u64;
            if on && acc.turns.is_multiple_of(DEPTH_SAMPLE) {
                let snap = self.server.metrics().scrape();
                let depth = stats::value(&snap, "store_net_guest_queue_depth", &[]);
                acc.queue_depth_max = acc.queue_depth_max.max(depth);
            }
        }
        !idle
    }

    fn close_window(&mut self, start: u64) {
        let end = commit_ns(&self.server.scrape());
        self.acc.traced_commit_ns += end.saturating_sub(start);
        self.window_commit = None;
    }
}

fn keys() -> Vec<String> {
    (0..gen::WIRE_KEYS).map(|i| format!("key/{i:05}")).collect()
}

fn build_store(keys: &[String]) -> Store {
    let store = crate::builder().build().expect("default sizing is valid");
    let ops = keys
        .iter()
        .enumerate()
        .map(|(i, k)| StoreOp::Put(k.clone(), gen::preload_value(i as u32)))
        .collect();
    store.client(store.admit_guest()).execute(ops);
    store
}

/// Runs one wire workload: set-up, measured phase, epilogue. Fills
/// `report` and returns the (VIP, guest) latency samples.
pub fn run(
    spec: WireSpec,
    seed: u64,
    seconds: u64,
    trace: bool,
    report: &mut Report,
) -> [Latencies; 2] {
    let keys = keys();
    let keys = keys.as_slice();
    let setup_started = Instant::now();
    let store = build_store(keys);
    let cfg = ServerConfig { vip_tokens: vec![VIP_TOKEN], ..ServerConfig::default() };
    let mut server = StoreServer::new(&store, cfg);
    let epoch = Instant::now();
    let vip = (gen::WIRE_VIP, TierCredential::Vip { token: VIP_TOKEN }, None, spec.vip_rate, 0);
    let guest = (
        gen::WIRE_GUEST,
        TierCredential::Guest,
        spec.guest_deadline_ms,
        spec.guest_rate,
        gen::WIRE_VIP_KEYS,
    );
    let mut sides = [vip, guest].map(|(stream, cred, deadline_ms, rate, key_base)| {
        let warm = WARMUP[stream as usize];
        // Sample buffers are sized for the whole run before the RSS
        // baseline is read.
        let cap = warm + (rate * seconds as f64 * 1.2) as u64 + 1024;
        Side {
            stream,
            cred,
            deadline_ms,
            rate,
            key_base,
            end: server.connect(),
            reader: FrameReader::new(),
            buf: Vec::with_capacity(1 << 16),
            recs: Vec::with_capacity(cap as usize),
            answered: 0,
            measured_from: 0,
            next_due: 0,
            protocol_faults: 0,
            frame_bytes: 0,
            frames: 0,
        }
    });
    let mut tr = Tracer::new(trace, epoch, if trace { 1 << 18 } else { 0 });
    let mut reactor = Reactor { server, acc: ReactorAcc::default(), window_commit: None };

    // Handshakes, then the warm-up.
    for side in &mut sides {
        side.end.send(&encode_hello(&side.cred));
    }
    let mut turn = 0u64;
    for side in &mut sides {
        let warm = WARMUP[side.stream as usize];
        while side.next_step() < warm || side.outstanding() {
            if !side.outstanding() {
                for _ in 0..WARMUP_DEPTH.min(warm - side.next_step()) {
                    side.send(seed, keys, 0, &mut tr, false);
                }
            }
            turn += 1;
            reactor.turn(&mut tr, false, false);
            side.receive(&mut tr, false, turn);
            assert!(setup_started.elapsed() < SETUP_BOUND, "the warm-up got no answers");
        }
    }
    report.put("setup_s", Unit::S, setup_started.elapsed().as_secs_f64());

    // The measured phase: send whatever is due, run a turn, collect the
    // answers.
    let rss_base = stats::proc_status_bytes("VmRSS");
    let before = reactor.server.scrape();
    let t0 = tr.now();
    let t_end = t0 + seconds * 1_000_000_000;
    for side in &mut sides {
        side.measured_from = side.recs.len();
        side.next_due = t0 + gen::arrival_gap_ns(seed, side.stream, side.next_step(), side.rate);
    }
    let mut prev: Option<(u64, bool, bool)> = None; // (start, traced, idle)
    loop {
        let now = tr.now();
        let on = tr.tracing_at(t0, now);
        if let Some((start, true, idle)) = prev {
            tr.window_ns += now - start;
            tr.idle_ns += if idle { now - start } else { 0 };
        }
        let mut busy = false;
        loop {
            let i = usize::from(sides[1].next_due < sides[0].next_due);
            let side = &mut sides[i];
            let due = side.next_due;
            if due > now || due >= t_end {
                break;
            }
            side.send(seed, keys, due, &mut tr, on);
            side.next_due =
                due + gen::arrival_gap_ns(seed, side.stream, side.next_step(), side.rate);
            busy = true;
        }
        turn += 1;
        busy |= reactor.turn(&mut tr, true, on);
        for side in &mut sides {
            busy |= side.receive(&mut tr, on, turn) > 0;
        }
        prev = Some((now, on, !busy));
        if now >= t_end
            && (!sides.iter().any(Side::outstanding)
                || now >= t_end + DRAIN_BOUND.as_nanos() as u64)
        {
            break;
        }
    }
    let drained_at = tr.now();
    let after = reactor.server.scrape();
    if let Some(c) = reactor.window_commit {
        reactor.close_window(c);
    }
    let acc = reactor.acc;
    drop(reactor.server);
    let rss_after = stats::proc_status_bytes("VmRSS");
    let rss_peak = stats::proc_status_bytes("VmHWM");

    // Accounting over the requests of the measured phase.
    let mut lat = sides.each_ref().map(|s| Latencies::with_capacity(s.recs.len()));
    let mut attempted = [0u64; 2];
    let mut errors = [0u64; 2];
    let mut unexpected = 0u64;
    let mut good = 0u64;
    let mut late = Vec::with_capacity(sides[0].recs.len() + sides[1].recs.len());
    for (t, side) in sides.iter().enumerate() {
        for r in &side.recs[side.measured_from..] {
            attempted[t] += 1;
            late.push(r.sent.saturating_sub(r.due));
            match r.status {
                Status::Ok => {
                    let ns = r.done - r.due;
                    lat[t].push(r.due - t0, false, ns);
                    let in_time = side.deadline_ms.is_none_or(|ms| ns <= u64::from(ms) * 1_000_000);
                    good += u64::from(in_time);
                }
                Status::Unanswered => {
                    errors[t] += 1;
                    unexpected += 1;
                    lat[t].push(r.due - t0, true, drained_at - r.due);
                }
                status => {
                    errors[t] += 1;
                    let typed_shed =
                        matches!(status, Status::Shed | Status::Deadline | Status::Refused);
                    let vip = side.stream == gen::WIRE_VIP;
                    unexpected += u64::from(vip || !typed_shed);
                    lat[t].push(r.due - t0, true, r.done - r.due);
                }
            }
        }
    }
    let ok = [lat[0].ok() as f64, lat[1].ok() as f64];
    let completed = ok[0] + ok[1];
    // The oracle: replay each connection's requests in id order over a
    // shadow of its own keys. A Put that was never answered leaves its
    // key unknown from then on.
    let mut shadow: Vec<u64> = (0..gen::WIRE_KEYS).map(gen::preload_value).collect();
    let mut unknown = vec![false; gen::WIRE_KEYS as usize];
    let mut mismatches = 0u64;
    for side in &sides {
        mismatches += side.protocol_faults;
        for (step, r) in side.recs.iter().enumerate() {
            let op = gen::wire_op(seed, side.stream, step as u64);
            let k = (side.key_base + op.key()) as usize;
            match (r.status, op) {
                (Status::Ok, GenOp::Get(_)) => {
                    mismatches += u64::from(!unknown[k] && r.value != shadow[k])
                }
                (Status::Ok, GenOp::Put(_, v)) => {
                    mismatches += u64::from(!unknown[k] && r.value != shadow[k]);
                    (shadow[k], unknown[k]) = (v, false);
                }
                (Status::Unanswered, GenOp::Put(..)) => unknown[k] = true,
                _ => {}
            }
        }
    }

    // Durability epilogue: checkpoint the served store, write the
    // snapshot, recover a fresh store from it and read every key back.
    let epilogue = snapshot_and_recover(store, keys);
    let lost = epilogue
        .values
        .iter()
        .enumerate()
        .filter(|&(k, v)| !unknown[k] && *v != StoreResp::Value(Some(shadow[k])))
        .count() as u64;

    report.correct = mismatches == 0 && lost == 0 && errors[0] == 0;
    report.attempted = attempted[0] + attempted[1];
    report.failed = unexpected + mismatches;
    if !report.correct {
        eprintln!(
            "oracle: {mismatches} wrong answers, {lost} keys lost on recovery, {} VIP errors",
            errors[0]
        );
    }

    report.put("goodput_ops_s", Unit::OpsPerS, good as f64 / seconds as f64);
    let growth = rss_after as f64 - rss_base as f64;
    report.put("rss_growth_bytes_per_op", Unit::Bytes, stats::ratio(growth, completed));
    report.put("rss_peak_mb", Unit::Mb, rss_peak as f64 / f64::from(1 << 20));
    report.put("recover_s", Unit::S, epilogue.recover_s);
    report.put("vip_error_ratio", Unit::Ratio, stats::ratio(errors[0] as f64, attempted[0] as f64));
    report.put(
        "guest_error_ratio",
        Unit::Ratio,
        stats::ratio(errors[1] as f64, attempted[1] as f64),
    );
    late.sort_unstable();
    let late_p99 = late.get((late.len() * 99).div_ceil(100).saturating_sub(1)).copied();
    report.put("loadgen.late_p99_us", Unit::Us, late_p99.unwrap_or(0) as f64 / 1e3);
    report.put("loadgen.late_max_us", Unit::Us, late.last().copied().unwrap_or(0) as f64 / 1e3);

    if !trace {
        return lat;
    }
    let d = Delta { before: &before, after: &after };
    crate::store_layers(report, &d, ok[0], ok[1]);
    epilogue.report(report);
    crate::wal_layers(report, None, completed, 0);
    report.put("reactor.shed", Unit::Count, acc.shed as f64);
    report.put("reactor.deadline_shed", Unit::Count, acc.deadline_shed as f64);
    let busy_turns = (acc.turns - acc.idle_turns) as f64;
    report.put("reactor.frames_per_turn", Unit::Count, stats::ratio(acc.frames as f64, busy_turns));
    report.put(
        "reactor.idle_turn_share",
        Unit::Ratio,
        stats::ratio(acc.idle_turns as f64, acc.turns as f64),
    );
    report.put("reactor.batch_envelopes", Unit::Count, d.mean("store_net_batch_envelopes", &[]));
    report.put("reactor.queue_depth_max", Unit::Count, acc.queue_depth_max as f64);
    let frames: u64 = sides.iter().map(|s| s.frames).sum();
    let bytes: u64 = sides.iter().map(|s| s.frame_bytes).sum();
    report.put("codec.frame_bytes", Unit::Bytes, stats::ratio(bytes as f64, frames as f64));

    // Layer times over the traced windows.
    let mean = |tr: &Tracer, l: Layer| {
        let t = tr.total(l);
        stats::ratio(t.ns as f64, t.count as f64)
    };
    report.put("codec.encode_ns", Unit::Ns, mean(&tr, Layer::CodecEncode));
    report.put("codec.decode_ns", Unit::Ns, mean(&tr, Layer::CodecDecode));
    report.put("conn.send_ns", Unit::Ns, mean(&tr, Layer::ConnSend));
    report.put("conn.drain_ns", Unit::Ns, mean(&tr, Layer::ConnDrain));
    let poll = tr.total(Layer::ReactorPoll).ns as f64;
    let traced_frames = acc.traced_frames as f64;
    report.put("reactor.poll_ns_per_frame", Unit::Ns, stats::ratio(poll, traced_frames));
    let self_ns = poll - acc.traced_commit_ns as f64;
    report.put("reactor.self_ns_per_frame", Unit::Ns, stats::ratio(self_ns, traced_frames));

    let spans = [
        Layer::CodecEncode,
        Layer::ConnSend,
        Layer::ConnDrain,
        Layer::CodecDecode,
        Layer::ReactorPoll,
    ];
    let covered = tr.covered_ns(&spans);
    let busy = tr.busy_ns();
    report.put(
        "trace.unattributed_share",
        Unit::Ratio,
        stats::ratio(busy as f64 - covered as f64, busy as f64),
    );

    // Overhead: median guest latency of traced windows over untraced ones,
    // leaving out the first window, where the phase starts.
    let guests = &sides[1].recs[sides[1].measured_from..];
    let mut by_window = [Vec::new(), Vec::new()];
    for r in guests.iter().filter(|r| r.status == Status::Ok) {
        let window = (r.due - t0) / 1_000_000_000;
        if window > 0 {
            by_window[(window % 2) as usize].push((r.done - r.due) as f64);
        }
    }
    let [mut on, mut off] = by_window;
    report.put(
        "trace.overhead_share",
        Unit::Ratio,
        crate::overhead(stats::median(&mut on), stats::median(&mut off)),
    );

    // The router's plan cost over the run's batch compositions: VIP
    // envelopes one by one, served guest ops in dispatch order grouped
    // into the run's mean coalesced batch size.
    let mut batches: Vec<Vec<StoreOp>> = Vec::new();
    let batch = (d.mean("store_net_batch_envelopes", &[]).round() as usize).max(1);
    for side in &sides {
        let ops = side.recs.iter().enumerate().filter(|(_, r)| r.status == Status::Ok).map(
            |(step, _)| match gen::wire_op(seed, side.stream, step as u64) {
                GenOp::Get(k) => StoreOp::Get(keys[(side.key_base + k) as usize].clone()),
                GenOp::Put(k, v) => StoreOp::Put(keys[(side.key_base + k) as usize].clone(), v),
                GenOp::Cas { .. } => unreachable!("the wire mix has no CAS"),
            },
        );
        let ops: Vec<StoreOp> = ops.take(crate::PLAN_OPS).collect();
        let size = if side.stream == gen::WIRE_VIP { 1 } else { batch };
        batches.extend(ops.chunks(size).map(<[StoreOp]>::to_vec));
    }
    report.put(
        "router.plan_ns_per_op",
        Unit::Ns,
        crate::plan_ns_per_op(&epilogue.topology, batches),
    );

    // Root spans: each traced request from its due instant to its answer.
    for side in &sides {
        for (i, r) in side.recs.iter().enumerate().skip(side.measured_from) {
            if r.status != Status::Unanswered && tr.tracing_at(t0, r.due) {
                tr.record(Layer::Request, None, side.span_id(i as u64 + 1), r.due, r.done);
            }
        }
    }
    crate::write_trace(&report.tag, &[("wire", &tr)]);
    lat
}

/// The wire workloads' durability epilogue, measured once per run.
struct Epilogue {
    /// Every key's value read back from the recovered store, in key order.
    values: Vec<StoreResp>,
    topology: ShardTopology,
    checkpoint_s: f64,
    write_s: f64,
    snapshot_bytes: u64,
    recover_s: f64,
}

impl Epilogue {
    fn report(&self, report: &mut Report) {
        report.put("persist.checkpoint_s", Unit::S, self.checkpoint_s);
        report.put("persist.snapshot_write_s", Unit::S, self.write_s);
        report.put("persist.snapshot_bytes", Unit::Bytes, self.snapshot_bytes as f64);
        report.put("persist.recover_s", Unit::S, self.recover_s);
    }
}

/// Checkpoints the served store, writes the snapshot, drops the store,
/// recovers a fresh one from the file [`RECOVERIES`] times (the fastest
/// counts) and reads every key back.
fn snapshot_and_recover(store: Store, keys: &[String]) -> Epilogue {
    let dir = crate::out_dir().join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the run directory");
    let path = dir.join("store.snapshot");
    let t = Instant::now();
    let snap = store.checkpoint();
    let checkpoint_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    snap.write_to(&path).expect("write the snapshot");
    let write_s = t.elapsed().as_secs_f64();
    let snapshot_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let topology = store.topology();
    drop((snap, store));
    let mut recover_s = Vec::with_capacity(RECOVERIES);
    let mut values = Vec::new();
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let recovered = crate::builder().recover(&path).expect("recover the snapshot");
        recover_s.push(t.elapsed().as_secs_f64());
        if values.is_empty() {
            let gets = keys.iter().map(|k| StoreOp::Get(k.clone())).collect();
            values = recovered.client(recovered.admit_guest()).execute(gets);
        }
    }
    let recover_s = recover_s.into_iter().fold(f64::NAN, f64::min);
    let _ = std::fs::remove_dir_all(&dir);
    Epilogue { values, topology, checkpoint_s, write_s, snapshot_bytes, recover_s }
}

/// The capacity sweep behind the committed rates: the steady mix at
/// rising offered rates, then the flood shape at rising guest rates.
pub fn calibrate(seed: u64) {
    let seconds = 3;
    println!(
        "{:>10} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "shape",
        "offered/s",
        "goodput/s",
        "guest_p50",
        "guest_p99",
        "vip_p99",
        "guest_err",
        "late_p99_us"
    );
    let steady = [40e3, 60e3, 80e3, 100e3, 120e3, 140e3, 160e3, 200e3, 250e3]
        .map(|r| ("steady", WireSpec { vip_rate: r * 0.1, guest_rate: r * 0.9, ..STEADY }));
    let flood =
        [150e3, 200e3, 250e3, 300e3].map(|g| ("flood", WireSpec { guest_rate: g, ..FLOOD }));
    for (shape, spec) in steady.into_iter().chain(flood) {
        let mut report = Report::new("calibrate");
        let [vip, guest] = run(spec, seed, seconds, false, &mut report);
        report.put("guest_p50_us", Unit::Us, guest.percentile_us(50.0));
        report.put("guest_p99_us", Unit::Us, guest.percentile_us(99.0));
        report.put("vip_p99_us", Unit::Us, vip.percentile_us(99.0));
        let v = |name| report.value(name).unwrap_or(f64::NAN);
        println!(
            "{shape:>10} {:>10.0} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>10.4} {:>12.1}",
            spec.vip_rate + spec.guest_rate,
            v("goodput_ops_s"),
            v("guest_p50_us"),
            v("guest_p99_us"),
            v("vip_p99_us"),
            v("guest_error_ratio"),
            v("loadgen.late_p99_us"),
        );
    }
}
