//! In-memory spans around the public calls the benchmark makes.
//!
//! Each load thread owns a [`Tracer`]. A span records its layer, the
//! request or turn id it serves, the layer of the span that caused it,
//! and its start and end. Totals per layer are kept for every span; the
//! spans themselves are kept for one id in [`SAMPLE_EVERY`], and whenever
//! they are slow, up to a preallocated capacity, and written out when the
//! run ends.
//!
//! Tracing is on only in alternate one-second windows of the measured
//! phase, so one traced run also measures its own overhead against the
//! untraced windows between them.

use std::io::Write;
use std::time::Instant;

pub const SAMPLE_EVERY: u64 = 16;
/// Spans longer than this are kept whatever their id: they are the tail.
const SLOW_NS: u64 = 200_000;
const WINDOW_NS: u64 = 1_000_000_000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Request,
    CodecEncode,
    ConnSend,
    ConnDrain,
    CodecDecode,
    ReactorPoll,
    StoreRequestVip,
    StoreRequestGuest,
    StoreSplit,
    StoreMerge,
    WalRotate,
    PersistCheckpoint,
    PersistSnapshotWrite,
    WalTruncate,
}

/// `WalTruncate` stays the last variant: the count is taken from it.
const LAYERS: usize = Layer::WalTruncate as usize + 1;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::CodecEncode => "codec.encode",
            Layer::ConnSend => "conn.send",
            Layer::ConnDrain => "conn.drain",
            Layer::CodecDecode => "codec.decode",
            Layer::ReactorPoll => "reactor.poll",
            Layer::StoreRequestVip => "store.request.vip",
            Layer::StoreRequestGuest => "store.request.guest",
            Layer::StoreSplit => "store.split",
            Layer::StoreMerge => "store.merge",
            Layer::WalRotate => "wal.rotate",
            Layer::PersistCheckpoint => "persist.checkpoint",
            Layer::PersistSnapshotWrite => "persist.snapshot_write",
            Layer::WalTruncate => "wal.truncate",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    parent: Option<Layer>,
    id: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer `(total ns, count)` over the traced windows.
#[derive(Clone, Copy, Debug, Default)]
pub struct Total {
    pub ns: u64,
    pub count: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    totals: [Total; LAYERS],
    /// Time the thread spent inside traced windows, and inside the
    /// thread's idle waits there (nothing due, nothing to receive).
    pub window_ns: u64,
    pub idle_ns: u64,
}

impl Tracer {
    /// `capacity` spans are allocated now, before any RSS baseline.
    pub fn new(enabled: bool, epoch: Instant, capacity: usize) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            totals: [Total::default(); LAYERS],
            window_ns: 0,
            idle_ns: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether instant `ns` (since the epoch), measured from the start of
    /// the measured phase at `phase_ns`, falls in a traced window.
    pub fn tracing_at(&self, phase_ns: u64, ns: u64) -> bool {
        self.enabled && (ns.saturating_sub(phase_ns) / WINDOW_NS).is_multiple_of(2)
    }

    /// Starts a span if tracing; returns its start instant.
    #[inline]
    pub fn start(&self, on: bool) -> u64 {
        if on {
            self.now()
        } else {
            0
        }
    }

    /// Ends a span started by [`Tracer::start`]; returns its end instant.
    #[inline]
    pub fn end(
        &mut self,
        on: bool,
        layer: Layer,
        parent: Option<Layer>,
        id: u64,
        start: u64,
    ) -> u64 {
        if !on {
            return 0;
        }
        let end = self.now();
        self.record(layer, parent, id, start, end);
        end
    }

    pub fn record(&mut self, layer: Layer, parent: Option<Layer>, id: u64, start: u64, end: u64) {
        let t = &mut self.totals[layer as usize];
        t.ns += end.saturating_sub(start);
        t.count += 1;
        let keep = id.is_multiple_of(SAMPLE_EVERY) || end - start > SLOW_NS;
        if keep && self.spans.len() < self.spans.capacity() {
            self.spans.push(Span { layer, parent, id, start_ns: start, end_ns: end });
        }
    }

    pub fn total(&self, layer: Layer) -> Total {
        self.totals[layer as usize]
    }

    /// Time covered by the given layers' spans.
    pub fn covered_ns(&self, layers: &[Layer]) -> u64 {
        layers.iter().map(|&l| self.total(l).ns).sum()
    }

    /// Time in traced windows not spent idle.
    pub fn busy_ns(&self) -> u64 {
        self.window_ns - self.idle_ns
    }
}

/// Writes every kept span as one JSON object per line.
pub fn write_spans(path: &std::path::Path, threads: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, tracer) in threads {
        for s in &tracer.spans {
            writeln!(
                out,
                "{{\"thread\":\"{thread}\",\"name\":\"{}\",\"parent\":{},\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer.name(),
                s.parent.map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                s.id,
                s.start_ns,
                s.end_ns
            )?;
        }
    }
    out.flush()
}
