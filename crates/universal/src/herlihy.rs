//! The announce-and-help universal construction (Herlihy [7]), extended
//! with **checkpoint cells**.
//!
//! Checkpoints ride the same consensus path as operations: any port may
//! propose a [`CheckpointRecord`] — a marker naming a log index — into the
//! next free cell. Once a checkpoint is agreed, it is a no-op for every
//! replica passing it; the port that placed it seals its own replayed state
//! (by determinism, the state of the agreed prefix) and publishes it as the
//! **anchor**. Ports arriving later bootstrap from the latest anchor and
//! replay only the post-checkpoint suffix, so handle creation costs
//! O(delta) instead of O(history).
//!
//! ## Memory bound
//!
//! A port keeps its replay position as a [`Weak`] reference between calls
//! (it is *parked*), so only two things hold log cells: the latest anchor,
//! which also holds the previous anchor's cell, and ports in the middle of
//! a call. With checkpoints every `k` cells and no call in flight, a log
//! therefore retains at most
//!
//! * two cadence windows of cells (the previous anchor's cell up to the
//!   tail, ≈ `2k`),
//! * one anchor state, and
//! * one dead `CellNode` allocation per parked port whose cell was freed
//!   (a [`Weak`] keeps the allocation, not the cell's contents).
//!
//! A port that re-attaches to a freed cell re-bootstraps from the latest
//! anchor. The previous anchor's cell is the slack that lets a port parked
//! less than one window behind resume by replay instead. The port that
//! publishes a new anchor frees the window the replaced anchor kept as
//! slack, so reclaiming cells costs the sealing port, not whichever thread
//! the epoch scheme of [`AtomicCell`] later drops the replaced anchor on;
//! only the replaced anchor's state waits for that.
//!
//! Progress: operation placement keeps its original guarantee (wait-free
//! for the factory's wait-free set via the helping rule, obstruction-free
//! otherwise). Re-attaching is bounded too: [`Weak::upgrade`] is a CAS loop
//! on the cell's strong count, and that count changes O(ports) times over
//! the cell's life — at most once per port attaching to it and once per
//! port parking on it (a call walks the cells between by reference), once
//! per anchor holding it, once for its predecessor's link.
//!
//! Checkpoint placement is **lock-free** for every port — checkpoints are
//! not announced, so nobody helps them, but each failed placement attempt
//! means some *operation* committed instead (system-wide progress).
//! Checkpoint proposers still obey the helping rule, so they never
//! undermine the wait-free bound of the privileged set, and only they
//! publish anchors: a port that merely passes a checkpoint cell neither
//! clones state nor touches the anchor.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use apc_core::consensus::Consensus;
use apc_core::error::ConsensusError;
use apc_progress_macros::progress;
use apc_registers::{AtomicCell, OnceArc};

use crate::factory::ConsensusFactory;
use crate::seq::SequentialSpec;

/// Errors of the universal object.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum UniversalError {
    /// The process index is not a port of the underlying consensus spec.
    NotAPort {
        /// The offending process index.
        pid: usize,
    },
    /// A handle for this process was already taken (one handle per process).
    HandleTaken {
        /// The offending process index.
        pid: usize,
    },
}

impl fmt::Display for UniversalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UniversalError::NotAPort { pid } => {
                write!(f, "process {pid} is not a port of the universal object")
            }
            UniversalError::HandleTaken { pid } => {
                write!(f, "a handle for process {pid} already exists")
            }
        }
    }
}

impl std::error::Error for UniversalError {}

/// An operation stamped with its invoker and per-invoker sequence number.
///
/// Appears inside [`LogRecord`]; its fields are an implementation detail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpRecord<O> {
    pid: u8,
    seq: u64,
    op: O,
}

/// An agreed checkpoint: a marker sealing the log prefix before its cell.
///
/// The record carries no state. The sealed state is the result of replaying
/// log cells `[0, index)`; the port that placed the record publishes it as
/// the anchor from its own replica. The cell at `index` is the checkpoint
/// cell itself and contributes no operation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CheckpointRecord {
    pid: u8,
    /// Log index of the checkpoint cell (= number of sealed prefix cells).
    index: u64,
}

impl CheckpointRecord {
    /// The log index this checkpoint seals (number of prefix cells).
    pub fn index(&self) -> u64 {
        self.index
    }
}

/// An agreed **reconfiguration**: an operation whose post-op state is
/// sealed as an anchor — the topology-bump record of service layers.
///
/// A reconfig cell behaves like an ordinary operation cell (its `op` is
/// applied through the sequential spec at the cell's position in the log),
/// and the port that placed it then publishes the state after the op as
/// the bootstrap anchor, exactly as for a checkpoint. The combination is
/// what makes live reconfiguration linearizable in one step: the proposer
/// learns exactly which operations committed before the bump (the op's
/// response), and every replica deterministically applies the bump at the
/// same log index.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReconfigRecord<O> {
    pid: u8,
    seq: u64,
    /// The reconfiguration operation, applied through the ordinary spec.
    op: O,
}

impl<O> ReconfigRecord<O> {
    /// The reconfiguration operation.
    pub fn op(&self) -> &O {
        &self.op
    }
}

/// The value one log cell agrees on: an operation, a checkpoint, or a
/// reconfiguration.
///
/// This is the value type of the [`ConsensusFactory`] bound of
/// [`Universal`] (see [`LogRecordOf`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum LogRecord<O> {
    /// A client operation (the common case).
    Op(OpRecord<O>),
    /// A checkpoint sealing the log prefix before its cell.
    Checkpoint(CheckpointRecord),
    /// An operation whose post-state is sealed (see [`ReconfigRecord`]).
    Reconfig(ReconfigRecord<O>),
}

/// The record type agreed on by each log cell for spec `S`.
pub type LogRecordOf<S> = LogRecord<<S as SequentialSpec>::Op>;

/// A per-process announcement: "my operation `seq` is `op`, please help".
#[derive(Clone, PartialEq, Eq, Debug)]
struct Announce<O> {
    seq: u64,
    op: O,
}

/// One cell of the operation log.
struct CellNode<C> {
    cons: C,
    next: OnceArc<CellNode<C>>,
    /// The log's live-cell token (see [`Universal::live_cells`]).
    _live: Arc<()>,
}

impl<C> Drop for CellNode<C> {
    fn drop(&mut self) {
        // Unlink the tail iteratively: once a checkpoint retires a long
        // prefix, the naive recursive drop (cell 0 drops cell 1 drops …)
        // would overflow the stack. Each hop either takes sole ownership of
        // the next cell (and keeps walking) or stops at a cell someone else
        // still references.
        let mut cur = self.next.take_mut();
        while let Some(node) = cur {
            cur = match Arc::try_unwrap(node) {
                Ok(mut inner) => inner.next.take_mut(),
                Err(_) => None,
            };
        }
    }
}

/// The latest known agreed checkpoint: where ports bootstrap.
struct Anchor<S, C>
where
    S: SequentialSpec,
{
    /// Log index of `cell` (the first cell a bootstrapping replay consumes).
    index: u64,
    state: Arc<S::State>,
    applied: Vec<u64>,
    cell: Arc<CellNode<C>>,
    /// The previous anchor's cell: one cadence window of slack, so a port
    /// parked less than a window behind resumes by replay rather than by
    /// re-bootstrapping. The port that publishes the next anchor takes it
    /// (see [`Universal::publish_anchor`]).
    prev: Mutex<Option<Arc<CellNode<C>>>>,
}

/// A linearizable shared object built from a sequential specification and a
/// consensus factory (see the crate docs).
///
/// Operations go through per-process [`Handle`]s (one per process index),
/// which carry the replayed local copy of the state.
pub struct Universal<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    spec: S,
    factory: F,
    n: usize,
    announce: Vec<AtomicCell<Announce<S::Op>>>,
    /// Latest agreed checkpoint (initially the empty prefix at the head).
    /// Monotone in `index`; never `⊥`.
    anchor: AtomicCell<Arc<Anchor<S, F::Object>>>,
    /// Every live cell holds a clone; the strong count is the gauge.
    live: Arc<()>,
    handles: AtomicU64,
}

impl<S, F> Universal<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    /// Creates a universal object for `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn new(spec: S, factory: F, n: usize) -> Self {
        let init = spec.init();
        Self::with_anchor(spec, factory, n, init, 0)
    }

    /// Creates a universal object whose log *starts* at `index` with the
    /// given `state` — the recovery constructor.
    ///
    /// The cells `[0, index)` are not materialized: the object behaves as if
    /// a checkpoint sealing `state` had been agreed at `index`, so fresh
    /// handles begin replay there. This is how a persistence layer rebuilds
    /// an object from a durable snapshot taken at log index `index`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    pub fn recovered(spec: S, factory: F, n: usize, state: S::State, index: u64) -> Self {
        Self::with_anchor(spec, factory, n, state, index)
    }

    fn with_anchor(spec: S, factory: F, n: usize, state: S::State, index: u64) -> Self {
        assert!((1..=64).contains(&n), "n must be in 1..=64");
        let live = Arc::new(());
        let head = Arc::new(CellNode {
            cons: factory.create(),
            next: OnceArc::new(),
            _live: Arc::clone(&live),
        });
        let anchor = Anchor {
            index,
            state: Arc::new(state),
            applied: vec![0; n],
            cell: head,
            prev: None.into(),
        };
        Universal {
            spec,
            factory,
            n,
            announce: (0..n).map(|_| AtomicCell::new()).collect(),
            anchor: AtomicCell::with_value(Arc::new(anchor)),
            live,
            handles: AtomicU64::new(0),
        }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Log index of the latest agreed checkpoint this object knows about
    /// (0 if none was ever taken): where a fresh handle starts replaying.
    #[progress(wait_free)]
    pub fn anchor_index(&self) -> u64 {
        self.latest_anchor().index
    }

    /// Log cells currently allocated and not yet freed — the memory gauge
    /// of the bound in the [crate docs](crate).
    #[progress(wait_free)]
    pub fn live_cells(&self) -> u64 {
        Arc::strong_count(&self.live) as u64 - 1
    }

    fn latest_anchor(&self) -> Arc<Anchor<S, F::Object>> {
        self.anchor.load().expect("the anchor is initialized and never cleared")
    }

    /// Claims the port bit for `pid`. The replay starts parked on no cell,
    /// so it clones no state until its first call bootstraps it.
    #[progress(wait_free)]
    fn take_port(&self, pid: usize) -> Result<Replay<S, F::Object>, UniversalError> {
        if pid >= self.n || !self.factory.spec().is_port(pid) {
            return Err(UniversalError::NotAPort { pid });
        }
        let bit = 1u64 << pid;
        if self.handles.fetch_or(bit, Ordering::AcqRel) & bit != 0 {
            return Err(UniversalError::HandleTaken { pid });
        }
        Ok(Replay { pid, seq: 0, cell_index: self.anchor_index(), steps: 0, parked: None })
    }

    /// Takes the (unique) operation handle for process `pid`.
    ///
    /// # Errors
    ///
    /// * [`UniversalError::NotAPort`] if `pid` is not a port of the
    ///   factory's liveness spec;
    /// * [`UniversalError::HandleTaken`] if the handle was already taken.
    #[progress(wait_free)]
    pub fn handle(&self, pid: usize) -> Result<Handle<'_, S, F>, UniversalError> {
        Ok(Handle { obj: self, replay: self.take_port(pid)? })
    }

    /// Takes the (unique) handle for process `pid` as an owned value keeping
    /// the object alive through an [`Arc`].
    ///
    /// This is the form service layers want: the handle can be stored next
    /// to (or instead of) the object without borrowing it, e.g. in a pool of
    /// per-port slots.
    ///
    /// # Errors
    ///
    /// Same as [`Universal::handle`].
    #[progress(wait_free)]
    pub fn owned_handle(self: &Arc<Self>, pid: usize) -> Result<OwnedHandle<S, F>, UniversalError> {
        Ok(OwnedHandle { obj: Arc::clone(self), replay: self.take_port(pid)? })
    }
}

impl<S, F> fmt::Debug for Universal<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Universal")
            .field("n", &self.n)
            .field("anchor_index", &self.anchor_index())
            .finish()
    }
}

/// The per-port replay state shared by [`Handle`] and [`OwnedHandle`].
struct Replay<S, C>
where
    S: SequentialSpec,
{
    pid: usize,
    /// Sequence number of my most recent operation.
    seq: u64,
    /// Absolute log index of the replica's cursor.
    cell_index: u64,
    /// Log cells this handle consumed itself (excludes the checkpointed
    /// prefix it bootstrapped from) — the replay-work meter.
    steps: u64,
    /// The replica between calls; `None` until the first call.
    parked: Option<Parked<S, C>>,
}

/// A replica between calls. Its cell is held weakly, so a parked port pins
/// no part of the log.
struct Parked<S, C>
where
    S: SequentialSpec,
{
    cell: Weak<CellNode<C>>,
    state: S::State,
    applied: Vec<u64>,
}

/// A replica attached to the log for the duration of one call.
struct Replica<S>
where
    S: SequentialSpec,
{
    /// Absolute log index of the cell the walk stands on.
    index: u64,
    /// Local replayed state.
    state: S::State,
    /// `applied[p]` = highest sequence number of `p` applied so far.
    applied: Vec<u64>,
    /// Cells consumed during this call.
    steps: u64,
}

/// A walk along the log during one call. The `Arc` returned by
/// [`Universal::attach`] pins every cell from the attach point on, so the
/// walk borrows cells instead of counting references to each.
struct Walk<'p, C> {
    /// The next undecided-or-unapplied cell.
    cell: &'p CellNode<C>,
    /// The cell before it, if the walk moved.
    prev: Option<&'p CellNode<C>>,
}

impl<'p, C> Walk<'p, C> {
    /// An owning reference to the walk's current cell.
    fn cell_arc(&self, pin: &Arc<CellNode<C>>) -> Arc<CellNode<C>> {
        match self.prev {
            None => Arc::clone(pin),
            Some(prev) => prev.next.load().expect("a walked link is set"),
        }
    }
}

impl<S, F> Universal<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    /// Re-attaches a replica to its parked cell, or bootstraps it from the
    /// latest anchor when it never ran or its cell has been freed. Every
    /// entry point calls this before it announces or proposes. The
    /// returned `Arc` pins the log from the attach point on.
    fn attach(&self, replay: &mut Replay<S, F::Object>) -> (Arc<CellNode<F::Object>>, Replica<S>) {
        if let Some(parked) = replay.parked.take() {
            if let Some(cell) = parked.cell.upgrade() {
                let replica = Replica {
                    index: replay.cell_index,
                    state: parked.state,
                    applied: parked.applied,
                    steps: 0,
                };
                return (cell, replica);
            }
        }
        // The freed cell lay before the latest anchor's previous cell, and
        // every op of this port was placed before it, so the anchor's
        // `applied` already counts them all.
        let anchor = self.latest_anchor();
        let replica = Replica {
            index: anchor.index,
            state: S::State::clone(&anchor.state),
            applied: anchor.applied.clone(),
            steps: 0,
        };
        (Arc::clone(&anchor.cell), replica)
    }

    /// Parks a replica at the end of a call, holding its cell weakly.
    fn detach(replay: &mut Replay<S, F::Object>, cell: &Arc<CellNode<F::Object>>, rep: Replica<S>) {
        replay.cell_index = rep.index;
        replay.steps += rep.steps;
        replay.parked =
            Some(Parked { cell: Arc::downgrade(cell), state: rep.state, applied: rep.applied });
    }

    /// Applies `op` through the given replay state (the shared body of
    /// [`Handle::apply`] and [`OwnedHandle::apply`]).
    #[progress(bounded_wait_free)]
    fn apply_through(&self, replay: &mut Replay<S, F::Object>, op: S::Op) -> S::Resp {
        // Attach before announcing: once announced, a helper may place the
        // op in any undecided cell, and all of those lie past a live cursor.
        let (pin, mut rep) = self.attach(replay);
        replay.seq += 1;
        let (pid, my_seq) = (replay.pid, replay.seq);
        self.announce[pid].store(Announce { seq: my_seq, op: op.clone() });
        let mut walk = Walk { cell: &pin, prev: None };
        let resp = loop {
            let decided = self.decide(pid, walk.cell, &rep, || {
                LogRecord::Op(OpRecord { pid: pid as u8, seq: my_seq, op: op.clone() })
            });
            let mine = match decided {
                LogRecord::Op(rec) if rec.pid as usize == pid && rec.seq == my_seq => {
                    Some(self.absorb_own(&mut rep, rec.pid, rec.seq, &rec.op))
                }
                other => {
                    self.absorb(&mut rep, other);
                    None
                }
            };
            self.step(&mut walk, &mut rep);
            if let Some(resp) = mine {
                break resp;
            }
        };
        Self::detach(replay, &walk.cell_arc(&pin), rep);
        resp
    }

    /// Places a reconfiguration through the replay state (the shared body of
    /// [`Handle::reconfigure`] and [`OwnedHandle::reconfigure`]) and seals
    /// the post-op state as the anchor; returns the log index of the agreed
    /// reconfig cell and the op's response at that linearization point.
    ///
    /// Like checkpoints, reconfig proposals are not announced (nobody helps
    /// them), so placement is lock-free: each failed attempt means some
    /// other port's record committed instead. The proposer still obeys the
    /// helping rule, so it never undermines the wait-free bound of the
    /// privileged set.
    #[progress(lock_free)]
    fn reconfigure_through(&self, replay: &mut Replay<S, F::Object>, op: S::Op) -> (u64, S::Resp) {
        let (pin, mut rep) = self.attach(replay);
        replay.seq += 1;
        let (pid, my_seq) = (replay.pid, replay.seq);
        let mut walk = Walk { cell: &pin, prev: None };
        let placed = loop {
            let decided = self.decide(pid, walk.cell, &rep, || {
                LogRecord::Reconfig(ReconfigRecord { pid: pid as u8, seq: my_seq, op: op.clone() })
            });
            let mine = match decided {
                LogRecord::Reconfig(rec) if rec.pid as usize == pid && rec.seq == my_seq => {
                    Some((rep.index, self.absorb_own(&mut rep, rec.pid, rec.seq, &rec.op)))
                }
                other => {
                    self.absorb(&mut rep, other);
                    None
                }
            };
            self.step(&mut walk, &mut rep);
            if let Some(placed) = mine {
                break placed;
            }
        };
        let cell = walk.cell_arc(&pin);
        self.publish_anchor(&rep, &cell);
        Self::detach(replay, &cell, rep);
        placed
    }

    /// Proposes a checkpoint through the replay state (the shared body of
    /// [`Handle::checkpoint`] and [`OwnedHandle::checkpoint`]), seals the
    /// replica as the anchor, and returns the log index of the agreed
    /// checkpoint cell.
    #[progress(lock_free)]
    fn checkpoint_through(&self, replay: &mut Replay<S, F::Object>) -> u64 {
        let (pin, mut rep) = self.attach(replay);
        let pid = replay.pid;
        let mut walk = Walk { cell: &pin, prev: None };
        let index = loop {
            let decided = self.decide(pid, walk.cell, &rep, || {
                LogRecord::Checkpoint(CheckpointRecord { pid: pid as u8, index: rep.index })
            });
            // Any checkpoint agreed at my cell seals exactly my replayed
            // prefix, so it serves whether or not I proposed it. Anything
            // else claimed the cell: absorb it and re-seal at the next
            // index (lock-free: their progress), so the contract — the
            // sealed state excludes the checkpoint cell — stays exact.
            let sealed = matches!(decided, LogRecord::Checkpoint(_)).then_some(rep.index);
            self.absorb(&mut rep, decided);
            self.step(&mut walk, &mut rep);
            if let Some(index) = sealed {
                break index;
            }
        };
        let cell = walk.cell_arc(&pin);
        self.publish_anchor(&rep, &cell);
        Self::detach(replay, &cell, rep);
        index
    }

    /// Produces (or learns) the decision of `cell`. `fallback` is the
    /// record to propose when the helping rule yields no candidate.
    fn decide<'c>(
        &self,
        pid: usize,
        cell: &'c CellNode<F::Object>,
        rep: &Replica<S>,
        fallback: impl FnOnce() -> LogRecordOf<S>,
    ) -> &'c LogRecordOf<S> {
        if let Some(d) = cell.cons.decided() {
            return d;
        }
        // Helping rule: cell k prefers the announcement of process k mod n,
        // if it is pending (announced and not yet applied in my replay —
        // which is exact for all cells before this one).
        let slot = (rep.index as usize) % self.n;
        let candidate = self.announce[slot]
            .load()
            .filter(|a| a.seq > rep.applied[slot])
            .map(|a| LogRecord::Op(OpRecord { pid: slot as u8, seq: a.seq, op: a.op }));
        let proposal = candidate.unwrap_or_else(fallback);
        // APC-LINT: allow(progress): dynamic dispatch through the factory's consensus object; its class is the factory's liveness spec (wait-free for the VIP set), checked at the object, not here
        match cell.cons.propose(pid, proposal) {
            Ok(_) | Err(ConsensusError::AlreadyProposed { .. }) => {
                cell.cons.decided().expect("a proposed-to cell has decided")
            }
            Err(ConsensusError::NotAPort { pid }) => {
                unreachable!("handle creation verified port membership for {pid}")
            }
        }
    }

    /// Applies the caller's own decided operation to the replica.
    fn absorb_own(&self, rep: &mut Replica<S>, pid: u8, seq: u64, op: &S::Op) -> S::Resp {
        rep.applied[pid as usize] = seq;
        self.spec.apply(&mut rep.state, op)
    }

    /// Passes someone else's decided record: replays an operation or a
    /// reconfiguration (no response wanted); a checkpoint contributes none.
    fn absorb(&self, rep: &mut Replica<S>, record: &LogRecordOf<S>) {
        match record {
            LogRecord::Op(OpRecord { pid, seq, op })
            | LogRecord::Reconfig(ReconfigRecord { pid, seq, op }) => {
                rep.applied[*pid as usize] = *seq;
                self.spec.replay(&mut rep.state, op);
            }
            LogRecord::Checkpoint(ck) => {
                debug_assert_eq!(ck.index, rep.index, "checkpoint index matches its cell");
            }
        }
    }

    /// Seals the replica (just past a checkpoint or reconfig cell) and
    /// publishes it as the anchor, unless an equal or later one is already
    /// out. The new anchor keeps the current one's cell as its slack.
    fn publish_anchor(&self, rep: &Replica<S>, cell: &Arc<CellNode<F::Object>>) {
        let index = rep.index;
        let current = self.latest_anchor();
        if current.index >= index {
            return;
        }
        let anchor = Arc::new(Anchor {
            index,
            state: Arc::new(rep.state.clone()),
            applied: rep.applied.clone(),
            cell: Arc::clone(cell),
            prev: Some(Arc::clone(&current.cell)).into(),
        });
        // Monotone publish: racing sealers can only move the anchor forward.
        self.anchor.update_if(anchor, |a| a.is_none_or(|a| a.index < index));
        // `current` is no longer the latest anchor either way, so its slack
        // window is garbage. Free it here, on the sealing port, rather than
        // wherever the epoch scheme later drops the retired anchor — which
        // may be a wait-free port's thread.
        let slack = current.prev.try_lock().ok().and_then(|mut prev| prev.take());
        drop(slack);
    }

    /// Moves the walk to the next cell, creating it if necessary.
    fn step<'p>(&self, walk: &mut Walk<'p, F::Object>, rep: &mut Replica<S>) {
        let next = walk.cell.next.get_or_init(|| Arc::new(self.new_cell()));
        walk.prev = Some(walk.cell);
        walk.cell = next;
        rep.index += 1;
        rep.steps += 1;
    }

    fn new_cell(&self) -> CellNode<F::Object> {
        CellNode {
            cons: self.factory.create(),
            next: OnceArc::new(),
            _live: Arc::clone(&self.live),
        }
    }
}

/// A per-process handle on a [`Universal`] object.
///
/// Holds the process's parked replay position and local state copy;
/// `apply` is linearizable across handles, with the progress condition of
/// the underlying consensus factory (wait-free for the factory's wait-free
/// set, obstruction-free for the rest).
pub struct Handle<'a, S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    obj: &'a Universal<S, F>,
    replay: Replay<S, F::Object>,
}

impl<S, F> Handle<'_, S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    /// The process this handle belongs to.
    pub fn pid(&self) -> usize {
        self.replay.pid
    }

    /// Applies `op` to the shared object, returning its response at its
    /// linearization point.
    ///
    /// Progress: wait-free if `pid` is in the factory's wait-free set
    /// (placement within ~2·n cells by the helping rule); otherwise
    /// obstruction-free.
    #[progress(bounded_wait_free)]
    pub fn apply(&mut self, op: S::Op) -> S::Resp {
        self.obj.apply_through(&mut self.replay, op)
    }

    /// Places a checkpoint cell through the same consensus path as
    /// operations, seals this handle's replayed state at it as the anchor,
    /// and returns the log index of the checkpoint cell.
    ///
    /// After agreement, fresh handles bootstrap from the sealed state and
    /// replay only the post-checkpoint suffix (O(delta) instead of
    /// O(history)), and the cells before the previous anchor are freed once
    /// no call in flight still stands on them.
    ///
    /// Progress: lock-free — each failed placement attempt is another
    /// port's operation committing.
    #[progress(lock_free)]
    pub fn checkpoint(&mut self) -> u64 {
        self.obj.checkpoint_through(&mut self.replay)
    }

    /// Applies `op` in a single agreed [`ReconfigRecord`] cell and seals the
    /// post-op state as the anchor, returning the cell's log index and the
    /// op's response at its linearization point.
    ///
    /// This is the live-reconfiguration primitive: the op observes exactly
    /// the operations that committed before the bump, every replica applies
    /// it at the same log index, and fresh handles bootstrap from the sealed
    /// post-state (the cell doubles as a checkpoint anchor).
    ///
    /// Progress: lock-free, like [`Handle::checkpoint`] — each failed
    /// placement attempt is another port's record committing.
    #[progress(lock_free)]
    pub fn reconfigure(&mut self, op: S::Op) -> (u64, S::Resp) {
        self.obj.reconfigure_through(&mut self.replay, op)
    }

    /// The absolute log index of this handle's replay cursor (all cells
    /// before it are reflected in [`Self::local_state`]).
    pub fn replayed_cells(&self) -> u64 {
        self.replay.cell_index
    }

    /// Log cells this handle has consumed itself — the replay-work meter.
    ///
    /// A handle bootstrapped from a checkpoint does **not** count the sealed
    /// prefix: this is the regression guard for the O(delta) replay claim.
    pub fn replay_steps(&self) -> u64 {
        self.replay.steps
    }

    /// Read-only access to the local replica, exact as of the last call;
    /// `None` before the first call (a fresh handle holds no state).
    pub fn local_state(&self) -> Option<&S::State> {
        self.replay.parked.as_ref().map(|p| &p.state)
    }
}

impl<S, F> fmt::Debug for Handle<'_, S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Handle")
            .field("pid", &self.replay.pid)
            .field("replayed_cells", &self.replay.cell_index)
            .finish()
    }
}

/// An owned per-process handle keeping its [`Universal`] object alive.
///
/// Identical to [`Handle`] except that it co-owns the object through an
/// [`Arc`], so it can be stored in long-lived structures (port pools,
/// per-client sessions) without a borrow. Created by
/// [`Universal::owned_handle`].
pub struct OwnedHandle<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    obj: Arc<Universal<S, F>>,
    replay: Replay<S, F::Object>,
}

impl<S, F> OwnedHandle<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    /// The process this handle belongs to.
    pub fn pid(&self) -> usize {
        self.replay.pid
    }

    /// Applies `op` to the shared object; see [`Handle::apply`].
    #[progress(bounded_wait_free)]
    pub fn apply(&mut self, op: S::Op) -> S::Resp {
        self.obj.apply_through(&mut self.replay, op)
    }

    /// Seals a checkpoint; see [`Handle::checkpoint`].
    #[progress(lock_free)]
    pub fn checkpoint(&mut self) -> u64 {
        // Split the borrow: `obj` and `replay` are disjoint fields.
        let OwnedHandle { obj, replay } = self;
        obj.checkpoint_through(replay)
    }

    /// Applies `op` and seals the post-op state in one agreed cell; see
    /// [`Handle::reconfigure`].
    #[progress(lock_free)]
    pub fn reconfigure(&mut self, op: S::Op) -> (u64, S::Resp) {
        let OwnedHandle { obj, replay } = self;
        obj.reconfigure_through(replay, op)
    }

    /// The absolute log index of this handle's replay cursor.
    pub fn replayed_cells(&self) -> u64 {
        self.replay.cell_index
    }

    /// Log cells this handle has consumed itself; see
    /// [`Handle::replay_steps`].
    pub fn replay_steps(&self) -> u64 {
        self.replay.steps
    }

    /// The local replica; see [`Handle::local_state`].
    pub fn local_state(&self) -> Option<&S::State> {
        self.replay.parked.as_ref().map(|p| &p.state)
    }

    /// The shared object this handle operates on.
    pub fn object(&self) -> &Arc<Universal<S, F>> {
        &self.obj
    }
}

impl<S, F> fmt::Debug for OwnedHandle<S, F>
where
    S: SequentialSpec,
    F: ConsensusFactory<LogRecordOf<S>>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OwnedHandle")
            .field("pid", &self.replay.pid)
            .field("replayed_cells", &self.replay.cell_index)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{AsymmetricFactory, CasFactory};
    use crate::seq::{Counter, CounterOp, KvOp, KvStore, Queue, QueueOp};
    use apc_core::consensus::CasConsensus;
    use apc_core::liveness::Liveness;
    use std::sync::Mutex;

    fn wait_free_counter(n: usize) -> Universal<Counter, CasFactory> {
        Universal::new(Counter, CasFactory::new(Liveness::new_first_n(n, n)), n)
    }

    #[test]
    fn sequential_counter() {
        let obj = wait_free_counter(2);
        let mut h = obj.handle(0).unwrap();
        assert_eq!(h.apply(CounterOp::Add(5)), 5);
        assert_eq!(h.apply(CounterOp::Add(5)), 10);
        assert_eq!(h.apply(CounterOp::Get), 10);
        assert_eq!(h.replayed_cells(), 3);
    }

    #[test]
    fn two_handles_see_each_other() {
        let obj = wait_free_counter(2);
        let mut h0 = obj.handle(0).unwrap();
        let mut h1 = obj.handle(1).unwrap();
        h0.apply(CounterOp::Add(1));
        h1.apply(CounterOp::Add(2));
        assert_eq!(h0.apply(CounterOp::Get), 3);
    }

    #[test]
    fn one_handle_per_pid() {
        let obj = wait_free_counter(2);
        let _h = obj.handle(0).unwrap();
        assert_eq!(obj.handle(0).unwrap_err(), UniversalError::HandleTaken { pid: 0 });
        assert_eq!(obj.handle(9).unwrap_err(), UniversalError::NotAPort { pid: 9 });
    }

    #[test]
    fn concurrent_counter_total_is_exact() {
        // n−1 workers increment concurrently; a late reader must observe the
        // exact total (no lost updates).
        let n = 6;
        let per_thread = 50;
        let obj = wait_free_counter(n);
        std::thread::scope(|s| {
            for pid in 0..n - 1 {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.handle(pid).unwrap();
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
        });
        let mut late = obj.handle(n - 1).unwrap();
        assert_eq!(late.apply(CounterOp::Get), ((n - 1) * per_thread) as u64);
    }

    #[test]
    fn queue_is_fifo_under_concurrency() {
        // Concurrent enqueues then a drain: the drain must see every element
        // exactly once, and per-producer subsequences must stay ordered.
        let n = 4;
        let per_thread = 25u64;
        let obj = Universal::new(Queue, CasFactory::new(Liveness::new_first_n(n, n)), n);
        std::thread::scope(|s| {
            for pid in 0..n - 1 {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.handle(pid).unwrap();
                    for i in 0..per_thread {
                        h.apply(QueueOp::Enqueue(pid as u64 * 1000 + i));
                    }
                });
            }
        });
        let mut consumer = obj.handle(n - 1).unwrap();
        let mut seen: Vec<u64> = Vec::new();
        while let Some(v) = consumer.apply(QueueOp::Dequeue) {
            seen.push(v);
        }
        assert_eq!(seen.len(), (n - 1) * per_thread as usize);
        // Per-producer order is preserved.
        for pid in 0..(n - 1) as u64 {
            let mine: Vec<u64> = seen.iter().copied().filter(|v| v / 1000 == pid).collect();
            let mut sorted = mine.clone();
            sorted.sort_unstable();
            assert_eq!(mine, sorted, "producer {pid} order violated");
        }
    }

    #[test]
    fn kv_store_linearizes_puts() {
        let n = 4;
        let obj = Universal::new(KvStore, CasFactory::new(Liveness::new_first_n(n, n)), n);
        std::thread::scope(|s| {
            for pid in 0..n - 1 {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.handle(pid).unwrap();
                    h.apply(KvOp::Put(format!("k{pid}"), pid as u64));
                });
            }
        });
        let mut reader = obj.handle(n - 1).unwrap();
        for pid in 0..n - 1 {
            assert_eq!(reader.apply(KvOp::Get(format!("k{pid}"))), Some(pid as u64));
        }
        assert_eq!(reader.apply(KvOp::Get("missing".into())), None);
    }

    #[test]
    fn asymmetric_factory_wait_free_members_progress_under_contention() {
        // (4,1)-live cells: pid 0 is wait-free. Guests hammer the object
        // while pid 0 performs operations; pid 0 must complete all of them.
        let n = 4;
        let obj = Universal::new(Counter, AsymmetricFactory::new(Liveness::new_first_n(n, 1)), n);
        let done = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for pid in 1..n {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.handle(pid).unwrap();
                    for _ in 0..20 {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            let obj = &obj;
            let done = &done;
            s.spawn(move || {
                let mut h = obj.handle(0).unwrap();
                for _ in 0..20 {
                    let v = h.apply(CounterOp::Add(1));
                    done.lock().unwrap().push(v);
                }
            });
        });
        let done = done.into_inner().unwrap();
        assert_eq!(done.len(), 20, "the wait-free member completed every operation");
        // Counter responses are strictly increasing (linearizable Adds).
        for w in done.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn owned_handles_interoperate_with_borrowed_ones() {
        let obj = Arc::new(wait_free_counter(3));
        let mut owned = obj.owned_handle(0).unwrap();
        let mut borrowed = obj.handle(1).unwrap();
        assert_eq!(obj.owned_handle(0).unwrap_err(), UniversalError::HandleTaken { pid: 0 });
        owned.apply(CounterOp::Add(4));
        borrowed.apply(CounterOp::Add(5));
        assert_eq!(owned.apply(CounterOp::Get), 9);
        assert_eq!(owned.pid(), 0);
        assert!(owned.replayed_cells() >= 2);
        assert_eq!(owned.object().n(), 3);
        // The owned handle keeps the object alive on its own.
        let mut survivor = obj.owned_handle(2).unwrap();
        drop(borrowed);
        drop(obj);
        assert_eq!(survivor.apply(CounterOp::Get), 9);
    }

    #[test]
    fn local_state_reflects_replay() {
        let obj = wait_free_counter(2);
        let mut h = obj.handle(0).unwrap();
        h.apply(CounterOp::Add(7));
        assert_eq!(h.local_state(), Some(&7));
    }

    #[test]
    fn checkpoint_seals_state_and_ops_continue() {
        let obj = wait_free_counter(2);
        let mut h = obj.handle(0).unwrap();
        h.apply(CounterOp::Add(3));
        h.apply(CounterOp::Add(4));
        let index = h.checkpoint();
        assert_eq!(index, 2, "two op cells precede the checkpoint cell");
        assert_eq!(obj.anchor_index(), 3, "anchor points past the checkpoint cell");
        // Operations after the checkpoint see the sealed state.
        assert_eq!(h.apply(CounterOp::Add(1)), 8);
        let mut h1 = obj.handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), 8);
    }

    #[test]
    fn fresh_handle_after_checkpoint_replays_o_delta() {
        let n = 3;
        let history = 200u64;
        let obj = wait_free_counter(n);
        let mut h0 = obj.handle(0).unwrap();
        for _ in 0..history {
            h0.apply(CounterOp::Add(1));
        }
        h0.checkpoint();
        // A few post-checkpoint ops: the delta.
        let delta = 5u64;
        for _ in 0..delta {
            h0.apply(CounterOp::Add(1));
        }
        // The fresh handle must bootstrap from the checkpoint, not replay
        // the whole history.
        let mut h1 = obj.handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), history + delta);
        assert!(
            h1.replay_steps() <= delta + 2,
            "fresh handle replayed {} cells for a delta of {}",
            h1.replay_steps(),
            delta
        );
        // But its absolute position covers the whole log.
        assert_eq!(h1.replayed_cells(), history + delta + 2);
    }

    #[test]
    fn replay_steps_meter_counts_own_work() {
        let obj = wait_free_counter(2);
        let mut h = obj.handle(0).unwrap();
        assert_eq!(h.replay_steps(), 0);
        h.apply(CounterOp::Add(1));
        h.apply(CounterOp::Add(1));
        assert_eq!(h.replay_steps(), 2);
    }

    #[test]
    fn checkpoint_races_with_concurrent_ops_keep_totals_exact() {
        // Workers hammer the counter while one port checkpoints repeatedly:
        // no committed Add may be dropped or double-applied, and a late
        // reader (which bootstraps from whatever anchor the race produced)
        // must observe the exact total.
        let n = 5;
        let workers = 3u64;
        let per_thread = 60u64;
        let obj = wait_free_counter(n);
        std::thread::scope(|s| {
            for pid in 0..workers as usize {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.handle(pid).unwrap();
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            let obj = &obj;
            s.spawn(move || {
                let mut h = obj.handle(3).unwrap();
                for _ in 0..10 {
                    h.checkpoint();
                }
            });
        });
        assert!(obj.anchor_index() > 0, "at least one checkpoint installed");
        let mut reader = obj.handle(4).unwrap();
        assert_eq!(reader.apply(CounterOp::Get), workers * per_thread);
    }

    #[test]
    fn checkpoints_may_be_taken_by_any_port_and_stack() {
        let obj = wait_free_counter(3);
        let mut h0 = obj.handle(0).unwrap();
        let mut h1 = obj.handle(1).unwrap();
        h0.apply(CounterOp::Add(2));
        let first = h0.checkpoint();
        h1.apply(CounterOp::Add(5));
        let second = h1.checkpoint();
        assert!(second > first, "later checkpoint seals a longer prefix");
        assert_eq!(obj.anchor_index(), second + 1);
        let mut h2 = obj.handle(2).unwrap();
        assert_eq!(h2.apply(CounterOp::Get), 7);
        assert!(h2.replay_steps() <= 2, "bootstrapped from the latest anchor");
    }

    #[test]
    fn reconfigure_applies_and_seals_in_one_cell() {
        let obj = wait_free_counter(3);
        let mut h = obj.handle(0).unwrap();
        h.apply(CounterOp::Add(3));
        h.apply(CounterOp::Add(4));
        let (index, resp) = h.reconfigure(CounterOp::Add(10));
        assert_eq!(index, 2, "two op cells precede the reconfig cell");
        assert_eq!(resp, 17, "the op observed everything committed before the bump");
        assert_eq!(obj.anchor_index(), 3, "anchor points past the reconfig cell");
        // Fresh handles bootstrap from the sealed post-reconfig state.
        let mut h1 = obj.handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), 17);
        assert!(h1.replay_steps() <= 1, "the reconfig cell doubles as a checkpoint");
    }

    #[test]
    fn reconfigure_races_with_concurrent_ops_keep_totals_exact() {
        // Workers hammer the counter while one port installs reconfig bumps
        // (each adding a marker amount): no committed Add may be dropped or
        // double-applied, and the bump responses are exact prefix sums.
        let n = 5;
        let workers = 3u64;
        let per_thread = 40u64;
        let bumps = 4u64;
        let obj = wait_free_counter(n);
        std::thread::scope(|s| {
            for pid in 0..workers as usize {
                let obj = &obj;
                s.spawn(move || {
                    let mut h = obj.handle(pid).unwrap();
                    for _ in 0..per_thread {
                        h.apply(CounterOp::Add(1));
                    }
                });
            }
            let obj = &obj;
            s.spawn(move || {
                let mut h = obj.handle(3).unwrap();
                let mut last = 0;
                for _ in 0..bumps {
                    let (_, total) = h.reconfigure(CounterOp::Add(1_000));
                    assert!(total > last, "bump responses are strictly increasing");
                    last = total;
                }
            });
        });
        assert!(obj.anchor_index() > 0, "at least one reconfig anchor installed");
        let mut reader = obj.handle(4).unwrap();
        assert_eq!(reader.apply(CounterOp::Get), workers * per_thread + bumps * 1_000);
    }

    #[test]
    fn checkpoint_after_reconfig_reseals_cleanly() {
        let obj = wait_free_counter(2);
        let mut h = obj.handle(0).unwrap();
        h.apply(CounterOp::Add(1));
        let (bump_index, _) = h.reconfigure(CounterOp::Add(2));
        let ck_index = h.checkpoint();
        assert!(ck_index > bump_index);
        assert_eq!(obj.anchor_index(), ck_index + 1);
        let mut h1 = obj.handle(1).unwrap();
        assert_eq!(h1.apply(CounterOp::Get), 3);
    }

    #[test]
    fn recovered_object_starts_at_the_given_index_and_state() {
        let obj: Universal<Counter, CasFactory> =
            Universal::recovered(Counter, CasFactory::new(Liveness::new_first_n(2, 2)), 2, 41, 100);
        assert_eq!(obj.anchor_index(), 100);
        let mut h = obj.handle(0).unwrap();
        assert_eq!(h.replayed_cells(), 100, "cursor starts at the recovery index");
        assert_eq!(h.apply(CounterOp::Add(1)), 42, "recovered state is live");
        assert_eq!(h.replay_steps(), 1, "no pre-recovery replay work");
    }

    #[test]
    fn long_compacted_log_drops_without_stack_overflow() {
        // Build a long log, checkpoint it, drop every strong reference to
        // the prefix: the iterative CellNode drop must unwind it safely.
        let n = 2;
        let obj = wait_free_counter(n);
        let mut h = obj.handle(0).unwrap();
        for _ in 0..50_000 {
            h.apply(CounterOp::Add(1));
        }
        h.checkpoint();
        drop(h);
        drop(obj);
    }

    fn parked_cell<S: SequentialSpec, F: ConsensusFactory<LogRecordOf<S>>>(
        handle: &Handle<'_, S, F>,
    ) -> Weak<CellNode<F::Object>> {
        handle.replay.parked.as_ref().expect("the handle ran").cell.clone()
    }

    #[test]
    fn fresh_handles_hold_no_state() {
        let obj = wait_free_counter(2);
        let h = obj.handle(0).unwrap();
        assert_eq!(h.local_state(), None, "no replica before the first call");
        assert_eq!(h.replayed_cells(), 0);
    }

    #[test]
    fn parked_port_rebootstraps_once_checkpoints_free_its_cell() {
        let obj = wait_free_counter(3);
        let mut idle = obj.handle(0).unwrap();
        let mut busy = obj.handle(1).unwrap();
        let mut oracle = 5;
        assert_eq!(idle.apply(CounterOp::Add(5)), oracle);
        let parked = parked_cell(&idle);
        for _ in 0..3 {
            for _ in 0..10 {
                oracle += 1;
                assert_eq!(busy.apply(CounterOp::Add(1)), oracle);
            }
            busy.checkpoint();
        }
        assert!(parked.upgrade().is_none(), "the sealer freed the old window");
        assert!(obj.live_cells() <= 2 * 11 + 2, "two windows live: {}", obj.live_cells());
        let steps = idle.replay_steps();
        oracle += 2;
        assert_eq!(idle.apply(CounterOp::Add(2)), oracle, "exact after re-bootstrapping");
        assert_eq!(idle.replay_steps() - steps, 1, "bootstrapped at the anchor, no replay");
        assert_eq!(idle.local_state(), Some(&oracle));
        oracle += 1;
        assert_eq!(busy.apply(CounterOp::Add(1)), oracle, "the other port sees it");
    }

    #[test]
    fn port_parked_within_a_window_resumes_by_replay() {
        let obj = wait_free_counter(2);
        let mut idle = obj.handle(0).unwrap();
        let mut busy = obj.handle(1).unwrap();
        idle.apply(CounterOp::Add(1));
        busy.apply(CounterOp::Add(1));
        busy.checkpoint();
        busy.apply(CounterOp::Add(1));
        let steps = idle.replay_steps();
        assert_eq!(idle.apply(CounterOp::Get), 3);
        assert_eq!(idle.replay_steps() - steps, 4, "replayed the three cells it missed");
    }

    type Hook = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

    /// A CAS factory whose cells run a one-shot hook inside the first
    /// proposal by `pid` after the hook is armed: a deterministic way to
    /// run another port between an announcement and its placement.
    struct HookFactory {
        liveness: Liveness,
        pid: usize,
        hook: Hook,
    }

    struct HookCell<T> {
        inner: CasConsensus<T>,
        pid: usize,
        hook: Hook,
    }

    impl<T: Clone + Send + Sync> Consensus<T> for HookCell<T> {
        fn propose(&self, pid: usize, value: T) -> Result<T, ConsensusError> {
            if pid == self.pid {
                let hook = self.hook.lock().unwrap().take();
                if let Some(hook) = hook {
                    hook();
                }
            }
            self.inner.propose(pid, value)
        }

        fn decided(&self) -> Option<&T> {
            self.inner.decided()
        }
    }

    impl<T: Clone + Send + Sync> ConsensusFactory<T> for HookFactory {
        type Object = HookCell<T>;

        fn create(&self) -> HookCell<T> {
            HookCell {
                inner: CasConsensus::new(self.liveness),
                pid: self.pid,
                hook: Arc::clone(&self.hook),
            }
        }

        fn spec(&self) -> Liveness {
            self.liveness
        }
    }

    #[test]
    fn helped_op_of_a_rebootstrapped_port_returns_its_response() {
        let hook: Hook = Arc::new(Mutex::new(None));
        let liveness = Liveness::new_first_n(3, 3);
        let factory = HookFactory { liveness, pid: 0, hook: Arc::clone(&hook) };
        let obj = Arc::new(Universal::new(Counter, factory, 3));
        let mut victim = obj.owned_handle(0).unwrap();
        let mut helper = obj.owned_handle(1).unwrap();
        victim.apply(CounterOp::Add(1));
        let parked = victim.replay.parked.as_ref().unwrap().cell.clone();
        for _ in 0..3 {
            helper.apply(CounterOp::Add(100));
            helper.checkpoint();
        }
        assert!(parked.upgrade().is_none(), "the sealer freed the old window");
        let before = 301;
        // Between the victim's announcement and its first proposal, the
        // helper places the victim's op (the helping rule) and then seals
        // three anchors past it.
        let anchors_before = obj.anchor_index();
        *hook.lock().unwrap() = Some(Box::new(move || {
            for _ in 0..4 {
                helper.apply(CounterOp::Add(100));
            }
            for _ in 0..3 {
                helper.checkpoint();
            }
        }));
        let resp = victim.apply(CounterOp::Add(7));
        assert!(hook.lock().unwrap().is_none(), "the hook ran");
        assert!(obj.anchor_index() > anchors_before);
        assert!(
            victim.replayed_cells() < obj.anchor_index(),
            "the op was placed by the helper, before its anchors"
        );
        assert_eq!((resp - before - 7) % 100, 0, "a response at the op's own position: {resp}");
        assert_eq!(victim.apply(CounterOp::Get), before + 400 + 7);
    }

    #[test]
    fn asymmetric_checkpoint_respects_helping() {
        // A guest checkpoints while the VIP operates: the VIP's operations
        // all complete (the checkpointer helps pending announcements).
        let n = 3;
        let obj = Universal::new(Counter, AsymmetricFactory::new(Liveness::new_first_n(n, 1)), n);
        std::thread::scope(|s| {
            let obj = &obj;
            s.spawn(move || {
                let mut vip = obj.handle(0).unwrap();
                for _ in 0..30 {
                    vip.apply(CounterOp::Add(1));
                }
            });
            s.spawn(move || {
                let mut g = obj.handle(1).unwrap();
                for _ in 0..5 {
                    g.checkpoint();
                }
            });
        });
        let mut reader = obj.handle(2).unwrap();
        assert_eq!(reader.apply(CounterOp::Get), 30);
    }
}
