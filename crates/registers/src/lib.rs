//! # `apc-registers` — lock-free atomic register substrate
//!
//! The real-thread counterpart of the paper's "atomic read/write registers":
//! linearizable multi-writer multi-reader registers for arbitrary Rust
//! values, built on `AtomicPtr` with
//! [crossbeam-epoch](https://docs.rs/crossbeam-epoch) deferred reclamation,
//! plus classic register-based constructions used as substrates by the
//! consensus algorithms:
//!
//! * [`AtomicCell`] — an MWMR atomic register over `Option<T>` (a null
//!   pointer is the paper's `⊥`), with `load`/`store`/`swap` and the
//!   decision-slot primitive `set_if_bot` (compare-and-swap from `⊥`).
//! * [`PackedRegister`] — an allocation-free register for small values
//!   (`u64` minus one sentinel), for hot paths.
//! * [`StampedCell`] — a register holding `(stamp, value)` pairs swung
//!   atomically, the building block of round-based protocols.
//! * [`snapshot::SwmrSnapshot`] — the wait-free single-writer atomic
//!   snapshot of Afek et al., with embedded scans.
//! * [`collect::StoreCollect`] — a store/collect array (regular collect),
//!   the substrate of adopt-commit.
//! * [`OnceBox`] and [`OnceArc`] — set-once slots read without an epoch
//!   guard: decision slots and the links of append-only lists.
//!
//! All `unsafe` is confined to the pointer management of [`AtomicCell`]
//! and the set-once slots; every other type builds on them or on std
//! atomics.

#![warn(missing_docs)]

mod atomic_cell;
mod once;
mod packed;
mod stamped;

pub mod collect;
pub mod snapshot;

pub use atomic_cell::AtomicCell;
pub use once::{OnceArc, OnceBox};
pub use packed::PackedRegister;
pub use stamped::{max_stamped, Stamped, StampedCell};
