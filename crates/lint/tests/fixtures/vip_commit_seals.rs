//! Fixture: a **VIP commit that seals a checkpoint** — the cadence bug the
//! store once had. A `#[progress(bounded_wait_free)]` VIP commit shares its
//! body with the guest tier, and that body, on crossing the checkpoint
//! cadence, try-locks the seal port and places a checkpoint. The try-lock
//! never blocks, but the placement is only lock-free: under a guest storm
//! every attempt can lose its cell, so the VIP's step count is unbounded.
//!
//! Never compiled — consumed by `tests/fixtures.rs` through
//! [`apc_lint::analyze_files`]. Expected findings: exactly one `progress`
//! violation (`commit_vip → commit_on → checkpoint [lock_free]`).

use std::sync::Mutex;

pub struct Port;

impl Port {
    #[apc_progress_macros::progress(bounded_wait_free)]
    pub fn apply(&mut self, op: u64) -> u64 {
        op
    }

    #[apc_progress_macros::progress(lock_free)]
    pub fn checkpoint(&mut self) -> u64 {
        0
    }
}

pub struct Shard {
    ports: Vec<Mutex<Port>>,
    commits: u64,
}

impl Shard {
    #[apc_progress_macros::progress(bounded_wait_free)]
    pub fn commit_vip(&mut self, port: usize, op: u64) -> u64 {
        self.commit_on(port, op)
    }

    fn commit_on(&mut self, port: usize, op: u64) -> u64 {
        let resp = self.ports[port].get_mut().map(|p| p.apply(op)).unwrap_or(0);
        self.commits += 1;
        if self.commits % 256 == 0 {
            if let Ok(mut sealer) = self.ports[self.ports.len() - 1].try_lock() {
                sealer.checkpoint();
            }
        }
        resp
    }
}
