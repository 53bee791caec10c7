//! Set-once slots: written at most once, then read without an epoch guard.
//!
//! A slot that is never overwritten while shared needs no deferred
//! reclamation: what it holds can only be released through `&mut self`,
//! so a reference read through `&self` stays valid for as long as that
//! borrow. Both slots below rest on this, which makes a read one `Acquire`
//! load — no guard, no clone — and lets the value live inline behind a
//! single pointer.
//!
//! * [`OnceBox`] owns its value in a box: the decision slot of a consensus
//!   object, the link of a lazily grown array.
//! * [`OnceArc`] stores an `Arc`'s own pointer, for links whose targets
//!   are also referenced from elsewhere (a log cell pinned by a cursor).

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use apc_progress_macros::progress;

/// A set-once slot holding a boxed `T`.
///
/// [`OnceBox::get_or_init`] is the wait-free decision-slot primitive:
/// exactly one writer installs its value (a CAS from `⊥`), and every
/// caller, winner or loser, returns a reference to the winner's.
///
/// # Examples
///
/// ```
/// use apc_registers::OnceBox;
///
/// let slot: OnceBox<String> = OnceBox::new();
/// assert!(slot.get().is_none());
/// assert_eq!(slot.get_or_init(|| "first".into()), "first");
/// assert_eq!(slot.get_or_init(|| "second".into()), "first", "the first writer wins");
/// ```
pub struct OnceBox<T> {
    ptr: AtomicPtr<T>,
    /// Owns the boxed value (and inherits its `Send`/`Sync`).
    _owns: PhantomData<Box<T>>,
}

impl<T> OnceBox<T> {
    /// An empty slot.
    pub const fn new() -> Self {
        OnceBox { ptr: AtomicPtr::new(ptr::null_mut()), _owns: PhantomData }
    }

    /// The value, if the slot was set.
    #[progress(wait_free)]
    pub fn get(&self) -> Option<&T> {
        let raw = self.ptr.load(Ordering::Acquire);
        // SAFETY: a non-null pointer came from `Box::into_raw` in
        // `get_or_init` and is released only through `&mut self`.
        unsafe { raw.as_ref() }
    }

    /// The value, installing `init()` first if the slot is empty. Under a
    /// race exactly one initializer wins; the losers' values are dropped.
    #[progress(wait_free)]
    pub fn get_or_init(&self, init: impl FnOnce() -> T) -> &T {
        if let Some(value) = self.get() {
            return value;
        }
        let mine = Box::into_raw(Box::new(init()));
        let stored = match self.ptr.compare_exchange(
            ptr::null_mut(),
            mine,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => mine,
            Err(winner) => {
                // SAFETY: `mine` was never published; reclaim it.
                drop(unsafe { Box::from_raw(mine) });
                winner
            }
        };
        // SAFETY: `stored` is the slot's pointer, valid as in `get`.
        unsafe { &*stored }
    }
}

impl<T> Default for OnceBox<T> {
    fn default() -> Self {
        OnceBox::new()
    }
}

impl<T> Drop for OnceBox<T> {
    fn drop(&mut self) {
        let raw = *self.ptr.get_mut();
        if !raw.is_null() {
            // SAFETY: `&mut self` excludes every reader; the slot owned the box.
            drop(unsafe { Box::from_raw(raw) });
        }
    }
}

/// A set-once slot holding an [`Arc<T>`] — the link of an append-only list
/// whose nodes are also referenced from outside the list.
///
/// It stores the `Arc`'s own pointer: no box around it. [`OnceArc::get`]
/// borrows the target for as long as the slot is borrowed, without
/// touching the reference count; [`OnceArc::load`] clones the `Arc`.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use apc_registers::OnceArc;
///
/// let slot: OnceArc<u32> = OnceArc::new();
/// assert!(slot.get().is_none());
/// assert_eq!(*slot.get_or_init(|| Arc::new(1)), 1);
/// assert_eq!(*slot.get_or_init(|| Arc::new(2)), 1, "the first writer wins");
/// assert_eq!(slot.load().as_deref(), Some(&1));
/// ```
pub struct OnceArc<T> {
    ptr: AtomicPtr<T>,
    /// Owns one strong count of the stored `Arc` (and inherits its
    /// `Send`/`Sync`).
    _owns: PhantomData<Arc<T>>,
}

impl<T> OnceArc<T> {
    /// An empty slot.
    pub const fn new() -> Self {
        OnceArc { ptr: AtomicPtr::new(ptr::null_mut()), _owns: PhantomData }
    }

    /// The target, if the slot was set.
    #[progress(wait_free)]
    pub fn get(&self) -> Option<&T> {
        let raw = self.ptr.load(Ordering::Acquire);
        // SAFETY: a non-null pointer came from `Arc::into_raw` in
        // `get_or_init`, and the slot keeps that strong count until
        // `take_mut` or drop, both of which need `&mut self`.
        unsafe { raw.as_ref() }
    }

    /// A new `Arc` to the target, if the slot was set.
    #[progress(wait_free)]
    pub fn load(&self) -> Option<Arc<T>> {
        let raw = self.ptr.load(Ordering::Acquire);
        if raw.is_null() {
            return None;
        }
        // SAFETY: `raw` is live as in `get`; the increment gives the
        // returned `Arc` a count of its own.
        unsafe {
            Arc::increment_strong_count(raw);
            Some(Arc::from_raw(raw))
        }
    }

    /// The target, installing `init()` first if the slot is empty. Under a
    /// race exactly one initializer wins; the losers' values are dropped.
    #[progress(wait_free)]
    pub fn get_or_init(&self, init: impl FnOnce() -> Arc<T>) -> &T {
        if let Some(value) = self.get() {
            return value;
        }
        let mine = Arc::into_raw(init()).cast_mut();
        let stored = match self.ptr.compare_exchange(
            ptr::null_mut(),
            mine,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => mine,
            Err(winner) => {
                // SAFETY: `mine` was never published; this reclaims the
                // count `into_raw` leaked above.
                drop(unsafe { Arc::from_raw(mine) });
                winner
            }
        };
        // SAFETY: `stored` is the slot's pointer, valid as in `get`.
        unsafe { &*stored }
    }

    /// Moves the `Arc` out, leaving the slot empty. `&mut self` excludes
    /// every reader, so no borrow of the target can be alive.
    #[progress(wait_free)]
    pub fn take_mut(&mut self) -> Option<Arc<T>> {
        let raw = std::mem::replace(self.ptr.get_mut(), ptr::null_mut());
        // SAFETY: the slot owned this strong count and has just given it up.
        (!raw.is_null()).then(|| unsafe { Arc::from_raw(raw) })
    }
}

impl<T> Default for OnceArc<T> {
    fn default() -> Self {
        OnceArc::new()
    }
}

impl<T> Drop for OnceArc<T> {
    fn drop(&mut self) {
        drop(self.take_mut());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn once_box_keeps_the_first_value_and_drops_it() {
        let tracked = Arc::new(());
        let slot = OnceBox::new();
        assert!(Arc::ptr_eq(slot.get_or_init(|| Arc::clone(&tracked)), &tracked));
        let loser = Arc::new(());
        assert!(Arc::ptr_eq(slot.get_or_init(|| Arc::clone(&loser)), &tracked));
        assert_eq!(Arc::strong_count(&loser), 1, "the losing value was dropped");
        drop(slot);
        assert_eq!(Arc::strong_count(&tracked), 1, "drop releases the value");
    }

    #[test]
    fn once_arc_first_writer_wins_and_drop_releases() {
        let first = Arc::new(5u8);
        let slot = OnceArc::new();
        slot.get_or_init(|| Arc::clone(&first));
        let loser = Arc::new(6u8);
        assert_eq!(*slot.get_or_init(|| Arc::clone(&loser)), 5);
        assert_eq!(Arc::strong_count(&loser), 1, "the losing value was dropped");
        assert_eq!(Arc::strong_count(&first), 2, "the slot holds one count");
        let loaded = slot.load().unwrap();
        assert!(Arc::ptr_eq(&loaded, &first));
        drop((slot, loaded));
        assert_eq!(Arc::strong_count(&first), 1);
    }

    #[test]
    fn take_mut_empties_the_slot() {
        let mut slot = OnceArc::new();
        slot.get_or_init(|| Arc::new(1u8));
        assert_eq!(slot.take_mut().as_deref(), Some(&1));
        assert!(slot.get().is_none());
    }

    #[test]
    fn racing_initializers_agree() {
        let slot: OnceBox<usize> = OnceBox::new();
        let seen: Vec<usize> = std::thread::scope(|s| {
            let slot = &slot;
            let racers: Vec<_> = (0..8).map(|t| s.spawn(move || *slot.get_or_init(|| t))).collect();
            racers.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "one winner: {seen:?}");
    }
}
