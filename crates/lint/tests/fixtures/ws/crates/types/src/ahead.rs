//! Seeded lock-discipline violation outside `crates/sim`: line 7 locks
//! the free list while the ready-queue guard from line 6 is still held.
//! The rule patrols every crate's library code.

pub fn recycle(ready: &Shared, free: &Shared) -> usize {
    let r = ready.slots.lock().unwrap_or_else(PoisonError::into_inner);
    let f = free.slots.lock().unwrap_or_else(PoisonError::into_inner);
    r.len() + f.len()
}
