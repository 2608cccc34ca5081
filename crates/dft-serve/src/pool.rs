//! The bounded worker pool the gang scheduler carves rank groups from.
//!
//! Slots are logical ranks (each backed by an OS thread while a job runs).
//! The pool only does conservative accounting — allocation policy lives in
//! the scheduler. Capacity is not constant: a rank killed by fault
//! injection is an execution resource that no longer exists, so recovery
//! returns the *surviving* ranks and [`RankPool::burn`]s the dead ones,
//! permanently shrinking the pool instead of silently resurrecting lost
//! hardware.

/// Slot accounting for the gang scheduler. Owned by the scheduler thread.
#[derive(Clone, Copy, Debug)]
pub struct RankPool {
    total: usize,
    free: usize,
    burned: usize,
}

impl RankPool {
    /// A pool of `total` idle rank slots.
    pub fn new(total: usize) -> Self {
        Self {
            total,
            free: total,
            burned: 0,
        }
    }

    /// Current capacity (initial size minus burned ranks).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Idle slots.
    pub fn free(&self) -> usize {
        self.free
    }

    /// Ranks permanently lost to faults since start.
    pub fn burned(&self) -> usize {
        self.burned
    }

    /// Grant a gang of up to `want` ranks (at least one), or `None` when
    /// the pool is exhausted.
    pub fn alloc(&mut self, want: usize) -> Option<usize> {
        if self.free == 0 || want == 0 {
            return None;
        }
        let granted = want.min(self.free);
        self.free -= granted;
        Some(granted)
    }

    /// Return `n` surviving ranks to the pool.
    pub fn release(&mut self, n: usize) {
        self.free = (self.free + n).min(self.total);
    }

    /// Record `n` ranks as permanently dead: they were in use, and they
    /// neither return to `free` nor count toward capacity anymore.
    pub fn burn(&mut self, n: usize) {
        let n = n.min(self.total);
        self.total -= n;
        self.free = self.free.min(self.total);
        self.burned += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_burn_accounting() {
        let mut pool = RankPool::new(8);
        assert_eq!(pool.alloc(3), Some(3));
        assert_eq!(pool.alloc(100), Some(5)); // clamped to what's free
        assert_eq!(pool.alloc(1), None); // exhausted
        assert_eq!(pool.total() - pool.free(), 8);

        // a gang of 3 comes back with one rank dead
        pool.release(2);
        pool.burn(1);
        assert_eq!(pool.total(), 7);
        assert_eq!(pool.free(), 2);
        assert_eq!(pool.burned(), 1);

        pool.release(5);
        assert_eq!(pool.free(), 7);
        assert_eq!(pool.total() - pool.free(), 0);
    }
}
