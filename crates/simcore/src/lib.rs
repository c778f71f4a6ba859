//! Foundation types for the Flux simulation environment.
//!
//! Flux (EuroSys 2015) migrates running Android apps between heterogeneous
//! devices. This reproduction runs the entire Android substrate as a
//! deterministic discrete-time simulation; `flux-simcore` provides the
//! pieces every other crate builds on:
//!
//! * [`SimClock`] / [`SimTime`] / [`SimDuration`] — virtual time. All
//!   migration-phase costs are charged here, which makes every experiment
//!   reproducible for a fixed RNG seed.
//! * [`ByteSize`] — sizes of APKs, checkpoint images, VMAs and transfers.
//! * [`SimRng`] — a seedable RNG so workload noise is deterministic.
//! * [`CostModel`] — per-operation CPU/serialisation cost parameters used by
//!   the checkpoint, restore and replay paths.
//! * [`fault`] — seeded [`FaultPlan`] schedules of link drops, congestion
//!   spikes and kernel stalls that the transfer and migration paths consult
//!   when fault injection is enabled.
//! * [`pipeline`] — a virtual-time lane scheduler so pipelined migration can
//!   overlap compression, radio transfer and filesystem sync while staying
//!   deterministic.

pub mod cost;
pub mod fault;
pub mod ids;
pub mod pipeline;
pub mod rng;
pub mod size;
pub mod time;
pub mod wire;

pub use cost::CostModel;
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultPlan};
pub use ids::{Pid, Uid};
pub use pipeline::{FusedLanes, PipeLane, Pipeline, Timeline};
pub use rng::{SimRng, SimRngState};
pub use size::ByteSize;
pub use time::{SimClock, SimDuration, SimTime};
pub use wire::{WireError, WireReader, WireWriter};

/// A monotonically increasing id allocator.
///
/// Used for PIDs, Binder handles, node ids, alarm cookies and anything else
/// that needs small unique integers. Allocation order is deterministic.
///
/// # Examples
///
/// ```
/// let mut ids = flux_simcore::IdAlloc::starting_at(100);
/// assert_eq!(ids.next(), 100);
/// assert_eq!(ids.next(), 101);
/// ```
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct IdAlloc {
    next: u64,
}

impl IdAlloc {
    /// Creates an allocator whose first id is `first`.
    pub fn starting_at(first: u64) -> Self {
        Self { next: first }
    }

    /// Returns the next id, advancing the allocator.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    /// Returns the id that the next call to [`IdAlloc::next`] would produce.
    pub fn peek(&self) -> u64 {
        self.next
    }

    /// Advances the allocator so it will never hand out ids `<= floor`.
    ///
    /// Used when restoring checkpointed state that already contains ids, so
    /// freshly allocated ids cannot collide with restored ones.
    pub fn reserve_through(&mut self, floor: u64) {
        if self.next <= floor {
            self.next = floor + 1;
        }
    }
}

impl Default for IdAlloc {
    fn default() -> Self {
        Self::starting_at(1)
    }
}

#[cfg(test)]
mod tests {
    use super::IdAlloc;

    #[test]
    fn id_alloc_is_sequential() {
        let mut ids = IdAlloc::default();
        assert_eq!(ids.next(), 1);
        assert_eq!(ids.next(), 2);
        assert_eq!(ids.peek(), 3);
    }

    #[test]
    fn id_alloc_reserve_through_skips_used_range() {
        let mut ids = IdAlloc::default();
        ids.reserve_through(41);
        assert_eq!(ids.next(), 42);
        // Reserving a lower floor is a no-op.
        ids.reserve_through(10);
        assert_eq!(ids.next(), 43);
    }
}
