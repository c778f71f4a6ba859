//! Mid-stage interrupt delivery: the engine-side owner of the lifecycle
//! events a [`MigrationSpec`](crate::MigrationSpec) schedules against
//! in-flight stages.
//!
//! Interrupt specs are *stage-anchored* (`At(stage, offset)`): an offset
//! means nothing until the anchor stage first runs, at which point the
//! driver arms the spec on a [`Timeline`] at an absolute virtual time.
//! Armed interrupts are then delivered by the driver at slice boundaries
//! — around every [`Stage::run_slice`](super::Stage::run_slice) call —
//! as the clock crosses them, wherever in the pipeline that happens to
//! be. The timeline orders simultaneous deliveries by arming sequence,
//! so a run is byte-identical however the specs were listed.

use crate::migration::{InterruptRecord, MigrationStage, StageInterrupt};
use flux_appfw::LifecycleEvent;
use flux_simcore::{SimTime, Timeline};

/// The driver's interrupt state for one migration: specs not yet armed
/// (their anchor stage has not run), armed deliveries on the timeline,
/// and the record of what was actually delivered.
pub(crate) struct InterruptSource {
    pending: Vec<StageInterrupt>,
    armed: Timeline<StageInterrupt>,
    seq: u64,
    delivered: Vec<InterruptRecord>,
}

impl InterruptSource {
    /// A source holding `specs`, none armed yet.
    pub(crate) fn new(specs: &[StageInterrupt]) -> Self {
        Self {
            pending: specs.to_vec(),
            armed: Timeline::new(),
            seq: 0,
            delivered: Vec::new(),
        }
    }

    /// Arms every pending spec anchored to `anchor` at `now + offset`.
    /// Called when the anchor stage first enters; a retry re-entering the
    /// stage finds nothing left to arm, so specs fire exactly once.
    pub(crate) fn arm(&mut self, anchor: MigrationStage, now: SimTime) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].stage == anchor {
                let spec = self.pending.remove(i);
                self.armed.schedule(now + spec.offset, self.seq, spec);
                self.seq += 1;
            } else {
                i += 1;
            }
        }
    }

    /// The earliest armed interrupt, if it falls strictly inside
    /// `[_, horizon)` — the question a stage asks before charging an
    /// indivisible window it would otherwise have to cut.
    pub(crate) fn next_before(&self, horizon: SimTime) -> Option<SimTime> {
        self.armed.next_before(horizon)
    }

    /// Removes and returns the earliest armed interrupt due at or before
    /// `now`.
    pub(crate) fn pop_due(&mut self, now: SimTime) -> Option<StageInterrupt> {
        self.armed.pop_due(now).map(|(_, _, spec)| spec)
    }

    /// Records a delivery for the migration report.
    pub(crate) fn record(&mut self, stage: MigrationStage, at: SimTime, event: LifecycleEvent) {
        self.delivered.push(InterruptRecord { stage, at, event });
    }

    /// Takes the delivery record (for [`MigrationReport::interrupts`]
    /// (crate::MigrationReport::interrupts)).
    pub(crate) fn take_delivered(&mut self) -> Vec<InterruptRecord> {
        std::mem::take(&mut self.delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_simcore::SimDuration;

    fn spec(stage: MigrationStage, offset_ms: u64) -> StageInterrupt {
        StageInterrupt::at(
            stage,
            SimDuration::from_millis(offset_ms),
            LifecycleEvent::Kill,
        )
    }

    #[test]
    fn arming_is_per_anchor_and_single_shot() {
        let mut src = InterruptSource::new(&[
            spec(MigrationStage::Transfer, 100),
            spec(MigrationStage::Preparation, 5),
        ]);
        src.arm(MigrationStage::Preparation, SimTime::from_secs(1));
        // Armed at anchor entry plus offset: not due a nanosecond early.
        let due = SimTime::from_nanos(1_005_000_000);
        assert!(src.pop_due(SimTime::from_nanos(1_004_999_999)).is_none());
        let int = src.pop_due(due).expect("due at entry + offset");
        assert_eq!(int.stage, MigrationStage::Preparation);
        // The transfer-anchored spec stays pending until its stage runs.
        assert!(src.pop_due(SimTime::from_secs(10)).is_none());
        src.arm(MigrationStage::Transfer, SimTime::from_secs(2));
        assert!(src.pop_due(SimTime::from_secs(3)).is_some());
        // Re-entering an anchor (a retried stage) arms nothing twice.
        src.arm(MigrationStage::Transfer, SimTime::from_secs(4));
        assert!(src.pop_due(SimTime::from_nanos(u64::MAX)).is_none());
    }

    #[test]
    fn simultaneous_deliveries_keep_arming_order() {
        let mut src = InterruptSource::new(&[
            spec(MigrationStage::Checkpoint, 7),
            spec(MigrationStage::Checkpoint, 7),
        ]);
        src.arm(MigrationStage::Checkpoint, SimTime::ZERO);
        let due = SimTime::ZERO + SimDuration::from_millis(7);
        assert_eq!(src.next_before(due), None, "strictly-before horizon");
        assert!(src.next_before(due + SimDuration::from_nanos(1)).is_some());
        assert!(src.pop_due(due).is_some());
        assert!(src.pop_due(due).is_some(), "same instant, distinct keys");
        assert!(src.pop_due(due).is_none());
    }
}
