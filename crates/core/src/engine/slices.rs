//! The engine's slice vocabulary: the stage-level [`Slice`] schedule an
//! executed migration is cut into, the log the driver appends it to as
//! it advances the clock, and the [`SliceCursor`] the fleet scheduler
//! walks to re-time those slices on its timeline.
//!
//! The driver brackets every stage (and the backoff and rollback between
//! them) and the transfer-bearing stages log each radio window as they
//! key the radio, so a run returns its schedule directly: consecutive
//! slices start where the previous one ended, and together they tile the
//! run's wall time by construction.

use super::failure::StageFailure;
use flux_simcore::{ByteSize, SimDuration, SimTime};

/// What one schedulable stretch of an executed migration occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SliceKind {
    /// Device-local work: holds the migration's devices, not the air.
    Cpu,
    /// A radio payload: `bytes` the serial transfer model priced at the
    /// slice's duration of air time. The scheduler admits it onto the
    /// medium, where contention may stretch it.
    Transfer {
        /// Payload bytes delivered in this window.
        bytes: ByteSize,
    },
}

/// One stage-level stretch of an executed migration — the unit the fleet
/// scheduler re-times. Consecutive slices run back to back; `Transfer`
/// slices contend for the air individually (a pre-copy round and another
/// request's freeze-phase residue genuinely interleave on the medium).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// The engine stage the stretch belongs to (`Stage::name`, or a
    /// driver label like `"backoff"`/`"rollback"`; `""` between stages).
    pub stage: &'static str,
    /// What the stretch occupies.
    pub kind: SliceKind,
    /// Isolated duration (for `Transfer` slices, the serial air time —
    /// medium contention not yet applied).
    pub dur: SimDuration,
}

/// The schedule a run appends to as it advances the clock: a cursor (how
/// far the schedule reaches), the stage that owns the clock there, and
/// the slices cut so far.
///
/// CPU time is cut only at stage and radio boundaries — never inside a
/// stage — so a resumable stage's internal yields do not split its
/// device-local work. Zero-length stretches are dropped.
#[derive(Debug, Default)]
pub(crate) struct SliceLog {
    cursor: SimTime,
    stage: &'static str,
    slices: Vec<Slice>,
}

impl SliceLog {
    /// An empty log whose schedule opens at `start`.
    pub(crate) fn new(start: SimTime) -> Self {
        Self {
            cursor: start,
            ..Self::default()
        }
    }

    /// Closes the stretch up to `now` and hands the clock to `stage`.
    pub(crate) fn enter(&mut self, stage: &'static str, now: SimTime) {
        self.cut(now);
        self.stage = stage;
    }

    /// Closes the current stage's stretch at `now`; time up to the next
    /// [`enter`](Self::enter) is unlabelled (`""`).
    pub(crate) fn exit(&mut self, now: SimTime) {
        self.enter("", now);
    }

    /// Logs a radio window of `dur` from `from` that delivered `bytes`,
    /// closing the current stage's CPU stretch at `from`. A window that
    /// delivered nothing (a handshake drop) held the devices but put no
    /// payload on the air, so it is logged as CPU time.
    ///
    /// # Errors
    ///
    /// [`StageFailure::Internal`] if the window starts before the end of
    /// the schedule so far: the engine keyed the radio in the past.
    pub(crate) fn radio(
        &mut self,
        from: SimTime,
        dur: SimDuration,
        bytes: ByteSize,
    ) -> Result<(), StageFailure> {
        if from < self.cursor {
            return Err(StageFailure::Internal(format!(
                "{} radio window at {from} starts before the slice log's cursor at {}",
                self.stage, self.cursor
            )));
        }
        self.cut(from);
        let kind = if bytes.as_u64() > 0 {
            SliceKind::Transfer { bytes }
        } else {
            SliceKind::Cpu
        };
        self.push(kind, from + dur);
        Ok(())
    }

    /// Closes the schedule at `now` and returns it.
    pub(crate) fn finish(mut self, now: SimTime) -> Vec<Slice> {
        self.cut(now);
        self.slices
    }

    fn cut(&mut self, to: SimTime) {
        self.push(SliceKind::Cpu, to);
    }

    fn push(&mut self, kind: SliceKind, to: SimTime) {
        if to > self.cursor {
            self.slices.push(Slice {
                stage: self.stage,
                kind,
                dur: to.since(self.cursor),
            });
            self.cursor = to;
        }
    }
}

/// What the fleet scheduler should do for the cursor's current position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArmAction {
    /// Hold the migration's devices for `dur`, then step the cursor.
    Cpu {
        /// Isolated duration of the slice.
        dur: SimDuration,
    },
    /// Admit `bytes` onto the medium, priced at an isolated air time of
    /// `dur` (contention may stretch it).
    Transfer {
        /// Payload bytes of the slice.
        bytes: ByteSize,
        /// Isolated air time of the slice.
        dur: SimDuration,
    },
    /// The schedule has drained; the flight is done.
    Drained,
}

/// A cursor over an executed migration's [`Slice`] schedule.
///
/// The scheduler re-times slices one at a time on the fleet timeline;
/// the cursor owns the walk — zero-duration skips, the position, and the
/// first/last-transfer bracket (`transfer_start`/`transfer_end`, the
/// flight record's transfer phase) — so `fleet.rs::step_flight` carries
/// no slice bookkeeping of its own.
#[derive(Debug)]
pub struct SliceCursor {
    slices: Vec<Slice>,
    pos: usize,
    first_transfer: Option<usize>,
    last_transfer: Option<usize>,
    transfer_start: Option<SimTime>,
    transfer_end: Option<SimTime>,
}

impl SliceCursor {
    /// A cursor at the start of `slices`.
    pub fn new(slices: Vec<Slice>) -> Self {
        let first_transfer = slices.iter().position(|s| s.stage == "transfer");
        let last_transfer = slices.iter().rposition(|s| s.stage == "transfer");
        Self {
            slices,
            pos: 0,
            first_transfer,
            last_transfer,
            transfer_start: None,
            transfer_end: None,
        }
    }

    /// Advances past zero-duration slices (marking the transfer bracket
    /// at `now` as it crosses it) and reports what to arm for the first
    /// armable slice — or [`ArmAction::Drained`] when none remains.
    pub fn arm(&mut self, now: SimTime) -> ArmAction {
        while let Some(slice) = self.slices.get(self.pos) {
            if self.first_transfer == Some(self.pos) && self.transfer_start.is_none() {
                self.transfer_start = Some(now);
            }
            if slice.dur == SimDuration::ZERO {
                if self.last_transfer == Some(self.pos) {
                    self.transfer_end = Some(now);
                }
                self.pos += 1;
                continue;
            }
            return match slice.kind {
                SliceKind::Cpu => ArmAction::Cpu { dur: slice.dur },
                SliceKind::Transfer { bytes } => ArmAction::Transfer {
                    bytes,
                    dur: slice.dur,
                },
            };
        }
        ArmAction::Drained
    }

    /// Steps past the just-completed slice, marking the transfer bracket.
    /// Returns `false` when the cursor had already drained — the flight
    /// is finished.
    pub fn step(&mut self, now: SimTime) -> bool {
        if self.pos >= self.slices.len() {
            return false;
        }
        if self.last_transfer == Some(self.pos) {
            self.transfer_end = Some(now);
        }
        self.pos += 1;
        true
    }

    /// When the first transfer-stage slice was armed, if it has been.
    pub fn transfer_start(&self) -> Option<SimTime> {
        self.transfer_start
    }

    /// When the last transfer-stage slice completed, if it has.
    pub fn transfer_end(&self) -> Option<SimTime> {
        self.transfer_end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn shape(slices: &[Slice]) -> Vec<(&'static str, bool, u64)> {
        slices
            .iter()
            .map(|s| {
                (
                    s.stage,
                    matches!(s.kind, SliceKind::Transfer { .. }),
                    s.dur.as_nanos() / 1_000_000_000,
                )
            })
            .collect()
    }

    fn secs(n: u64) -> SimDuration {
        SimDuration::from_secs(n)
    }

    #[test]
    fn schedule_tiles_the_wall_and_labels_stages() {
        // precopy [0,4) with a radio round [1,3); a bare gap [4,5);
        // transfer [5,9) with its verify head [5,6) and radio [6,9).
        let mut log = SliceLog::new(t(0));
        log.enter("precopy", t(0));
        log.radio(t(1), secs(2), ByteSize::from_mib(8)).unwrap();
        log.exit(t(4));
        log.enter("transfer", t(5));
        log.radio(t(6), secs(3), ByteSize::from_mib(64)).unwrap();
        log.exit(t(9));
        let slices = log.finish(t(9));
        assert_eq!(
            shape(&slices),
            vec![
                ("precopy", false, 1),
                ("precopy", true, 2),
                ("precopy", false, 1),
                ("", false, 1),
                ("transfer", false, 1),
                ("transfer", true, 3),
            ]
        );
        let total = slices
            .iter()
            .map(|s| s.dur)
            .fold(SimDuration::ZERO, |a, d| a + d);
        assert_eq!(total, secs(9));
    }

    #[test]
    fn zero_byte_radio_windows_become_cpu_slices() {
        // A handshake drop held the devices but shipped nothing: it must
        // not become a zero-byte medium flow.
        let mut log = SliceLog::new(t(0));
        log.enter("transfer", t(0));
        log.radio(t(1), secs(1), ByteSize::ZERO).unwrap();
        log.exit(t(3));
        let slices = log.finish(t(3));
        assert_eq!(slices.len(), 3, "the dropped window is its own slice");
        assert!(slices.iter().all(|s| matches!(s.kind, SliceKind::Cpu)));
    }

    #[test]
    fn radio_window_behind_the_cursor_is_an_internal_failure() {
        let mut log = SliceLog::new(t(0));
        log.enter("transfer", t(0));
        log.radio(t(2), secs(2), ByteSize::from_mib(8)).unwrap();
        // Overlaps the window just logged: the engine keyed the radio in
        // the past, which no clamp may paper over.
        let err = log.radio(t(3), secs(1), ByteSize::from_mib(8)).unwrap_err();
        assert!(matches!(err, StageFailure::Internal(_)), "{err:?}");
        // A window before the schedule's start is the same bug.
        let mut log = SliceLog::new(t(5));
        let err = log.radio(t(4), secs(1), ByteSize::from_mib(8)).unwrap_err();
        assert!(matches!(err, StageFailure::Internal(_)), "{err:?}");
        // The failed calls logged nothing.
        assert!(log.finish(t(5)).is_empty());
    }

    #[test]
    fn empty_log_yields_one_cpu_slice_or_nothing() {
        assert_eq!(
            SliceLog::new(t(0)).finish(t(2)),
            vec![Slice {
                stage: "",
                kind: SliceKind::Cpu,
                dur: secs(2)
            }]
        );
        // Zero-width stages (a stage with nothing to do) leave no trace.
        let mut log = SliceLog::new(t(0));
        log.enter("restore", t(0));
        log.exit(t(0));
        assert!(log.finish(t(0)).is_empty());
    }

    #[test]
    fn cursor_walks_slices_and_brackets_the_transfer_phase() {
        let mib = ByteSize::from_mib(8);
        let slices = vec![
            Slice {
                stage: "preparation",
                kind: SliceKind::Cpu,
                dur: SimDuration::from_secs(1),
            },
            Slice {
                stage: "transfer",
                kind: SliceKind::Cpu,
                dur: SimDuration::ZERO,
            },
            Slice {
                stage: "transfer",
                kind: SliceKind::Transfer { bytes: mib },
                dur: SimDuration::from_secs(2),
            },
            Slice {
                stage: "restore",
                kind: SliceKind::Cpu,
                dur: SimDuration::from_secs(1),
            },
        ];
        let mut cursor = SliceCursor::new(slices);
        assert_eq!(
            cursor.arm(t(10)),
            ArmAction::Cpu {
                dur: SimDuration::from_secs(1)
            }
        );
        assert!(cursor.step(t(11)));
        // The zero-duration verify head is skipped in the same arm call
        // that admits the radio slice; the bracket opens there.
        assert_eq!(
            cursor.arm(t(11)),
            ArmAction::Transfer {
                bytes: mib,
                dur: SimDuration::from_secs(2)
            }
        );
        assert_eq!(cursor.transfer_start(), Some(t(11)));
        assert_eq!(cursor.transfer_end(), None);
        assert!(cursor.step(t(13)));
        assert_eq!(cursor.transfer_end(), Some(t(13)));
        assert_eq!(
            cursor.arm(t(13)),
            ArmAction::Cpu {
                dur: SimDuration::from_secs(1)
            }
        );
        assert!(cursor.step(t(14)));
        assert_eq!(cursor.arm(t(14)), ArmAction::Drained);
        assert!(!cursor.step(t(14)), "drained cursor reports finished");
    }

    #[test]
    fn empty_cursor_drains_immediately() {
        let mut cursor = SliceCursor::new(Vec::new());
        assert_eq!(cursor.arm(t(0)), ArmAction::Drained);
        assert!(!cursor.step(t(0)));
        assert_eq!(cursor.transfer_start(), None);
        assert_eq!(cursor.transfer_end(), None);
    }
}
