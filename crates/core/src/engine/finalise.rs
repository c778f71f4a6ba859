//! The success epilogue: the app has left the home device. Removes the
//! home-side app (record log leaves with it, services drop its state via
//! Binder death notifications) and accounts the completion metrics.
//!
//! Runs exactly once, after the migration span has settled — it is not an
//! attempt stage, has no span of its own, and cannot be retried or rolled
//! back.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::migration::MigrationStage;
use flux_simcore::SimDuration;
use flux_telemetry::{stage_metric_name, LaneId, TraceKind};

/// The finalise stage (home-side removal + completion accounting).
pub struct Finalise;

impl Stage for Finalise {
    fn name(&self) -> &'static str {
        "finalise"
    }

    fn run_slice(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        let package = cx.mig.package.as_str();
        {
            let now = cx.world.clock.now();
            let dev = cx.world.device_mut(cx.mig.home)?;
            if let Some(app) = dev.apps.remove(package) {
                let uid = app.uid;
                let _ = dev.kernel.kill(app.main_pid);
                // The record log leaves with the app (it was cloned into the
                // image at checkpoint and replayed on the guest).
                let _ = dev.records.take(uid);
                // Binder death notifications: services drop the app's state
                // (wakelocks released, alarms cancelled, notifications gone).
                let kernel = &mut dev.kernel;
                dev.host.notify_uid_death(kernel, now, uid);
            }
        }

        let ledger = cx.prog.ledger();
        let stages = cx.prog.times;
        cx.world
            .telemetry
            .counter_add("flux.migration.completed", 1);
        // Metric names derive from the declared stage names, so the
        // exported histogram keys and the engine's stage list cannot drift
        // apart.
        for stage in MigrationStage::ALL {
            cx.world.telemetry.observe(
                &stage_metric_name(stage.name()),
                stages.of(stage).as_millis(),
            );
        }
        // Conditional so the serial path's telemetry snapshot stays byte-
        // identical: `observe` creates the metric key even at zero.
        if stages.precopy > SimDuration::ZERO {
            cx.world
                .telemetry
                .observe(&stage_metric_name("precopy"), stages.precopy.as_millis());
        }
        if stages.overlap_saved > SimDuration::ZERO {
            cx.world.telemetry.observe(
                "flux.migration.overlap_saved_ms",
                stages.overlap_saved.as_millis(),
            );
        }
        cx.world.telemetry.instant(
            LaneId::WORLD,
            TraceKind::Generic,
            "migration.complete",
            cx.world.clock.now(),
            format!(
                "{package}: {} -> {} in {} ({} over the air)",
                cx.mig.home_name,
                cx.mig.guest_name,
                stages.total(),
                ledger.total()
            ),
        );
        Ok(Yield::Done)
    }
}
