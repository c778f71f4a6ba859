//! The freeze/record phase — the stage named **preparation** in the
//! figures: backgrounding + trim-memory + `eglUnload` on the home device,
//! then the unoptimised prototype's wait for the task idler (§4).
//!
//! Its rollback is the home-side half of the transaction: resume the app
//! to the foreground with a conditional re-initialisation, charging the
//! redraw like any other foreground return.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::migration::{MigrationStage, StageTimes};
use flux_appfw::{conditional_reinit, egl_unload, handle_trim_memory, move_to_background};
use flux_simcore::{ByteSize, SimDuration};
use flux_telemetry::LaneId;

/// The preparation stage (record-log freeze on the home device).
///
/// Resumable in two slices. Slice one *quiesces*: backgrounding,
/// trim-memory, `eglUnload` and the task-idler wait. Slice two is the
/// framework's save point: buffered writes flush to the home data
/// directory, and the stage is done. The boundary between them is the
/// Riganelli window — a kill delivered there discards the buffered
/// writes and the record log before anything ships, and the engine
/// simply quiesces the cold-restarted process again.
pub struct FreezeRecord;

impl Stage for FreezeRecord {
    fn name(&self) -> &'static str {
        "preparation"
    }

    fn lane(&self, cx: &StageCtx<'_>) -> LaneId {
        cx.mig.home_lane
    }

    fn pending(&self, cx: &StageCtx<'_>) -> bool {
        !cx.prog.prep_done
    }

    fn anchor(&self) -> Option<MigrationStage> {
        Some(MigrationStage::Preparation)
    }

    fn times_slot<'t>(&self, times: &'t mut StageTimes) -> Option<&'t mut SimDuration> {
        Some(&mut times.preparation)
    }

    fn run_slice(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        let package = cx.mig.package.as_str();
        if !cx.prog.prep_quiesced {
            let now = cx.world.clock.now();
            let dev = cx.world.device_mut(cx.mig.home)?;
            let mut app = dev
                .apps
                .remove(package)
                .ok_or_else(|| StageFailure::NoSuchApp(package.to_owned()))?;
            let prep = (|| -> Result<(), StageFailure> {
                move_to_background(&mut app, &mut dev.kernel, &mut dev.host, now)
                    .map_err(|e| StageFailure::Internal(e.to_string()))?;
                let stats = handle_trim_memory(&mut app, &mut dev.kernel, &mut dev.host, now)
                    .map_err(|e| StageFailure::Internal(e.to_string()))?;
                egl_unload(&mut app, &mut dev.kernel)
                    .map_err(|_| StageFailure::PreservedEglContext)?;
                let _ = stats;
                Ok(())
            })();
            dev.apps.insert(package.to_owned(), app);
            prep?;
            // The unoptimised prototype waits for the task idler (§4).
            let idle = dev.cost.background_idle_latency;
            let teardown = SimDuration::from_nanos(
                dev.cost.gl_teardown_ns_per_resource * (cx.mig.spec.gl_contexts as u64 + 2),
            );
            let binder = dev.cost.binder_transaction * 4;
            let cost = idle + teardown + binder;
            cx.world.clock.charge(cost);
            cx.prog.prep_quiesced = true;
            return Ok(Yield::Progress);
        }
        // The framework delivers the app's save point (`onPause`) before
        // the process freezes: buffered writes reach the home data
        // directory here, and from there the pre-transfer data sync ships
        // them to the guest. Free (and byte-invisible) when nothing is
        // buffered.
        cx.world.flush_pending(cx.mig.home, package)?;
        cx.prog.prep_done = true;
        Ok(Yield::Done)
    }

    /// Resumes the home-side app to the foreground (the record log was
    /// never removed, so nothing needs to be reinstated there).
    fn rollback(&self, cx: &mut StageCtx<'_>) -> Result<(), StageFailure> {
        if !(cx.prog.prep_done || cx.prog.prep_quiesced) {
            return Ok(());
        }
        let package = cx.mig.package.as_str();
        let now = cx.world.clock.now();
        let redrawn = {
            let dev =
                cx.world
                    .device_mut(cx.mig.home)
                    .map_err(|e| StageFailure::RollbackFailed {
                        reason: e.to_string(),
                    })?;
            let vendor = dev.profile.gpu.vendor_lib.clone();
            let mut app = dev
                .apps
                .remove(package)
                .ok_or_else(|| StageFailure::RollbackFailed {
                    reason: format!("home app {package} vanished"),
                })?;
            let redrawn = conditional_reinit(
                &mut app,
                &mut dev.kernel,
                &mut dev.host,
                now,
                &vendor,
                ByteSize::from_mib_f64(cx.mig.spec.textures_mib),
                cx.mig.spec.gl_contexts,
            )
            .map_err(|e| StageFailure::RollbackFailed {
                reason: e.to_string(),
            });
            dev.apps.insert(package.to_owned(), app);
            redrawn?
        };
        cx.world.clock.charge(SimDuration::from_nanos(
            cx.mig.home_cost.view_reinit_ns_per_view * redrawn as u64,
        ));
        Ok(())
    }
}
