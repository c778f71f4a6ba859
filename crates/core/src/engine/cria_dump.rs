//! The CRIA dump phase — the stage named **checkpoint**: CRIU dump +
//! compression on the home device, packaged with the cloned record log
//! and re-initialisation metadata into a [`FluxImage`].
//!
//! With pre-copy coverage the frozen dump writes only the pages dirtied
//! since the last streamed pre-dump; under the pipeline the compression
//! cost is deferred into the transfer stage's fused window. Kernel stalls
//! inside the dump window can trip the watchdog and fault the stage.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::cria::{FluxImage, ReinitSpec, IMAGE_COMPRESS_RATIO};
use crate::image_cache;
use crate::migration::{MigrationStage, StageTimes};
use crate::record::CallLog;
use flux_kernel::criu;
use flux_simcore::{ByteSize, SimDuration};
use flux_telemetry::LaneId;

/// The checkpoint stage (CRIU dump + compression, home device).
pub struct CriaDump;

impl Stage for CriaDump {
    fn name(&self) -> &'static str {
        "checkpoint"
    }

    fn lane(&self, cx: &StageCtx<'_>) -> LaneId {
        cx.mig.home_lane
    }

    fn pending(&self, cx: &StageCtx<'_>) -> bool {
        cx.prog.image.is_none()
    }

    fn anchor(&self) -> Option<MigrationStage> {
        Some(MigrationStage::Checkpoint)
    }

    fn times_slot<'t>(&self, times: &'t mut StageTimes) -> Option<&'t mut SimDuration> {
        Some(&mut times.checkpoint)
    }

    fn run_slice(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        let package = cx.mig.package.as_str();
        let image = {
            let now = cx.world.clock.now();
            let dev = cx.world.device_mut(cx.mig.home)?;
            let app = dev
                .apps
                .get(package)
                .ok_or_else(|| StageFailure::NoSuchApp(package.to_owned()))?;
            let uid = app.uid;
            let main_pid = app.main_pid;
            let process = criu::checkpoint(&dev.kernel, main_pid, now)
                .map_err(|e| StageFailure::Internal(e.to_string()))?;
            // The log is *cloned* here and only removed from the home
            // device at finalise, so rollback leaves it untouched.
            let log: CallLog = dev.records.log(uid).cloned().unwrap_or_default();
            FluxImage {
                package: package.to_owned(),
                home_device: cx.mig.home_name.clone(),
                home_profile: cx.mig.home_profile.clone(),
                reinit: ReinitSpec {
                    textures: ByteSize::from_mib_f64(cx.mig.spec.textures_mib),
                    gl_contexts: cx.mig.spec.gl_contexts,
                    views: cx.mig.spec.views,
                    heap: ByteSize::from_mib_f64(cx.mig.spec.heap_mib),
                },
                process,
                log,
            }
        };
        let raw = image.raw_bytes();
        let objects = image.process.object_count();
        // With pre-copy coverage the frozen dump writes only the pages
        // dirtied since the last streamed pre-dump (plus metadata), and
        // only that residue is compressed and shipped.
        let ship_raw = match &cx.prog.precopy_base {
            Some(base) => image.process.dirty_delta(base).total_bytes(),
            None => raw,
        };
        let dump_cost = cx.mig.home_cost.checkpoint_time(ship_raw, objects);
        let compress_cost = cx.mig.home_cost.compress_time(ship_raw);
        // The pipeline defers compression into the transfer stage's fused
        // window, where it overlaps the radio on a separate lane.
        let (cost, deferred) = if cx.mig.cfg.pipeline {
            (dump_cost, compress_cost)
        } else {
            (dump_cost + compress_cost, SimDuration::ZERO)
        };
        let charge_start = cx.world.clock.now();
        let fail = cx.charge_with_stalls(cost, MigrationStage::Checkpoint, cx.mig.home_lane);
        // Attribute the lump charge window to per-driver sub-spans,
        // whether or not a stall aborted the stage afterwards.
        cx.record_criu_parts(
            cx.mig.home_lane,
            "criu.dump",
            charge_start,
            dump_cost,
            &image.process.component_weights(),
        );
        if !cx.mig.cfg.pipeline {
            cx.world.telemetry.record_complete(
                cx.mig.home_lane,
                "criu.compress",
                charge_start + dump_cost,
                charge_start + cost,
            );
        }
        if let Some(fail) = fail {
            return Err(fail);
        }
        if let Some(base) = &cx.prog.precopy_base {
            cx.prog.image_to_ship = Some(
                image
                    .process
                    .dirty_delta(base)
                    .total_bytes()
                    .scale(IMAGE_COMPRESS_RATIO)
                    + image.compressed_log_bytes(),
            );
        } else if cx.mig.cfg.image_cache && !cx.prog.cache_checked {
            // No pre-copy ran, so the cache is consulted here, over the
            // full frozen image.
            let p = {
                let dev = cx.world.device(cx.mig.guest)?;
                image_cache::partition(&dev.fs, &cx.mig.pairing_root, package, &image.process)
            };
            cx.record_cache_counters(&p);
            cx.prog.cache_hit = p.hit_bytes;
            cx.prog.cache_checked = true;
            cx.prog.image_to_ship = Some(image.compressed_bytes() - p.hit_bytes);
            cx.prog.cache_missed = p.missed;
        }
        cx.prog.compress_pending = deferred;
        cx.prog.image = Some(image);
        Ok(Yield::Done)
    }
}
