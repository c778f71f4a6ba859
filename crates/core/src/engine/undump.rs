//! The undump phase — the stage named **restore**: decompression + CRIU
//! restore into a fresh namespace on the guest, then rebuilding the
//! app-side framework object around the restored process.
//!
//! A kernel stall past the watchdog aborts the stage; the half-restored
//! wrapper is torn down before the retry re-restores it. Rollback undoes
//! the guest-side process injection the same way.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::migration::{MigrationStage, StageTimes};
use flux_appfw::App;
use flux_kernel::{criu, RestoreOptions, VmaKind};
use flux_services::svc::package::PackageManagerService;
use flux_simcore::SimDuration;
use flux_telemetry::LaneId;
use std::collections::BTreeMap;

/// The restore stage (decompress + CRIU undump, guest device).
pub struct Undump;

impl Stage for Undump {
    fn name(&self) -> &'static str {
        "restore"
    }

    fn lane(&self, cx: &StageCtx<'_>) -> LaneId {
        cx.mig.guest_lane
    }

    fn pending(&self, cx: &StageCtx<'_>) -> bool {
        !cx.prog.restore_done
    }

    fn anchor(&self) -> Option<MigrationStage> {
        Some(MigrationStage::Restore)
    }

    fn times_slot<'t>(&self, times: &'t mut StageTimes) -> Option<&'t mut SimDuration> {
        Some(&mut times.restore)
    }

    fn run_slice(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        let package = cx.mig.package.as_str();
        let image = cx
            .prog
            .image
            .as_ref()
            .expect("checkpoint completed")
            .clone();
        let (restored, guest_uid) = {
            let dev = cx.world.device_mut(cx.mig.guest)?;
            let pairing_root = dev
                .pairings
                .get(&cx.mig.home.0)
                .map(|p| p.root.clone())
                .ok_or(StageFailure::NotPaired)?;
            let guest_uid = dev
                .host
                .service::<PackageManagerService>("package")
                .and_then(|pm| pm.package(package).map(|r| r.uid))
                .ok_or(StageFailure::NotPaired)?;
            let ns = dev.kernel.namespaces.create();
            let restored = criu::restore(
                &mut dev.kernel,
                &image.process,
                &RestoreOptions {
                    namespace: ns,
                    uid: guest_uid,
                    jail_root: pairing_root,
                },
            )
            .map_err(|e| StageFailure::Internal(e.to_string()))?;
            (restored, guest_uid)
        };

        // Rebuild the app-side framework object around the restored process.
        {
            let dev = cx.world.device_mut(cx.mig.guest)?;
            let heap_vma = dev.kernel.process(restored.real_pid).ok().and_then(|p| {
                p.mem
                    .vmas()
                    .iter()
                    .filter(|v| matches!(v.kind, VmaKind::Anon))
                    .max_by_key(|v| v.len.as_u64())
                    .map(|v| v.id)
            });
            let app = App {
                package: package.to_owned(),
                uid: guest_uid,
                main_pid: restored.real_pid,
                extra_pids: Vec::new(),
                activities: vec![flux_appfw::Activity {
                    name: ".MainActivity".into(),
                    state: flux_appfw::ActivityState::Stopped,
                    window_token: format!("{package}/.MainActivity"),
                }],
                view_root: {
                    let mut vr = flux_appfw::ViewRoot::build(
                        image.reinit.views,
                        (
                            cx.mig.home_profile.screen.width,
                            cx.mig.home_profile.screen.height,
                        ),
                    );
                    vr.terminate_hardware_resources();
                    vr.invalidate_all();
                    vr
                },
                gl: flux_appfw::GlState::default(),
                dalvik: flux_appfw::Dalvik {
                    heap_vma,
                    heap_size: image.reinit.heap,
                    code_cache_vma: None,
                },
                handles: BTreeMap::new(),
                inbox: Vec::new(),
                data_dir: format!("/data/data/{package}"),
                min_api: cx.mig.spec.min_api,
                in_content_provider_call: false,
                // Buffered writes were flushed at preparation, before the
                // checkpoint: the restored process holds none.
                pending_writes: Vec::new(),
            };
            dev.apps.insert(package.to_owned(), app);
        }
        cx.prog.guest_inserted = true;
        cx.prog.dropped_connections = restored.dropped_connections.clone();

        let raw = image.raw_bytes();
        let decompress_cost = cx.mig.guest_cost.decompress_time(image.compressed_bytes());
        let undump_cost = cx
            .mig
            .guest_cost
            .restore_time(raw, image.process.object_count());
        let cost = decompress_cost + undump_cost;
        let charge_start = cx.world.clock.now();
        let fail = cx.charge_with_stalls(cost, MigrationStage::Restore, cx.mig.guest_lane);
        cx.world.telemetry.record_complete(
            cx.mig.guest_lane,
            "criu.decompress",
            charge_start,
            charge_start + decompress_cost,
        );
        cx.record_criu_parts(
            cx.mig.guest_lane,
            "criu.undump",
            charge_start + decompress_cost,
            undump_cost,
            &image.process.component_weights(),
        );
        if let Some(fail) = fail {
            // The watchdog killed the half-restored wrapper: tear the
            // partial guest state down before the retry re-restores it.
            cx.teardown_guest(false)?;
            return Err(fail);
        }
        // The staged chunks have been consumed into the restored process.
        cx.remove_staged_chunks()?;
        cx.prog.restore_done = true;
        Ok(Yield::Done)
    }

    /// Tears the restored wrapper process (and its injected Binder
    /// references plus accumulated service-side state) back out of the
    /// guest.
    fn rollback(&self, cx: &mut StageCtx<'_>) -> Result<(), StageFailure> {
        if !cx.prog.guest_inserted {
            return Ok(());
        }
        let now = cx.world.clock.now();
        let dev = cx
            .world
            .device_mut(cx.mig.guest)
            .map_err(|e| StageFailure::RollbackFailed {
                reason: e.to_string(),
            })?;
        if let Some(app) = dev.apps.remove(&cx.mig.package) {
            let uid = app.uid;
            let _ = dev.kernel.kill(app.main_pid);
            let kernel = &mut dev.kernel;
            dev.host.notify_uid_death(kernel, now, uid);
        }
        cx.prog.guest_inserted = false;
        Ok(())
    }
}
