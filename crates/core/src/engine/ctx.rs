//! What a stage sees: immutable migration facts (`MigCtx`), mutable
//! cross-attempt progress (`Progress`) and the borrow bundle threading
//! them plus the world, fault plan and telemetry into a stage
//! (`StageCtx`).

use crate::cria::FluxImage;
use crate::image_cache;
use crate::migration::{
    MigrationConfig, MigrationStage, StageTimes, TransferLedger, KERNEL_STALL_WATCHDOG,
};
use crate::replay::ReplayStats;
use crate::world::{fnv, DeviceId, FluxWorld, WorldError};
use flux_device::DeviceProfile;
use flux_kernel::ProcessImage;
use flux_net::DEFAULT_CHUNK;
use flux_simcore::{ByteSize, CostModel, FaultPlan, SimDuration, SimTime};
use flux_telemetry::{LaneId, TraceKind};
use flux_workloads::AppSpec;

use super::failure::StageFailure;
use super::interrupt::InterruptSource;
use super::slices::SliceLog;
use super::transfer::InflightTransfer;

/// Immutable facts about the migration, gathered once up front.
pub(crate) struct MigCtx {
    pub(crate) home: DeviceId,
    pub(crate) guest: DeviceId,
    pub(crate) package: String,
    pub(crate) home_name: String,
    pub(crate) guest_name: String,
    pub(crate) home_profile: DeviceProfile,
    pub(crate) guest_profile: DeviceProfile,
    pub(crate) home_cost: CostModel,
    pub(crate) guest_cost: CostModel,
    pub(crate) spec: AppSpec,
    /// Where partially transferred image chunks are staged on the guest.
    pub(crate) staged_path: String,
    /// Where pre-copy-streamed pages accumulate on the guest.
    pub(crate) precopy_path: String,
    /// Root of the guest-side pairing directory (cache lives under it).
    pub(crate) pairing_root: String,
    /// Telemetry lane of the home device.
    pub(crate) home_lane: LaneId,
    /// Telemetry lane of the guest device.
    pub(crate) guest_lane: LaneId,
    /// Feature switches for this migration.
    pub(crate) cfg: MigrationConfig,
}

impl MigCtx {
    /// Gathers the facts. Runs after preflight, so the lookups cannot fail
    /// for any world preflight admitted; the error paths mirror
    /// preflight's refusals regardless.
    pub(crate) fn gather(
        world: &FluxWorld,
        home: DeviceId,
        guest: DeviceId,
        package: &str,
        cfg: &MigrationConfig,
    ) -> Result<Self, StageFailure> {
        let pairing_root = world
            .device(guest)?
            .pairings
            .get(&home.0)
            .map(|p| p.root.clone())
            .ok_or(StageFailure::NotPaired)?;
        Ok(Self {
            home,
            guest,
            package: package.to_owned(),
            home_name: world.device(home)?.name.clone(),
            guest_name: world.device(guest)?.name.clone(),
            home_profile: world.device(home)?.profile.clone(),
            guest_profile: world.device(guest)?.profile.clone(),
            home_cost: world.device(home)?.cost.clone(),
            guest_cost: world.device(guest)?.cost.clone(),
            spec: world
                .device(home)?
                .specs
                .get(package)
                .cloned()
                .ok_or_else(|| StageFailure::NoSuchApp(package.to_owned()))?,
            staged_path: format!("{pairing_root}/.migrate/{package}.image"),
            precopy_path: format!("{pairing_root}/.migrate/{package}.precopy"),
            pairing_root,
            home_lane: world.device(home)?.lane,
            guest_lane: world.device(guest)?.lane,
            cfg: *cfg,
        })
    }
}

/// Mutable progress carried across attempts: completed stages are not
/// redone, delivered chunks are not re-sent.
#[derive(Default)]
pub(crate) struct Progress {
    pub(crate) precopy_done: bool,
    /// The last pre-dump fully streamed to the guest; the final image
    /// ships only its [`ProcessImage::dirty_delta`] against this.
    pub(crate) precopy_base: Option<ProcessImage>,
    pub(crate) precopy_streamed: ByteSize,
    /// The preparation stage's first slice ran: the app is backgrounded,
    /// trimmed and GL-unloaded, but its save point has not fired yet. A
    /// kill delivered in this window resets the flag — the relaunched
    /// process is simply quiesced again (nothing had shipped).
    pub(crate) prep_quiesced: bool,
    pub(crate) prep_done: bool,
    pub(crate) image: Option<FluxImage>,
    /// Compressed bytes the transfer stage must still ship (set once the
    /// checkpoint exists when pre-copy and/or the cache reduced the
    /// payload; `None` means the full compressed image).
    pub(crate) image_to_ship: Option<ByteSize>,
    pub(crate) cache_checked: bool,
    pub(crate) cache_hit: ByteSize,
    /// Cache misses to insert into the guest cache once delivered.
    pub(crate) cache_missed: Vec<image_cache::CacheChunk>,
    /// Compression cost deferred by the pipeline from the checkpoint
    /// stage into the transfer stage's fused window.
    pub(crate) compress_pending: SimDuration,
    pub(crate) delivered_chunks: usize,
    /// The serial transfer attempt currently draining its priced radio
    /// window slice by slice (so interrupts can land between chunks).
    pub(crate) transfer_inflight: Option<InflightTransfer>,
    pub(crate) transfer_done: bool,
    pub(crate) data_delta: ByteSize,
    pub(crate) restore_done: bool,
    pub(crate) dropped_connections: Vec<String>,
    pub(crate) guest_inserted: bool,
    /// Reintegration outputs, set by the replay-warmup stage on success.
    pub(crate) replay: Option<ReplayStats>,
    pub(crate) redrawn: usize,
    /// A stage's own busy accounting for the attempt just run, when it
    /// differs from the stage's wall span (the pipelined transfer hides
    /// part of its window). Taken by the driver after each stage.
    pub(crate) busy_override: Option<SimDuration>,
    pub(crate) times: StageTimes,
    pub(crate) attempts: u32,
    pub(crate) faults: u32,
    pub(crate) backoff: SimDuration,
    /// The run's stage-level schedule, appended to as the clock advances.
    pub(crate) slices: SliceLog,
}

impl Progress {
    /// The byte ledger as currently known (image fixed at checkpoint, data
    /// delta accumulated across verification syncs).
    pub(crate) fn ledger(&self) -> TransferLedger {
        let image = self.image.as_ref().expect("ledger needs a checkpoint");
        TransferLedger {
            image_raw: image.raw_bytes(),
            // Pre-copy and the image cache both shrink the frozen-window
            // ship; `image_to_ship` carries the discounted figure.
            image_compressed: self
                .image_to_ship
                .unwrap_or_else(|| image.compressed_bytes()),
            log_compressed: image.compressed_log_bytes(),
            data_delta: self.data_delta,
            precopy_streamed: self.precopy_streamed,
            cache_hit: self.cache_hit,
        }
    }
}

/// Everything a [`Stage`](super::Stage) runs against: the world (clock,
/// devices, radio, telemetry), the gathered facts, the fault plan pinned
/// at admission, and the cross-attempt progress.
pub struct StageCtx<'a> {
    pub(crate) world: &'a mut FluxWorld,
    pub(crate) mig: &'a MigCtx,
    pub(crate) plan: &'a FaultPlan,
    pub(crate) prog: &'a mut Progress,
    /// Mid-stage lifecycle interrupts: the driver arms and delivers them
    /// at slice boundaries; resumable stages only *query* the next due
    /// instant to know where to cut a window.
    pub(crate) interrupts: &'a mut InterruptSource,
}

impl<'a> StageCtx<'a> {
    pub(crate) fn new(
        world: &'a mut FluxWorld,
        mig: &'a MigCtx,
        plan: &'a FaultPlan,
        prog: &'a mut Progress,
        interrupts: &'a mut InterruptSource,
    ) -> Self {
        Self {
            world,
            mig,
            plan,
            prog,
            interrupts,
        }
    }

    /// Charges `cost` to the clock, plus any kernel stalls scheduled
    /// inside the charge window. Returns a stage failure if a stall trips
    /// the watchdog.
    pub(crate) fn charge_with_stalls(
        &mut self,
        cost: SimDuration,
        stage: MigrationStage,
        lane: LaneId,
    ) -> Option<StageFailure> {
        let start = self.world.clock.now();
        self.world.clock.charge(cost);
        let stalls: Vec<_> = self.plan.stalls_in(start, start + cost).cloned().collect();
        let mut abort: Option<SimDuration> = None;
        for stall in &stalls {
            self.world.clock.charge(stall.duration);
            self.prog.faults += 1;
            self.world.telemetry.instant(
                lane,
                TraceKind::Fault,
                "kernel.fault",
                self.world.clock.now(),
                format!("stall of {} during {stage}", stall.duration),
            );
            if stall.duration >= KERNEL_STALL_WATCHDOG && abort.is_none() {
                abort = Some(stall.duration);
            }
        }
        abort.map(|d| StageFailure::FaultAborted {
            stage,
            attempts: 0,
            detail: format!(
                "kernel stall of {d} tripped the {} watchdog",
                KERNEL_STALL_WATCHDOG
            ),
        })
    }

    /// Splits a lump-charged CRIU window `[start, start + total]` into
    /// per-driver sub-spans (`<prefix>.mem`, `<prefix>.fds`, ...)
    /// proportional to `weights`. Integer arithmetic; the last part
    /// absorbs the rounding remainder so the parts sum exactly to `total`.
    pub(crate) fn record_criu_parts(
        &mut self,
        lane: LaneId,
        prefix: &str,
        start: SimTime,
        total: SimDuration,
        weights: &[(&'static str, u64)],
    ) {
        if !self.world.telemetry.is_enabled() || weights.is_empty() {
            return;
        }
        let weight_sum: u64 = weights.iter().map(|(_, w)| *w).sum::<u64>().max(1);
        let total_ns = total.as_nanos();
        let mut cursor = start;
        let mut spent = 0u64;
        for (i, (name, w)) in weights.iter().enumerate() {
            let part_ns = if i == weights.len() - 1 {
                total_ns - spent
            } else {
                total_ns * w / weight_sum
            };
            spent += part_ns;
            let end = cursor + SimDuration::from_nanos(part_ns);
            self.world
                .telemetry
                .record_complete(lane, &format!("{prefix}.{name}"), cursor, end);
            cursor = end;
        }
    }

    /// Accounts a cache partition to the `flux.cache.*` counters.
    pub(crate) fn record_cache_counters(&mut self, p: &image_cache::CachePartition) {
        self.world
            .telemetry
            .counter_add("flux.cache.hits", p.hits as u64);
        self.world
            .telemetry
            .counter_add("flux.cache.misses", p.misses as u64);
        self.world
            .telemetry
            .counter_add("flux.cache.bytes_saved", p.hit_bytes.as_u64());
    }

    /// Inserts any pending cache misses (now delivered to the guest) into
    /// the content-addressed cache, counting the insertions.
    pub(crate) fn insert_cache_misses(&mut self) -> Result<(), WorldError> {
        if self.prog.cache_missed.is_empty() {
            return Ok(());
        }
        let missed = std::mem::take(&mut self.prog.cache_missed);
        let inserted = {
            let dev = self.world.device_mut(self.mig.guest)?;
            image_cache::insert(
                &mut dev.fs,
                &self.mig.pairing_root,
                &self.mig.package,
                &missed,
            )
        };
        if inserted > 0 {
            self.world
                .telemetry
                .counter_add("flux.cache.insertions", inserted as u64);
        }
        Ok(())
    }

    /// Records the acknowledged chunk prefix in the guest's staging area.
    pub(crate) fn stage_chunks(&mut self) -> Result<(), WorldError> {
        let total = self.prog.ledger().total().as_u64();
        let staged = (self.prog.delivered_chunks as u64 * DEFAULT_CHUNK.as_u64()).min(total);
        let dev = self.world.device_mut(self.mig.guest)?;
        if staged == 0 {
            return Ok(());
        }
        dev.fs.write(
            &self.mig.staged_path,
            flux_fs::Content::new(
                ByteSize::from_bytes(staged),
                fnv(&format!("{}-image-{staged}", self.mig.package)),
            ),
        );
        Ok(())
    }

    /// Removes the staged chunk files (consumed by restore, or torn down).
    pub(crate) fn remove_staged_chunks(&mut self) -> Result<(), WorldError> {
        let dev = self.world.device_mut(self.mig.guest)?;
        let _ = dev.fs.remove(&self.mig.staged_path);
        let _ = dev.fs.remove(&self.mig.precopy_path);
        Ok(())
    }

    /// Tears down partial guest state: the restored wrapper process (and
    /// with it the injected Binder references), the service-side state it
    /// may have accumulated, and — unless `keep_chunks` — the staged image
    /// chunks.
    pub(crate) fn teardown_guest(&mut self, keep_chunks: bool) -> Result<(), WorldError> {
        let now = self.world.clock.now();
        let dev = self.world.device_mut(self.mig.guest)?;
        if self.prog.guest_inserted {
            if let Some(app) = dev.apps.remove(&self.mig.package) {
                let uid = app.uid;
                let _ = dev.kernel.kill(app.main_pid);
                let kernel = &mut dev.kernel;
                dev.host.notify_uid_death(kernel, now, uid);
            }
            self.prog.guest_inserted = false;
        }
        if !keep_chunks {
            let _ = dev.fs.remove(&self.mig.staged_path);
            let _ = dev.fs.remove(&self.mig.precopy_path);
            self.prog.delivered_chunks = 0;
        }
        Ok(())
    }
}
