//! Migration vocabulary: configuration, stage identity, retry policy and
//! the time/byte accounting types (§3.1, Figures 3–4, 12–15).
//!
//! A migration runs **preparation → checkpoint → transfer → restore →
//! reintegration**, the exact stage split of Figure 13, with an optional
//! pre-copy stage 0 in front. The pipeline itself — one module per phase,
//! one driver owning retry, rollback and telemetry — lives in
//! [`crate::engine`]; this module keeps the types those stages speak and
//! the figure-facing accounting structs, plus compatibility re-exports so
//! `flux_core::migration::migrate` keeps working.
//!
//! Unsupported cases are detected up front and refused with a
//! [`crate::engine::StageFailure`], matching §3.3–3.4: multi-process apps, preserved EGL
//! contexts, in-flight ContentProvider interactions, open common SD-card
//! files, incompatible API levels and non-system Binder connections.
//!
//! When the world carries a non-empty [`flux_simcore::FaultPlan`], stages
//! can *fail* rather than merely cost time: link drops abort the chunked
//! image transfer mid-way, and kernel stalls past [`KERNEL_STALL_WATCHDOG`]
//! abort a checkpoint or restore. Failed stages are retried under a
//! [`RetryPolicy`] with exponential backoff charged to virtual time,
//! resuming from delivered state — chunks acknowledged by the guest are
//! never re-sent. If the retry budget runs out (or an unrecoverable error
//! occurs mid-flight), the migration **rolls back**: partial guest state —
//! the wrapper process, staged image chunks, injected Binder references —
//! is torn down, and the home-side app returns to the foreground, verified
//! by invariant checks. A migration therefore either fully completes or
//! leaves the world as if it had never started (plus the time it wasted).

use crate::replay::ReplayStats;
use crate::world::DeviceId;
use flux_appfw::LifecycleEvent;
use flux_simcore::{ByteSize, FaultPlan, SimDuration, SimTime};
use std::fmt;

pub use crate::engine::{broadcast_connectivity, migrate};

/// A kernel stall at least this long trips the checkpoint/restore watchdog
/// and aborts the stage (shorter stalls only add latency).
pub const KERNEL_STALL_WATCHDOG: SimDuration = SimDuration::from_millis(800);

/// Maximum pre-copy rounds before the app is frozen regardless of residue.
pub const PRECOPY_MAX_ROUNDS: u32 = 3;

/// Fraction of a foreground app's dump-needing pages dirtied per second
/// while a pre-copy round streams (the writable working set keeps moving
/// under the app, which is what bounds pre-copy convergence).
pub const PRECOPY_DIRTY_FRACTION_PER_SEC: f64 = 0.02;

/// Pre-copy stops early once the residual (un-streamed) payload falls to
/// this size: freezing then ships less than two radio chunks.
pub const PRECOPY_STOP: ByteSize = ByteSize::from_kib(512);

/// Which of the pipelined-migration features a run enables.
///
/// The default is the serial engine — no pre-copy, no stage overlap, no
/// image cache — which is bit-for-bit the behaviour the seed-recorded
/// figures were captured under. Every feature is opt-in so enabling
/// nothing changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MigrationConfig {
    /// Retry policy for faulted stages.
    pub retry: RetryPolicy,
    /// Run the iterative CRIA pre-dump loop, streaming cold pages while
    /// the app is still foreground and shipping only the dirtied residue
    /// after the freeze.
    pub precopy: bool,
    /// Overlap checkpoint compression with the chunked radio transfer on
    /// separate virtual-time lanes instead of charging them serially.
    pub pipeline: bool,
    /// Consult (and populate) the guest's content-addressed image cache so
    /// repeat migrations ship only chunks not already present.
    pub image_cache: bool,
}

impl MigrationConfig {
    /// The full pipelined engine: pre-copy + stage overlap + image cache.
    pub fn pipelined() -> Self {
        Self {
            precopy: true,
            pipeline: true,
            image_cache: true,
            ..Self::default()
        }
    }
}

/// The five report stages, for failure reporting and per-stage accounting.
///
/// Each value's [`name`](Self::name) equals the corresponding engine
/// stage's [`Stage::name`](crate::engine::Stage::name), which is what span
/// and metric names derive from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum MigrationStage {
    /// Backgrounding + trim-memory + `eglUnload` on the home device.
    Preparation,
    /// CRIU dump + compression on the home device.
    Checkpoint,
    /// Verification sync + chunked radio transfer.
    Transfer,
    /// Decompression + CRIU restore on the guest device.
    Restore,
    /// Adaptive Replay + connectivity + re-layout on the guest device.
    Reintegration,
}

impl MigrationStage {
    /// All five report stages, pipeline order.
    pub const ALL: [MigrationStage; 5] = [
        MigrationStage::Preparation,
        MigrationStage::Checkpoint,
        MigrationStage::Transfer,
        MigrationStage::Restore,
        MigrationStage::Reintegration,
    ];

    /// The wire name: what spans, metrics and fault details call the stage.
    pub fn name(self) -> &'static str {
        match self {
            MigrationStage::Preparation => "preparation",
            MigrationStage::Checkpoint => "checkpoint",
            MigrationStage::Transfer => "transfer",
            MigrationStage::Restore => "restore",
            MigrationStage::Reintegration => "reintegration",
        }
    }
}

impl fmt::Display for MigrationStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A lifecycle event scheduled against a stage of an in-flight migration:
/// deliver `event` to the home-side app `offset` after `stage` begins.
///
/// This is the mid-stage half of the Riganelli-style lifecycle races. The
/// engine arms each interrupt on its interrupt timeline when the anchor
/// stage first runs and delivers it at the next slice boundary the clock
/// crosses — inside the stage, not between stages. Offsets past the
/// anchor stage's end are still delivered (at a later stage's boundary);
/// offsets past the whole migration are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageInterrupt {
    /// The report stage the offset is anchored to.
    pub stage: MigrationStage,
    /// Delay from the anchor stage's first entry.
    pub offset: SimDuration,
    /// The lifecycle event to deliver.
    pub event: LifecycleEvent,
}

impl StageInterrupt {
    /// An interrupt delivering `event` at `offset` into `stage`.
    pub fn at(stage: MigrationStage, offset: SimDuration, event: LifecycleEvent) -> Self {
        Self {
            stage,
            offset,
            event,
        }
    }
}

/// One interrupt the engine actually delivered during a migration,
/// recorded on [`MigrationReport::interrupts`] so the oracle can tell a
/// legitimate mid-flight reset from silent state loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InterruptRecord {
    /// The stage the interrupt was anchored to.
    pub stage: MigrationStage,
    /// Virtual time of delivery.
    pub at: SimTime,
    /// The delivered event.
    pub event: LifecycleEvent,
}

/// Everything one migration needs, built fluently and handed to
/// [`migrate`]: the package, the device route, the engine configuration
/// and an optional fault schedule.
///
/// The spec replaces the old positional entry-point trio — one function,
/// one growable argument, instead of a new function per knob:
///
/// ```no_run
/// # use flux_core::{migrate, MigrationSpec, RetryPolicy};
/// # use flux_core::world::{DeviceId, FluxWorld};
/// # fn demo(world: &mut FluxWorld, phone: DeviceId, tablet: DeviceId) {
/// let report = migrate(
///     world,
///     MigrationSpec::new("com.whatsapp")
///         .between(phone, tablet)
///         .retry(RetryPolicy::default()),
/// );
/// # let _ = report;
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MigrationSpec {
    /// Package to migrate.
    pub package: String,
    /// `(home, guest)` device route; [`migrate`] refuses a spec without
    /// one.
    pub route: Option<(DeviceId, DeviceId)>,
    /// Engine configuration (retry policy, pre-copy, pipelining, cache).
    pub cfg: MigrationConfig,
    /// Fault schedule relative to the migration's start; `None` inherits
    /// the world's ambient [`FaultPlan`].
    pub faults: Option<FaultPlan>,
    /// Lifecycle events to deliver mid-stage, anchored to report stages.
    pub interrupts: Vec<StageInterrupt>,
}

impl MigrationSpec {
    /// A spec for `package` with the default engine configuration. Set the
    /// route with [`MigrationSpec::between`] before calling [`migrate`].
    pub fn new(package: &str) -> Self {
        Self {
            package: package.to_owned(),
            route: None,
            cfg: MigrationConfig::default(),
            faults: None,
            interrupts: Vec::new(),
        }
    }

    /// Sets the device route: migrate from `home` to `guest`.
    pub fn between(mut self, home: DeviceId, guest: DeviceId) -> Self {
        self.route = Some((home, guest));
        self
    }

    /// Replaces the whole engine configuration.
    pub fn config(mut self, cfg: MigrationConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Sets just the retry policy, keeping the rest of the configuration.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.retry = policy;
        self
    }

    /// Sets a fault schedule, expressed relative to the migration's own
    /// start; [`migrate`] shifts it onto the world clock and restores the
    /// ambient plan afterwards.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Schedules a lifecycle event `offset` into `stage`, delivered at the
    /// next slice boundary inside the running migration.
    pub fn interrupt(
        mut self,
        stage: MigrationStage,
        offset: SimDuration,
        event: LifecycleEvent,
    ) -> Self {
        self.interrupts
            .push(StageInterrupt::at(stage, offset, event));
        self
    }

    /// Replaces the whole mid-stage interrupt schedule.
    pub fn interrupts(mut self, interrupts: Vec<StageInterrupt>) -> Self {
        self.interrupts = interrupts;
        self
    }
}

/// How often and how patiently failed stages are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). 1 means fail fast.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub backoff_base: SimDuration,
    /// Upper bound on a single backoff.
    pub backoff_cap: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            backoff_base: SimDuration::from_millis(200),
            backoff_cap: SimDuration::from_secs(5),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries: the first fault aborts the migration.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            ..Self::default()
        }
    }

    /// Exponential backoff charged after the `failed_attempts`-th failure
    /// (1-based): `base * 2^(failed_attempts - 1)`, capped.
    pub fn backoff_after(&self, failed_attempts: u32) -> SimDuration {
        let exp = failed_attempts.saturating_sub(1).min(20);
        let ns = self.backoff_base.as_nanos().saturating_mul(1u64 << exp);
        SimDuration::from_nanos(ns.min(self.backoff_cap.as_nanos()))
    }
}

/// Virtual time spent per stage (Figure 13's categories).
///
/// The per-stage fields are **busy** time: what each stage charged,
/// summed across attempts. Under the serial engine busy and wall
/// coincide. Under [`MigrationConfig::pipeline`] stages overlap on
/// separate lanes, and [`overlap_saved`](Self::overlap_saved) records the
/// latency the overlap hid, so [`wall_total`](Self::wall_total) and
/// [`user_perceived`](Self::user_perceived) reflect what a clock on the
/// wall (and the user) actually saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimes {
    /// Pre-copy rounds: iterative pre-dumps streamed while the app was
    /// still foreground. Zero under the serial engine.
    pub precopy: SimDuration,
    /// Backgrounding + trim-memory + `eglUnload`.
    pub preparation: SimDuration,
    /// CRIU dump + compression.
    pub checkpoint: SimDuration,
    /// APK/data verification sync + radio transfer.
    pub transfer: SimDuration,
    /// Decompression + CRIU restore + Binder re-injection.
    pub restore: SimDuration,
    /// Adaptive Replay + connectivity events + re-layout + foreground.
    pub reintegration: SimDuration,
    /// Busy time hidden by pipeline overlap (compression proceeding while
    /// chunks were already on the air). Zero under the serial engine.
    pub overlap_saved: SimDuration,
}

/// Serializes as an object of per-stage nanosecond durations.
impl serde::Serialize for StageTimes {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("precopy", &self.precopy)
            .field("preparation", &self.preparation)
            .field("checkpoint", &self.checkpoint)
            .field("transfer", &self.transfer)
            .field("restore", &self.restore)
            .field("reintegration", &self.reintegration)
            .field("overlap_saved", &self.overlap_saved);
        obj.end();
    }
}

/// Deserializes the per-stage duration object written by the
/// [`serde::Serialize`] impl above, field for field.
impl<'de> serde::Deserialize<'de> for StageTimes {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            precopy: v.read("precopy")?,
            preparation: v.read("preparation")?,
            checkpoint: v.read("checkpoint")?,
            transfer: v.read("transfer")?,
            restore: v.read("restore")?,
            reintegration: v.read("reintegration")?,
            overlap_saved: v.read("overlap_saved")?,
        })
    }
}

impl StageTimes {
    /// The busy time recorded for one report stage.
    pub fn of(&self, stage: MigrationStage) -> SimDuration {
        match stage {
            MigrationStage::Preparation => self.preparation,
            MigrationStage::Checkpoint => self.checkpoint,
            MigrationStage::Transfer => self.transfer,
            MigrationStage::Restore => self.restore,
            MigrationStage::Reintegration => self.reintegration,
        }
    }

    /// Total busy time across stages (Figure 12). Excludes retry backoff,
    /// which [`MigrationReport::backoff`] reports separately so the
    /// accounting balances: wall time = stage total − overlap + backoff.
    pub fn total(&self) -> SimDuration {
        self.precopy
            + self.preparation
            + self.checkpoint
            + self.transfer
            + self.restore
            + self.reintegration
    }

    /// Wall-clock migration time: total busy time minus the latency the
    /// pipeline overlap hid. Equals [`total`](Self::total) when serial.
    pub fn wall_total(&self) -> SimDuration {
        self.total().saturating_sub(self.overlap_saved)
    }

    /// User-perceived time: pre-copy, preparation and checkpoint overlap
    /// the foreground app and the migration-target menu, so users mostly
    /// see transfer onward (§4). Pipelined compression overlaps the radio,
    /// so the overlap saving comes off the perceived wait too.
    pub fn user_perceived(&self) -> SimDuration {
        (self.transfer + self.restore + self.reintegration).saturating_sub(self.overlap_saved)
    }

    /// User-perceived time excluding the transfer stage (Figure 14).
    pub fn user_perceived_sans_transfer(&self) -> SimDuration {
        self.restore + self.reintegration
    }
}

/// Bytes moved by a migration (Figure 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferLedger {
    /// Uncompressed checkpoint image size.
    pub image_raw: ByteSize,
    /// Compressed image bytes the transfer stage ships after the freeze.
    /// With pre-copy this is the dirtied residue (plus metadata and log);
    /// with a warm cache, chunk hits are already subtracted.
    pub image_compressed: ByteSize,
    /// Compressed record-log bytes.
    pub log_compressed: ByteSize,
    /// APK/data-directory delta shipped by the verification sync.
    pub data_delta: ByteSize,
    /// Compressed image bytes streamed by pre-copy rounds before the
    /// freeze. Zero under the serial engine.
    pub precopy_streamed: ByteSize,
    /// Compressed image bytes the guest's content-addressed cache already
    /// held, skipped from the air entirely. Zero with a cold cache.
    pub cache_hit: ByteSize,
}

/// Serializes as an object of raw byte counts.
impl serde::Serialize for TransferLedger {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("image_raw", &self.image_raw)
            .field("image_compressed", &self.image_compressed)
            .field("log_compressed", &self.log_compressed)
            .field("data_delta", &self.data_delta)
            .field("precopy_streamed", &self.precopy_streamed)
            .field("cache_hit", &self.cache_hit);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for TransferLedger {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            image_raw: v.read("image_raw")?,
            image_compressed: v.read("image_compressed")?,
            log_compressed: v.read("log_compressed")?,
            data_delta: v.read("data_delta")?,
            precopy_streamed: v.read("precopy_streamed")?,
            cache_hit: v.read("cache_hit")?,
        })
    }
}

impl TransferLedger {
    /// Bytes the post-freeze transfer stage puts over the air.
    pub fn total(&self) -> ByteSize {
        self.image_compressed + self.data_delta
    }

    /// Every byte that crossed the air, pre-copy streaming included.
    pub fn over_air_total(&self) -> ByteSize {
        self.image_compressed + self.data_delta + self.precopy_streamed
    }
}

/// A completed migration.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// Migrated package.
    pub package: String,
    /// Home device name.
    pub from: String,
    /// Guest device name.
    pub to: String,
    /// Per-stage times, accumulated across attempts.
    pub stages: StageTimes,
    /// Byte accounting.
    pub ledger: TransferLedger,
    /// Replay statistics.
    pub replay: ReplayStats,
    /// INET endpoints dropped at restore (the app sees a connectivity
    /// change instead).
    pub dropped_connections: Vec<String>,
    /// Views redrawn during conditional re-initialisation.
    pub redrawn_views: usize,
    /// Attempts made (1 when no fault struck).
    pub attempts: u32,
    /// Fault events that hit this migration.
    pub faults: u32,
    /// Retry backoff charged to virtual time, outside the stage times.
    pub backoff: SimDuration,
    /// Mid-stage lifecycle interrupts the engine delivered, in delivery
    /// order. Deliberately kept out of the serialized report: the report
    /// JSON is pinned by recorded benches that predate interrupts, and an
    /// undisturbed run carries none.
    pub interrupts: Vec<InterruptRecord>,
}

impl serde::Serialize for MigrationReport {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("package", &self.package)
            .field("from", &self.from)
            .field("to", &self.to)
            .field("stages", &self.stages)
            .field("ledger", &self.ledger)
            .field("replay", &self.replay)
            .field("dropped_connections", &self.dropped_connections)
            .field("redrawn_views", &self.redrawn_views)
            .field("attempts", &self.attempts)
            .field("faults", &self.faults)
            .field("backoff", &self.backoff);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for MigrationReport {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            package: v.read("package")?,
            from: v.read("from")?,
            to: v.read("to")?,
            stages: v.read("stages")?,
            ledger: v.read("ledger")?,
            replay: v.read("replay")?,
            dropped_connections: v.read("dropped_connections")?,
            redrawn_views: v.read("redrawn_views")?,
            attempts: v.read("attempts")?,
            faults: v.read("faults")?,
            backoff: v.read("backoff")?,
            interrupts: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_names_match_the_declared_engine_stages() {
        // Every report stage must be implemented by an engine stage of the
        // same wire name, so spans/metrics derived from either agree.
        let engine_names: Vec<&str> = crate::engine::STAGES.iter().map(|s| s.name()).collect();
        for stage in MigrationStage::ALL {
            assert!(
                engine_names.contains(&stage.name()),
                "report stage {stage} has no engine stage"
            );
            assert_eq!(stage.to_string(), stage.name());
        }
        // And the telemetry crate's declared report-stage list is the same
        // five names in the same order.
        assert_eq!(
            flux_telemetry::REPORT_STAGES.to_vec(),
            MigrationStage::ALL.map(|s| s.name()).to_vec()
        );
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_after(1), SimDuration::from_millis(200));
        assert_eq!(p.backoff_after(2), SimDuration::from_millis(400));
        assert_eq!(p.backoff_after(3), SimDuration::from_millis(800));
        assert_eq!(p.backoff_after(30), SimDuration::from_secs(5));
    }

    #[test]
    fn stage_times_of_reads_the_matching_slot() {
        let times = StageTimes {
            preparation: SimDuration::from_millis(1),
            checkpoint: SimDuration::from_millis(2),
            transfer: SimDuration::from_millis(3),
            restore: SimDuration::from_millis(4),
            reintegration: SimDuration::from_millis(5),
            ..StageTimes::default()
        };
        let sum: SimDuration = MigrationStage::ALL
            .iter()
            .map(|s| times.of(*s))
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert_eq!(sum, times.total());
    }
}
