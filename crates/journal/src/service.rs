//! The event-sourced service core.
//!
//! A [`ServiceCore`] wraps the fleet scheduler in a write-ahead-logged,
//! crash-recoverable event loop:
//!
//! * **Write-ahead acknowledgement** — [`ServiceCore::submit`] journals
//!   (and fsyncs) a [`WorldEvent::RequestSubmitted`] *before* reporting
//!   the request acknowledged, so an acked request is always in the
//!   journal's surviving prefix after any crash the sync survived.
//! * **Deterministic batches** — [`ServiceCore::step_batch`] admits every
//!   pending request, journals [`WorldEvent::BatchAdmitted`], then
//!   executes the batch on a *freshly provisioned world*: the
//!   [`ScenarioSpec`] rebuilds devices, apps, scripts and pairings from
//!   scratch, the world clock is advanced to the persisted service clock,
//!   and the radio RNG is forked from a persisted service-owned root
//!   stream keyed by the batch sequence. Everything a batch produces —
//!   [`FleetReport`], Chrome trace, telemetry JSON, clock and RNG
//!   advancement — is therefore a pure function of the journaled input
//!   facts.
//! * **Snapshot + replay recovery** — [`ServiceCore::open`] recovers the
//!   journal's surviving prefix, loads the newest valid snapshot covering
//!   at most that many events, and replays the suffix. Input facts are
//!   re-applied (batches re-execute); audit facts are *verified* against
//!   the recomputed outcomes, and audit events lost to a torn tail are
//!   re-issued. The recovered service is byte-identical — state, reports,
//!   telemetry exports — to one that never crashed.
//!
//! The world is deliberately *not* serialized. A [`flux_core::FluxWorld`]
//! holds process images, record logs and telemetry hubs that the journal
//! would have to chase; instead the service treats the world as a cache
//! that is cheap to rebuild (stateless provisioning) and persists only the
//! spec plus the accumulated outputs. See `DESIGN.md` §4.13 for the
//! tradeoff discussion.

use crate::event::{RequestSpec, ScenarioSpec, WorldEvent};
use crate::journal::{Journal, JournalConfig, JournalError};
use crate::snapshot::SnapshotStore;
use flux_core::{
    FleetConfig, FleetOutcome, FleetReport, FleetScheduler, FluxError, MigrationRequest,
    WorldBuilder,
};
use flux_device::DeviceProfile;
use flux_simcore::{SimRng, SimTime};
use flux_telemetry::{chrome_trace, json_snapshot};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Write a snapshot once this many events accumulate past the last
    /// one. `0` disables snapshots (recovery replays the whole journal).
    pub snapshot_every: u64,
    /// Journal segment rotation and sync policy.
    pub journal: JournalConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            snapshot_every: 32,
            journal: JournalConfig::default(),
        }
    }
}

/// A service-layer failure.
#[derive(Debug)]
pub enum ServiceError {
    /// The journal or snapshot store failed at the filesystem level.
    Journal(JournalError),
    /// The durable state contradicts itself (undecodable event, audit
    /// mismatch, out-of-order batch): not a torn tail but real corruption
    /// or a foreign directory.
    Corrupt(String),
    /// The caller's request can never execute under this scenario.
    Invalid(String),
    /// Batch execution failed in the fleet engine.
    Flux(FluxError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Journal(e) => write!(f, "service journal: {e}"),
            ServiceError::Corrupt(m) => write!(f, "service state corrupt: {m}"),
            ServiceError::Invalid(m) => write!(f, "invalid request: {m}"),
            ServiceError::Flux(e) => write!(f, "fleet execution: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<JournalError> for ServiceError {
    fn from(e: JournalError) -> Self {
        ServiceError::Journal(e)
    }
}

impl From<FluxError> for ServiceError {
    fn from(e: FluxError) -> Self {
        ServiceError::Flux(e)
    }
}

fn corrupt(m: impl Into<String>) -> ServiceError {
    ServiceError::Corrupt(m.into())
}

/// The outcome of a [`ServiceCore::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitAck {
    /// Journaled, synced, acknowledged: the request will run.
    Acked,
    /// The id was already acknowledged earlier; nothing was journaled.
    /// Resubmission after a crash is the expected client retry path.
    Duplicate,
}

/// Everything one executed batch produced.
///
/// Deliberately not `PartialEq`: equality of batch outputs is defined as
/// byte-identity of their serialized form (see
/// [`ServiceCore::state_json`]), which is also what the recovery suite
/// compares.
#[derive(Debug, Clone)]
pub struct BatchRecord {
    /// Batch sequence number (0-based).
    pub seq: u64,
    /// Request ids admitted, ascending.
    pub request_ids: Vec<u64>,
    /// The fleet schedule and per-flight outcomes.
    pub report: FleetReport,
    /// `chrome://tracing` export of the batch's world telemetry.
    pub chrome_trace: String,
    /// Structured JSON export of the batch's world telemetry.
    pub telemetry_json: String,
}

impl serde::Serialize for BatchRecord {
    fn serialize(&self, out: &mut String) {
        let mut obj = serde::object(out);
        obj.field("seq", &self.seq)
            .field("request_ids", &self.request_ids)
            .field("report", &self.report)
            .field("chrome_trace", &self.chrome_trace)
            .field("telemetry_json", &self.telemetry_json);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for BatchRecord {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        Ok(Self {
            seq: v.read("seq")?,
            request_ids: v.read("request_ids")?,
            report: v.read("report")?,
            chrome_trace: v.read("chrome_trace")?,
            telemetry_json: v.read("telemetry_json")?,
        })
    }
}

/// The durable state: exactly what a snapshot persists.
///
/// Every collection iterated during serialization is a `BTreeMap`/
/// `BTreeSet` or an append-ordered `Vec` — never a hash table — so the
/// serialized form is a deterministic function of the state.
#[derive(Debug, Clone)]
struct ServiceState {
    spec: ScenarioSpec,
    /// Virtual instant the next batch opens at (end of the previous one).
    service_clock: SimTime,
    /// Root RNG; each batch forks a child keyed by its sequence number.
    root_rng: flux_simcore::SimRngState,
    next_batch: u64,
    /// Acknowledged but not yet admitted, keyed (and ordered) by id.
    pending: BTreeMap<u64, RequestSpec>,
    /// Every id ever acknowledged: the idempotency filter.
    acked: BTreeSet<u64>,
    /// Every executed batch, in sequence order.
    batches: Vec<BatchRecord>,
}

impl ServiceState {
    fn fresh(spec: ScenarioSpec) -> Self {
        // The service's own stream is forked off the scenario seed at a
        // label no per-request fork uses, so request-level streams (keyed
        // by id) and the service root never collide.
        let root_rng = SimRng::seed(spec.seed).fork(u64::MAX).save();
        Self {
            spec,
            service_clock: SimTime::ZERO,
            root_rng,
            next_batch: 0,
            pending: BTreeMap::new(),
            acked: BTreeSet::new(),
            batches: Vec::new(),
        }
    }
}

impl serde::Serialize for ServiceState {
    fn serialize(&self, out: &mut String) {
        let pending: Vec<&RequestSpec> = self.pending.values().collect();
        let acked: Vec<u64> = self.acked.iter().copied().collect();
        let mut obj = serde::object(out);
        obj.field("spec", &self.spec)
            .field("service_clock", &self.service_clock)
            .field("root_rng", &self.root_rng)
            .field("next_batch", &self.next_batch)
            .field("pending", &pending)
            .field("acked", &acked)
            .field("batches", &self.batches);
        obj.end();
    }
}

impl<'de> serde::Deserialize<'de> for ServiceState {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        let pending_list: Vec<RequestSpec> = v.read("pending")?;
        let acked_list: Vec<u64> = v.read("acked")?;
        Ok(Self {
            spec: v.read("spec")?,
            service_clock: v.read("service_clock")?,
            root_rng: v.read("root_rng")?,
            next_batch: v.read("next_batch")?,
            pending: pending_list.into_iter().map(|r| (r.id, r)).collect(),
            acked: acked_list.into_iter().collect(),
            batches: v.read("batches")?,
        })
    }
}

/// What recovery found on disk.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Bytes discarded from the journal's torn tail.
    pub truncated_bytes: u64,
    /// Whole segments deleted past the tear.
    pub dropped_segments: usize,
    /// Event count of the snapshot recovery started from, if any.
    pub snapshot_events: Option<u64>,
    /// Events replayed past the snapshot (or from the beginning).
    pub replayed_events: u64,
    /// Audit events re-issued because the tear swallowed them.
    pub reissued_audits: u64,
}

/// A batch admitted (journaled and drained from the pending queue) but
/// not yet executed: everything [`PreparedBatch::execute`] needs, cloned
/// out of the service so execution can proceed *without* the service
/// lock. Obtained from [`ServiceCore::begin_batch`]; the result goes back
/// in through [`ServiceCore::install_batch`].
#[derive(Debug)]
pub struct PreparedBatch {
    batch: u64,
    request_ids: Vec<u64>,
    reqs: Vec<RequestSpec>,
    spec: ScenarioSpec,
    service_clock: SimTime,
    batch_rng: SimRng,
}

/// Everything one executed batch produced, ready to install.
#[derive(Debug)]
pub struct ExecutedBatch {
    record: BatchRecord,
    audits: Vec<WorldEvent>,
    end_clock: SimTime,
}

impl ExecutedBatch {
    /// The batch's sequence number.
    pub fn seq(&self) -> u64 {
        self.record.seq
    }
}

impl PreparedBatch {
    /// The batch's sequence number.
    pub fn seq(&self) -> u64 {
        self.batch
    }

    /// Request ids admitted into this batch, ascending.
    pub fn request_ids(&self) -> &[u64] {
        &self.request_ids
    }

    /// Executes the batch: builds a fresh world from the spec, advances it
    /// to the service clock, runs the fleet under the batch's forked RNG
    /// and collects the outputs. Pure — touches no service state, holds no
    /// lock — so a server can answer observers while this runs.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Flux`] when the fleet engine fails, and
    /// [`ServiceError::Corrupt`] when the scenario's workload pool is
    /// missing an app.
    pub fn execute(self) -> Result<ExecutedBatch, ServiceError> {
        let batch = self.batch;
        let (mut world, ids) = build_world(&self.spec)?;
        world.clock.advance_to(self.service_clock);
        world.net.set_rng(self.batch_rng);

        let requests: Vec<MigrationRequest> = self
            .reqs
            .iter()
            .map(|r| {
                let home = ids[2 * r.pair as usize];
                let guest = ids[2 * r.pair as usize + 1];
                MigrationRequest::new(r.id, home, guest, &r.package).with_priority(r.priority)
            })
            .collect();
        let scheduler = FleetScheduler::new(FleetConfig {
            max_in_flight: (self.spec.max_in_flight.max(1)) as usize,
            ..FleetConfig::default()
        })?;
        let report = scheduler.run(&mut world, requests)?;

        let audits = report
            .flights
            .iter()
            .map(|f| match f.outcome {
                FleetOutcome::Completed(_) => WorldEvent::MigrationCompleted { batch, id: f.id },
                FleetOutcome::RolledBack { .. } | FleetOutcome::Refused { .. } => {
                    WorldEvent::RolledBack { batch, id: f.id }
                }
            })
            .collect();
        Ok(ExecutedBatch {
            record: BatchRecord {
                seq: batch,
                request_ids: self.request_ids,
                chrome_trace: chrome_trace(&world.telemetry),
                telemetry_json: json_snapshot(&world.telemetry),
                report,
            },
            audits,
            end_clock: world.clock.now(),
        })
    }
}

/// The event-sourced service: journal + snapshots + deterministic batch
/// execution. See the [module docs](self).
pub struct ServiceCore {
    journal: Journal,
    snapshots: SnapshotStore,
    cfg: ServiceConfig,
    state: ServiceState,
    recovery: RecoveryInfo,
    /// Serialises begin/execute/install batch cycles across threads
    /// sharing this core behind a mutex — see [`ServiceCore::step_gate`].
    step_gate: Arc<Mutex<()>>,
    /// Journal event count covered by the most recent snapshot — cadence
    /// bookkeeping only. Deliberately *not* part of [`ServiceState`]:
    /// snapshot markers land at different journal offsets in a recovered
    /// run than in an uninterrupted one (a crash deletes journal events
    /// that the idempotent retry path does not re-create), so folding
    /// this counter into the durable state would break the byte-identity
    /// contract over something with no semantic content.
    last_snapshot_events: u64,
}

impl ServiceCore {
    /// Opens (creating or recovering) a service rooted at `root`, with the
    /// journal in `root/journal` and snapshots in `root/snapshots`.
    ///
    /// `spec` only matters for a brand-new service; an existing journal's
    /// [`WorldEvent::Initialized`] event wins over the argument, so a
    /// recovered service always re-runs the scenario it was created with.
    pub fn open(
        root: impl Into<PathBuf>,
        spec: ScenarioSpec,
        cfg: ServiceConfig,
    ) -> Result<Self, ServiceError> {
        let root = root.into();
        let rec = Journal::open(root.join("journal"), cfg.journal)?;
        let snapshots = SnapshotStore::open(root.join("snapshots"))?;
        let mut events = Vec::with_capacity(rec.events.len());
        for (i, payload) in rec.events.iter().enumerate() {
            events.push(
                WorldEvent::decode(payload)
                    .map_err(|e| corrupt(format!("event {i} undecodable: {e}")))?,
            );
        }
        let mut recovery = RecoveryInfo {
            truncated_bytes: rec.truncated_bytes,
            dropped_segments: rec.dropped_segments,
            ..RecoveryInfo::default()
        };
        let mut core = Self {
            journal: rec.journal,
            snapshots,
            cfg,
            state: ServiceState::fresh(spec.clone()),
            recovery,
            step_gate: Arc::new(Mutex::new(())),
            last_snapshot_events: 0,
        };

        if events.is_empty() {
            core.append_event(&WorldEvent::Initialized { spec })?;
            return Ok(core);
        }

        // Pick a starting point: newest snapshot no newer than the
        // surviving prefix, else the Initialized event.
        let surviving = events.len() as u64;
        let start = match core.snapshots.newest_valid(surviving)? {
            Some((count, payload)) => {
                let text = std::str::from_utf8(&payload)
                    .map_err(|_| corrupt("snapshot payload is not UTF-8"))?;
                core.state = serde::from_json(text)
                    .map_err(|e| corrupt(format!("snapshot undecodable: {e}")))?;
                recovery.snapshot_events = Some(count);
                core.last_snapshot_events = count;
                count as usize
            }
            None => {
                let WorldEvent::Initialized { spec } = &events[0] else {
                    return Err(corrupt("journal does not start with an Initialized event"));
                };
                core.state = ServiceState::fresh(spec.clone());
                1
            }
        };

        // Replay the suffix: apply input facts, verify audit facts.
        let mut expected: VecDeque<WorldEvent> = VecDeque::new();
        for (i, event) in events.iter().enumerate().skip(start) {
            let misplaced =
                |what: &str| corrupt(format!("event {i}: {what} while audits are outstanding"));
            match event {
                WorldEvent::Initialized { .. } => {
                    return Err(corrupt(format!("event {i}: Initialized mid-journal")));
                }
                WorldEvent::RequestSubmitted { req } => {
                    if !expected.is_empty() {
                        return Err(misplaced("a submission"));
                    }
                    core.apply_submit(req.clone());
                }
                WorldEvent::BatchAdmitted { batch, request_ids } => {
                    if !expected.is_empty() {
                        return Err(misplaced("a batch admission"));
                    }
                    expected = core.apply_batch(*batch, request_ids)?.into();
                }
                WorldEvent::SnapshotTaken { events_applied } => {
                    if !expected.is_empty() {
                        return Err(misplaced("a snapshot marker"));
                    }
                    core.last_snapshot_events = *events_applied;
                }
                audit => match expected.pop_front() {
                    Some(want) if want == *audit => {}
                    Some(want) => {
                        return Err(corrupt(format!(
                            "event {i}: journal says {audit:?}, replay computed {want:?}"
                        )));
                    }
                    None => {
                        return Err(corrupt(format!("event {i}: unexpected audit {audit:?}")));
                    }
                },
            }
            recovery.replayed_events += 1;
        }

        // The tear may have swallowed the tail of a batch's audit train;
        // re-issue what replay recomputed so the journal is whole again.
        for audit in expected {
            core.append_event(&audit)?;
            recovery.reissued_audits += 1;
        }
        core.recovery = recovery;
        Ok(core)
    }

    /// Submits a request: journal + fsync, then acknowledge.
    ///
    /// Idempotent by request id — resubmitting an acknowledged id (the
    /// client retry path after a crash) returns [`SubmitAck::Duplicate`]
    /// without touching the journal.
    pub fn submit(&mut self, req: RequestSpec) -> Result<SubmitAck, ServiceError> {
        if req.pair >= self.state.spec.pairs {
            return Err(ServiceError::Invalid(format!(
                "pair {} out of range (scenario has {} pairs)",
                req.pair, self.state.spec.pairs
            )));
        }
        if self.state.acked.contains(&req.id) {
            return Ok(SubmitAck::Duplicate);
        }
        self.append_event(&WorldEvent::RequestSubmitted { req: req.clone() })?;
        self.apply_submit(req);
        self.maybe_snapshot()?;
        Ok(SubmitAck::Acked)
    }

    /// Admits every pending request as one batch and executes it.
    ///
    /// Returns the new [`BatchRecord`], or `None` when nothing is pending.
    ///
    /// This is [`begin_batch`](Self::begin_batch) →
    /// [`PreparedBatch::execute`] → [`install_batch`](Self::install_batch)
    /// run back to back; a server sharing the core behind a mutex should
    /// call the three parts itself so the (expensive, pure) execute step
    /// runs outside the lock and observers keep getting answers.
    pub fn step_batch(&mut self) -> Result<Option<&BatchRecord>, ServiceError> {
        let Some(prepared) = self.begin_batch()? else {
            return Ok(None);
        };
        let executed = prepared.execute()?;
        Ok(Some(self.install_batch(executed)?))
    }

    /// Admits every pending request as one batch: journals (and syncs) the
    /// [`WorldEvent::BatchAdmitted`] fact, drains the pending queue, forks
    /// the batch RNG off the persisted root, and hands back everything
    /// execution needs. Returns `None` when nothing is pending.
    ///
    /// The admitted batch *must* be driven to [`ServiceCore::install_batch`]
    /// (crash-safety aside: if the process dies first, recovery re-executes
    /// the journaled admission deterministically). Until it is installed,
    /// the service clock still reads the previous batch's end.
    pub fn begin_batch(&mut self) -> Result<Option<PreparedBatch>, ServiceError> {
        if self.state.pending.is_empty() {
            return Ok(None);
        }
        let batch = self.state.next_batch;
        let request_ids: Vec<u64> = self.state.pending.keys().copied().collect();
        self.append_event(&WorldEvent::BatchAdmitted {
            batch,
            request_ids: request_ids.clone(),
        })?;
        Ok(Some(self.prepare_batch(batch, &request_ids)?))
    }

    /// Installs an executed batch: journals its audit events, records its
    /// outputs, advances the service clock, and snapshots if due.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Journal`] when appending the audits or the snapshot
    /// fails.
    pub fn install_batch(&mut self, executed: ExecutedBatch) -> Result<&BatchRecord, ServiceError> {
        for audit in &executed.audits {
            self.append_event(audit)?;
        }
        self.install_executed(executed);
        self.maybe_snapshot()?;
        Ok(self.state.batches.last().expect("batch just installed"))
    }

    /// The gate a multi-threaded server holds across one
    /// begin/execute/install cycle, so two concurrent `STEP`s cannot
    /// interleave (the second would otherwise begin against a service
    /// clock the first has not advanced yet). Cloned out so it can be
    /// locked while the core's own mutex is free.
    pub fn step_gate(&self) -> Arc<Mutex<()>> {
        Arc::clone(&self.step_gate)
    }

    /// Applies a submission to the state (no journaling). Idempotent.
    fn apply_submit(&mut self, req: RequestSpec) {
        if self.state.acked.insert(req.id) {
            self.state.pending.insert(req.id, req);
        }
    }

    /// Executes batch `batch` over `request_ids` (no journaling): the
    /// replay path. Composed of exactly the same parts as the live path —
    /// [`prepare_batch`](Self::prepare_batch), [`PreparedBatch::execute`],
    /// [`install_executed`](Self::install_executed) — so a recovered
    /// service is byte-identical to one that never crashed. Returns the
    /// audit events describing the outcomes.
    fn apply_batch(
        &mut self,
        batch: u64,
        request_ids: &[u64],
    ) -> Result<Vec<WorldEvent>, ServiceError> {
        let prepared = self.prepare_batch(batch, request_ids)?;
        let executed = prepared.execute()?;
        let audits = executed.audits.clone();
        self.install_executed(executed);
        Ok(audits)
    }

    /// The state-mutating half of batch admission (no journaling):
    /// validates the sequence, resolves and drains the admitted requests,
    /// forks the batch RNG and advances the persisted root.
    fn prepare_batch(
        &mut self,
        batch: u64,
        request_ids: &[u64],
    ) -> Result<PreparedBatch, ServiceError> {
        if batch != self.state.next_batch {
            return Err(corrupt(format!(
                "batch {batch} admitted, expected {}",
                self.state.next_batch
            )));
        }
        let reqs: Vec<RequestSpec> =
            request_ids
                .iter()
                .map(|id| {
                    self.state.pending.get(id).cloned().ok_or_else(|| {
                        corrupt(format!("batch {batch} admits unknown request {id}"))
                    })
                })
                .collect::<Result<_, _>>()?;
        let mut root = SimRng::restore(&self.state.root_rng)
            .ok_or_else(|| corrupt("root RNG state has wrong word counts"))?;
        let batch_rng = root.fork(batch);
        self.state.root_rng = root.save();
        self.state.next_batch = batch + 1;
        for id in request_ids {
            self.state.pending.remove(id);
        }
        Ok(PreparedBatch {
            batch,
            request_ids: request_ids.to_vec(),
            reqs,
            spec: self.state.spec.clone(),
            service_clock: self.state.service_clock,
            batch_rng,
        })
    }

    /// The state-mutating half of batch completion (no journaling).
    fn install_executed(&mut self, executed: ExecutedBatch) {
        self.state.service_clock = executed.end_clock;
        self.state.batches.push(executed.record);
    }

    fn append_event(&mut self, event: &WorldEvent) -> Result<(), ServiceError> {
        self.journal.append(&event.encode())?;
        Ok(())
    }

    /// Writes a snapshot if the cadence says one is due, journaling a
    /// [`WorldEvent::SnapshotTaken`] marker after the file is durable.
    fn maybe_snapshot(&mut self) -> Result<(), ServiceError> {
        if self.cfg.snapshot_every == 0 {
            return Ok(());
        }
        let events = self.journal.next_seq();
        if events.saturating_sub(self.last_snapshot_events) < self.cfg.snapshot_every {
            return Ok(());
        }
        self.snapshot_now()
    }

    /// Unconditionally snapshots the current state.
    pub fn snapshot_now(&mut self) -> Result<(), ServiceError> {
        let events = self.journal.next_seq();
        self.last_snapshot_events = events;
        let payload = serde::to_json(&self.state);
        self.snapshots.write(events, payload.as_bytes())?;
        self.append_event(&WorldEvent::SnapshotTaken {
            events_applied: events,
        })?;
        Ok(())
    }

    /// The scenario this service executes.
    pub fn spec(&self) -> &ScenarioSpec {
        &self.state.spec
    }

    /// Ids acknowledged but not yet admitted, ascending.
    pub fn pending_ids(&self) -> Vec<u64> {
        self.state.pending.keys().copied().collect()
    }

    /// How many requests have ever been acknowledged.
    pub fn acked_count(&self) -> usize {
        self.state.acked.len()
    }

    /// Whether `id` has been acknowledged (pending or already executed).
    pub fn is_acked(&self, id: u64) -> bool {
        self.state.acked.contains(&id)
    }

    /// Every executed batch, in sequence order.
    pub fn batches(&self) -> &[BatchRecord] {
        &self.state.batches
    }

    /// The executed batch with sequence `seq`, if any.
    pub fn batch(&self, seq: u64) -> Option<&BatchRecord> {
        self.state.batches.iter().find(|b| b.seq == seq)
    }

    /// Sequence number the next batch will receive.
    pub fn next_batch(&self) -> u64 {
        self.state.next_batch
    }

    /// The virtual instant the next batch opens at.
    pub fn service_clock(&self) -> SimTime {
        self.state.service_clock
    }

    /// Events currently in the journal (= the next append's sequence).
    pub fn journaled_events(&self) -> u64 {
        self.journal.next_seq()
    }

    /// What the last [`ServiceCore::open`] found on disk.
    pub fn recovery(&self) -> RecoveryInfo {
        self.recovery
    }

    /// The journal directory (for crash-injection tests).
    pub fn journal_dir(&self) -> &Path {
        self.journal.dir()
    }

    /// The full durable state as canonical JSON — the byte-identity probe
    /// used by the crash-recovery suite: two services whose
    /// `state_json` match are indistinguishable, reports, exports,
    /// clocks, RNG and all.
    pub fn state_json(&self) -> String {
        serde::to_json(&self.state)
    }
}

/// Provisions the scenario's world: `pairs` home/guest device pairs
/// (Nexus 4 → Nexus 7), Table 3 apps cycled across pairs, interaction
/// scripts when the spec asks for them, every pair paired.
fn build_world(
    spec: &ScenarioSpec,
) -> Result<(flux_core::FluxWorld, Vec<flux_core::DeviceId>), ServiceError> {
    let n = spec.pairs as usize;
    let apps: Vec<_> = (0..n)
        .map(|i| {
            let name = ScenarioSpec::app_for(i as u64);
            flux_workloads::spec(name)
                .ok_or_else(|| corrupt(format!("workload pool app {name} missing")))
        })
        .collect::<Result<_, _>>()?;
    let mut builder = WorldBuilder::new().seed(spec.seed);
    for (i, app) in apps.iter().enumerate() {
        builder = builder
            .device(&format!("h{i:05}"), DeviceProfile::nexus4())
            .device(&format!("g{i:05}"), DeviceProfile::nexus7_2013())
            .app(2 * i, app.clone());
    }
    let (mut world, ids) = builder.build()?;
    for (i, app) in apps.iter().enumerate() {
        let (home, guest) = (ids[2 * i], ids[2 * i + 1]);
        if spec.scripted {
            world.run_script(home, &app.package.clone(), &app.actions.clone())?;
        }
        flux_core::pair(&mut world, home, guest)?;
    }
    Ok((world, ids))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("flux-service-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_spec() -> ScenarioSpec {
        ScenarioSpec {
            seed: 0x51,
            pairs: 2,
            scripted: false,
            max_in_flight: 2,
        }
    }

    fn cfg(snapshot_every: u64) -> ServiceConfig {
        ServiceConfig {
            snapshot_every,
            journal: JournalConfig {
                segment_bytes: 4096,
                sync_on_append: false,
            },
        }
    }

    fn req(id: u64, pair: u64) -> RequestSpec {
        RequestSpec {
            id,
            pair,
            package: flux_workloads::spec(ScenarioSpec::app_for(pair))
                .unwrap()
                .package,
            priority: 0,
        }
    }

    #[test]
    fn submit_and_step_complete_migrations() {
        let root = tmp_root("basic");
        let mut svc = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
        assert_eq!(svc.submit(req(1, 0)).unwrap(), SubmitAck::Acked);
        assert_eq!(svc.submit(req(2, 1)).unwrap(), SubmitAck::Acked);
        assert_eq!(svc.submit(req(1, 0)).unwrap(), SubmitAck::Duplicate);
        let record = svc.step_batch().unwrap().expect("batch ran");
        assert_eq!(record.request_ids, vec![1, 2]);
        assert_eq!(record.report.completed, 2);
        assert!(!record.chrome_trace.is_empty());
        assert!(svc.pending_ids().is_empty());
        assert!(svc.step_batch().unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reopen_recovers_byte_identical_state() {
        let root = tmp_root("reopen");
        let baseline = {
            let mut svc = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
            svc.submit(req(1, 0)).unwrap();
            svc.submit(req(2, 1)).unwrap();
            svc.step_batch().unwrap();
            svc.submit(req(3, 0)).unwrap();
            svc.state_json()
        };
        let svc = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
        assert_eq!(svc.state_json(), baseline);
        assert_eq!(svc.recovery().truncated_bytes, 0);
        assert_eq!(svc.pending_ids(), vec![3]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn snapshot_shortens_replay_without_changing_state() {
        let root = tmp_root("snap");
        let baseline = {
            let mut svc = ServiceCore::open(&root, tiny_spec(), cfg(2)).unwrap();
            for id in 1..=4 {
                svc.submit(req(id, (id - 1) % 2)).unwrap();
            }
            svc.step_batch().unwrap();
            svc.state_json()
        };
        let svc = ServiceCore::open(&root, tiny_spec(), cfg(2)).unwrap();
        assert_eq!(svc.state_json(), baseline);
        let snap = svc.recovery().snapshot_events.expect("snapshot used");
        assert!(snap > 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_audit_tail_is_recomputed_and_reissued() {
        let root = tmp_root("torn");
        let (baseline, cut) = {
            let mut svc = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
            svc.submit(req(1, 0)).unwrap();
            svc.submit(req(2, 1)).unwrap();
            let before_batch = crate::journal::stream_len(svc.journal_dir()).unwrap();
            svc.step_batch().unwrap();
            // Cut inside the audit train: past BatchAdmitted, before the
            // last audit frame.
            let after = crate::journal::stream_len(svc.journal_dir()).unwrap();
            (svc.state_json(), before_batch + (after - before_batch) / 2)
        };
        crate::journal::truncate_stream_at(&root.join("journal"), cut).unwrap();
        let svc = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
        assert_eq!(svc.state_json(), baseline, "replay must reconverge");
        // Whatever the cut swallowed was reissued: a further reopen is
        // clean and replays the full audit train.
        let again = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
        assert_eq!(again.state_json(), baseline);
        assert_eq!(again.recovery().truncated_bytes, 0);
        assert_eq!(again.recovery().reissued_audits, 0);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Durable state must serialize independently of in-memory insertion
    /// order — the reason every map/set in [`ServiceState`] is a BTree
    /// collection (or explicitly sorted), never a hash collection whose
    /// iteration order varies per process. Submitting the same request set
    /// in opposite orders yields different journals but, once admitted,
    /// byte-identical serialized queues.
    #[test]
    fn state_serialization_is_insertion_order_independent() {
        let run = |ids: &[u64]| {
            let root = tmp_root(&format!("order-{}", ids[0]));
            let mut svc = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
            for id in ids {
                svc.submit(req(*id, (id - 1) % 2)).unwrap();
            }
            let pending = svc.pending_ids();
            svc.step_batch().unwrap();
            let state = svc.state_json();
            std::fs::remove_dir_all(&root).unwrap();
            (pending, state)
        };
        let (pending_fwd, state_fwd) = run(&[1, 2, 3, 4]);
        let (pending_rev, state_rev) = run(&[4, 3, 2, 1]);
        assert_eq!(pending_fwd, vec![1, 2, 3, 4], "pending is sorted");
        assert_eq!(pending_rev, vec![1, 2, 3, 4], "pending sorts on insert");
        assert_eq!(
            state_fwd, state_rev,
            "serialized state must not leak insertion order"
        );
    }

    #[test]
    fn out_of_range_pair_is_rejected_without_journaling() {
        let root = tmp_root("reject");
        let mut svc = ServiceCore::open(&root, tiny_spec(), cfg(0)).unwrap();
        let before = svc.journaled_events();
        assert!(matches!(
            svc.submit(req(9, 7)),
            Err(ServiceError::Invalid(_))
        ));
        assert_eq!(svc.journaled_events(), before);
        assert!(!svc.is_acked(9));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
