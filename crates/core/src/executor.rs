//! The fleet execution engine: one [`Executor`] API, serial and parallel
//! implementations, deterministic by construction.
//!
//! # The execute/schedule split
//!
//! A fleet run has two halves. *Execution* runs the five-stage engine for
//! every admitted request and measures its shape — not three coarse
//! phases, but the full stage-level [`Slice`] schedule: every pre-copy
//! round, freeze-phase residue ship and record-log transfer is its own
//! slice, logged by the engine as it advanced the shard clock
//! ([`engine::run_sliced`]). *Scheduling* places those slices on the
//! fleet timeline under admission control and medium contention, admitting
//! each transfer-bearing slice onto the radio individually. The
//! [`FleetScheduler`](crate::FleetScheduler) owns scheduling; it delegates
//! execution to an [`Executor`], which runs every request **up front**, in
//! the canonical order (priority descending, request id ascending), each
//! inside a private *world shard*.
//!
//! # World shards
//!
//! A shard is a two-device [`FluxWorld`] built by *moving* the request's
//! home and guest devices out of the main world (cheap placeholders keep
//! the indices stable), with:
//!
//! * a **private clock** starting at the batch-open instant — every
//!   request executes at the same virtual instant whatever its admission
//!   order, and absolute-time comparisons (e.g. alarm expiry against
//!   recorded timestamps) behave exactly as a lone migration run at batch
//!   open would;
//! * a **forked RNG stream**: one draw leaves the world's network stream
//!   per batch (never per request), and each request's stream is derived
//!   from that draw and its id — so streams are independent of batch
//!   order, batch size and executor;
//! * a **private telemetry hub**, absorbed into the world hub at the
//!   request's admission instant (shifted by it), in admission order —
//!   the `(SimTime, id)` merge key;
//! * the request's own fault plan shifted onto the batch-open instant
//!   (it is request-relative by contract), or the world's ambient plan
//!   verbatim.
//!
//! # Conflict groups
//!
//! Two requests conflict when they share a device in either role (the
//! per-guest image cache lives under the guest's pairing root, so device
//! disjointness also implies disjoint cache partitions). Requests are
//! partitioned into groups by a per-device chain rule: a request lands in
//! the group after the last group any of its devices appears in. Within a
//! group, members touch pairwise-disjoint device sets, so
//! [`ParallelExecutor`] may run them on OS threads; groups execute in
//! order with a barrier between them, preserving the canonical per-device
//! execution order. [`SerialExecutor`] runs the identical shard pipeline
//! one request at a time, so the two executors are byte-identical by
//! construction — the property the executor proptests and the throughput
//! bench assert.

use crate::engine::{self, StageFailure};
use crate::errors::FluxError;
use crate::fleet::{FleetOutcome, MigrationRequest};
use crate::record::RecordStore;
use crate::world::{Device, DeviceId, FluxWorld};
use flux_device::DeviceProfile;
use flux_kernel::Kernel;
use flux_services::ServiceHost;
use flux_simcore::{CostModel, FaultPlan, Pid, SimClock, SimDuration, SimRng, SimTime};
use flux_telemetry::{LaneId, Telemetry};
use std::collections::BTreeMap;
use std::fmt;

pub use crate::engine::slices::{Slice, SliceKind};

/// The stream label the executor forks the per-batch RNG root from, off
/// the world's network environment. Public so tests can reproduce a
/// request's exact stream: `world.net.fork_rng(FLEET_RNG_STREAM)` then
/// [`SimRng::fork`] with the request id.
pub const FLEET_RNG_STREAM: u64 = 0xf1ee7;

/// The measured shape of one executed migration, ready for the scheduler
/// to place on the fleet timeline.
#[derive(Debug)]
pub struct ExecutedMigration {
    pub(crate) outcome: FleetOutcome,
    /// The stage-level slice schedule covering the full measured wall
    /// time, in order. Empty for pre-flight refusals (which are free).
    pub(crate) schedule: Vec<Slice>,
    /// The shard's telemetry record, timed from batch open; the scheduler
    /// absorbs it into the world hub shifted to the admission instant.
    pub(crate) telemetry: Telemetry,
}

impl ExecutedMigration {
    /// How the request ended.
    pub fn outcome(&self) -> &FleetOutcome {
        &self.outcome
    }

    /// The stage-level slice schedule, in execution order.
    pub fn schedule(&self) -> &[Slice] {
        &self.schedule
    }

    /// Wall-clock (virtual) span of the execution, medium contention not
    /// yet applied: the sum of the schedule's slice durations.
    pub fn wall(&self) -> SimDuration {
        self.schedule
            .iter()
            .fold(SimDuration::ZERO, |acc, s| acc + s.dur)
    }
}

/// Runs a batch of admitted migration requests and returns their measured
/// shapes, in input order.
///
/// Implementations must be deterministic functions of `(world, requests)`
/// — two identically-seeded worlds given the same batch must produce
/// byte-identical shapes, telemetry included, whatever the implementation's
/// internal concurrency. `requests` are pre-validated by the scheduler
/// (unique ids).
pub trait Executor: fmt::Debug + Send + Sync {
    /// Short human-readable name for reports and bench output.
    fn name(&self) -> &'static str;

    /// Executes every request and returns one shape per request, aligned
    /// with `requests`.
    fn execute(
        &self,
        world: &mut FluxWorld,
        requests: &[MigrationRequest],
    ) -> Vec<ExecutedMigration>;
}

/// The reference executor: the shard pipeline, one request at a time, on
/// the calling thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SerialExecutor;

impl Executor for SerialExecutor {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(
        &self,
        world: &mut FluxWorld,
        requests: &[MigrationRequest],
    ) -> Vec<ExecutedMigration> {
        execute_batch(world, requests, 1)
    }
}

/// Runs each conflict group's shards on OS threads.
///
/// Output is byte-identical to [`SerialExecutor`] for any worker count:
/// shards are isolated, streams are pre-assigned, and merging happens on
/// the calling thread in canonical order after each group's barrier.
#[derive(Debug, Clone, Copy)]
pub struct ParallelExecutor {
    workers: usize,
}

impl ParallelExecutor {
    /// An executor with an explicit worker-thread count (clamped to at
    /// least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// An executor sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Default for ParallelExecutor {
    fn default() -> Self {
        Self::auto()
    }
}

impl Executor for ParallelExecutor {
    fn name(&self) -> &'static str {
        "parallel"
    }

    fn execute(
        &self,
        world: &mut FluxWorld,
        requests: &[MigrationRequest],
    ) -> Vec<ExecutedMigration> {
        execute_batch(world, requests, self.workers)
    }
}

// Worker threads move whole shard worlds; this pins the Send-ability the
// executor relies on (e.g. `SystemService: Send`) at compile time.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FluxWorld>();
};

/// The canonical execution order: priority descending, id ascending —
/// the same key the scheduler's admission queue sorts by.
pub(crate) fn canonical_order(requests: &[MigrationRequest]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..requests.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(requests[i].priority), requests[i].id));
    order
}

/// Partitions `order` into conflict-free groups: a request lands one group
/// after the last group either of its devices appears in, so group members
/// are pairwise device-disjoint and every device sees its requests in
/// canonical order across groups.
pub(crate) fn conflict_groups(requests: &[MigrationRequest], order: &[usize]) -> Vec<Vec<usize>> {
    let mut last_group: BTreeMap<usize, usize> = BTreeMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for &idx in order {
        let req = &requests[idx];
        let g = [req.home.0, req.guest.0]
            .iter()
            .filter_map(|d| last_group.get(d))
            .max()
            .map_or(0, |&m| m + 1);
        if g == groups.len() {
            groups.push(Vec::new());
        }
        groups[g].push(idx);
        last_group.insert(req.home.0, g);
        last_group.insert(req.guest.0, g);
    }
    groups
}

/// One detached request: its two-device shard world plus what is needed to
/// put the main world back together.
struct ShardSlot {
    idx: usize,
    world: FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    home_lane: LaneId,
    guest_lane: LaneId,
    /// Pairing previously keyed by main-world device 0 on the guest, if
    /// the home-id remap displaced it.
    displaced: Option<crate::world::Pairing>,
    /// The measured shape; its telemetry is filled in at reattach.
    exec: Option<ExecutedMigration>,
}

/// The shared execute pipeline: canonical order, conflict groups, shard
/// per request, `workers` OS threads per group (1 = on-thread), merge on
/// the calling thread in canonical order.
fn execute_batch(
    world: &mut FluxWorld,
    requests: &[MigrationRequest],
    workers: usize,
) -> Vec<ExecutedMigration> {
    let order = canonical_order(requests);
    let groups = conflict_groups(requests, &order);
    // One draw leaves the world's stream per batch; every request stream
    // derives from the same root, keyed by id, so assignment is
    // order-independent.
    let root = world.net.fork_rng(FLEET_RNG_STREAM);
    let start = world.clock.now();
    let batch_offset = start.since(SimTime::ZERO);

    let mut results: Vec<Option<ExecutedMigration>> = (0..requests.len()).map(|_| None).collect();
    for group in groups {
        let mut slots: Vec<ShardSlot> = Vec::with_capacity(group.len());
        for &idx in &group {
            let req = &requests[idx];
            if req.home == req.guest
                || world.device(req.home).is_err()
                || world.device(req.guest).is_err()
            {
                // No shard can be built; the engine refuses these
                // pre-flight without consuming time or randomness, so run
                // it against the main world at its canonical position.
                results[idx] = Some(execute_direct(world, req));
                continue;
            }
            let rng = root.clone().fork(req.id);
            let plan = if req.faults.is_empty() {
                world.fault_plan.clone()
            } else {
                req.faults.shifted_by(batch_offset)
            };
            slots.push(detach(world, idx, req, rng, plan, start));
        }

        if workers <= 1 || slots.len() <= 1 {
            for slot in &mut slots {
                slot.exec = Some(run_in_shard(&mut slot.world, &requests[slot.idx]));
            }
        } else {
            let per_worker = slots.len().div_ceil(workers);
            std::thread::scope(|scope| {
                for chunk in slots.chunks_mut(per_worker) {
                    scope.spawn(move || {
                        for slot in chunk {
                            slot.exec = Some(run_in_shard(&mut slot.world, &requests[slot.idx]));
                        }
                    });
                }
            });
        }

        for slot in slots {
            let idx = slot.idx;
            results[idx] = Some(reattach(world, slot));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every request executed"))
        .collect()
}

/// Moves the request's devices out of `world` into a fresh two-device
/// shard (home = device 0, guest = device 1) whose clock opens at
/// `start`, remapping the guest's pairing key and the device telemetry
/// lanes to shard-local values.
fn detach(
    world: &mut FluxWorld,
    idx: usize,
    req: &MigrationRequest,
    rng: SimRng,
    plan: FaultPlan,
    start: SimTime,
) -> ShardSlot {
    let mut home_dev = std::mem::replace(&mut world.devices[req.home.0], placeholder_device());
    let mut guest_dev = std::mem::replace(&mut world.devices[req.guest.0], placeholder_device());
    let mut telemetry = if world.telemetry.is_enabled() {
        Telemetry::new()
    } else {
        Telemetry::disabled()
    };
    let home_lane = home_dev.lane;
    let guest_lane = guest_dev.lane;
    home_dev.lane = telemetry.lane(&home_dev.name);
    guest_dev.lane = telemetry.lane(&guest_dev.name);
    // Pairings are keyed by the *home device id*; inside the shard the
    // home is device 0. Preserve whatever the guest already keyed at 0.
    let displaced = if req.home.0 != 0 {
        let pairing = guest_dev.pairings.remove(&req.home.0);
        let displaced = guest_dev.pairings.remove(&0);
        if let Some(p) = pairing {
            guest_dev.pairings.insert(0, p);
        }
        displaced
    } else {
        None
    };
    let mut clock = SimClock::new();
    clock.advance_to(start);
    let shard = FluxWorld {
        clock,
        net: world.net.with_rng(rng),
        telemetry,
        policy: world.policy,
        recording: world.recording,
        fault_plan: plan,
        devices: vec![home_dev, guest_dev],
    };
    ShardSlot {
        idx,
        world: shard,
        home: req.home,
        guest: req.guest,
        home_lane,
        guest_lane,
        displaced,
        exec: None,
    }
}

/// Moves the shard's devices back into the main world, undoing the lane
/// and pairing-key remaps, and returns the shard's measured shape with
/// its telemetry record.
fn reattach(world: &mut FluxWorld, slot: ShardSlot) -> ExecutedMigration {
    let mut exec = slot.exec.expect("group barrier ran every shard");
    let mut shard = slot.world;
    let mut guest_dev = shard.devices.pop().expect("shard guest");
    let mut home_dev = shard.devices.pop().expect("shard home");
    home_dev.lane = slot.home_lane;
    guest_dev.lane = slot.guest_lane;
    if slot.home.0 != 0 {
        if let Some(p) = guest_dev.pairings.remove(&0) {
            guest_dev.pairings.insert(slot.home.0, p);
        }
        if let Some(p) = slot.displaced {
            guest_dev.pairings.insert(0, p);
        }
    }
    world.devices[slot.home.0] = home_dev;
    world.devices[slot.guest.0] = guest_dev;
    exec.telemetry = shard.telemetry;
    exec
}

/// Runs the engine inside a shard (home = 0, guest = 1). The shard clock
/// opened at the batch instant, so the schedule starts there.
fn run_in_shard(shard: &mut FluxWorld, req: &MigrationRequest) -> ExecutedMigration {
    let (result, schedule) = engine::run_sliced(
        shard,
        DeviceId(0),
        DeviceId(1),
        &req.package,
        &req.cfg,
        &req.interrupts,
    );
    shard.telemetry.finish(shard.clock.now());
    assemble(result, schedule)
}

/// Executes a request that cannot be sharded (unknown device, home ==
/// guest) against the main world. The engine refuses such requests
/// pre-flight, before consuming virtual time or randomness.
fn execute_direct(world: &mut FluxWorld, req: &MigrationRequest) -> ExecutedMigration {
    let (result, schedule) = engine::run_sliced(
        world,
        req.home,
        req.guest,
        &req.package,
        &req.cfg,
        &req.interrupts,
    );
    assemble(result, schedule)
}

/// Classifies one engine result and pairs it with its slice schedule;
/// the telemetry record is left empty for the caller to fill.
///
/// A rolled-back request holds its devices for its whole measured span
/// (attempts, backoff, rollback), and any air time its partial transfers
/// actually consumed is charged to the medium slice by slice. A refusal is
/// pre-flight and free (empty schedule).
fn assemble(
    result: Result<crate::MigrationReport, FluxError>,
    schedule: Vec<Slice>,
) -> ExecutedMigration {
    let outcome = match result {
        Ok(report) => FleetOutcome::Completed(report),
        Err(error) => {
            let rolled_back = matches!(
                error,
                FluxError::Migration(
                    StageFailure::FaultAborted { .. }
                        | StageFailure::Interrupted { .. }
                        | StageFailure::RollbackFailed { .. }
                )
            );
            if rolled_back {
                FleetOutcome::RolledBack { error }
            } else {
                FleetOutcome::Refused { error }
            }
        }
    };
    ExecutedMigration {
        outcome,
        schedule,
        telemetry: Telemetry::disabled(),
    }
}

/// A hollow stand-in occupying a detached device's slot so indices stay
/// stable while the real device is out in a shard. Never observed by the
/// engine (group members are device-disjoint) and replaced before
/// `execute` returns.
fn placeholder_device() -> Device {
    Device {
        name: String::new(),
        profile: DeviceProfile::nexus4(),
        kernel: Kernel::new("0"),
        host: ServiceHost::new(Pid(0), BTreeMap::new()),
        fs: flux_fs::SimFs::new(),
        apps: BTreeMap::new(),
        specs: BTreeMap::new(),
        records: RecordStore::default(),
        cost: CostModel::reference(),
        pairings: BTreeMap::new(),
        lane: LaneId::WORLD,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, home: usize, guest: usize) -> MigrationRequest {
        MigrationRequest::new(id, DeviceId(home), DeviceId(guest), "app")
    }

    #[test]
    fn canonical_order_sorts_by_priority_then_id() {
        let requests = vec![req(3, 0, 1), req(1, 2, 3).with_priority(1), req(2, 4, 5)];
        assert_eq!(canonical_order(&requests), vec![1, 2, 0]);
    }

    #[test]
    fn disjoint_requests_share_one_group() {
        let requests = vec![req(1, 0, 1), req(2, 2, 3), req(3, 4, 5)];
        let order = canonical_order(&requests);
        assert_eq!(conflict_groups(&requests, &order), vec![vec![0, 1, 2]]);
    }

    #[test]
    fn shared_devices_chain_into_later_groups() {
        // 1 and 2 share a home; 3 targets 1's guest; 4 is independent.
        let requests = vec![req(1, 0, 1), req(2, 0, 2), req(3, 3, 1), req(4, 5, 6)];
        let order = canonical_order(&requests);
        let groups = conflict_groups(&requests, &order);
        assert_eq!(groups, vec![vec![0, 3], vec![1, 2]]);
    }

    #[test]
    fn chain_rule_keeps_per_device_canonical_order() {
        // A chain a->b, b->c, c->d: every link shares a device with the
        // previous one, so each lands in its own group.
        let requests = vec![req(1, 0, 1), req(2, 1, 2), req(3, 2, 3)];
        let order = canonical_order(&requests);
        let groups = conflict_groups(&requests, &order);
        assert_eq!(groups, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn role_crossing_still_conflicts() {
        // Same device as source of one and target of another: the
        // scheduler would allow those windows to overlap (role-crossed
        // sharing), but execution still serialises them for determinism.
        let requests = vec![req(1, 0, 1), req(2, 2, 0)];
        let order = canonical_order(&requests);
        let groups = conflict_groups(&requests, &order);
        assert_eq!(groups.len(), 2);
    }
}
