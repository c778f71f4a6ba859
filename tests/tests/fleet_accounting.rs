//! The fleet's slice-accounting contract, asserted structurally.
//!
//! The engine logs each migration's stage-level slice schedule as it
//! advances the clock, and the fleet scheduler re-times those slices on
//! the shared radio medium. This suite executes the schedules most
//! likely to break that accounting — mid-transfer rollbacks, mid-stage
//! kills and pauses, pre-copy rounds and fused pipeline windows,
//! contended priorities — through both executors and asserts, for every
//! executed migration, that its schedule tiles its wall: no empty slice,
//! durations summing to `wall()`, and radio payloads only under the
//! stages that key the radio. The scheduler then replays each batch at
//! several `max_in_flight` settings: contention may only stretch a
//! flight past its isolated wall, and fully serialised admission
//! reproduces the serialized makespan exactly.

mod common;

use flux_core::{
    DeviceId, ExecutedMigration, Executor, FleetConfig, FleetOutcome, FleetScheduler,
    LifecycleEvent, MigrationConfig, MigrationRequest, MigrationStage, ParallelExecutor,
    RetryPolicy, SerialExecutor, SliceKind,
};
use flux_simcore::SimDuration;

/// The Table 3 slice the grid migrates: a size spread wide enough that
/// admitted flights constantly overlap on the radio medium.
const APPS: [&str; 6] = [
    "WhatsApp",
    "Twitter",
    "Instagram",
    "Candy Crush Saga",
    "Snapchat",
    "Vine",
];

fn requests(pairs: &[(DeviceId, DeviceId, String)]) -> Vec<MigrationRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (home, guest, pkg))| {
            let id = i as u64 + 1;
            let mut req =
                MigrationRequest::new(id, *home, *guest, pkg).with_priority((i % 3) as u8);
            match id % 3 {
                // Every third flight rolls back mid-transfer …
                0 => {
                    req = req
                        .with_faults(common::blanket_drops())
                        .with_config(MigrationConfig {
                            retry: RetryPolicy::none(),
                            ..MigrationConfig::default()
                        });
                }
                // … every third is interrupted mid-stage: a kill in the
                // preparation window cold-restarts, a pause lands
                // between transfer chunks …
                1 => {
                    req = req
                        .with_interrupt(
                            MigrationStage::Preparation,
                            SimDuration::from_millis(1),
                            LifecycleEvent::Kill,
                        )
                        .with_interrupt(
                            MigrationStage::Transfer,
                            SimDuration::from_secs(1),
                            LifecycleEvent::Pause,
                        );
                }
                // … and the rest run pre-copy rounds and the fused
                // pipeline window, one of them killed mid-transfer so it
                // rolls back after its radio windows.
                _ => {
                    req = req.with_config(MigrationConfig::pipelined());
                    if id == 5 {
                        req = req.with_interrupt(
                            MigrationStage::Transfer,
                            SimDuration::from_millis(500),
                            LifecycleEvent::Kill,
                        );
                    }
                }
            }
            req
        })
        .collect()
}

/// The structural slice contract every executed migration satisfies.
fn assert_tiles(id: u64, exec: &ExecutedMigration) {
    let schedule = exec.schedule();
    for (i, slice) in schedule.iter().enumerate() {
        assert!(
            slice.dur > SimDuration::ZERO,
            "request {id} slice {i} ({slice:?}) is empty"
        );
        if matches!(slice.kind, SliceKind::Transfer { .. }) {
            assert!(
                matches!(slice.stage, "precopy" | "transfer"),
                "request {id} slice {i}: radio payload under stage {:?}",
                slice.stage
            );
        }
    }
    let total = schedule
        .iter()
        .fold(SimDuration::ZERO, |acc, s| acc + s.dur);
    assert_eq!(
        total,
        exec.wall(),
        "request {id}: slices must tile the wall"
    );
}

fn has_radio_under(exec: &ExecutedMigration, stage: &str) -> bool {
    exec.schedule()
        .iter()
        .any(|s| s.stage == stage && matches!(s.kind, SliceKind::Transfer { .. }))
}

#[test]
fn executed_schedules_tile_their_wall_across_overrun_prone_grids() {
    for parallel in [false, true] {
        let executor: Box<dyn Executor> = if parallel {
            Box::new(ParallelExecutor::auto())
        } else {
            Box::new(SerialExecutor)
        };
        let (mut world, pairs) = common::fleet_world(&APPS, common::SEED);
        let batch = requests(&pairs);
        let execs = executor.execute(&mut world, &batch);
        assert_eq!(execs.len(), batch.len());
        for (req, exec) in batch.iter().zip(&execs) {
            assert_tiles(req.id, exec);
        }
        // The grid really reaches the paths it claims to cover: the link
        // drops and the mid-transfer kill roll back, the rest complete.
        let rolled_back: Vec<u64> = batch
            .iter()
            .zip(&execs)
            .filter(|(_, e)| matches!(e.outcome(), FleetOutcome::RolledBack { .. }))
            .map(|(req, _)| req.id)
            .collect();
        assert_eq!(rolled_back, vec![3, 5, 6]);
        assert!(execs.iter().any(|e| has_radio_under(e, "precopy")));
        assert!(execs.iter().any(|e| has_radio_under(e, "transfer")));

        // Saturation axis: serialise fully, the in-between, and admit
        // everything at once — each re-times the same slices differently.
        for max_in_flight in [1, 2, APPS.len()] {
            let (mut world, pairs) = common::fleet_world(&APPS, common::SEED);
            let scheduler = FleetScheduler::new(FleetConfig {
                max_in_flight,
                ..FleetConfig::default()
            })
            .unwrap();
            let scheduler = if parallel {
                scheduler.with_executor(ParallelExecutor::auto())
            } else {
                scheduler
            };
            let report = scheduler.run(&mut world, requests(&pairs)).unwrap();
            assert_eq!(report.flights.len(), APPS.len());
            for (flight, (req, exec)) in report.flights.iter().zip(batch.iter().zip(&execs)) {
                assert_eq!(flight.id, req.id);
                assert!(
                    flight.finished_at.since(flight.admitted_at) >= exec.wall(),
                    "max_in_flight {max_in_flight} parallel {parallel}: request {} \
                     finished inside its isolated wall",
                    req.id
                );
            }
            if max_in_flight == 1 {
                assert_eq!(report.makespan, report.serialized_makespan);
            }
        }
    }
}
