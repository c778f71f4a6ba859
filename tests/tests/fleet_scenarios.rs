//! Table-driven regression scenarios for the fleet migration engine.
//!
//! Each scenario stages one device pair per app, submits the batch through
//! the [`FleetScheduler`] and asserts per-app state integrity through the
//! shared data-loss oracle ([`OracleSnapshot`]) — the conditions
//! Riganelli et al.'s benchmark shows concurrent Android systems get
//! wrong: record logs replayed exactly once, app data trees intact on the
//! target, rolled-back migrations leaving their home device
//! byte-identical and their guest residue-free.
//!
//! The suite also pins the fleet path's fidelity: a single-request fleet
//! must reproduce a direct `migrate` run's report *exactly* (same Debug
//! rendering, same stage times) once the direct run is handed the same
//! forked RNG stream the executor assigns request 1, with the fleet
//! makespan equal to the report's wall total — and the clock contract
//! where the engine's clock meets the fleet's: stage-anchored interrupt
//! offsets count isolated engine time, untouched by medium contention.

mod common;

use flux_appfw::ActivityState;
use flux_core::{
    migrate, DeviceId, FleetConfig, FleetScheduler, FlightRecord, LifecycleEvent, MigrationConfig,
    MigrationRequest, MigrationSpec, MigrationStage, OracleSnapshot, RetryPolicy, ScenarioOutcome,
    FLEET_RNG_STREAM,
};
use flux_simcore::SimDuration;

struct Scenario {
    name: &'static str,
    apps: &'static [&'static str],
    max_in_flight: usize,
    /// Request id (1-based position) that gets [`blanket_drops`] and a
    /// no-retry policy, forcing a mid-transfer rollback.
    drop_victim: Option<u64>,
    /// Per-request admission priorities.
    priorities: &'static [u8],
}

const SCENARIOS: [Scenario; 4] = [
    Scenario {
        name: "single request",
        apps: &["WhatsApp"],
        max_in_flight: 2,
        drop_victim: None,
        priorities: &[0],
    },
    Scenario {
        name: "two concurrent",
        apps: &["WhatsApp", "Twitter"],
        max_in_flight: 2,
        drop_victim: None,
        priorities: &[0, 0],
    },
    Scenario {
        name: "three concurrent, one dropped mid-flight",
        apps: &["WhatsApp", "Twitter", "Instagram"],
        max_in_flight: 3,
        drop_victim: Some(2),
        priorities: &[0, 0, 0],
    },
    Scenario {
        name: "serialised with priorities",
        apps: &["WhatsApp", "Twitter"],
        max_in_flight: 1,
        drop_victim: None,
        priorities: &[0, 5],
    },
];

#[test]
fn scenarios_preserve_per_app_state_under_contention() {
    for s in &SCENARIOS {
        let (mut world, pairs) = common::fleet_world(s.apps, 9001);

        // Snapshot each home app's promised state through the shared
        // data-loss oracle (data tree + record-log length).
        let mut pre = Vec::new();
        for (home, guest, pkg) in &pairs {
            let snap = OracleSnapshot::capture(&world, *home, *guest, pkg).unwrap();
            assert!(snap.file_count() > 0, "{}: {pkg} staged no data", s.name);
            pre.push(snap);
        }

        let requests: Vec<_> = pairs
            .iter()
            .enumerate()
            .map(|(i, (home, guest, pkg))| {
                let id = i as u64 + 1;
                let mut req =
                    MigrationRequest::new(id, *home, *guest, pkg).with_priority(s.priorities[i]);
                if s.drop_victim == Some(id) {
                    req = req
                        .with_faults(common::blanket_drops())
                        .with_config(MigrationConfig {
                            retry: RetryPolicy::none(),
                            ..MigrationConfig::default()
                        });
                }
                req
            })
            .collect();

        let scheduler = FleetScheduler::new(FleetConfig {
            max_in_flight: s.max_in_flight,
            ..FleetConfig::default()
        })
        .unwrap();
        let report = scheduler.run(&mut world, requests).unwrap();

        assert_eq!(
            report.flights.len(),
            s.apps.len(),
            "{}: every request reaches a terminal outcome",
            s.name
        );
        assert!(report.peak_in_flight <= s.max_in_flight, "{}", s.name);

        for (flight, ((_, guest, pkg), pre)) in report.flights.iter().zip(pairs.iter().zip(&pre)) {
            let ctx = format!("{}: {pkg}", s.name);
            // The shared oracle carries all the data-loss checks: replay
            // coverage, guest-mirror byte-equality, rollback invariants.
            let verdict = pre.verdict_for(&world, &flight.outcome);
            assert!(
                verdict.is_clean(),
                "{ctx}: {:?} -> {:?}",
                verdict.outcome,
                verdict.failures
            );
            if s.drop_victim == Some(flight.id) {
                // The victim — and only the victim — rolled back.
                assert_eq!(
                    verdict.outcome,
                    ScenarioOutcome::RolledBack,
                    "{ctx}: expected rollback, got {:?}",
                    flight.outcome
                );
            } else {
                assert_eq!(
                    verdict.outcome,
                    ScenarioOutcome::Completed,
                    "{ctx}: expected completion, got {:?}",
                    flight.outcome
                );
                // Beyond the oracle's guarantees: the app is foregrounded
                // on the guest.
                let guest_dev = world.device(*guest).unwrap();
                let app = guest_dev.apps.get(pkg).expect("app on guest");
                assert_eq!(app.top_state(), Some(ActivityState::Resumed), "{ctx}");
            }
        }

        // Scheduling-shape assertions.
        match s.name {
            "two concurrent" | "three concurrent, one dropped mid-flight" => {
                // All admitted together at batch open.
                for flight in &report.flights {
                    assert_eq!(flight.admitted_at, report.started_at, "{}", s.name);
                }
                assert!(report.peak_in_flight >= 2, "{}", s.name);
                assert!(
                    report.makespan < report.serialized_makespan,
                    "{}: concurrency must beat serialization",
                    s.name
                );
            }
            "serialised with priorities" => {
                // Priority 5 (request 2) admits before priority 0
                // (request 1) even though its id is larger.
                let by_id = &report.flights;
                assert!(
                    by_id[1].admitted_at < by_id[0].admitted_at,
                    "{}: high priority admits first",
                    s.name
                );
                assert_eq!(report.peak_in_flight, 1, "{}", s.name);
                assert_eq!(report.makespan, report.serialized_makespan, "{}", s.name);
            }
            _ => {}
        }
    }
}

#[test]
fn single_request_fleet_matches_direct_migrate_exactly() {
    // Two identically-seeded worlds: one migrates directly, one through
    // the fleet path. The underlying engine must be indistinguishable.
    let (mut direct, pairs_d) = common::fleet_world(&["WhatsApp"], 4242);
    let (mut fleet, pairs_f) = common::fleet_world(&["WhatsApp"], 4242);
    let (home_d, guest_d, pkg) = pairs_d[0].clone();
    let (home_f, guest_f, _) = pairs_f[0].clone();

    // The executor forks one RNG root off the world's network stream per
    // batch, then gives each request the root's id-keyed fork; hand the
    // direct world request 1's exact stream.
    let mut root = direct.net.fork_rng(FLEET_RNG_STREAM);
    direct.net.set_rng(root.fork(1));
    let reference = migrate(
        &mut direct,
        MigrationSpec::new(&pkg)
            .between(home_d, guest_d)
            .config(MigrationConfig::default()),
    )
    .unwrap();
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(
            &mut fleet,
            vec![MigrationRequest::new(1, home_f, guest_f, &pkg)],
        )
        .unwrap();

    assert_eq!(report.flights.len(), 1);
    let flight = &report.flights[0];
    let fleet_report = flight.outcome.report().expect("completed");

    // The underlying report is byte-identical to the direct run's.
    assert_eq!(format!("{reference:?}"), format!("{fleet_report:?}"));
    // The world clocks marched in lockstep.
    assert_eq!(direct.clock.now(), fleet.clock.now());
    // The fleet timeline reproduces the serial figures exactly: zero
    // queue wait, a transfer window of exactly the transfer stage, and a
    // makespan of exactly the report's wall total.
    assert_eq!(flight.queue_wait(), SimDuration::ZERO);
    assert_eq!(
        flight.transfer_end.since(flight.transfer_start),
        reference.stages.transfer
    );
    assert_eq!(report.makespan, reference.stages.wall_total());
    assert_eq!(report.makespan, report.serialized_makespan);
    assert_eq!(report.completed, 1);
}

#[test]
fn interrupt_offsets_count_isolated_engine_time_under_contention() {
    // Executors run every migration to completion in its shard before the
    // fleet applies medium contention, so an `At(stage, offset)` interrupt
    // lands at the same engine instant whether its request flies alone or
    // shares the air.
    const APPS: [&str; 4] = ["Instagram", "Candy Crush Saga", "Snapchat", "Vine"];
    let victim = |pairs: &[(DeviceId, DeviceId, String)]| {
        let (home, guest, pkg) = &pairs[0];
        MigrationRequest::new(1, *home, *guest, pkg)
            .with_interrupt(
                MigrationStage::Checkpoint,
                SimDuration::from_millis(10),
                LifecycleEvent::Pause,
            )
            .with_interrupt(
                MigrationStage::Transfer,
                SimDuration::from_secs(1),
                LifecycleEvent::Stop,
            )
    };
    let scheduler = FleetScheduler::new(FleetConfig {
        max_in_flight: APPS.len(),
        ..FleetConfig::default()
    })
    .unwrap();

    // Alone: the same staging (seed and device ids), one request.
    let (mut world, pairs) = common::fleet_world(&APPS, 9001);
    let alone = scheduler.run(&mut world, vec![victim(&pairs)]).unwrap();
    // Contended: every pair migrates at once through the default one-cell
    // medium.
    let (mut world, pairs) = common::fleet_world(&APPS, 9001);
    let mut batch = vec![victim(&pairs)];
    batch.extend(
        pairs[1..]
            .iter()
            .zip(2..)
            .map(|((home, guest, pkg), id)| MigrationRequest::new(id, *home, *guest, pkg)),
    );
    let contended = scheduler.run(&mut world, batch).unwrap();
    assert_eq!(contended.peak_in_flight, APPS.len());

    let (solo, shared) = (&alone.flights[0], &contended.flights[0]);
    let solo_report = solo.outcome.report().expect("completes alone");
    let shared_report = shared.outcome.report().expect("completes under contention");
    assert_eq!(solo_report.interrupts.len(), 2, "both interrupts land");
    assert_eq!(solo_report.interrupts, shared_report.interrupts);
    // The engine run itself is the isolated one in both fleets.
    assert_eq!(format!("{solo_report:?}"), format!("{shared_report:?}"));
    // ... while contention really stretched the flight on the fleet clock.
    let window = |f: &FlightRecord| f.transfer_end.since(f.transfer_start);
    assert!(
        window(shared) > window(solo),
        "contended transfer window {} is not longer than the solo {}",
        window(shared),
        window(solo)
    );
}
