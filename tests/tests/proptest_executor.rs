//! Serial/parallel executor equivalence, property-tested.
//!
//! The [`Executor`](flux_core::Executor) contract says the executor is
//! invisible: for any batch, `ParallelExecutor` must produce output
//! byte-identical to `SerialExecutor` — the fleet report (Debug
//! rendering), the world clock, *and the telemetry exports*, down to the
//! Chrome-trace byte stream — whatever the worker-thread count. The
//! worker counts exercised default to 1, 2 and 8 and can be overridden
//! with the `FLUX_PROPTEST_WORKERS` env var (comma-separated), which the
//! CI proptest lanes use to pin distinct configurations.
//!
//! A serialization round-trip property rides along: the `FleetReport`
//! JSON emitted through the vendored `serde` facade must parse with the
//! vendored JSON parser and re-render byte-identically (the parser stores
//! number lexemes verbatim, so this is exact).

mod common;

use flux_core::{
    FleetConfig, FleetOutcome, FleetReport, FleetScheduler, FluxWorld, MigrationConfig,
    MigrationRequest, ParallelExecutor, RetryPolicy,
};
use flux_telemetry::export::{chrome_trace, json_snapshot};
use proptest::prelude::*;

/// Migratable Table 3 apps (no `multi_process`, no `preserve_egl`).
const POOL: [&str; 4] = ["WhatsApp", "Twitter", "Instagram", "Netflix"];

/// Worker-thread counts under test: `FLUX_PROPTEST_WORKERS` (e.g. `"4"`
/// or `"1,2,8"`), defaulting to 1, 2 and 8.
fn worker_configs() -> Vec<usize> {
    match std::env::var("FLUX_PROPTEST_WORKERS") {
        Ok(s) => s
            .split(',')
            .map(|w| w.trim().parse().expect("FLUX_PROPTEST_WORKERS: integers"))
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

fn requests_for(
    pairs: &[(flux_core::DeviceId, flux_core::DeviceId, String)],
    victim: Option<u64>,
) -> Vec<MigrationRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, (home, guest, pkg))| {
            let id = i as u64 + 1;
            let mut req = MigrationRequest::new(id, *home, *guest, pkg);
            if victim == Some(id) {
                req = req
                    .with_faults(common::blanket_drops())
                    .with_config(MigrationConfig {
                        retry: RetryPolicy::none(),
                        ..MigrationConfig::default()
                    });
            }
            req
        })
        .collect()
}

/// Everything observable from one fleet run, rendered to comparable bytes.
struct RunImage {
    report: FleetReport,
    report_debug: String,
    clock: flux_simcore::SimTime,
    chrome: String,
    snapshot: String,
}

fn run_with(
    mut world: FluxWorld,
    requests: Vec<MigrationRequest>,
    limit: usize,
    workers: Option<usize>,
) -> RunImage {
    let mut scheduler = FleetScheduler::new(FleetConfig {
        max_in_flight: limit,
        ..FleetConfig::default()
    })
    .unwrap();
    if let Some(w) = workers {
        scheduler = scheduler.with_executor(ParallelExecutor::new(w));
    }
    let report = scheduler.run(&mut world, requests).unwrap();
    let now = world.clock.now();
    world.telemetry.finish(now);
    RunImage {
        report_debug: format!("{report:?}"),
        report,
        clock: now,
        chrome: chrome_trace(&world.telemetry),
        snapshot: json_snapshot(&world.telemetry),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any generated fleet — disjoint pairs or a shared home device,
    /// clean or with a rollback victim — every parallel worker count
    /// reproduces the serial run byte-for-byte.
    #[test]
    fn parallel_executor_is_byte_identical_to_serial(
        seed in 0..100_000u64,
        n in 2..5usize,
        limit in 1..5usize,
        shared_home in any::<bool>(),
        victim_sel in 0..8u64,
    ) {
        let apps = &POOL[..n];
        let victim = (victim_sel < n as u64).then_some(victim_sel + 1);
        let stage = |s| {
            if shared_home {
                common::shared_home_world(apps, s)
            } else {
                common::fleet_world(apps, s)
            }
        };

        let (world, pairs) = stage(seed);
        let baseline = run_with(world, requests_for(&pairs, victim), limit, None);

        for workers in worker_configs() {
            let (world, pairs) = stage(seed);
            let run = run_with(world, requests_for(&pairs, victim), limit, Some(workers));
            prop_assert_eq!(
                &baseline.report_debug, &run.report_debug,
                "fleet report diverged at {} workers", workers
            );
            prop_assert_eq!(baseline.clock, run.clock, "clock diverged at {} workers", workers);
            prop_assert_eq!(
                &baseline.chrome, &run.chrome,
                "chrome trace diverged at {} workers", workers
            );
            prop_assert_eq!(
                &baseline.snapshot, &run.snapshot,
                "telemetry snapshot diverged at {} workers", workers
            );
        }
    }

    /// The serialized `FleetReport` parses with the vendored JSON parser
    /// and re-renders byte-identically.
    #[test]
    fn fleet_report_json_round_trips(
        seed in 0..100_000u64,
        n in 2..4usize,
    ) {
        let apps = &POOL[..n];
        let (world, pairs) = common::fleet_world(apps, seed);
        let image = run_with(world, requests_for(&pairs, None), 4, None);

        let json = serde::to_json(&image.report);
        let parsed = serde::parse(&json);
        prop_assert!(parsed.is_ok(), "report JSON rejected: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(&serde::to_json(&parsed), &json);

        // Spot-check the tree: one flight object per request, all
        // completed, and the makespan lexeme matches the report.
        let flights = parsed.get("flights").and_then(|f| f.as_arr());
        prop_assert_eq!(flights.map(<[serde::JsonValue]>::len), Some(n));
        for flight in flights.unwrap() {
            let status = flight
                .get("outcome")
                .and_then(|o| o.get("status"))
                .and_then(|s| s.as_str());
            prop_assert_eq!(status, Some("completed"));
        }
        let makespan = parsed.get("makespan").map(serde::to_json);
        prop_assert_eq!(makespan, Some(image.report.makespan.as_nanos().to_string()));
    }
}

/// Rolled-back and refused flights serialize as tagged error objects.
#[test]
fn failed_flights_serialize_with_reasons() {
    let (mut world, pairs) = common::fleet_world(&["WhatsApp", "Twitter"], 7777);
    let mut requests = requests_for(&pairs, Some(1));
    // Request 3 targets a device that does not exist: refused pre-flight.
    requests.push(MigrationRequest::new(
        3,
        pairs[0].0,
        flux_core::DeviceId(99),
        "com.missing",
    ));
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests)
        .unwrap();
    assert_eq!(report.rolled_back, 1);
    assert_eq!(report.refused, 1);

    let json = serde::to_json(&report);
    let parsed = serde::parse(&json).expect("report JSON parses");
    assert_eq!(serde::to_json(&parsed), json);
    let statuses: Vec<_> = parsed
        .get("flights")
        .and_then(|f| f.as_arr())
        .expect("flights array")
        .iter()
        .map(|f| {
            let outcome = f.get("outcome").expect("outcome");
            (
                outcome
                    .get("status")
                    .and_then(|s| s.as_str())
                    .unwrap()
                    .to_owned(),
                outcome
                    .get("error")
                    .and_then(|e| e.as_str())
                    .map(str::to_owned),
            )
        })
        .collect();
    assert_eq!(statuses[0].0, "rolled_back");
    assert!(statuses[0].1.is_some(), "rollback carries a reason");
    assert_eq!(statuses[1].0, "completed");
    assert_eq!(statuses[2].0, "refused");
    assert!(
        statuses[2].1.as_deref().unwrap_or("").contains("no device"),
        "refusal names the missing device: {:?}",
        statuses[2].1
    );
}

/// `FleetOutcome::report` stays `None` on failures (guards the
/// serialization match arms against variant drift).
#[test]
fn outcome_accessors_match_variants() {
    let (mut world, pairs) = common::fleet_world(&["WhatsApp"], 31337);
    let report = FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, requests_for(&pairs, Some(1)))
        .unwrap();
    let outcome = &report.flights[0].outcome;
    assert!(matches!(outcome, FleetOutcome::RolledBack { .. }));
    assert!(outcome.report().is_none());
    assert!(!outcome.is_completed());
}
