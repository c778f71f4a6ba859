//! Determinism and well-formedness of the telemetry subsystem across a
//! full record → pair → migrate scenario: identical seeds must give
//! byte-identical exports, spans must nest strictly, the exporters'
//! output must round-trip through the JSON parser, and the per-stage
//! profile must sum to exactly the migration report's total.

mod common;

use flux_core::{migrate, pair, FluxWorld, MigrationReport, MigrationSpec, WorldBuilder};
use flux_device::DeviceProfile;
use flux_simcore::{FaultConfig, FaultPlan, SimDuration};
use flux_telemetry::{chrome_trace, json_snapshot, MigrationProfile};
use flux_workloads::spec;

/// Runs the standard profiled scenario: WhatsApp, Nexus 4 → Nexus 7
/// (2013), with telemetry finished and harvested at the end.
fn run_scenario(seed: u64, plan: FaultPlan) -> (FluxWorld, MigrationReport) {
    let (mut world, home, guest, pkg) = common::staged_faulty("WhatsApp", seed, plan);
    let report =
        migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).expect("migrate");
    world.harvest_metrics();
    let now = world.clock.now();
    world.telemetry.finish(now);
    (world, report)
}

fn faulty_plan(seed: u64) -> FaultPlan {
    FaultPlan::generate(
        seed,
        &FaultConfig::uniform(0.4, SimDuration::from_secs(120)),
    )
}

#[test]
fn same_seed_gives_byte_identical_exports() {
    let (a, _) = run_scenario(42, FaultPlan::none());
    let (b, _) = run_scenario(42, FaultPlan::none());
    assert_eq!(json_snapshot(&a.telemetry), json_snapshot(&b.telemetry));
    assert_eq!(chrome_trace(&a.telemetry), chrome_trace(&b.telemetry));
}

#[test]
fn same_seed_and_fault_plan_give_byte_identical_exports() {
    let (a, ra) = run_scenario(7, faulty_plan(7));
    let (b, rb) = run_scenario(7, faulty_plan(7));
    assert_eq!(ra.stages.total(), rb.stages.total());
    assert_eq!(ra.attempts, rb.attempts);
    assert_eq!(json_snapshot(&a.telemetry), json_snapshot(&b.telemetry));
    assert_eq!(chrome_trace(&a.telemetry), chrome_trace(&b.telemetry));
    // The faulty run retried, so the retry counter must say so.
    assert!(a.telemetry.metrics().counter("flux.migration.retries") > 0);
}

#[test]
fn different_seeds_diverge() {
    let (a, _) = run_scenario(1, FaultPlan::none());
    let (b, _) = run_scenario(2, FaultPlan::none());
    assert_ne!(json_snapshot(&a.telemetry), json_snapshot(&b.telemetry));
}

#[test]
fn spans_are_closed_and_strictly_nested() {
    for (seed, plan) in [(42, FaultPlan::none()), (7, faulty_plan(7))] {
        let (world, _) = run_scenario(seed, plan);
        let spans = world.telemetry.spans();
        assert!(!spans.is_empty());
        for s in spans {
            let end = s.end.expect("finish() closed every span");
            assert!(s.start <= end, "span {} runs backwards", s.name);
            if let Some(pi) = s.parent.and_then(flux_telemetry::SpanId::index) {
                let p = &spans[pi];
                assert_eq!(p.lane, s.lane, "child {} crosses lanes", s.name);
                assert!(
                    p.start <= s.start && end <= p.end.expect("parent closed"),
                    "span {} escapes its parent {}",
                    s.name,
                    p.name
                );
            }
        }
    }
}

#[test]
fn exports_round_trip_through_the_json_parser() {
    let (world, _) = run_scenario(42, faulty_plan(42));
    let trace = serde::parse(&chrome_trace(&world.telemetry)).expect("chrome trace parses");
    let events = trace
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    // One metadata record per lane, plus the spans and instants.
    let lanes = world.telemetry.lanes().len();
    assert_eq!(
        events.len(),
        lanes + world.telemetry.spans().len() + world.telemetry.instants().len()
    );

    let snap = serde::parse(&json_snapshot(&world.telemetry)).expect("snapshot parses");
    let spans = snap.get("spans").and_then(|v| v.as_arr()).expect("spans");
    assert_eq!(spans.len(), world.telemetry.spans().len());
    let serde::JsonValue::Obj(metrics) = snap.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    assert_eq!(metrics.len(), world.telemetry.metrics().len());
    // Printing the parsed snapshot again is byte-stable (lexeme-preserving
    // numbers), so parse(print(x)) == x.
    assert_eq!(json_snapshot(&world.telemetry), serde::to_json(&snap));
}

#[test]
fn profile_stage_sum_matches_the_report_total() {
    for (seed, plan) in [(42, FaultPlan::none()), (7, faulty_plan(7))] {
        let (world, report) = run_scenario(seed, plan);
        let profile = MigrationProfile::from_telemetry(&world.telemetry);
        assert_eq!(profile.total(), report.stages.total());
        assert!(profile.render().contains("transfer"));
    }
}

#[test]
fn event_capacity_caps_the_log_and_counts_drops() {
    let app = spec("WhatsApp").expect("spec");
    let (mut world, ids) = WorldBuilder::new()
        .seed(42)
        .event_capacity(4)
        .device("home", DeviceProfile::nexus4())
        .device("guest", DeviceProfile::nexus7_2013())
        .app(0, app.clone())
        .build()
        .expect("build");
    let (home, guest) = (ids[0], ids[1]);
    world
        .run_script(home, &app.package, &app.actions.clone())
        .expect("script");
    pair(&mut world, home, guest).expect("pair");
    migrate(
        &mut world,
        MigrationSpec::new(&app.package).between(home, guest),
    )
    .expect("migrate");
    world.harvest_metrics();
    assert_eq!(world.telemetry.instants().len(), 4);
    assert!(world.telemetry.dropped_events() > 0);
    assert_eq!(
        world
            .telemetry
            .metrics()
            .counter("flux.telemetry.events_dropped"),
        world.telemetry.dropped_events()
    );
}
