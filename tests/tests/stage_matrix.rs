//! Stage-boundary fault matrix for the staged migration engine.
//!
//! For each faultable stage of the pipeline, a probe run measures the
//! stage's virtual-time window, a second identically-seeded run blankets
//! exactly that window with injected faults, and the test asserts the
//! engine aborts *at that stage*, rolls back to an intact home-side
//! state, and leaves the guest residue-free. Stages that never consult
//! the fault plan (preparation, reintegration) are covered by isolation
//! cases: blanketing their windows must not perturb the migration at
//! all. A final set of tests pins the engine's telemetry contract: every
//! `migration.stage.*` span corresponds to a declared stage, and every
//! public entry point routes through [`flux_core::engine::run_sliced`]
//! (observable as the `flux.engine.runs` counter).

mod common;

use flux_appfw::ActivityState;
use flux_core::{
    migrate, FleetConfig, FleetScheduler, FluxError, MigrationConfig, MigrationRequest,
    MigrationSpec, MigrationStage, RetryPolicy, StageFailure,
};
use flux_simcore::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use flux_telemetry::{stage_span_name, REPORT_STAGES, STAGE_SPAN_PREFIX};

const SEED: u64 = 7301;
const APP: &str = "WhatsApp";

/// Clean probe migration returning the `[start, end]` window of the named
/// span. Fault plans built from this window line up exactly with a second
/// run at the same seed, because the engine is deterministic and only the
/// blanketed stage consults the plan.
fn probe_span_window(cfg: &MigrationConfig, span: &str) -> (SimTime, SimTime) {
    let (mut world, home, guest, pkg) = common::staged(APP, SEED);
    migrate(
        &mut world,
        MigrationSpec::new(&pkg).between(home, guest).config(*cfg),
    )
    .expect("probe migration succeeds");
    let s = world
        .telemetry
        .spans()
        .iter()
        .find(|s| s.name == span)
        .unwrap_or_else(|| panic!("probe run emitted no `{span}` span"));
    (s.start, s.end.expect("probe span closed"))
}

/// A fault of `kind` every 50 ms across `[from, to + pad)`. The matrix
/// cases pad by a second so the tail of the stage cannot escape; the
/// isolation cases pad by zero so the blanket stays strictly inside the
/// probed window. Kernel stalls carry a duration over
/// [`flux_core::KERNEL_STALL_WATCHDOG`] so each one is fatal to the
/// charge window it lands in.
fn blanket(kind: FaultKind, from: SimTime, to: SimTime, pad: SimDuration) -> FaultPlan {
    let duration = match kind {
        FaultKind::KernelStall => SimDuration::from_secs(1),
        _ => SimDuration::ZERO,
    };
    let step = SimDuration::from_millis(50);
    let mut events = Vec::new();
    let mut at = from;
    let to = to + pad;
    while at < to {
        events.push(FaultEvent {
            at,
            kind,
            duration,
            magnitude: 1.0,
        });
        at += step;
    }
    FaultPlan::from_events(events)
}

/// Run a fail-fast migration under `plan` and assert it aborts at
/// `expected` with the full transactional-rollback invariants.
fn assert_aborts_at(plan: FaultPlan, expected: MigrationStage) {
    let (mut world, home, guest, pkg) = common::staged_faulty(APP, SEED, plan);

    let home_uid = world.device(home).unwrap().app_uid(&pkg).unwrap();
    let log_before = world
        .device(home)
        .unwrap()
        .records
        .log(home_uid)
        .cloned()
        .unwrap_or_default();

    let err = migrate(
        &mut world,
        MigrationSpec::new(&pkg)
            .between(home, guest)
            .retry(RetryPolicy::none()),
    )
    .expect_err("blanketed stage must abort the migration");
    match err {
        FluxError::Migration(StageFailure::FaultAborted {
            stage, attempts, ..
        }) => {
            assert_eq!(stage, expected, "abort attributed to the wrong stage");
            assert_eq!(attempts, 1, "fail-fast policy allows exactly one attempt");
        }
        other => panic!("expected a fault abort, got: {other}"),
    }

    // Home side: the app is back in the foreground with a live process
    // and a byte-identical record log.
    let home_dev = world.device(home).unwrap();
    let happ = home_dev.apps.get(&pkg).expect("app restored on home");
    assert_eq!(happ.top_state(), Some(ActivityState::Resumed));
    assert!(home_dev.kernel.process(happ.main_pid).is_ok());
    let log_after = home_dev.records.log(home_uid).cloned().unwrap_or_default();
    assert_eq!(log_after, log_before, "record log changed across rollback");

    // Guest side: no app, no staged image, no pre-copy residue.
    let guest_dev = world.device(guest).unwrap();
    assert!(!guest_dev.apps.contains_key(&pkg));
    assert!(!guest_dev
        .fs
        .exists(&format!("/data/flux/h/.migrate/{pkg}.image")));
    assert!(!guest_dev
        .fs
        .exists(&format!("/data/flux/h/.migrate/{pkg}.precopy")));
}

#[test]
fn kernel_stalls_in_the_checkpoint_window_abort_at_checkpoint() {
    let cfg = MigrationConfig::default();
    let (from, to) = probe_span_window(&cfg, &stage_span_name("checkpoint"));
    assert_aborts_at(
        blanket(FaultKind::KernelStall, from, to, SimDuration::from_secs(1)),
        MigrationStage::Checkpoint,
    );
}

#[test]
fn link_drops_in_the_transfer_window_abort_at_transfer() {
    let cfg = MigrationConfig::default();
    let (from, to) = probe_span_window(&cfg, &stage_span_name("transfer"));
    assert_aborts_at(
        blanket(FaultKind::LinkDrop, from, to, SimDuration::from_secs(1)),
        MigrationStage::Transfer,
    );
}

#[test]
fn kernel_stalls_in_the_restore_window_abort_at_restore() {
    let cfg = MigrationConfig::default();
    let (from, to) = probe_span_window(&cfg, &stage_span_name("restore"));
    assert_aborts_at(
        blanket(FaultKind::KernelStall, from, to, SimDuration::from_secs(1)),
        MigrationStage::Restore,
    );
}

/// Preparation and reintegration never consult the fault plan: freezing,
/// record-log sealing and replay are local CPU work with no radio or
/// checkpoint syscalls in the fault model. Blanketing their windows with
/// *both* fault kinds must leave the migration byte-identical to a clean
/// run.
#[test]
fn faults_outside_consulting_stages_do_not_perturb_the_migration() {
    let cfg = MigrationConfig::default();
    for stage in ["preparation", "reintegration"] {
        let (from, to) = probe_span_window(&cfg, &stage_span_name(stage));
        for kind in [FaultKind::KernelStall, FaultKind::LinkDrop] {
            // No pad: the blanket stays strictly inside the stage window
            // so it cannot leak into a consulting stage.
            let plan = blanket(kind, from, to, SimDuration::ZERO);
            let (mut world, home, guest, pkg) = common::staged_faulty(APP, SEED, plan);
            let report = migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest))
                .expect("fault-isolated stage must not abort");
            assert_eq!(report.faults, 0, "{stage} consumed a fault it must ignore");
            assert_eq!(report.attempts, 1);
            assert!(world.device(guest).unwrap().apps.contains_key(&pkg));
        }
    }
}

/// Pre-copy is best effort: a faulted pre-dump round is abandoned, never
/// retried and never fatal on its own. Whatever the downstream outcome,
/// the engine must end in one of its two legal terminal states.
#[test]
fn faulted_precopy_is_abandoned_not_fatal() {
    let cfg = MigrationConfig {
        precopy: true,
        ..MigrationConfig::default()
    };
    let (mut probe, home, guest, pkg) = common::staged(APP, SEED);
    migrate(
        &mut probe,
        MigrationSpec::new(&pkg).between(home, guest).config(cfg),
    )
    .expect("probe succeeds");
    let span = probe
        .telemetry
        .spans()
        .iter()
        .find(|s| s.name == "migration.precopy")
        .expect("pre-copy probe emitted its span")
        .clone();

    let plan = blanket(
        FaultKind::LinkDrop,
        span.start,
        span.end.unwrap(),
        SimDuration::ZERO,
    );
    let (mut world, home, guest, pkg) = common::staged_faulty(APP, SEED, plan);
    let outcome = migrate(
        &mut world,
        MigrationSpec::new(&pkg).between(home, guest).config(cfg),
    );

    // The abandonment event must have fired — the blanket hit pre-copy.
    assert!(
        world
            .telemetry
            .instants()
            .iter()
            .any(|i| i.name == "migration.precopy.abandoned"),
        "blanketed pre-copy round was not abandoned"
    );
    match outcome {
        Ok(report) => {
            // Downstream stages survived (or retried) the blanket tail.
            assert!(report.faults > 0);
            assert!(world.device(guest).unwrap().apps.contains_key(&pkg));
        }
        Err(FluxError::Migration(StageFailure::FaultAborted { .. })) => {
            // The blanket tail exhausted the transfer retries: rollback
            // must still be residue-free.
            let guest_dev = world.device(guest).unwrap();
            assert!(!guest_dev.apps.contains_key(&pkg));
            assert!(!guest_dev
                .fs
                .exists(&format!("/data/flux/h/.migrate/{pkg}.precopy")));
            assert!(world.device(home).unwrap().apps.contains_key(&pkg));
        }
        Err(other) => panic!("unexpected terminal state: {other}"),
    }
}

/// Every `migration.stage.*` span the engine emits corresponds to a
/// declared stage, and a successful default migration emits exactly the
/// five report stages.
#[test]
fn emitted_stage_spans_match_the_declared_stages() {
    let (mut world, home, guest, pkg) = common::staged(APP, SEED);
    migrate(
        &mut world,
        MigrationSpec::new(&pkg)
            .between(home, guest)
            .config(MigrationConfig::pipelined()),
    )
    .expect("pipelined migration succeeds");

    let declared: Vec<String> = REPORT_STAGES.iter().map(|s| stage_span_name(s)).collect();
    let mut seen = Vec::new();
    for span in world.telemetry.spans() {
        if span.name.starts_with(STAGE_SPAN_PREFIX) {
            assert!(
                declared.contains(&span.name),
                "span `{}` does not correspond to a declared stage",
                span.name
            );
            seen.push(span.name.clone());
        }
    }
    for name in &declared {
        assert!(
            seen.contains(name),
            "declared stage `{name}` emitted no span"
        );
    }
}

/// Every public entry point — `migrate` under any `MigrationSpec` and
/// the fleet scheduler — executes through `engine::run_sliced`,
/// observable as one `flux.engine.runs` tick per migration.
#[test]
fn every_entry_point_runs_through_the_engine() {
    let engine_runs = |world: &mut flux_core::FluxWorld| {
        let now = world.clock.now();
        world.telemetry.finish(now);
        world.telemetry.metrics().counter("flux.engine.runs")
    };

    let (mut world, home, guest, pkg) = common::staged(APP, SEED);
    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();
    assert_eq!(engine_runs(&mut world), 1);

    let (mut world, home, guest, pkg) = common::staged(APP, SEED);
    migrate(
        &mut world,
        MigrationSpec::new(&pkg)
            .between(home, guest)
            .config(MigrationConfig::pipelined()),
    )
    .unwrap();
    assert_eq!(engine_runs(&mut world), 1);

    let (mut world, home, guest, pkg) = common::staged(APP, SEED);
    migrate(
        &mut world,
        MigrationSpec::new(&pkg)
            .between(home, guest)
            .retry(RetryPolicy::default()),
    )
    .unwrap();
    assert_eq!(engine_runs(&mut world), 1);

    let (mut world, pairs) = common::fleet_world(&["WhatsApp", "Facebook"], SEED);
    let batch = pairs
        .iter()
        .enumerate()
        .map(|(i, (h, g, p))| MigrationRequest::new(i as u64 + 1, *h, *g, p))
        .collect();
    FleetScheduler::new(FleetConfig::default())
        .unwrap()
        .run(&mut world, batch)
        .unwrap();
    assert_eq!(
        engine_runs(&mut world),
        2,
        "one engine run per fleet flight"
    );

    // Even a refused migration (preflight) enters the engine first.
    let (mut world, home, guest, pkg) = common::staged(APP, SEED);
    assert!(migrate(
        &mut world,
        MigrationSpec::new("not.a.package").between(home, guest)
    )
    .is_err());
    migrate(&mut world, MigrationSpec::new(&pkg).between(home, guest)).unwrap();
    assert_eq!(engine_runs(&mut world), 2);
}
