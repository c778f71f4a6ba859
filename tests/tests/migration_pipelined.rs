//! The pipelined migration engine: pre-copy, stage overlap and the
//! content-addressed image cache, plus the opt-out guarantee that the
//! serial path is bit-identical to the seed behaviour.

mod common;

use common::staged;
use flux_appfw::ActivityState;
use flux_core::{migrate, pair, MigrationConfig, MigrationSpec, RetryPolicy};
use flux_simcore::{ByteSize, FaultConfig, FaultPlan, SimDuration};
use flux_telemetry::export::json_snapshot;

#[test]
fn serial_config_is_bit_identical_to_default_migrate() {
    // The all-off config must not change a single observable: report,
    // virtual clock, telemetry snapshot.
    let (mut base, h1, g1, pkg) = staged("WhatsApp", 77);
    let (mut cfgd, h2, g2, _) = staged("WhatsApp", 77);
    let r1 = migrate(&mut base, MigrationSpec::new(&pkg).between(h1, g1)).unwrap();
    let r2 = migrate(
        &mut cfgd,
        MigrationSpec::new(&pkg)
            .between(h2, g2)
            .config(MigrationConfig::default()),
    )
    .unwrap();
    assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    assert_eq!(base.clock.now(), cfgd.clock.now());
    for w in [&mut base, &mut cfgd] {
        w.harvest_metrics();
        let now = w.clock.now();
        w.telemetry.finish(now);
    }
    assert_eq!(
        json_snapshot(&base.telemetry),
        json_snapshot(&cfgd.telemetry)
    );
    // The serial ledger reports no pipelined-engine activity.
    assert_eq!(r1.ledger.precopy_streamed, ByteSize::ZERO);
    assert_eq!(r1.ledger.cache_hit, ByteSize::ZERO);
    assert_eq!(r1.stages.precopy, SimDuration::ZERO);
    assert_eq!(r1.stages.overlap_saved, SimDuration::ZERO);
    assert_eq!(r1.stages.wall_total(), r1.stages.total());
    assert_eq!(r1.ledger.over_air_total(), r1.ledger.total());
}

#[test]
fn stage_overlap_hides_compression_behind_the_radio() {
    let cfg = MigrationConfig {
        pipeline: true,
        ..MigrationConfig::default()
    };
    let (mut serial, h1, g1, pkg) = staged("Candy Crush Saga", 42);
    let (mut piped, h2, g2, _) = staged("Candy Crush Saga", 42);
    let rs = migrate(&mut serial, MigrationSpec::new(&pkg).between(h1, g1)).unwrap();
    let rp = migrate(
        &mut piped,
        MigrationSpec::new(&pkg).between(h2, g2).config(cfg),
    )
    .unwrap();

    // Same bytes over the air — the pipeline only reorders the work.
    assert_eq!(rp.ledger, rs.ledger);
    // Compression overlapped the radio, hiding latency from the wall.
    assert!(rp.stages.overlap_saved > SimDuration::ZERO);
    assert!(rp.stages.wall_total() < rp.stages.total());
    assert!(
        rp.stages.user_perceived() < rs.stages.user_perceived(),
        "pipelined {} !< serial {}",
        rp.stages.user_perceived(),
        rs.stages.user_perceived()
    );
}

#[test]
fn precopy_shrinks_the_frozen_ship_and_the_user_wait() {
    let (mut serial, h1, g1, pkg) = staged("Candy Crush Saga", 42);
    let (mut piped, h2, g2, _) = staged("Candy Crush Saga", 42);
    let rs = migrate(&mut serial, MigrationSpec::new(&pkg).between(h1, g1)).unwrap();
    let rp = migrate(
        &mut piped,
        MigrationSpec::new(&pkg)
            .between(h2, g2)
            .config(MigrationConfig::pipelined()),
    )
    .unwrap();

    // Pre-copy streamed pages before the freeze, shrinking the frozen ship.
    assert!(rp.ledger.precopy_streamed > ByteSize::ZERO);
    assert!(rp.stages.precopy > SimDuration::ZERO);
    assert!(rp.ledger.total() < rs.ledger.total());
    // The headline: the user waits less, even with a cold cache, because
    // the frozen window ships only the dirtied residue.
    assert!(
        rp.stages.user_perceived() < rs.stages.user_perceived(),
        "pipelined {} !< serial {}",
        rp.stages.user_perceived(),
        rs.stages.user_perceived()
    );
}

#[test]
fn pipelined_wall_accounting_matches_the_clock() {
    let (mut world, home, guest, pkg) = staged("Candy Crush Saga", 9);
    let t0 = world.clock.now();
    let r = migrate(
        &mut world,
        MigrationSpec::new(&pkg)
            .between(home, guest)
            .config(MigrationConfig::pipelined()),
    )
    .unwrap();
    assert_eq!(r.attempts, 1);
    // busy − overlap = wall: the stage accounting reproduces the virtual
    // clock exactly, with nothing double-counted or lost.
    assert_eq!(world.clock.now().since(t0), r.stages.wall_total());
}

#[test]
fn pipelined_migration_is_deterministic() {
    let run = || {
        let (mut world, home, guest, pkg) = staged("Netflix", 1234);
        let r = migrate(
            &mut world,
            MigrationSpec::new(&pkg)
                .between(home, guest)
                .config(MigrationConfig::pipelined()),
        )
        .unwrap();
        (format!("{r:?}"), world.clock.now())
    };
    assert_eq!(run(), run());
}

#[test]
fn warm_cache_ships_fewer_bytes_on_a_repeat_migration() {
    let cfg = MigrationConfig {
        image_cache: true,
        ..MigrationConfig::default()
    };
    let (mut world, home, guest, pkg) = staged("Bible", 31);

    // Cold: everything misses; delivery populates the guest's cache.
    let cold = migrate(
        &mut world,
        MigrationSpec::new(&pkg).between(home, guest).config(cfg),
    )
    .unwrap();
    assert_eq!(cold.ledger.cache_hit, ByteSize::ZERO);

    // Round-trip the app home, then repeat the original migration.
    pair(&mut world, guest, home).unwrap();
    migrate(
        &mut world,
        MigrationSpec::new(&pkg).between(guest, home).config(cfg),
    )
    .unwrap();
    let warm = migrate(
        &mut world,
        MigrationSpec::new(&pkg).between(home, guest).config(cfg),
    )
    .unwrap();

    // Restore preserves VMA content identity, so the re-checkpointed image
    // addresses the same chunks the guest already holds.
    assert!(warm.ledger.cache_hit > ByteSize::ZERO);
    assert!(
        warm.ledger.total() < cold.ledger.total(),
        "warm {} !< cold {}",
        warm.ledger.total(),
        cold.ledger.total()
    );
}

#[test]
fn faulted_pipelined_migration_is_still_transactional() {
    // Under a brutal fault schedule the pipelined engine keeps the
    // all-or-nothing guarantee: rollback leaves no pre-copy or staged
    // residue on the guest (the content-addressed cache, being immutable,
    // deliberately survives).
    let mut saw_rollback = false;
    for seed in 0..40u64 {
        let plan = FaultPlan::generate(
            seed,
            &FaultConfig::uniform(0.5, SimDuration::from_secs(600)),
        );
        let (mut world, home, guest, pkg) = common::staged_faulty("WhatsApp", seed, plan);
        let cfg = MigrationConfig {
            retry: RetryPolicy::none(),
            ..MigrationConfig::pipelined()
        };
        if migrate(
            &mut world,
            MigrationSpec::new(&pkg).between(home, guest).config(cfg),
        )
        .is_err()
        {
            saw_rollback = true;
            let home_dev = world.device(home).unwrap();
            let happ = home_dev.apps.get(&pkg).expect("app back home");
            assert_eq!(happ.top_state(), Some(ActivityState::Resumed));
            let guest_dev = world.device(guest).unwrap();
            assert!(!guest_dev.apps.contains_key(&pkg));
            assert!(!guest_dev
                .fs
                .exists(&format!("/data/flux/h/.migrate/{pkg}.image")));
            assert!(!guest_dev
                .fs
                .exists(&format!("/data/flux/h/.migrate/{pkg}.precopy")));
        }
    }
    assert!(saw_rollback, "no seed in 0..40 triggered a rollback");
}
