//! `corpus-oracle`: the `ablation_corpus` cell shape. Each cell samples a
//! seeded `ProfileCorpus` (evenly spaced ids plus the refusable strata),
//! stages one Nexus 4 → Nexus 7 (2013) pair per profile, and sends every
//! scenario through `OracleSnapshot::capture` → `LifecycleSchedule::apply`
//! → `FleetScheduler::run` (serial executor, 16 in flight) → `verdict_for`.
//! A round is eight cells: four lifecycle schedules (including the
//! mid-preparation kill), each with and without link-drop faults.

use crate::check::Digests;
use crate::clock::Speed;
use crate::layers::{self, err, BatchSpec, Exec, Overhead, PairSpec, Staged};
use crate::report::{ns_per_call, Metric, Outcome};
use crate::stats::median;
use crate::trace::{span_opt, Tracer};
use crate::Opts;
use flux_core::{
    CallLog, FleetConfig, LifecycleEvent, LifecycleSchedule, MigrationConfig, MigrationRequest,
    MigrationStage, OracleSnapshot, RetryPolicy, Taxonomy,
};
use flux_playstore::{AppProfile, ProfileCorpus};
use flux_simcore::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use std::time::Instant;

/// Corpus size, evenly spaced sample and per-stratum oversample.
struct Sizes {
    corpus: usize,
    sample: usize,
    stratum: usize,
}

const FULL: Sizes = Sizes {
    corpus: 10_000,
    sample: 96,
    stratum: 8,
};
const SMOKE: Sizes = Sizes {
    corpus: 1_000,
    sample: 6,
    stratum: 2,
};
/// Rounds a run makes at least, whatever its budget.
const MIN_ROUNDS: usize = 2;
/// In fault cells, every DROP_EVERY-th request gets blanket link drops
/// and no retries, so it rolls back mid-transfer.
const DROP_EVERY: u64 = 5;
/// The guest fleet's API level: profiles above it must be refused.
const GUEST_API: u32 = 19;

const SCHEDULES: [LifecycleSchedule; 4] = [
    LifecycleSchedule::Undisturbed,
    LifecycleSchedule::StopThenMigrate,
    LifecycleSchedule::KillThenMigrate,
    LifecycleSchedule::At {
        stage: MigrationStage::Preparation,
        offset: SimDuration::from_millis(1),
        event: LifecycleEvent::Kill,
    },
];

fn cfg() -> FleetConfig {
    FleetConfig {
        max_in_flight: 16,
        ..FleetConfig::default()
    }
}

fn blanket_drops() -> FaultPlan {
    FaultPlan::from_events(
        (0..600)
            .map(|i| FaultEvent {
                at: SimTime::from_millis(i * 200),
                kind: FaultKind::LinkDrop,
                duration: SimDuration::ZERO,
                magnitude: 0.0,
            })
            .collect(),
    )
}

/// `sample` evenly spaced ids plus up to `stratum` ids from each
/// refusable minority, deduplicated in order.
fn sampled_ids(corpus: &ProfileCorpus, s: &Sizes) -> Vec<u32> {
    let mut ids = corpus.sample_ids(s.sample);
    for stratum in [
        corpus.find_ids(s.stratum, |p: &AppProfile| p.spec.preserve_egl),
        corpus.find_ids(s.stratum, |p: &AppProfile| p.spec.multi_process),
        corpus.find_ids(s.stratum, |p: &AppProfile| p.spec.min_api > GUEST_API),
        corpus.find_ids(s.stratum, |p: &AppProfile| p.holds_open_incompatibility()),
    ] {
        for id in stratum {
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
    }
    ids
}

/// Generates the cell's corpus slice (under `playstore.*` spans when
/// tracing) as staged pairs.
fn slice(opts: &Opts, s: &Sizes, tr: &mut Option<&mut Tracer>) -> Vec<PairSpec> {
    let corpus_and_ids = || {
        let corpus = ProfileCorpus::new(opts.seed, s.corpus);
        let ids = sampled_ids(&corpus, s);
        (corpus, ids)
    };
    let (corpus, ids) = span_opt(tr, "playstore.corpus", 0, corpus_and_ids);
    ids.iter()
        .enumerate()
        .map(|(i, &id)| {
            let profile = span_opt(tr, "playstore.profile", i as u64 + 1, || corpus.profile(id));
            PairSpec::new(
                format!("phone{i:05}"),
                format!("tablet{i:05}"),
                profile.spec,
            )
        })
        .collect()
}

/// One cell's timings and its output.
struct Cell {
    setup_s: f64,
    oracle_s: f64,
    scenarios: usize,
    taxonomy: String,
}

/// Runs one cell. When tracing, every layer call sits under its span and
/// the home logs are cloned into `logs` for the parcel probe.
fn cell(
    opts: &Opts,
    s: &Sizes,
    schedule: LifecycleSchedule,
    faulty: bool,
    mut tr: Option<&mut Tracer>,
    logs: &mut Vec<CallLog>,
) -> Result<Cell, String> {
    let started = Instant::now();
    let pairs = slice(opts, s, &mut tr);
    let mut staged = layers::build(tr.as_deref_mut(), opts.seed, true, &pairs)?;
    if let Some(t) = tr.as_deref_mut() {
        layers::count_pairings(t, &staged.pairings);
        logs.extend(layers::snapshot_logs(t, &staged, &pairs)?);
    }
    let setup_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let mut snaps = Vec::with_capacity(pairs.len());
    let mut reqs = Vec::with_capacity(pairs.len());
    for (i, p) in pairs.iter().enumerate() {
        let (home, guest, pkg) = (staged.home(i), staged.guest(i), p.app.package.as_str());
        let req = i as u64 + 1;
        let world = &mut staged.world;
        let snap = span_opt(&mut tr, "core.oracle.capture", req, || {
            OracleSnapshot::capture(world, home, guest, pkg)
        });
        let mut snap = snap.map_err(err)?;
        span_opt(&mut tr, "core.oracle.apply", req, || {
            schedule.apply(world, home, pkg)
        })
        .map_err(err)?;
        snap.refresh_log_len(world);
        snaps.push(snap);
        let mut r = MigrationRequest::new(req, home, guest, pkg);
        r.interrupts.extend(schedule.interrupts());
        if faulty && req.is_multiple_of(DROP_EVERY) {
            r = r.with_faults(blanket_drops()).with_config(MigrationConfig {
                retry: RetryPolicy::none(),
                ..MigrationConfig::default()
            });
        }
        reqs.push(r);
    }
    let report = match tr.as_deref_mut() {
        Some(t) => layers::run_traced(t, &mut staged.world, reqs, cfg(), Exec::Serial)?,
        None => layers::run_fleet(&mut staged.world, reqs, cfg(), Exec::Serial)?.0,
    };
    let mut taxonomy = Taxonomy::default();
    for (i, (flight, snap)) in report.flights.iter().zip(&snaps).enumerate() {
        if flight.id != i as u64 + 1 {
            return Err(format!(
                "flight {} reported out of request order",
                flight.id
            ));
        }
        let verdict = span_opt(&mut tr, "core.oracle.verdict", flight.id, || {
            snap.verdict_for(&staged.world, &flight.outcome)
        });
        taxonomy.record(&verdict);
    }
    let oracle_s = started.elapsed().as_secs_f64();
    if taxonomy.total() != pairs.len() as u64 {
        return Err(format!(
            "{} faults {faulty}: taxonomy totals {} for {} sampled",
            schedule.key(),
            taxonomy.total(),
            pairs.len()
        ));
    }
    if let Some(t) = tr {
        layers::probe_telemetry(t, &staged.world);
    }
    Ok(Cell {
        setup_s,
        oracle_s,
        scenarios: pairs.len(),
        taxonomy: format!(
            "{} faults={faulty} {}\n",
            schedule.key(),
            serde::to_json(&taxonomy)
        ),
    })
}

/// One round of eight cells; a cell that fails its checks fails its
/// scenarios, a round whose output differs fails all of them.
fn round(
    opts: &Opts,
    s: &Sizes,
    mut speed: Option<&mut Speed>,
    mut tr: Option<&mut Tracer>,
    logs: &mut Vec<CallLog>,
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    let mut output = String::new();
    for schedule in SCHEDULES {
        for faulty in [false, true] {
            if let Some(speed) = speed.as_deref_mut() {
                speed.tick();
            }
            let c = cell(opts, s, schedule, faulty, tr.as_deref_mut(), logs)?;
            output.push_str(&c.taxonomy);
            cells.push(c);
        }
    }
    let scenarios: usize = cells.iter().map(|c| c.scenarios).sum();
    out.attempted += scenarios as u64;
    if let Err(why) = digests.check(output.as_bytes()) {
        out.fail(scenarios as u64, why);
    }
    Ok(cells)
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let s = if opts.smoke { &SMOKE } else { &FULL };
    let mut out = Outcome {
        sizes: vec![
            ("corpus", s.corpus as u64),
            ("sample", s.sample as u64),
            ("stratum", s.stratum as u64),
            ("cells_per_round", 2 * SCHEDULES.len() as u64),
        ],
        workers: Exec::Serial.workers(),
        ..Outcome::default()
    };
    let mut digests = Digests::new(opts);
    if opts.trace {
        traced(opts, s, &mut digests, &mut out)?;
    } else {
        measured(opts, s, &mut digests, &mut out)?;
    }
    out.digest = digests.first();
    Ok(out)
}

fn measured(
    opts: &Opts,
    s: &Sizes,
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<(), String> {
    let started = Instant::now();
    let mut speed = Speed::new();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < opts.budget {
        rounds.push(round(
            opts,
            s,
            Some(&mut speed),
            None,
            &mut Vec::new(),
            digests,
            out,
        )?);
    }
    speed.tick();
    let cells: Vec<&Cell> = rounds.iter().flatten().collect();
    let setup: Vec<f64> = cells.iter().map(|c| c.setup_s).collect();
    let step: Vec<f64> = cells.iter().map(|c| c.oracle_s).collect();
    let rates: Vec<f64> = cells
        .iter()
        .map(|c| c.scenarios as f64 / c.oracle_s)
        .collect();
    let m = |v: &[f64]| median(v).expect("at least one round");
    let rss = speed.peak_rss_mb()?;
    let f = speed.factor();
    out.metrics = vec![
        Metric::new("setup_s", m(&setup) * f, "s"),
        Metric::new("throughput_per_s", m(&rates) / f, "1/s"),
        Metric::new("step_p50_ms", m(&step) * f * 1e3, "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    out.named = vec![
        Metric::new("scenarios_per_s", m(&rates) / f, "1/s"),
        Metric::new("setup_s", m(&setup) * f, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("cell_p50_ms", m(&step) * f * 1e3, "ms"),
        Metric::new("rounds", rounds.len() as f64, "count"),
        Metric::new("cells", cells.len() as f64, "count"),
        Metric::new("host.scenarios_per_s", m(&rates), "1/s"),
        Metric::new("host.setup_s", m(&setup), "s"),
        Metric::new("host.cell_p50_ms", m(&step) * 1e3, "ms"),
    ];
    out.named.extend(speed.metrics());
    Ok(())
}

fn traced(opts: &Opts, s: &Sizes, digests: &mut Digests, out: &mut Outcome) -> Result<(), String> {
    let busy = |cells: Vec<Cell>| cells.iter().map(|c| c.setup_s + c.oracle_s).sum::<f64>();
    let untraced_s = busy(round(opts, s, None, None, &mut Vec::new(), digests, out)?);
    let mut tr = Tracer::default();
    let mut logs = Vec::new();
    let traced_s = busy(round(
        opts,
        s,
        None,
        Some(&mut tr),
        &mut logs,
        digests,
        out,
    )?);

    // Probes, after the digest: they cannot change what it saw.
    let own = ns_per_call(
        &tr,
        &[
            ("playstore.corpus.ns", "playstore.corpus"),
            ("playstore.profile.ns", "playstore.profile"),
            ("core.oracle.capture.ns", "core.oracle.capture"),
            ("core.oracle.apply.ns", "core.oracle.apply"),
            ("core.oracle.verdict.ns", "core.oracle.verdict"),
        ],
    );
    let pairs = slice(opts, s, &mut None);
    let spec = BatchSpec {
        seed: opts.seed,
        pairs: &pairs,
        requests: &|staged: &Staged, n: usize| layers::plain_requests(staged, &pairs[..n]),
        cfg: cfg(),
        exec: Exec::Serial,
    };
    let overhead = Overhead {
        untraced_s,
        traced_s,
    };
    out.metrics = layers::finish_traced(&mut tr, &spec, &logs, overhead, own)?;
    Ok(())
}
