//! `fleet-scripted`: home/guest pairs cycling the four migratable Table 3
//! apps. Every request runs its app's interaction script and is paired,
//! then the whole batch goes through one `FleetScheduler::run` with the
//! default `FleetConfig`, telemetry on and `ParallelExecutor::new(nproc)`.
//! The loop builds a fresh world per batch until the time budget is spent.

use crate::check::Digests;
use crate::clock::Speed;
use crate::context::nproc;
use crate::layers::{self, draw, BatchSpec, Exec, Overhead, PairSpec, Staged};
use crate::report::{Metric, Outcome};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::Opts;
use flux_core::{FleetConfig, FleetReport, MigrationRequest};
use std::time::Instant;

/// The migratable Table 3 apps the pairs cycle through.
const POOL: [&str; 4] = ["WhatsApp", "Twitter", "Instagram", "Netflix"];
/// Pairs per batch (full / smoke).
const PAIRS: usize = 500;
const SMOKE_PAIRS: usize = 12;
/// Batches a run makes at least, whatever its budget.
const MIN_BATCHES: usize = 3;

fn pairs(opts: &Opts) -> Result<Vec<PairSpec>, String> {
    let n = if opts.smoke { SMOKE_PAIRS } else { PAIRS };
    (0..n)
        .map(|i| {
            let name = POOL[((i as u64).wrapping_add(opts.seed) % POOL.len() as u64) as usize];
            let app = flux_workloads::spec(name).ok_or_else(|| format!("no app {name}"))?;
            Ok(PairSpec::new(format!("h{i:05}"), format!("g{i:05}"), app))
        })
        .collect()
}

/// One request per pair, ids 1..=n, priorities drawn from the seed.
fn requests(seed: u64, staged: &Staged, pairs: &[PairSpec]) -> Vec<MigrationRequest> {
    layers::plain_requests(staged, pairs)
        .into_iter()
        .zip(0..)
        .map(|(r, i)| r.with_priority((draw(seed, i) % 4) as u8))
        .collect()
}

/// Every request terminal, each exactly once.
fn check_terminal(report: &FleetReport, n: usize) -> Result<(), String> {
    let mut ids: Vec<u64> = report.flights.iter().map(|f| f.id).collect();
    ids.sort_unstable();
    let terminal = report.completed + report.rolled_back + report.refused;
    if ids != (1..=n as u64).collect::<Vec<_>>() || terminal != n {
        return Err(format!(
            "{} flights, {terminal} terminal, for {n} requests",
            report.flights.len()
        ));
    }
    Ok(())
}

fn exec() -> Exec {
    Exec::Parallel(nproc())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let pairs = pairs(opts)?;
    let mut out = Outcome {
        sizes: vec![("pairs", pairs.len() as u64)],
        workers: exec().workers(),
        ..Outcome::default()
    };
    let mut digests = Digests::new(opts);
    if opts.trace {
        traced(opts, &pairs, &mut digests, &mut out)?;
    } else {
        measured(opts, &pairs, &mut digests, &mut out)?;
    }
    out.digest = digests.first();
    Ok(out)
}

/// One batch: stage the world, run it, check the output.
struct Batch {
    setup_s: f64,
    run_s: f64,
    completed: usize,
}

fn batch(
    opts: &Opts,
    pairs: &[PairSpec],
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<Batch, String> {
    let started = Instant::now();
    let mut staged = layers::build(None, opts.seed, true, pairs)?;
    let reqs = requests(opts.seed, &staged, pairs);
    let setup_s = started.elapsed().as_secs_f64();
    let (report, times) =
        layers::run_fleet(&mut staged.world, reqs, FleetConfig::default(), exec())?;
    let run_s = times.run_s();
    out.attempted += pairs.len() as u64;
    let checked = check_terminal(&report, pairs.len())
        .and_then(|()| digests.check(serde::to_json(&report).as_bytes()));
    if let Err(why) = checked {
        out.fail(pairs.len() as u64, why);
    }
    Ok(Batch {
        setup_s,
        run_s,
        completed: report.completed,
    })
}

fn measured(
    opts: &Opts,
    pairs: &[PairSpec],
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<(), String> {
    let started = Instant::now();
    let mut speed = Speed::new();
    let mut batches = Vec::new();
    while batches.len() < MIN_BATCHES || started.elapsed() < opts.budget {
        speed.tick();
        batches.push(batch(opts, pairs, digests, out)?);
    }
    speed.tick();
    let setup: Vec<f64> = batches.iter().map(|b| b.setup_s).collect();
    let run: Vec<f64> = batches.iter().map(|b| b.run_s).collect();
    let rates: Vec<f64> = batches
        .iter()
        .map(|b| b.completed as f64 / b.run_s)
        .collect();
    let m = |v: &[f64]| median(v).expect("at least one batch");
    let rss = speed.peak_rss_mb()?;
    let f = speed.factor();
    out.metrics = vec![
        Metric::new("setup_s", m(&setup) * f, "s"),
        Metric::new("throughput_per_s", m(&rates) / f, "1/s"),
        Metric::new("step_p50_ms", m(&run) * f * 1e3, "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    out.named = vec![
        Metric::new("migrations_per_s", m(&rates) / f, "1/s"),
        Metric::new("setup_s", m(&setup) * f, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("run_p50_ms", m(&run) * f * 1e3, "ms"),
        Metric::new(
            "run_max_ms",
            quantile(&run, 1.0).expect("at least one batch") * f * 1e3,
            "ms",
        ),
        Metric::new("batches", batches.len() as f64, "count"),
        Metric::new("host.migrations_per_s", m(&rates), "1/s"),
        Metric::new("host.setup_s", m(&setup), "s"),
        Metric::new("host.run_p50_ms", m(&run) * 1e3, "ms"),
    ];
    out.named.extend(speed.metrics());
    Ok(())
}

fn traced(
    opts: &Opts,
    pairs: &[PairSpec],
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<(), String> {
    let untraced = batch(opts, pairs, digests, out)?;
    let untraced_s = untraced.setup_s + untraced.run_s;

    let mut tr = Tracer::default();
    let started = Instant::now();
    let seed = opts.seed;
    let spec = BatchSpec {
        seed,
        pairs,
        requests: &|staged: &Staged, n: usize| requests(seed, staged, &pairs[..n]),
        cfg: FleetConfig::default(),
        exec: exec(),
    };
    let (staged, report, logs) = layers::traced_batch(&mut tr, &spec)?;
    let traced_s = started.elapsed().as_secs_f64();
    out.attempted += pairs.len() as u64;
    let checked = check_terminal(&report, pairs.len())
        .and_then(|()| digests.check(serde::to_json(&report).as_bytes()));
    if let Err(why) = checked {
        out.fail(pairs.len() as u64, format!("traced pass: {why}"));
    }

    // Probes, after the digest: they cannot change what it saw.
    layers::probe_telemetry(&mut tr, &staged.world);
    drop(staged);
    let overhead = Overhead {
        untraced_s,
        traced_s,
    };
    out.metrics = layers::finish_traced(&mut tr, &spec, &logs, overhead, Vec::new())?;
    Ok(())
}
