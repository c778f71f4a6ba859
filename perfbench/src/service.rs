//! `service-uptime`: one closed-loop client drives
//! `flux_journal::handle_line_shared` in-process against a `ServiceCore`
//! with the default `ServiceConfig` (fsync on, a snapshot every 32 events)
//! over the default scenario (4 scripted pairs). Each cycle is `SUBMIT` ×4,
//! `STEP`, then a `REPORT` or `TRACE` read of an earlier batch picked by
//! the seed. After a fixed uptime the client reopens the directory
//! (`ServiceCore::open`, the recovery path) and checks the recovered state.
//! The loop runs fresh service instances until the time budget is spent.

use crate::check::Digests;
use crate::clock::Speed;
use crate::layers::{self, draw, err, BatchSpec, Exec, Overhead, PairSpec, Staged};
use crate::report::{ns_per_call, Metric, Outcome};
use crate::stats::{median, quantile};
use crate::trace::{span_opt, Tracer};
use crate::Opts;
use flux_core::FleetConfig;
use flux_journal::{
    handle_line_shared, Journal, Response, ScenarioSpec, ServiceConfig, ServiceCore, SnapshotStore,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cycles of uptime per service instance (full / smoke).
const CYCLES: u64 = 10;
const SMOKE_CYCLES: u64 = 4;
/// Submissions per cycle, one per scenario pair.
const PER_CYCLE: u64 = 4;
/// Instances a run makes at least, whatever its budget.
const MIN_INSTANCES: usize = 3;
/// Extra opens on an empty directory timed after each cycle, beside the
/// instance's own open. One open takes under a millisecond and is mostly
/// an fsync, so set-up takes many samples, spread over the whole run.
const OPENS_PER_CYCLE: usize = 4;

fn spec(opts: &Opts) -> ScenarioSpec {
    ScenarioSpec {
        seed: opts.seed,
        ..ScenarioSpec::default()
    }
}

/// A service directory inside the working directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Result<Self, String> {
        let dir = Path::new(".perfbench_tmp").join(format!("service-{}-{tag}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(err)?;
        }
        std::fs::create_dir_all(&dir).map_err(err)?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another instance's directory is still there.
        let _ = std::fs::remove_dir(Path::new(".perfbench_tmp"));
    }
}

/// Size of the newest snapshot file (names are zero-padded event counts,
/// so the newest sorts last).
fn newest_snapshot_bytes(root: &Path) -> Result<u64, String> {
    let mut newest: Option<(std::ffi::OsString, u64)> = None;
    for entry in std::fs::read_dir(root.join("snapshots")).map_err(err)? {
        let entry = entry.map_err(err)?;
        let size = entry.metadata().map_err(err)?.len();
        if newest
            .as_ref()
            .is_none_or(|(name, _)| entry.file_name() > *name)
        {
            newest = Some((entry.file_name(), size));
        }
    }
    newest
        .map(|(_, size)| size)
        .ok_or_else(|| "no snapshot was written".into())
}

/// Host seconds of one `ServiceCore::open` on a new, empty directory.
fn open_empty(tag: &str, spec: &ScenarioSpec, cfg: ServiceConfig) -> Result<f64, String> {
    let scratch = Scratch::new(tag)?;
    let started = Instant::now();
    let core = ServiceCore::open(&scratch.0, spec.clone(), cfg).map_err(err)?;
    let open_s = started.elapsed().as_secs_f64();
    drop(core);
    Ok(open_s)
}

/// Host-time samples of one instance.
#[derive(Debug, Default)]
struct Instance {
    /// Opens on empty directories: the instance's own, then
    /// [`OPENS_PER_CYCLE`] after each cycle.
    setup_s: Vec<f64>,
    open_s: f64,
    submit_ms: Vec<f64>,
    step_ms: Vec<f64>,
    read_ms: Vec<f64>,
    recovery_s: f64,
    snapshot_bytes: u64,
    requests: u64,
}

impl Instance {
    /// Host seconds of the instance's life: the open, every client
    /// command and the recovery reopen.
    fn busy_s(&self) -> f64 {
        let ms: f64 = self
            .submit_ms
            .iter()
            .chain(&self.step_ms)
            .chain(&self.read_ms)
            .sum();
        self.open_s + ms / 1e3 + self.recovery_s
    }
}

fn expect_line(r: &Response, prefix: &str) -> Result<(), String> {
    match r {
        Response::Line(l) if l.starts_with(prefix) => Ok(()),
        other => Err(format!("expected `{prefix}...`, got {other:?}")),
    }
}

/// `STEP`: the same begin/execute/install cycle `handle_line_shared`
/// runs, made call by call so each part gets its span.
fn traced_step(t: &mut Tracer, core: &Arc<Mutex<ServiceCore>>, batch: u64) -> Result<(), String> {
    let lock = || core.lock().expect("service lock poisoned");
    let prepared = t.span("journal.service.begin", batch, || lock().begin_batch());
    let prepared = prepared.map_err(err)?.ok_or("STEP found nothing pending")?;
    let executed = t.span("journal.service.execute", batch, || prepared.execute());
    let executed = executed.map_err(err)?;
    let installed = t.span("journal.service.install", batch, || {
        lock().install_batch(executed).map(|r| r.seq)
    });
    if installed.map_err(err)? != batch {
        return Err(format!("STEP installed the wrong batch, wanted {batch}"));
    }
    Ok(())
}

/// One service instance: open on an empty directory, `cycles` of client
/// traffic, reopen, check. Client commands that fail count in `out`.
fn instance(
    opts: &Opts,
    k: usize,
    mut speed: Option<&mut Speed>,
    mut tr: Option<&mut Tracer>,
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<Instance, String> {
    let cycles = if opts.smoke { SMOKE_CYCLES } else { CYCLES };
    let spec = spec(opts);
    let cfg = ServiceConfig::default();
    let mut s = Instance::default();
    let scratch = Scratch::new(&k.to_string())?;
    let root = scratch.0.as_path();

    let started = Instant::now();
    let core = span_opt(&mut tr, "journal.service.open", 0, || {
        ServiceCore::open(root, spec.clone(), cfg)
    });
    let core = Arc::new(Mutex::new(core.map_err(err)?));
    s.open_s = started.elapsed().as_secs_f64();
    s.setup_s.push(s.open_s);
    let snapshots = SnapshotStore::open(root.join("snapshots")).map_err(err)?;

    let fail = |out: &mut Outcome, why: String| out.fail(1, format!("instance {k}: {why}"));
    for c in 0..cycles {
        for j in 0..PER_CYCLE {
            let id = c * PER_CYCLE + j + 1;
            let package = flux_workloads::spec(ScenarioSpec::app_for(j))
                .ok_or("scenario pool app missing")?
                .package;
            let line = format!("SUBMIT {id} {j} {package}");
            // When tracing, the submit's span says whether it snapshotted.
            let before = match tr {
                Some(_) => snapshots.list().map_err(err)?.len(),
                None => 0,
            };
            let started = Instant::now();
            let r = handle_line_shared(&core, &line);
            let ended = Instant::now();
            if let Some(t) = tr.as_deref_mut() {
                let grew = snapshots.list().map_err(err)?.len() > before;
                let name = if grew {
                    "journal.submit.snapshot"
                } else {
                    "journal.submit.plain"
                };
                t.record(name, id, started, ended);
            }
            let ms = ended.duration_since(started).as_secs_f64() * 1e3;
            s.submit_ms.push(ms);
            out.attempted += 1;
            if let Err(why) = expect_line(&r, "OK acked") {
                fail(out, why);
            }
        }
        let started = Instant::now();
        let stepped = match tr.as_deref_mut() {
            Some(t) => traced_step(t, &core, c),
            None => expect_line(
                &handle_line_shared(&core, "STEP"),
                &format!("OK batch {c} "),
            ),
        };
        s.step_ms.push(started.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        if let Err(why) = stepped {
            fail(out, format!("STEP {c}: {why}"));
        }
        // An observer reads an earlier batch (the one just run when there
        // is no earlier one).
        let pick = draw(opts.seed, c);
        let seq = if c == 0 { 0 } else { pick % c };
        let line = if pick.is_multiple_of(2) {
            format!("REPORT {seq}")
        } else {
            format!("TRACE {seq}")
        };
        let started = Instant::now();
        let r = span_opt(&mut tr, "journal.read", seq, || {
            handle_line_shared(&core, &line)
        });
        let ms = started.elapsed().as_secs_f64() * 1e3;
        s.read_ms.push(ms);
        out.attempted += 1;
        match r {
            Response::Blob(body) if !body.is_empty() => {
                if let Some(t) = tr.as_deref_mut() {
                    t.count("journal.read.bytes", body.len() as f64);
                }
            }
            other => fail(out, format!("`{line}`: {other:?}")),
        }
        for extra in 0..OPENS_PER_CYCLE {
            s.setup_s
                .push(open_empty(&format!("{k}-{c}-{extra}"), &spec, cfg)?);
        }
        if let Some(speed) = speed.as_deref_mut() {
            speed.tick();
        }
    }
    s.requests = cycles * PER_CYCLE;

    let state = match handle_line_shared(&core, "STATE") {
        Response::Blob(body) => body,
        other => return Err(format!("STATE: {other:?}")),
    };
    drop(core);
    let started = Instant::now();
    let recovered = span_opt(&mut tr, "journal.recovery", 0, || {
        ServiceCore::open(root, spec.clone(), cfg)
    });
    let recovered = recovered.map_err(err)?;
    s.recovery_s = started.elapsed().as_secs_f64();
    s.snapshot_bytes = newest_snapshot_bytes(root)?;
    out.attempted += 1;
    let lost: Vec<u64> = (1..=s.requests)
        .filter(|id| !recovered.is_acked(*id))
        .collect();
    if !lost.is_empty() {
        fail(out, format!("acked requests lost in recovery: {lost:?}"));
    } else if recovered.state_json().as_bytes() != state.as_slice() {
        fail(
            out,
            "recovered STATE differs from the state before reopening".into(),
        );
    } else if let Err(why) = digests.check(&state) {
        fail(out, why);
    }

    if let Some(t) = tr {
        t.count(
            "journal.recovery.replayed_events",
            recovered.recovery().replayed_events as f64,
        );
        drop(recovered);
        // Recovery's parts, timed one by one after the check.
        let jcfg = cfg.journal;
        let journal = t.span("journal.open", 0, || {
            Journal::open(root.join("journal"), jcfg)
        });
        let events = journal.map_err(err)?.events.len() as u64;
        let newest = t.span("journal.snapshot.newest_valid", 0, || {
            snapshots.newest_valid(events)
        });
        let (_, payload) = newest.map_err(err)?.ok_or("no valid snapshot")?;
        let text = String::from_utf8(payload).map_err(err)?;
        let parsed = t.span("journal.snapshot.decode", 0, || serde::parse(&text));
        parsed.map_err(err)?;
        t.count("journal.snapshot.bytes", text.len() as f64);
    }
    Ok(s)
}

/// The world one batch executes on, built the same way the service
/// provisions it, for the fleet and world layer probes.
fn replica_pairs(spec: &ScenarioSpec) -> Result<Vec<PairSpec>, String> {
    (0..spec.pairs)
        .map(|i| {
            let name = ScenarioSpec::app_for(i);
            let app = flux_workloads::spec(name).ok_or_else(|| format!("no app {name}"))?;
            Ok(PairSpec::new(format!("h{i:05}"), format!("g{i:05}"), app))
        })
        .collect()
}

fn fleet_cfg(spec: &ScenarioSpec) -> FleetConfig {
    FleetConfig {
        max_in_flight: spec.max_in_flight.max(1) as usize,
        ..FleetConfig::default()
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let spec = spec(opts);
    let mut out = Outcome {
        sizes: vec![
            ("pairs", spec.pairs),
            ("cycles", if opts.smoke { SMOKE_CYCLES } else { CYCLES }),
            ("submits_per_cycle", PER_CYCLE),
            ("snapshot_every", ServiceConfig::default().snapshot_every),
        ],
        workers: Exec::Serial.workers(),
        ..Outcome::default()
    };
    let mut digests = Digests::new(opts);
    if opts.trace {
        traced(opts, &spec, &mut digests, &mut out)?;
    } else {
        measured(opts, &mut digests, &mut out)?;
    }
    out.digest = digests.first();
    Ok(out)
}

fn measured(opts: &Opts, digests: &mut Digests, out: &mut Outcome) -> Result<(), String> {
    let started = Instant::now();
    let mut speed = Speed::new();
    let mut runs = Vec::new();
    while runs.len() < MIN_INSTANCES || started.elapsed() < opts.budget {
        runs.push(instance(
            opts,
            runs.len(),
            Some(&mut speed),
            None,
            digests,
            out,
        )?);
    }
    speed.tick();
    let f = speed.factor();
    let all =
        |f: fn(&Instance) -> &Vec<f64>| -> Vec<f64> { runs.iter().flat_map(f).copied().collect() };
    let (submit, step, read) = (
        all(|s| &s.submit_ms),
        all(|s| &s.step_ms),
        all(|s| &s.read_ms),
    );
    let per = |f: fn(&Instance) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let m = |v: &[f64]| median(v).expect("at least one instance");
    let q = |v: &[f64], p| quantile(v, p).expect("at least one instance");
    let rss = speed.peak_rss_mb()?;
    let setup = m(&all(|s| &s.setup_s));
    // Requests per host second over every instance's life, summed, so a
    // run of a few instances weighs all of their time.
    let rate = runs.iter().map(|s| s.requests).sum::<u64>() as f64
        / runs.iter().map(Instance::busy_s).sum::<f64>();
    out.metrics = vec![
        Metric::new("setup_s", setup * f, "s"),
        Metric::new("throughput_per_s", rate / f, "1/s"),
        Metric::new("step_p50_ms", m(&step) * f, "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
    ];
    out.named = vec![
        Metric::new("submit_p50_ms", m(&submit) * f, "ms"),
        Metric::new("submit_p99_ms", q(&submit, 0.99) * f, "ms"),
        Metric::new("submit_samples", submit.len() as f64, "count"),
        Metric::new("step_p50_ms", m(&step) * f, "ms"),
        Metric::new("step_p90_ms", q(&step, 0.90) * f, "ms"),
        Metric::new("step_samples", step.len() as f64, "count"),
        Metric::new("read_p50_ms", m(&read) * f, "ms"),
        Metric::new("recovery_s", m(&per(|s| s.recovery_s)) * f, "s"),
        Metric::new(
            "snapshot_mb",
            m(&per(|s| s.snapshot_bytes as f64)) / 1e6,
            "MB",
        ),
        Metric::new("requests_per_s", rate / f, "1/s"),
        Metric::new("setup_s", setup * f, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("instances", runs.len() as f64, "count"),
        Metric::new("host.requests_per_s", rate, "1/s"),
        Metric::new("host.setup_s", setup, "s"),
        Metric::new("host.step_p50_ms", m(&step), "ms"),
    ];
    out.named.extend(speed.metrics());
    Ok(())
}

fn traced(
    opts: &Opts,
    spec: &ScenarioSpec,
    digests: &mut Digests,
    out: &mut Outcome,
) -> Result<(), String> {
    let untraced_s = instance(opts, 0, None, None, digests, out)?.busy_s();
    let mut tr = Tracer::default();
    let traced_s = instance(opts, 1, None, Some(&mut tr), digests, out)?.busy_s();

    let own = ns_per_call(
        &tr,
        &[
            ("journal.service.begin.ns", "journal.service.begin"),
            ("journal.service.execute.ns", "journal.service.execute"),
            ("journal.service.install.ns", "journal.service.install"),
            ("journal.submit.snapshot_ns", "journal.submit.snapshot"),
            ("journal.submit.plain_ns", "journal.submit.plain"),
            ("journal.open.ns", "journal.open"),
            (
                "journal.snapshot.newest_valid.ns",
                "journal.snapshot.newest_valid",
            ),
            ("journal.snapshot.decode.ns", "journal.snapshot.decode"),
            ("journal.recovery.ns", "journal.recovery"),
        ],
    );
    let reads = tr.layer("journal.read").calls.max(1) as f64;
    let own = own
        .into_iter()
        .chain([
            Metric::new(
                "journal.recovery.replayed_events",
                tr.counted("journal.recovery.replayed_events"),
                "count",
            ),
            Metric::new(
                "journal.read.bytes",
                tr.counted("journal.read.bytes") / reads,
                "bytes",
            ),
        ])
        .collect();

    // The world and fleet layers, on a replica of one batch's world.
    let pairs = replica_pairs(spec)?;
    let batch = BatchSpec {
        seed: spec.seed,
        pairs: &pairs,
        requests: &|staged: &Staged, n: usize| layers::plain_requests(staged, &pairs[..n]),
        cfg: fleet_cfg(spec),
        exec: Exec::Serial,
    };
    let (staged, _, logs) = layers::traced_batch(&mut tr, &batch)?;
    layers::probe_telemetry(&mut tr, &staged.world);
    drop(staged);
    let overhead = Overhead {
        untraced_s,
        traced_s,
    };
    out.metrics = layers::finish_traced(&mut tr, &batch, &logs, overhead, own)?;
    Ok(())
}
