//! World building, fleet runs and layer probes shared by the workloads.
//!
//! Every workload stages home/guest pairs (Nexus 4 → Nexus 7 2013), runs
//! each home app's interaction script, pairs the devices and drives one
//! batch through [`FleetScheduler::run`]. [`build`] stages the world with
//! the public calls a user makes, under spans when it is given a tracer,
//! so the traced world is the untraced world. [`finish_traced`] then times
//! the layers below from outside: on throwaway worlds built the same way,
//! on cloned kernels and cloned filesystems, after the workload's output
//! digest has been taken.

use crate::context::nproc;
use crate::report::{layer_lines, Metric};
use crate::trace::{span_opt, Tracer};
use flux_core::{
    pair, replay_log, CallLog, Device, DeviceId, ExecutedMigration, Executor, FleetConfig,
    FleetReport, FleetScheduler, FluxWorld, MigrationRequest, PairingReport, SliceKind,
    WorldBuilder,
};
use flux_device::DeviceProfile;
use flux_kernel::{criu, Kernel, ProcessImage, RestoreOptions};
use flux_services::svc::package::PackageManagerService;
use flux_workloads::AppSpec;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Pairs the layer probes stage, at most: the probes report per-call
/// means, so a bounded sample keeps the traced run short.
const PROBE_PAIRS: usize = 48;

/// One home/guest pair: device names and the app staged on the home.
#[derive(Debug, Clone)]
pub struct PairSpec {
    pub home: String,
    pub guest: String,
    pub app: AppSpec,
}

impl PairSpec {
    pub fn new(home: String, guest: String, app: AppSpec) -> Self {
        Self { home, guest, app }
    }
}

fn home_profile() -> DeviceProfile {
    DeviceProfile::nexus4()
}

fn guest_profile() -> DeviceProfile {
    DeviceProfile::nexus7_2013()
}

/// A staged world: device ids in declaration order (home, guest, home,
/// guest, ...) and one pairing report per pair.
pub struct Staged {
    pub world: FluxWorld,
    pub ids: Vec<DeviceId>,
    pub pairings: Vec<PairingReport>,
}

impl Staged {
    pub fn home(&self, i: usize) -> DeviceId {
        self.ids[2 * i]
    }

    pub fn guest(&self, i: usize) -> DeviceId {
        self.ids[2 * i + 1]
    }
}

/// An error as the text the benchmark reports it with.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Builds, scripts and pairs `pairs` through the public calls a user
/// makes. The devices and apps go in the order [`WorldBuilder::build`]
/// adds them (`add_device` for every device, then `deploy` for every
/// app), so this is the world the builder would make; then each pair runs
/// its app's script and is paired. With a tracer, each call sits under
/// its span: `core.world.add_device`, `core.world.deploy`,
/// `core.world.run_script` (counting `core.world.run_script.actions`) and
/// `core.pairing.pair`.
pub fn build(
    mut tr: Option<&mut Tracer>,
    seed: u64,
    telemetry: bool,
    pairs: &[PairSpec],
) -> Result<Staged, String> {
    let (mut world, _) = WorldBuilder::new()
        .seed(seed)
        .telemetry(telemetry)
        .build()
        .map_err(err)?;
    let mut ids = Vec::with_capacity(2 * pairs.len());
    for (i, p) in pairs.iter().enumerate() {
        let req = i as u64 + 1;
        for (name, profile) in [(&p.home, home_profile()), (&p.guest, guest_profile())] {
            let id = span_opt(&mut tr, "core.world.add_device", req, || {
                world.add_device(name, profile)
            });
            ids.push(id.map_err(err)?);
        }
    }
    for (i, p) in pairs.iter().enumerate() {
        span_opt(&mut tr, "core.world.deploy", i as u64 + 1, || {
            world.deploy(ids[2 * i], &p.app)
        })
        .map_err(err)?;
    }
    let mut pairings = Vec::with_capacity(pairs.len());
    for (i, p) in pairs.iter().enumerate() {
        let req = i as u64 + 1;
        span_opt(&mut tr, "core.world.run_script", req, || {
            world.run_script(ids[2 * i], &p.app.package, &p.app.actions)
        })
        .map_err(err)?;
        if let Some(t) = tr.as_deref_mut() {
            t.count("core.world.run_script.actions", p.app.actions.len() as f64);
        }
        let report = span_opt(&mut tr, "core.pairing.pair", req, || {
            pair(&mut world, ids[2 * i], ids[2 * i + 1])
        });
        pairings.push(report.map_err(err)?);
    }
    Ok(Staged {
        world,
        ids,
        pairings,
    })
}

/// One request per pair, ids 1..=n, home to guest, nothing else set.
pub fn plain_requests(staged: &Staged, pairs: &[PairSpec]) -> Vec<MigrationRequest> {
    pairs
        .iter()
        .enumerate()
        .map(|(i, p)| {
            MigrationRequest::new(
                i as u64 + 1,
                staged.home(i),
                staged.guest(i),
                &p.app.package,
            )
        })
        .collect()
}

/// Pairing counts: files considered and files `--link-dest` satisfied
/// with a hard link.
pub fn count_pairings(tr: &mut Tracer, pairings: &[PairingReport]) {
    for r in pairings {
        for s in [&r.system_sync, &r.app_sync] {
            tr.count("fs.pairing.files_total", s.files_total as f64);
            tr.count("fs.pairing.files_hard_linked", s.files_hard_linked as f64);
        }
    }
}

/// The home record logs as they stand before the run, counted into
/// `core.record.log_entries` and `core.record.wire_bytes`. Cloned so the
/// parcel probe can walk them after the run has consumed the world.
pub fn snapshot_logs(
    tr: &mut Tracer,
    staged: &Staged,
    pairs: &[PairSpec],
) -> Result<Vec<CallLog>, String> {
    let mut logs = Vec::with_capacity(pairs.len());
    for (i, p) in pairs.iter().enumerate() {
        let dev = staged.world.device(staged.home(i)).map_err(err)?;
        let log = dev
            .app_uid(&p.app.package)
            .and_then(|uid| dev.records.log(uid))
            .cloned()
            .unwrap_or_default();
        tr.count("core.record.log_entries", log.len() as f64);
        tr.count("core.record.wire_bytes", log.wire_bytes() as f64);
        logs.push(log);
    }
    Ok(logs)
}

/// One `execute` call seen by [`TimedExecutor`].
#[derive(Debug, Clone, Copy)]
struct ExecCall {
    pub start: Instant,
    pub end: Instant,
    pub migrations: usize,
    pub slices: usize,
    pub radio_windows: usize,
}

/// Wraps the fleet's real executor and times each `execute` call from
/// outside; the scheduler's own work is the rest of `FleetScheduler::run`.
#[derive(Debug)]
struct TimedExecutor {
    inner: Box<dyn Executor>,
    calls: Arc<Mutex<Vec<ExecCall>>>,
}

impl TimedExecutor {
    fn new(inner: Box<dyn Executor>) -> (Self, Arc<Mutex<Vec<ExecCall>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        (
            Self {
                inner,
                calls: Arc::clone(&calls),
            },
            calls,
        )
    }
}

impl Executor for TimedExecutor {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn execute(
        &self,
        world: &mut FluxWorld,
        requests: &[MigrationRequest],
    ) -> Vec<ExecutedMigration> {
        let start = Instant::now();
        let out = self.inner.execute(world, requests);
        let end = Instant::now();
        let slices = out.iter().map(|m| m.schedule().len()).sum();
        let radio_windows = out
            .iter()
            .flat_map(|m| m.schedule())
            .filter(|s| matches!(s.kind, SliceKind::Transfer { .. }))
            .count();
        self.calls
            .lock()
            .expect("executor log lock poisoned")
            .push(ExecCall {
                start,
                end,
                migrations: requests.len(),
                slices,
                radio_windows,
            });
        out
    }
}

/// Which executor a fleet run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exec {
    Serial,
    Parallel(usize),
}

impl Exec {
    fn boxed(self) -> Box<dyn Executor> {
        match self {
            Exec::Serial => Box::new(flux_core::SerialExecutor),
            Exec::Parallel(n) => Box::new(flux_core::ParallelExecutor::new(n)),
        }
    }

    pub fn workers(self) -> usize {
        match self {
            Exec::Serial => 1,
            Exec::Parallel(n) => n,
        }
    }

    /// The other executor, for the serial-vs-parallel comparison.
    pub fn other(self, nproc: usize) -> Exec {
        match self {
            Exec::Serial => Exec::Parallel(nproc),
            Exec::Parallel(_) => Exec::Serial,
        }
    }
}

/// One batch's host times: `FleetScheduler::run` and, inside it, each
/// `execute` call of the executor.
pub struct RunTimes {
    start: Instant,
    end: Instant,
    calls: Vec<ExecCall>,
}

impl RunTimes {
    /// Host seconds `FleetScheduler::run` took.
    pub fn run_s(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }

    /// Host seconds inside the executor's `execute` calls.
    pub fn execute_s(&self) -> f64 {
        self.calls
            .iter()
            .map(|c| c.end.duration_since(c.start).as_secs_f64())
            .sum()
    }
}

/// Runs one batch under `exec`, wrapped by [`TimedExecutor`] (two clock
/// reads and a slice count per `execute` call); returns the report and
/// its host times.
pub fn run_fleet(
    world: &mut FluxWorld,
    requests: Vec<MigrationRequest>,
    cfg: FleetConfig,
    exec: Exec,
) -> Result<(FleetReport, RunTimes), String> {
    let (timed, calls) = TimedExecutor::new(exec.boxed());
    let scheduler = FleetScheduler::new(cfg).map_err(err)?.with_executor(timed);
    let start = Instant::now();
    let report = scheduler.run(world, requests).map_err(err)?;
    let end = Instant::now();
    let calls = std::mem::take(&mut *calls.lock().expect("executor log lock poisoned"));
    Ok((report, RunTimes { start, end, calls }))
}

/// [`run_fleet`] under a `core.fleet.run` span, with each `execute` call
/// recorded as a `core.fleet.execute` child (the run's self time is the
/// scheduler's re-timing: timeline, medium, admission, telemetry absorb).
pub fn run_traced(
    tr: &mut Tracer,
    world: &mut FluxWorld,
    requests: Vec<MigrationRequest>,
    cfg: FleetConfig,
    exec: Exec,
) -> Result<FleetReport, String> {
    let run = tr.open_span("core.fleet.run", 0);
    let ran = run_fleet(world, requests, cfg, exec);
    for c in ran.iter().flat_map(|(_, times)| &times.calls) {
        tr.record("core.fleet.execute", 0, c.start, c.end);
        tr.count("core.fleet.execute.migrations", c.migrations as f64);
        tr.count("core.fleet.execute.slices", c.slices as f64);
        tr.count("core.fleet.execute.radio_windows", c.radio_windows as f64);
    }
    tr.close(run);
    let (report, _) = ran?;
    tr.count(
        "net.medium.segments",
        report.cells.iter().map(|c| c.segments.len()).sum::<usize>() as f64,
    );
    Ok(report)
}

/// Builds the batch of a staged world's first `n` pairs.
pub type Requests<'a> = &'a dyn Fn(&Staged, usize) -> Vec<MigrationRequest>;

/// One fleet batch as a traced run stages and re-runs it.
pub struct BatchSpec<'a> {
    pub seed: u64,
    pub pairs: &'a [PairSpec],
    pub requests: Requests<'a>,
    pub cfg: FleetConfig,
    pub exec: Exec,
}

/// The batch staged with [`build`] and run with [`run_traced`], with the
/// pairing and record-log counts taken on the way. Returns the staged
/// world, the report and the home logs as they stood before the run.
pub fn traced_batch(
    tr: &mut Tracer,
    b: &BatchSpec<'_>,
) -> Result<(Staged, FleetReport, Vec<CallLog>), String> {
    let mut staged = build(Some(&mut *tr), b.seed, true, b.pairs)?;
    count_pairings(tr, &staged.pairings);
    let logs = snapshot_logs(tr, &staged, b.pairs)?;
    let reqs = (b.requests)(&staged, b.pairs.len());
    let report = run_traced(tr, &mut staged.world, reqs, b.cfg, b.exec)?;
    Ok((staged, report, logs))
}

/// Telemetry sizes after the run, and the two exports under spans.
pub fn probe_telemetry(tr: &mut Tracer, world: &FluxWorld) {
    let t = &world.telemetry;
    tr.count("telemetry.lanes", t.lanes().len() as f64);
    tr.count("telemetry.spans", t.spans().len() as f64);
    tr.count("telemetry.instants", t.instants().len() as f64);
    tr.count("telemetry.events_dropped", t.dropped_events() as f64);
    let chrome = tr.span("telemetry.export.chrome_trace", 0, || {
        flux_telemetry::chrome_trace(t)
    });
    let snapshot = tr.span("telemetry.export.json_snapshot", 0, || {
        flux_telemetry::json_snapshot(t)
    });
    tr.count(
        "telemetry.export.bytes",
        (chrome.len() + snapshot.len()) as f64,
    );
}

/// Parcel marshalling over every recorded call: one encode span and one
/// decode span per log, counting parcels and encoded bytes.
fn probe_parcels(tr: &mut Tracer, logs: &[CallLog]) -> Result<(), String> {
    for (i, log) in logs.iter().enumerate() {
        let req = i as u64 + 1;
        let encoded: Vec<Vec<u8>> = tr.span("binder.parcel.encode", req, || {
            log.entries()
                .iter()
                .flat_map(|e| [e.args.encode(), e.reply.encode()])
                .collect()
        });
        let decoded = tr.span("binder.parcel.decode", req, || {
            encoded
                .iter()
                .map(|b| flux_binder::Parcel::decode(b))
                .collect::<Result<Vec<_>, _>>()
        });
        let decoded = decoded.map_err(|e| format!("recorded parcel does not decode: {e}"))?;
        let expected = log.entries().iter().flat_map(|e| [&e.args, &e.reply]);
        if !decoded.iter().eq(expected) {
            return Err("recorded parcel changed through encode/decode".into());
        }
        tr.count("binder.parcel.parcels", encoded.len() as f64);
        tr.count(
            "binder.parcel.bytes",
            encoded.iter().map(Vec::len).sum::<usize>() as f64,
        );
    }
    Ok(())
}

/// Times the boot path's public calls once per device in `devices`:
/// `aidl.compile_all`, `services.boot_android` (which compiles the
/// interfaces again inside) and `device.populate_system`.
fn probe_boot(tr: &mut Tracer, devices: usize) -> Result<(), String> {
    for i in 0..devices {
        let profile = if i % 2 == 0 {
            home_profile()
        } else {
            guest_profile()
        };
        let req = (i / 2) as u64 + 1;
        let compiled = tr.span("aidl.compile_all", req, flux_services::compile_all)?;
        black_box(compiled);
        let mut kernel = Kernel::new(&profile.kernel_version);
        let host = tr.span("services.boot_android", req, || {
            flux_services::boot_android(&mut kernel, &Device::services_config(&profile))
        })?;
        black_box(host);
        let mut fs = flux_fs::SimFs::new();
        tr.span("device.populate_system", req, || {
            flux_device::populate_system(&mut fs, &profile)
        });
        black_box(fs);
    }
    Ok(())
}

/// Stages `pairs` in a throwaway world with [`build`] and times, per
/// pair: the pairing's `/system` rsync on cloned filesystems, the CRIU
/// walkers on a frozen clone of the home kernel (restored into a clone of
/// the guest kernel), and record-log replay onto the guest. Pairs whose
/// app cannot be checkpointed or relaunched on the guest (preserved EGL
/// context, newer API level) are counted as skipped.
fn probe_world(tr: &mut Tracer, seed: u64, pairs: &[PairSpec]) -> Result<(), String> {
    let mut staged = build(None, seed, true, pairs)?;
    for (i, p) in pairs.iter().enumerate() {
        let (home, guest) = (staged.home(i), staged.guest(i));
        let req = i as u64 + 1;
        let world = &mut staged.world;
        probe_rsync(tr, world, home, guest, req)?;
        let log = {
            let dev = world.device(home).map_err(err)?;
            dev.app_uid(&p.app.package)
                .and_then(|uid| dev.records.log(uid))
                .cloned()
                .unwrap_or_default()
        };
        probe_criu(tr, world, home, guest, &p.app.package, req)?;
        probe_replay(tr, world, guest, &p.app.package, &log, req);
    }
    Ok(())
}

/// The pairing's `/system` sync again, from a clone of the home filesystem
/// into a clone of the paired guest's with the pairing's copy removed, so
/// it does the work `pair` did.
fn probe_rsync(
    tr: &mut Tracer,
    world: &FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    req: u64,
) -> Result<(), String> {
    let h = world.device(home).map_err(err)?;
    let g = world.device(guest).map_err(err)?;
    let src = h.fs.clone();
    let mut dst = g.fs.clone();
    let root = format!("/data/flux/{}/system", h.name);
    dst.remove_tree(&format!("{root}/"));
    let opts = flux_fs::SyncOptions {
        link_dest: Some("/system".into()),
        ..flux_fs::SyncOptions::default()
    };
    let report = tr.span("fs.rsync.sync", req, || {
        flux_fs::sync(&src, "/system", &mut dst, &root, &opts, &g.cost)
    });
    let report = report.map_err(err)?;
    tr.count(
        "fs.rsync.bytes_shipped",
        report.bytes_shipped.as_u64() as f64,
    );
    Ok(())
}

fn probe_criu(
    tr: &mut Tracer,
    world: &mut FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    package: &str,
    req: u64,
) -> Result<(), String> {
    let now = world.clock.now();
    // The preparation stage's public half: background, trim, eglUnload.
    // It freezes the process, which the checkpoint requires.
    let (kernel, pid) = {
        let dev = world.device_mut(home).map_err(err)?;
        let Some(mut app) = dev.apps.remove(package) else {
            return Err(format!("home app {package} missing"));
        };
        let prepared =
            flux_appfw::move_to_background(&mut app, &mut dev.kernel, &mut dev.host, now)
                .map_err(err)
                .and_then(|_| {
                    flux_appfw::handle_trim_memory(&mut app, &mut dev.kernel, &mut dev.host, now)
                        .map_err(err)
                })
                .and_then(|_| flux_appfw::egl_unload(&mut app, &mut dev.kernel));
        let pid = app.main_pid;
        dev.apps.insert(package.to_owned(), app);
        if prepared.is_err() {
            tr.count("kernel.criu.skipped", 1.0);
            return Ok(());
        }
        (dev.kernel.clone(), pid)
    };
    let image = tr.span("kernel.criu.checkpoint", req, || {
        criu::checkpoint(&kernel, pid, now)
    });
    let image = image.map_err(err)?;
    let bytes = tr.span("kernel.criu.encode", req, || image.encode());
    let decoded = tr.span("kernel.criu.decode", req, || ProcessImage::decode(&bytes));
    if decoded.map_err(err)? != image {
        return Err(format!(
            "{package}: CRIU image changed through encode/decode"
        ));
    }
    tr.count("kernel.criu.images", 1.0);
    tr.count(
        "kernel.criu.image_bytes",
        image.total_bytes().as_u64() as f64,
    );
    tr.count("kernel.criu.objects", image.object_count() as f64);

    let g = world.device(guest).map_err(err)?;
    let (Some(uid), Some(root)) = (
        g.host
            .service::<PackageManagerService>("package")
            .and_then(|pm| pm.package(package).map(|r| r.uid)),
        g.pairings.get(&home.0).map(|p| p.root.clone()),
    ) else {
        return Err(format!("{package}: guest not paired"));
    };
    let mut guest_kernel = g.kernel.clone();
    let namespace = guest_kernel.namespaces.create();
    let opts = RestoreOptions {
        namespace,
        uid,
        jail_root: root,
    };
    let restored = tr.span("kernel.criu.restore", req, || {
        criu::restore(&mut guest_kernel, &image, &opts)
    });
    restored.map_err(err)?;
    Ok(())
}

fn probe_replay(
    tr: &mut Tracer,
    world: &mut FluxWorld,
    guest: DeviceId,
    package: &str,
    log: &CallLog,
    req: u64,
) {
    if world.launch_app(guest, package).is_err() {
        tr.count("core.replay.skipped", 1.0);
        return;
    }
    let at = world.clock.now();
    let replayed = tr.span("core.replay.replay_log", req, || {
        replay_log(world, guest, package, log, at, &home_profile())
    });
    match replayed {
        Ok(_) => tr.count("core.replay.entries", log.len() as f64),
        Err(_) => tr.count("core.replay.skipped", 1.0),
    }
}

/// The fleet ratios a traced run reports, each with its base.
#[derive(Debug, Clone, Copy, Default)]
pub struct Variants {
    pub full_requests: usize,
    pub full_run_s: f64,
    pub tenth_requests: usize,
    pub tenth_run_s: f64,
    pub serial_execute_s: f64,
    pub parallel_execute_s: f64,
    pub telemetry_off_run_s: f64,
}

/// Re-runs the batch untraced, at a tenth of its size, under the other
/// executor and with telemetry off, timing each.
fn variants(b: &BatchSpec<'_>) -> Result<Variants, String> {
    let time = |n: usize, telemetry: bool, exec: Exec| -> Result<RunTimes, String> {
        let mut staged = build(None, b.seed, telemetry, &b.pairs[..n])?;
        let reqs = (b.requests)(&staged, n);
        Ok(run_fleet(&mut staged.world, reqs, b.cfg, exec)?.1)
    };
    let n = b.pairs.len();
    let tenth = n.div_ceil(10);
    let full = time(n, true, b.exec)?;
    let other = time(n, true, b.exec.other(nproc()))?;
    let (serial, parallel) = match b.exec {
        Exec::Serial => (full.execute_s(), other.execute_s()),
        Exec::Parallel(_) => (other.execute_s(), full.execute_s()),
    };
    Ok(Variants {
        full_requests: n,
        full_run_s: full.run_s(),
        tenth_requests: tenth,
        tenth_run_s: time(tenth, true, b.exec)?.run_s(),
        serial_execute_s: serial,
        parallel_execute_s: parallel,
        telemetry_off_run_s: time(n, false, b.exec)?.run_s(),
    })
}

/// The probes every traced run makes once its output digest is taken:
/// the parcel codec over `logs`, the boot path and [`probe_world`] on at
/// most [`PROBE_PAIRS`] of the batch's pairs, and the fleet [`variants`].
/// Prints every span, count and per-layer metric, with `own` (the
/// workload's own layers) and the tracing overhead in seconds; returns the
/// per-layer metrics of the result line.
pub fn finish_traced(
    tr: &mut Tracer,
    b: &BatchSpec<'_>,
    logs: &[CallLog],
    overhead: Overhead,
    mut own: Vec<Metric>,
) -> Result<Vec<Metric>, String> {
    probe_parcels(tr, logs)?;
    let sample = &b.pairs[..b.pairs.len().min(PROBE_PAIRS)];
    probe_boot(tr, 2 * sample.len())?;
    probe_world(tr, b.seed, sample)?;
    let v = variants(b)?;
    let metrics = per_layer(tr, &v, &overhead);
    own.push(Metric::new(
        "trace.overhead_s",
        overhead.traced_s - overhead.untraced_s,
        "s",
    ));
    for line in layer_lines(tr, &metrics, &own) {
        println!("{line}");
    }
    Ok(metrics)
}

/// Wall time of the untraced and traced passes over the same work.
#[derive(Debug, Clone, Copy, Default)]
pub struct Overhead {
    pub untraced_s: f64,
    pub traced_s: f64,
}

fn per(total: f64, n: f64) -> f64 {
    if n > 0.0 {
        total / n
    } else {
        0.0
    }
}

/// The per-layer metrics every workload's traced run reports, in the
/// order `BENCHMARK.json` lists them.
fn per_layer(tr: &Tracer, v: &Variants, o: &Overhead) -> Vec<Metric> {
    let ns = |name: &str| tr.layer(name).ns_per_call();
    let calls = |name: &str| tr.layer(name).calls as f64;
    let c = |name: &str| tr.counted(name);
    let migrations = c("core.fleet.execute.migrations");
    let full_per = per(v.full_run_s, v.full_requests as f64);
    let tenth_per = per(v.tenth_run_s, v.tenth_requests as f64);
    vec![
        Metric::new("aidl.compile_all.ns", ns("aidl.compile_all"), "ns"),
        Metric::new(
            "services.boot_android.ns",
            ns("services.boot_android"),
            "ns",
        ),
        Metric::new(
            "device.populate_system.ns",
            ns("device.populate_system"),
            "ns",
        ),
        Metric::new(
            "core.world.add_device.ns",
            ns("core.world.add_device"),
            "ns",
        ),
        Metric::new(
            "core.world.add_device.calls",
            calls("core.world.add_device"),
            "count",
        ),
        Metric::new("core.world.deploy.ns", ns("core.world.deploy"), "ns"),
        Metric::new(
            "core.world.deploy.calls",
            calls("core.world.deploy"),
            "count",
        ),
        Metric::new(
            "core.world.run_script.ns_per_action",
            per(
                tr.layer("core.world.run_script").self_ns,
                c("core.world.run_script.actions"),
            ),
            "ns",
        ),
        Metric::new(
            "core.world.run_script.actions",
            c("core.world.run_script.actions"),
            "count",
        ),
        Metric::new(
            "binder.parcel.encode.ns",
            per(
                tr.layer("binder.parcel.encode").self_ns,
                c("binder.parcel.parcels"),
            ),
            "ns",
        ),
        Metric::new(
            "binder.parcel.decode.ns",
            per(
                tr.layer("binder.parcel.decode").self_ns,
                c("binder.parcel.parcels"),
            ),
            "ns",
        ),
        Metric::new("binder.parcel.bytes", c("binder.parcel.bytes"), "bytes"),
        Metric::new(
            "core.record.log_entries",
            c("core.record.log_entries"),
            "count",
        ),
        Metric::new(
            "core.record.wire_bytes",
            c("core.record.wire_bytes"),
            "bytes",
        ),
        Metric::new("core.pairing.pair.ns", ns("core.pairing.pair"), "ns"),
        Metric::new("fs.rsync.sync.ns", ns("fs.rsync.sync"), "ns"),
        Metric::new(
            "fs.rsync.bytes_shipped",
            per(c("fs.rsync.bytes_shipped"), calls("fs.rsync.sync")),
            "bytes",
        ),
        Metric::new(
            "fs.rsync.linked_frac",
            per(
                c("fs.pairing.files_hard_linked"),
                c("fs.pairing.files_total"),
            ),
            "ratio",
        ),
        Metric::new(
            "kernel.criu.checkpoint.ns",
            ns("kernel.criu.checkpoint"),
            "ns",
        ),
        Metric::new("kernel.criu.restore.ns", ns("kernel.criu.restore"), "ns"),
        Metric::new("kernel.criu.encode.ns", ns("kernel.criu.encode"), "ns"),
        Metric::new("kernel.criu.decode.ns", ns("kernel.criu.decode"), "ns"),
        Metric::new(
            "kernel.criu.image_bytes",
            per(c("kernel.criu.image_bytes"), c("kernel.criu.images")),
            "bytes",
        ),
        Metric::new(
            "kernel.criu.objects",
            per(c("kernel.criu.objects"), c("kernel.criu.images")),
            "count",
        ),
        Metric::new(
            "core.replay.replay_log.ns_per_entry",
            per(
                tr.layer("core.replay.replay_log").self_ns,
                c("core.replay.entries"),
            ),
            "ns",
        ),
        Metric::new(
            "core.fleet.execute.ns_per_migration",
            per(tr.layer("core.fleet.execute").self_ns, migrations),
            "ns",
        ),
        Metric::new(
            "core.fleet.execute.slices",
            c("core.fleet.execute.slices"),
            "count",
        ),
        Metric::new(
            "core.fleet.execute.radio_windows",
            c("core.fleet.execute.radio_windows"),
            "count",
        ),
        Metric::new(
            "core.fleet.retime.ns_per_migration",
            per(tr.layer("core.fleet.run").self_ns, migrations),
            "ns",
        ),
        Metric::new(
            "core.fleet.scaling_ratio",
            per(full_per, tenth_per),
            "ratio",
        ),
        Metric::new(
            "core.fleet.scaling.full_requests",
            v.full_requests as f64,
            "count",
        ),
        Metric::new("core.fleet.scaling.full_run_s", v.full_run_s, "s"),
        Metric::new(
            "core.fleet.scaling.tenth_requests",
            v.tenth_requests as f64,
            "count",
        ),
        Metric::new("core.fleet.scaling.tenth_run_s", v.tenth_run_s, "s"),
        Metric::new(
            "core.executor.parallel_speedup",
            per(v.serial_execute_s, v.parallel_execute_s),
            "ratio",
        ),
        Metric::new("core.executor.serial_execute_s", v.serial_execute_s, "s"),
        Metric::new(
            "core.executor.parallel_execute_s",
            v.parallel_execute_s,
            "s",
        ),
        Metric::new("net.medium.segments", c("net.medium.segments"), "count"),
        Metric::new("telemetry.lanes", c("telemetry.lanes"), "count"),
        Metric::new("telemetry.spans", c("telemetry.spans"), "count"),
        Metric::new("telemetry.instants", c("telemetry.instants"), "count"),
        Metric::new(
            "telemetry.share",
            1.0 - per(v.telemetry_off_run_s, v.full_run_s),
            "ratio",
        ),
        Metric::new("telemetry.share.on_run_s", v.full_run_s, "s"),
        Metric::new("telemetry.share.off_run_s", v.telemetry_off_run_s, "s"),
        Metric::new(
            "telemetry.export.chrome_trace.ns",
            ns("telemetry.export.chrome_trace"),
            "ns",
        ),
        Metric::new(
            "telemetry.export.json_snapshot.ns",
            ns("telemetry.export.json_snapshot"),
            "ns",
        ),
        Metric::new(
            "telemetry.export.bytes",
            c("telemetry.export.bytes"),
            "bytes",
        ),
        Metric::new("trace.untraced_s", o.untraced_s, "s"),
        Metric::new("trace.traced_s", o.traced_s, "s"),
        Metric::new(
            "trace.overhead_ratio",
            per(o.traced_s, o.untraced_s),
            "ratio",
        ),
    ]
}

/// A deterministic draw for input `i` of the run seeded `seed`
/// (SplitMix64), for choices the benchmark makes itself.
pub fn draw(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
