//! The Flux environment: devices, apps and recorded service calls.
//!
//! A [`FluxWorld`] holds several simulated devices sharing one virtual
//! clock and one wireless environment — the setting of Figure 1 of the
//! paper. Apps call system services through [`FluxWorld::app_call`], which
//! is where Selective Record interposes (the framework-library decorator
//! position of Figure 5), and workload scripts drive those calls through
//! [`FluxWorld::perform`].

use crate::errors::FluxError;
use crate::record::RecordStore;
use flux_appfw::{launch, ActivityState, App, AppFootprint, LifecycleEvent};
use flux_binder::{BinderError, Parcel};
use flux_device::DeviceProfile;
use flux_fs::SimFs;
use flux_kernel::{FdKind, Kernel};
use flux_net::NetworkEnv;
use flux_services::svc::alarm::AlarmManagerService;
use flux_services::svc::package::PackageManagerService;
use flux_services::{boot_android, Delivery, ServiceHost, ServicesConfig};
use flux_simcore::{ByteSize, CostModel, FaultPlan, SimClock, SimDuration, SimTime, Uid};
use flux_telemetry::{LaneId, Telemetry};
use flux_workloads::{Action, AppSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifies a device within a [`FluxWorld`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DeviceId(pub usize);

/// Serializes as the raw device index.
impl serde::Serialize for DeviceId {
    fn serialize(&self, out: &mut String) {
        serde::Serialize::serialize(&self.0, out);
    }
}

/// Deserializes from the raw device index.
impl<'de> serde::Deserialize<'de> for DeviceId {
    fn deserialize(v: &serde::JsonValue) -> Result<Self, serde::DeError> {
        usize::deserialize(v).map(DeviceId)
    }
}

/// Pairing state a guest holds for one home device (§3.1).
#[derive(Debug, Clone, Default)]
pub struct Pairing {
    /// Location of the synced home frameworks on the guest data partition.
    pub root: String,
    /// Packages pseudo-installed from the home device.
    pub packages: BTreeSet<String>,
}

/// One simulated device.
#[derive(Debug)]
pub struct Device {
    /// Human-readable name, e.g. `"home-n7"`.
    pub name: String,
    /// Hardware profile.
    pub profile: DeviceProfile,
    /// The kernel (processes, Binder, Android drivers).
    pub kernel: Kernel,
    /// The booted system services.
    pub host: ServiceHost,
    /// The filesystem (system + data partitions).
    pub fs: SimFs,
    /// Launched apps, by package name.
    pub apps: BTreeMap<String, App>,
    /// Installed app specs, by package name (needed to re-launch and to
    /// re-initialise after migration).
    pub specs: BTreeMap<String, AppSpec>,
    /// Per-app record logs.
    pub records: RecordStore,
    /// The device's scaled cost model.
    pub cost: CostModel,
    /// Pairings with other devices, keyed by the *home* device id.
    pub pairings: BTreeMap<usize, Pairing>,
    /// The device's telemetry lane (its row in the Chrome trace).
    pub lane: LaneId,
}

impl Device {
    /// Builds the services configuration from the profile.
    pub fn services_config(profile: &DeviceProfile) -> ServicesConfig {
        ServicesConfig {
            sensors: profile.hardware.sensors.clone(),
            has_gps: profile.hardware.gps,
            has_vibrator: profile.hardware.vibrator,
            cameras: profile.hardware.cameras,
            // Phones and tablets ship different volume curves; the audio
            // replay proxy rescales between them (§3.2).
            max_volume: if profile.hardware.vibrator { 15 } else { 25 },
            screen: (profile.screen.width, profile.screen.height),
        }
    }

    /// The UID of a launched app.
    pub fn app_uid(&self, package: &str) -> Option<Uid> {
        self.apps.get(package).map(|a| a.uid)
    }
}

/// Errors surfaced by environment operations.
#[derive(Debug, Clone, PartialEq)]
pub enum WorldError {
    /// Unknown device id.
    NoSuchDevice(usize),
    /// The package is not installed / not launched on the device.
    NoSuchApp(String),
    /// A Binder-level failure.
    Binder(BinderError),
    /// A service boot or registry failure.
    Boot(String),
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::NoSuchDevice(i) => write!(f, "no device #{i}"),
            WorldError::NoSuchApp(p) => write!(f, "app {p} not present"),
            WorldError::Binder(e) => write!(f, "binder: {e}"),
            WorldError::Boot(m) => write!(f, "boot: {m}"),
        }
    }
}

impl std::error::Error for WorldError {}

impl From<BinderError> for WorldError {
    fn from(e: BinderError) -> Self {
        WorldError::Binder(e)
    }
}

/// Policy knobs for Adaptive Replay.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPolicy {
    /// When the guest lacks hardware the app used (e.g. GPS), forward the
    /// device over the network instead of dropping the calls — the user
    /// opt-in of §3.2.
    pub forward_missing_hardware: bool,
}

impl Default for ReplayPolicy {
    fn default() -> Self {
        Self {
            forward_missing_hardware: true,
        }
    }
}

/// The multi-device simulation environment.
#[derive(Debug)]
pub struct FluxWorld {
    /// Shared virtual clock.
    pub clock: SimClock,
    /// Shared wireless environment.
    pub net: NetworkEnv,
    /// The observability hub: spans, instant events (the world's one
    /// event log) and metrics. See `flux_telemetry`.
    pub telemetry: Telemetry,
    /// Adaptive Replay policy.
    pub policy: ReplayPolicy,
    /// Whether Selective Record interposition is active. Disabling it
    /// models vanilla AOSP for the Figure 16 overhead comparison (apps
    /// then cannot migrate, since no log exists).
    pub recording: bool,
    /// The fault schedule migrations and transfers consult. Empty by
    /// default: fault injection is strictly opt-in and an empty plan is
    /// byte-identical to a world that predates it.
    pub fault_plan: FaultPlan,
    /// Devices in the world.
    pub devices: Vec<Device>,
}

impl FluxWorld {
    /// Boots a device: kernel, system services, system partition.
    pub fn add_device(
        &mut self,
        name: &str,
        profile: DeviceProfile,
    ) -> Result<DeviceId, FluxError> {
        let mut kernel = Kernel::new(&profile.kernel_version);
        let host = boot_android(&mut kernel, &Device::services_config(&profile))
            .map_err(WorldError::Boot)?;
        let mut fs = SimFs::new();
        flux_device::populate_system(&mut fs, &profile);
        let cost = CostModel::reference().scaled(profile.cpu_scale);
        let lane = self.telemetry.lane(name);
        self.devices.push(Device {
            name: name.to_owned(),
            profile,
            kernel,
            host,
            fs,
            apps: BTreeMap::new(),
            specs: BTreeMap::new(),
            records: RecordStore::default(),
            cost,
            pairings: BTreeMap::new(),
            lane,
        });
        Ok(DeviceId(self.devices.len() - 1))
    }

    /// Immutable device access.
    pub fn device(&self, id: DeviceId) -> Result<&Device, WorldError> {
        self.devices.get(id.0).ok_or(WorldError::NoSuchDevice(id.0))
    }

    /// Mutable device access.
    pub fn device_mut(&mut self, id: DeviceId) -> Result<&mut Device, WorldError> {
        self.devices
            .get_mut(id.0)
            .ok_or(WorldError::NoSuchDevice(id.0))
    }

    /// Installs an app (APK on disk, data dir, PackageManager entry).
    pub fn install_app(&mut self, id: DeviceId, spec: &AppSpec) -> Result<Uid, FluxError> {
        let dev = self.device_mut(id)?;
        let apk_path = format!("/data/app/{}.apk", spec.package);
        let apk = ByteSize::from_mib_f64(spec.apk_mib);
        dev.fs.write(
            &apk_path,
            flux_fs::Content::new(apk, fnv(&format!("{}@{}", spec.package, spec.apk_mib))),
        );
        // Seed the data directory with the app's persistent files.
        let data = ByteSize::from_mib_f64(spec.data_dir_mib);
        dev.fs.write(
            &format!("/data/data/{}/files/base.db", spec.package),
            flux_fs::Content::new(data, fnv(&format!("{}-data", spec.package))),
        );
        let uid = dev
            .host
            .service_mut::<PackageManagerService>("package")
            .expect("package service registered")
            .install(
                &spec.package,
                &apk_path,
                1,
                spec.min_api,
                vec!["android.permission.INTERNET".into()],
            );
        dev.specs.insert(spec.package.clone(), spec.clone());
        Ok(uid)
    }

    /// Launches an installed app and runs no actions yet.
    pub fn launch_app(&mut self, id: DeviceId, package: &str) -> Result<(), FluxError> {
        let now = self.clock.now();
        let dev = self.device_mut(id)?;
        let spec = dev
            .specs
            .get(package)
            .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?
            .clone();
        let uid = dev
            .host
            .service::<PackageManagerService>("package")
            .and_then(|p| p.package(package).map(|r| r.uid))
            .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
        let footprint = AppFootprint {
            heap: ByteSize::from_mib_f64(spec.heap_mib),
            heap_dirty: spec.heap_dirty,
            native: ByteSize::from_mib_f64(spec.native_mib),
            textures: ByteSize::from_mib_f64(spec.textures_mib),
            gl_contexts: spec.gl_contexts,
            views: spec.views,
            threads: spec.threads,
            apk: ByteSize::from_mib_f64(spec.apk_mib),
            network: true,
        };
        let vendor_lib = dev.profile.gpu.vendor_lib.clone();
        let mut app = launch(
            &mut dev.kernel,
            &mut dev.host,
            now,
            package,
            uid,
            &footprint,
            &vendor_lib,
            spec.min_api,
        )?;
        if spec.multi_process {
            flux_appfw::add_process(&mut dev.kernel, &mut app, "remote");
        }
        if spec.preserve_egl {
            if let Some(ctx) = app.gl.contexts.first().map(|c| c.id) {
                app.gl.set_preserve_on_pause(ctx, true);
            }
        }
        dev.apps.insert(package.to_owned(), app);
        Ok(())
    }

    /// Installs and launches in one step.
    pub fn deploy(&mut self, id: DeviceId, spec: &AppSpec) -> Result<(), FluxError> {
        self.install_app(id, spec)?;
        self.launch_app(id, &spec.package)
    }

    /// An app calls a system service method — the Selective Record
    /// interposition point. The call is dispatched, then offered to the
    /// app's record log under the service's compiled rules, and any
    /// deliveries the service produced are routed to app inboxes.
    pub fn app_call(
        &mut self,
        id: DeviceId,
        package: &str,
        service: &str,
        method: &str,
        args: Parcel,
    ) -> Result<Parcel, FluxError> {
        let now = self.clock.now();
        let recording = self.recording;
        let dev = self.device_mut(id)?;
        let record_cost = SimDuration::from_nanos(dev.cost.record_ns_per_call);
        let binder_cost = dev.cost.binder_transaction;
        let app = dev
            .apps
            .get_mut(package)
            .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
        let uid = app.uid;
        let (reply, deliveries) = app.call_service(
            &mut dev.kernel,
            &mut dev.host,
            now,
            service,
            method,
            args.clone(),
        )?;

        // Selective Record: asynchronous append + stale-call removal.
        if recording {
            let outcome = dev.host.interface_of_service(service).map(|iface| {
                dev.records
                    .log_mut(uid)
                    .offer(iface, service, method, &args, &reply, now)
            });
            if let Some(o) = outcome {
                if o.recorded {
                    self.telemetry.counter_add("flux.record.calls_logged", 1);
                }
                if o.suppressed {
                    self.telemetry
                        .counter_add("flux.record.calls_suppressed", 1);
                }
                if o.dropped > 0 {
                    self.telemetry
                        .counter_add("flux.record.calls_dropped", o.dropped as u64);
                }
            }
            self.clock.charge(record_cost);
        }
        self.clock.charge(binder_cost);
        self.route_deliveries(id, deliveries)?;
        Ok(reply)
    }

    /// Routes service deliveries to the inboxes of apps on `id`.
    pub fn route_deliveries(
        &mut self,
        id: DeviceId,
        deliveries: Vec<Delivery>,
    ) -> Result<(), FluxError> {
        let dev = self.device_mut(id)?;
        for d in deliveries {
            if let Some(app) = dev.apps.values_mut().find(|a| a.uid == d.to_uid) {
                app.accept(d);
            }
        }
        Ok(())
    }

    /// Advances virtual time, firing kernel alarms on every device and
    /// delivering the resulting broadcasts.
    pub fn tick(&mut self, dt: SimDuration) {
        let now = self.clock.charge(dt);
        for i in 0..self.devices.len() {
            self.fire_alarms(DeviceId(i), now);
        }
    }

    fn fire_alarms(&mut self, id: DeviceId, now: SimTime) {
        let dev = match self.device_mut(id) {
            Ok(d) => d,
            Err(_) => return,
        };
        let due = dev.kernel.alarm.fire_due(now);
        if due.is_empty() {
            return;
        }
        let mut deliveries = Vec::new();
        if let Some(alarm_svc) = dev.host.service_mut::<AlarmManagerService>("alarm") {
            for a in due {
                if let Some((uid, event)) = alarm_svc.kernel_alarm_fired(a.id) {
                    deliveries.push(Delivery {
                        to_uid: uid,
                        event,
                        at: now,
                    });
                }
            }
        }
        let _ = self.route_deliveries(id, deliveries);
    }

    /// Executes one workload action for an app.
    pub fn perform(
        &mut self,
        id: DeviceId,
        package: &str,
        action: &Action,
    ) -> Result<(), FluxError> {
        let pkg = package.to_owned();
        match action {
            Action::PostNotification {
                id: nid,
                payload_kib,
            } => {
                self.app_call(
                    id,
                    &pkg,
                    "notification",
                    "enqueueNotification",
                    Parcel::new()
                        .with_str(pkg.clone())
                        .with_i32(*nid)
                        .with_blob(vec![0u8; *payload_kib as usize * 1024])
                        .with_null(),
                )?;
            }
            Action::CancelNotification { id: nid } => {
                self.app_call(
                    id,
                    &pkg,
                    "notification",
                    "cancelNotification",
                    Parcel::new().with_str(pkg.clone()).with_i32(*nid),
                )?;
            }
            Action::SetAlarm { operation, in_secs } => {
                let trigger = self.clock.now() + SimDuration::from_secs(*in_secs);
                self.app_call(
                    id,
                    &pkg,
                    "alarm",
                    "set",
                    Parcel::new()
                        .with_i32(0)
                        .with_i64(trigger.as_millis() as i64)
                        .with_str(operation.clone()),
                )?;
            }
            Action::CancelAlarm { operation } => {
                self.app_call(
                    id,
                    &pkg,
                    "alarm",
                    "remove",
                    Parcel::new().with_str(operation.clone()),
                )?;
            }
            Action::UseSensor { handle } => {
                let reply = self.app_call(
                    id,
                    &pkg,
                    "sensorservice",
                    "createSensorEventConnection",
                    Parcel::new().with_str(pkg.clone()),
                )?;
                let conn = reply.object(0).map_err(BinderError::from)?;
                self.app_call(
                    id,
                    &pkg,
                    "sensorservice",
                    "enableSensor",
                    Parcel::new()
                        .with_object(conn)
                        .with_i32(*handle)
                        .with_i32(66_000),
                )?;
                self.app_call(
                    id,
                    &pkg,
                    "sensorservice",
                    "getSensorChannel",
                    Parcel::new().with_object(conn),
                )?;
            }
            Action::SetVolume { stream, index } => {
                self.app_call(
                    id,
                    &pkg,
                    "audio",
                    "setStreamVolume",
                    Parcel::new()
                        .with_i32(*stream)
                        .with_i32(*index)
                        .with_i32(0)
                        .with_str(pkg.clone()),
                )?;
            }
            Action::RequestAudioFocus { client } => {
                self.app_call(
                    id,
                    &pkg,
                    "audio",
                    "requestAudioFocus",
                    Parcel::new()
                        .with_i32(3)
                        .with_i32(1)
                        .with_null()
                        .with_null()
                        .with_str(client.clone())
                        .with_str(pkg.clone()),
                )?;
            }
            Action::AcquireWakeLock { tag } => {
                self.app_call(
                    id,
                    &pkg,
                    "power",
                    "acquireWakeLock",
                    Parcel::new()
                        .with_str(format!("lock:{tag}"))
                        .with_i32(1)
                        .with_str(tag.clone())
                        .with_str(pkg.clone())
                        .with_null(),
                )?;
            }
            Action::ReleaseWakeLock { tag } => {
                self.app_call(
                    id,
                    &pkg,
                    "power",
                    "releaseWakeLock",
                    Parcel::new().with_str(format!("lock:{tag}")).with_i32(0),
                )?;
            }
            Action::RegisterReceiver { receiver, actions } => {
                self.app_call(
                    id,
                    &pkg,
                    "activity",
                    "registerReceiver",
                    Parcel::new()
                        .with_null()
                        .with_str(pkg.clone())
                        .with_str(receiver.clone())
                        .with_str(actions.clone())
                        .with_null()
                        .with_i32(0),
                )?;
            }
            Action::SetClipboard { bytes } => {
                self.app_call(
                    id,
                    &pkg,
                    "clipboard",
                    "setPrimaryClip",
                    Parcel::new().with_blob(vec![0u8; *bytes]),
                )?;
            }
            Action::RequestLocation { provider } => {
                self.app_call(
                    id,
                    &pkg,
                    "location",
                    "requestLocationUpdates",
                    Parcel::new()
                        .with_str(provider.clone())
                        .with_str(format!("listener:{pkg}"))
                        .with_null()
                        .with_str(pkg.clone()),
                )?;
            }
            Action::WifiScan => {
                self.app_call(id, &pkg, "wifi", "startScan", Parcel::new().with_null())?;
            }
            Action::Vibrate { ms } => {
                self.app_call(
                    id,
                    &pkg,
                    "vibrator",
                    "vibrate",
                    Parcel::new().with_i64(*ms).with_str(format!("vib:{pkg}")),
                )?;
            }
            Action::DrawFrames { frames } => {
                // Rendering dirties GPU state; the cost model charges time
                // for the rendered frames (vsync-paced, batched per second).
                let per_frame = SimDuration::from_micros(16_600);
                self.clock.charge(per_frame * u64::from(*frames / 60 + 1));
            }
            Action::AllocateHeap { mib, dirty } => {
                let dev = self.device_mut(id)?;
                let app = dev
                    .apps
                    .get_mut(&pkg)
                    .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?;
                let pid = app.main_pid;
                let proc = dev
                    .kernel
                    .process_mut(pid)
                    .map_err(|e| WorldError::Boot(e.to_string()))?;
                app.dalvik
                    .grow_heap(proc, ByteSize::from_mib(u64::from(*mib)), *dirty);
            }
            Action::WriteDataFile { name, kib } => {
                let stamp = self.clock.now().as_nanos();
                let dev = self.device_mut(id)?;
                let path = format!("/data/data/{pkg}/files/{name}");
                dev.fs.write(
                    &path,
                    flux_fs::Content::new(
                        ByteSize::from_kib(*kib),
                        fnv(&format!("{path}@{stamp}")),
                    ),
                );
            }
            Action::BufferedWrite { name, kib } => {
                // Same content identity a WriteDataFile at this instant
                // would produce, but held in app memory until the next
                // lifecycle save point.
                let stamp = self.clock.now().as_nanos();
                let dev = self.device_mut(id)?;
                let path = format!("/data/data/{pkg}/files/{name}");
                let hash = fnv(&format!("{path}@{stamp}"));
                dev.apps
                    .get_mut(&pkg)
                    .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?
                    .buffer_write(name, ByteSize::from_kib(*kib), hash);
            }
            Action::OpenCommonSdFile { name } => {
                let dev = self.device_mut(id)?;
                let app = dev
                    .apps
                    .get_mut(&pkg)
                    .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?;
                let pid = app.main_pid;
                dev.kernel
                    .process_mut(pid)
                    .map_err(|e| WorldError::Boot(e.to_string()))?
                    .fds
                    .open(FdKind::File {
                        path: format!("/sdcard/{name}"),
                        offset: 0,
                        writable: false,
                    });
            }
            Action::BeginProviderQuery => {
                let dev = self.device_mut(id)?;
                dev.apps
                    .get_mut(&pkg)
                    .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?
                    .in_content_provider_call = true;
            }
            Action::EndProviderQuery => {
                let dev = self.device_mut(id)?;
                dev.apps
                    .get_mut(&pkg)
                    .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?
                    .in_content_provider_call = false;
            }
            Action::Think { ms } => {
                self.tick(SimDuration::from_millis(*ms));
            }
            Action::ContentProviderCall { ms, resolved } => {
                self.device_mut(id)?
                    .apps
                    .get_mut(&pkg)
                    .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?
                    .in_content_provider_call = true;
                self.tick(SimDuration::from_millis(*ms));
                if *resolved {
                    self.device_mut(id)?
                        .apps
                        .get_mut(&pkg)
                        .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?
                        .in_content_provider_call = false;
                }
            }
            Action::OpenSdFile { name, common } => {
                let path = if *common {
                    format!("/sdcard/{name}")
                } else {
                    format!("/sdcard/Android/data/{pkg}/{name}")
                };
                let dev = self.device_mut(id)?;
                let app = dev
                    .apps
                    .get_mut(&pkg)
                    .ok_or_else(|| WorldError::NoSuchApp(pkg.clone()))?;
                let pid = app.main_pid;
                dev.kernel
                    .process_mut(pid)
                    .map_err(|e| WorldError::Boot(e.to_string()))?
                    .fds
                    .open(FdKind::File {
                        path,
                        offset: 0,
                        writable: false,
                    });
            }
        }
        Ok(())
    }

    /// Persists an app's buffered writes to its data directory — the
    /// `onPause`/`onStop` save path, also driven by the migration
    /// engine's preparation stage just before the process freezes.
    /// Returns how many writes were flushed; a no-op (and free of cost)
    /// when nothing is buffered, so worlds that never buffer stay
    /// byte-identical to worlds that predate buffered writes.
    pub fn flush_pending(&mut self, id: DeviceId, package: &str) -> Result<usize, FluxError> {
        let dev = self.device_mut(id)?;
        let app = dev
            .apps
            .get_mut(package)
            .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
        let writes = app.drain_pending();
        let dir = app.data_dir.clone();
        for w in &writes {
            dev.fs.write(
                &format!("{dir}/files/{}", w.name),
                flux_fs::Content::new(w.size, w.hash),
            );
        }
        Ok(writes.len())
    }

    /// Injects a lifecycle transition — the pause/stop/kill interleavings
    /// of Riganelli et al.'s data-loss benchmark, which scenario
    /// schedules race against migration.
    ///
    /// `Pause` and `Stop` reach the app's save point first, so buffered
    /// writes persist. `Kill` delivers no callback: every process of the
    /// app dies (buffered writes are lost with it), the framework forgets
    /// its service-side state and record log, and the app cold-starts
    /// from whatever its data directory holds.
    pub fn lifecycle_event(
        &mut self,
        id: DeviceId,
        package: &str,
        event: LifecycleEvent,
    ) -> Result<(), FluxError> {
        match event {
            LifecycleEvent::Pause => {
                self.flush_pending(id, package)?;
                let dev = self.device_mut(id)?;
                let app = dev
                    .apps
                    .get_mut(package)
                    .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
                for a in &mut app.activities {
                    if a.state == ActivityState::Resumed {
                        a.state = ActivityState::Paused;
                    }
                }
            }
            LifecycleEvent::Stop => {
                self.flush_pending(id, package)?;
                let dev = self.device_mut(id)?;
                let app = dev
                    .apps
                    .get_mut(package)
                    .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
                for a in &mut app.activities {
                    a.state = ActivityState::Stopped;
                }
            }
            LifecycleEvent::Kill => {
                let now = self.clock.now();
                let dev = self.device_mut(id)?;
                let app = dev
                    .apps
                    .remove(package)
                    .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
                let uid = app.uid;
                for pid in app.pids() {
                    let _ = dev.kernel.kill(pid);
                }
                {
                    let kernel = &mut dev.kernel;
                    dev.host.notify_uid_death(kernel, now, uid);
                }
                // The recorded calls belong to the dead process; replaying
                // them for the relaunched one would be stale.
                let _ = dev.records.take(uid);
                // The user reopens the app: a cold start from disk.
                self.launch_app(id, package)?;
            }
        }
        Ok(())
    }

    /// Runs a whole workload script.
    pub fn run_script(
        &mut self,
        id: DeviceId,
        package: &str,
        actions: &[Action],
    ) -> Result<(), FluxError> {
        for a in actions {
            self.perform(id, package, a)?;
        }
        Ok(())
    }

    /// Scrapes component-held counters into the metrics registry:
    /// `flux.binder.transactions` (summed over every device's driver) and
    /// `flux.telemetry.events_dropped`. Idempotent — counters are *set*,
    /// not added — so harvesting before every export is safe.
    pub fn harvest_metrics(&mut self) {
        let binder_txns: u64 = self
            .devices
            .iter()
            .map(|d| d.kernel.binder.transactions)
            .sum();
        let dropped = self.telemetry.dropped_events();
        self.telemetry
            .counter_set("flux.binder.transactions", binder_txns);
        self.telemetry
            .counter_set("flux.telemetry.events_dropped", dropped);
    }
}

/// Stable FNV-1a for content identities.
pub(crate) fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}
