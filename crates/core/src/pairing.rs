//! The one-time pairing phase (§3.1 and the §4 pairing-cost experiment).
//!
//! Pairing synchronises the home device's core frameworks and libraries to
//! a custom location on the guest's data partition, hard-linking files that
//! are identical to the guest's own system partition (rsync
//! `--link-dest`), then syncs and pseudo-installs each app's APK and data
//! directory so a wrapper app exists for migration-in.

use crate::errors::FluxError;
use crate::world::{DeviceId, FluxWorld, Pairing, WorldError};
use flux_fs::{sync, SyncOptions, SyncReport};
use flux_services::svc::package::{PackageManagerService, PackageRecord};
use flux_simcore::ByteSize;
use flux_telemetry::{LaneId, TraceKind};

/// The outcome of one pairing operation.
#[derive(Debug, Clone, PartialEq)]
pub struct PairingReport {
    /// Home → guest direction label.
    pub direction: String,
    /// The constant-data sync of frameworks and libraries.
    pub system_sync: SyncReport,
    /// Combined APK + data sync across all installed apps.
    pub app_sync: SyncReport,
    /// Packages pseudo-installed on the guest.
    pub packages: Vec<String>,
    /// Wall (virtual) time the pairing took, including transfer.
    pub elapsed: flux_simcore::SimDuration,
}

impl PairingReport {
    /// Total bytes that went over the air.
    pub fn bytes_shipped(&self) -> ByteSize {
        self.system_sync.bytes_shipped + self.app_sync.bytes_shipped
    }
}

/// Pairs `home` to `guest`: after this, apps installed on `home` can be
/// migrated to `guest`. Pairing is directional; pair both ways for
/// round-trip migration.
pub fn pair(
    world: &mut FluxWorld,
    home: DeviceId,
    guest: DeviceId,
) -> Result<PairingReport, FluxError> {
    let started = world.clock.now();
    let (home_name, home_system, home_apps, home_wifi) = {
        let h = world.device(home)?;
        let packages: Vec<PackageRecord> = h
            .specs
            .keys()
            .filter_map(|p| {
                h.host
                    .service::<PackageManagerService>("package")
                    .and_then(|pm| pm.package(p).cloned())
            })
            .collect();
        (h.name.clone(), h.fs.clone(), packages, h.profile.wifi)
    };

    let pairing_root = format!("/data/flux/{home_name}");
    let guest_cost = world.device(guest)?.cost.clone();
    let guest_wifi = world.device(guest)?.profile.wifi;

    // 1. Constant data: frameworks and libraries, hard-linked against the
    //    guest's own /system where identical.
    let opts = SyncOptions {
        link_dest: Some("/system".into()),
        ..SyncOptions::default()
    };
    let system_sync = {
        let g = world.device_mut(guest)?;
        sync(
            &home_system,
            "/system",
            &mut g.fs,
            &format!("{pairing_root}/system"),
            &opts,
            &guest_cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?
    };

    // 2. APKs and app data directories; then pseudo-install metadata.
    let app_opts = SyncOptions {
        link_dest: None,
        ..SyncOptions::default()
    };
    let mut app_sync = SyncReport::default();
    let mut packages = Vec::new();
    for record in &home_apps {
        let g = world.device_mut(guest)?;
        let apk = sync(
            &home_system,
            &record.apk_path,
            &mut g.fs,
            &format!("{pairing_root}{}", record.apk_path),
            &app_opts,
            &guest_cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?;
        let data = sync(
            &home_system,
            &format!("/data/data/{}", record.name),
            &mut g.fs,
            &format!("{pairing_root}/data/data/{}", record.name),
            &app_opts,
            &guest_cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?;
        app_sync.absorb(&apk);
        app_sync.absorb(&data);
        g.host
            .service_mut::<PackageManagerService>("package")
            .expect("package service registered")
            .pseudo_install(record);
        // The guest needs the spec too, to re-launch after migration-in.
        if let Some(spec) = world.device(home)?.specs.get(&record.name).cloned() {
            world
                .device_mut(guest)?
                .specs
                .insert(record.name.clone(), spec);
        }
        packages.push(record.name.clone());
    }

    // Charge CPU (hashing/compression) and radio time.
    let cpu = system_sync.cpu_time + app_sync.cpu_time;
    world.clock.charge(cpu);
    let shipped = system_sync.bytes_shipped + app_sync.bytes_shipped;
    let t = world.net.transfer(shipped, &home_wifi, &guest_wifi);
    world.clock.charge(t.duration);

    // Record the pairing on the guest.
    {
        let g = world.device_mut(guest)?;
        let entry = g.pairings.entry(home.0).or_insert_with(Pairing::default);
        entry.root = pairing_root;
        entry.packages.extend(packages.iter().cloned());
    }

    let elapsed = world.clock.now() - started;
    record_fs_metrics(world, &system_sync);
    record_fs_metrics(world, &app_sync);
    world.telemetry.instant(
        LaneId::WORLD,
        TraceKind::Generic,
        "pairing.complete",
        world.clock.now(),
        format!("{home_name} -> guest, {shipped} shipped"),
    );
    Ok(PairingReport {
        direction: format!("{home_name} -> {}", world.device(guest)?.name),
        system_sync,
        app_sync,
        packages,
        elapsed,
    })
}

/// Re-verifies (and re-syncs) one app's APK and data directory before a
/// migration — "Since apps may be updated frequently, the paired APK is
/// verified prior to migration and updated if necessary" (§3.1). Returns
/// the sync report of the verification pass.
pub fn verify_app(
    world: &mut FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    package: &str,
) -> Result<SyncReport, FluxError> {
    let (home_fs, apk_path, data_dir) = {
        let h = world.device(home)?;
        let apk = h
            .host
            .service::<PackageManagerService>("package")
            .and_then(|pm| pm.package(package))
            .map(|r| r.apk_path.clone())
            .ok_or_else(|| WorldError::NoSuchApp(package.to_owned()))?;
        (h.fs.clone(), apk, format!("/data/data/{package}"))
    };
    let root = {
        let g = world.device(guest)?;
        g.pairings
            .get(&home.0)
            .map(|p| p.root.clone())
            .ok_or_else(|| WorldError::Boot("devices are not paired".into()))?
    };
    let guest_cost = world.device(guest)?.cost.clone();
    let opts = SyncOptions {
        link_dest: None,
        ..SyncOptions::default()
    };
    let mut report = SyncReport::default();
    {
        let g = world.device_mut(guest)?;
        let apk = sync(
            &home_fs,
            &apk_path,
            &mut g.fs,
            &format!("{root}{apk_path}"),
            &opts,
            &guest_cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?;
        let data = sync(
            &home_fs,
            &data_dir,
            &mut g.fs,
            &format!("{root}{data_dir}"),
            &opts,
            &guest_cost,
        )
        .map_err(|e| WorldError::Boot(e.to_string()))?;
        report.absorb(&apk);
        report.absorb(&data);
    }
    world.clock.charge(report.cpu_time);
    record_fs_metrics(world, &report);
    Ok(report)
}

/// Accounts one sync run's outcome under the `flux.fs.*` metrics.
fn record_fs_metrics(world: &mut FluxWorld, report: &SyncReport) {
    world
        .telemetry
        .counter_add("flux.fs.files_shipped", report.files_shipped() as u64);
    world
        .telemetry
        .counter_add("flux.fs.files_linked", report.files_linked() as u64);
    world
        .telemetry
        .counter_add("flux.fs.bytes_shipped", report.bytes_shipped.as_u64());
}
