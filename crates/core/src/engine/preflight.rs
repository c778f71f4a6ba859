//! Pre-flight checks: everything §3.3–3.4 says makes an app unmigratable.
//!
//! Runs before any state is touched or virtual time charged, so a refusal
//! needs no rollback. The driver invokes `check` directly — before the
//! migration facts are even gathered — and the [`Preflight`] stage exists
//! so the phase appears in the engine's declared enumeration.

use super::failure::StageFailure;
use super::{Stage, StageCtx, Yield};
use crate::world::{DeviceId, FluxWorld};
use flux_kernel::FdKind;

/// The preflight phase: §3.3–3.4 migratability refusals.
pub struct Preflight;

impl Stage for Preflight {
    fn name(&self) -> &'static str {
        "preflight"
    }

    fn run_slice(&self, cx: &mut StageCtx<'_>) -> Result<Yield, StageFailure> {
        check(cx.world, cx.mig.home, cx.mig.guest, &cx.mig.package)?;
        Ok(Yield::Done)
    }
}

/// Refuses the migration if the app is unmigratable: not paired, not
/// running, multi-process, EGL-preserving, mid-ContentProvider call, API
/// incompatible, holding common SD-card files, or bound to non-system
/// Binder services.
pub(crate) fn check(
    world: &FluxWorld,
    home: DeviceId,
    guest: DeviceId,
    package: &str,
) -> Result<(), StageFailure> {
    let h = world.device(home).map_err(StageFailure::from)?;
    let g = world.device(guest).map_err(StageFailure::from)?;

    let paired = g
        .pairings
        .get(&home.0)
        .is_some_and(|p| p.packages.contains(package));
    if !paired {
        return Err(StageFailure::NotPaired);
    }

    let app = h
        .apps
        .get(package)
        .ok_or_else(|| StageFailure::NoSuchApp(package.to_owned()))?;

    if app.is_multi_process() {
        return Err(StageFailure::MultiProcess {
            processes: app.pids().len(),
        });
    }
    if app.gl.any_preserved() {
        return Err(StageFailure::PreservedEglContext);
    }
    if app.in_content_provider_call {
        return Err(StageFailure::ContentProviderActive);
    }
    if app.min_api > g.profile.api_level {
        return Err(StageFailure::ApiLevelIncompatible {
            required: app.min_api,
            guest: g.profile.api_level,
        });
    }

    // Open common SD-card files (outside the app-specific directory).
    let proc = h
        .kernel
        .process(app.main_pid)
        .map_err(|e| StageFailure::Internal(e.to_string()))?;
    let app_sd_prefix = format!("/sdcard/Android/data/{package}");
    for (_, kind) in proc.fds.iter() {
        if let FdKind::File { path, .. } = kind {
            if path.starts_with("/sdcard/") && !path.starts_with(&app_sd_prefix) {
                return Err(StageFailure::CommonSdCardFile { path: path.clone() });
            }
        }
    }

    // Non-system Binder connections.
    let saved = flux_binder::state::capture(&h.kernel.binder, app.main_pid)
        .map_err(|e| StageFailure::Internal(e.to_string()))?;
    if let Some(handle) = saved.first_non_system() {
        return Err(StageFailure::NonSystemBinder {
            description: format!("{:?}", handle.target),
        });
    }
    Ok(())
}
