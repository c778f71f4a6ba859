//! Result lines: the named metrics a run prints, the per-layer metrics of
//! a traced run with the end-to-end metric each should move, and the
//! final machine-readable JSON line.

use crate::trace::Tracer;
use std::fmt::Write as _;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (migrations, scenarios or client commands).
    pub attempted: u64,
    /// Operations that errored or failed an output check.
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// The workload's own named metrics, printed as report lines.
    pub named: Vec<Metric>,
    /// Workload sizes, for the context stamp.
    pub sizes: Vec<(&'static str, u64)>,
    /// Fleet executor worker threads.
    pub workers: usize,
    /// Digest of the run's simulated output.
    pub digest: Option<u64>,
}

impl Outcome {
    pub fn fail(&mut self, ops: u64, why: impl Into<String>) {
        self.failed += ops;
        self.failures.push(why.into());
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The final result line.
pub fn result_json(o: &Outcome) -> Result<String, String> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, m) in o.metrics.iter().enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

/// Which end-to-end metric each per-layer metric should move, and where.
/// Matched by longest prefix.
const MOVES: &[(&str, &str)] = &[
    ("aidl.", "setup_s (fleet-scripted, corpus-oracle); step_p50_ms (service-uptime, 8 boots per batch); not migrations_per_s"),
    ("services.", "setup_s (fleet-scripted, corpus-oracle); step_p50_ms (service-uptime); not migrations_per_s"),
    ("device.", "setup_s (fleet-scripted, corpus-oracle); step_p50_ms (service-uptime); not migrations_per_s"),
    ("core.world.", "setup_s (all); step_p50_ms (service-uptime)"),
    ("binder.parcel.", "setup_s (all); migrations_per_s (fleet-scripted)"),
    ("core.record.", "work carried by replay and transfer: migrations_per_s, scenarios_per_s"),
    ("core.pairing.", "setup_s (all); step_p50_ms (service-uptime)"),
    ("fs.rsync.", "setup_s (all); step_p50_ms (service-uptime)"),
    ("kernel.criu.", "migrations_per_s (fleet-scripted); scenarios_per_s (corpus-oracle, larger images)"),
    ("core.replay.", "migrations_per_s (fleet-scripted); scenarios_per_s (corpus-oracle)"),
    ("core.fleet.execute.", "migrations_per_s (fleet-scripted); scenarios_per_s (corpus-oracle)"),
    ("core.fleet.retime.", "migrations_per_s (fleet-scripted); ~no share on corpus-oracle, service-uptime"),
    ("core.fleet.scaling", "migrations_per_s (fleet-scripted): the per-migration cost ratio gate"),
    ("core.executor.", "migrations_per_s (fleet-scripted)"),
    ("net.medium.", "core.fleet.retime work: migrations_per_s (fleet-scripted)"),
    ("telemetry.export.", "step_p50_ms, snapshot_mb (service-uptime)"),
    ("telemetry.", "migrations_per_s (fleet-scripted)"),
    ("playstore.", "setup_s (corpus-oracle only)"),
    ("core.oracle.", "scenarios_per_s (corpus-oracle)"),
    ("journal.service.", "step_p50_ms, step_p90_ms (service-uptime)"),
    ("journal.submit.", "submit_p99_ms vs submit_p50_ms (service-uptime)"),
    ("journal.read.", "read_p50_ms (service-uptime)"),
    ("journal.", "recovery_s (service-uptime)"),
    ("trace.", "none: tracing overhead of this traced run"),
];

/// The end-to-end metric `name` should move (see [`MOVES`]).
pub fn moves(name: &str) -> &'static str {
    MOVES
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix))
        .max_by_key(|(prefix, _)| prefix.len())
        .map_or("unassigned", |(_, m)| m)
}

/// One `(metric, span)` pair per entry: the span's mean self time per
/// call, in ns, under the metric's name.
pub fn ns_per_call(tr: &Tracer, pairs: &[(&str, &str)]) -> Vec<Metric> {
    pairs
        .iter()
        .map(|(metric, span)| Metric::new(*metric, tr.layer(span).ns_per_call(), "ns"))
        .collect()
}

/// Human-readable lines of a traced run: every span's self time, every
/// count, then every per-layer metric with what it should move.
pub fn layer_lines(tr: &Tracer, per_layer: &[Metric], extra: &[Metric]) -> Vec<String> {
    let mut lines = vec!["layer self times (outside-in spans):".to_owned()];
    for (name, l) in tr.layers() {
        lines.push(format!(
            "  span {name:<36} calls {:>7}  requests {:>6}  self {:>12.3} ms  {:>14.1} ns/call",
            l.calls,
            l.requests,
            l.self_ns / 1e6,
            l.ns_per_call()
        ));
    }
    for (name, v) in tr.counts() {
        lines.push(format!("  count {name:<35} {v}"));
    }
    lines.push("per-layer metrics (value unit -> should move):".to_owned());
    for m in per_layer.iter().chain(extra) {
        lines.push(format!(
            "  {:<40} {} {} -> {}",
            m.name,
            m.value,
            m.unit,
            moves(&m.name)
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            attempted: 3,
            failed: 1,
            metrics: vec![Metric::new("setup_s", 0.5, "s")],
            ..Outcome::default()
        };
        let line = result_json(&o).expect("finite");
        assert_eq!(
            line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_metrics_are_refused() {
        let o = Outcome {
            metrics: vec![Metric::new("x", f64::NAN, "s")],
            ..Outcome::default()
        };
        assert!(result_json(&o).is_err());
    }

    #[test]
    fn longest_prefix_wins() {
        assert!(moves("telemetry.export.bytes").contains("snapshot_mb"));
        assert!(moves("telemetry.lanes").contains("migrations_per_s"));
        assert!(moves("journal.open.ns").contains("recovery_s"));
    }
}
