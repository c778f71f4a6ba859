//! Exporters: Chrome trace JSON, per-stage migration profiles and plain
//! JSON snapshots.
//!
//! All three are deterministic functions of a [`Telemetry`] hub: spans and
//! instant events are written in emission order and metrics in name order,
//! so two runs with the same seed produce byte-identical output. Call
//! [`Telemetry::finish`] before exporting so no span is left open (open
//! spans export with zero duration).

use crate::metrics::Metric;
use crate::{Telemetry, TraceKind};
use flux_simcore::SimDuration;
use serde::{write_escaped, write_f64, JsonValue};
use std::fmt::Write as _;

/// Span-name prefix shared by every migration stage span. The suffix is
/// the engine's declared stage name (`Stage::name()` in `flux-core`), so
/// span names are derived, never hand-written per call site.
pub const STAGE_SPAN_PREFIX: &str = "migration.stage.";

/// The stage names that carry a slot in the migration report, in pipeline
/// order. [`STAGE_SPANS`] is exactly this list run through
/// [`stage_span_name`]; a unit test pins the correspondence.
pub const REPORT_STAGES: [&str; 5] = [
    "preparation",
    "checkpoint",
    "transfer",
    "restore",
    "reintegration",
];

/// The span name a stage named `stage` records under:
/// `migration.stage.<stage>`.
pub fn stage_span_name(stage: &str) -> String {
    format!("{STAGE_SPAN_PREFIX}{stage}")
}

/// The histogram metric a stage's busy milliseconds are observed under:
/// `flux.migration.stage_ms.<stage>`.
pub fn stage_metric_name(stage: &str) -> String {
    format!("flux.migration.stage_ms.{stage}")
}

/// The canonical stage-span names the migration pipeline emits, in
/// pipeline order. [`MigrationProfile`] aggregates over exactly these.
pub const STAGE_SPANS: [&str; 5] = [
    "migration.stage.preparation",
    "migration.stage.checkpoint",
    "migration.stage.transfer",
    "migration.stage.restore",
    "migration.stage.reintegration",
];

fn kind_str(kind: TraceKind) -> &'static str {
    match kind {
        TraceKind::Generic => "generic",
        TraceKind::Fault => "fault",
        TraceKind::Retry => "retry",
        TraceKind::Rollback => "rollback",
    }
}

/// Nanoseconds rendered as a JSON microsecond literal with fixed
/// sub-microsecond precision (`1234567` ns → `1234.567`), the unit Chrome's
/// `about://tracing` expects.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Exports the hub as Chrome `about://tracing` JSON.
///
/// Each lane becomes one trace "process" (named via a `process_name`
/// metadata event), spans become complete (`"X"`) events and instant
/// events become thread-scoped (`"i"`) events. Load the output via
/// chrome://tracing or <https://ui.perfetto.dev>.
pub fn chrome_trace(tele: &Telemetry) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    for (i, lane) in tele.lanes().iter().enumerate() {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{i},\"tid\":0,\"args\":{{\"name\":"
        );
        write_escaped(&mut out, lane);
        out.push_str("}}");
    }
    for span in tele.spans() {
        sep(&mut out);
        out.push_str("{\"name\":");
        write_escaped(&mut out, &span.name);
        let _ = write!(
            out,
            ",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":0}}",
            us(span.start.as_nanos()),
            us(span.duration().as_nanos()),
            span.lane.index()
        );
    }
    for ev in tele.instants() {
        sep(&mut out);
        out.push_str("{\"name\":");
        write_escaped(&mut out, &ev.name);
        let _ = write!(
            out,
            ",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":{},\"tid\":0,\
             \"args\":{{\"detail\":",
            kind_str(ev.kind),
            us(ev.at.as_nanos()),
            ev.lane.index()
        );
        write_escaped(&mut out, &ev.detail);
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Exports the hub as a plain JSON snapshot: lanes, spans, instant events
/// and metrics. Used by benches and golden tests; parse it back with
/// `serde::parse`.
pub fn json_snapshot(tele: &Telemetry) -> String {
    let spans = tele
        .spans()
        .iter()
        .map(|s| {
            JsonValue::Obj(vec![
                ("name".into(), JsonValue::Str(s.name.clone())),
                ("lane".into(), JsonValue::Num(s.lane.index().to_string())),
                (
                    "parent".into(),
                    s.parent
                        .map(|p| JsonValue::Num(p.0.to_string()))
                        .unwrap_or(JsonValue::Null),
                ),
                (
                    "start_ns".into(),
                    JsonValue::Num(s.start.as_nanos().to_string()),
                ),
                (
                    "end_ns".into(),
                    s.end
                        .map(|e| JsonValue::Num(e.as_nanos().to_string()))
                        .unwrap_or(JsonValue::Null),
                ),
            ])
        })
        .collect();
    let instants = tele
        .instants()
        .iter()
        .map(|e| {
            JsonValue::Obj(vec![
                ("at_ns".into(), JsonValue::Num(e.at.as_nanos().to_string())),
                ("lane".into(), JsonValue::Num(e.lane.index().to_string())),
                ("kind".into(), JsonValue::Str(kind_str(e.kind).into())),
                ("name".into(), JsonValue::Str(e.name.clone())),
                ("detail".into(), JsonValue::Str(e.detail.clone())),
            ])
        })
        .collect();
    let metrics: Vec<(String, JsonValue)> = tele
        .metrics()
        .iter()
        .map(|(name, metric)| {
            let v = match metric {
                Metric::Counter(c) => JsonValue::Num(c.to_string()),
                Metric::Gauge(g) => {
                    let mut lexeme = String::new();
                    write_f64(&mut lexeme, *g);
                    JsonValue::Num(lexeme)
                }
                Metric::Histogram(h) => JsonValue::Obj(vec![
                    (
                        "bounds".into(),
                        JsonValue::Arr(
                            h.bounds()
                                .iter()
                                .map(|b| JsonValue::Num(b.to_string()))
                                .collect(),
                        ),
                    ),
                    (
                        "counts".into(),
                        JsonValue::Arr(
                            h.counts()
                                .iter()
                                .map(|c| JsonValue::Num(c.to_string()))
                                .collect(),
                        ),
                    ),
                    ("count".into(), JsonValue::Num(h.count().to_string())),
                    ("sum".into(), JsonValue::Num(h.sum().to_string())),
                ]),
            };
            (name.to_owned(), v)
        })
        .collect();
    let doc = JsonValue::Obj(vec![
        (
            "lanes".into(),
            JsonValue::Arr(
                tele.lanes()
                    .iter()
                    .map(|l| JsonValue::Str(l.clone()))
                    .collect(),
            ),
        ),
        ("spans".into(), JsonValue::Arr(spans)),
        ("instants".into(), JsonValue::Arr(instants)),
        ("metrics".into(), JsonValue::Obj(metrics)),
        (
            "dropped_events".into(),
            JsonValue::Num(tele.dropped_events().to_string()),
        ),
    ]);
    serde::to_json(&doc)
}

/// A per-stage migration profile: Figure 13's stage breakdown computed
/// from one instrumented run's span totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationProfile {
    /// `(stage name, accumulated duration)` in pipeline order. Durations
    /// accumulate across retry attempts, exactly like
    /// `MigrationReport::stages`.
    pub stages: Vec<(String, SimDuration)>,
    /// Retry backoff charged outside the stages.
    pub backoff: SimDuration,
    /// `flux.migration.attempts` at export time.
    pub attempts: u64,
    /// `flux.migration.faults` at export time.
    pub faults: u64,
    /// `flux.migration.rollbacks` at export time.
    pub rollbacks: u64,
    /// `flux.net.bytes_transferred` at export time.
    pub bytes_over_air: u64,
}

impl MigrationProfile {
    /// Builds the profile from a hub's `migration.stage.*` span totals and
    /// migration metrics.
    pub fn from_telemetry(tele: &Telemetry) -> Self {
        Self {
            stages: STAGE_SPANS
                .iter()
                .map(|name| {
                    (
                        name.trim_start_matches("migration.stage.").to_owned(),
                        tele.span_total(name),
                    )
                })
                .collect(),
            backoff: tele.span_total("migration.backoff"),
            attempts: tele.metrics().counter("flux.migration.attempts"),
            faults: tele.metrics().counter("flux.migration.faults"),
            rollbacks: tele.metrics().counter("flux.migration.rollbacks"),
            bytes_over_air: tele.metrics().counter("flux.net.bytes_transferred"),
        }
    }

    /// Sum of the stage durations. For a successful migration this equals
    /// `MigrationReport::stages.total()`.
    pub fn total(&self) -> SimDuration {
        self.stages
            .iter()
            .map(|(_, d)| *d)
            .fold(SimDuration::ZERO, |a, d| a + d)
    }

    /// Renders the profile as an aligned plain-text table.
    pub fn render(&self) -> String {
        let total_ns = self.total().as_nanos();
        let mut out = String::new();
        let _ = writeln!(out, "{:<16} {:>12} {:>7}", "stage", "time", "share");
        let _ = writeln!(out, "{:-<16} {:->12} {:->7}", "", "", "");
        for (name, d) in &self.stages {
            let share = if total_ns == 0 {
                0.0
            } else {
                d.as_nanos() as f64 * 100.0 / total_ns as f64
            };
            let _ = writeln!(out, "{:<16} {:>12} {:>6.1}%", name, d.to_string(), share);
        }
        let _ = writeln!(out, "{:-<16} {:->12} {:->7}", "", "", "");
        let _ = writeln!(
            out,
            "{:<16} {:>12} {:>6.1}%",
            "total",
            self.total().to_string(),
            if total_ns == 0 { 0.0 } else { 100.0 }
        );
        let _ = writeln!(out, "backoff (outside stages): {}", self.backoff);
        let _ = writeln!(
            out,
            "attempts: {}  faults: {}  rollbacks: {}  bytes over air: {}",
            self.attempts, self.faults, self.rollbacks, self.bytes_over_air
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flux_simcore::SimTime;

    fn hub() -> Telemetry {
        let mut tele = Telemetry::new();
        let home = tele.lane("home");
        let s = tele.enter(home, "migration.stage.checkpoint", SimTime::from_millis(5));
        tele.instant(
            home,
            TraceKind::Fault,
            "kernel.fault",
            SimTime::from_millis(7),
            "stall of 1ms",
        );
        tele.exit(s, SimTime::from_millis(30));
        tele.counter_add("flux.migration.attempts", 1);
        tele.counter_add("flux.net.bytes_transferred", 4096);
        tele.gauge_set("flux.net.goodput_mbps", 12.5);
        tele.observe("flux.migration.stage_ms", 25);
        tele
    }

    #[test]
    fn chrome_trace_is_valid_json_with_lane_processes() {
        let tele = hub();
        let doc = serde::parse(&chrome_trace(&tele)).expect("valid json");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        // 2 process_name metadata + 1 span + 1 instant.
        assert_eq!(events.len(), 4);
        assert_eq!(
            events[1].get("args").unwrap().get("name").unwrap().as_str(),
            Some("home")
        );
        let span = &events[2];
        assert_eq!(span.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(span.get("ts").unwrap().as_f64(), Some(5_000.0));
        assert_eq!(span.get("dur").unwrap().as_f64(), Some(25_000.0));
    }

    #[test]
    fn snapshot_round_trips_and_is_stable() {
        let tele = hub();
        let snap = json_snapshot(&tele);
        let parsed = serde::parse(&snap).expect("valid json");
        assert_eq!(serde::to_json(&parsed), snap);
        assert_eq!(json_snapshot(&hub()), snap);
        let metrics = parsed.get("metrics").unwrap();
        assert_eq!(
            metrics.get("flux.net.goodput_mbps"),
            Some(&JsonValue::Num("12.5".into()))
        );
    }

    #[test]
    fn disabled_hub_exports_empty_but_valid_documents() {
        let tele = Telemetry::disabled();
        assert!(serde::parse(&chrome_trace(&tele)).is_ok());
        let snap = serde::parse(&json_snapshot(&tele)).unwrap();
        assert_eq!(snap.get("spans").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn profile_totals_match_span_totals() {
        let tele = hub();
        let profile = MigrationProfile::from_telemetry(&tele);
        assert_eq!(profile.total(), SimDuration::from_millis(25));
        assert_eq!(profile.attempts, 1);
        assert_eq!(profile.bytes_over_air, 4096);
        let rendered = profile.render();
        assert!(rendered.contains("checkpoint"));
        assert!(rendered.contains("100.0%"));
    }

    #[test]
    fn gauge_rendering_marks_integral_values_as_floats() {
        let mut tele = Telemetry::new();
        tele.gauge_set("flux.x", 3.0);
        tele.gauge_set("flux.y", 42.25);
        let snap = json_snapshot(&tele);
        assert!(snap.contains("\"flux.x\":3.0"));
        assert!(snap.contains("\"flux.y\":42.25"));
    }

    #[test]
    fn stage_spans_derive_from_the_report_stage_names() {
        for (span, stage) in STAGE_SPANS.iter().zip(REPORT_STAGES) {
            assert_eq!(*span, stage_span_name(stage));
            assert_eq!(span.strip_prefix(STAGE_SPAN_PREFIX), Some(stage));
            assert_eq!(
                stage_metric_name(stage),
                format!("flux.migration.stage_ms.{stage}")
            );
        }
    }
}
