//! `flux-telemetry`: the observability subsystem of the Flux reproduction.
//!
//! The paper's whole evaluation (§6, Figures 12–17) is an exercise in
//! explaining *where virtual time and bytes go* during a migration. This
//! crate provides the machinery to answer that from one instrumented run:
//!
//! * [`Telemetry`] — the per-world hub: hierarchical **spans** over virtual
//!   time (enter/exit with parent links, one lane per simulated device)
//!   and lane-attributed **instant events** — the one event log, optionally
//!   capped, with drops counted.
//! * [`MetricsRegistry`] — counters, gauges and fixed-bucket histograms
//!   under the `flux.<crate>.<name>` naming scheme, held in a `BTreeMap`
//!   so snapshot iteration order — and therefore exporter output — is
//!   byte-stable across runs.
//! * [`export`] — three exporters: Chrome `about://tracing` JSON
//!   ([`export::chrome_trace`]), a per-stage migration profile table
//!   ([`export::MigrationProfile`]) and a plain JSON snapshot
//!   ([`export::json_snapshot`]) for benches and golden tests.
//!
//! The exporters write JSON with the vendored `serde` codec, and
//! `serde::parse` reads it back: one JSON codec for the whole workspace.
//!
//! Everything is deterministic: telemetry consumes no randomness and never
//! charges the virtual clock, so enabling it cannot perturb an experiment.
//! A [`Telemetry::disabled`] hub drops every span, event and metric at the
//! first branch, which is what the Figure 16 overhead worlds use.
//!
//! # Examples
//!
//! ```
//! use flux_simcore::{SimClock, SimDuration};
//! use flux_telemetry::{span, Telemetry};
//!
//! let mut tele = Telemetry::new();
//! let mut clock = SimClock::new();
//! let lane = tele.lane("phone");
//! let total = span!(tele, clock, lane, "migration", {
//!     span!(tele, clock, lane, "checkpoint", {
//!         clock.charge(SimDuration::from_millis(250));
//!     });
//!     tele.counter_add("flux.migration.completed", 1);
//!     clock.now()
//! });
//! assert_eq!(total.as_millis(), 250);
//! assert_eq!(tele.spans().len(), 2);
//! assert_eq!(tele.metrics().counter("flux.migration.completed"), 1);
//! ```

pub mod export;
mod json;
pub mod metrics;

pub use export::{
    chrome_trace, json_snapshot, stage_metric_name, stage_span_name, MigrationProfile,
    REPORT_STAGES, STAGE_SPAN_PREFIX,
};
pub use metrics::{Histogram, Metric, MetricsRegistry};

use flux_simcore::{SimDuration, SimTime};
use std::collections::HashMap;

/// Identifies one lane (a simulated device or process) in the span tree
/// and the Chrome trace. Lane 0 is always the world lane.
///
/// The field is private: only [`Telemetry::lane`] mints ids, so an id
/// always indexes a lane of the hub that issued it. Spans and instants
/// index their lane directly; an id from another hub is a caller bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LaneId(u32);

impl LaneId {
    /// The implicit world lane every hub starts with.
    pub const WORLD: LaneId = LaneId(0);

    /// The lane's position in [`Telemetry::lanes`] (its Chrome trace pid).
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// What class of event an instant records.
///
/// Figure-13-style accounting wants fault, retry and rollback time kept
/// apart from ordinary progress events, so harnesses can balance the books
/// (time charged = stage time + backoff + stall time) without parsing
/// detail strings.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceKind {
    /// Ordinary progress event.
    #[default]
    Generic,
    /// An injected fault bit a running operation.
    Fault,
    /// A failed stage is being retried (backoff charged).
    Retry,
    /// A failed migration is being rolled back to the home device.
    Rollback,
}

/// Identifies one span within a [`Telemetry`] hub.
///
/// Ids from a disabled hub are inert sentinels; exiting them is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u32);

impl SpanId {
    const NONE: SpanId = SpanId(u32::MAX);

    /// Whether this id came from a disabled hub (and refers to nothing).
    pub fn is_none(self) -> bool {
        self == Self::NONE
    }

    /// The position of this span in [`Telemetry::spans`], or `None` for
    /// the disabled-hub sentinel. Lets consumers of an exported span list
    /// resolve [`Span::parent`] links.
    pub fn index(self) -> Option<usize> {
        if self.is_none() {
            None
        } else {
            Some(self.0 as usize)
        }
    }
}

/// One hierarchical span: a named interval of virtual time on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Span name, e.g. `"migration.stage.transfer"`.
    pub name: String,
    /// Lane (device/process) the span ran on.
    pub lane: LaneId,
    /// Enclosing span on the same lane, if any.
    pub parent: Option<SpanId>,
    /// Virtual time the span was entered.
    pub start: SimTime,
    /// Virtual time the span was exited; `None` while still open.
    pub end: Option<SimTime>,
}

impl Span {
    /// The span's duration (zero while still open).
    pub fn duration(&self) -> SimDuration {
        self.end
            .map(|e| e - self.start)
            .unwrap_or(SimDuration::ZERO)
    }
}

/// A lane-attributed instant event (a Chrome "i" event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstantEvent {
    /// Virtual time of the event.
    pub at: SimTime,
    /// Lane it is attributed to.
    pub lane: LaneId,
    /// Event class (generic/fault/retry/rollback).
    pub kind: TraceKind,
    /// Dot-separated event name, e.g. `"net.chunk"`.
    pub name: String,
    /// Free-form detail.
    pub detail: String,
}

/// The per-world telemetry hub. See the [crate docs](self).
#[derive(Debug, Clone)]
pub struct Telemetry {
    enabled: bool,
    lanes: Vec<String>,
    /// Lane name → id, so interning is one hash lookup.
    lane_ids: HashMap<String, LaneId>,
    spans: Vec<Span>,
    /// Per-lane stack of open spans (indices into `spans`).
    open: Vec<Vec<u32>>,
    instants: Vec<InstantEvent>,
    /// Optional cap on `instants.len()`; `None` means unbounded.
    capacity: Option<usize>,
    /// Instants discarded because the cap was reached.
    dropped: u64,
    metrics: MetricsRegistry,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl Telemetry {
    /// Creates an enabled hub with the world lane registered.
    pub fn new() -> Self {
        Self {
            enabled: true,
            lanes: vec!["world".to_owned()],
            lane_ids: HashMap::from([("world".to_owned(), LaneId::WORLD)]),
            spans: Vec::new(),
            open: vec![Vec::new()],
            instants: Vec::new(),
            capacity: None,
            dropped: 0,
            metrics: MetricsRegistry::new(),
        }
    }

    /// Creates a disabled hub: every span, event and metric is dropped at
    /// the first branch. Used by overhead-comparison worlds and benches.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether the hub records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Caps the instant-event list at `limit` entries; events beyond the
    /// cap are counted as dropped (see [`Telemetry::dropped_events`])
    /// instead of growing memory without bound during long fault sweeps.
    pub fn set_event_capacity(&mut self, limit: usize) {
        self.capacity = Some(limit);
    }

    /// Events dropped by the capacity limit so far. Exported as the
    /// `flux.telemetry.events_dropped` metric in snapshots.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    // ---- lanes ----------------------------------------------------------

    /// Interns a lane by name, returning its id. Registering the same name
    /// twice returns the same lane.
    pub fn lane(&mut self, name: &str) -> LaneId {
        if let Some(&id) = self.lane_ids.get(name) {
            return id;
        }
        let id = LaneId(u32::try_from(self.lanes.len()).expect("lane count fits u32"));
        self.lanes.push(name.to_owned());
        self.lane_ids.insert(name.to_owned(), id);
        self.open.push(Vec::new());
        id
    }

    /// Registered lane names, in registration order.
    pub fn lanes(&self) -> &[String] {
        &self.lanes
    }

    // ---- spans ----------------------------------------------------------

    /// Opens a span on `lane` at virtual time `at`. The parent is the
    /// innermost span still open on the same lane.
    pub fn enter(&mut self, lane: LaneId, name: &str, at: SimTime) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let parent = self.open[lane.index()].last().map(|&i| SpanId(i));
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name: name.to_owned(),
            lane,
            parent,
            start: at,
            end: None,
        });
        self.open[lane.index()].push(id);
        SpanId(id)
    }

    /// Closes span `id` at virtual time `at`. Any children still open on
    /// the same lane are closed at the same instant, so spans always nest
    /// strictly. Exiting an already-closed span (or a disabled-hub
    /// sentinel) is a no-op.
    pub fn exit(&mut self, id: SpanId, at: SimTime) {
        if !self.enabled || id.is_none() {
            return;
        }
        let Some(span) = self.spans.get(id.0 as usize) else {
            return;
        };
        let lane_ix = span.lane.index();
        if !self.open[lane_ix].contains(&id.0) {
            return;
        }
        while let Some(top) = self.open[lane_ix].pop() {
            if self.spans[top as usize].end.is_none() {
                self.spans[top as usize].end = Some(at);
            }
            if top == id.0 {
                break;
            }
        }
    }

    /// Records an already-completed span `[start, end]` on `lane`, parented
    /// under the lane's innermost open span without touching the stack.
    /// Used to attribute a lump-charged cost window after the fact (e.g.
    /// splitting a CRIU checkpoint charge into per-driver sub-spans).
    pub fn record_complete(&mut self, lane: LaneId, name: &str, start: SimTime, end: SimTime) {
        if !self.enabled {
            return;
        }
        let parent = self.open[lane.index()].last().map(|&i| SpanId(i));
        self.spans.push(Span {
            name: name.to_owned(),
            lane,
            parent,
            start,
            end: Some(end),
        });
    }

    /// Closes every span still open on `lane`, at virtual time `at`.
    /// Error paths use this to settle a device lane whose stage spans were
    /// abandoned by an early return before continuing on another lane.
    pub fn finish_lane(&mut self, lane: LaneId, at: SimTime) {
        if !self.enabled {
            return;
        }
        while let Some(top) = self.open[lane.index()].pop() {
            if self.spans[top as usize].end.is_none() {
                self.spans[top as usize].end = Some(at);
            }
        }
    }

    /// Closes every span still open, at virtual time `at`. Call before
    /// exporting so the trace contains no dangling intervals.
    pub fn finish(&mut self, at: SimTime) {
        if !self.enabled {
            return;
        }
        for stack in &mut self.open {
            while let Some(top) = stack.pop() {
                if self.spans[top as usize].end.is_none() {
                    self.spans[top as usize].end = Some(at);
                }
            }
        }
    }

    /// Folds another hub's record into this one, displacing every
    /// timestamp `shift` later.
    ///
    /// `other`'s lanes are matched **by name** (and interned here when
    /// missing — `other`'s world lane merges into this world lane); its
    /// spans are appended in creation order with parent links remapped, so
    /// the span *tree* arrives intact; its instant events are re-emitted
    /// through [`Telemetry::instant`], so this hub's event capacity
    /// applies; its metrics merge by kind (counters add, gauges
    /// last-write-wins, histograms bucket-wise). Absorbing the same hub
    /// into two hubs in the same order produces byte-identical state,
    /// which is what lets serial and parallel fleet executors share one
    /// merge path.
    ///
    /// Spans still open in `other` stay open here (and are *not* pushed on
    /// any open-stack, so [`Telemetry::finish`] will not close them);
    /// callers should finish the absorbed hub first. No-op when this hub
    /// is disabled.
    pub fn absorb(&mut self, other: &Telemetry, shift: SimDuration) {
        if !self.enabled {
            return;
        }
        let lane_map: Vec<LaneId> = other.lanes.iter().map(|n| self.lane(n)).collect();
        let base = self.spans.len() as u32;
        for span in &other.spans {
            self.spans.push(Span {
                name: span.name.clone(),
                lane: lane_map[span.lane.index()],
                parent: span.parent.map(|p| SpanId(base + p.0)),
                start: span.start + shift,
                end: span.end.map(|e| e + shift),
            });
        }
        for ev in &other.instants {
            self.instant(
                lane_map[ev.lane.index()],
                ev.kind,
                &ev.name,
                ev.at + shift,
                ev.detail.clone(),
            );
        }
        self.metrics.merge_from(&other.metrics);
    }

    /// All spans recorded so far, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of all *closed* spans whose name is exactly `name`.
    pub fn span_total(&self, name: &str) -> SimDuration {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .fold(SimDuration::ZERO, |a, d| a + d)
    }

    // ---- events ---------------------------------------------------------

    /// Records a lane-attributed instant event. Subject to the event
    /// capacity: past the cap the event is counted as dropped instead.
    pub fn instant(
        &mut self,
        lane: LaneId,
        kind: TraceKind,
        name: &str,
        at: SimTime,
        detail: impl Into<String>,
    ) {
        if !self.enabled {
            return;
        }
        if self.capacity.is_some_and(|cap| self.instants.len() >= cap) {
            self.dropped += 1;
            return;
        }
        self.instants.push(InstantEvent {
            at,
            lane,
            kind,
            name: name.to_owned(),
            detail: detail.into(),
        });
    }

    /// Lane-attributed instant events, in emission order.
    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    // ---- metrics --------------------------------------------------------

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the metrics registry (for registration).
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Adds `delta` to the counter `name`, creating it at zero on first
    /// use. No-op when disabled.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if self.enabled {
            self.metrics.counter_add(name, delta);
        }
    }

    /// Sets the counter `name` to an absolute value (idempotent harvest;
    /// see [`MetricsRegistry::counter_set`]). No-op when disabled.
    pub fn counter_set(&mut self, name: &str, value: u64) {
        if self.enabled {
            self.metrics.counter_set(name, value);
        }
    }

    /// Sets the gauge `name` to `value`. No-op when disabled.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if self.enabled {
            self.metrics.gauge_set(name, value);
        }
    }

    /// Observes `value` in the histogram `name` (auto-registered with the
    /// default millisecond buckets on first use). No-op when disabled.
    pub fn observe(&mut self, name: &str, value: u64) {
        if self.enabled {
            self.metrics.observe(name, value);
        }
    }
}

/// Brackets `$body` in a span: enters on `$lane` at `$clock.now()`,
/// evaluates the body, exits at the (possibly advanced) `$clock.now()`.
///
/// The telemetry and clock expressions are re-evaluated around the body, so
/// `span!(world.telemetry, world.clock, lane, "x", { use_world(world) })`
/// borrows cleanly. Early returns inside the body skip the exit; the span
/// is then closed when its parent exits (or at [`Telemetry::finish`]).
#[macro_export]
macro_rules! span {
    ($tele:expr, $clock:expr, $lane:expr, $name:expr, $body:expr) => {{
        let __flux_span = {
            let __flux_now = $clock.now();
            $tele.enter($lane, $name, __flux_now)
        };
        let __flux_out = $body;
        {
            let __flux_now = $clock.now();
            $tele.exit(__flux_span, __flux_now);
        }
        __flux_out
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn spans_link_parents_per_lane() {
        let mut tele = Telemetry::new();
        let a = tele.lane("a");
        let b = tele.lane("b");
        let outer = tele.enter(a, "outer", t(0));
        let inner = tele.enter(a, "inner", t(1));
        let other = tele.enter(b, "other", t(1));
        assert_eq!(tele.spans()[1].parent, Some(outer));
        assert_eq!(tele.spans()[2].parent, None);
        tele.exit(inner, t(2));
        tele.exit(outer, t(3));
        tele.exit(other, t(4));
        assert_eq!(tele.spans()[0].duration(), SimDuration::from_millis(3));
        assert_eq!(tele.spans()[1].duration(), SimDuration::from_millis(1));
    }

    #[test]
    fn exiting_parent_closes_open_children() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        let outer = tele.enter(lane, "outer", t(0));
        let _inner = tele.enter(lane, "inner", t(1));
        tele.exit(outer, t(5));
        assert!(tele
            .spans()
            .iter()
            .all(|s| s.end == Some(t(5)) || s.end == Some(t(5))));
        assert_eq!(tele.spans()[1].end, Some(t(5)));
        // Double exit is a no-op.
        tele.exit(outer, t(9));
        assert_eq!(tele.spans()[0].end, Some(t(5)));
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let mut tele = Telemetry::disabled();
        let lane = tele.lane("dev");
        let id = tele.enter(lane, "x", t(0));
        assert!(id.is_none());
        tele.exit(id, t(1));
        tele.instant(lane, TraceKind::Fault, "f", t(1), "boom");
        tele.counter_add("flux.x", 1);
        assert!(tele.spans().is_empty());
        assert!(tele.instants().is_empty());
        assert_eq!(tele.metrics().iter().count(), 0);
    }

    #[test]
    fn lane_interning_is_idempotent() {
        let mut tele = Telemetry::new();
        let a = tele.lane("phone");
        let b = tele.lane("phone");
        assert_eq!(a, b);
        assert_eq!(tele.lanes(), &["world".to_owned(), "phone".to_owned()]);
    }

    #[test]
    fn lanes_past_u16_stay_distinct() {
        let mut tele = Telemetry::new();
        let ids: Vec<LaneId> = (0..70_000)
            .map(|i| tele.lane(&format!("fleet.m{i}")))
            .collect();
        let last = ids[69_999];
        assert_eq!(tele.lane("fleet.m69999"), last);
        assert_eq!(tele.lanes()[last.index()], "fleet.m69999");
        let low = tele.enter(ids[69_999 - 65_536], "low", t(0));
        tele.enter(last, "high", t(1));
        assert_eq!(tele.spans()[1].lane, last);
        assert_ne!(tele.spans()[1].parent, Some(low));
    }

    #[test]
    fn span_total_sums_across_attempts() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        for i in 0..3u64 {
            let s = tele.enter(lane, "stage.transfer", t(10 * i));
            tele.exit(s, t(10 * i + 4));
        }
        assert_eq!(
            tele.span_total("stage.transfer"),
            SimDuration::from_millis(12)
        );
    }

    #[test]
    fn capacity_caps_instants_and_counts_drops() {
        let mut tele = Telemetry::new();
        tele.set_event_capacity(2);
        for i in 0..5 {
            tele.instant(LaneId::WORLD, TraceKind::Generic, "spam", t(i), "x");
        }
        assert_eq!(tele.instants().len(), 2);
        assert_eq!(tele.instants()[1].at, t(1));
        assert_eq!(tele.dropped_events(), 3);
    }

    #[test]
    fn record_complete_parents_under_open_span() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        let stage = tele.enter(lane, "stage.checkpoint", t(0));
        tele.record_complete(lane, "criu.dump", t(0), t(3));
        tele.exit(stage, t(5));
        assert_eq!(tele.spans()[1].parent, Some(stage));
        assert_eq!(tele.spans()[1].duration(), SimDuration::from_millis(3));
    }

    #[test]
    fn finish_closes_everything() {
        let mut tele = Telemetry::new();
        let lane = tele.lane("dev");
        tele.enter(lane, "a", t(0));
        tele.enter(lane, "b", t(1));
        tele.finish(t(7));
        assert!(tele.spans().iter().all(|s| s.end == Some(t(7))));
    }
}
