//! Scalar-level checks of the exporters' JSON against the workspace codec.
//!
//! The exporters write through the vendored `serde` codec and
//! `serde::parse` reads the output back. These tests pin the scalars an
//! exporter emits (nulls for open spans, integer nanoseconds, float gauge
//! lexemes, escaped names) and that a cut-off export is rejected rather
//! than read as a shorter document.

#[cfg(test)]
mod tests {
    use crate::{chrome_trace, json_snapshot, Telemetry, TraceKind};
    use flux_simcore::SimTime;
    use serde::{parse, JsonValue};

    fn hub() -> Telemetry {
        let mut tele = Telemetry::new();
        let home = tele.lane("home");
        tele.enter(home, "migration.stage.transfer", SimTime::from_millis(2));
        tele.instant(
            home,
            TraceKind::Fault,
            "net.drop",
            SimTime::from_millis(3),
            "a\nb",
        );
        tele.counter_add("flux.net.bytes_transferred", 4096);
        tele.gauge_set("flux.net.goodput_mbps", -1.5e3);
        tele
    }

    #[test]
    fn parses_scalars() {
        let snap = parse(&json_snapshot(&hub())).unwrap();
        let span = &snap.get("spans").unwrap().as_arr().unwrap()[0];
        assert_eq!(span.get("parent"), Some(&JsonValue::Null));
        assert_eq!(span.get("end_ns"), Some(&JsonValue::Null));
        assert_eq!(span.get("start_ns").unwrap().as_u64(), Some(2_000_000));
        let instant = &snap.get("instants").unwrap().as_arr().unwrap()[0];
        assert_eq!(instant.get("detail").unwrap().as_str(), Some("a\nb"));
        let metrics = snap.get("metrics").unwrap();
        assert_eq!(
            metrics.get("flux.net.bytes_transferred").unwrap().as_u64(),
            Some(4096)
        );
        assert_eq!(
            metrics.get("flux.net.goodput_mbps").unwrap().as_f64(),
            Some(-1500.0)
        );
    }

    #[test]
    fn rejects_garbage() {
        for doc in [chrome_trace(&hub()), json_snapshot(&hub())] {
            assert!(parse(&doc).is_ok());
            for cut in [1, doc.len() / 2, doc.len() - 1] {
                assert!(parse(&doc[..cut]).is_err(), "prefix of {cut} bytes parsed");
            }
            assert!(parse(&format!("{doc} {doc}")).is_err());
        }
    }
}
