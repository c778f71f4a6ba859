//! The benchmark's own tests: every workload runs at its smoke size and
//! prints exactly the metrics `BENCHMARK.json` names, with their units;
//! a deliberately corrupted digest makes the run report failures.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use serde::JsonValue;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["fleet-scripted", "corpus-oracle", "service-uptime"];

/// The workload's own named metrics, printed as report lines.
fn named(workload: &str) -> &'static [&'static str] {
    match workload {
        "fleet-scripted" => &["migrations_per_s", "setup_s", "peak_rss_mb"],
        "corpus-oracle" => &["scenarios_per_s", "setup_s", "peak_rss_mb"],
        _ => &[
            "submit_p50_ms",
            "submit_p99_ms",
            "step_p50_ms",
            "step_p90_ms",
            "read_p50_ms",
            "recovery_s",
            "snapshot_mb",
            "setup_s",
            "peak_rss_mb",
        ],
    }
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde::parse(&text).expect("BENCHMARK.json parses");
    doc.get(list)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

struct Run {
    stdout: String,
    result: JsonValue,
}

fn run(workload: &str, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_flux-perfbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "0"])
        .arg("--smoke")
        .args(extra)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} {extra:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = serde::parse(last).expect("the last line is JSON");
    Run { stdout, result }
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("expected an object, got {other:?}"),
    }
}

/// The result line's metrics as `(name, unit)`, checking every value is
/// a number.
fn printed(result: &JsonValue) -> Vec<(String, String)> {
    let JsonValue::Obj(metrics) = result.get("metrics").expect("metrics") else {
        panic!("metrics is not an object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

fn failed(result: &JsonValue) -> u64 {
    result
        .get("failed")
        .and_then(JsonValue::as_u64)
        .expect("failed")
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let expected = declared("end_to_end");
    for w in WORKLOADS {
        let r = run(w, &["--trace", "0"]);
        assert_eq!(
            keys(&r.result),
            ["correct", "attempted", "failed", "metrics"]
        );
        assert_eq!(printed(&r.result), expected, "{w}");
        assert_eq!(
            r.result.get("correct"),
            Some(&JsonValue::Bool(true)),
            "{w}:\n{}",
            r.stdout
        );
        assert_eq!(failed(&r.result), 0, "{w}");
        for name in named(w) {
            assert!(
                r.stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("metric {name} "))),
                "{w} does not print {name}:\n{}",
                r.stdout
            );
        }
        assert!(r.stdout.contains("metric failed_frac 0 ratio"), "{w}");
        assert!(
            r.stdout.contains("\"nproc\": "),
            "{w} lacks its context stamp"
        );
    }
}

#[test]
fn every_traced_run_prints_every_per_layer_metric() {
    let expected = declared("per_layer");
    for w in WORKLOADS {
        let r = run(w, &["--trace", "1"]);
        assert_eq!(printed(&r.result), expected, "{w}");
        assert_eq!(failed(&r.result), 0, "{w}:\n{}", r.stdout);
        assert!(r.stdout.contains("trace.overhead_s"), "{w}");
        assert!(r.stdout.contains("-> "), "{w} does not tag its layers");
    }
}

#[test]
fn a_corrupted_digest_counts_as_failed() {
    for w in WORKLOADS {
        let r = run(w, &["--trace", "0", "--corrupt-digest"]);
        assert_eq!(
            r.result.get("correct"),
            Some(&JsonValue::Bool(false)),
            "{w}"
        );
        assert!(failed(&r.result) > 0, "{w}");
        assert!(!r.stdout.contains("metric failed_frac 0 ratio"), "{w}");
        assert!(r.stdout.contains("differs from the pinned"), "{w}");
    }
}
