//! Host-time benchmark of the Flux simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fleet-scripted|corpus-oracle|service-uptime> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-digest]
//! ```
//!
//! Each workload builds its inputs from the seed, drives the public APIs of
//! the simulator for about `--seconds` of host time, checks the simulated
//! output, and prints report lines followed by one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! the run repeats the workload's batch under outside-in spans and the
//! result carries the per-layer metrics. See `perfbench/README.md`.

mod check;
mod clock;
mod context;
mod corpus;
mod fleet;
mod layers;
mod report;
mod service;
mod stats;
mod trace;

use report::Outcome;
use std::process::ExitCode;
use std::time::Duration;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetScripted,
    CorpusOracle,
    ServiceUptime,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "fleet-scripted" => Some(Self::FleetScripted),
            "corpus-oracle" => Some(Self::CorpusOracle),
            "service-uptime" => Some(Self::ServiceUptime),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::FleetScripted => "fleet-scripted",
            Self::CorpusOracle => "corpus-oracle",
            Self::ServiceUptime => "service-uptime",
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    /// Host time the measuring loop runs for.
    pub budget: Duration,
    pub trace: bool,
    /// Tiny sizes, for the benchmark's own tests.
    pub smoke: bool,
    /// Expect a wrong digest at the default seed, to prove the check bites.
    pub corrupt_digest: bool,
}

const USAGE: &str =
    "usage: flux-perfbench --workload <fleet-scripted|corpus-oracle|service-uptime> \
--seed <n> --seconds <s> --trace <0|1> [--smoke] [--corrupt-digest]";

impl Opts {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = check::DEFAULT_SEED;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut smoke = false;
        let mut corrupt_digest = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => {
                    let v = value()?;
                    workload =
                        Some(Workload::parse(&v).ok_or_else(|| format!("unknown workload {v}"))?);
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds.is_finite() && seconds >= 0.0) {
                        return Err("--seconds must be a non-negative number".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                "--smoke" => smoke = true,
                "--corrupt-digest" => corrupt_digest = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed,
            budget: Duration::from_secs_f64(seconds),
            trace,
            smoke,
            corrupt_digest,
        })
    }
}

fn context_line(opts: &Opts, o: &Outcome) -> String {
    let sizes: Vec<String> = o
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "context {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"executor_workers\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"sizes\": {{{}}}}}",
        opts.workload.name(),
        opts.seed,
        opts.trace,
        context::nproc(),
        o.workers,
        context::rustc(),
        context::git_commit(),
        sizes.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("flux-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match opts.workload {
        Workload::FleetScripted => fleet::run(&opts),
        Workload::CorpusOracle => corpus::run(&opts),
        Workload::ServiceUptime => service::run(&opts),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("flux-perfbench: {}: {e}", opts.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let line = match report::result_json(&outcome) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("flux-perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", context_line(&opts, &outcome));
    for m in &outcome.named {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "metric failed_frac {} ratio ({} of {} operations)",
        outcome.failed_frac(),
        outcome.failed,
        outcome.attempted
    );
    if let Some(d) = outcome.digest {
        println!("digest {d:016x}");
    }
    // The first few failures say why; the count says how many.
    for why in outcome.failures.iter().take(5) {
        println!("failure {why}");
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let o = Opts::parse(&args(
            "--workload corpus-oracle --seed 7 --seconds 2.5 --trace 1",
        ))
        .expect("valid");
        assert_eq!(o.workload, Workload::CorpusOracle);
        assert_eq!(o.seed, 7);
        assert_eq!(o.budget, Duration::from_millis(2500));
        assert!(o.trace && !o.smoke && !o.corrupt_digest);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload fleet-scripted --trace 2",
            "--workload fleet-scripted --seconds -1",
            "--workload fleet-scripted --seed",
            "--workload fleet-scripted --extra",
        ] {
            assert!(Opts::parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
