//! Two-clock benchmark for the Hyperion reproduction.
//!
//! Every workload is measured on two clocks at once:
//!
//! * the **host clock** — what the Rust simulator costs to run
//!   (`host_ops_per_s`, `setup_s`, `peak_rss_mb`, and the per-layer
//!   `*_ns` figures of the traced run);
//! * the **virtual clock** — what the modeled DPU datapath costs
//!   (`virt_*` figures). These repeat exactly for a seed; a change that
//!   only touches host-side code must leave every one of them, and every
//!   count, identical.
//!
//! The model has no hardware reference in this repository, so it is
//! unvalidated and no error figure is reported.
//!
//! Usage:
//!
//! ```text
//! perfbench --workload <lb_spill|lb_churn|rpc_mix|fail2ban> --seed <n>
//!           --seconds <s> --trace <0|1> [--out-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics from a run timed by the benchmark's own spans. The last line
//! of standard output is one JSON object; `run.py` checks its
//! `fingerprint` (the exact virtual-clock results and counts) across runs
//! of one build and seed.

mod cpu;
mod fail2ban;
mod lb;
mod report;
mod rpc_mix;
mod span;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload seed: feeds `TrafficGen` and `sim::rng`.
    pub seed: u64,
    /// How long the untraced run keeps repeating set-up plus timed phase.
    pub budget: Duration,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <lb_spill|lb_churn|rpc_mix|fail2ban> \
--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]";

fn parse() -> Result<(String, bool, Config), String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench-out");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds: not a positive number: {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{USAGE}");
    Ok((
        workload.ok_or_else(|| missing("--workload"))?,
        trace.ok_or_else(|| missing("--trace"))?,
        Config {
            seed: seed.ok_or_else(|| missing("--seed"))?,
            budget: Duration::from_secs_f64(seconds.ok_or_else(|| missing("--seconds"))?),
            out_dir,
        },
    ))
}

fn main() -> ExitCode {
    let (workload, trace, cfg) = match parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "perfbench: workload={workload} seed={} seconds={:.1} trace={} \
         (model unvalidated: no hardware reference, no error figure)",
        cfg.seed,
        cfg.budget.as_secs_f64(),
        u8::from(trace)
    );
    let outcome = match (workload.as_str(), trace) {
        ("lb_spill", false) => lb::spill(&cfg),
        ("lb_spill", true) => lb::spill_traced(&cfg),
        ("lb_churn", false) => lb::churn(&cfg),
        ("lb_churn", true) => lb::churn_traced(&cfg),
        ("rpc_mix", false) => rpc_mix::run(&cfg),
        ("rpc_mix", true) => rpc_mix::run_traced(&cfg),
        ("fail2ban", false) => fail2ban::run(&cfg),
        ("fail2ban", true) => fail2ban::run_traced(&cfg),
        (other, _) => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.print(trace)
}
