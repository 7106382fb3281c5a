//! CI benchmark gate: one binary, one mode per gated experiment.
//!
//! ```text
//! throughput_gate [options]
//!
//!   --mode <m>         throughput (default) | scale | service | store | queries | churn
//!   --baseline <path>  committed artifact (default BENCH_<mode>.json)
//!   --seed <n>         master seed of the live smoke (default 42)
//!   --smoke-nodes <n>  smoke size of the scale / store / queries / churn
//!                      modes (default 50000; queries and churn round it
//!                      to a square lattice and want a few hundred)
//!   --scale <f> --queries <n> --dataset <de|arg|ind|na>
//!                      throughput mode's workload (defaults 0.05 / 100 /
//!                      de: the settings the baseline was recorded at)
//! ```
//!
//! Every mode does the same three things: parse the committed artifact
//! and hold it to the mode's rules (`Scope::Committed`), re-run the
//! experiment at smoke size, and hold that record to the same table
//! (`Scope::Smoke`, with the artifact as the regression baseline). The
//! rules themselves are data in `spnet_bench::gate`; PERFORMANCE.md
//! lists them per mode.

use spnet_bench::gate::{self, Mode, Scope, MODES};
use spnet_bench::{json, HarnessConfig};
use spnet_graph::gen::Dataset;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(broken) => {
            eprintln!("[gate] FAILED: {broken} violation(s)");
            ExitCode::FAILURE
        }
        Err(usage) => {
            eprintln!("error: {usage}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the gate; `Ok(n)` is the number of broken rules.
fn run(args: Vec<String>) -> Result<usize, String> {
    let mut cfg = HarnessConfig::default();
    let mut mode = &MODES[0];
    let mut baseline_path = None;
    let mut smoke_nodes = 50_000usize;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            eprintln!("see the module docs of crates/bench/src/bin/throughput_gate.rs");
            return Ok(0);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} cannot take {value:?}");
        match flag.as_str() {
            "--mode" => mode = Mode::named(&value).ok_or_else(bad)?,
            "--baseline" => baseline_path = Some(value),
            "--scale" => cfg.scale = value.parse().map_err(|_| bad())?,
            "--queries" => cfg.queries = value.parse().map_err(|_| bad())?,
            "--dataset" => cfg.dataset = Dataset::parse(&value).ok_or_else(bad)?,
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--smoke-nodes" => smoke_nodes = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }

    let path = baseline_path.unwrap_or_else(|| format!("BENCH_{}.json", mode.name));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let baseline = json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    eprintln!(
        "[gate] {} against {path}, tolerance {:.0}%",
        mode.name,
        gate::TOLERANCE * 100.0
    );
    if let Some(host) = baseline.get("host") {
        eprintln!(
            "[gate] recorded on {}",
            json::write(host).replace(['\n', ' '], "")
        );
    }

    let committed = gate::check(mode, Scope::Committed, &baseline, None)?;
    let smoke = (mode.smoke)(&cfg, smoke_nodes);
    let live = gate::check(mode, Scope::Smoke, &smoke, Some(&baseline))?;
    for line in &live.lines {
        println!("{line}");
    }
    for v in &committed.violations {
        println!("BROKEN {path}: {v}");
    }
    for v in &live.violations {
        println!("BROKEN smoke: {v}");
    }
    let broken = committed.violations.len() + live.violations.len();
    if broken == 0 {
        eprintln!(
            "[gate] ok: {path} and a live smoke meet the {} rules",
            mode.name
        );
    }
    Ok(broken)
}
