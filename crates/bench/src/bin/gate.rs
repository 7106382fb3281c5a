//! CI benchmark gate: one binary, one mode per committed artifact.
//!
//! ```text
//! gate [options]
//!
//!   --mode <m>         scale (default)
//!   --baseline <path>  committed artifact (default BENCH_<mode>.json)
//!   --seed <n>         master seed of the live smoke (default 42)
//!   --smoke-nodes <n>  node count of the live smoke (default 50000)
//! ```
//!
//! Every mode does the same three things: parse the committed artifact
//! and hold it to the mode's rules (`Scope::Committed`), re-run the
//! experiment at smoke size, and hold that record to the same table
//! (`Scope::Smoke`). The rules themselves are data in
//! `spnet_bench::gate`; PERFORMANCE.md lists them.

use spnet_bench::gate::{self, Mode, Scope, MODES};
use spnet_bench::json;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(broken) => {
            eprintln!("[gate] FAILED: {broken} violation(s)");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("error: {error}\n");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn usage() -> String {
    let modes: Vec<&str> = MODES.iter().map(|m| m.name).collect();
    format!(
        "usage: gate [--mode <{}>] [--baseline <path>] [--seed <n>] [--smoke-nodes <n>]",
        modes.join("|")
    )
}

/// Runs the gate; `Ok(n)` is the number of broken rules.
fn run(args: Vec<String>) -> Result<usize, String> {
    let mut mode = &MODES[0];
    let mut baseline_path = None;
    let mut seed = 42u64;
    let mut smoke_nodes = 50_000usize;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if flag == "--help" || flag == "-h" {
            eprintln!("{}", usage());
            return Ok(0);
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} cannot take {value:?}");
        match flag.as_str() {
            "--mode" => mode = Mode::named(&value).ok_or_else(bad)?,
            "--baseline" => baseline_path = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--smoke-nodes" => smoke_nodes = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }

    let path = baseline_path.unwrap_or_else(|| format!("BENCH_{}.json", mode.name));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let baseline = json::parse(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    eprintln!("[gate] {} against {path}", mode.name);
    if let Some(host) = baseline.get("host") {
        eprintln!(
            "[gate] recorded on {}",
            json::write(host).replace(['\n', ' '], "")
        );
    }

    let committed = gate::check(mode, Scope::Committed, &baseline)?;
    let smoke = (mode.smoke)(seed, smoke_nodes);
    let live = gate::check(mode, Scope::Smoke, &smoke)?;
    for v in &committed {
        println!("BROKEN {path}: {v}");
    }
    for v in &live {
        println!("BROKEN smoke: {v}");
    }
    let broken = committed.len() + live.len();
    if broken == 0 {
        eprintln!(
            "[gate] ok: {path} and a live smoke meet the {} rules",
            mode.name
        );
    }
    Ok(broken)
}
