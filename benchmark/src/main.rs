//! The spnet benchmark: one workload per authentication method, driven
//! end to end over the path a client sees (publish → snapshot → cold
//! load → open session → prove → encode → decode → verify) and checked
//! against a plain-Dijkstra oracle. See `README.md` beside this
//! package for the workloads, phases and metrics.
//!
//! ```text
//! spnet-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! The last line of standard output is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`).

mod inputs;
mod phases;
mod probes;
mod report;
mod spec;
mod trace;

use report::{median, Host, Run};
use spec::Spec;
use spnet_graph::gen::road_network;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

#[global_allocator]
static ALLOC: probes::CountingAlloc = probes::CountingAlloc;

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    repeat: usize,
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: spnet-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <k>]",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        spec: &spec::WORKLOADS[0],
        seed: 42,
        seconds: spec::RUN_SECONDS,
        traced: false,
        repeat: 1,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("bad value {value:?} for {flag}\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(spec::find(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                args.repeat = value.parse().map_err(|_| bad())?;
                if args.repeat == 0 {
                    return Err(bad());
                }
            }
            _ => return Err(format!("unknown argument {flag:?}\n{}", usage())),
        }
    }
    args.spec = workload.ok_or_else(usage)?;
    Ok(args)
}

fn log(start: Instant, what: &str) {
    eprintln!(
        "[spnet-benchmark {:7.2}s] {what}",
        start.elapsed().as_secs_f64()
    );
}

/// One complete run of a workload.
fn run_once(args: &Args) -> Run {
    let wall = Instant::now();
    let spec = args.spec;
    let mut run = Run::new(args.traced);

    // Harness cost, outside every timed region: the oracle's own copy
    // of the graph, the owner key and the operation lists.
    let graph = road_network(spec.side, spec.side, 1.05, 1.0, spec::GRAPH_SEED);
    let keypair = probes::keygen(&mut run);
    let inputs = inputs::make(&graph, spec, args.seed);
    log(wall, "inputs ready");

    let run_dir = phases::RunDir::create(spec.name).expect("run directory");
    let setups = if args.traced { 1 } else { spec::SETUPS };
    let mut setup_secs = Vec::with_capacity(setups);
    let mut deployment: Option<phases::Deployment> = None;
    for k in 0..setups {
        if let Some(previous) = deployment.take() {
            let dir = previous.dir.clone();
            drop(previous);
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = run_dir.0.join(format!("setup{k}"));
        let (d, secs) = phases::setup(&mut run, spec, &keypair, &inputs.pois, &dir);
        setup_secs.push(secs);
        deployment = Some(d);
    }
    let d = deployment.expect("at least one set-up");
    run.set("setup_s", median(&setup_secs));
    run.set(
        "snapshot_bytes",
        std::fs::metadata(d.dir.join(spnet_core::snapshot::SNAPSHOT_FILE))
            .map_or(f64::NAN, |m| m.len() as f64),
    );
    log(wall, "setup done");

    phases::reads(
        &mut run,
        &d,
        &graph,
        &inputs,
        args.seconds * spec::READ_SHARE,
    );
    log(wall, "read phases done");
    phases::canary(&mut run, &d, &graph, &inputs);
    if args.traced {
        probes::primitives(&mut run, &d, &graph, &keypair, &inputs, args.seed);
        log(wall, "primitives done");
    }

    // A provider restarts rather than holding two copies: the read
    // deployment goes before the churn service loads.
    let (dir, public_key) = (d.dir.clone(), d.public_key.clone());
    drop(d);
    let oracle = phases::churn(&mut run, &dir, &graph, &inputs, &keypair, &public_key);
    log(wall, "churn done");
    phases::restart_after_refresh(&mut run, &dir, &oracle, &inputs, &public_key);

    if args.traced {
        let spans = run.tracer.since(0);
        let span_median = |name: &str| median(&Tracer::durations(spans, name));
        let (publish, save, load_file, load_mem, open) = (
            span_median("owner.publish"),
            span_median("store.save"),
            span_median("store.load_file"),
            span_median("store.load_mem"),
            span_median("service.open_session"),
        );
        run.set("owner.publish_s", publish);
        run.set("store.save_s", save);
        run.set("store.load_file_ms", load_file * 1e3);
        run.set("store.load_mem_ms", load_mem * 1e3);
        run.set("service.open_session_ms", open * 1e3);
    }
    run.set("peak_rss_mb", probes::peak_rss_mb());
    run.info("wall_s", wall.elapsed().as_secs_f64());
    run
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let host = Host::probe();
    let results = report::package_dir().join("results");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.spec.name,
        args.seed,
        u8::from(args.traced)
    );

    let mut first: Option<Run> = None;
    let mut last = None;
    let mut correct = true;
    for _ in 0..args.repeat {
        let run = run_once(&args);
        let metrics = match report::declared(&run, args.traced) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("[spnet-benchmark] {e}");
                return ExitCode::FAILURE;
            }
        };
        correct &= run.failed == 0;
        if let Some(first) = &first {
            for name in report::EXACT {
                let (a, b) = (first.get(name), run.get(name));
                if a.map(f64::to_bits) != b.map(f64::to_bits) {
                    eprintln!("[spnet-benchmark] NOT DETERMINISTIC {name}: {a:?} then {b:?}");
                    correct = false;
                }
            }
        }
        if std::fs::create_dir_all(&results).is_ok() {
            let text = report::result_file(
                &run,
                &host,
                args.spec.name,
                args.seed,
                args.seconds,
                args.traced,
                correct,
            );
            let _ = std::fs::write(results.join(format!("{stem}.json")), text);
            if args.traced {
                let _ = run
                    .tracer
                    .write_json(&results.join(format!("{stem}.trace.json")));
            }
        }
        last = Some((report::result_line(&run, correct, &metrics), metrics));
        first.get_or_insert(run);
    }

    let (line, metrics) = last.expect("--repeat is at least 1");
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.4} {unit}");
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
