//! `clumsy-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it records the host and build. Exits 1 when an
//! output check fails and 2 on bad arguments.

use clumsy_perfbench::common;
use clumsy_perfbench::{grid, run, serve, setup_once, RunArgs, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: clumsy-perfbench --workload <serve-route|serve-md5|grid> \
     --seed <n> --seconds <1..=60> --trace <0|1>";

fn value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Option<RunArgs> {
    let seconds: f64 = value(args, "--seconds")?.parse().ok()?;
    Some(RunArgs {
        workload: Workload::parse(value(args, "--workload")?)?,
        seed: value(args, "--seed")?.parse().ok()?,
        seconds: (seconds > 0.0 && seconds <= 60.0).then_some(seconds)?,
        trace: match value(args, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return None,
        },
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--grid-once") {
        // One grid repetition in a process of its own (see grid.rs).
        let Some(seed) = value(&args, "--seed").and_then(|s| s.parse().ok()) else {
            eprintln!("--grid-once needs --seed");
            return ExitCode::from(2);
        };
        println!("{}", grid::child_main(&grid::options(seed)));
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--setup-once") {
        // One set-up in a process of its own (see lib.rs).
        let w = value(&args, "--workload").and_then(Workload::parse);
        let seed = value(&args, "--seed").and_then(|s| s.parse().ok());
        let Some(seconds) = w.zip(seed).and_then(|(w, seed)| setup_once(w, seed)) else {
            eprintln!("--setup-once needs a --workload and --seed whose set-up succeeds");
            return ExitCode::from(2);
        };
        println!("setup-once {seconds}");
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--serve-once") {
        // One serve repetition in a process of its own (see serve.rs).
        let w = value(&args, "--workload").and_then(Workload::parse);
        let seed = value(&args, "--seed").and_then(|s| s.parse().ok());
        let (Some(w), Some(seed)) = (w.filter(|w| *w != Workload::Grid), seed) else {
            eprintln!("--serve-once needs a serve --workload and --seed");
            return ExitCode::from(2);
        };
        println!("{}", serve::child_main(w, seed));
        return ExitCode::SUCCESS;
    }
    let Some(run_args) = parse(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let w = run_args.workload;
    println!(
        "{{\"host\": {{\"nproc\": {}, \"commit\": \"{}\", \"source_digest\": \"{}\", \
         \"profile\": \"{}\", \"telemetry_attached\": {}, \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        common::nproc(),
        common::commit(),
        common::source_digest(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        w.telemetry_attached(),
        w.name(),
        run_args.seed,
        run_args.seconds,
        run_args.trace,
    );
    let out = run(&run_args);
    for m in &out.metrics {
        eprintln!("{:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for f in &out.checks.failures {
        eprintln!("check failed: {f}");
    }
    println!("{}", out.json());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
