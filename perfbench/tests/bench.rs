//! Checks on the benchmark itself: its manifest matches the metrics it
//! prints, its traced replicas agree with the program's entry points,
//! and grid repetitions pay the golden passes afresh.

use clumsy_core::experiment::{edf_average_on, ExperimentOptions};
use clumsy_core::{golden_for, run_serve, Engine};
use clumsy_perfbench::{grid, serve, Workload, END_TO_END, PER_LAYER};
use netbench::AppKind;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Small grid options: the full design grid on a short trace.
fn small_grid() -> ExperimentOptions {
    let mut opts = grid::options(7);
    opts.trace.packets = 60;
    opts.trials = 1;
    opts
}

#[test]
fn manifest_names_every_metric_with_its_unit() {
    let manifest =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .expect("BENCHMARK.json sits at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let at = manifest
            .find(&format!("\"name\": \"{name}\""))
            .unwrap_or_else(|| panic!("{name} missing from BENCHMARK.json"));
        let rest = &manifest[at..];
        let unit_at = rest.find("\"unit\": ").expect("every metric has a unit");
        assert!(
            rest[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"")),
            "{name}: unit differs from {unit}"
        );
    }
    let workloads = &manifest[manifest.find("\"workloads\"").expect("workloads listed")..];
    let workloads = &workloads[..workloads.find(']').expect("a closed list")];
    let names: Vec<&str> = workloads
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("a quoted name")])
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for name in names {
        assert!(Workload::parse(name).is_some(), "unknown workload {name}");
    }
}

#[test]
fn stepper_verdicts_equal_run_serve() {
    // Route at seed 710 hits a control-plane fatal on the base fault
    // seed, so the service and the stepper both build again reseeded.
    let cases = [
        (Workload::ServeRoute, 3),
        (Workload::ServeMd5, 3),
        (Workload::ServeRoute, 710),
    ];
    let mut retried = false;
    for (w, seed) in cases {
        let packets = 1500;
        let cfg = serve::config(w, seed);
        let st = serve::step(&cfg, packets).expect("control plane sets up");
        let report = run_serve(&cfg.clone().with_packet_budget(packets), None, &|| false);
        let shard = &report.shards[0];
        assert_eq!(
            (
                st.clean + st.erroneous,
                st.erroneous,
                st.dropped,
                st.setup_retries
            ),
            (
                shard.processed,
                shard.erroneous,
                shard.dropped,
                shard.setup_retries
            ),
            "{} seed {seed}",
            w.name()
        );
        assert!(st.layer_ns.iter().sum::<u64>() <= st.wall_ns);
        retried |= st.setup_retries > 0;
    }
    assert!(retried, "no case took the reseeded set-up path");
}

#[test]
fn replica_reproduces_edf_average_bitwise() {
    let opts = small_grid();
    let trace = opts.trace.generate();
    let replica = grid::replica(&Engine::with_jobs(2), &trace, &opts);
    let reference = edf_average_on(&Engine::with_jobs(2), &opts);
    assert_eq!(
        grid::bars_digest(&replica.bars),
        grid::bars_digest(&reference)
    );
    assert_eq!(replica.reports.len() as u64, grid::jobs(&opts));
}

#[test]
fn golden_time_does_not_collapse_on_repetition() {
    // The replica calls `ClumsyProcessor::golden` itself, never the
    // process-wide memo, so a second repetition on the same trace pays
    // the golden passes again instead of the price of a memo hit.
    let opts = small_grid();
    let trace = opts.trace.generate();
    let engine = Engine::with_jobs(1);
    grid::replica(&engine, &trace, &opts);
    let second = grid::replica(&engine, &trace, &opts);
    for kind in AppKind::all() {
        golden_for(kind, &trace);
    }
    let t = Instant::now();
    for kind in AppKind::all() {
        black_box(golden_for(kind, &trace));
    }
    let memo_hit_s = t.elapsed().as_secs_f64();
    assert!(
        second.golden_s > 10.0 * memo_hit_s,
        "repetition 2 took {} s for its golden passes, a memo hit {} s",
        second.golden_s,
        memo_hit_s
    );
}

#[test]
fn grid_repetitions_run_in_fresh_processes_and_agree() {
    // Two repetitions of the workload's full grid, each a child process.
    let exe = Path::new(env!("CARGO_BIN_EXE_clumsy-perfbench"));
    let a = grid::run_child(exe, 7).expect("first repetition runs");
    let b = grid::run_child(exe, 7).expect("second repetition runs");
    assert_eq!(a.digest, b.digest);
    assert_eq!(a.bars, 20);
    assert!(a.wall_s > 0.0 && b.rss_mb > 0.0);
}
