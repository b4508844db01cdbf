//! End-to-end and per-layer benchmark of `clumsy serve` and the EDF²
//! grid, driven only through the program's public entry points.
//!
//! Every workload runs twice over: an untraced run that reports the
//! end-to-end metrics a user sees, and a traced run that times calls
//! into each layer's public functions from outside the program. See
//! `README.md` beside this crate for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

pub mod common;
pub mod grid;
pub mod serve;

use common::{Metric, Outcome};

/// End-to-end metrics, reported with `--trace 0`: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("pkt_per_s", "1/s"),
    ("served_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported with `--trace 1`: `(name, unit)`. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("trace.next_packet_ns", "ns"),
    ("serve.flow_shard_ns", "ns"),
    ("serve.queue.push_ns", "ns"),
    ("serve.queue.pop_ns", "ns"),
    ("machine.golden.dma_ns", "ns"),
    ("machine.golden.process_ns", "ns"),
    ("machine.measured.dma_ns", "ns"),
    ("machine.measured.process_ns", "ns"),
    ("obs.diff_ns", "ns"),
    ("controller.on_packet_ns", "ns"),
    ("machine.golden.accesses_per_pkt", "count"),
    ("machine.measured.accesses_per_pkt", "count"),
    ("machine.golden.instructions_per_pkt", "count"),
    ("machine.measured.instructions_per_pkt", "count"),
    ("machine.measured.ns_per_access", "ns"),
    ("cache.measured.slow_path_share", "ratio"),
    ("cache.measured.strike_retries_per_kpkt", "1/kpkt"),
    ("cache.measured.l1_miss_rate", "ratio"),
    ("controller.switches_per_kpkt", "1/kpkt"),
    ("engine.busy_share", "ratio"),
    ("engine.tail_s", "s"),
    ("engine.speedup_2w", "ratio"),
    ("processor.golden_s", "s"),
    ("processor.job_ms_p50", "ms"),
    ("processor.job_ms_max", "ms"),
    ("telemetry.serve_overhead", "ratio"),
    ("serve.queue.verdict_p50_us", "us"),
    ("serve.queue.verdict_p99_us", "us"),
    ("serve.queue.highwater", "count"),
    ("serve.layer_sum_share", "ratio"),
    ("serve.stepper_coverage", "ratio"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Saturated 1-shard serve of route at 64 B payloads, baseline design.
    ServeRoute,
    /// Saturated 1-shard serve of md5 at the paper's operating point.
    ServeMd5,
    /// The Figure 12(b) EDF² grid on a 2-worker engine.
    Grid,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::ServeRoute, Workload::ServeMd5, Workload::Grid];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeRoute => "serve-route",
            Workload::ServeMd5 => "serve-md5",
            Workload::Grid => "grid",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload attaches telemetry to the program.
    pub fn telemetry_attached(self) -> bool {
        self != Workload::Grid
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// The workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// `false`: end-to-end metrics; `true`: per-layer metrics.
    pub trace: bool,
}

/// Fewest fresh-process set-ups timed per run for `setup_s`.
pub const SETUP_REPS: usize = 9;

/// Seconds to set up `w` once in this process; `None` when a control
/// plane fails.
pub fn setup_once(w: Workload, seed: u64) -> Option<f64> {
    match w {
        Workload::Grid => grid::time_set_up(&grid::options(seed)),
        _ => serve::time_set_up(&serve::config(w, seed)),
    }
}

/// Samples `setup_s` across a run: each sample is one set-up in a fresh
/// process of this binary, as a service or a `clumsy repro` pays it once
/// at start. The workloads take one sample after every repetition, so
/// the median spans the whole run rather than one moment of the host.
pub struct SetupSampler {
    args: RunArgs,
    exe: Option<std::path::PathBuf>,
    times: Vec<f64>,
}

impl SetupSampler {
    fn new(args: &RunArgs) -> Self {
        SetupSampler {
            args: *args,
            exe: std::env::current_exe().ok(),
            times: Vec::new(),
        }
    }

    /// Times one set-up in a fresh process.
    pub fn sample(&mut self, out: &mut Outcome) {
        let seed = self.args.seed.to_string();
        let name = self.args.workload.name();
        let t = self.exe.as_deref().and_then(|exe| {
            let argv = ["--setup-once", "--workload", name, "--seed", &seed];
            common::run_child(exe, &argv, "setup-once")?
                .first()?
                .parse::<f64>()
                .ok()
        });
        out.checks.check(t.is_some(), || {
            format!("{name}: control-plane setup failed")
        });
        self.times.extend(t);
    }

    /// Tops the samples up to [`SETUP_REPS`] and returns their median.
    fn median(mut self, out: &mut Outcome) -> f64 {
        while self.times.len() < SETUP_REPS && out.checks.failures.is_empty() {
            self.sample(out);
        }
        if self.times.is_empty() {
            f64::NAN
        } else {
            common::median(&self.times)
        }
    }
}

/// Runs one invocation and returns its metrics and checks.
pub fn run(args: &RunArgs) -> Outcome {
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Outcome {
        metrics: table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: 0.0,
            })
            .collect(),
        ..Outcome::default()
    };
    if args.trace {
        match args.workload {
            Workload::Grid => grid::traced(args, &mut out),
            w => serve::traced(w, args, &mut out),
        }
    } else {
        let mut setup = SetupSampler::new(args);
        match args.workload {
            Workload::Grid => grid::end_to_end(args, &mut out, &mut setup),
            w => serve::end_to_end(w, args, &mut out, &mut setup),
        }
        let setup_s = setup.median(&mut out);
        out.set("setup_s", setup_s);
    }
    out.attempted += out.checks.run;
    out
}
