//! The grid workload: `edf_average_on` (Figure 12(b)) end to end, each
//! repetition in a fresh process, and a traced replica built from
//! `ClumsyProcessor::golden`, `Engine::map` and `run_with_golden`.

use crate::common::{self, median, quantile, Outcome};
use crate::serve::cache_layers;
use crate::{RunArgs, SetupSampler};
use cache_sim::MemStats;
use clumsy_core::experiment::{
    average_panels, edf_average_on, paper_schemes, Aggregate, EdfBar, ExperimentOptions,
};
use clumsy_core::PAPER_CYCLE_TIMES;
use clumsy_core::{ClumsyConfig, ClumsyProcessor, DynamicConfig, Engine, RunReport};
use energy_model::EdfMetric;
use netbench::{fnv1a_fold, AppKind, Machine, Trace, FNV_OFFSET};
use std::hint::black_box;
use std::path::Path;
use std::sync::Mutex;
use std::thread::ThreadId;
use std::time::Instant;

/// Engine workers of the workload: one per core of a 2-core host.
pub const WORKERS: usize = 2;

/// Fewest grid repetitions per run, however short `--seconds`.
const MIN_REPS: usize = 3;

/// The grid's options; trace and fault seeds derive from `seed`.
pub fn options(seed: u64) -> ExperimentOptions {
    let mut opts = ExperimentOptions::paper();
    opts.trace.seed = common::mix_seed(seed, 1);
    opts.seed = common::mix_seed(seed, 2);
    opts
}

/// Measured jobs of one grid: apps × design points × trials.
pub fn jobs(opts: &ExperimentOptions) -> u64 {
    (AppKind::all().len() * plan().len()) as u64 * u64::from(opts.trials)
}

/// A digest of the bars that tells any two outputs apart bit for bit.
pub fn bars_digest(bars: &[EdfBar]) -> u64 {
    bars.iter().fold(FNV_OFFSET, |h, b| {
        let h = fnv1a_fold(h, b.scheme.bytes());
        let h = fnv1a_fold(h, b.freq.bytes());
        let h = fnv1a_fold(h, b.relative_edf.to_bits().to_le_bytes());
        fnv1a_fold(h, b.relative_edf_stddev.to_bits().to_le_bytes())
    })
}

/// One repetition as a fresh `clumsy repro` pays it: the child mode of
/// this binary runs `edf_average_on` once and prints
/// `grid-once <wall_s> <bars digest> <bars> <peak_rss_mb>`.
pub fn child_main(opts: &ExperimentOptions) -> String {
    let t = Instant::now();
    let bars = edf_average_on(&Engine::with_jobs(WORKERS), opts);
    let wall = t.elapsed().as_secs_f64();
    format!(
        "grid-once {wall} {:016x} {} {}",
        bars_digest(&bars),
        bars.len(),
        common::peak_rss_mb()
    )
}

/// A child repetition's report.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildRun {
    /// Wall seconds of `edf_average_on`.
    pub wall_s: f64,
    /// [`bars_digest`] of its output.
    pub digest: String,
    /// Number of bars.
    pub bars: usize,
    /// The child's peak resident set, MiB.
    pub rss_mb: f64,
}

/// Runs one repetition in a child process of `exe` (this benchmark's
/// binary) and waits for it. `None` when the child failed.
pub fn run_child(exe: &Path, seed: u64) -> Option<ChildRun> {
    let seed = seed.to_string();
    let f = common::run_child(exe, &["--grid-once", "--seed", &seed], "grid-once")?;
    Some(ChildRun {
        wall_s: f.first()?.parse().ok()?,
        digest: f.get(1)?.clone(),
        bars: f.get(2)?.parse().ok()?,
        rss_mb: f.get(3)?.parse().ok()?,
    })
}

/// Seconds for trace generation plus each application's control-plane
/// setup on a golden machine, the work before the grid's first packet;
/// `None` when a control plane fails.
pub fn time_set_up(opts: &ExperimentOptions) -> Option<f64> {
    let t = Instant::now();
    let trace = opts.trace.generate();
    let ok = AppKind::all().into_iter().all(|kind| {
        let mut machine = Machine::strongarm(0);
        machine.set_inject(false);
        let mut app = kind.instantiate(&trace);
        machine.set_fuel(app.setup_fuel());
        black_box(app.setup(&mut machine)).is_ok()
    });
    let seconds = t.elapsed().as_secs_f64();
    ok.then_some(seconds)
}

/// The untraced run: child repetitions of `edf_average_on` until
/// `--seconds` have passed, each followed by a `setup_s` sample.
/// `pkt_per_s` is every measured packet of the run over the summed
/// wall time of its repetitions.
pub fn end_to_end(args: &RunArgs, out: &mut Outcome, setup: &mut SetupSampler) {
    let opts = options(args.seed);
    let per_rep_jobs = jobs(&opts);
    let packets = per_rep_jobs as f64 * opts.trace.packets as f64;
    let exe = std::env::current_exe().ok();
    let clock = Instant::now();
    let mut runs = Vec::new();
    let mut reps = 0;
    while reps < MIN_REPS || clock.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        out.attempted += per_rep_jobs;
        let child = exe.as_deref().and_then(|exe| run_child(exe, args.seed));
        out.checks
            .check(child.is_some(), || "grid: a repetition failed".into());
        match child {
            Some(c) => {
                eprintln!("grid repetition {reps}: {:.0} pkt/s", packets / c.wall_s);
                runs.push(c);
            }
            None => out.failed += per_rep_jobs,
        }
        setup.sample(out);
    }
    if runs.is_empty() {
        return;
    }
    out.checks.check(
        runs.iter()
            .all(|r| r.digest == runs[0].digest && r.bars == plan().len() - 1),
        || "grid: EdfBar output differs across repetitions".into(),
    );
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    // Every packet of the run over all of its grid time. The host speeds
    // up in bursts that a single 1.4–3 s repetition can catch, so the
    // best repetition depends on luck (README).
    let wall_s: f64 = runs.iter().map(|r| r.wall_s).sum();
    out.set("pkt_per_s", packets * runs.len() as f64 / wall_s);
    out.set("served_ratio", runs.len() as f64 / reps as f64);
    // A child's peak is one of two values, about 4 MiB apart, set by
    // how the two workers' allocations happen to interleave; the
    // smaller is the program's own need.
    out.set("peak_rss_mb", quantile(&rss, 0.0));
}

// ---------------------------------------------------------------------
// The traced replica
// ---------------------------------------------------------------------

/// The 21 design points of one Figures 9–12 panel in output order,
/// rebuilt from public pieces: the baseline, then every (scheme, plan).
fn plan() -> Vec<(&'static str, String, ClumsyConfig)> {
    let mut plan = vec![("baseline", "1.00".to_string(), ClumsyConfig::baseline())];
    for (label, detection, strikes) in paper_schemes() {
        let cfg0 = ClumsyConfig::baseline()
            .with_detection(detection)
            .with_strikes(strikes);
        for cr in PAPER_CYCLE_TIMES {
            plan.push((
                label,
                format!("{cr:.2}"),
                cfg0.clone().with_static_cycle(cr),
            ));
        }
        plan.push((
            label,
            "dynamic".to_string(),
            cfg0.clone().with_dynamic(DynamicConfig::paper()),
        ));
    }
    plan
}

/// What one replica pass measured.
#[derive(Debug)]
pub struct Replica {
    /// Figure 12(b) bars.
    pub bars: Vec<EdfBar>,
    /// Wall seconds of the golden phase (every app's golden pass).
    pub golden_s: f64,
    /// Wall seconds of the measured-job map.
    pub map_s: f64,
    /// Per job: (worker thread, start, end).
    pub jobs: Vec<(ThreadId, Instant, Instant)>,
    /// When the measured-job map returned.
    pub map_end: Instant,
    /// Every measured run, in job order.
    pub reports: Vec<RunReport>,
}

/// Replays `edf_average_on` as its public pieces: every app's golden
/// pass on `engine`, then `Engine::map` over the `run_with_golden` jobs,
/// timing each.
pub fn replica(engine: &Engine, trace: &Trace, opts: &ExperimentOptions) -> Replica {
    let apps = AppKind::all();
    let plan = plan();
    let t = Instant::now();
    let goldens = engine.map(&apps, |k| ClumsyProcessor::golden(*k, trace));
    let golden_s = t.elapsed().as_secs_f64();

    let jobs: Vec<(usize, usize, u32)> = (0..apps.len())
        .flat_map(|a| (0..plan.len()).map(move |p| (a, p)))
        .flat_map(|(a, p)| (0..opts.trials).map(move |t| (a, p, t)))
        .collect();
    let timings = Mutex::new(Vec::with_capacity(jobs.len()));
    let map_start = Instant::now();
    let reports = engine.map(&jobs, |&(a, p, trial)| {
        let start = Instant::now();
        let cfg = plan[p].2.clone().with_seed(opts.seed + u64::from(trial));
        let r = ClumsyProcessor::new(cfg).run_with_golden(apps[a], trace, &goldens[a]);
        timings.lock().expect("job timing never panics").push((
            std::thread::current().id(),
            start,
            Instant::now(),
        ));
        r
    });
    let map_end = Instant::now();
    let map_s = (map_end - map_start).as_secs_f64();

    let metric = EdfMetric::paper();
    let trials = opts.trials as usize;
    let per_app: Vec<Vec<EdfBar>> = reports
        .chunks(plan.len() * trials)
        .map(|app_runs| {
            let aggs: Vec<Aggregate> = app_runs
                .chunks(trials)
                .map(|runs| Aggregate {
                    runs: runs.to_vec(),
                })
                .collect();
            let base_edf = aggs[0].edf(&metric);
            aggs[1..]
                .iter()
                .zip(&plan[1..])
                .map(|(agg, (scheme, freq, _))| EdfBar {
                    scheme,
                    freq: freq.clone(),
                    relative_edf: agg.edf(&metric) / base_edf,
                    relative_edf_stddev: agg.edf_stddev(&metric) / base_edf,
                })
                .collect()
        })
        .collect();
    Replica {
        bars: average_panels(&per_app),
        golden_s,
        map_s,
        jobs: timings.into_inner().expect("job timing never panics"),
        map_end,
        reports,
    }
}

/// Golden-machine counters per packet over every app, from an untimed
/// golden pass built like `ClumsyProcessor::golden`.
fn golden_counts(trace: &Trace) -> (f64, f64) {
    let (mut accesses, mut instructions, mut packets) = (0u64, 0u64, 0u64);
    for kind in AppKind::all() {
        let mut machine = Machine::strongarm(0);
        machine.set_inject(false);
        let mut app = kind.instantiate(trace);
        machine.set_fuel(app.setup_fuel());
        app.setup(&mut machine)
            .expect("golden setup cannot fail without faults");
        machine.writeback_all();
        let (s0, i0) = (*machine.stats(), machine.instructions());
        for pkt in &trace.packets {
            let view = machine.dma_packet(pkt).expect("packet fits DMA buffer");
            machine.set_fuel(app.fuel_per_packet());
            app.process(&mut machine, view)
                .expect("golden processing cannot fail without faults");
        }
        accesses += machine.stats().since(&s0).accesses();
        instructions += machine.instructions() - i0;
        packets += trace.packets.len() as u64;
    }
    (
        accesses as f64 / packets as f64,
        instructions as f64 / packets as f64,
    )
}

/// Bitwise equality of two bar lists.
fn same_bars(a: &[EdfBar], b: &[EdfBar]) -> bool {
    a.len() == b.len() && bars_digest(a) == bars_digest(b)
}

/// The traced run: cycles of the replica on 2 workers, again on 1
/// worker for the parallel speed-up, and `edf_average_on` itself, whose
/// bars the replica must reproduce bit for bit, until `--seconds` have
/// passed. Each per-layer value is the median over the cycles.
pub fn traced(args: &RunArgs, out: &mut Outcome) {
    let opts = options(args.seed);
    let trace = opts.trace.generate();
    let per_rep_jobs = jobs(&opts);
    let clock = Instant::now();
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    while samples.is_empty() || clock.elapsed().as_secs_f64() < args.seconds {
        let two = replica(&Engine::with_jobs(WORKERS), &trace, &opts);
        let one = replica(&Engine::with_jobs(1), &trace, &opts);
        let reference = edf_average_on(&Engine::with_jobs(WORKERS), &opts);
        out.attempted += 3 * per_rep_jobs;
        out.checks.check(same_bars(&two.bars, &reference), || {
            "grid: replica bars differ from edf_average_on".into()
        });
        out.checks.check(same_bars(&one.bars, &two.bars), || {
            "grid: replica bars depend on the worker count".into()
        });
        samples.push(layers(&two, &one));
    }
    for (i, &(name, _)) in samples[0].iter().enumerate() {
        let xs: Vec<f64> = samples.iter().map(|row| row[i].1).collect();
        out.set(name, median(&xs));
    }
    let (golden_acc, golden_instr) = golden_counts(&trace);
    out.set("machine.golden.accesses_per_pkt", golden_acc);
    out.set("machine.golden.instructions_per_pkt", golden_instr);
}

/// The per-layer values of one traced cycle.
fn layers(two: &Replica, one: &Replica) -> Vec<(&'static str, f64)> {
    let mut row = Vec::new();
    // Engine: busy share, tail and job times of the 2-worker map.
    let job_s: Vec<f64> = two
        .jobs
        .iter()
        .map(|(_, s, e)| (*e - *s).as_secs_f64())
        .collect();
    let busy: f64 = job_s.iter().sum();
    row.push(("engine.busy_share", busy / (WORKERS as f64 * two.map_s)));
    let map_end = two.map_end;
    let mut workers: Vec<ThreadId> = two.jobs.iter().map(|j| j.0).collect();
    workers.sort_unstable_by_key(|id| format!("{id:?}"));
    workers.dedup();
    // The tail: from the moment the first worker ran out of jobs to the
    // end of the map.
    let first_idle = workers
        .iter()
        .filter_map(|w| two.jobs.iter().filter(|j| j.0 == *w).map(|j| j.2).max())
        .min()
        .unwrap_or(map_end);
    row.push((
        "engine.tail_s",
        map_end.saturating_duration_since(first_idle).as_secs_f64(),
    ));
    row.push((
        "engine.speedup_2w",
        (one.golden_s + one.map_s) / (two.golden_s + two.map_s),
    ));
    row.push(("processor.golden_s", two.golden_s));
    let job_ms: Vec<f64> = job_s.iter().map(|s| s * 1e3).collect();
    row.push(("processor.job_ms_p50", median(&job_ms)));
    row.push(("processor.job_ms_max", quantile(&job_ms, 1.0)));

    // Machine and cache counters over every measured run.
    let mut stats = MemStats::new();
    let (mut packets, mut instructions) = (0u64, 0u64);
    for r in &two.reports {
        add_stats(&mut stats, &r.stats);
        packets += (r.packets_completed + r.dropped_packets) as u64;
        instructions += r.instructions;
    }
    let n = packets as f64;
    let busy_ns = busy * 1e9;
    row.push(("machine.measured.process_ns", busy_ns / n));
    row.push((
        "machine.measured.accesses_per_pkt",
        stats.accesses() as f64 / n,
    ));
    row.push((
        "machine.measured.instructions_per_pkt",
        instructions as f64 / n,
    ));
    row.push((
        "machine.measured.ns_per_access",
        busy_ns / stats.accesses() as f64,
    ));
    cache_layers(&stats, n, &mut row);
    row.push((
        "controller.switches_per_kpkt",
        stats.freq_switches as f64 * 1e3 / n,
    ));
    row
}

/// Adds the counters this benchmark reads from `b` into `a`.
fn add_stats(a: &mut MemStats, b: &MemStats) {
    a.reads += b.reads;
    a.writes += b.writes;
    a.l1_hits += b.l1_hits;
    a.l1_misses += b.l1_misses;
    a.strike_retries += b.strike_retries;
    a.freq_switches += b.freq_switches;
    a.fast_forward_accesses += b.fast_forward_accesses;
    a.slow_path_accesses += b.slow_path_accesses;
}
