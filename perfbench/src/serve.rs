//! The serve workloads: `run_serve` end to end, and a single-threaded
//! stepper that replays one shard's packet path through public calls
//! only, timing each layer.

use crate::common::{self, log2_hist_quantile_us, median, quantile, Checks, Outcome};
use crate::{RunArgs, SetupSampler, Workload};
use cache_sim::{DetectionScheme, MemStats, StrikePolicy};
use clumsy_core::campaign::RESEED_STRIDE;
use clumsy_core::{
    flow_shard, run_serve, ClumsyConfig, Decision, DynamicConfig, DynamicController, FrequencyPlan,
    IngressQueue, PushOutcome, ServeConfig, ServeReport, Telemetry,
};
use netbench::{
    diff_observations, AppError, AppKind, Machine, PacketApp, Plane, Trace, TraceConfig,
    TrafficSource,
};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Fewest measured `run_serve` repetitions per run, however short
/// `--seconds`.
const MIN_REPS: usize = 3;

/// Leading `run_serve` repetitions left out of the metrics: the first
/// ones fault in fresh memory for each new shard thread, which a
/// long-running service pays once.
const WARMUP_REPS: usize = 2;

/// Packets per `run_serve` repetition and per stepper pass.
fn budget(w: Workload) -> u64 {
    match w {
        Workload::ServeMd5 => 30_000,
        _ => 100_000,
    }
}

/// Packets per throughput window: about 5 ms of verdicts at the
/// workload's saturated rate on the reference host.
fn window_packets(w: Workload) -> u64 {
    match w {
        Workload::ServeMd5 => 300,
        _ => 1_000,
    }
}

/// The share of a run's throughput windows that read below `pkt_per_s`:
/// the reported rate is the 99th percentile window (README).
const WINDOW_QUANTILE: f64 = 0.99;

/// The workload's serve configuration; every input derives from `seed`.
pub fn config(w: Workload, seed: u64) -> ServeConfig {
    let mut traffic = TraceConfig::paper().with_seed(common::mix_seed(seed, 1));
    let fault_seed = common::mix_seed(seed, 2);
    let cfg = match w {
        Workload::ServeRoute => {
            traffic.payload_min = 64;
            traffic.payload_max = 64;
            ServeConfig::new(
                AppKind::Route,
                ClumsyConfig::baseline().with_seed(fault_seed),
            )
        }
        Workload::ServeMd5 => ServeConfig::new(
            AppKind::Md5,
            ClumsyConfig::baseline()
                .with_detection(DetectionScheme::Parity)
                .with_strikes(StrikePolicy::two_strike())
                .with_dynamic(DynamicConfig::paper())
                .with_seed(fault_seed),
        ),
        Workload::Grid => unreachable!("grid is not a serve workload"),
    };
    cfg.with_shards(1).with_traffic(traffic)
}

// ---------------------------------------------------------------------
// The stepper
// ---------------------------------------------------------------------

/// The per-packet layers the stepper times, in call order.
const LAYERS: [&str; 10] = [
    "trace.next_packet_ns",
    "serve.flow_shard_ns",
    "serve.queue.push_ns",
    "serve.queue.pop_ns",
    "machine.golden.dma_ns",
    "machine.golden.process_ns",
    "machine.measured.dma_ns",
    "machine.measured.process_ns",
    "obs.diff_ns",
    "controller.on_packet_ns",
];

/// Machine builds a shard tries before it gives up, as `run_serve`'s
/// shards do: the base fault seed, then eight reseeded rounds.
const SETUP_ATTEMPTS: u64 = 9;

/// One shard's golden/measured machine pair, built from public calls in
/// the order the service builds it.
struct Shard {
    golden_machine: Machine,
    golden_app: Box<dyn PacketApp>,
    golden_fuel: u64,
    machine: Machine,
    app: Box<dyn PacketApp>,
    fuel: u64,
    controller: Option<DynamicController>,
    detection: DetectionScheme,
    faults_seen: u64,
}

/// The fault counter the dynamic controller watches: detected (and
/// corrected) faults with detection hardware, injected ones without.
fn fault_count(machine: &Machine, detection: DetectionScheme) -> u64 {
    let s = machine.stats();
    if detection.is_enabled() {
        s.faults_detected + s.faults_corrected
    } else {
        s.faults_injected
    }
}

impl Shard {
    fn build(cfg: &ServeConfig, context: &Trace, seed: u64) -> Result<Shard, AppError> {
        let mut golden_machine = Machine::strongarm(0);
        golden_machine.set_inject(false);
        let mut golden_app = cfg.app.instantiate(context);
        golden_machine.set_fuel(golden_app.setup_fuel());
        golden_app.setup(&mut golden_machine)?;
        let golden_fuel = golden_app.fuel_per_packet();

        let mut machine = Machine::with_config(cfg.design.mem.clone(), seed);
        machine.set_fault_planes(cfg.design.planes);
        let mut app = cfg.app.instantiate(context);
        let fuel = cfg.design.fuel_per_packet.unwrap_or(app.fuel_per_packet());
        let controller = match &cfg.design.frequency {
            FrequencyPlan::Static(cr) => {
                machine.set_cycle_free(*cr);
                None
            }
            FrequencyPlan::Dynamic(d) => {
                let ctl = DynamicController::new(d.clone());
                machine.set_cycle_free(ctl.cycle_time());
                Some(ctl)
            }
        };
        machine.set_plane(Plane::Control);
        machine.set_fuel(app.setup_fuel());
        app.setup(&mut machine)?;
        machine.writeback_all();
        machine.set_plane(Plane::Data);
        let detection = cfg.design.mem.detection;
        let faults_seen = fault_count(&machine, detection);
        Ok(Shard {
            golden_machine,
            golden_app,
            golden_fuel,
            machine,
            app,
            fuel,
            controller,
            detection,
            faults_seen,
        })
    }
}

/// Seconds to set up `cfg` once; `None` when every build of its
/// control plane fails.
pub fn time_set_up(cfg: &ServeConfig) -> Option<f64> {
    let t = Instant::now();
    let (source, shard) = set_up(cfg);
    let seconds = t.elapsed().as_secs_f64();
    black_box((source, shard)).1.map(|_| seconds)
}

/// Everything a service needs before its first packet: the traffic
/// context and shard 0's machines with their control planes, with the
/// number of reseeded builds it took. As in the service, a fatal in
/// the measured control plane rebuilds both machines, the measured one
/// on round `r`'s seed: the base seed xor `r` × `RESEED_STRIDE`.
fn set_up(cfg: &ServeConfig) -> (TrafficSource, Option<(Shard, u64)>) {
    let source = TrafficSource::new(&cfg.traffic);
    let context = source.context();
    let shard = (0..SETUP_ATTEMPTS).find_map(|round| {
        let seed = cfg.design.seed ^ round.wrapping_mul(RESEED_STRIDE);
        Shard::build(cfg, &context, seed).ok().map(|s| (s, round))
    });
    (source, shard)
}

/// What one stepper pass measured.
#[derive(Debug, Clone)]
pub struct Stepped {
    /// Packets whose marked values matched golden.
    pub clean: u64,
    /// Packets processed with diverging marked values.
    pub erroneous: u64,
    /// Packets dropped on a fatal error.
    pub dropped: u64,
    /// Reseeded machine builds before the shard came up.
    pub setup_retries: u64,
    /// Nanoseconds spent in each of [`LAYERS`].
    pub layer_ns: [u64; 10],
    /// Wall nanoseconds of the whole packet loop. Clock reads, loop
    /// control and checks between the timed calls make it exceed the
    /// sum of `layer_ns`.
    pub wall_ns: u64,
    /// Nanoseconds the set-up before the loop took: the same public
    /// calls `run_serve` makes before its first packet.
    pub setup_ns: u64,
    /// Golden machine counters over the loop.
    pub golden: MemStats,
    /// Measured machine counters over the loop.
    pub measured: MemStats,
    /// Golden instructions over the loop.
    pub golden_instructions: u64,
    /// Measured instructions over the loop.
    pub measured_instructions: u64,
    /// Controller frequency switches over the loop.
    pub switches: u64,
}

impl Stepped {
    fn packets(&self) -> u64 {
        self.clean + self.erroneous + self.dropped
    }
}

/// Runs `f` between two clock reads of its own and adds the time to
/// `*ns`, so work between the timed calls counts toward no layer.
fn timed<T>(ns: &mut u64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *ns += u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out
}

/// Replays `packets` packets of `cfg` one at a time through the public
/// pieces of one shard's path, timing every call. `None` when the
/// control plane cannot be set up.
pub fn step(cfg: &ServeConfig, packets: u64) -> Option<Stepped> {
    let t = Instant::now();
    let (mut source, shard) = set_up(cfg);
    let setup_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (mut s, setup_retries) = shard?;
    let queue = IngressQueue::new(cfg.queue_depth);
    let golden0 = *s.golden_machine.stats();
    let measured0 = *s.machine.stats();
    let golden_instr0 = s.golden_machine.instructions();
    let measured_instr0 = s.machine.instructions();
    let switches0 = s.controller.as_ref().map_or(0, DynamicController::switches);
    let (mut clean, mut erroneous, mut dropped) = (0u64, 0u64, 0u64);
    let mut ns = [0u64; 10];

    let start = Instant::now();
    for _ in 0..packets {
        let pkt = timed(&mut ns[0], || source.next_packet());
        timed(&mut ns[1], || black_box(flow_shard(&pkt, cfg.shards)));
        let pushed = timed(&mut ns[2], || queue.push(pkt, cfg.shed_timeout));
        assert!(
            matches!(pushed, PushOutcome::Enqueued(_)),
            "an empty queue admits"
        );
        let pkt = timed(&mut ns[3], || queue.pop()).expect("a pushed packet pops");

        let view = timed(&mut ns[4], || s.golden_machine.dma_packet(&pkt))
            .expect("packet fits DMA buffer");
        let golden_obs = timed(&mut ns[5], || {
            s.golden_machine.set_fuel(s.golden_fuel);
            s.golden_app.process(&mut s.golden_machine, view)
        })
        .expect("golden processing cannot fail without faults");

        match timed(&mut ns[6], || s.machine.dma_packet(&pkt)) {
            Err(_) => dropped += 1,
            Ok(view) => {
                let obs = timed(&mut ns[7], || {
                    s.machine.set_fuel(s.fuel);
                    s.app.process(&mut s.machine, view)
                });
                match obs {
                    Ok(obs) => {
                        let diff = timed(&mut ns[8], || diff_observations(&golden_obs, &obs));
                        if diff.has_error() {
                            erroneous += 1;
                        } else {
                            clean += 1;
                        }
                    }
                    Err(_) => dropped += 1,
                }
            }
        }

        if let Some(ctl) = s.controller.as_mut() {
            timed(&mut ns[9], || {
                let now = fault_count(&s.machine, s.detection);
                let delta = now - s.faults_seen;
                s.faults_seen = now;
                if let Some(Decision::Switch(cr)) = ctl.on_packet(delta) {
                    s.machine.set_cycle(cr);
                }
            });
        }
    }
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);

    Some(Stepped {
        clean,
        erroneous,
        dropped,
        setup_retries,
        layer_ns: ns,
        wall_ns,
        setup_ns,
        golden: s.golden_machine.stats().since(&golden0),
        measured: s.machine.stats().since(&measured0),
        golden_instructions: s.golden_machine.instructions() - golden_instr0,
        measured_instructions: s.machine.instructions() - measured_instr0,
        switches: u64::from(s.controller.as_ref().map_or(0, DynamicController::switches))
            - u64::from(switches0),
    })
}

// ---------------------------------------------------------------------
// Throughput windows
// ---------------------------------------------------------------------

/// Samples the service's verdict count from inside the `stop` closure
/// that `run_serve` polls before every packet: every `every` polls it
/// reads the clock and the verdicts telemetry has counted so far. No
/// extra thread runs; the pump pays one clock read and one telemetry
/// snapshot per window.
struct Meter<'a> {
    telemetry: &'a Telemetry,
    every: u64,
    polls: AtomicU64,
    stamps: Mutex<Vec<(Instant, u64)>>,
}

impl<'a> Meter<'a> {
    fn new(telemetry: &'a Telemetry, every: u64, packets: u64) -> Self {
        Meter {
            telemetry,
            every,
            polls: AtomicU64::new(0),
            stamps: Mutex::new(Vec::with_capacity((packets / every + 2) as usize)),
        }
    }

    /// The `stop` poll: never stops the run (the packet budget does).
    fn poll(&self) -> bool {
        if self
            .polls
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(self.every)
        {
            let s = self.telemetry.snapshot();
            self.stamps
                .lock()
                .expect("only the pump thread stamps")
                .push((Instant::now(), s.packets_processed + s.packets_dropped));
        }
        false
    }

    /// Verdicts per second over each window. The first two windows are
    /// left out: the shard sets up and the queue fills during them.
    fn window_rates(self) -> Vec<f64> {
        let stamps = self.stamps.into_inner().expect("the pump has finished");
        stamps
            .windows(2)
            .skip(2)
            .map(|p| (p[1].1 - p[0].1) as f64 / (p[1].0 - p[0].0).as_secs_f64())
            .collect()
    }
}

// ---------------------------------------------------------------------
// run_serve repetitions and their checks
// ---------------------------------------------------------------------

/// One `run_serve` call and what was read around it.
struct Served {
    report: ServeReport,
    /// The packet budget of the call.
    packets: u64,
    /// Raw enqueue→verdict log2 buckets (telemetry attached only).
    latency_buckets: Vec<u64>,
    /// `queue_invariant_repairs` from telemetry (0 without).
    repairs: u64,
    /// Verdicts per second in each throughput window (telemetry
    /// attached only).
    window_rates: Vec<f64>,
}

impl Served {
    /// Packets that got a verdict.
    fn verdicts(&self) -> u64 {
        self.report.processed() + self.report.dropped()
    }

    fn pkt_per_s(&self) -> f64 {
        self.verdicts() as f64 / self.report.wall.as_secs_f64()
    }

    /// Packets the service failed: every shed (the workloads shed
    /// nothing under backpressure) and packets abandoned to a shard
    /// panic. A watchdog drop is a verdict of the simulated processor,
    /// not a failure of the service.
    fn failed(&self) -> u64 {
        self.report.shed + self.report.abandoned()
    }
}

/// One `run_serve` repetition of `w`: `budget(w)` packets as fast as
/// the queue admits them. With telemetry attached, a [`Meter`] times
/// the verdicts in windows of `window_packets(w)` polls.
fn serve_once(w: Workload, cfg: &ServeConfig, telemetry: bool) -> Served {
    let packets = budget(w);
    let tel = telemetry.then(|| Telemetry::with_shards(cfg.shards));
    let meter = tel
        .as_ref()
        .map(|t| Meter::new(t, window_packets(w), packets));
    let report = run_serve(
        &cfg.clone().with_packet_budget(packets),
        tel.as_ref(),
        &|| meter.as_ref().is_some_and(Meter::poll),
    );
    Served {
        report,
        packets,
        latency_buckets: tel
            .as_ref()
            .map(Telemetry::serve_latency_bucket_counts)
            .unwrap_or_default(),
        repairs: tel
            .as_ref()
            .map_or(0, |t| t.snapshot().queue_invariant_repairs),
        window_rates: meter.map(Meter::window_rates).unwrap_or_default(),
    }
}

/// The output checks every `run_serve` repetition must pass.
fn check_served(w: Workload, s: &Served, checks: &mut Checks) {
    let (r, packets) = (&s.report, s.packets);
    checks.check(r.accounting_holds(), || {
        format!("{}: accounting identity broken", w.name())
    });
    checks.check(r.generated == packets && !r.interrupted, || {
        format!("{}: generated {} of {packets}", w.name(), r.generated)
    });
    checks.check(s.repairs == 0, || {
        format!("{}: {} queue invariant repairs", w.name(), s.repairs)
    });
    checks.check(r.restarts() == 0, || {
        format!("{}: {} shard restarts", w.name(), r.restarts())
    });
    checks.check(r.shed == 0, || {
        format!("{}: {} packets shed", w.name(), r.shed)
    });
}

/// One `run_serve` repetition in a fresh process, as the child mode of
/// this binary runs it: prints `serve-once <peak_rss_mb>`.
pub fn child_main(w: Workload, seed: u64) -> String {
    let cfg = config(w, seed);
    let s = serve_once(w, &cfg, true);
    let mut checks = Checks::default();
    check_served(w, &s, &mut checks);
    assert!(checks.failures.is_empty(), "{:?}", checks.failures);
    format!("serve-once {}", common::peak_rss_mb())
}

/// The untraced run: `peak_rss_mb` from one repetition in a fresh
/// process, then `run_serve` repetitions until `--seconds` have passed,
/// each followed by a `setup_s` sample. `pkt_per_s` is the 99th
/// percentile of the throughput windows of every repetition after the
/// warm-up; `served_ratio` is the median repetition's.
pub fn end_to_end(w: Workload, args: &RunArgs, out: &mut Outcome, setup: &mut SetupSampler) {
    let cfg = config(w, args.seed);

    // A service runs one session per process: its peak memory is that
    // of a fresh process, not of one that already served repetitions.
    let seed = args.seed.to_string();
    let rss = std::env::current_exe().ok().and_then(|exe| {
        common::run_child(
            &exe,
            &["--serve-once", "--workload", w.name(), "--seed", &seed],
            "serve-once",
        )
    });
    let rss = rss.and_then(|f| f.first()?.parse::<f64>().ok());
    out.checks.check(rss.is_some(), || {
        format!("{}: the fresh-process run failed", w.name())
    });

    let clock = Instant::now();
    let (mut reps, mut windows, mut served, mut digests) = (0, Vec::new(), Vec::new(), Vec::new());
    while reps < WARMUP_REPS + MIN_REPS || clock.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        let s = serve_once(w, &cfg, true);
        check_served(w, &s, &mut out.checks);
        out.attempted += s.report.generated;
        out.failed += s.failed();
        eprintln!(
            "{} repetition {reps}: {:.0} pkt/s over the repetition, {:.0} in its best window",
            w.name(),
            s.pkt_per_s(),
            s.window_rates.iter().copied().fold(0.0, f64::max),
        );
        if reps > WARMUP_REPS {
            windows.extend_from_slice(&s.window_rates);
            served.push(s.verdicts() as f64 / s.report.generated as f64);
        }
        digests.push(s.report.shards[0].digest);
        setup.sample(out);
    }
    // FIFO, no shedding: the verdict sequence is a function of the seed
    // alone.
    out.checks
        .check(digests.windows(2).all(|p| p[0] == p[1]), || {
            format!("{}: shard digest differs across repetitions", w.name())
        });
    // Other tenants of the host slow the program down in bursts of a
    // fraction of a second to a few seconds and never speed it up, so
    // the fastest windows are its own speed (README).
    out.set("pkt_per_s", quantile(&windows, WINDOW_QUANTILE));
    out.set("served_ratio", median(&served));
    out.set("peak_rss_mb", rss.unwrap_or(f64::NAN));
}

/// The traced run: stepper passes next to `run_serve` without and with
/// telemetry, over the same packets, whose verdict counts must agree.
pub fn traced(w: Workload, args: &RunArgs, out: &mut Outcome) {
    let cfg = config(w, args.seed);
    let packets = budget(w);
    let clock = Instant::now();
    let mut cycles = 0;
    let mut samples: Vec<Vec<(&'static str, f64)>> = Vec::new();
    while cycles < 1 || clock.elapsed().as_secs_f64() < args.seconds {
        cycles += 1;
        let Some(st) = step(&cfg, packets) else {
            out.checks
                .check(false, || format!("{}: stepper setup failed", w.name()));
            break;
        };
        // Alternate which run goes first, so that a drift in the host's
        // speed biases neither side of the overhead ratio.
        let (off, on) = if cycles % 2 == 1 {
            let off = serve_once(w, &cfg, false);
            (off, serve_once(w, &cfg, true))
        } else {
            let on = serve_once(w, &cfg, true);
            (serve_once(w, &cfg, false), on)
        };
        for s in [&off, &on] {
            check_served(w, s, &mut out.checks);
            out.attempted += s.report.generated;
            out.failed += s.failed();
            let shard = &s.report.shards[0];
            out.checks.check(
                shard.processed == st.clean + st.erroneous
                    && shard.erroneous == st.erroneous
                    && shard.dropped == st.dropped
                    && shard.setup_retries == st.setup_retries,
                || {
                    format!(
                        "{}: stepper (clean {}, erroneous {}, dropped {}, setup retries {}) \
                         differs from run_serve (processed {}, erroneous {}, dropped {}, \
                         setup retries {})",
                        w.name(),
                        st.clean,
                        st.erroneous,
                        st.dropped,
                        st.setup_retries,
                        shard.processed,
                        shard.erroneous,
                        shard.dropped,
                        shard.setup_retries
                    )
                },
            );
        }
        let mut row = Vec::new();
        stepper_layers(&st, &mut row);
        serve_queue_layers(&on, &mut row);
        // `ServeReport::wall` includes the service's set-up; take off the
        // stepper's own, made of the same public calls just before, so
        // both sides are per-packet time.
        let serve_ns = on.report.wall.as_nanos() as f64 - st.setup_ns as f64;
        let serve_ns_per_pkt = serve_ns / on.verdicts() as f64;
        row.push((
            "serve.stepper_coverage",
            st.wall_ns as f64 / st.packets() as f64 / serve_ns_per_pkt,
        ));
        row.push((
            "telemetry.serve_overhead",
            on.report.wall.as_secs_f64() / off.report.wall.as_secs_f64(),
        ));
        samples.push(row);
    }
    // Per-layer values are medians over the cycles.
    let Some(first) = samples.first() else {
        return;
    };
    for (i, &(name, _)) in first.iter().enumerate() {
        let xs: Vec<f64> = samples.iter().map(|row| row[i].1).collect();
        out.set(name, median(&xs));
    }
}

fn stepper_layers(st: &Stepped, row: &mut Vec<(&'static str, f64)>) {
    let n = st.packets() as f64;
    for (name, ns) in LAYERS.iter().zip(st.layer_ns) {
        row.push((name, ns as f64 / n));
    }
    let sum: u64 = st.layer_ns.iter().sum();
    row.push(("serve.layer_sum_share", sum as f64 / st.wall_ns as f64));
    let golden_acc = st.golden.accesses() as f64;
    let measured_acc = st.measured.accesses() as f64;
    row.push(("machine.golden.accesses_per_pkt", golden_acc / n));
    row.push(("machine.measured.accesses_per_pkt", measured_acc / n));
    row.push((
        "machine.golden.instructions_per_pkt",
        st.golden_instructions as f64 / n,
    ));
    row.push((
        "machine.measured.instructions_per_pkt",
        st.measured_instructions as f64 / n,
    ));
    row.push((
        "machine.measured.ns_per_access",
        st.layer_ns[7] as f64 / measured_acc,
    ));
    cache_layers(&st.measured, n, row);
    row.push(("controller.switches_per_kpkt", st.switches as f64 * 1e3 / n));
}

/// Cache counters of a measured machine over `packets` packets.
pub fn cache_layers(m: &MemStats, packets: f64, row: &mut Vec<(&'static str, f64)>) {
    let fast_slow = (m.fast_forward_accesses + m.slow_path_accesses) as f64;
    row.push((
        "cache.measured.slow_path_share",
        m.slow_path_accesses as f64 / fast_slow,
    ));
    row.push((
        "cache.measured.strike_retries_per_kpkt",
        m.strike_retries as f64 * 1e3 / packets,
    ));
    row.push((
        "cache.measured.l1_miss_rate",
        m.l1_misses as f64 / (m.l1_hits + m.l1_misses) as f64,
    ));
}

fn serve_queue_layers(s: &Served, row: &mut Vec<(&'static str, f64)>) {
    row.push((
        "serve.queue.verdict_p50_us",
        log2_hist_quantile_us(&s.latency_buckets, 0.5),
    ));
    row.push((
        "serve.queue.verdict_p99_us",
        log2_hist_quantile_us(&s.latency_buckets, 0.99),
    ));
    row.push((
        "serve.queue.highwater",
        s.report.shards[0].queue_highwater as f64,
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_windows_follow_the_shard_verdicts() {
        let (packets, every) = (3_000, 300);
        let cfg = config(Workload::ServeMd5, 3).with_packet_budget(packets);
        let tel = Telemetry::with_shards(1);
        let meter = Meter::new(&tel, every, packets);
        let report = run_serve(&cfg, Some(&tel), &|| meter.poll());
        let stamps = meter.stamps.lock().expect("the pump has finished").clone();
        // `run_serve` polls once more than it sends, before it sees the
        // budget spent: polls 0, 300, ..., 3000 are stamped.
        assert_eq!(stamps.len() as u64, packets / every + 1);
        assert!(stamps
            .windows(2)
            .all(|p| p[0].0 <= p[1].0 && p[0].1 <= p[1].1));
        let last = stamps.last().expect("stamped").1;
        assert!(last <= report.processed() + report.dropped());
        let rates = meter.window_rates();
        assert_eq!(rates.len(), stamps.len() - 3);
        assert!(rates.iter().all(|r| r.is_finite() && *r >= 0.0));
    }
}
