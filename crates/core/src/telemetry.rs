//! Hand-rolled, zero-dependency campaign telemetry.
//!
//! A million-trial campaign used to be a black box: nothing printed
//! until the CSV landed, and abandoned or retried trials were
//! invisible. This module is the instrumentation layer behind
//! `--progress` and `--metrics`: per-worker atomic counters (jobs
//! completed / retried / abandoned, faults injected by target, strike
//! retries, journal records and fsync latency), monotonic-time span
//! timing into a fixed-bucket latency histogram, and a periodic
//! progress reporter on stderr with rate, ETA and outcome tallies.
//!
//! **Strictly passive.** Telemetry draws no randomness and never feeds
//! back into the simulation: with it off (every hook takes an
//! `Option`), the default path executes bitwise identically — the five
//! pinned digests in `cli/tests/bitwise_regression.rs` and every
//! recorded `results/*.csv` are unchanged. With it on, the only cost is
//! relaxed atomic increments and one monotonic-clock read per job.
//!
//! **One table.** Every scalar key is one row of the `counter_table!`
//! invocation below: its [`Counter`] variant, its JSON key and group, its
//! doc string and, for memory-system counters, the [`MemStats`] field
//! [`Telemetry::record_stats`] folds from. The table generates the
//! per-shard storage, the named [`MetricsSnapshot`] fields, the shard
//! sum, the JSON and `record_stats`, so adding a counter is one row.
//!
//! Counters are sharded: each worker updates its own cache-line-sized
//! block (selected by worker index), so hot campaigns do not serialize
//! on a shared counter word. Gauges and maxima live in shard 0 only, so
//! the shard sum is their value. [`Telemetry::snapshot`] sums the
//! shards into a consistent-enough view for reporting — counters are
//! monotone, so a snapshot is always a valid past-or-present state.
//!
//! The metrics JSON emitted by [`Telemetry::metrics_json`] is
//! schema-stable (`"schema":"clumsy-metrics-v1"`): integer-only leaf
//! fields with globally unique names, written by callers via
//! [`crate::journal::atomic_write`]. [`parse_metrics`] is the tolerant
//! reader used by tests and CI — it never panics on truncated or
//! garbage input.

use crate::report::RunReport;
use crate::taxonomy::TrialOutcome;
use cache_sim::MemStats;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Schema tag of the metrics JSON; bumped on any incompatible change.
pub const METRICS_SCHEMA: &str = "clumsy-metrics-v1";

/// Number of log2-microsecond latency buckets: bucket `i` counts
/// durations with `floor(log2(us)) == i`, so the histogram spans 1 µs
/// to ~2.3 hours with the last bucket absorbing the tail.
const HIST_BUCKETS: usize = 24;

/// Generates [`Counter`], the per-shard storage, [`MetricsSnapshot`] and
/// the [`MemStats`] fold behind [`Telemetry::record_stats`] from one row
/// per key:
/// `Variant key in "group" [<- mem_stats_field];`.
macro_rules! counter_table {
    ($(
        $(#[$doc:meta])*
        $var:ident $key:ident in $group:literal $(<- $stat:ident)?;
    )*) => {
        /// One scalar telemetry key: a counter, a gauge, or a
        /// histogram's count, total or maximum. Declared in metrics-JSON
        /// order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($(#[$doc])* $var,)*
        }

        /// `(JSON key, JSON group)` of every [`Counter`], in declaration
        /// order.
        const ROWS: &[(&str, &str)] = &[$((stringify!($key), $group),)*];

        /// Number of [`Counter`]s.
        const COUNTERS: usize = ROWS.len();

        /// A plain (non-atomic) sum of every counter at one instant.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            /// Run-clock time since the telemetry block was created.
            pub elapsed: Duration,
            $($(#[$doc])* pub $key: u64,)*
            /// Non-empty log2 latency buckets as `(floor_us, count)`.
            pub job_us_buckets: Vec<(u64, u64)>,
            /// Serve: non-empty log2 latency buckets as `(floor_us, count)`.
            pub serve_latency_us_buckets: Vec<(u64, u64)>,
        }

        impl MetricsSnapshot {
            /// Every counter value, in declaration order.
            fn values(&self) -> [u64; COUNTERS] {
                [$(self.$key,)*]
            }

            /// A snapshot from counter values in declaration order.
            fn from_values(values: [u64; COUNTERS]) -> Self {
                let [$($key,)*] = values;
                MetricsSnapshot {
                    $($key,)*
                    ..MetricsSnapshot::default()
                }
            }

            /// Adds `n` to `counter`'s field: a snapshot doubles as a
            /// plain, single-threaded ledger.
            pub(crate) fn add(&mut self, counter: Counter, n: u64) {
                match counter {
                    $(Counter::$var => self.$key += n,)*
                }
            }
        }

        /// The memory-system counters of `st`, paired with the
        /// [`Counter`] each one folds into.
        pub(crate) fn stat_counters(st: &MemStats) -> impl Iterator<Item = (Counter, u64)> {
            [$($((Counter::$var, st.$stat),)?)*].into_iter()
        }
    };
}

counter_table! {
    /// Jobs declared for the run (additive, so drivers running several
    /// grids against one block accumulate).
    JobsTotal jobs_total in "jobs";
    /// Fresh completions (excludes replayed jobs).
    JobsCompleted jobs_completed in "jobs";
    /// Jobs pre-filled from a journal instead of being run.
    JobsReplayed jobs_replayed in "jobs";
    /// Attempts re-queued with a reseeded trial.
    JobsRetried jobs_retried in "jobs";
    /// Attempts abandoned on deadline.
    JobsAbandoned jobs_abandoned in "jobs";
    /// Jobs whose every attempt was exhausted.
    JobsFailed jobs_failed in "jobs";
    /// Deadline-overrun threads still running right now (a gauge).
    AbandonedLive abandoned_live in "jobs";
    /// High-water mark of [`MetricsSnapshot::abandoned_live`].
    AbandonedPeak abandoned_peak in "jobs";
    /// Times the abandoned-attempt concurrency cap paused launches.
    AbandonedCapHits abandoned_cap_hits in "jobs";
    /// Faults injected, all targets.
    FaultsInjected faults_injected in "faults" <- faults_injected;
    /// Faults injected into tag bits.
    TagFaultsInjected tag_faults_injected in "faults" <- tag_faults_injected;
    /// Faults injected into parity/check bits.
    ParityFaultsInjected parity_faults_injected in "faults" <- parity_faults_injected;
    /// Faults injected into the L2 data array.
    L2FaultsInjected l2_faults_injected in "faults" <- l2_faults_injected;
    /// Faults flagged by the detection scheme.
    FaultsDetected faults_detected in "faults" <- faults_detected;
    /// Faults corrected in place (SECDED).
    FaultsCorrected faults_corrected in "faults" <- faults_corrected;
    /// Strike-path retries.
    StrikeRetries strike_retries in "faults" <- strike_retries;
    /// Strike refetches that pulled corrupted data back in.
    RecoveryFailures recovery_failures in "faults" <- recovery_failures;
    /// L1 ways mapped out by escalation or explicit fault maps.
    WaysDisabled ways_disabled in "faults" <- ways_disabled;
    /// Dirty lines salvaged through the writeback path at disable time.
    SalvageWritebacks salvage_writebacks in "faults" <- salvage_writebacks;
    /// Accesses to fully mapped-out sets serviced from the L2 bypass.
    BypassAccesses bypass_accesses in "faults" <- bypass_accesses;
    /// Trials classified [`TrialOutcome::Masked`].
    OutcomeMasked outcome_masked in "outcomes";
    /// Trials classified [`TrialOutcome::Corrected`].
    OutcomeCorrected outcome_corrected in "outcomes";
    /// Trials classified [`TrialOutcome::DetectedRecovered`].
    OutcomeDetectedRecovered outcome_detected_recovered in "outcomes";
    /// Trials classified [`TrialOutcome::DetectedFatal`].
    OutcomeDetectedFatal outcome_detected_fatal in "outcomes";
    /// Trials classified [`TrialOutcome::SilentDataCorruption`].
    OutcomeSdc outcome_sdc in "outcomes";
    /// Trials classified [`TrialOutcome::RecoveryFailed`].
    OutcomeRecoveryFailed outcome_recovery_failed in "outcomes";
    /// Serve: packets accepted into ingress queues.
    PacketsIngested packets_ingested in "serve";
    /// Serve: packets shed at ingress under backpressure.
    PacketsShed packets_shed in "serve";
    /// Serve: packets fully processed by shards.
    PacketsProcessed packets_processed in "serve";
    /// Serve: processed packets with marked-value divergence.
    PacketsErroneous packets_erroneous in "serve";
    /// Serve: packets dropped by shard watchdogs (fatal error contained,
    /// machine kept alive).
    PacketsDropped packets_dropped in "serve";
    /// Serve: in-flight packets lost to caught shard panics.
    PacketsAbandoned packets_abandoned in "serve";
    /// Serve: shard panics caught by supervisors.
    ShardPanics shard_panics in "serve";
    /// Serve: shard restarts with reseeded RNG streams after caught
    /// panics.
    ShardRestarts shard_restarts in "serve";
    /// Serve: reseeded machine rebuilds after control-plane fatals.
    ShardSetupRetries shard_setup_retries in "serve";
    /// Serve: high-water ingress-queue occupancy (the bounded-memory
    /// evidence in the soak).
    QueueHighwater queue_highwater in "serve";
    /// Serve: packets shed at the per-flow queue cap (subset of
    /// [`MetricsSnapshot::packets_shed`]).
    PacketsShedFlowCap packets_shed_flow_cap in "serve";
    /// Serve: packets routed to a pinned (non-natural) shard.
    PacketsDiverted packets_diverted in "serve";
    /// Serve: flows pinned away from hot shards by the rebalancer.
    FlowsDiverted flows_diverted in "serve";
    /// Serve: DRR deficit top-ups across all ingress queues (published
    /// once, at drain).
    DrrDeficitTopups drr_deficit_topups in "serve";
    /// Serve: packets timed enqueue→verdict.
    ServeLatencyUsCount serve_latency_us_count in "serve";
    /// Serve: total enqueue→verdict microseconds.
    ServeLatencyUsTotal serve_latency_us_total in "serve";
    /// Serve: slowest single enqueue→verdict span, microseconds.
    ServeLatencyUsMax serve_latency_us_max in "serve";
    /// Serve: control-class packets shed at ingress (subset of
    /// [`MetricsSnapshot::packets_shed`]; asserted zero by the smoke
    /// jobs whenever classes are on).
    PacketsShedControl packets_shed_control in "class";
    /// Serve: data-class packets shed at ingress (subset of
    /// [`MetricsSnapshot::packets_shed`]).
    PacketsShedData packets_shed_data in "class";
    /// Serve: data-class packets evicted to admit control-class
    /// packets (subset of [`MetricsSnapshot::packets_shed_data`]).
    PacketsPreemptShed packets_preempt_shed in "class";
    /// Serve: data-class packets shed under a tightened SLO deadline
    /// (subset of [`MetricsSnapshot::packets_shed_data`]).
    PacketsShedSlo packets_shed_slo in "class";
    /// Serve: latency-SLO trigger inactive→active transitions.
    SloTriggerActivations slo_trigger_activations in "class";
    /// Serve: last windowed p99 estimate seen by the SLO trigger
    /// (microseconds, conservative bucket-upper-edge; a gauge).
    SloLastP99Us slo_last_p99_us in "class";
    /// Serve: rebalance pins rejected because the pin table was full
    /// (published once, at drain).
    RebalancePinTableFull rebalance_pin_table_full in "class";
    /// Serve: repaired ingress-queue invariant violations (stale DRR
    /// active slots, empty flow queues); non-zero means a bug was
    /// survived, not wedged on.
    QueueInvariantRepairs queue_invariant_repairs in "class";
    /// Records handed to the journal writer thread.
    JournalRecords journal_records in "journal";
    /// Batched fsyncs the journal writer issued.
    JournalFsyncs journal_fsyncs in "journal";
    /// Total microseconds spent in journal fsyncs.
    JournalFsyncUsTotal journal_fsync_us_total in "journal";
    /// Slowest single journal fsync, microseconds.
    JournalFsyncUsMax journal_fsync_us_max in "journal";
    /// Jobs executed by the engine thread pool.
    EngineJobs engine_jobs in "engine";
    /// Total microseconds of engine-pool job wall time.
    EngineUsTotal engine_us_total in "engine";
    /// Accesses served by the batched fault-free fast path.
    FastForwardAccesses fast_forward_accesses in "engine" <- fast_forward_accesses;
    /// Accesses that took the full checking path.
    SlowPathAccesses slow_path_accesses in "engine" <- slow_path_accesses;
    /// Timed campaign jobs (equals fresh completions).
    JobUsCount job_us_count in "job_time";
    /// Total campaign-job wall microseconds.
    JobUsTotal job_us_total in "job_time";
    /// Slowest single campaign job, microseconds.
    JobUsMax job_us_max in "job_time";
}

/// The JSON groups in output order.
const GROUPS: [&str; 8] = [
    "jobs", "faults", "outcomes", "serve", "class", "journal", "engine", "job_time",
];

/// One shard of per-worker counters, indexed by [`Counter`]. Sized past
/// a cache line so adjacent shards do not false-share under concurrent
/// updates.
#[derive(Debug)]
struct Counters([AtomicU64; COUNTERS]);

impl Default for Counters {
    fn default() -> Self {
        Counters(std::array::from_fn(|_| AtomicU64::new(0)))
    }
}

/// The counter that tallies `outcome`.
fn outcome_counter(outcome: TrialOutcome) -> Counter {
    match outcome {
        TrialOutcome::Masked => Counter::OutcomeMasked,
        TrialOutcome::Corrected => Counter::OutcomeCorrected,
        TrialOutcome::DetectedRecovered => Counter::OutcomeDetectedRecovered,
        TrialOutcome::DetectedFatal => Counter::OutcomeDetectedFatal,
        TrialOutcome::SilentDataCorruption => Counter::OutcomeSdc,
        TrialOutcome::RecoveryFailed => Counter::OutcomeRecoveryFailed,
    }
}

/// A monotonic span timer: [`Stopwatch::start`] now, read
/// [`Stopwatch::elapsed`] later. Thin, but it keeps every telemetry
/// duration on the same monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the span.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Monotonic time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Campaign-wide instrumentation: sharded counters, latency
/// histograms and the run clock. Shared across workers as
/// `Arc<Telemetry>`; every update is a relaxed atomic.
#[derive(Debug)]
pub struct Telemetry {
    shards: Box<[Counters]>,
    job_us_buckets: [AtomicU64; HIST_BUCKETS],
    serve_latency_us_buckets: [AtomicU64; HIST_BUCKETS],
    started: Instant,
}

/// Histogram bucket for `us` microseconds: `floor(log2(us))`, clamped.
fn bucket_of(us: u64) -> usize {
    let idx = 63 - u64::leading_zeros(us.max(1)) as usize;
    idx.min(HIST_BUCKETS - 1)
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A telemetry block with one counter shard per available core
    /// (clamped to 1..=64).
    #[must_use]
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .clamp(1, 64);
        Telemetry::with_shards(n)
    }

    /// A telemetry block with exactly `shards` counter shards
    /// (clamped to at least 1). Worker `w` updates shard
    /// `w % shards`.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Telemetry {
            shards: (0..shards.max(1)).map(|_| Counters::default()).collect(),
            job_us_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            serve_latency_us_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            started: Instant::now(),
        }
    }

    /// `counter`'s cell on worker `worker`'s shard.
    fn cell(&self, worker: usize, counter: Counter) -> &AtomicU64 {
        &self.shards[worker % self.shards.len()].0[counter as usize]
    }

    /// Adds `n` to `counter` on worker `worker`'s shard.
    pub fn add_on(&self, worker: usize, counter: Counter, n: u64) {
        self.cell(worker, counter).fetch_add(n, Ordering::Relaxed);
    }

    /// Adds `n` to `counter` on shard 0, the coordinator's and the
    /// serve pump's.
    pub fn add(&self, counter: Counter, n: u64) {
        self.add_on(0, counter, n);
    }

    /// Folds a block of memory-system counters into the tallies —
    /// whole-run stats for batch jobs, or an interval delta
    /// ([`MemStats::since`]) for the serve path's periodic publishes.
    pub fn record_stats(&self, worker: usize, st: &MemStats) {
        for (counter, n) in stat_counters(st) {
            self.add_on(worker, counter, n);
        }
    }

    /// Raises the gauge `counter` to at least `v`.
    fn raise(&self, counter: Counter, v: u64) {
        self.cell(0, counter).fetch_max(v, Ordering::Relaxed);
    }

    /// Time since this telemetry block was created (the run clock
    /// behind rate and ETA).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Records one span of `wall` into a histogram: its bucket, and
    /// its count, total and maximum counters.
    fn time(
        &self,
        buckets: &[AtomicU64; HIST_BUCKETS],
        [count, total, max]: [Counter; 3],
        wall: Duration,
    ) {
        let us = duration_us(wall);
        buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.add(count, 1);
        self.add(total, us);
        self.raise(max, us);
    }

    /// One freshly completed job on `worker`, with its wall time.
    pub fn job_completed(&self, worker: usize, wall: Duration) {
        self.add_on(worker, Counter::JobsCompleted, 1);
        let job = [Counter::JobUsCount, Counter::JobUsTotal, Counter::JobUsMax];
        self.time(&self.job_us_buckets, job, wall);
    }

    /// One attempt abandoned on deadline; the stranded thread is now
    /// live-abandoned until it finishes on its own. Returns the new
    /// live count.
    pub fn abandoned_attempt(&self) -> u64 {
        self.add(Counter::JobsAbandoned, 1);
        let live = self
            .cell(0, Counter::AbandonedLive)
            .fetch_add(1, Ordering::Relaxed)
            + 1;
        self.raise(Counter::AbandonedPeak, live);
        live
    }

    /// A previously abandoned thread ran to completion and unwound.
    pub fn abandoned_finished(&self) {
        // Saturating: a decrement can never outnumber the increments,
        // but stay safe against misuse rather than wrapping to u64::MAX.
        let _ = self.cell(0, Counter::AbandonedLive).fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(1)),
        );
    }

    /// Live abandoned (deadline-overrun, still running) threads.
    #[must_use]
    pub fn abandoned_live(&self) -> u64 {
        self.cell(0, Counter::AbandonedLive).load(Ordering::Relaxed)
    }

    /// Folds one finished run's fault counters and outcome class into
    /// the tallies. Called on the coordinator for fresh completions.
    pub fn record_report(&self, worker: usize, report: &RunReport) {
        self.record_stats(worker, &report.stats);
        self.add_on(worker, outcome_counter(report.outcome()), 1);
    }

    /// One packet's enqueue→verdict latency on the serve path.
    pub fn serve_latency(&self, wall: Duration) {
        let serve = [
            Counter::ServeLatencyUsCount,
            Counter::ServeLatencyUsTotal,
            Counter::ServeLatencyUsMax,
        ];
        self.time(&self.serve_latency_us_buckets, serve, wall);
    }

    /// One packet fully processed by shard `worker`; `erroneous` marks
    /// a measured run whose marked values diverged from golden.
    pub fn packet_processed(&self, worker: usize, erroneous: bool) {
        self.add_on(worker, Counter::PacketsProcessed, 1);
        if erroneous {
            self.add_on(worker, Counter::PacketsErroneous, 1);
        }
    }

    /// Observes an ingress-queue occupancy; the snapshot keeps the
    /// high-water mark.
    pub fn queue_depth_sample(&self, depth: u64) {
        self.raise(Counter::QueueHighwater, depth);
    }

    /// Publishes the most recent windowed p99 estimate (microseconds,
    /// conservative bucket-upper-edge) seen by the SLO trigger. A
    /// gauge: last write wins.
    pub fn set_slo_last_p99_us(&self, us: u64) {
        self.cell(0, Counter::SloLastP99Us)
            .store(us, Ordering::Relaxed);
    }

    /// Raw cumulative per-bucket loads of the serve enqueue→verdict
    /// histogram, index `i` counting spans with `floor(log2(us)) == i`
    /// (last bucket absorbs the tail). The SLO trigger diffs successive
    /// calls to form sliding windows.
    #[must_use]
    pub fn serve_latency_bucket_counts(&self) -> Vec<u64> {
        self.serve_latency_us_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// One engine-pool job finished on `worker` after `wall`.
    pub fn engine_job(&self, worker: usize, wall: Duration) {
        self.add_on(worker, Counter::EngineJobs, 1);
        self.add_on(worker, Counter::EngineUsTotal, duration_us(wall));
    }

    /// One batched journal fsync took `wall`.
    pub fn journal_fsync(&self, wall: Duration) {
        let us = duration_us(wall);
        self.add(Counter::JournalFsyncs, 1);
        self.add(Counter::JournalFsyncUsTotal, us);
        self.raise(Counter::JournalFsyncUsMax, us);
    }

    /// Sums every shard into a plain snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut sums = [0u64; COUNTERS];
        for shard in self.shards.iter() {
            for (sum, cell) in sums.iter_mut().zip(&shard.0) {
                *sum += cell.load(Ordering::Relaxed);
            }
        }
        let nonempty = |buckets: &[AtomicU64; HIST_BUCKETS]| {
            buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((1u64 << i, n))
                })
                .collect()
        };
        MetricsSnapshot {
            elapsed: self.elapsed(),
            job_us_buckets: nonempty(&self.job_us_buckets),
            serve_latency_us_buckets: nonempty(&self.serve_latency_us_buckets),
            ..MetricsSnapshot::from_values(sums)
        }
    }

    /// Renders the schema-stable metrics JSON
    /// (`"schema":"clumsy-metrics-v1"`; integer-only leaves with
    /// globally unique names). Callers persist it with
    /// [`crate::journal::atomic_write`].
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Whole microseconds in `d`, saturating (a span near `u64::MAX` µs is
/// 584 000 years — clamping is theoretical, not practical).
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

impl MetricsSnapshot {
    /// Fresh completions per second of run-clock time.
    #[must_use]
    pub fn rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.jobs_completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Estimated seconds to finish the declared jobs at the current
    /// rate; `None` before the first completion or without a total.
    #[must_use]
    pub fn eta_seconds(&self) -> Option<f64> {
        let done = self.jobs_completed + self.jobs_replayed;
        let remaining = self.jobs_total.checked_sub(done)?;
        let rate = self.rate();
        (self.jobs_completed > 0 && rate > 0.0).then(|| remaining as f64 / rate)
    }

    /// The schema-stable metrics JSON (see [`Telemetry::metrics_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(2048);
        let _ = write!(
            s,
            "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"elapsed_ms\": {}",
            u64::try_from(self.elapsed.as_millis()).unwrap_or(u64::MAX)
        );
        // Each histogram's buckets close its group.
        let histograms = [
            (
                "serve",
                "serve_latency_us_buckets",
                &self.serve_latency_us_buckets,
            ),
            ("job_time", "job_us_buckets", &self.job_us_buckets),
        ];
        let values = self.values();
        for group in GROUPS {
            let _ = write!(s, ",\n  \"{group}\": {{");
            let mut sep = "";
            for ((key, _), value) in ROWS.iter().zip(values).filter(|((_, g), _)| *g == group) {
                let _ = write!(s, "{sep}\"{key}\": {value}");
                sep = ", ";
            }
            for (_, key, buckets) in histograms.iter().filter(|h| h.0 == group) {
                let _ = write!(s, "{sep}\"{key}\": [");
                for (i, (floor, n)) in buckets.iter().enumerate() {
                    let _ = write!(s, "{}[{floor}, {n}]", if i > 0 { ", " } else { "" });
                }
                s.push(']');
            }
            s.push('}');
        }
        s.push_str("\n}\n");
        s
    }

    /// One human progress line (the `--progress` format): completion,
    /// rate, ETA, outcome tallies, retry/abandon counts.
    #[must_use]
    pub fn progress_line(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let done = self.jobs_completed + self.jobs_replayed;
        let mut line = format!("[{label}] {done}");
        if self.jobs_total > 0 {
            let pct = 100.0 * done as f64 / self.jobs_total as f64;
            let _ = write!(line, "/{} jobs ({pct:.1}%)", self.jobs_total);
        } else {
            line.push_str(" jobs");
        }
        let _ = write!(line, " | {:.1} jobs/s", self.rate());
        match self.eta_seconds() {
            Some(eta) => {
                let _ = write!(line, " | ETA {eta:.0}s");
            }
            None => line.push_str(" | ETA --"),
        }
        let _ = write!(
            line,
            " | masked {} corrected {} recovered {} fatal {} sdc {} rec_fail {}",
            self.outcome_masked,
            self.outcome_corrected,
            self.outcome_detected_recovered,
            self.outcome_detected_fatal,
            self.outcome_sdc,
            self.outcome_recovery_failed
        );
        let _ = write!(
            line,
            " | retried {} abandoned {} (live {})",
            self.jobs_retried, self.jobs_abandoned, self.abandoned_live
        );
        line
    }

    /// Processed packets per second of run-clock time (the serve rate).
    #[must_use]
    pub fn packet_rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.packets_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// One human progress line for the open-ended serve path: rate and
    /// outcome tallies, no total and no ETA — the stream is unbounded.
    #[must_use]
    pub fn serve_progress_line(&self, label: &str) -> String {
        format!(
            "[{label}] {} pkts | {:.0} pkt/s | shed {} dropped {} abandoned {} \
             | restarts {} (panics {}) | queue hw {}",
            self.packets_processed,
            self.packet_rate(),
            self.packets_shed,
            self.packets_dropped,
            self.packets_abandoned,
            self.shard_restarts,
            self.shard_panics,
            self.queue_highwater
        )
    }
}

/// A background thread calling `tick` once per `every` (and first at
/// start when `immediate`) until stopped, then once more, so the last
/// interval is never lost. Dropping stops it and joins the thread.
#[derive(Debug)]
struct Ticker {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Ticker {
    fn start(every: Duration, immediate: bool, mut tick: impl FnMut() + Send + 'static) -> Self {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_state = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            if immediate {
                tick();
            }
            let (stop, cv) = &*thread_state;
            let mut stopped = stop.lock().unwrap_or_else(|e| e.into_inner());
            // Checked before every wait: a stop issued before this
            // thread took the lock must not cost a whole interval.
            while !*stopped {
                let (guard, timeout) = cv
                    .wait_timeout(stopped, every)
                    .unwrap_or_else(|e| e.into_inner());
                stopped = guard;
                if timeout.timed_out() && !*stopped {
                    tick();
                }
            }
            drop(stopped);
            tick();
        });
        Ticker {
            state,
            handle: Some(handle),
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        let (stop, cv) = &*self.state;
        *stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Background thread printing a [`MetricsSnapshot::progress_line`] to
/// stderr every interval. Started behind `--progress`; stopping (or
/// dropping) joins the thread after one final line, so short runs still
/// report something.
#[derive(Debug)]
pub struct ProgressReporter(Ticker);

impl ProgressReporter {
    /// Spawns the reporter: one line per `every` until stopped.
    #[must_use]
    pub fn start(telemetry: Arc<Telemetry>, label: &str, every: Duration) -> Self {
        ProgressReporter::start_with(telemetry, label, every, MetricsSnapshot::progress_line)
    }

    /// Spawns the reporter in open-ended mode: rate and outcome
    /// tallies with no job total and no ETA, for jobs whose end is not
    /// known up front (the serve path's unbounded stream).
    #[must_use]
    pub fn start_open_ended(telemetry: Arc<Telemetry>, label: &str, every: Duration) -> Self {
        ProgressReporter::start_with(
            telemetry,
            label,
            every,
            MetricsSnapshot::serve_progress_line,
        )
    }

    fn start_with(
        telemetry: Arc<Telemetry>,
        label: &str,
        every: Duration,
        line: fn(&MetricsSnapshot, &str) -> String,
    ) -> Self {
        let label = label.to_string();
        ProgressReporter(Ticker::start(every, false, move || {
            eprintln!("{}", line(&telemetry.snapshot(), &label));
        }))
    }

    /// Stops the reporter and joins its thread (also done on drop).
    pub fn stop(self) {
        drop(self.0);
    }
}

/// Background thread rewriting the `--metrics` JSON file every
/// interval via [`crate::journal::atomic_write`], so an external
/// watcher (or a post-mortem after a kill) always finds a complete,
/// schema-valid snapshot rather than only the final one. Stopping (or
/// dropping) writes one last snapshot and joins the thread.
#[derive(Debug)]
pub struct MetricsFlusher(Ticker);

impl MetricsFlusher {
    /// Spawns the flusher: an immediate write so the file exists from
    /// the start, one atomic rewrite of `path` per `every` until
    /// stopped, plus a final write at stop — the last interval's
    /// window is never lost, however the run ends. Write errors are
    /// reported to stderr once and the thread keeps ticking — a full
    /// disk must not take the serving loop down with it.
    #[must_use]
    pub fn start(telemetry: Arc<Telemetry>, path: PathBuf, every: Duration) -> Self {
        let mut warned = false;
        // The immediate write: a watcher attaching right after launch
        // (or a run killed inside the first interval) still finds a
        // complete, schema-valid snapshot.
        MetricsFlusher(Ticker::start(every, true, move || {
            if let Err(e) = crate::journal::atomic_write(&path, telemetry.metrics_json().as_bytes())
            {
                if !warned {
                    eprintln!("warning: metrics flush to {} failed: {e}", path.display());
                    warned = true;
                }
            }
        }))
    }

    /// Stops the flusher after one final write (also done on drop).
    pub fn stop(self) {
        drop(self.0);
    }
}

/// Tolerant reader for the metrics JSON, used by tests and CI scripts.
///
/// Collects every `"key": <integer>` leaf into a map. Returns `None`
/// when the [`METRICS_SCHEMA`] marker is absent (wrong or mangled
/// schema); never panics, whatever the input — truncated files,
/// garbage bytes and partial writes all simply yield `None` or a
/// partial map.
#[must_use]
pub fn parse_metrics(text: &str) -> Option<std::collections::BTreeMap<String, u64>> {
    if !text.contains(METRICS_SCHEMA) {
        return None;
    }
    let bytes = text.as_bytes();
    let mut map = std::collections::BTreeMap::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes[pos] != b'"' {
            pos += 1;
            continue;
        }
        let key_start = pos + 1;
        let Some(key_len) = bytes[key_start..].iter().position(|&b| b == b'"') else {
            break;
        };
        let mut after = key_start + key_len + 1;
        // Skip whitespace, require a colon, skip whitespace again.
        while bytes.get(after).is_some_and(|b| b.is_ascii_whitespace()) {
            after += 1;
        }
        if bytes.get(after) != Some(&b':') {
            pos = key_start + key_len + 1;
            continue;
        }
        after += 1;
        while bytes.get(after).is_some_and(|b| b.is_ascii_whitespace()) {
            after += 1;
        }
        let digits_start = after;
        while bytes.get(after).is_some_and(u8::is_ascii_digit) {
            after += 1;
        }
        if after > digits_start && after - digits_start <= 20 {
            if let (Ok(key), Ok(value)) = (
                std::str::from_utf8(&bytes[key_start..key_start + key_len]),
                std::str::from_utf8(&bytes[digits_start..after])
                    .unwrap_or("")
                    .parse::<u64>(),
            ) {
                map.insert(key.to_string(), value);
            }
        }
        pos = after.max(key_start + key_len + 1);
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_log2_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counters_sum_across_shards() {
        let t = Telemetry::with_shards(4);
        t.add(Counter::JobsTotal, 10);
        for w in 0..8 {
            t.job_completed(w, Duration::from_micros(100 + w as u64));
        }
        t.add(Counter::JobsRetried, 1);
        t.add(Counter::JobsFailed, 1);
        let s = t.snapshot();
        assert_eq!(s.jobs_total, 10);
        assert_eq!(s.jobs_completed, 8);
        assert_eq!(s.jobs_retried, 1);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.job_us_count, 8);
        assert!(s.job_us_max >= 107);
        assert_eq!(s.job_us_buckets.iter().map(|(_, n)| n).sum::<u64>(), 8);
    }

    #[test]
    fn abandoned_gauges_track_live_and_peak() {
        let t = Telemetry::with_shards(1);
        assert_eq!(t.abandoned_attempt(), 1);
        assert_eq!(t.abandoned_attempt(), 2);
        t.abandoned_finished();
        assert_eq!(t.abandoned_live(), 1);
        t.abandoned_finished();
        t.abandoned_finished(); // extra decrement must saturate, not wrap
        let s = t.snapshot();
        assert_eq!(s.abandoned_live, 0);
        assert_eq!(s.abandoned_peak, 2);
        assert_eq!(s.jobs_abandoned, 2);
    }

    #[test]
    fn metrics_json_round_trips_through_the_tolerant_reader() {
        let t = Telemetry::with_shards(2);
        t.add(Counter::JobsTotal, 4);
        t.job_completed(0, Duration::from_micros(50));
        t.add(Counter::JournalRecords, 3);
        t.journal_fsync(Duration::from_micros(200));
        let json = t.metrics_json();
        assert!(json.contains(METRICS_SCHEMA));
        let map = parse_metrics(&json).expect("schema marker present");
        assert_eq!(map.get("jobs_total"), Some(&4));
        assert_eq!(map.get("jobs_completed"), Some(&1));
        assert_eq!(map.get("journal_records"), Some(&3));
        assert_eq!(map.get("journal_fsyncs"), Some(&1));
        assert!(map.contains_key("journal_fsync_us_total"));
        assert!(map.contains_key("outcome_sdc"));
        assert!(map.contains_key("engine_jobs"));
        assert!(map.contains_key("elapsed_ms"));
        assert!(map.contains_key("ways_disabled"));
        assert!(map.contains_key("salvage_writebacks"));
        assert!(map.contains_key("bypass_accesses"));
    }

    #[test]
    fn parse_metrics_survives_garbage_without_a_schema() {
        assert_eq!(parse_metrics(""), None);
        assert_eq!(parse_metrics("{\"jobs_total\": 3}"), None);
        assert_eq!(parse_metrics("\u{0}\u{1}random bytes"), None);
    }

    #[test]
    fn parse_metrics_tolerates_truncation() {
        let t = Telemetry::with_shards(1);
        t.add(Counter::JobsTotal, 7);
        let json = t.metrics_json();
        // Any prefix long enough to keep the schema marker parses to a
        // (possibly partial) map; shorter prefixes yield None. Nothing
        // panics either way.
        for cut in 0..json.len() {
            let _ = parse_metrics(&json[..cut]);
        }
    }

    #[test]
    fn progress_line_reports_completion_and_eta() {
        let t = Telemetry::with_shards(1);
        t.add(Counter::JobsTotal, 10);
        t.job_completed(0, Duration::from_micros(10));
        let line = t.snapshot().progress_line("unit");
        assert!(line.starts_with("[unit] 1/10 jobs"));
        assert!(line.contains("jobs/s"));
        assert!(line.contains("masked"));
        let bare = Telemetry::with_shards(1).snapshot().progress_line("x");
        assert!(bare.contains("ETA --"), "{bare}");
    }

    #[test]
    fn progress_reporter_stops_cleanly() {
        let t = Arc::new(Telemetry::new());
        let r = ProgressReporter::start(Arc::clone(&t), "unit", Duration::from_secs(60));
        r.stop(); // must not hang waiting for the first tick
        let r = ProgressReporter::start_open_ended(t, "serve", Duration::from_secs(60));
        r.stop();
    }

    #[test]
    fn serve_progress_line_has_rate_but_no_eta() {
        let t = Telemetry::with_shards(2);
        t.add(Counter::PacketsIngested, 1);
        t.packet_processed(0, false);
        t.packet_processed(1, true);
        t.add_on(0, Counter::PacketsDropped, 1);
        t.add(Counter::PacketsAbandoned, 1);
        t.add(Counter::ShardPanics, 1);
        t.add(Counter::ShardRestarts, 1);
        t.queue_depth_sample(17);
        let s = t.snapshot();
        assert_eq!(s.packets_processed, 2);
        assert_eq!(s.packets_erroneous, 1);
        assert_eq!(s.queue_highwater, 17);
        let line = s.serve_progress_line("serve");
        assert!(line.starts_with("[serve] 2 pkts"), "{line}");
        assert!(line.contains("pkt/s"), "{line}");
        assert!(line.contains("queue hw 17"), "{line}");
        assert!(
            !line.contains("ETA"),
            "no ETA on an unbounded stream: {line}"
        );
    }

    #[test]
    fn serve_counters_survive_the_json_round_trip() {
        let t = Telemetry::with_shards(1);
        t.add(Counter::PacketsIngested, 1);
        t.add(Counter::PacketsShed, 1);
        t.packet_processed(0, true);
        t.add(Counter::ShardSetupRetries, 1);
        t.queue_depth_sample(5);
        t.queue_depth_sample(3); // high-water keeps the max
        let map = parse_metrics(&t.metrics_json()).expect("schema present");
        assert_eq!(map.get("packets_ingested"), Some(&1));
        assert_eq!(map.get("packets_shed"), Some(&1));
        assert_eq!(map.get("packets_processed"), Some(&1));
        assert_eq!(map.get("packets_erroneous"), Some(&1));
        assert_eq!(map.get("shard_setup_retries"), Some(&1));
        assert_eq!(map.get("queue_highwater"), Some(&5));
        assert_eq!(map.get("shard_panics"), Some(&0));
    }

    #[test]
    fn overload_counters_survive_the_json_round_trip() {
        let t = Telemetry::with_shards(2);
        t.add(Counter::PacketsShed, 1);
        t.add(Counter::PacketsShedFlowCap, 1);
        t.add(Counter::PacketsDiverted, 1);
        t.add(Counter::PacketsDiverted, 1);
        t.add(Counter::FlowsDiverted, 1);
        t.add(Counter::DrrDeficitTopups, 7);
        t.serve_latency(Duration::from_micros(100));
        t.serve_latency(Duration::from_micros(3000));
        let s = t.snapshot();
        assert_eq!(s.serve_latency_us_count, 2);
        assert_eq!(s.serve_latency_us_total, 3100);
        assert_eq!(s.serve_latency_us_max, 3000);
        assert_eq!(s.serve_latency_us_buckets.len(), 2);
        let map = parse_metrics(&t.metrics_json()).expect("schema present");
        assert_eq!(map.get("packets_shed_flow_cap"), Some(&1));
        assert_eq!(map.get("packets_diverted"), Some(&2));
        assert_eq!(map.get("flows_diverted"), Some(&1));
        assert_eq!(map.get("drr_deficit_topups"), Some(&7));
        assert_eq!(map.get("serve_latency_us_count"), Some(&2));
        assert_eq!(map.get("serve_latency_us_total"), Some(&3100));
        assert_eq!(map.get("serve_latency_us_max"), Some(&3000));
    }

    #[test]
    fn class_counters_survive_the_json_round_trip() {
        let t = Telemetry::with_shards(2);
        t.add(Counter::PacketsShedControl, 1);
        t.add(Counter::PacketsShedData, 1);
        t.add(Counter::PacketsShedData, 1);
        t.add(Counter::PacketsPreemptShed, 1);
        t.add(Counter::PacketsShedSlo, 1);
        t.add(Counter::SloTriggerActivations, 1);
        t.set_slo_last_p99_us(2047);
        t.set_slo_last_p99_us(511); // gauge: last write wins
        t.add(Counter::RebalancePinTableFull, 3);
        t.add(Counter::QueueInvariantRepairs, 2);
        let s = t.snapshot();
        assert_eq!(s.packets_shed_control, 1);
        assert_eq!(s.packets_shed_data, 2);
        assert_eq!(s.slo_last_p99_us, 511);
        let map = parse_metrics(&t.metrics_json()).expect("schema present");
        assert_eq!(map.get("packets_shed_control"), Some(&1));
        assert_eq!(map.get("packets_shed_data"), Some(&2));
        assert_eq!(map.get("packets_preempt_shed"), Some(&1));
        assert_eq!(map.get("packets_shed_slo"), Some(&1));
        assert_eq!(map.get("slo_trigger_activations"), Some(&1));
        assert_eq!(map.get("slo_last_p99_us"), Some(&511));
        assert_eq!(map.get("rebalance_pin_table_full"), Some(&3));
        assert_eq!(map.get("queue_invariant_repairs"), Some(&2));
    }

    #[test]
    fn serve_latency_bucket_counts_expose_raw_cumulative_loads() {
        let t = Telemetry::with_shards(1);
        assert!(t.serve_latency_bucket_counts().iter().all(|&n| n == 0));
        t.serve_latency(Duration::from_micros(100)); // bucket 6: [64, 128)
        t.serve_latency(Duration::from_micros(100));
        t.serve_latency(Duration::from_micros(3000)); // bucket 11
        let counts = t.serve_latency_bucket_counts();
        assert_eq!(counts.len(), HIST_BUCKETS);
        assert_eq!(counts[6], 2);
        assert_eq!(counts[11], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn metrics_flusher_writes_immediately_on_start() {
        let t = Arc::new(Telemetry::with_shards(1));
        t.add(Counter::JobsTotal, 9);
        let dir = std::env::temp_dir().join(format!("clumsy-flush0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.json");
        // An interval far beyond the test's lifetime: only the startup
        // flush can produce the file.
        let f = MetricsFlusher::start(Arc::clone(&t), path.clone(), Duration::from_secs(3600));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !path.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let text = std::fs::read_to_string(&path).expect("startup flush written");
        let map = parse_metrics(&text).expect("schema-valid snapshot");
        assert_eq!(map.get("jobs_total"), Some(&9));
        f.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_flusher_rewrites_the_file_each_interval() {
        let t = Arc::new(Telemetry::with_shards(1));
        t.add(Counter::JobsTotal, 3);
        let dir = std::env::temp_dir().join(format!("clumsy-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.json");
        let f = MetricsFlusher::start(Arc::clone(&t), path.clone(), Duration::from_millis(10));
        let deadline = Instant::now() + Duration::from_secs(10);
        // Wait for at least one periodic flush before stopping.
        loop {
            if path.exists() || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        t.job_completed(0, Duration::from_micros(10));
        f.stop();
        let text = std::fs::read_to_string(&path).expect("final flush written");
        let map = parse_metrics(&text).expect("schema-valid snapshot");
        // The stop-time flush sees the completion recorded after the
        // first periodic write.
        assert_eq!(map.get("jobs_total"), Some(&3));
        assert_eq!(map.get("jobs_completed"), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_report_tallies_outcomes() {
        let t = Telemetry::with_shards(1);
        let report = RunReport {
            app: "test",
            packets_attempted: 10,
            packets_completed: 10,
            fatal: None,
            dropped_packets: 0,
            erroneous_packets: 0,
            error_counts: std::collections::BTreeMap::new(),
            init_obs_total: 0,
            init_obs_wrong: 0,
            instructions: 100,
            cycles: 500.0,
            energy: energy_model::EnergyBreakdown::default(),
            stats: cache_sim::MemStats {
                faults_injected: 5,
                faults_detected: 2,
                ..Default::default()
            },
            freq_trace: Vec::new(),
            epoch_faults: Vec::new(),
        };
        t.record_report(0, &report);
        let s = t.snapshot();
        assert_eq!(s.faults_injected, 5);
        assert_eq!(s.faults_detected, 2);
        // detected > 0, nothing worse: detected_recovered.
        assert_eq!(s.outcome_detected_recovered, 1);
    }
}
