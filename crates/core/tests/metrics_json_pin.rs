//! Byte-for-byte pin of the metrics JSON.
//!
//! CI scripts grep the `"key": N` leaves of this document, so key
//! order, grouping and spacing are part of the schema. Every counter,
//! gauge and histogram gets a distinct value, so a swapped or
//! misgrouped key changes the bytes.

use cache_sim::MemStats;
use clumsy_core::{Counter, MetricsSnapshot, RunReport, Telemetry};
use std::collections::BTreeMap;
use std::time::Duration;

/// A snapshot whose every field holds a distinct value.
fn distinct_snapshot() -> MetricsSnapshot {
    MetricsSnapshot {
        elapsed: Duration::ZERO,
        jobs_total: 1,
        jobs_completed: 2,
        jobs_replayed: 3,
        jobs_retried: 4,
        jobs_abandoned: 5,
        jobs_failed: 6,
        abandoned_live: 7,
        abandoned_peak: 8,
        abandoned_cap_hits: 9,
        faults_injected: 10,
        tag_faults_injected: 11,
        parity_faults_injected: 12,
        l2_faults_injected: 13,
        faults_detected: 14,
        faults_corrected: 15,
        strike_retries: 16,
        recovery_failures: 17,
        fast_forward_accesses: 18,
        slow_path_accesses: 19,
        ways_disabled: 20,
        salvage_writebacks: 21,
        bypass_accesses: 22,
        outcome_masked: 23,
        outcome_corrected: 24,
        outcome_detected_recovered: 25,
        outcome_detected_fatal: 26,
        outcome_sdc: 27,
        outcome_recovery_failed: 28,
        packets_ingested: 29,
        packets_shed: 30,
        packets_shed_flow_cap: 31,
        packets_diverted: 32,
        flows_diverted: 33,
        drr_deficit_topups: 34,
        packets_processed: 35,
        packets_erroneous: 36,
        packets_dropped: 37,
        packets_abandoned: 38,
        shard_panics: 39,
        shard_restarts: 40,
        shard_setup_retries: 41,
        queue_highwater: 42,
        packets_shed_control: 43,
        packets_shed_data: 44,
        packets_preempt_shed: 45,
        packets_shed_slo: 46,
        slo_trigger_activations: 47,
        slo_last_p99_us: 48,
        rebalance_pin_table_full: 49,
        queue_invariant_repairs: 50,
        journal_records: 51,
        journal_fsyncs: 52,
        journal_fsync_us_total: 53,
        journal_fsync_us_max: 54,
        engine_jobs: 55,
        engine_us_total: 56,
        job_us_count: 57,
        job_us_total: 58,
        job_us_max: 59,
        job_us_buckets: vec![(1, 60), (64, 61)],
        serve_latency_us_count: 62,
        serve_latency_us_total: 63,
        serve_latency_us_max: 64,
        serve_latency_us_buckets: vec![(2, 65), (1024, 66), (8192, 67)],
    }
}

const DISTINCT_JSON: &str = r#"{
  "schema": "clumsy-metrics-v1",
  "elapsed_ms": 0,
  "jobs": {"jobs_total": 1, "jobs_completed": 2, "jobs_replayed": 3, "jobs_retried": 4, "jobs_abandoned": 5, "jobs_failed": 6, "abandoned_live": 7, "abandoned_peak": 8, "abandoned_cap_hits": 9},
  "faults": {"faults_injected": 10, "tag_faults_injected": 11, "parity_faults_injected": 12, "l2_faults_injected": 13, "faults_detected": 14, "faults_corrected": 15, "strike_retries": 16, "recovery_failures": 17, "ways_disabled": 20, "salvage_writebacks": 21, "bypass_accesses": 22},
  "outcomes": {"outcome_masked": 23, "outcome_corrected": 24, "outcome_detected_recovered": 25, "outcome_detected_fatal": 26, "outcome_sdc": 27, "outcome_recovery_failed": 28},
  "serve": {"packets_ingested": 29, "packets_shed": 30, "packets_processed": 35, "packets_erroneous": 36, "packets_dropped": 37, "packets_abandoned": 38, "shard_panics": 39, "shard_restarts": 40, "shard_setup_retries": 41, "queue_highwater": 42, "packets_shed_flow_cap": 31, "packets_diverted": 32, "flows_diverted": 33, "drr_deficit_topups": 34, "serve_latency_us_count": 62, "serve_latency_us_total": 63, "serve_latency_us_max": 64, "serve_latency_us_buckets": [[2, 65], [1024, 66], [8192, 67]]},
  "class": {"packets_shed_control": 43, "packets_shed_data": 44, "packets_preempt_shed": 45, "packets_shed_slo": 46, "slo_trigger_activations": 47, "slo_last_p99_us": 48, "rebalance_pin_table_full": 49, "queue_invariant_repairs": 50},
  "journal": {"journal_records": 51, "journal_fsyncs": 52, "journal_fsync_us_total": 53, "journal_fsync_us_max": 54},
  "engine": {"engine_jobs": 55, "engine_us_total": 56, "fast_forward_accesses": 18, "slow_path_accesses": 19},
  "job_time": {"job_us_count": 57, "job_us_total": 58, "job_us_max": 59, "job_us_buckets": [[1, 60], [64, 61]]}
}
"#;

#[test]
fn metrics_json_is_pinned_byte_for_byte() {
    let json = distinct_snapshot().to_json();
    assert_eq!(json, DISTINCT_JSON, "\n{json}");
}

/// A run report whose outcome class is decided by `tweak`.
fn report(tweak: impl FnOnce(&mut RunReport)) -> RunReport {
    let mut r = RunReport {
        app: "pin",
        packets_attempted: 1,
        packets_completed: 1,
        fatal: None,
        dropped_packets: 0,
        erroneous_packets: 0,
        error_counts: BTreeMap::new(),
        init_obs_total: 0,
        init_obs_wrong: 0,
        instructions: 0,
        cycles: 0.0,
        energy: Default::default(),
        stats: MemStats::default(),
        freq_trace: Vec::new(),
        epoch_faults: Vec::new(),
    };
    tweak(&mut r);
    r
}

const TELEMETRY_JSON: &str = r#"{
  "schema": "clumsy-metrics-v1",
  "elapsed_ms": 0,
  "jobs": {"jobs_total": 40, "jobs_completed": 4, "jobs_replayed": 2, "jobs_retried": 3, "jobs_abandoned": 6, "jobs_failed": 5, "abandoned_live": 4, "abandoned_peak": 6, "abandoned_cap_hits": 7},
  "faults": {"faults_injected": 200, "tag_faults_injected": 202, "parity_faults_injected": 204, "l2_faults_injected": 206, "faults_detected": 211, "faults_corrected": 212, "strike_retries": 212, "recovery_failures": 220, "ways_disabled": 220, "salvage_writebacks": 222, "bypass_accesses": 224},
  "outcomes": {"outcome_masked": 1, "outcome_corrected": 2, "outcome_detected_recovered": 3, "outcome_detected_fatal": 4, "outcome_sdc": 5, "outcome_recovery_failed": 6},
  "serve": {"packets_ingested": 11, "packets_shed": 12, "packets_processed": 17, "packets_erroneous": 5, "packets_dropped": 18, "packets_abandoned": 19, "shard_panics": 20, "shard_restarts": 21, "shard_setup_retries": 22, "queue_highwater": 23, "packets_shed_flow_cap": 13, "packets_diverted": 14, "flows_diverted": 15, "drr_deficit_topups": 16, "serve_latency_us_count": 5, "serve_latency_us_total": 9603, "serve_latency_us_max": 9000, "serve_latency_us_buckets": [[1, 1], [2, 1], [256, 2], [8192, 1]]},
  "class": {"packets_shed_control": 24, "packets_shed_data": 25, "packets_preempt_shed": 26, "packets_shed_slo": 27, "slo_trigger_activations": 28, "slo_last_p99_us": 29, "rebalance_pin_table_full": 30, "queue_invariant_repairs": 31},
  "journal": {"journal_records": 34, "journal_fsyncs": 2, "journal_fsync_us_total": 395, "journal_fsync_us_max": 360},
  "engine": {"engine_jobs": 2, "engine_us_total": 65, "fast_forward_accesses": 216, "slow_path_accesses": 218},
  "job_time": {"job_us_count": 4, "job_us_total": 5143, "job_us_max": 5000, "job_us_buckets": [[2, 1], [64, 2], [4096, 1]]}
}
"#;

#[test]
fn telemetry_sums_render_the_pinned_json() {
    let t = Telemetry::with_shards(3);
    let us = Duration::from_micros;
    t.add(Counter::JobsTotal, 40);
    t.add(Counter::JobsReplayed, 2);
    for (w, wall) in [(0, 3), (1, 70), (2, 70), (4, 5000)] {
        t.job_completed(w, us(wall));
    }
    t.add(Counter::JobsRetried, 3);
    t.add(Counter::JobsFailed, 5);
    for _ in 0..6 {
        let _ = t.abandoned_attempt();
    }
    t.abandoned_finished();
    t.abandoned_finished();
    t.add(Counter::AbandonedCapHits, 7);
    let stats = MemStats {
        faults_injected: 100,
        tag_faults_injected: 101,
        parity_faults_injected: 102,
        l2_faults_injected: 103,
        faults_detected: 104,
        faults_corrected: 105,
        strike_retries: 106,
        recovery_failures: 107,
        fast_forward_accesses: 108,
        slow_path_accesses: 109,
        ways_disabled: 110,
        salvage_writebacks: 111,
        bypass_accesses: 112,
        ..MemStats::default()
    };
    t.record_stats(1, &stats);
    t.record_stats(2, &stats);
    // One outcome class per count 1..=6, least to most severe.
    let classes: [fn(&mut RunReport); 6] = [
        |_| {},
        |r| r.stats.faults_corrected = 1,
        |r| r.stats.faults_detected = 1,
        |r| r.dropped_packets = 1,
        |r| r.erroneous_packets = 1,
        |r| r.stats.recovery_failures = 1,
    ];
    for (n, tweak) in classes.into_iter().enumerate() {
        let r = report(tweak);
        for k in 0..=n {
            t.record_report(k, &r);
        }
    }
    for (counter, n) in [
        (Counter::PacketsIngested, 11),
        (Counter::PacketsShed, 12),
        (Counter::PacketsShedFlowCap, 13),
        (Counter::PacketsDiverted, 14),
        (Counter::FlowsDiverted, 15),
        (Counter::DrrDeficitTopups, 16),
        (Counter::PacketsAbandoned, 19),
        (Counter::ShardPanics, 20),
        (Counter::ShardRestarts, 21),
        (Counter::ShardSetupRetries, 22),
        (Counter::PacketsShedControl, 24),
        (Counter::PacketsShedData, 25),
        (Counter::PacketsPreemptShed, 26),
        (Counter::PacketsShedSlo, 27),
        (Counter::SloTriggerActivations, 28),
        (Counter::RebalancePinTableFull, 30),
        (Counter::QueueInvariantRepairs, 31),
        (Counter::JournalRecords, 34),
    ] {
        t.add(counter, n);
    }
    for w in 0..17 {
        t.packet_processed(w, w % 4 == 0);
    }
    t.add_on(1, Counter::PacketsDropped, 18);
    t.queue_depth_sample(23);
    t.queue_depth_sample(9);
    t.set_slo_last_p99_us(4095);
    t.set_slo_last_p99_us(29);
    for wall in [1, 2, 300, 300, 9000] {
        t.serve_latency(us(wall));
    }
    t.engine_job(0, us(32));
    t.engine_job(2, us(33));
    t.journal_fsync(us(35));
    t.journal_fsync(us(360));
    let mut snap = t.snapshot();
    snap.elapsed = Duration::ZERO;
    let json = snap.to_json();
    assert_eq!(json, TELEMETRY_JSON, "\n{json}");
}
