//! Serve's reports against its telemetry, field by field.
//!
//! Every `ServeReport`, `ShardReport`, `ClassReport` and
//! `OverloadReport` field that has a telemetry `Counter` row must equal
//! that counter in a fresh `Telemetry` the run was given. The reports
//! and the metrics JSON are two readings of one set of serve events, so
//! any packet counted in one and not the other is a bookkeeping bug.
//! Each run covers a different path: the default FIFO pump, every
//! overload and class feature at once, a caught shard panic, and a
//! design point whose control plane needs reseeded set-up retries.

use clumsy_core::{
    run_serve, ClumsyConfig, MetricsSnapshot, RebalanceConfig, ServeConfig, ServeReport,
    ShardReport, ShedPolicy, Telemetry,
};
use netbench::{AppKind, TraceConfig, TrafficPattern, TrafficSource};
use std::time::Duration;

/// A crc serve config on small traffic that never sheds on scheduler
/// jitter (a full queue would wait five minutes).
fn base(shards: usize, budget: u64) -> ServeConfig {
    ServeConfig::new(AppKind::Crc, ClumsyConfig::baseline())
        .with_traffic(TraceConfig::small())
        .with_shards(shards)
        .with_queue_depth(64)
        .with_packet_budget(budget)
        .with_shed_timeout(Duration::from_secs(300))
}

/// Runs `cfg` against a fresh telemetry block with one counter shard
/// per serve shard, checks the accounting identity, and returns the
/// report with the telemetry snapshot taken after the run.
fn run(cfg: &ServeConfig) -> (ServeReport, MetricsSnapshot) {
    let t = Telemetry::with_shards(cfg.shards);
    let report = run_serve(cfg, Some(&t), &|| false);
    assert!(report.accounting_holds(), "{report:?}");
    (report, t.snapshot())
}

/// Asserts that every report field backed by a counter equals it.
fn assert_reports_match_counters(report: &ServeReport, s: &MetricsSnapshot) {
    let sum = |f: fn(&ShardReport) -> u64| -> u64 { report.shards.iter().map(f).sum() };
    let pairs = [
        ("ingested", report.ingested, s.packets_ingested),
        ("shed", report.shed, s.packets_shed),
        ("processed", sum(|r| r.processed), s.packets_processed),
        ("erroneous", sum(|r| r.erroneous), s.packets_erroneous),
        ("dropped", sum(|r| r.dropped), s.packets_dropped),
        ("abandoned", sum(|r| r.abandoned), s.packets_abandoned),
        ("panics", sum(|r| r.panics), s.shard_panics),
        ("restarts", sum(|r| r.restarts), s.shard_restarts),
        (
            "setup_retries",
            sum(|r| r.setup_retries),
            s.shard_setup_retries,
        ),
        (
            "faults_injected",
            sum(|r| r.faults_injected),
            s.faults_injected,
        ),
        (
            "faults_detected",
            sum(|r| r.faults_detected),
            s.faults_detected,
        ),
        ("ways_disabled", sum(|r| r.ways_disabled), s.ways_disabled),
    ];
    for (name, field, counter) in pairs {
        assert_eq!(
            field, counter,
            "{name}: report {field} vs counter {counter}"
        );
    }
    if let Some(c) = &report.classes {
        let pairs = [
            ("control_shed", c.control_shed, s.packets_shed_control),
            ("data_shed", c.data_shed, s.packets_shed_data),
            ("preempt_shed", c.preempt_shed, s.packets_preempt_shed),
            (
                "slo_activations",
                c.slo_activations,
                s.slo_trigger_activations,
            ),
            ("slo_shed", c.slo_shed, s.packets_shed_slo),
            ("slo_last_p99_us", c.slo_last_p99_us, s.slo_last_p99_us),
        ];
        for (name, field, counter) in pairs {
            assert_eq!(field, counter, "{name}: {c:?}");
        }
    }
    if let Some(o) = &report.overload {
        let pairs = [
            ("shed_flow_cap", o.shed_flow_cap, s.packets_shed_flow_cap),
            (
                "drr_deficit_topups",
                o.drr_deficit_topups,
                s.drr_deficit_topups,
            ),
            ("flows_pinned", o.flows_pinned, s.flows_diverted),
            ("packets_diverted", o.packets_diverted, s.packets_diverted),
            (
                "pin_table_full",
                o.pin_table_full,
                s.rebalance_pin_table_full,
            ),
        ];
        for (name, field, counter) in pairs {
            assert_eq!(field, counter, "{name}: {o:?}");
        }
    }
}

#[test]
fn default_fifo_reports_equal_counters() {
    let (report, s) = run(&base(3, 400));
    assert!(report.overload.is_none() && report.classes.is_none());
    assert_eq!(report.processed(), 400);
    assert_reports_match_counters(&report, &s);
}

#[test]
fn every_policy_at_once_reports_equal_counters() {
    // Classes, an unmeetable SLO, a flow cap with DRR, the adaptive
    // deadline and rebalancing, all under one elephant: every class and
    // overload counter has something to count.
    let cfg = base(2, 1500)
        .with_queue_depth(16)
        .with_flow_queue_cap(3)
        .with_shed_policy(ShedPolicy::Adaptive)
        .with_rebalance(RebalanceConfig {
            window: 4,
            ..RebalanceConfig::default()
        })
        .with_control_flows(4)
        .with_slo_p99_us(1)
        .with_shed_timeout(Duration::from_millis(2))
        .with_traffic(TraceConfig::small().with_pattern(TrafficPattern::Elephant));
    let (report, s) = run(&cfg);
    let c = report.classes.as_ref().expect("class report");
    let o = report.overload.as_ref().expect("overload report");
    assert!(c.data_shed > 0 && c.slo_activations > 0, "{c:?}");
    assert!(o.shed_flow_cap > 0 && o.drr_deficit_topups > 0, "{o:?}");
    assert_reports_match_counters(&report, &s);
}

#[test]
fn caught_panic_reports_equal_counters() {
    let cfg = base(3, 400);
    let victim = TrafficSource::new(&cfg.traffic)
        .nth(200)
        .expect("stream is unbounded");
    let (report, s) = run(&cfg.with_panic_on_packet(victim.id));
    assert_eq!(report.restarts(), 1);
    assert_eq!(report.abandoned(), 1);
    assert_reports_match_counters(&report, &s);
}

#[test]
fn setup_retries_report_equal_counters() {
    // Route at 64 B with these traffic and fault seeds hits a
    // control-plane fatal on shard 0's first build, so the shard builds
    // again reseeded.
    let mut traffic = TraceConfig::paper().with_seed(0xFEF0_A176_2EAE_5F07);
    traffic.payload_min = 64;
    traffic.payload_max = 64;
    let cfg = ServeConfig::new(
        AppKind::Route,
        ClumsyConfig::baseline().with_seed(0x37DA_65D8_90E3_BE2C),
    )
    .with_traffic(traffic)
    .with_shards(2)
    .with_queue_depth(64)
    .with_packet_budget(600)
    .with_shed_timeout(Duration::from_secs(300));
    let (report, s) = run(&cfg);
    assert!(report.shards[0].setup_retries > 0, "{report:?}");
    assert_reports_match_counters(&report, &s);
}
