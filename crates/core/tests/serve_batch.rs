//! Serve's default path against pinned rows and against the batch
//! runner.
//!
//! `run_serve` and `ClumsyProcessor::run` execute the same differential
//! step: a fault-free golden pass and a measured pass per packet, the
//! outputs diffed, the dynamic controller ticked on the fault delta.
//! The first test pins serve's per-shard rows to values, so a refactor
//! of that step cannot move a digest unnoticed. The second shows that a
//! one-shard FIFO serve run which never sheds agrees with a watchdog
//! batch run over the same packets, verdict for verdict.

use cache_sim::{DetectionScheme, StrikePolicy};
use clumsy_core::{run_serve, ClumsyConfig, ClumsyProcessor, DynamicConfig, ServeConfig};
use fault_model::FaultProbabilityModel;
use netbench::{AppKind, PlaneMask, TraceConfig};
use std::time::Duration;

/// A FIFO serve config that never sheds: the queue holds the whole
/// budget and a full queue would wait five minutes before shedding.
fn fifo(app: AppKind, design: ClumsyConfig, shards: usize, budget: u64) -> ServeConfig {
    ServeConfig::new(app, design)
        .with_traffic(TraceConfig::small())
        .with_shards(shards)
        .with_queue_depth(budget as usize)
        .with_packet_budget(budget)
        .with_shed_timeout(Duration::from_secs(300))
}

/// The paper's protected design under a hot fault model: parity,
/// two-strike recovery and the dynamic clock, with faults frequent
/// enough to move every row.
fn hot_paper_design() -> ClumsyConfig {
    ClumsyConfig::baseline()
        .with_fault_model(FaultProbabilityModel::new(2e-6, 0.2))
        .with_detection(DetectionScheme::Parity)
        .with_strikes(StrikePolicy::two_strike())
        .with_dynamic(DynamicConfig::paper())
}

/// Per-shard rows of `run_serve`, one line per shard, recorded before
/// serve and batch shared their differential step.
const PINNED_ROWS: &str = "\
crc 1/0 processed=600 erroneous=1 dropped=0 injected=8 detected=7 cr=0.5 digest=c61641928b1aa88e
crc 2/0 processed=517 erroneous=1 dropped=0 injected=8 detected=7 cr=0.75 digest=0ad9312aa01a8cf4
crc 2/1 processed=83 erroneous=0 dropped=0 injected=0 detected=0 cr=1.0 digest=b5540328d385ac4b
md5 1/0 processed=600 erroneous=3 dropped=0 injected=17 detected=18 cr=0.75 digest=507253d4443c1924
md5 2/0 processed=517 erroneous=1 dropped=0 injected=18 detected=18 cr=0.75 digest=fc0997e3d54c0854
md5 2/1 processed=83 erroneous=0 dropped=0 injected=1 detected=1 cr=1.0 digest=b5540328d385ac4b
";

#[test]
fn serve_default_path_rows_are_pinned() {
    let mut rows = String::new();
    for app in [AppKind::Crc, AppKind::Md5] {
        for shards in [1, 2] {
            let cfg = fifo(app, hot_paper_design(), shards, 600);
            let report = run_serve(&cfg, None, &|| false);
            assert!(report.accounting_holds(), "{report:?}");
            assert_eq!(report.shed, 0);
            for s in &report.shards {
                rows.push_str(&format!(
                    "{app} {shards}/{} processed={} erroneous={} dropped={} \
                     injected={} detected={} cr={:?} digest={:016x}\n",
                    s.shard,
                    s.processed,
                    s.erroneous,
                    s.dropped,
                    s.faults_injected,
                    s.faults_detected,
                    s.final_cycle,
                    s.digest,
                ));
            }
        }
    }
    assert_eq!(rows, PINNED_ROWS, "\n{rows}");
}

#[test]
fn one_shard_fifo_serve_matches_the_watchdog_batch_run() {
    const N: u64 = 800;
    // No detection, so the controller watches injected faults; at this
    // rate every app below both corrupts and drops packets and moves
    // its clock off the safe level.
    let design = ClumsyConfig::baseline()
        .with_fault_model(FaultProbabilityModel::new(2e-5, 0.2))
        // Faults on the data plane only: serve publishes fault counts
        // from the end of setup, batch from the start, so with a clean
        // control plane both totals cover the same accesses.
        .with_planes(PlaneMask::data_only())
        .with_dynamic(DynamicConfig {
            epoch_packets: 50,
            ..DynamicConfig::paper()
        });
    for app in [AppKind::Route, AppKind::Nat, AppKind::Drr] {
        // One shard on round 0 draws exactly `design.seed`, and the
        // batch trace is the same context plus the same first N
        // packets of the stream.
        let cfg = fifo(app, design.clone(), 1, N);
        let served = run_serve(&cfg, None, &|| false);
        assert_eq!(served.shed, 0, "{app}");
        let shard = &served.shards[0];
        let trace = cfg.traffic.clone().with_packets(N as usize).generate();
        let batch = ClumsyProcessor::new(design.clone().with_watchdog()).run(app, &trace);
        assert!(batch.fatal.is_none(), "{app}: {:?}", batch.fatal);

        assert!(shard.erroneous > 0 && shard.dropped > 0, "{app}: {shard:?}");
        assert_eq!(shard.processed, batch.packets_completed as u64, "{app}");
        assert_eq!(shard.erroneous, batch.erroneous_packets as u64, "{app}");
        assert_eq!(shard.dropped, batch.dropped_packets as u64, "{app}");
        assert_eq!(shard.faults_injected, batch.stats.faults_injected, "{app}");
        assert_eq!(shard.faults_detected, batch.stats.faults_detected, "{app}");
        let (_, batch_cr) = *batch.freq_trace.last().expect("trace starts at Cr");
        assert!(batch_cr < 1.0, "{app}: the clock never moved");
        assert_eq!(shard.final_cycle.to_bits(), batch_cr.to_bits(), "{app}");
    }
}
