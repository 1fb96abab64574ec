//! Workspace smoke test: the exact quickstart path promised by the
//! `src/lib.rs` doctest — build the paper's Server A, submit the WordCount
//! topology, and get back an optimized plan with positive predicted
//! throughput. If this breaks, the README's first code sample is lying.
//! Also runs the quickstart pipeline once on this host's engine.

use briskstream::apps::word_count;
use briskstream::core::BriskStream;
use briskstream::numa::Machine;
use briskstream::rlas::ScalingOptions;
use briskstream::runtime::EngineConfig;
use std::time::Duration;

#[test]
fn quickstart_path_produces_positive_plan() {
    let machine = Machine::server_a();
    let app = word_count::topology();
    let mut system = BriskStream::new(machine);
    let report = system.submit(&app).expect("plan found");

    assert!(
        report.plan.total_replicas() >= app.operator_count(),
        "every operator needs at least one replica: {} replicas for {} operators",
        report.plan.total_replicas(),
        app.operator_count()
    );
    assert!(
        report.predicted_throughput > 0.0,
        "predicted throughput must be positive, got {}",
        report.predicted_throughput
    );
    assert!(
        report.predicted_throughput.is_finite(),
        "predicted throughput must be finite, got {}",
        report.predicted_throughput
    );
    assert!(
        report.plan.placement.is_complete(),
        "submit must return a fully placed plan"
    );
}

#[test]
fn quickstart_is_deterministic() {
    let report_a = BriskStream::new(Machine::server_a())
        .submit(&word_count::topology())
        .expect("plan found");
    let report_b = BriskStream::new(Machine::server_a())
        .submit(&word_count::topology())
        .expect("plan found");
    assert_eq!(
        report_a.predicted_throughput, report_b.predicted_throughput,
        "submitting the same app to the same machine must be deterministic"
    );
    assert_eq!(
        report_a.plan.replication, report_b.plan.replication,
        "replication decisions must be deterministic"
    );
}

#[test]
fn quickstart_pipeline_runs_on_this_host() {
    let mut system = BriskStream::with_options(
        Machine::server_a().restrict_sockets(1),
        ScalingOptions {
            compress_ratio: 1,
            max_total_replicas: Some(6),
            ..ScalingOptions::default()
        },
    );
    let topology = word_count::topology();
    let report = system.submit(&topology).expect("feasible plan");
    let run = system
        .execute(
            word_count::app(),
            &report.plan,
            EngineConfig::default(),
            Duration::from_millis(250),
        )
        .expect("engine runs");
    assert!(
        run.sink_events > 100,
        "only {} events reached the sink",
        run.sink_events
    );
    assert!(run.latency_ns.count() > 0, "no latency samples recorded");
}
