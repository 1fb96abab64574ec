//! The benchmark's contract: workloads, metrics, units, directions, bounds.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`benchmark -- --emit-spec`) and a test pins the committed file to them,
//! so what the driver is told and what the program prints cannot drift.

use crate::workload;

/// Measured seconds of one run (`run_seconds`), split between the phases.
pub const RUN_SECONDS: u64 = 20;

/// `(name, unit, better, bound)` of every end-to-end metric. A bound is the
/// share of the parent's median a metric may worsen by: three times the
/// widest spread between quartiles seen on any workload over ten seeds
/// (`NOISE.md`), rounded up to a twentieth and capped at the quarter the
/// driver allows.
pub const END_TO_END: [(&str, &str, &str, f64); 8] = [
    ("throughput_eps", "1/s", "higher", 0.25),
    ("latency_p50_us", "us", "lower", 0.25),
    ("latency_p99_us", "us", "lower", 0.25),
    ("cpu_ns_per_event", "ns", "lower", 0.25),
    ("plan_time_s", "s", "lower", 0.25),
    ("plan_predicted_eps", "1/s", "higher", 0.01),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
];

/// `(name, unit, better)` of every per-layer metric, in reporting order.
pub const PER_LAYER: [(&str, &str, &str); 59] = [
    ("numa.latency_lookup_ns", "ns", "lower"),
    ("dag.graph_build_us", "us", "lower"),
    ("dag.fusion_compute_us", "us", "lower"),
    ("dag.fused_edges", "count", "higher"),
    ("dag.spawned_executors", "count", "lower"),
    ("model.evaluate_us", "us", "lower"),
    ("model.bound_us", "us", "lower"),
    ("model.predict_us", "us", "lower"),
    ("model.accuracy_ratio", "ratio", "higher"),
    ("model.bottleneck_match", "count", "higher"),
    ("rlas.plan_nodes", "count", "lower"),
    ("rlas.plan_iterations", "count", "lower"),
    ("rlas.nodes_per_s", "1/s", "higher"),
    ("rlas.placement_ms", "ms", "lower"),
    ("rlas.run_plan_ms", "ms", "lower"),
    ("rlas.plan_replicas", "count", "higher"),
    ("rlas.predicted_gain_over_rr", "ratio", "higher"),
    ("core.profile_ms", "ms", "lower"),
    ("core.instantiate_us", "us", "lower"),
    ("apps.gen_ns_per_event", "ns", "lower"),
    ("apps.body_ns_per_input", "ns", "lower"),
    ("apps.heaviest_body_ns", "ns", "lower"),
    ("apps.sink_per_input", "ratio", "higher"),
    ("runtime.ring_xing_ns", "ns", "lower"),
    ("runtime.ring_xing_mp_ns", "ns", "lower"),
    ("runtime.batch_seal_ns_per_tuple", "ns", "lower"),
    ("runtime.collector_send_ns_per_tuple", "ns", "lower"),
    ("runtime.noop_chain_ns_per_tuple", "ns", "lower"),
    ("runtime.noop_fused_ns_per_tuple", "ns", "lower"),
    ("runtime.wire_ms", "ms", "lower"),
    ("runtime.first_event_ms", "ms", "lower"),
    ("runtime.drain_ms", "ms", "lower"),
    ("runtime.pushes_per_kevent", "count", "lower"),
    ("runtime.tuples_per_push", "count", "higher"),
    ("runtime.queue_full_per_kpush", "count", "lower"),
    ("runtime.slab_recycle_ratio", "ratio", "higher"),
    ("runtime.busy_share", "ratio", "higher"),
    ("runtime.bottleneck_busy_share", "ratio", "higher"),
    ("runtime.cpu_util_sat", "ratio", "higher"),
    ("runtime.ctx_switch_per_kevent_sat", "count", "lower"),
    ("runtime.throughput_mean_eps", "1/s", "higher"),
    ("runtime.throughput_cv", "ratio", "lower"),
    ("runtime.baseline_1t_eps", "1/s", "higher"),
    ("runtime.speedup_over_1t", "ratio", "higher"),
    ("runtime.cpu_util_paced", "ratio", "lower"),
    ("runtime.ctx_switch_per_kevent_paced", "count", "lower"),
    ("runtime.gen_late_p50_us", "us", "lower"),
    ("runtime.gen_late_p99_us", "us", "lower"),
    ("runtime.latency_mean_us", "us", "lower"),
    ("runtime.latency_stall_windows", "count", "lower"),
    ("runtime.faults", "count", "lower"),
    ("runtime.quarantined", "count", "lower"),
    ("metrics.hist_record_ns", "ns", "lower"),
    ("metrics.hist_merge_us", "us", "lower"),
    ("sim.run_ms", "ms", "lower"),
    ("sim.over_model_ratio", "ratio", "higher"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("bench.sink_clock_ns_per_event", "ns", "lower"),
    ("bench.ladder_explained_share", "ratio", "higher"),
];

/// `BENCHMARK.json`, generated.
pub fn benchmark_json() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|(name, unit, better, bound)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, better)| {
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&command),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
