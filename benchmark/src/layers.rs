//! The per-layer metrics of a traced run: every layer timed from outside,
//! through its public functions, plus counters read off the run reports.
//!
//! Micro-rungs loop for [`RUNG_MIN`] each; the engine-level rungs (no-op
//! chains, single-worker baseline) are short engine runs of their own.

use crate::estimator::{cv, hist_percentile, median, quiet_high, stall_windows};
use crate::host::{self, Usage};
use crate::load::HIST_GROWTH;
use crate::run::{
    engine_config, run_machine, saturated_phase, Metric, PaperPlan, Phase, RunOptions, Setup,
};
use crate::trace::Tracer;
use crate::workload::Workload;
use brisk_dag::{
    CostProfile, ExecutionGraph, FusionPlan, LogicalTopology, OperatorId, OperatorKind,
    TopologyBuilder, VertexId,
};
use brisk_metrics::Histogram;
use brisk_model::{predict_for_plan, Evaluator};
use brisk_numa::SocketId;
use brisk_rlas::{optimize_placement, place_with_strategy, PlacementOptions, PlacementStrategy};
use brisk_runtime::{
    plan_replica_sockets, AppRuntime, Batch, BatchBuilder, Collector, DynBolt, DynSpout, Engine,
    EngineConfig, JumboTuple, QueueKind, ReplicaQueue, RunLimit, Scheduler, SlabPool, SpoutStatus,
    TupleView,
};
use brisk_sim::{SimConfig, Simulator};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Least time each micro-rung loops for.
pub const RUNG_MIN: Duration = Duration::from_millis(250);
/// Windows of the single-worker baseline run.
const BASELINE_WINDOWS: usize = 6;
/// A paced window whose p99 exceeds this multiple of the median window's
/// was hit by a host stall.
const STALL_FACTOR: f64 = 3.0;

/// Call `f` in growing batches for at least [`RUNG_MIN`] under a span named
/// `name`; mean nanoseconds per call.
fn time_loop(tracer: &Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let _s = tracer.enter(name);
    let began = Instant::now();
    let (mut calls, mut batch) = (0u64, 1u64);
    while began.elapsed() < RUNG_MIN {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        batch = (batch * 2).min(1 << 16);
    }
    began.elapsed().as_nanos() as f64 / calls as f64
}

const JUMBO: usize = 64;

fn jumbo() -> JumboTuple {
    JumboTuple::new(0, 0, Batch::from_rows((0..JUMBO as u64).map(|i| (i, i, i))))
}

/// One 64-tuple jumbo pushed onto and popped off a ring, same thread.
fn ring_crossing_ns(tracer: &Tracer, name: &'static str, kind: QueueKind) -> f64 {
    let queue: ReplicaQueue<JumboTuple> = ReplicaQueue::new(kind, 64);
    let mut slot = Some(jumbo());
    time_loop(tracer, name, || {
        if queue.try_push(slot.take().expect("jumbo in hand")).is_err() {
            panic!("an empty ring refused a push");
        }
        slot = queue.try_pop();
    })
}

/// Push 64 `u64` tuples into a builder and seal; per tuple. The sealed
/// batch drops at once, so its slab recycles through the pool as in the
/// engine's steady state.
fn batch_seal_ns_per_tuple(tracer: &Tracer) -> f64 {
    let mut builder = BatchBuilder::new(SlabPool::standalone());
    time_loop(tracer, "runtime.batch_seal", || {
        for i in 0..JUMBO as u64 {
            let sealed = builder.push(i, i, i);
            debug_assert!(sealed.is_none());
        }
        black_box(builder.seal());
    }) / JUMBO as f64
}

fn noop_topology() -> LogicalTopology {
    let mut b = TopologyBuilder::new("noop_chain");
    let s = b.add_spout("src", CostProfile::trivial());
    let r1 = b.add_bolt("relay1", CostProfile::trivial());
    let r2 = b.add_bolt("relay2", CostProfile::trivial());
    let k = b.add_sink("out", CostProfile::trivial());
    b.connect_shuffle(s, r1);
    b.connect_shuffle(r1, r2);
    b.connect_shuffle(r2, k);
    b.build().expect("the no-op chain is a valid topology")
}

struct Counter(u64);
impl DynSpout for Counter {
    fn next(&mut self, c: &mut Collector) -> SpoutStatus {
        self.0 += 1;
        c.send_default(self.0, 0, self.0);
        SpoutStatus::Emitted(1)
    }
}
struct Relay;
impl DynBolt for Relay {
    fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
        if let Some(v) = t.value::<u64>() {
            c.send_default(*v, t.event_ns, t.key);
        }
    }
}
struct Discard;
impl DynBolt for Discard {
    fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
}

fn noop_app() -> AppRuntime {
    let t = noop_topology();
    let id = |n: &str| t.find(n).expect("operator exists");
    let (s, r1, r2, k) = (id("src"), id("relay1"), id("relay2"), id("out"));
    AppRuntime::new(t)
        .spout(s, |_| Counter(0))
        .bolt(r1, |_| Relay)
        .bolt(r2, |_| Relay)
        .sink(k, |_| Discard)
}

/// One `send` through a capture collector (jumbo size 1 — the only
/// collector that can be built from outside the engine) and the pop that
/// empties its tap; per tuple.
fn collector_send_ns_per_tuple(tracer: &Tracer) -> f64 {
    let topology = noop_topology();
    let src = topology.find("src").expect("operator exists");
    let (mut collector, taps) = Collector::capture(&topology, src, 64);
    time_loop(tracer, "runtime.collector_send", || {
        collector.send_default(1u64, 0, 1);
        black_box(taps[0].1.try_pop());
    })
}

/// One read of the engine clock, as the sink makes it.
fn clock_read_ns(tracer: &Tracer) -> f64 {
    let topology = noop_topology();
    let src = topology.find("src").expect("operator exists");
    let (collector, _taps) = Collector::capture(&topology, src, 1);
    time_loop(tracer, "bench.clock_read", || {
        black_box(collector.now_ns());
    })
}

/// spout → relay → relay → sink over `u64`s, every operator a no-op:
/// process CPU nanoseconds per sink tuple, so that what is left is
/// dispatch, seal and — with fusion off — three queue crossings.
fn noop_chain_ns_per_tuple(tracer: &Tracer, name: &'static str, fusion: bool) -> f64 {
    let _s = tracer.enter(name);
    let config = EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers: 0 })
        .fusion(fusion)
        .build();
    let engine = Engine::new(noop_app(), vec![1; 4], config).expect("the no-op chain runs");
    let handle = engine.start(RunLimit::Duration(Duration::from_secs(3600)));
    std::thread::sleep(Duration::from_millis(200));
    let (cpu0, events0) = (Usage::now(), handle.sink_events());
    std::thread::sleep(Duration::from_millis(1000));
    let (cpu1, events1) = (Usage::now(), handle.sink_events());
    handle.request_stop();
    handle.join();
    cpu1.since(&cpu0).cpu_ns as f64 / (events1 - events0) as f64
}

/// Deliveries to `op` per input event in `phase` (1 for the spout).
fn visits(phase: &Phase, topology: &LogicalTopology, op: OperatorId) -> f64 {
    match topology.operator(op).kind {
        OperatorKind::Spout => 1.0,
        _ => phase.report.operator(op.0).processed as f64 / phase.tally.emitted as f64,
    }
}

/// Compute every per-layer metric of `BENCHMARK.json`.
#[allow(clippy::too_many_arguments)]
pub fn per_layer(
    w: &Workload,
    opts: &RunOptions,
    setup: &Setup,
    paper: &PaperPlan,
    sat: &Phase,
    paced: &Phase,
    throughput: f64,
    p99_windows: &[f64],
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let machine = &paper.machine;
    let topology = &paper.topology;
    let big = &paper.plan.plan;
    let run_plan = &setup.plan;
    let run_machine = run_machine();

    // numa
    let sockets = machine.sockets();
    let mut acc = 0.0;
    let sweep = time_loop(tracer, "numa.latency_ns", || {
        for i in 0..sockets {
            for j in 0..sockets {
                acc += machine.latency_ns(SocketId(i), SocketId(j));
            }
        }
    });
    black_box(acc);
    m.push(Metric::new(
        "numa.latency_lookup_ns",
        sweep / (sockets * sockets) as f64,
        "ns",
    ));

    // dag
    let graph = ExecutionGraph::new(topology, &big.replication, big.compress_ratio);
    let big_sockets = plan_replica_sockets(topology, big);
    m.push(Metric::new(
        "dag.graph_build_us",
        time_loop(tracer, "dag.ExecutionGraph::new", || {
            black_box(ExecutionGraph::new(
                topology,
                &big.replication,
                big.compress_ratio,
            ));
        }) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "dag.fusion_compute_us",
        time_loop(tracer, "dag.FusionPlan::compute", || {
            black_box(FusionPlan::compute(
                topology,
                &big.replication,
                Some(&big_sockets),
            ));
        }) / 1e3,
        "us",
    ));
    let run_sockets = plan_replica_sockets(topology, run_plan);
    let run_fusion = FusionPlan::compute(topology, &run_plan.replication, Some(&run_sockets));
    m.push(Metric::new(
        "dag.fused_edges",
        run_fusion.fused_edge_count() as f64,
        "count",
    ));
    m.push(Metric::new(
        "dag.spawned_executors",
        run_fusion.spawned_executors(&run_plan.replication) as f64,
        "count",
    ));

    // model
    let scorer = Evaluator::saturated(machine).fused_engine();
    m.push(Metric::new(
        "model.evaluate_us",
        time_loop(tracer, "model.Evaluator::evaluate", || {
            black_box(scorer.evaluate(&graph, &big.placement));
        }) / 1e3,
        "us",
    ));
    // The bound is taken where B&B takes it: on a partial placement.
    let mut half = big.placement.clone();
    for v in graph.vertex_count() / 2..graph.vertex_count() {
        half.unplace(VertexId(v));
    }
    let bounder = Evaluator::saturated(machine).bounding();
    m.push(Metric::new(
        "model.bound_us",
        time_loop(tracer, "model.Evaluator::bound", || {
            black_box(bounder.bound(&graph, &half));
        }) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "model.predict_us",
        time_loop(tracer, "model.predict_for_plan", || {
            black_box(predict_for_plan(machine, topology, big));
        }) / 1e3,
        "us",
    ));
    // Prediction for the plan that actually ran, from this host's profile.
    let predicted = predict_for_plan(&run_machine, &setup.topology, run_plan);
    m.push(Metric::new(
        "model.accuracy_ratio",
        throughput / predicted.throughput,
        "ratio",
    ));
    let model_bottleneck = predicted
        .evaluation
        .operator_pressure
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(op, _)| run_fusion.root_host_of(OperatorId(op)));
    let engine_bottleneck = sat
        .report
        .replica_rates()
        .iter()
        .max_by_key(|r| r.busy_ns)
        .map(|r| run_fusion.root_host_of(OperatorId(r.op)));
    m.push(Metric::new(
        "model.bottleneck_match",
        f64::from(u8::from(model_bottleneck == engine_bottleneck)),
        "count",
    ));

    // rlas
    let nodes = paper.plan.explored_nodes as f64;
    m.push(Metric::new("rlas.plan_nodes", nodes, "count"));
    m.push(Metric::new(
        "rlas.plan_iterations",
        paper.plan.iterations as f64,
        "count",
    ));
    m.push(Metric::new("rlas.nodes_per_s", nodes / paper.call_s, "1/s"));
    let placement_options = PlacementOptions {
        max_executors: Some(machine.total_cores()),
        ..PlacementOptions::default()
    };
    let searcher = Evaluator::saturated(machine);
    m.push(Metric::new(
        "rlas.placement_ms",
        time_loop(tracer, "rlas.optimize_placement", || {
            black_box(optimize_placement(&searcher, &graph, &placement_options));
        }) / 1e6,
        "ms",
    ));
    m.push(Metric::new(
        "rlas.run_plan_ms",
        tracer.mean_ms("rlas.optimize_run_plan"),
        "ms",
    ));
    m.push(Metric::new(
        "rlas.plan_replicas",
        big.total_replicas() as f64,
        "count",
    ));
    let round_robin = place_with_strategy(&graph, machine, PlacementStrategy::RoundRobin);
    m.push(Metric::new(
        "rlas.predicted_gain_over_rr",
        paper.plan.throughput / scorer.evaluate(&graph, &round_robin).throughput,
        "ratio",
    ));

    // core
    m.push(Metric::new(
        "core.profile_ms",
        tracer.mean_ms("core.live_profile"),
        "ms",
    ));
    m.push(Metric::new(
        "core.instantiate_us",
        tracer.mean_ms("core.instantiate") * 1e3,
        "us",
    ));

    // apps
    let mut generated = 0u64;
    let gen_ns = {
        let _s = tracer.enter("apps.generators");
        let began = Instant::now();
        while began.elapsed() < RUNG_MIN {
            black_box((w.generate)(opts.seed, 10_000));
            generated += 10_000;
        }
        began.elapsed().as_nanos() as f64 / generated as f64
    };
    m.push(Metric::new("apps.gen_ns_per_event", gen_ns, "ns"));
    let body_per_input: f64 = topology
        .operators()
        .map(|(op, _)| setup.body_ns[op.0] * visits(sat, topology, op))
        .sum();
    m.push(Metric::new("apps.body_ns_per_input", body_per_input, "ns"));
    m.push(Metric::new(
        "apps.heaviest_body_ns",
        setup.body_ns.iter().copied().fold(0.0, f64::max),
        "ns",
    ));
    m.push(Metric::new(
        "apps.sink_per_input",
        sat.tally.sink.count as f64 / sat.tally.emitted as f64,
        "ratio",
    ));

    // runtime: micro-rungs
    let single = QueueKind::default();
    m.push(Metric::new(
        "runtime.ring_xing_ns",
        ring_crossing_ns(tracer, "runtime.ring_xing", single),
        "ns",
    ));
    m.push(Metric::new(
        "runtime.ring_xing_mp_ns",
        ring_crossing_ns(tracer, "runtime.ring_xing_mp", single.for_producers(2)),
        "ns",
    ));
    m.push(Metric::new(
        "runtime.batch_seal_ns_per_tuple",
        batch_seal_ns_per_tuple(tracer),
        "ns",
    ));
    m.push(Metric::new(
        "runtime.collector_send_ns_per_tuple",
        collector_send_ns_per_tuple(tracer),
        "ns",
    ));
    let queued_chain = noop_chain_ns_per_tuple(tracer, "runtime.noop_chain", false);
    let fused_chain = noop_chain_ns_per_tuple(tracer, "runtime.noop_fused", true);
    m.push(Metric::new(
        "runtime.noop_chain_ns_per_tuple",
        queued_chain,
        "ns",
    ));
    m.push(Metric::new(
        "runtime.noop_fused_ns_per_tuple",
        fused_chain,
        "ns",
    ));

    // runtime: lifecycle
    m.push(Metric::new(
        "runtime.wire_ms",
        tracer.mean_ms("runtime.with_plan") + tracer.mean_ms("runtime.start"),
        "ms",
    ));
    m.push(Metric::new(
        "runtime.first_event_ms",
        setup.first_event_ms,
        "ms",
    ));
    m.push(Metric::new("runtime.drain_ms", setup.drain_ms, "ms"));

    // runtime: saturated phase
    let ops = sat.report.per_operator();
    let pushes: u64 = ops.iter().map(|o| o.queue_pushes).sum();
    let queue_full: u64 = ops.iter().map(|o| o.queue_full_events).sum();
    let queued_tuples: u64 = topology
        .operators()
        .filter(|(op, spec)| spec.kind != OperatorKind::Spout && !run_fusion.is_fused_away(*op))
        .map(|(op, _)| ops[op.0].processed)
        .sum();
    let sink_events = sat.report.sink_events as f64;
    m.push(Metric::new(
        "runtime.pushes_per_kevent",
        pushes as f64 / (sink_events / 1e3),
        "count",
    ));
    m.push(Metric::new(
        "runtime.tuples_per_push",
        queued_tuples as f64 / pushes as f64,
        "count",
    ));
    m.push(Metric::new(
        "runtime.queue_full_per_kpush",
        queue_full as f64 / (pushes as f64 / 1e3),
        "count",
    ));
    m.push(Metric::new(
        "runtime.slab_recycle_ratio",
        sat.report.slab_recycled as f64
            / (sat.report.slab_recycled + sat.report.slab_allocs) as f64,
        "ratio",
    ));
    let rates = sat.report.replica_rates();
    let elapsed_ns = sat.report.elapsed.as_nanos() as f64;
    m.push(Metric::new(
        "runtime.busy_share",
        rates.iter().map(|r| r.busy_ns).sum::<u64>() as f64 / (elapsed_ns * host::nproc() as f64),
        "ratio",
    ));
    m.push(Metric::new(
        "runtime.bottleneck_busy_share",
        rates.iter().map(|r| r.busy_ns).max().unwrap_or(0) as f64 / elapsed_ns,
        "ratio",
    ));
    m.push(Metric::new("runtime.cpu_util_sat", sat.cpu_util(), "ratio"));
    m.push(Metric::new(
        "runtime.ctx_switch_per_kevent_sat",
        sat.ctx_per_kevent(),
        "count",
    ));
    m.push(Metric::new(
        "runtime.throughput_mean_eps",
        sat.events as f64 / sat.wall_s,
        "1/s",
    ));
    m.push(Metric::new(
        "runtime.throughput_cv",
        cv(&sat.rates),
        "ratio",
    ));
    // The single-threaded baseline of the same job: one worker, one replica
    // of everything.
    let baseline = saturated_phase(
        w,
        |app| {
            let ones = vec![1usize; app.topology.operator_count()];
            Engine::new(app, ones, engine_config(1)).expect("the all-ones plan is executable")
        },
        opts.seed,
        BASELINE_WINDOWS,
        tracer,
        false,
        problems,
    );
    let baseline_eps = quiet_high(&baseline.rates);
    m.push(Metric::new("runtime.baseline_1t_eps", baseline_eps, "1/s"));
    m.push(Metric::new(
        "runtime.speedup_over_1t",
        throughput / baseline_eps,
        "ratio",
    ));

    // runtime: paced phase
    m.push(Metric::new(
        "runtime.cpu_util_paced",
        paced.cpu_util(),
        "ratio",
    ));
    m.push(Metric::new(
        "runtime.ctx_switch_per_kevent_paced",
        paced.ctx_per_kevent(),
        "count",
    ));
    m.push(Metric::new(
        "runtime.gen_late_p50_us",
        hist_percentile(&paced.tally.late, 50.0) / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "runtime.gen_late_p99_us",
        hist_percentile(&paced.tally.late, 99.0) / 1e3,
        "us",
    ));
    let mut all = Histogram::with_growth(HIST_GROWTH);
    for h in &paced.tally.by_window {
        all.merge(h);
    }
    m.push(Metric::new(
        "runtime.latency_mean_us",
        all.mean() / 1e3,
        "us",
    ));
    m.push(Metric::new(
        "runtime.latency_stall_windows",
        stall_windows(p99_windows, STALL_FACTOR) as f64,
        "count",
    ));

    // runtime: failures
    m.push(Metric::new(
        "runtime.faults",
        (sat.tally.faults + paced.tally.faults) as f64,
        "count",
    ));
    m.push(Metric::new(
        "runtime.quarantined",
        (sat.tally.quarantined + paced.tally.quarantined) as f64,
        "count",
    ));

    // metrics
    let mut hist = Histogram::with_growth(HIST_GROWTH);
    let mut v = 1.0f64;
    m.push(Metric::new(
        "metrics.hist_record_ns",
        time_loop(tracer, "metrics.Histogram::record", || {
            // Sweep 1 µs … 1 s so that the buckets touched vary.
            v = if v > 1e9 { 1e3 } else { v * 1.37 };
            hist.record(v);
        }),
        "ns",
    ));
    m.push(Metric::new(
        "metrics.hist_merge_us",
        time_loop(tracer, "metrics.Histogram::merge", || {
            let mut into = Histogram::with_growth(HIST_GROWTH);
            into.merge(&hist);
            black_box(into);
        }) / 1e3,
        "us",
    ));

    // sim: the run plan on the simulator against the model's number for it.
    let run_graph = ExecutionGraph::new(
        &setup.topology,
        &run_plan.replication,
        run_plan.compress_ratio,
    );
    let mut simulated = 0.0;
    let sim_ns = time_loop(tracer, "sim.Simulator::run", || {
        let config = SimConfig {
            fusion: true,
            ..SimConfig::default()
        };
        simulated = Simulator::new(&run_machine, &run_graph, &run_plan.placement, config)
            .expect("the run plan is complete")
            .run()
            .throughput;
    });
    m.push(Metric::new("sim.run_ms", sim_ns / 1e6, "ms"));
    m.push(Metric::new(
        "sim.over_model_ratio",
        simulated / predicted.throughput,
        "ratio",
    ));

    // bench: the harness's own cost, and whether the rungs add up.
    // Spans were recorded in the even windows only: each odd window over the
    // even one before it compares untraced with traced a second apart.
    let pairs: Vec<f64> = sat.rates.chunks_exact(2).map(|p| p[1] / p[0]).collect();
    m.push(Metric::new(
        "bench.trace_overhead_ratio",
        median(&pairs),
        "ratio",
    ));
    m.push(Metric::new(
        "bench.sink_clock_ns_per_event",
        clock_read_ns(tracer) * paced.tally.clock_reads as f64 / paced.tally.sink.count as f64,
        "ns",
    ));
    // Per input event of the single-threaded baseline: the profiled bodies,
    // plus one hop per delivery — a fused hop where the all-ones plan fuses
    // the consumer into its producer, a queued hop where it cannot. A hop
    // is a third of a three-edge no-op chain.
    let ones = vec![1usize; topology.operator_count()];
    let base_fusion = FusionPlan::compute(topology, &ones, None);
    let explained: f64 = topology
        .operators()
        .map(|(op, spec)| {
            let hop = match spec.kind {
                OperatorKind::Spout => 0.0,
                _ if base_fusion.is_fused_away(op) => fused_chain / 3.0,
                _ => queued_chain / 3.0,
            };
            (setup.body_ns[op.0] + hop) * visits(&baseline, topology, op)
        })
        .sum();
    let baseline_input_eps =
        baseline_eps * baseline.tally.emitted as f64 / baseline.tally.sink.count as f64;
    m.push(Metric::new(
        "bench.ladder_explained_share",
        explained / (1e9 / baseline_input_eps),
        "ratio",
    ));
    m
}
