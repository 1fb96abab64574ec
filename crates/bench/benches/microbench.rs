//! Criterion micro-benchmarks for the hot paths of every subsystem:
//! queue operations, slab refill, model evaluation, B&B placement, simulation event
//! throughput and workload generation.

use brisk_apps::{generators::SentenceGenerator, linear_road, word_count};
use brisk_dag::{ExecutionGraph, Placement, VertexId};
use brisk_model::Evaluator;
use brisk_numa::{Machine, SocketId};
use brisk_rlas::{optimize_placement, PlacementOptions};
use brisk_runtime::{Batch, BatchBuilder, JumboTuple, QueueKind, ReplicaQueue, SlabPool};
use brisk_sim::{SimConfig, Simulator};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench_queue(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue");
    g.throughput(Throughput::Elements(1));
    g.bench_function("push_pop", |b| {
        let q: ReplicaQueue<u64> = ReplicaQueue::new(QueueKind::default(), 1024);
        let mut i = 0u64;
        b.iter(|| {
            q.try_push(i).expect("room");
            i += 1;
            std::hint::black_box(q.try_pop())
        });
    });
    g.bench_function("jumbo_push_pop_64", |b| {
        let q: ReplicaQueue<JumboTuple> = ReplicaQueue::new(QueueKind::default(), 64);
        // One shared slab, cloned per iteration: the queue moves a batch
        // handle, the payloads never move (the zero-copy fast path).
        let batch = Batch::from_rows((0..64).map(|i| (i as u64, 0, i as u64)));
        b.iter(|| {
            q.try_push(JumboTuple::new(0, 0, batch.clone()))
                .expect("room");
            std::hint::black_box(q.try_pop())
        });
    });
    g.finish();
}

/// The rung under `wc`'s data path: 64 eleven-byte `String`s sealed,
/// dropped and refilled through one pool, per tuple. `push_owned` is what
/// an operator pays emitting an owned payload (the value is allocated,
/// and the stale one in the recycled slot freed); `push_with` overwrites
/// the stale payload in place.
fn bench_slab_refill(c: &mut Criterion) {
    const WORD: &str = "elevenbytes";
    let mut g = c.benchmark_group("runtime/slab_refill_string");
    g.throughput(Throughput::Elements(64));
    g.bench_function("push_owned", |b| {
        let mut builder = BatchBuilder::new(SlabPool::standalone());
        b.iter(|| {
            for i in 0..64u64 {
                let _ = builder.push(std::hint::black_box(WORD).to_string(), i, i);
            }
            std::hint::black_box(builder.seal())
        });
    });
    g.bench_function("push_with", |b| {
        let mut builder = BatchBuilder::new(SlabPool::standalone());
        b.iter(|| {
            for i in 0..64u64 {
                let _ = builder.push_with(i, i, |slot: &mut String| {
                    slot.clear();
                    slot.push_str(std::hint::black_box(WORD));
                });
            }
            std::hint::black_box(builder.seal())
        });
    });
    g.finish();
}

fn bench_model(c: &mut Criterion) {
    let machine = Machine::server_a();
    let topology = word_count::topology();
    let graph = ExecutionGraph::new(&topology, &[4, 2, 13, 72, 8], 5);
    let placement = Placement::all_on(graph.vertex_count(), SocketId(0));
    let evaluator = Evaluator::saturated(&machine);
    c.bench_function("model/evaluate_wc_99_replicas", |b| {
        b.iter(|| std::hint::black_box(evaluator.evaluate(&graph, &placement).throughput));
    });
}

/// The replication the benchmark's paper-scale `lr` plan settles on
/// (Server B, compression 5: 16 vertices).
const LR_PAPER_REPLICATION: [usize; 12] = [1, 1, 1, 2, 1, 2, 2, 1, 25, 1, 1, 1];

/// The `plan_time_s` rung on `lr`, visible without the 46 s benchmark run:
/// one B&B bound on a half-placed node, three ways. The search pays the
/// third per child; `model.bound_us` of the benchmark times the first.
fn bench_bound(c: &mut Criterion) {
    let machine = Machine::server_b();
    let topology = linear_road::topology();
    let graph = ExecutionGraph::new(&topology, &LR_PAPER_REPLICATION, 5);
    let nv = graph.vertex_count();
    let mut half = Placement::empty(nv);
    for v in 0..nv / 2 {
        half.place(VertexId(v), SocketId(v % machine.sockets()));
    }
    let bounder = Evaluator::saturated(&machine).bounding();
    let model = bounder.prepare(&graph);
    let mut g = c.benchmark_group("model/bound_lr_server_b");
    g.bench_function("one_shot", |b| {
        b.iter(|| std::hint::black_box(bounder.bound(&graph, &half)));
    });
    g.bench_function("prepared_full_pass", |b| {
        let mut cursor = model.cursor(&bounder);
        b.iter(|| {
            cursor.load(&half);
            std::hint::black_box(cursor.bound())
        });
    });
    g.bench_function("cursor_place_bound_unplace", |b| {
        let mut cursor = model.cursor(&bounder);
        cursor.load(&half);
        cursor.bound();
        let next = VertexId(nv / 2);
        b.iter(|| {
            cursor.place(next, SocketId(1));
            let bound = cursor.bound();
            cursor.unplace(next);
            std::hint::black_box(bound)
        });
    });
    g.finish();
}

fn bench_placement(c: &mut Criterion) {
    let machine = Machine::server_a().restrict_sockets(2);
    let topology = word_count::topology();
    let graph = ExecutionGraph::new(&topology, &[2, 1, 4, 10, 2], 5);
    let evaluator = Evaluator::saturated(&machine);
    c.bench_function("rlas/bb_placement_wc_2_sockets", |b| {
        b.iter(|| {
            std::hint::black_box(
                optimize_placement(&evaluator, &graph, &PlacementOptions::default())
                    .expect("plan")
                    .throughput,
            )
        });
    });

    // What the benchmark's `rlas.placement_ms` times: one search of the
    // paper-scale `lr` shape (1 312 nodes).
    let machine = Machine::server_b();
    let topology = linear_road::topology();
    let graph = ExecutionGraph::new(&topology, &LR_PAPER_REPLICATION, 5);
    let evaluator = Evaluator::saturated(&machine);
    let options = PlacementOptions {
        max_executors: Some(machine.total_cores()),
        ..PlacementOptions::default()
    };
    c.bench_function("rlas/bb_placement_lr_server_b", |b| {
        b.iter(|| {
            std::hint::black_box(
                optimize_placement(&evaluator, &graph, &options)
                    .expect("plan")
                    .throughput,
            )
        });
    });
}

fn bench_sim(c: &mut Criterion) {
    let machine = Machine::server_a().restrict_sockets(1);
    let topology = word_count::topology();
    let graph = ExecutionGraph::new(&topology, &[1, 1, 4, 11, 1], 1);
    let placement = Placement::all_on(graph.vertex_count(), SocketId(0));
    let config = SimConfig {
        horizon_ns: 10_000_000,
        warmup_ns: 2_000_000,
        noise_sigma: 0.05,
        ..SimConfig::default()
    };
    c.bench_function("sim/wc_10ms_virtual", |b| {
        b.iter(|| {
            let report = Simulator::new(&machine, &graph, &placement, config.clone())
                .expect("valid")
                .run();
            std::hint::black_box(report.sink_events)
        });
    });
}

fn bench_generators(c: &mut Criterion) {
    let mut g = c.benchmark_group("generators");
    g.throughput(Throughput::Elements(1));
    g.bench_function("sentence", |b| {
        let mut gen = SentenceGenerator::new(7, 1000, 10);
        b.iter(|| std::hint::black_box(gen.next_sentence()));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_queue,
    bench_slab_refill,
    bench_model,
    bench_bound,
    bench_placement,
    bench_sim,
    bench_generators
);
criterion_main!(benches);
