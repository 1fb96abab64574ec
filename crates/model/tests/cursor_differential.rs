//! Differential property test of the prepared model's [`Cursor`]: along a
//! random walk of `place`/`unplace` steps, everything the cursor reports is
//! bit-identical to a one-shot pass ([`Evaluator::evaluate`] /
//! [`Evaluator::bound`]: prepare, load, read) over the same placement — for
//! the B&B's three evaluator configurations and all three fetch policies,
//! on random topologies, replications and machines small enough that walks
//! oversubscribe sockets and split fusable pairs.
//!
//! The one-shot pass is itself pinned to the pre-refactor evaluator, bit for
//! bit, by `tests/planner_goldens.rs` at the workspace root. That root
//! package also compiles this file into its own `property_tests` target so
//! the tier-1 gate (`cargo test -q`) runs it.

use brisk_dag::{
    CostProfile, ExecutionGraph, FusionPlan, LogicalTopology, Partitioning, Placement,
    TopologyBuilder, VertexId,
};
use brisk_model::{Evaluation, Evaluator, Ingress, TfPolicy};
use brisk_numa::{Machine, MachineBuilder, SocketId};
use proptest::prelude::*;

const STREAMS: [&str; 2] = ["default", "alt"];

/// One incoming edge: producer, stream and partitioning selectors.
type Pick = (usize, usize, usize);

/// Raw material for one random topology; every index is reduced modulo
/// whatever it selects from.
#[derive(Debug, Clone)]
struct Shape {
    spouts: usize,
    bolts: usize,
    sinks: usize,
    /// Declare sinks before bolts, so operator ids are not a topological
    /// order.
    sinks_first: bool,
    /// Per operator: exec cycles, output bytes, state cycles selector.
    costs: Vec<(f64, f64, usize)>,
    /// Per non-spout operator, two (producer, stream, partitioning) picks;
    /// the second is used when the flag is set.
    wiring: Vec<(Pick, Pick, usize)>,
    /// Per operator: (input stream selector, output stream, ratio selector).
    selectivities: Vec<(usize, usize, usize)>,
    key_preserving: Vec<usize>,
}

fn arb_shape() -> impl Strategy<Value = Shape> {
    (
        (1usize..=2, 1usize..=4, 1usize..=2, 0usize..2),
        prop::collection::vec((20.0f64..3000.0, 8.0f64..300.0, 0usize..3), 8),
        prop::collection::vec(
            (
                (0usize..64, 0usize..2, 0usize..5),
                (0usize..64, 0usize..2, 0usize..5),
                0usize..2,
            ),
            8,
        ),
        prop::collection::vec((0usize..3, 0usize..2, 0usize..5), 8),
        prop::collection::vec(0usize..2, 8),
    )
        .prop_map(
            |(
                (spouts, bolts, sinks, sinks_first),
                costs,
                wiring,
                selectivities,
                key_preserving,
            )| {
                Shape {
                    spouts,
                    bolts,
                    sinks,
                    sinks_first: sinks_first == 1,
                    costs,
                    wiring,
                    selectivities,
                    key_preserving,
                }
            },
        )
}

fn partitioning(pick: usize) -> Partitioning {
    [
        Partitioning::Shuffle,
        Partitioning::KeyBy,
        Partitioning::Broadcast,
        Partitioning::Global,
        Partitioning::Forward,
    ][pick % 5]
}

/// Spouts, then bolts and sinks in layers: every non-spout draws its
/// producers from the spouts and the bolts before it.
fn build(shape: &Shape) -> LogicalTopology {
    let mut b = TopologyBuilder::new("walk");
    let cost = |i: usize| {
        let (exec, bytes, state) = shape.costs[i % shape.costs.len()];
        CostProfile::new(exec, 10.0, 16.0, bytes).with_state_access([0.0, 0.0, 150.0][state])
    };
    let mut next = 0;
    let mut add = |b: &mut TopologyBuilder, kind: usize| {
        let i = next;
        next += 1;
        match kind {
            0 => b.add_spout(format!("s{i}"), cost(i)),
            1 => b.add_bolt(format!("b{i}"), cost(i)),
            _ => b.add_sink(format!("k{i}"), cost(i)),
        }
    };
    let spouts: Vec<_> = (0..shape.spouts).map(|_| add(&mut b, 0)).collect();
    let (bolts, sinks): (Vec<_>, Vec<_>) = if shape.sinks_first {
        let sinks = (0..shape.sinks).map(|_| add(&mut b, 2)).collect();
        ((0..shape.bolts).map(|_| add(&mut b, 1)).collect(), sinks)
    } else {
        let bolts = (0..shape.bolts).map(|_| add(&mut b, 1)).collect();
        (bolts, (0..shape.sinks).map(|_| add(&mut b, 2)).collect())
    };

    let mut upstream = spouts.clone();
    for (n, &op) in bolts.iter().chain(&sinks).enumerate() {
        let ((p1, s1, part1), (p2, s2, part2), twice) = shape.wiring[n % shape.wiring.len()];
        let first = upstream[p1 % upstream.len()];
        b.connect(first, STREAMS[s1], op, partitioning(part1));
        let second = upstream[p2 % upstream.len()];
        if twice == 1 && (second != first || s2 != s1) {
            b.connect(second, STREAMS[s2], op, partitioning(part2));
        }
        if n < bolts.len() {
            upstream.push(op);
        }
    }
    for (n, &op) in spouts.iter().chain(&bolts).enumerate() {
        let (input, output, ratio) = shape.selectivities[n % shape.selectivities.len()];
        let input = [None, Some(STREAMS[0]), Some(STREAMS[1])][input];
        let ratio = [0.0, 0.5, 1.0, 1.0, 3.0][ratio];
        if input.is_none() || !spouts.contains(&op) {
            b.set_selectivity(op, input, STREAMS[output], ratio);
        }
        if shape.key_preserving[n % shape.key_preserving.len()] == 1 {
            b.set_key_preserving(op);
        }
    }
    b.build().expect("layered wiring is a valid topology")
}

fn machine(sockets: usize, cores: usize) -> Machine {
    MachineBuilder::new("walk")
        .sockets(sockets)
        .tray_size(2)
        .cores_per_socket(cores)
        .clock_ghz(1.2)
        .local_latency_ns(50.0)
        .one_hop_latency_ns(260.0)
        .max_hop_latency_ns(410.0)
        .build()
}

/// Every field of an evaluation as bits, so `-0.0`/`0.0` and NaN payloads
/// cannot hide behind `==`.
fn bits(eval: &Evaluation) -> Vec<u64> {
    let mut out = vec![eval.throughput.to_bits()];
    for v in &eval.vertices {
        out.extend(
            [
                v.input_rate,
                v.capacity,
                v.processed_rate,
                v.output_rate,
                v.exec_ns,
                v.overhead_ns,
                v.state_ns,
                v.tf_ns,
                v.queue_ns,
            ]
            .map(f64::to_bits),
        );
        out.push(u64::from(v.bottleneck));
    }
    out.extend(eval.edge_rates.iter().map(|r| r.to_bits()));
    out.extend(eval.operator_pressure.iter().map(|p| p.to_bits()));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cursor_walks_match_one_shot_passes(
        shape in arb_shape(),
        replication in prop::collection::vec(1usize..=4, 8),
        compress in 1usize..=3,
        sockets in 2usize..=4,
        cores in 2usize..=6,
        finite_ingress in 0usize..4,
        walk in prop::collection::vec((0usize..1024, 0usize..1024), 48),
    ) {
        let topology = build(&shape);
        let replication: Vec<usize> = (0..topology.operator_count())
            .map(|op| replication[op % replication.len()])
            .collect();
        let graph = ExecutionGraph::new(&topology, &replication, compress);
        let machine = machine(sockets, cores);
        let nv = graph.vertex_count();

        let mut base = Evaluator::saturated(&machine);
        if finite_ingress == 0 {
            base = base.with_ingress(Ingress::Rate(2e6));
        }
        let model = base.prepare(&graph);
        let mut cursors = Vec::new();
        for policy in [TfPolicy::RelativeLocation, TfPolicy::AlwaysRemote, TfPolicy::NeverRemote] {
            let plain = base.with_policy(policy);
            for evaluator in [plain, plain.bounding(), plain.fused_engine()] {
                cursors.push((evaluator, model.cursor(&evaluator)));
            }
        }

        let mut placement = Placement::empty(nv);
        for (step, &(vertex, socket)) in walk.iter().enumerate() {
            let v = VertexId(vertex % nv);
            // One draw in `sockets + 1` unplaces; `place` on a placed vertex
            // moves it.
            match socket % (sockets + 1) {
                0 => placement.unplace(v),
                s => placement.place(v, SocketId(s - 1)),
            }
            let fused = FusionPlan::from_graph(&graph, &placement);
            for (evaluator, cursor) in &mut cursors {
                match placement.socket_of(v) {
                    Some(s) => cursor.place(v, s),
                    None => cursor.unplace(v),
                }
                prop_assert_eq!(cursor.placement(), &placement);
                // Half the steps go unread: the next read must settle several
                // moves (some taken back, some of a producer and its
                // consumer both) at once.
                if socket / 8 % 2 == 0 && step + 1 < walk.len() {
                    continue;
                }
                prop_assert!(
                    cursor.bound().to_bits() == evaluator.bound(&graph, &placement).to_bits(),
                    "bound drifted at step {step} under {evaluator:?}"
                );
                if evaluator.fusion {
                    prop_assert_eq!(
                        cursor.spawned_executors(),
                        fused.spawned_executors(&replication)
                    );
                }
                // The full evaluation is the expensive comparison: take it
                // on every fourth step and on the last.
                if step % 4 == 3 || step + 1 == walk.len() {
                    let one_shot = evaluator.evaluate(&graph, &placement);
                    prop_assert!(
                        bits(&cursor.evaluation()) == bits(&one_shot),
                        "evaluation drifted at step {step} under {evaluator:?}"
                    );
                    let probe = VertexId((vertex / 7) % nv);
                    prop_assert_eq!(
                        cursor.output_rate(probe).to_bits(),
                        one_shot.vertices[probe.0].output_rate.to_bits()
                    );
                }
            }
        }
    }
}
