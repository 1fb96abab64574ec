//! Property-based tests (proptest) over the core invariants:
//!
//! * the B&B bounding function is a true upper bound for any completion,
//! * model throughput never increases when a plan gets strictly "more
//!   remote",
//! * placements produced by every strategy are complete,
//! * metrics primitives maintain their order/monotonicity invariants.

use briskstream::dag::{
    CostProfile, ExecutionGraph, LogicalTopology, Partitioning, Placement, TopologyBuilder,
    VertexId,
};
use briskstream::metrics::{Cdf, Histogram};
use briskstream::model::Evaluator;
use briskstream::numa::{Machine, MachineBuilder, SocketId};
use proptest::prelude::*;

/// The prepared model's cursor-versus-one-shot differential lives with the
/// model (`cargo test -p brisk-model`); it is compiled in here as well so
/// that the tier-1 gate (`cargo test -q`, this package only) runs it.
#[path = "../crates/model/tests/cursor_differential.rs"]
mod cursor_differential;

/// A random small pipeline: spout -> bolts... -> sink with random costs.
fn arb_topology() -> impl Strategy<Value = LogicalTopology> {
    (
        1usize..=3,                                // bolts
        prop::collection::vec(50.0f64..2000.0, 5), // costs
        prop::collection::vec(16.0f64..256.0, 5),  // tuple sizes
        0usize..3,                                 // partitioning selector
    )
        .prop_map(|(bolts, costs, sizes, part)| {
            let partitioning = match part {
                0 => Partitioning::Shuffle,
                1 => Partitioning::KeyBy,
                _ => Partitioning::Broadcast,
            };
            let mut b = TopologyBuilder::new("prop");
            let spout = b.add_spout("spout", CostProfile::new(costs[0], 10.0, 8.0, sizes[0]));
            let mut prev = spout;
            for i in 0..bolts {
                let bolt = b.add_bolt(
                    format!("b{i}"),
                    CostProfile::new(costs[i + 1], 10.0, 8.0, sizes[i + 1]),
                );
                b.connect(prev, briskstream::dag::DEFAULT_STREAM, bolt, partitioning);
                prev = bolt;
            }
            let sink = b.add_sink("sink", CostProfile::new(costs[4], 10.0, 8.0, sizes[4]));
            b.connect_shuffle(prev, sink);
            b.build().expect("valid pipeline")
        })
}

fn machine(sockets: usize) -> Machine {
    MachineBuilder::new("prop")
        .sockets(sockets)
        .tray_size(2)
        .cores_per_socket(8)
        .clock_ghz(1.0)
        .local_latency_ns(50.0)
        .one_hop_latency_ns(250.0)
        .max_hop_latency_ns(400.0)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The bounding function (partial placement) upper-bounds every
    /// completion of that placement.
    #[test]
    fn bound_dominates_all_completions(
        topology in arb_topology(),
        placed_prefix in 0usize..3,
        sockets_choice in prop::collection::vec(0usize..2, 8),
    ) {
        let m = machine(2);
        let g = ExecutionGraph::new(&topology, &vec![1; topology.operator_count()], 1);
        let ev = Evaluator::saturated(&m);
        let n = g.vertex_count();

        let mut partial = Placement::empty(n);
        for i in 0..placed_prefix.min(n) {
            partial.place(VertexId(i), SocketId(sockets_choice[i % 8]));
        }
        let bound = ev.bound(&g, &partial);

        // Complete the placement in a deterministic sweep of combinations.
        let unplaced: Vec<usize> = (0..n).filter(|&i| partial.socket_of(VertexId(i)).is_none()).collect();
        let combos = 2usize.pow(unplaced.len() as u32);
        for mask in 0..combos.min(32) {
            let mut full = partial.clone();
            for (bit, &v) in unplaced.iter().enumerate() {
                full.place(VertexId(v), SocketId((mask >> bit) & 1));
            }
            let got = ev.evaluate(&g, &full).throughput;
            prop_assert!(
                got <= bound * (1.0 + 1e-9),
                "completion {got} beat bound {bound}"
            );
        }
    }

    /// Moving the whole pipeline from collocated to a split placement never
    /// increases modelled throughput.
    #[test]
    fn remote_never_beats_local(topology in arb_topology()) {
        let m = machine(2);
        let g = ExecutionGraph::new(&topology, &vec![1; topology.operator_count()], 1);
        let ev = Evaluator::saturated(&m);
        let local = ev
            .evaluate(&g, &Placement::all_on(g.vertex_count(), SocketId(0)))
            .throughput;
        // Alternate sockets along the pipeline: every hop is remote.
        let mut split = Placement::empty(g.vertex_count());
        for (i, &v) in g.topological_order().iter().enumerate() {
            split.place(v, SocketId(i % 2));
        }
        let remote = ev.evaluate(&g, &split).throughput;
        prop_assert!(remote <= local * (1.0 + 1e-9), "remote {remote} > local {local}");
    }

    /// Every placement strategy yields a complete placement for any
    /// replication that fits the machine.
    #[test]
    fn strategies_always_complete(
        topology in arb_topology(),
        extra in 0usize..6,
        seed in 0u64..1000,
    ) {
        let m = machine(2);
        let mut replication = vec![1usize; topology.operator_count()];
        let idx = 1 % replication.len();
        replication[idx] += extra;
        let g = ExecutionGraph::new(&topology, &replication, 2);
        for strategy in [
            briskstream::rlas::PlacementStrategy::Os { seed },
            briskstream::rlas::PlacementStrategy::FirstFit,
            briskstream::rlas::PlacementStrategy::RoundRobin,
        ] {
            let p = briskstream::rlas::place_with_strategy(&g, &m, strategy);
            prop_assert!(p.is_complete());
        }
    }

    /// Balanced replication respects the budget exactly and keeps at least
    /// one replica per operator.
    #[test]
    fn balanced_replication_invariants(topology in arb_topology(), budget in 5usize..64) {
        if let Some(r) = briskstream::rlas::balanced_replication(&topology, budget) {
            prop_assert_eq!(r.len(), topology.operator_count());
            prop_assert!(r.iter().all(|&x| x >= 1));
            prop_assert_eq!(r.iter().sum::<usize>(), budget.max(topology.operator_count()));
        } else {
            prop_assert!(budget < topology.operator_count());
        }
    }

    /// Histogram percentiles are monotone in the requested percentile and
    /// bracketed by min/max.
    #[test]
    fn histogram_percentiles_monotone(values in prop::collection::vec(1.0f64..1e9, 1..200)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let percentiles = [1.0, 25.0, 50.0, 75.0, 99.0, 100.0];
        let mut prev = 0.0;
        for &p in &percentiles {
            let q = h.percentile(p);
            prop_assert!(q >= prev, "percentile dropped: p{p} = {q} < {prev}");
            prop_assert!(q >= h.min() && q <= h.max());
            prev = q;
        }
    }

    /// Exact CDF: quantile(probability_at(x)) stays <= x for every sample
    /// point, and probability_at is monotone.
    #[test]
    fn cdf_round_trip(values in prop::collection::vec(0.0f64..1e6, 1..100)) {
        let mut cdf = Cdf::from_samples(values.iter().copied());
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let mut prev_p = 0.0;
        for &x in sorted.iter() {
            let p = cdf.probability_at(x);
            prop_assert!(p >= prev_p);
            prev_p = p;
            // Guard the rank computation against float round-up on exact
            // multiples (p*n can land a hair above the true rank).
            let q = cdf.quantile((p - 1e-9).max(0.0));
            prop_assert!(q <= x + 1e-9, "quantile({p}) = {q} > {x}");
        }
    }

    /// Graph expansion conserves replicas under any compression ratio.
    #[test]
    fn compression_conserves_replicas(
        topology in arb_topology(),
        repl in prop::collection::vec(1usize..8, 5),
        ratio in 1usize..6,
    ) {
        let replication: Vec<usize> =
            (0..topology.operator_count()).map(|i| repl[i % repl.len()]).collect();
        let g = ExecutionGraph::new(&topology, &replication, ratio);
        let total: usize = g.vertices().map(|(_, v)| v.multiplicity).sum();
        prop_assert_eq!(total, replication.iter().sum::<usize>());
        // No scheduling unit exceeds the ratio.
        prop_assert!(g.vertices().all(|(_, v)| v.multiplicity <= ratio));
    }
}
