//! Output-rate propagation: the core of the performance model.
//!
//! The evaluator derives, for every execution vertex, its per-tuple
//! processing time `T(p) = Te + Others + Tf(p)` (the fetch cost `Tf`
//! averaged over producers weighted by their input shares, Formula 2) and
//! from it the vertex's processing **capacity**.
//!
//! Rates are then *back-pressure coupled*: in a system of bounded queues,
//! a saturated operator blocks its producers, which ultimately throttles
//! the spout (the paper's footnote 2), so the sustainable steady state is
//!
//! ```text
//! p* = min over operators of  ( pooled capacity / input factor )
//! ```
//!
//! where the input factor is the operator's input rate per unit of spout
//! output (pure selectivity propagation) and the pooled capacity sums the
//! operator's replicas (shuffle/key-by routing is work-conserving, so a slow
//! remote replica does not gate its faster siblings). Every vertex then
//! processes exactly its share of `p*` — the "just fulfilled" (`ro = ri`)
//! state the paper observes in optimized plans.
//!
//! Operators whose capacity would be exceeded were the spout unthrottled
//! are reported as **bottlenecks** together with their over-supply ratio —
//! the signal the scaling algorithm grows replication by (Case 1 of the
//! paper, expressed against the spout-saturated demand).

use crate::prepared::PreparedModel;
use brisk_dag::{ExecutionGraph, Placement, VertexId};
use brisk_numa::{Machine, SocketId, CACHE_LINE_BYTES};

/// An input rate is a bottleneck when it exceeds capacity by this relative
/// tolerance (guards against float jitter at exact saturation).
pub const BOTTLENECK_TOLERANCE: f64 = 1e-6;

/// Default per-tuple cost of one queue crossing, in nanoseconds — the
/// engine-side work a *fused* edge skips: cloning the tuple into the
/// output buffer, routing, jumbo assembly, the ring push/pop (the
/// `BENCH_queue.json` sync cost is the small part: ~0.3–2.5 ns/tuple
/// amortized over a 64-tuple jumbo) and the consumer's poll/iterate loop.
/// An engineering estimate anchored to the queue-fabric microbench and
/// the Linear Road fused-vs-unfused A/B rather than a profiled quantity;
/// override with [`Evaluator::with_queue_overhead`] when a host has been
/// measured. Charged by fusion-aware scorers so "fuse or split" ties
/// break the way the engine actually performs: splitting a chain must
/// buy enough pipeline parallelism to repay the crossings it re-adds.
pub const DEFAULT_QUEUE_OVERHEAD_NS: f64 = 25.0;

/// External ingress configuration for the spouts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ingress {
    /// `I` is sufficiently large to keep the system busy: spouts run at
    /// their processing capacity (modulo back-pressure). This is the
    /// configuration used to examine maximum system capacity (Section 5.3).
    Saturated,
    /// A finite total external rate in tuples/sec, split across spout
    /// replicas evenly.
    Rate(f64),
}

/// How the fetch cost `Tf` reacts to relative location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TfPolicy {
    /// Formula 2: zero when collocated with the producer, otherwise
    /// `ceil(N/S) * L(i,j)`.
    RelativeLocation,
    /// `RLAS_fix(L)`: always pay the machine's worst-case latency, as if
    /// anti-collocated from every producer.
    AlwaysRemote,
    /// `RLAS_fix(U)`: never pay any fetch cost.
    NeverRemote,
}

/// Modelled rates for one execution vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VertexRates {
    /// Arriving tuples/sec (`ri`) in the back-pressured steady state.
    pub input_rate: f64,
    /// Maximum input tuples/sec this vertex can process under the placement.
    pub capacity: f64,
    /// Tuples/sec actually processed (spouts: generation rate).
    pub processed_rate: f64,
    /// Total emitted tuples/sec across all output streams (`ro`).
    pub output_rate: f64,
    /// Average execution time `Te` per tuple, ns.
    pub exec_ns: f64,
    /// Average engine overhead ("Others") per tuple, ns.
    pub overhead_ns: f64,
    /// Average state-access time per tuple (index probe + amortized
    /// eviction) for stateful operators, ns. Placement-independent: state
    /// lives with its replica, so every placement pays it identically.
    pub state_ns: f64,
    /// Average remote-fetch time `Tf` per tuple under this placement, ns.
    pub tf_ns: f64,
    /// Average queue-crossing overhead per tuple, ns — zero unless the
    /// evaluator charges [`Evaluator::with_queue_overhead`]; fused edges
    /// never pay it.
    pub queue_ns: f64,
    /// Whether the operator this vertex belongs to would be over-supplied
    /// were the spouts unthrottled (Case 1) — a pipeline bottleneck.
    pub bottleneck: bool,
}

impl VertexRates {
    /// Full per-tuple handling time `T(p)` in ns.
    pub fn total_ns(&self) -> f64 {
        self.exec_ns + self.overhead_ns + self.state_ns + self.tf_ns + self.queue_ns
    }
}

/// Result of evaluating a (possibly partial) placement.
#[derive(Debug, Clone, Default)]
pub struct Evaluation {
    /// Application throughput `R = Σ_sink ro` in tuples/sec.
    pub throughput: f64,
    /// Per-vertex rates, indexed by `VertexId`.
    pub vertices: Vec<VertexRates>,
    /// Tuples/sec flowing on each execution edge, indexed like
    /// [`ExecutionGraph::edges`].
    pub edge_rates: Vec<f64>,
    /// Over-supply ratio per operator against spout-saturated demand
    /// (`> 1` means the operator throttles the pipeline).
    pub operator_pressure: Vec<f64>,
}

impl Evaluation {
    /// Vertices belonging to over-supplied operators.
    pub fn bottlenecks(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .enumerate()
            .filter(|(_, v)| v.bottleneck)
            .map(|(i, _)| VertexId(i))
            .collect()
    }

    /// For each bottlenecked operator, the over-supply ratio (demand at
    /// spout saturation / pooled capacity). The scaling algorithm grows the
    /// replication level by `ceil(ratio)`.
    pub fn bottleneck_operators(&self) -> Vec<(usize, f64)> {
        self.operator_pressure
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r > 1.0 + BOTTLENECK_TOLERANCE)
            .map(|(op, &r)| (op, r))
            .collect()
    }

    /// Throughput in the paper's unit, thousands of events per second.
    pub fn k_events_per_sec(&self) -> f64 {
        self.throughput / 1e3
    }
}

/// The model evaluator: machine + ingress + fetch-cost policy.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator<'m> {
    /// Machine specification supplying `C`, `B`, `Q(i,j)`, `L(i,j)`, `S`.
    pub machine: &'m Machine,
    /// External ingress configuration.
    pub ingress: Ingress,
    /// Fetch-cost policy (RLAS vs the fixed-capability ablations).
    pub tf_policy: TfPolicy,
    /// Model operator-chain fusion, matching the engine default: edges a
    /// [`brisk_dag::FusionPlan`] collapses travel inside one executor, so they drop
    /// their Formula-2 communication term (regardless of `tf_policy`) AND
    /// the chain pays the **serialized-chain cost** — each replica pair is
    /// one thread running every member's per-tuple time back to back, so
    /// the chain's capacity is `1e9 / Σ member demand-weighted T(m)`, not
    /// one phantom executor per member. Fused-away replicas also stop
    /// counting against core occupancy (they spawn no thread).
    ///
    /// Off by default: partial-placement *bounds* must stay fusion-free to
    /// remain admissible (an unfused completion can out-run a serialized
    /// chain), so the B&B turns this on only when scoring complete
    /// placements, and `predict_for_plan` turns it on for the plan-level
    /// prediction.
    pub fusion: bool,
    /// Per-tuple queue-crossing cost charged to consumers on every
    /// *unfused* edge, ns (see [`DEFAULT_QUEUE_OVERHEAD_NS`]). Zero by
    /// default, keeping the paper's pure Formula-2 semantics for bounds
    /// and ablations; fusion-aware scorers set it so splitting a fusable
    /// chain is not modelled as free.
    pub queue_overhead_ns: f64,
    /// Bound-mode refinement of the queue charge: when set, an edge the
    /// *optimistic* fusion plan (replica alignment only, placement
    /// ignored) could still collapse rides free, and only edges **no**
    /// completion can fuse pay `queue_overhead_ns`. The optimistic fused
    /// set is a superset of every complete placement's fused set —
    /// placement decisions only *break* collocation — so charging exactly
    /// the never-fusable complement keeps the bound admissible against the
    /// fused-engine objective while pricing in crossings every completion
    /// must pay. Off by default; [`Evaluator::bounding`] turns it on.
    pub fusable_edges_ride_free: bool,
}

impl<'m> Evaluator<'m> {
    /// Evaluator with the standard RLAS policy and saturated ingress.
    pub fn saturated(machine: &'m Machine) -> Evaluator<'m> {
        Evaluator {
            machine,
            ingress: Ingress::Saturated,
            tf_policy: TfPolicy::RelativeLocation,
            fusion: false,
            queue_overhead_ns: 0.0,
            fusable_edges_ride_free: false,
        }
    }

    /// Same evaluator with a different fetch policy.
    pub fn with_policy(self, tf_policy: TfPolicy) -> Evaluator<'m> {
        Evaluator { tf_policy, ..self }
    }

    /// Same evaluator with a finite ingress rate.
    pub fn with_ingress(self, ingress: Ingress) -> Evaluator<'m> {
        Evaluator { ingress, ..self }
    }

    /// Same evaluator with fusion modelling switched on or off.
    pub fn with_fusion(self, fusion: bool) -> Evaluator<'m> {
        Evaluator { fusion, ..self }
    }

    /// Same evaluator charging `queue_overhead_ns` per tuple on unfused
    /// edges (fused edges always ride free).
    pub fn with_queue_overhead(self, queue_overhead_ns: f64) -> Evaluator<'m> {
        Evaluator {
            queue_overhead_ns,
            ..self
        }
    }

    /// The honest engine objective: fusion modelled (serialized chains,
    /// freed threads) and unfused edges charged the default queue-crossing
    /// cost — what RLAS scores complete plans with and what
    /// `predict_for_plan` reports.
    pub fn fused_engine(self) -> Evaluator<'m> {
        Evaluator {
            fusion: true,
            queue_overhead_ns: DEFAULT_QUEUE_OVERHEAD_NS,
            fusable_edges_ride_free: false,
            ..self
        }
    }

    /// The tightened admissible B&B bounding configuration: capacities stay
    /// fusion-free (every member keeps its own parallel executor — an upper
    /// bound on the serialized chain), but edges that can never fuse under
    /// *any* placement are charged the queue-crossing cost every completion
    /// pays on them. Strictly at or below the legacy zero-queue bound, and
    /// still at or above every completion's [`Evaluator::fused_engine`]
    /// score (pinned by the property tests), so B&B prunes more without
    /// ever pruning the optimum.
    pub fn bounding(self) -> Evaluator<'m> {
        Evaluator {
            fusion: false,
            queue_overhead_ns: DEFAULT_QUEUE_OVERHEAD_NS,
            fusable_edges_ride_free: true,
            ..self
        }
    }

    /// Fetch cost in ns for one tuple of `bytes` bytes produced on `from`
    /// and consumed on `to` (Formula 2), under the active policy.
    ///
    /// `None` for either socket means "unplaced"; the bounding function
    /// treats unplaced endpoints as collocated (`Tf = 0`), which is exactly
    /// how the paper computes the upper bound of a live node.
    pub fn fetch_ns(&self, bytes: f64, from: Option<SocketId>, to: Option<SocketId>) -> f64 {
        let worst = match self.tf_policy {
            TfPolicy::AlwaysRemote => worst_latency_ns(self.machine),
            _ => 0.0,
        };
        self.fetch_lines_ns(cache_lines(bytes), worst, from, to)
    }

    /// Formula 2 for a tuple of `lines` cache lines, with the machine's
    /// worst-case latency supplied by the caller (the prepared model looks
    /// it up once per graph, not once per edge).
    pub(crate) fn fetch_lines_ns(
        &self,
        lines: f64,
        worst_latency_ns: f64,
        from: Option<SocketId>,
        to: Option<SocketId>,
    ) -> f64 {
        match self.tf_policy {
            TfPolicy::NeverRemote => 0.0,
            TfPolicy::AlwaysRemote => lines * worst_latency_ns,
            TfPolicy::RelativeLocation => match (from, to) {
                (Some(i), Some(j)) if i != j => lines * self.machine.latency_ns(i, j),
                _ => 0.0,
            },
        }
    }

    /// Everything the model derives from `graph` alone, computed once so
    /// that any number of placements can be priced against it — see
    /// [`PreparedModel`]. Only this evaluator's machine enters; ingress,
    /// fetch policy and the fusion switches are applied per
    /// [`Cursor`](crate::Cursor), so one prepared model serves every
    /// configuration of one machine.
    pub fn prepare<'a>(&self, graph: &'a ExecutionGraph<'a>) -> PreparedModel<'a>
    where
        'm: 'a,
    {
        PreparedModel::new(self.machine, graph)
    }

    /// Evaluate the model over `graph` with `placement`: prepare, then one
    /// placement pass.
    ///
    /// The placement may be partial: unplaced vertices are treated as
    /// collocated with all of their producers and consumers (the bounding
    /// relaxation). For complete placements this *is* the performance model;
    /// for partial ones the returned throughput is the bounding-function
    /// value (a true upper bound on any completion — see the property tests).
    pub fn evaluate(&self, graph: &ExecutionGraph<'_>, placement: &Placement) -> Evaluation {
        let model = self.prepare(graph);
        let mut cursor = model.cursor(self);
        cursor.load(placement);
        cursor.evaluation()
    }

    /// The bounding function of the B&B search: the throughput upper bound
    /// for any completion of `placement` (unplaced vertices collocated with
    /// all producers, their constraints relaxed).
    pub fn bound(&self, graph: &ExecutionGraph<'_>, placement: &Placement) -> f64 {
        let model = self.prepare(graph);
        let mut cursor = model.cursor(self);
        cursor.load(placement);
        cursor.bound()
    }
}

/// Cache lines one tuple of `bytes` bytes occupies: `ceil(N / S)` of
/// Formula 2, at least one.
pub(crate) fn cache_lines(bytes: f64) -> f64 {
    (bytes / CACHE_LINE_BYTES as f64).ceil().max(1.0)
}

/// The largest `L(i, j)` between two different sockets — what
/// [`TfPolicy::AlwaysRemote`] charges on every edge.
pub(crate) fn worst_latency_ns(machine: &Machine) -> f64 {
    let mut worst: f64 = 0.0;
    for i in machine.socket_ids() {
        for j in machine.socket_ids() {
            if i != j {
                worst = worst.max(machine.latency_ns(i, j));
            }
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_dag::{CostProfile, TopologyBuilder, DEFAULT_STREAM};
    use brisk_numa::MachineBuilder;

    /// 2-socket, 4-core machine with easy numbers: 1 GHz clock, local 50 ns,
    /// remote 200 ns.
    fn toy_machine() -> Machine {
        MachineBuilder::new("toy")
            .sockets(2)
            .tray_size(4)
            .cores_per_socket(4)
            .clock_ghz(1.0)
            .local_latency_ns(50.0)
            .one_hop_latency_ns(200.0)
            .max_hop_latency_ns(200.0)
            .local_bandwidth_gbps(100.0)
            .one_hop_bandwidth_gbps(50.0)
            .max_hop_bandwidth_gbps(50.0)
            .build()
    }

    /// spout(100cy) -> bolt(200cy) -> sink(50cy), 64-byte tuples.
    fn linear_topology() -> brisk_dag::LogicalTopology {
        let mut b = TopologyBuilder::new("lin");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 64.0, 64.0));
        let x = b.add_bolt("bolt", CostProfile::new(200.0, 0.0, 64.0, 64.0));
        let k = b.add_sink("sink", CostProfile::new(50.0, 0.0, 64.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.build().expect("valid")
    }

    #[test]
    fn collocated_rates_match_hand_calculation() {
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        // Bolt capacity 5M gates the pipeline; back-pressure throttles the
        // 10M-capable spout down to 5M.
        let spout = &eval.vertices[0];
        assert!((spout.processed_rate - 5e6).abs() < 1.0);
        let bolt = &eval.vertices[1];
        assert!(bolt.bottleneck);
        assert!((bolt.capacity - 5e6).abs() < 1.0);
        assert!((bolt.processed_rate - 5e6).abs() < 1.0);
        // Sink: capacity 20M, sees 5M.
        let sink = &eval.vertices[2];
        assert!(!sink.bottleneck);
        assert!((sink.output_rate - 5e6).abs() < 1.0);
        assert!((eval.throughput - 5e6).abs() < 1.0);
        // Over-supply pressure of the bolt against the unthrottled spout:
        // 10M demand / 5M capacity = 2.
        let bn = eval.bottleneck_operators();
        assert_eq!(bn.len(), 1);
        assert!((bn[0].1 - 2.0).abs() < 1e-6);
    }

    #[test]
    fn remote_placement_pays_fetch_cost() {
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let mut placement = Placement::all_on(g.vertex_count(), SocketId(0));
        // Move the bolt to socket 1: it now pays ceil(64/64)*200 = 200 ns per
        // tuple -> T = 400 ns -> capacity 2.5M.
        placement.place(brisk_dag::VertexId(1), SocketId(1));
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        let bolt = &eval.vertices[1];
        assert!((bolt.tf_ns - 200.0).abs() < 1e-9);
        assert!((bolt.capacity - 2.5e6).abs() < 1.0);
        assert!((eval.throughput - 2.5e6).abs() < 1.0);
    }

    #[test]
    fn never_remote_policy_ignores_distance() {
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let mut placement = Placement::all_on(g.vertex_count(), SocketId(0));
        placement.place(brisk_dag::VertexId(1), SocketId(1));
        let eval = Evaluator::saturated(&m)
            .with_policy(TfPolicy::NeverRemote)
            .evaluate(&g, &placement);
        assert_eq!(eval.vertices[1].tf_ns, 0.0);
        assert!((eval.throughput - 5e6).abs() < 1.0);
    }

    #[test]
    fn always_remote_policy_charges_even_when_collocated() {
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m)
            .with_policy(TfPolicy::AlwaysRemote)
            .evaluate(&g, &placement);
        assert!((eval.vertices[1].tf_ns - 200.0).abs() < 1e-9);
    }

    #[test]
    fn fused_edges_drop_the_communication_term() {
        // The [1,1,1] collocated chain fuses end to end: with fusion
        // modelled, no edge pays a fetch cost even under the AlwaysRemote
        // ablation, because fused edges never cross a queue at all.
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let base = Evaluator::saturated(&m).with_policy(TfPolicy::AlwaysRemote);
        let unfused = base.evaluate(&g, &placement);
        let fused = base.with_fusion(true).evaluate(&g, &placement);
        assert!((unfused.vertices[1].tf_ns - 200.0).abs() < 1e-9);
        assert_eq!(fused.vertices[1].tf_ns, 0.0);
        assert_eq!(fused.vertices[2].tf_ns, 0.0);
        // Serialized chain (350 ns/tuple, 2.857M) still beats the bolt
        // paying the 200 ns always-remote fetch (400 ns, 2.5M).
        assert!(fused.throughput > unfused.throughput);
        // A replicated bolt breaks the chain: fusion must not drop the
        // fetch term on unfused (1:2) edges.
        let g2 = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let p2 = Placement::all_on(g2.vertex_count(), SocketId(0));
        let fused2 = base.with_fusion(true).evaluate(&g2, &p2);
        assert!(
            (fused2.vertices[1].tf_ns - 200.0).abs() < 1e-9,
            "unfused edge keeps paying AlwaysRemote"
        );
    }

    #[test]
    fn serialized_chain_replaces_the_per_operator_executor_credit() {
        // Golden regression for the serialized-chain cost: on a
        // dedicated-core host (4 cores, 3 replicas — no time-sharing), the
        // fully fused [1,1,1] chain is ONE thread running
        // 100 + 200 + 50 = 350 ns per tuple, so the prediction must be
        // exactly 1e9/350 ≈ 2.857M — NOT the 5M the bolt-gated pipeline
        // sustains when every operator is credited its own executor. If a
        // refactor re-introduces the per-operator credit, fused == unfused
        // and this fails loudly.
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let ev = Evaluator::saturated(&m);
        let unfused = ev.evaluate(&g, &placement);
        let fused = ev.with_fusion(true).evaluate(&g, &placement);
        assert!((unfused.throughput - 5e6).abs() < 1.0);
        let golden = 1e9 / 350.0;
        assert!(
            (fused.throughput - golden).abs() < 1.0,
            "serialized chain must predict {golden}, got {}",
            fused.throughput
        );
        assert!(
            fused.throughput <= unfused.throughput,
            "a fused prediction can never exceed the independent-executor one \
             on a dedicated-core host"
        );
        // Every chain member reports the same saturation point: capacity ==
        // its own demand share of p_chain.
        for v in 0..3 {
            assert!(
                (fused.vertices[v].capacity - golden).abs() < 1.0,
                "vertex {v} capacity {}",
                fused.vertices[v].capacity
            );
        }
        // No member is flagged over-supplied: the chain throttles itself.
        assert!(fused.bottlenecks().is_empty());
    }

    #[test]
    fn pairwise_fused_chain_serializes_per_replica_pair() {
        // s -> a (KeyBy) -> b (KeyBy), a key-preserving, replication
        // [1, 2, 2]: the a->b edge fuses pairwise, so each of the two
        // a-threads also runs b inline: pooled chain capacity
        // 2e9/(200+50) = 8M, gated by the spout at 10M -> p* = 8M.
        let m = toy_machine();
        let mut b = TopologyBuilder::new("pair");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 64.0, 64.0));
        let a = b.add_bolt("a", CostProfile::new(200.0, 0.0, 64.0, 64.0));
        let x = b.add_bolt("x", CostProfile::new(50.0, 0.0, 64.0, 64.0));
        let k = b.add_sink("k", CostProfile::new(0.0, 0.0, 16.0, 16.0));
        b.connect(s, DEFAULT_STREAM, a, brisk_dag::Partitioning::KeyBy);
        b.connect(a, DEFAULT_STREAM, x, brisk_dag::Partitioning::KeyBy);
        b.connect_shuffle(x, k);
        b.set_key_preserving(a);
        let t = b.build().expect("valid");
        let g = ExecutionGraph::new(&t, &[1, 2, 2, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let ev = Evaluator::saturated(&m);
        let unfused = ev.evaluate(&g, &placement);
        let fused = ev.with_fusion(true).evaluate(&g, &placement);
        // Unfused: 6 replica threads share the socket's 4 cores
        // (share 2/3), so the 10M spout/bolt balance lands at 6.67M.
        assert!((unfused.throughput - 1e7 * 4.0 / 6.0).abs() < 10.0);
        // Fused: x rides a's two threads (4 executors, no time-sharing);
        // each serialized a+x pair is 250 ns -> pooled 8M. Fusion *wins*
        // here precisely because the freed threads stop core-sharing.
        assert!(
            (fused.throughput - 8e6).abs() < 10.0,
            "{}",
            fused.throughput
        );
        let a_v = &fused.vertices[1];
        assert!((a_v.capacity - 4e6).abs() < 1.0, "per-pair share");
    }

    #[test]
    fn partial_placement_is_upper_bound() {
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let ev = Evaluator::saturated(&m);

        let mut partial = Placement::empty(g.vertex_count());
        partial.place(brisk_dag::VertexId(0), SocketId(0));
        let bound = ev.bound(&g, &partial);

        // Any completion of the placement must not beat the bound.
        for bolt_socket in 0..2 {
            for sink_socket in 0..2 {
                let mut full = partial.clone();
                full.place(brisk_dag::VertexId(1), SocketId(bolt_socket));
                full.place(brisk_dag::VertexId(2), SocketId(sink_socket));
                let got = ev.evaluate(&g, &full).throughput;
                assert!(
                    got <= bound + 1e-6,
                    "completion beat the bound: {got} > {bound}"
                );
            }
        }
    }

    #[test]
    fn tightened_bound_is_admissible_and_prunes_harder() {
        // [1,2,1]: both edges are 1:2 / 2:1, which no placement can fuse,
        // so the bounding evaluator charges them the crossing cost — the
        // bound drops strictly below the legacy zero-queue bound while
        // staying at or above every completion's fused-engine score.
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let ev = Evaluator::saturated(&m);
        let mut partial = Placement::empty(g.vertex_count());
        partial.place(brisk_dag::VertexId(0), SocketId(0));
        let legacy = ev.bound(&g, &partial);
        let tightened = ev.bounding().bound(&g, &partial);
        assert!(
            tightened < legacy,
            "never-fusable edges must be charged: {tightened} !< {legacy}"
        );
        for b1 in 0..2 {
            for b2 in 0..2 {
                for s in 0..2 {
                    let mut full = partial.clone();
                    full.place(brisk_dag::VertexId(1), SocketId(b1));
                    full.place(brisk_dag::VertexId(2), SocketId(b2));
                    full.place(brisk_dag::VertexId(3), SocketId(s));
                    let got = ev.fused_engine().evaluate(&g, &full).throughput;
                    assert!(
                        got <= tightened + 1e-6,
                        "completion beat the tightened bound: {got} > {tightened}"
                    );
                }
            }
        }
        // On a fully fusable chain the optimistic plan covers every edge,
        // so the tightened bound coincides with the legacy one.
        let g1 = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let empty = Placement::empty(g1.vertex_count());
        assert_eq!(ev.bounding().bound(&g1, &empty), ev.bound(&g1, &empty));
    }

    /// Like [`linear_topology`] but the bolt carries a state-access term
    /// (index probe + amortized eviction), as the join apps do.
    fn stateful_topology() -> brisk_dag::LogicalTopology {
        let mut b = TopologyBuilder::new("stateful");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 64.0, 64.0));
        let x = b.add_bolt(
            "join",
            CostProfile::new(200.0, 0.0, 64.0, 64.0).with_state_access(100.0),
        );
        let k = b.add_sink("sink", CostProfile::new(50.0, 0.0, 64.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.build().expect("valid")
    }

    #[test]
    fn state_access_cost_gates_capacity() {
        // At 1 GHz the join bolt spends 200 ns executing + 100 ns probing
        // its window index per tuple: capacity 1e9/300 ≈ 3.33M, strictly
        // below the stateless variant's 5M, and the per-vertex breakdown
        // reports the state share separately.
        let m = toy_machine();
        let t = stateful_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        let join = &eval.vertices[1];
        assert!((join.state_ns - 100.0).abs() < 1e-9);
        assert!((join.capacity - 1e9 / 300.0).abs() < 1.0);
        assert!((join.total_ns() - 300.0).abs() < 1e-9);
        let stateless = Evaluator::saturated(&m).evaluate(
            &ExecutionGraph::new(&linear_topology(), &[1, 1, 1], 1),
            &placement,
        );
        assert!(
            eval.throughput < stateless.throughput,
            "state access must cost throughput: {} !< {}",
            eval.throughput,
            stateless.throughput
        );
    }

    #[test]
    fn state_access_keeps_the_bound_admissible() {
        // The state term is placement-independent, so the B&B bound —
        // which relaxes only the placement-dependent fetch/queue terms —
        // must still dominate every completion's true score.
        let m = toy_machine();
        let t = stateful_topology();
        for replication in [[1usize, 1, 1], [1, 2, 1]] {
            let g = ExecutionGraph::new(&t, &replication, 1);
            let ev = Evaluator::saturated(&m);
            let mut partial = Placement::empty(g.vertex_count());
            partial.place(brisk_dag::VertexId(0), SocketId(0));
            let bound = ev.bounding().bound(&g, &partial);
            let nv = g.vertex_count();
            for assignment in 0..(1usize << (nv - 1)) {
                let mut full = partial.clone();
                for v in 1..nv {
                    full.place(
                        brisk_dag::VertexId(v),
                        SocketId((assignment >> (v - 1)) & 1),
                    );
                }
                let got = ev.fused_engine().evaluate(&g, &full).throughput;
                assert!(
                    got <= bound + 1e-6,
                    "completion beat the bound with state costs: {got} > {bound}"
                );
            }
        }
    }

    #[test]
    fn replication_removes_bottleneck() {
        let m = toy_machine();
        let t = linear_topology();
        // Two bolt replicas double bolt capacity to 10M = spout rate.
        let g = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        assert!((eval.throughput - 1e7).abs() < 10.0);
        let bn = eval.bottleneck_operators();
        assert!(bn.is_empty(), "no operator should be over-supplied: {bn:?}");
    }

    #[test]
    fn side_branch_saturation_throttles_the_whole_pipeline() {
        // spout -> {fast_path -> sink, slow_branch -> sink}: in a bounded
        // queue system the saturated slow branch back-pressures the spout,
        // so the fast path cannot race ahead (the LR trap).
        let m = toy_machine();
        let mut b = TopologyBuilder::new("branch");
        let s = b.add_spout("s", CostProfile::new(100.0, 0.0, 16.0, 64.0));
        let fast = b.add_bolt("fast", CostProfile::new(100.0, 0.0, 16.0, 64.0));
        let slow = b.add_bolt("slow", CostProfile::new(1000.0, 0.0, 16.0, 64.0));
        let k = b.add_sink("k", CostProfile::new(10.0, 0.0, 16.0, 64.0));
        b.connect(s, DEFAULT_STREAM, fast, brisk_dag::Partitioning::Shuffle);
        b.connect(s, DEFAULT_STREAM, slow, brisk_dag::Partitioning::Shuffle);
        b.connect_shuffle(fast, k);
        b.connect_shuffle(slow, k);
        let t = b.build().expect("valid");
        let g = ExecutionGraph::new(&t, &[1, 1, 1, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        // Slow branch capacity 1M gates everything: sink sees 2 x 1M.
        assert!((eval.throughput - 2e6).abs() < 10.0, "{}", eval.throughput);
        let slow_v = &eval.vertices[2];
        assert!(slow_v.bottleneck);
        let fast_v = &eval.vertices[1];
        assert!(!fast_v.bottleneck);
        assert!(
            (fast_v.processed_rate - 1e6).abs() < 1.0,
            "fast path throttled"
        );
    }

    #[test]
    fn finite_ingress_throttles_spout() {
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m)
            .with_ingress(Ingress::Rate(1e6))
            .evaluate(&g, &placement);
        assert!((eval.throughput - 1e6).abs() < 1.0);
    }

    #[test]
    fn selectivity_multiplies_stream_rate() {
        let m = toy_machine();
        let mut b = TopologyBuilder::new("sel");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 64.0, 64.0));
        let x = b.add_bolt("split", CostProfile::new(100.0, 0.0, 64.0, 64.0));
        let k = b.add_sink("sink", CostProfile::new(1.0, 0.0, 64.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect(x, DEFAULT_STREAM, k, brisk_dag::Partitioning::Shuffle);
        b.set_selectivity(x, None, DEFAULT_STREAM, 10.0);
        let t = b.build().expect("valid");
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        // Splitter emits 10 words per sentence: sink sees 10x the split rate.
        let split = &eval.vertices[1];
        assert!((split.output_rate - split.processed_rate * 10.0).abs() < 1.0);
    }

    #[test]
    fn broadcast_duplicates_to_every_replica() {
        let m = toy_machine();
        let mut b = TopologyBuilder::new("bc");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 64.0, 64.0));
        let k = b.add_sink("sink", CostProfile::new(10.0, 0.0, 64.0, 64.0));
        b.connect(s, DEFAULT_STREAM, k, brisk_dag::Partitioning::Broadcast);
        let t = b.build().expect("valid");
        let g = ExecutionGraph::new(&t, &[1, 3], 1);
        let placement = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        let spout_rate = eval.vertices[0].processed_rate;
        let total_sink_in: f64 = (1..4).map(|i| eval.vertices[i].input_rate).sum();
        assert!((total_sink_in - 3.0 * spout_rate).abs() < 1.0);
    }

    #[test]
    fn multiplicity_scales_capacity() {
        let m = toy_machine();
        let t = linear_topology();
        let g1 = ExecutionGraph::new(&t, &[1, 4, 1], 1);
        let g2 = ExecutionGraph::new(&t, &[1, 4, 1], 4); // fused into one vertex
        let ev = Evaluator::saturated(&m);
        let e1 = ev.evaluate(&g1, &Placement::all_on(g1.vertex_count(), SocketId(0)));
        let e2 = ev.evaluate(&g2, &Placement::all_on(g2.vertex_count(), SocketId(0)));
        assert!((e1.throughput - e2.throughput).abs() < 1.0);
    }

    #[test]
    fn heterogeneous_replicas_pool_their_capacity() {
        // One bolt replica local, one remote: the pooled operator capacity
        // (not the slowest replica) gates throughput — work-conserving
        // shuffle lets the local replica absorb more load.
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[2, 2, 1], 1);
        let mut placement = Placement::all_on(g.vertex_count(), SocketId(0));
        placement.place(brisk_dag::VertexId(3), SocketId(1)); // one bolt remote
        let eval = Evaluator::saturated(&m).evaluate(&g, &placement);
        // Local bolt 5M + remote bolt 2.5M = 7.5M pooled.
        let pooled: f64 = eval.vertices[2].capacity + eval.vertices[3].capacity;
        assert!((pooled - 7.5e6).abs() < 1.0);
        // The sink fetches half its tuples from the remote bolt:
        // T = 50 + 0.5*200 = 150 ns -> capacity 6.67M, which binds.
        assert!(
            (eval.throughput - 1e9 / 150.0).abs() < 10.0,
            "{}",
            eval.throughput
        );
    }

    #[test]
    fn oversubscription_time_shares_cores() {
        let m = MachineBuilder::new("1core")
            .sockets(2)
            .cores_per_socket(1)
            .clock_ghz(1.0)
            .build();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        // All three replicas fight over a single core: aggregate processed
        // work cannot exceed one core's worth.
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &p);
        let busy_ns: f64 = eval
            .vertices
            .iter()
            .map(|v| v.processed_rate * v.total_ns())
            .sum();
        assert!(busy_ns <= 1e9 * 1.01, "more than one core used: {busy_ns}");
        // Spreading over two sockets strictly helps.
        let mut spread = p.clone();
        spread.place(brisk_dag::VertexId(1), SocketId(1));
        let eval2 = Evaluator::saturated(&m).evaluate(&g, &spread);
        assert!(eval2.throughput > eval.throughput);
    }

    #[test]
    fn k_events_unit() {
        let m = toy_machine();
        let t = linear_topology();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let eval = Evaluator::saturated(&m)
            .evaluate(&g, &Placement::all_on(g.vertex_count(), SocketId(0)));
        assert!((eval.k_events_per_sec() - eval.throughput / 1e3).abs() < 1e-9);
    }
}
