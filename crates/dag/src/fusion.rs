//! Operator-chain fusion groups.
//!
//! The paper's execution-graph compression (heuristic 3) groups co-located
//! replicas to shrink the placement search space; fusion takes the same
//! idea to the *execution* layer. When a producer→consumer pair is wired
//! 1:1 at the replica level — one producer replica feeding one consumer
//! replica — and both replicas sit on the same (virtual) socket, the queue
//! crossing between them buys nothing: the engine can run the consumer
//! *inline* inside the producer's executor, eliminating the per-jumbo
//! push/pop and the consumer's poll/back-off loop on that edge.
//!
//! A [`FusionPlan`] is the plan-level answer to "which edges collapse":
//! it is derived from a topology plus a replication configuration (and,
//! when available, the per-replica socket assignment of an
//! [`crate::ExecutionPlan`]), and is consumed by both the runtime (to
//! rewire executors) and the model (to drop the Formula-2 communication
//! term on fused edges).
//!
//! # Eligibility
//!
//! An operator `v` fuses into its producer `u` when **all** of:
//!
//! * every incoming edge of `v` originates at `u` (single upstream
//!   operator — otherwise `v` would need to live in two executors);
//! * `u` and `v` run the **same replica count** `n`, and every `u → v`
//!   edge routes replica `i` to replica `i` — a genuine 1:1 replica
//!   pairing, so the engine can run `v`'s replica `i` inline inside `u`'s
//!   replica `i`:
//!   * `n == 1`: every partitioning strategy (Shuffle, KeyBy, Broadcast,
//!     Global, Forward) degenerates to "deliver to replica 0";
//!   * `n > 1` (**pairwise fusion**): the edge must be
//!     [`Partitioning::Forward`] (`i → i` by definition), or an **aligned
//!     KeyBy**: `u` is *key-confined* — each of its replicas only ever
//!     holds tuples whose key hashes to its own index, because every path
//!     into `u` is KeyBy (or Forward from an equally-replicated, confined,
//!     key-preserving producer) — and `u` is declared
//!     [key-preserving](crate::topology::OperatorSpec::is_key_preserving),
//!     so its emissions re-hash to the same index under the consumer's
//!     identical `mix_key(key) % n` router;
//! * every replica pair `(u_i, v_i)` shares a socket (unplaced replicas
//!   count as collocated, matching the model's bounding relaxation).
//!
//! Chains compose transitively: if `s → a` and `a → b` both fuse, the
//! three operators form one executor (per replica pair) rooted at `s`
//! (the chain *host*); a fused edge requires equal replica counts, so a
//! whole chain shares one count and pairs index-wise end to end.
//! Spouts are never fused away (they have no producer); sinks may be.

use crate::graph::ExecutionGraph;
use crate::plan::Placement;
use crate::topology::{LogicalTopology, OperatorId, Partitioning};
use brisk_numa::SocketId;

/// Which operators fuse into which producers, and which logical edges
/// consequently carry no queue. See the [module docs](self) for the
/// eligibility rules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusionPlan {
    /// Direct host per operator: the producer an operator fuses into, or
    /// itself when it keeps its own executor.
    host: Vec<usize>,
    /// Per logical edge: whether the edge is fused (inline, no queue).
    fused_edges: Vec<bool>,
}

impl FusionPlan {
    /// The identity plan: nothing fuses (fusion disabled).
    pub fn disabled(topology: &LogicalTopology) -> FusionPlan {
        FusionPlan {
            host: (0..topology.operator_count()).collect(),
            fused_edges: vec![false; topology.edges().len()],
        }
    }

    /// Compute fusion groups for `topology` under `replication`.
    ///
    /// `replica_sockets`, when given, assigns a socket to every global
    /// replica index (operator-major, as produced by the runtime's
    /// `plan_replica_sockets`); `None` means placement is unknown and all
    /// replicas count as collocated.
    ///
    /// # Panics
    /// Panics if `replication` does not cover every operator or
    /// `replica_sockets` (when given) does not cover every replica.
    pub fn compute(
        topology: &LogicalTopology,
        replication: &[usize],
        replica_sockets: Option<&[SocketId]>,
    ) -> FusionPlan {
        let known: Option<Vec<Option<SocketId>>> =
            replica_sockets.map(|sockets| sockets.iter().map(|&s| Some(s)).collect());
        FusionPlan::compute_partial(topology, replication, known.as_deref())
    }

    /// [`FusionPlan::compute`] for *partially known* placements: `None`
    /// entries are replicas whose socket is undecided and count as
    /// collocated with anything (the bounding relaxation) — but replica
    /// pairs whose sockets are both known and **differ** still block
    /// fusion, unlike the all-or-nothing `compute` wrapper.
    pub fn compute_partial(
        topology: &LogicalTopology,
        replication: &[usize],
        replica_sockets: Option<&[Option<SocketId>]>,
    ) -> FusionPlan {
        assert_eq!(
            replication.len(),
            topology.operator_count(),
            "replication must cover every operator"
        );
        let total: usize = replication.iter().sum();
        if let Some(sockets) = replica_sockets {
            assert_eq!(sockets.len(), total, "sockets must cover every replica");
        }
        let mut replica_base = vec![0usize; replication.len()];
        let mut acc = 0;
        for (op, base) in replica_base.iter_mut().enumerate() {
            *base = acc;
            acc += replication[op];
        }

        // Key confinement per operator (see module docs): replica `i` only
        // ever holds tuples with `mix_key(key) % n == i`. True when every
        // incoming edge is KeyBy (the router itself partitions the key
        // space over the operator's n replicas), or Forward from an
        // equally-replicated producer that is itself confined and
        // key-preserving (the pairing relays the confinement unchanged).
        // Computed in topological order so producers resolve first.
        let mut confined = vec![false; replication.len()];
        for &op in topology.topological_order() {
            let mut edges = topology.incoming_edges(op).peekable();
            if edges.peek().is_none() {
                continue; // spouts emit arbitrary keys
            }
            confined[op.0] = edges.all(|e| match e.partitioning {
                Partitioning::KeyBy => true,
                Partitioning::Forward => {
                    replication[e.from.0] == replication[op.0]
                        && confined[e.from.0]
                        && topology.operator(e.from).is_key_preserving()
                }
                _ => false,
            });
        }

        let mut plan = FusionPlan::disabled(topology);
        for (v, _) in topology.operators() {
            let mut incoming = topology
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| e.to == v);
            let Some((first_lei, first)) = incoming.next() else {
                continue; // spout: no producer to fuse into
            };
            let u = first.from;
            let mut edge_indices = vec![first_lei];
            let mut single_upstream = true;
            for (lei, e) in incoming {
                if e.from != u {
                    single_upstream = false;
                    break;
                }
                edge_indices.push(lei);
            }
            let n = replication[v.0];
            if !single_upstream || replication[u.0] != n {
                continue;
            }
            // With one replica pair every strategy delivers to replica 0;
            // at n > 1 only Forward and aligned KeyBy pin the i -> i map.
            let pairs_one_to_one = n == 1
                || edge_indices
                    .iter()
                    .all(|&lei| match topology.edges()[lei].partitioning {
                        Partitioning::Forward => true,
                        Partitioning::KeyBy => {
                            confined[u.0] && topology.operator(u).is_key_preserving()
                        }
                        _ => false,
                    });
            if !pairs_one_to_one {
                continue;
            }
            // Same-socket check per replica pair; a pair is collocated
            // unless both sockets are known and differ (unplaced/unknown
            // counts as collocated).
            if let Some(sockets) = replica_sockets {
                let collocated = (0..n).all(|r| {
                    match (
                        sockets[replica_base[u.0] + r],
                        sockets[replica_base[v.0] + r],
                    ) {
                        (Some(a), Some(b)) => a == b,
                        _ => true,
                    }
                });
                if !collocated {
                    continue;
                }
            }
            plan.host[v.0] = u.0;
            for lei in edge_indices {
                plan.fused_edges[lei] = true;
            }
        }
        plan
    }

    /// Compute fusion groups from a (possibly compressed, possibly
    /// partially placed) execution graph — the model-side entry point.
    /// Unplaced vertices count as collocated (the bounding relaxation),
    /// but pairs the placement explicitly splits across sockets still
    /// block fusion even when other vertices remain unplaced.
    pub fn from_graph(graph: &ExecutionGraph<'_>, placement: &Placement) -> FusionPlan {
        let topology = graph.topology();
        let mut sockets: Vec<Option<SocketId>> = Vec::with_capacity(graph.total_replicas());
        for (op, _) in topology.operators() {
            for &v in graph.vertices_of(op) {
                let socket = placement.socket_of(v);
                for _ in 0..graph.vertex(v).multiplicity {
                    sockets.push(socket);
                }
            }
        }
        FusionPlan::compute_partial(topology, graph.replication(), Some(&sockets))
    }

    /// Whether logical edge `lei` is fused (travels inline, no queue).
    pub fn is_edge_fused(&self, lei: usize) -> bool {
        self.fused_edges[lei]
    }

    /// Whether `op` was fused away into a producer (it spawns no executor
    /// of its own).
    pub fn is_fused_away(&self, op: OperatorId) -> bool {
        self.host[op.0] != op.0
    }

    /// The direct producer hosting `op` (itself when not fused away).
    pub fn direct_host_of(&self, op: OperatorId) -> OperatorId {
        OperatorId(self.host[op.0])
    }

    /// The executor that ultimately runs `op`: the root of its fusion
    /// chain (itself when not fused away).
    pub fn root_host_of(&self, op: OperatorId) -> OperatorId {
        let mut cur = op.0;
        while self.host[cur] != cur {
            cur = self.host[cur];
        }
        OperatorId(cur)
    }

    /// Number of operators fused away (executors saved).
    pub fn fused_op_count(&self) -> usize {
        self.host
            .iter()
            .enumerate()
            .filter(|&(i, &h)| h != i)
            .count()
    }

    /// Number of logical edges carried inline.
    pub fn fused_edge_count(&self) -> usize {
        self.fused_edges.iter().filter(|&&f| f).count()
    }

    /// Executor threads the engine spawns under `replication` with this
    /// plan: fused-away operators ride their hosts' threads, so each of
    /// their replicas is one thread saved. This is the quantity the RLAS
    /// replica budget constrains — fusion frees budget that can buy
    /// replication elsewhere.
    ///
    /// # Panics
    /// Panics if `replication` does not cover every operator.
    pub fn spawned_executors(&self, replication: &[usize]) -> usize {
        assert_eq!(
            replication.len(),
            self.host.len(),
            "replication must cover every operator"
        );
        self.host
            .iter()
            .enumerate()
            .filter(|&(op, &h)| h == op)
            .map(|(op, _)| replication[op])
            .sum()
    }

    /// Fusion chains with more than one operator, each listed root-first.
    pub fn chains(&self) -> Vec<Vec<OperatorId>> {
        let n = self.host.len();
        let mut members: Vec<Vec<OperatorId>> = vec![Vec::new(); n];
        for op in 0..n {
            if self.host[op] != op {
                members[self.root_host_of(OperatorId(op)).0].push(OperatorId(op));
            }
        }
        members
            .into_iter()
            .enumerate()
            .filter(|(_, m)| !m.is_empty())
            .map(|(root, mut m)| {
                m.sort();
                let mut chain = vec![OperatorId(root)];
                chain.append(&mut m);
                chain
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostProfile;
    use crate::plan::ExecutionPlan;
    use crate::topology::{Partitioning, TopologyBuilder, DEFAULT_STREAM};
    use crate::VertexId;

    /// spout -> a -> b -> sink, all shuffle.
    fn linear4() -> LogicalTopology {
        let mut b = TopologyBuilder::new("lin");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, a);
        b.connect_shuffle(a, x);
        b.connect_shuffle(x, k);
        b.build().expect("valid")
    }

    #[test]
    fn single_replica_chain_fuses_end_to_end() {
        let t = linear4();
        let plan = FusionPlan::compute(&t, &[1, 1, 1, 1], None);
        assert_eq!(plan.fused_op_count(), 3);
        assert_eq!(plan.fused_edge_count(), 3);
        assert!(!plan.is_fused_away(OperatorId(0)), "spouts never fuse away");
        for op in 1..4 {
            assert!(plan.is_fused_away(OperatorId(op)));
            assert_eq!(plan.root_host_of(OperatorId(op)), OperatorId(0));
        }
        assert_eq!(plan.direct_host_of(OperatorId(2)), OperatorId(1));
        assert_eq!(
            plan.chains(),
            vec![vec![
                OperatorId(0),
                OperatorId(1),
                OperatorId(2),
                OperatorId(3)
            ]]
        );
    }

    #[test]
    fn replication_breaks_the_chain() {
        let t = linear4();
        // a has 2 replicas: s->a (1:2) and a->x (2:1) both stay queued; the
        // x->k tail (1:1) still fuses.
        let plan = FusionPlan::compute(&t, &[1, 2, 1, 1], None);
        assert!(!plan.is_fused_away(OperatorId(1)));
        assert!(!plan.is_fused_away(OperatorId(2)));
        assert!(plan.is_fused_away(OperatorId(3)));
        assert_eq!(plan.direct_host_of(OperatorId(3)), OperatorId(2));
        assert_eq!(plan.fused_edge_count(), 1);
        assert!(plan.is_edge_fused(2));
        assert!(!plan.is_edge_fused(0));
    }

    #[test]
    fn cross_socket_placement_blocks_fusion() {
        use brisk_numa::SocketId;
        let t = linear4();
        // s,a on socket 0; x,k on socket 1: only s->a and x->k collocate.
        let sockets = [0, 0, 1, 1].map(SocketId);
        let plan = FusionPlan::compute(&t, &[1, 1, 1, 1], Some(&sockets));
        assert!(plan.is_fused_away(OperatorId(1)));
        assert!(!plan.is_fused_away(OperatorId(2)), "a->x crosses sockets");
        assert!(plan.is_fused_away(OperatorId(3)));
        assert_eq!(
            plan.chains(),
            vec![
                vec![OperatorId(0), OperatorId(1)],
                vec![OperatorId(2), OperatorId(3)]
            ]
        );
    }

    #[test]
    fn multi_upstream_consumer_never_fuses() {
        // diamond: s -> {a, b} -> k; k has two upstream operators.
        let mut b = TopologyBuilder::new("dia");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let x = b.add_bolt("b", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, a);
        b.connect_shuffle(s, x);
        b.connect_shuffle(a, k);
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        let plan = FusionPlan::compute(&t, &[1, 1, 1, 1], None);
        assert!(plan.is_fused_away(a));
        assert!(plan.is_fused_away(x));
        assert!(!plan.is_fused_away(k), "two upstream operators");
        assert_eq!(plan.fused_edge_count(), 2);
    }

    #[test]
    fn global_edge_fuses_only_from_a_single_producer_replica() {
        let mut b = TopologyBuilder::new("glob");
        let s = b.add_spout("s", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, k, Partitioning::Global);
        let t = b.build().expect("valid");
        let fused = FusionPlan::compute(&t, &[1, 1], None);
        assert!(fused.is_fused_away(t.find("k").expect("k")));
        // Three spout replicas funnel into one sink replica: 3:1, not 1:1.
        let unfused = FusionPlan::compute(&t, &[3, 1], None);
        assert_eq!(unfused.fused_op_count(), 0);
    }

    /// spout -> a (Forward) -> sink, replication [n, n, 1].
    fn forward3() -> LogicalTopology {
        let mut b = TopologyBuilder::new("fwd");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, a, Partitioning::Forward);
        b.connect_shuffle(a, k);
        b.build().expect("valid")
    }

    #[test]
    fn forward_edge_fuses_pairwise_at_equal_counts() {
        let t = forward3();
        let plan = FusionPlan::compute(&t, &[3, 3, 1], None);
        assert!(plan.is_fused_away(OperatorId(1)), "3:3 Forward pairs fuse");
        assert!(plan.is_edge_fused(0));
        assert!(!plan.is_fused_away(OperatorId(2)), "3:1 shuffle tail stays");
        assert_eq!(plan.spawned_executors(&[3, 3, 1]), 4, "3 hosts + 1 sink");
        // Count mismatch breaks the pairing even on a Forward edge.
        let unequal = FusionPlan::compute(&t, &[3, 2, 1], None);
        assert_eq!(unequal.fused_op_count(), 0);
        // Any split replica pair blocks the whole fusion.
        let sockets = [0, 0, 1, 0, 1, 0, 0].map(SocketId);
        let split = FusionPlan::compute(&t, &[3, 3, 1], Some(&sockets));
        assert!(
            !split.is_fused_away(OperatorId(1)),
            "pair 1 crosses sockets"
        );
        // Pairwise-collocated placement fuses even across busy sockets.
        let paired = [0, 1, 0, 0, 1, 0, 1].map(SocketId);
        let ok = FusionPlan::compute(&t, &[3, 3, 1], Some(&paired));
        assert!(ok.is_fused_away(OperatorId(1)));
    }

    /// spout -> a (KeyBy) -> b (KeyBy) -> sink; `a` optionally
    /// key-preserving.
    fn keyed4(preserving: bool) -> LogicalTopology {
        let mut b = TopologyBuilder::new("keyed");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, a, Partitioning::KeyBy);
        b.connect(a, DEFAULT_STREAM, x, Partitioning::KeyBy);
        b.connect_shuffle(x, k);
        if preserving {
            b.set_key_preserving(a);
        }
        b.build().expect("valid")
    }

    #[test]
    fn aligned_keyby_fuses_only_when_confined_and_preserving() {
        // a's replicas are key-confined (its only input is KeyBy over the
        // same 2 replicas) and a preserves keys: a -> x pairs i -> i.
        let plan = FusionPlan::compute(&keyed4(true), &[1, 2, 2, 1], None);
        assert!(plan.is_fused_away(OperatorId(2)), "aligned KeyBy fuses");
        assert!(plan.is_edge_fused(1));
        assert!(!plan.is_fused_away(OperatorId(1)), "1:2 head stays queued");
        // Without the key-preserving promise the alignment cannot be proven.
        let unproven = FusionPlan::compute(&keyed4(false), &[1, 2, 2, 1], None);
        assert!(!unproven.is_fused_away(OperatorId(2)));
        // A shuffled input breaks confinement even with the promise.
        let mut b = TopologyBuilder::new("shuffled");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, a);
        b.connect(a, DEFAULT_STREAM, x, Partitioning::KeyBy);
        b.connect_shuffle(x, k);
        b.set_key_preserving(a);
        let t = b.build().expect("valid");
        let plan = FusionPlan::compute(&t, &[1, 2, 2, 1], None);
        assert!(!plan.is_fused_away(OperatorId(2)), "unconfined producer");
    }

    #[test]
    fn join_shaped_keyby_confluence_is_confined_and_fuses_downstream() {
        // Join shape: two spouts KeyBy into one index-maintaining op. The
        // op itself can never fuse away (two upstream operators), but both
        // of its inputs are KeyBy over the same replica set, so it IS
        // key-confined — and when it preserves keys, its aligned-KeyBy
        // downstream edge fuses pairwise at equal counts.
        let build = |preserving: bool| {
            let mut b = TopologyBuilder::new("join");
            let l = b.add_spout("left", CostProfile::trivial());
            let r = b.add_spout("right", CostProfile::trivial());
            let j = b.add_bolt("join", CostProfile::trivial().with_state_access(50.0));
            let k = b.add_sink("sink", CostProfile::trivial());
            b.connect(l, "left", j, Partitioning::KeyBy);
            b.connect(r, "right", j, Partitioning::KeyBy);
            b.connect(j, DEFAULT_STREAM, k, Partitioning::KeyBy);
            if preserving {
                b.set_key_preserving(j);
            }
            b.build().expect("valid")
        };
        let t = build(true);
        let j = t.find("join").expect("join");
        let k = t.find("sink").expect("sink");
        let plan = FusionPlan::compute(&t, &[2, 2, 3, 3], None);
        assert!(!plan.is_fused_away(j), "two upstream operators");
        assert!(plan.is_fused_away(k), "aligned KeyBy below the join fuses");
        assert!(plan.is_edge_fused(2));
        assert_eq!(plan.direct_host_of(k), j);
        // Without the key-preserving promise the confluence stays queued.
        let unproven = FusionPlan::compute(&build(false), &[2, 2, 3, 3], None);
        assert!(!unproven.is_fused_away(k));
    }

    #[test]
    fn forward_relays_confinement_through_a_fused_pair() {
        // s -> a (KeyBy) -> x (Forward) -> y (KeyBy) -> k: x receives a's
        // confined keys 1:1 and preserves them, so x -> y is aligned too
        // and the whole a-chain fuses pairwise.
        let mut b = TopologyBuilder::new("relay");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let y = b.add_bolt("y", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, a, Partitioning::KeyBy);
        b.connect(a, DEFAULT_STREAM, x, Partitioning::Forward);
        b.connect(x, DEFAULT_STREAM, y, Partitioning::KeyBy);
        b.connect_shuffle(y, k);
        b.set_key_preserving(a);
        b.set_key_preserving(x);
        let t = b.build().expect("valid");
        let plan = FusionPlan::compute(&t, &[1, 2, 2, 2, 1], None);
        assert!(plan.is_fused_away(OperatorId(2)));
        assert!(plan.is_fused_away(OperatorId(3)), "confinement relayed");
        assert_eq!(plan.root_host_of(OperatorId(3)), OperatorId(1));
        assert_eq!(plan.spawned_executors(&[1, 2, 2, 2, 1]), 4);
    }

    #[test]
    fn disabled_plan_is_identity() {
        let t = linear4();
        let plan = FusionPlan::disabled(&t);
        assert_eq!(plan.fused_op_count(), 0);
        assert_eq!(plan.fused_edge_count(), 0);
        assert!(plan.chains().is_empty());
        for op in 0..4 {
            assert_eq!(plan.root_host_of(OperatorId(op)), OperatorId(op));
        }
    }

    #[test]
    fn from_graph_matches_compute_and_respects_partial_placements() {
        use brisk_numa::SocketId;
        let t = linear4();
        let graph = ExecutionGraph::new(&t, &[1, 1, 1, 1], 1);
        let mut placement = Placement::all_on(graph.vertex_count(), SocketId(0));
        placement.place(VertexId(2), SocketId(1));
        let plan = FusionPlan::from_graph(&graph, &placement);
        let sockets = [0, 0, 1, 0].map(SocketId);
        assert_eq!(plan, FusionPlan::compute(&t, &[1, 1, 1, 1], Some(&sockets)));
        // Partial placement: unplaced vertices count as collocated.
        let partial = Placement::empty(graph.vertex_count());
        let relaxed = FusionPlan::from_graph(&graph, &partial);
        assert_eq!(relaxed.fused_op_count(), 3);
        // ... but a pair the placement explicitly splits must NOT fuse,
        // even while unrelated vertices remain unplaced: s on socket 0,
        // a on socket 1, x/k undecided -> only s->a is blocked.
        let mut mixed = Placement::empty(graph.vertex_count());
        mixed.place(VertexId(0), SocketId(0));
        mixed.place(VertexId(1), SocketId(1));
        let strict = FusionPlan::from_graph(&graph, &mixed);
        assert!(!strict.is_fused_away(OperatorId(1)), "split pair blocked");
        assert!(strict.is_fused_away(OperatorId(2)), "a->x relaxed");
        assert!(strict.is_fused_away(OperatorId(3)));
        // Round-trip via an ExecutionPlan, multiplicity > 1 on one op.
        let graph2 = ExecutionGraph::new(&t, &[1, 3, 1, 1], 3);
        let plan2 = ExecutionPlan {
            replication: vec![1, 3, 1, 1],
            compress_ratio: 3,
            placement: Placement::all_on(graph2.vertex_count(), SocketId(0)),
        };
        let fused2 = FusionPlan::from_graph(&graph2, &plan2.placement);
        assert!(!fused2.is_fused_away(OperatorId(1)));
        assert!(!fused2.is_fused_away(OperatorId(2)));
        assert!(fused2.is_fused_away(OperatorId(3)));
    }
}
