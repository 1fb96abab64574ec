//! Branch-and-bound placement optimization (Algorithm 2 of the paper).
//!
//! The search enumerates a tree whose nodes are *partial placements* of the
//! execution graph's vertices onto sockets. Branching follows the
//! **collocation heuristic**: each step resolves one producer→consumer
//! *collocation decision* — either the pair ends up on the same socket
//! (decision satisfied) or on different sockets. The **bounding function**
//! evaluates the performance model with every unplaced vertex treated as
//! collocated with all of its producers; this upper-bounds any completion,
//! so a node whose bound does not beat the incumbent solution is pruned
//! together with its whole subtree.
//!
//! Additional pruning per the paper:
//!
//! * **Best-fit**: when all predecessors of a decision's operators are
//!   already placed, the pair's output rate is fully determined and only the
//!   single best assignment is explored (ties → socket with least remaining
//!   cores, then lowest index).
//! * **Redundancy elimination**: identical partial placements reached along
//!   different decision paths are explored once.
//! * **Symmetry breaking**: all currently-empty sockets are interchangeable,
//!   so only the lowest-indexed empty socket is branched ("S1 is identical
//!   to S0 at this point", Figure 5).

use brisk_dag::{ExecutionGraph, Placement, VertexId};
use brisk_model::{Cursor, Evaluation, Evaluator, PreparedModel, ResourceDemand};
use brisk_numa::{Machine, SocketId};

/// Tuning knobs for the B&B search.
#[derive(Debug, Clone, Copy)]
pub struct PlacementOptions {
    /// Hard cap on explored nodes; the best solution found so far is
    /// returned when the budget runs out.
    pub max_nodes: usize,
    /// Executor-thread budget: solutions whose placement spawns more
    /// threads than this are infeasible. Placement decides which fusable
    /// pairs collocate (and therefore fuse away their threads), so without
    /// this the search would happily split every fused chain to buy
    /// parallelism the machine's thread budget cannot pay for. `None`
    /// disables the check (the per-socket core capacity still binds).
    pub max_executors: Option<usize>,
    /// Enable the best-fit heuristic (heuristic 2, first half).
    pub best_fit: bool,
    /// Enable visited-state deduplication (heuristic 2, second half).
    pub redundancy_elimination: bool,
    /// Seed the incumbent with a first-fit solution before searching
    /// (the Appendix D variant; sometimes prunes earlier, sometimes pays
    /// more than it saves).
    pub seed_first_fit: bool,
}

impl Default for PlacementOptions {
    fn default() -> Self {
        PlacementOptions {
            max_nodes: 200_000,
            max_executors: None,
            best_fit: true,
            redundancy_elimination: true,
            seed_first_fit: false,
        }
    }
}

/// Outcome of a placement search.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// The best valid placement found.
    pub placement: Placement,
    /// Modelled throughput of that placement (tuples/sec).
    pub throughput: f64,
    /// Full model evaluation of the final placement (bottleneck info feeds
    /// the scaling algorithm).
    pub evaluation: Evaluation,
    /// Nodes expanded.
    pub explored: usize,
    /// Nodes pruned by the bounding function.
    pub pruned: usize,
    /// Valid solution nodes encountered.
    pub solutions: usize,
}

/// Searches for the throughput-maximizing placement of `graph` on the
/// evaluator's machine. Returns `None` when no placement satisfies the
/// resource constraints (the signal that makes the scaling loop stop).
pub fn optimize_placement(
    evaluator: &Evaluator<'_>,
    graph: &ExecutionGraph<'_>,
    options: &PlacementOptions,
) -> Option<PlacementResult> {
    optimize_placement_seeded(evaluator, graph, options, None)
}

/// [`optimize_placement`] with an optional *warm-start* incumbent: a known
/// complete placement (typically the plan currently executing) is scored
/// first and installed as the incumbent before the search opens. Every
/// node whose bound cannot beat it is pruned immediately, so a re-search
/// after a small cost-model recalibration touches a fraction of the tree,
/// and the result is never worse than the seed under the current model.
/// A seed whose vertex count does not match `graph`, or that violates the
/// resource or executor-thread constraints, is silently ignored.
pub fn optimize_placement_seeded(
    evaluator: &Evaluator<'_>,
    graph: &ExecutionGraph<'_>,
    options: &PlacementOptions,
    seed: Option<&Placement>,
) -> Option<PlacementResult> {
    let machine = evaluator.machine;

    // Quick infeasibility check: total replicas cannot exceed total cores.
    if graph.total_replicas() > machine.total_cores() {
        return None;
    }

    let model = evaluator.prepare(graph);
    let mut search = Search::new(evaluator, &model, options);
    if let Some(seed) = seed {
        search.try_seed(seed);
    }
    if options.seed_first_fit {
        if let Some(p) = crate::strategies::first_fit(graph, machine) {
            search.try_seed(&p);
        }
    }
    let root = search.bounds.bound();
    search.visit(root, 0);

    let Search {
        best,
        explored,
        pruned,
        solutions,
        ..
    } = search;
    best.map(|(placement, throughput, evaluation)| PlacementResult {
        placement,
        throughput,
        evaluation,
        explored,
        pruned,
        solutions,
    })
}

/// One collocation decision: a directly connected vertex pair.
#[derive(Clone, Copy)]
struct Decision {
    producer: VertexId,
    consumer: VertexId,
    /// The pair fuses when collocated. Placing it apart versus together
    /// flips between queued-parallel and serialized-inline execution — a
    /// genuine objective trade-off the best-fit heuristic's unfused ranking
    /// cannot see, so such a decision keeps its full branch set.
    fusable: bool,
}

/// One way of resolving a decision: a socket for each endpoint the parent
/// node left unplaced, and the bound of the resulting node.
#[derive(Clone, Copy)]
struct Child {
    producer: Option<SocketId>,
    consumer: Option<SocketId>,
    bound: f64,
}

impl Child {
    /// A child not yet bounded.
    fn new(producer: Option<SocketId>, consumer: Option<SocketId>) -> Child {
        Child {
            producer,
            consumer,
            bound: f64::NAN,
        }
    }
}

/// A depth-first B&B over one prepared model. A node is the placement its
/// cursors hold, so expanding one places and unplaces a vertex or two and
/// allocates nothing.
///
/// Three cursors price three objectives. Complete placements are scored
/// under the fusion-aware model: the engine fuses eligible chains by
/// default, so the honest objective serializes fused chains, credits their
/// freed threads, and charges unfused edges the per-tuple queue-crossing
/// cost (splitting a chain is not free). Bounds and best-fit ranking stay
/// fusion-free — a partial placement's "unplaced = collocated" relaxation
/// would fuse everything and under-state completions, while the unfused
/// bound remains admissible (in-search placements never oversubscribe a
/// socket, so the fused objective only removes capacity versus the bound's
/// model). The bound is tightened fusion-aware: edges *no* placement can
/// fuse (replica counts or partitioning already rule it out) are charged
/// the queue-crossing cost every completion pays on them, pruning harder
/// with no risk to optimality.
struct Search<'s> {
    graph: &'s ExecutionGraph<'s>,
    machine: &'s Machine,
    options: &'s PlacementOptions,
    /// Every directly connected vertex pair, in deterministic
    /// (producer-topo, consumer-topo) order.
    decisions: Vec<Decision>,
    /// Vertices no decision mentions (e.g. extra replicas of a
    /// `Global`-partitioned consumer): exactly the ones still unplaced once
    /// every decision is resolved.
    isolated: Vec<VertexId>,
    /// The current node under [`Evaluator::bounding`]: every child's bound.
    bounds: Cursor<'s>,
    /// The current node under the caller's evaluator: best-fit ranking.
    ranks: Cursor<'s>,
    /// Complete placements under [`Evaluator::fused_engine`]: the
    /// thread-budget check and the score.
    scorer: Cursor<'s>,
    /// Replicas per socket at the current node.
    used: Vec<usize>,
    visited: Visited,
    /// Children of every node on the DFS path, one slice per depth.
    frames: Vec<Child>,
    /// The scorer's latest evaluation and its resource demand.
    scored: Evaluation,
    demand: ResourceDemand,
    best: Option<(Placement, f64, Evaluation)>,
    explored: usize,
    pruned: usize,
    solutions: usize,
}

impl<'s> Search<'s> {
    fn new(
        evaluator: &Evaluator<'s>,
        model: &'s PreparedModel<'s>,
        options: &'s PlacementOptions,
    ) -> Search<'s> {
        let graph = model.graph();
        let machine = evaluator.machine;

        let mut topo_pos = vec![0usize; graph.vertex_count()];
        for (i, &v) in graph.topological_order().iter().enumerate() {
            topo_pos[v.0] = i;
        }
        let mut pairs: Vec<(VertexId, VertexId)> =
            graph.edges().iter().map(|e| (e.from, e.to)).collect();
        pairs.sort_by_key(|&(p, c)| (topo_pos[p.0], topo_pos[c.0]));
        pairs.dedup();
        let mut isolated = vec![true; graph.vertex_count()];
        let decisions = pairs
            .into_iter()
            .map(|(producer, consumer)| {
                isolated[producer.0] = false;
                isolated[consumer.0] = false;
                Decision {
                    producer,
                    consumer,
                    fusable: graph.outgoing_edges(producer).any(|e| {
                        e.edge.to == consumer && model.fusable().is_edge_fused(e.edge.logical_edge)
                    }),
                }
            })
            .collect();

        Search {
            graph,
            machine,
            options,
            decisions,
            isolated: (0..graph.vertex_count())
                .filter(|&v| isolated[v])
                .map(VertexId)
                .collect(),
            bounds: model.cursor(&evaluator.bounding()),
            ranks: model.cursor(evaluator),
            scorer: model.cursor(&evaluator.fused_engine()),
            used: vec![0; machine.sockets()],
            visited: Visited::new(graph.vertex_count(), machine.sockets()),
            frames: Vec::new(),
            scored: Evaluation::default(),
            demand: ResourceDemand::default(),
            best: None,
            explored: 0,
            pruned: 0,
            solutions: 0,
        }
    }

    /// Expand the node the cursors hold, whose bound is `bound` and whose
    /// decisions before `resolved` are all resolved; then its subtree, most
    /// promising child first. Returns false once the node budget is spent.
    fn visit(&mut self, bound: f64, resolved: usize) -> bool {
        if self.explored >= self.options.max_nodes {
            return false;
        }
        self.explored += 1;
        if self.beaten(bound) {
            self.pruned += 1;
            return true;
        }

        // The first unresolved decision (both endpoints placed => resolved;
        // placements only grow along a path, so the scan never restarts).
        let placement = self.bounds.placement();
        let Some(next) = (resolved..self.decisions.len()).find(|&d| {
            let d = &self.decisions[d];
            placement.socket_of(d.producer).is_none() || placement.socket_of(d.consumer).is_none()
        }) else {
            self.visit_solution();
            return true;
        };
        let decision = self.decisions[next];

        let first = self.frames.len();
        self.push_candidates(decision);
        // Best-fit: if every predecessor of p (and of c except p) is placed,
        // the pair's rate is determined — keep only the best child.
        if self.frames.len() > first
            && self.options.best_fit
            && !decision.fusable
            && self.best_fit_applies(decision)
        {
            self.keep_best_fit(decision, first);
        }

        // Bound each child never seen before; keep those that may still
        // beat the incumbent.
        let mut kept = first;
        for i in first..self.frames.len() {
            let mut child = self.frames[i];
            self.step(decision, child, true);
            let fresh = !self.options.redundancy_elimination
                || self.visited.insert(self.bounds.placement());
            if fresh {
                child.bound = self.bounds.bound();
            }
            self.step(decision, child, false);
            if !fresh {
                continue;
            }
            if self.beaten(child.bound) {
                self.pruned += 1;
                continue;
            }
            self.frames[kept] = child;
            kept += 1;
        }
        self.frames.truncate(kept);
        self.frames[first..].sort_by(|a, b| a.bound.partial_cmp(&b.bound).expect("finite bounds"));

        // Depth first, the most promising (highest bound) child first.
        let mut open = true;
        for i in (first..kept).rev() {
            let child = self.frames[i];
            self.step(decision, child, true);
            open = self.visit(child.bound, next);
            self.step(decision, child, false);
            if !open {
                break;
            }
        }
        self.frames.truncate(first);
        open
    }

    /// Whether the incumbent already matches or beats anything under a
    /// node with this bound.
    fn beaten(&self, bound: f64) -> bool {
        self.best
            .as_ref()
            .is_some_and(|&(_, incumbent, _)| bound <= incumbent)
    }

    /// Move the node to `child` (`forward`) or back to its parent. Cursors
    /// price lazily, so a move nobody reads before it is taken back (into a
    /// solution node, or one the incumbent prunes on entry) is a slot write.
    fn step(&mut self, decision: Decision, child: Child, forward: bool) {
        for (v, socket) in [
            (decision.producer, child.producer),
            (decision.consumer, child.consumer),
        ] {
            let Some(socket) = socket else { continue };
            let multiplicity = self.graph.vertex(v).multiplicity;
            if forward {
                self.bounds.place(v, socket);
                self.ranks.place(v, socket);
                self.used[socket.0] += multiplicity;
            } else {
                self.bounds.unplace(v);
                self.ranks.unplace(v);
                self.used[socket.0] -= multiplicity;
            }
        }
    }

    /// Whether `socket` can host `need` more replicas, with empty-socket
    /// symmetry breaking: of all sockets currently hosting nothing, only
    /// the first (tracked in `offered_empty` across one sweep) is offered.
    fn admits(&self, socket: SocketId, need: usize, offered_empty: &mut bool) -> bool {
        let cores = self.machine.cores_per_socket();
        match self.used[socket.0] {
            0 => {
                let offer = !*offered_empty && need <= cores;
                *offered_empty |= offer;
                offer
            }
            used => used + need <= cores,
        }
    }

    /// Push every child resolving `decision` from the current node.
    fn push_candidates(&mut self, decision: Decision) {
        let placement = self.bounds.placement();
        let place_producer = placement.socket_of(decision.producer).is_none();
        let place_consumer = placement.socket_of(decision.consumer).is_none();
        let pm = self.graph.vertex(decision.producer).multiplicity;
        let cm = self.graph.vertex(decision.consumer).multiplicity;
        debug_assert!(place_producer || place_consumer, "decision is unresolved");
        if place_producer && place_consumer {
            let mut offered_empty = false;
            for s1 in self.machine.socket_ids() {
                if !self.admits(s1, pm, &mut offered_empty) {
                    continue;
                }
                self.used[s1.0] += pm;
                let mut offered_empty = false;
                for s2 in self.machine.socket_ids() {
                    if self.admits(s2, cm, &mut offered_empty) {
                        self.frames.push(Child::new(Some(s1), Some(s2)));
                    }
                }
                self.used[s1.0] -= pm;
            }
        } else {
            // One endpoint is placed. Collocation with it is already
            // covered when its socket is feasible; nothing extra to add.
            let need = if place_producer { pm } else { cm };
            let mut offered_empty = false;
            for s in self.machine.socket_ids() {
                if self.admits(s, need, &mut offered_empty) {
                    self.frames.push(Child::new(
                        place_producer.then_some(s),
                        place_consumer.then_some(s),
                    ));
                }
            }
        }
    }

    /// Heuristic-2 precondition: placing this pair cannot affect any
    /// predecessor's rate, because all predecessors of `p`, and all
    /// predecessors of `c` other than `p`, are already placed.
    fn best_fit_applies(&self, decision: Decision) -> bool {
        let placement = self.bounds.placement();
        let placed = |v: VertexId| placement.socket_of(v).is_some();
        self.graph
            .incoming_edges(decision.producer)
            .all(|e| placed(e.edge.from))
            && self
                .graph
                .incoming_edges(decision.consumer)
                .all(|e| e.edge.from == decision.producer || placed(e.edge.from))
    }

    /// Reduce the children `frames[first..]` to the single best fit: the
    /// highest output rate of the consumer, ties to the socket with the
    /// least remaining cores, then to the earliest candidate.
    fn keep_best_fit(&mut self, decision: Decision, first: usize) {
        let cores = self.machine.cores_per_socket();
        let mut best: Option<(f64, usize, Child)> = None;
        for i in first..self.frames.len() {
            let child = self.frames[i];
            self.step(decision, child, true);
            let rate = self.ranks.output_rate(decision.consumer);
            let home = self
                .ranks
                .placement()
                .socket_of(decision.consumer)
                .expect("candidate places c");
            let remaining = cores.saturating_sub(self.used[home.0]);
            self.step(decision, child, false);
            let better = best
                .as_ref()
                .map_or(true, |&(best_rate, best_remaining, _)| {
                    match rate.partial_cmp(&best_rate).expect("rates are finite") {
                        std::cmp::Ordering::Greater => true,
                        std::cmp::Ordering::Equal => remaining < best_remaining,
                        std::cmp::Ordering::Less => false,
                    }
                });
            if better {
                best = Some((rate, remaining, child));
            }
        }
        let (_, _, child) = best.expect("at least one candidate");
        self.frames.truncate(first);
        self.frames.push(child);
    }

    /// Every decision is resolved: mop up isolated vertices on the
    /// emptiest feasible socket, then treat the placement as a solution
    /// candidate.
    fn visit_solution(&mut self) {
        self.scorer.load(self.bounds.placement());
        let cores = self.machine.cores_per_socket();
        let mut complete = true;
        for i in 0..self.isolated.len() {
            let v = self.isolated[i];
            let multiplicity = self.graph.vertex(v).multiplicity;
            let emptiest = self
                .machine
                .socket_ids()
                .map(|s| (cores.saturating_sub(self.used[s.0]), s))
                .filter(|&(free, _)| free >= multiplicity)
                .max_by_key(|&(free, s)| (free, std::cmp::Reverse(s)));
            match emptiest {
                Some((_, s)) => {
                    self.scorer.place(v, s);
                    self.used[s.0] += multiplicity;
                }
                None => complete = false, // could not fit the leftovers
            }
        }
        if complete {
            if let Some(throughput) = self.score() {
                self.solutions += 1;
                if self.improves(throughput) {
                    self.adopt();
                }
            }
        }
        for &v in &self.isolated {
            if let Some(s) = self.scorer.placement().socket_of(v) {
                self.used[s.0] -= self.graph.vertex(v).multiplicity;
            }
        }
    }

    /// Score a known complete placement and install it as the incumbent if
    /// it is valid and the best so far.
    fn try_seed(&mut self, seed: &Placement) {
        if seed.len() != self.graph.vertex_count() || !seed.is_complete() {
            return;
        }
        self.scorer.load(seed);
        if let Some(throughput) = self.score() {
            if self.improves(throughput) {
                self.solutions += 1;
                self.adopt();
            }
        }
    }

    /// Throughput of the scorer's complete placement, or `None` when it is
    /// infeasible: it splits so many fusable pairs that it spawns more
    /// threads than the budget (fused-away replicas ride their hosts,
    /// everyone else costs a thread), or it violates Eq. 3–5.
    fn score(&mut self) -> Option<f64> {
        if self
            .options
            .max_executors
            .is_some_and(|cap| self.scorer.spawned_executors() > cap)
        {
            return None;
        }
        self.scorer.evaluate_into(&mut self.scored);
        self.demand.measure(
            self.machine,
            self.graph,
            self.scorer.placement(),
            &self.scored,
        );
        let feasible = self.demand.violations(self.machine).next().is_none();
        feasible.then_some(self.scored.throughput)
    }

    fn improves(&self, throughput: f64) -> bool {
        self.best
            .as_ref()
            .map_or(true, |&(_, incumbent, _)| throughput > incumbent)
    }

    /// Make the placement just scored the incumbent.
    fn adopt(&mut self) {
        self.best = Some((
            self.scorer.placement().clone(),
            self.scored.throughput,
            self.scored.clone(),
        ));
    }
}

/// Redundancy elimination: the partial placements already bounded, keyed on
/// the placement itself — a hash of it could collide and silently drop a
/// never-visited state from a search documented as exact. Keys are packed a
/// few bits per vertex and stored back to back, so recording a state
/// allocates nothing beyond the arena's amortized growth.
struct Visited {
    /// Bits per vertex: 0 = unplaced, else socket + 1.
    bits: usize,
    /// `u64` words per key; a vertex never straddles two.
    width: usize,
    /// Every recorded key, back to back.
    keys: Vec<u64>,
    /// Open-addressing table over `keys`: key number + 1, or 0 for empty.
    /// A power of two long and at most half full.
    slots: Vec<u32>,
    /// The key being looked up.
    probe: Vec<u64>,
}

impl Visited {
    fn new(vertices: usize, sockets: usize) -> Visited {
        let bits = (usize::BITS - sockets.leading_zeros()) as usize;
        let width = vertices.div_ceil(64 / bits).max(1);
        Visited {
            bits,
            width,
            keys: Vec::new(),
            slots: vec![0; 64],
            probe: vec![0; width],
        }
    }

    /// Record `placement`; false if it was recorded before.
    fn insert(&mut self, placement: &Placement) -> bool {
        let per_word = 64 / self.bits;
        self.probe.fill(0);
        for v in 0..placement.len() {
            let slot = placement.socket_of(VertexId(v)).map_or(0, |s| s.0 + 1) as u64;
            self.probe[v / per_word] |= slot << (v % per_word * self.bits);
        }
        let recorded = self.keys.len() / self.width;
        if (recorded + 1) * 2 > self.slots.len() {
            self.slots = vec![0; self.slots.len() * 2];
            for (number, key) in self.keys.chunks_exact(self.width).enumerate() {
                let free = Self::find(&self.slots, &self.keys, self.width, key);
                self.slots[free] = number as u32 + 1;
            }
        }
        let at = Self::find(&self.slots, &self.keys, self.width, &self.probe);
        if self.slots[at] != 0 {
            return false;
        }
        self.slots[at] = u32::try_from(recorded + 1).expect("fewer than 2^32 states");
        self.keys.extend_from_slice(&self.probe);
        true
    }

    /// The slot holding `key`, or the empty slot where it belongs.
    fn find(slots: &[u32], keys: &[u64], width: usize, key: &[u64]) -> usize {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{BuildHasher, BuildHasherDefault};
        let mask = slots.len() - 1;
        let mut at = BuildHasherDefault::<DefaultHasher>::default().hash_one(key) as usize & mask;
        loop {
            match slots[at] {
                0 => return at,
                number if &keys[(number as usize - 1) * width..][..width] == key => return at,
                _ => at = (at + 1) & mask,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_dag::{CostProfile, TopologyBuilder};
    use brisk_model::{ConstraintReport, Ingress, TfPolicy};
    use brisk_numa::MachineBuilder;

    fn machine(sockets: usize, cores: usize) -> Machine {
        MachineBuilder::new("bb")
            .sockets(sockets)
            .tray_size(4)
            .cores_per_socket(cores)
            .clock_ghz(1.0)
            .local_latency_ns(50.0)
            .one_hop_latency_ns(300.0)
            .max_hop_latency_ns(500.0)
            .local_bandwidth_gbps(50.0)
            .one_hop_bandwidth_gbps(10.0)
            .max_hop_bandwidth_gbps(5.0)
            .build()
    }

    fn pipeline(n_bolts: usize) -> brisk_dag::LogicalTopology {
        let mut b = TopologyBuilder::new("p");
        let mut prev = b.add_spout("spout", CostProfile::new(200.0, 0.0, 32.0, 64.0));
        for i in 0..n_bolts {
            let bolt = b.add_bolt(format!("b{i}"), CostProfile::new(400.0, 0.0, 32.0, 64.0));
            b.connect_shuffle(prev, bolt);
            prev = bolt;
        }
        let k = b.add_sink("sink", CostProfile::new(100.0, 0.0, 32.0, 64.0));
        b.connect_shuffle(prev, k);
        b.build().expect("valid")
    }

    /// Exhaustive baseline: enumerate every complete placement.
    fn brute_force(
        evaluator: &Evaluator<'_>,
        graph: &ExecutionGraph<'_>,
    ) -> Option<(Placement, f64)> {
        let n = graph.vertex_count();
        let m = evaluator.machine.sockets();
        let mut best: Option<(Placement, f64)> = None;
        let mut assignment = vec![0usize; n];
        loop {
            let mut p = Placement::empty(n);
            for (i, &s) in assignment.iter().enumerate() {
                p.place(VertexId(i), SocketId(s));
            }
            // Same objective the B&B scores solutions under: fusion-aware.
            let eval = evaluator.fused_engine().evaluate(graph, &p);
            if ConstraintReport::check(evaluator.machine, graph, &p, &eval).ok() {
                let better = best
                    .as_ref()
                    .map(|&(_, t)| eval.throughput > t)
                    .unwrap_or(true);
                if better {
                    best = Some((p, eval.throughput));
                }
            }
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == n {
                    return best;
                }
                assignment[i] += 1;
                if assignment[i] < m {
                    break;
                }
                assignment[i] = 0;
                i += 1;
            }
        }
    }

    /// Every placement of `vertices` over `sockets` (unplaced included) is a
    /// distinct key, and is recognised the second time.
    fn visited_is_exact(vertices: usize, sockets: usize) {
        let mut visited = Visited::new(vertices, sockets);
        let states = (sockets + 1).pow(vertices as u32);
        for round in 0..2 {
            for mut state in 0..states {
                let mut p = Placement::empty(vertices);
                for v in 0..vertices {
                    if let Some(s) = (state % (sockets + 1)).checked_sub(1) {
                        p.place(VertexId(v), SocketId(s));
                    }
                    state /= sockets + 1;
                }
                assert_eq!(visited.insert(&p), round == 0, "{p:?}");
            }
        }
    }

    #[test]
    fn visited_set_keys_on_the_placement_itself() {
        // 2, 3 and 4 bits per vertex, in one word; the table grows on the way.
        visited_is_exact(5, 2);
        visited_is_exact(4, 4);
        visited_is_exact(3, 8);
        // 33 vertices at 4 bits need three words. Neighbouring states
        // differ in a single slot, in any of the words.
        let mut visited = Visited::new(33, 8);
        assert_eq!(visited.width, 3);
        let mut p = Placement::empty(33);
        assert!(visited.insert(&p));
        for v in 0..33 {
            p.place(VertexId(v), SocketId(v % 8));
            assert!(visited.insert(&p));
            assert!(!visited.insert(&p));
        }
        p.unplace(VertexId(32));
        assert!(!visited.insert(&p), "seen on the way up");
        // Three bits per vertex leave the top bit of each word unused: the
        // 21st and 22nd vertices land in different words.
        let mut visited = Visited::new(22, 4);
        assert_eq!(visited.width, 2);
        let mut a = Placement::empty(22);
        a.place(VertexId(20), SocketId(3));
        let mut b = Placement::empty(22);
        b.place(VertexId(21), SocketId(3));
        assert!(visited.insert(&a));
        assert!(visited.insert(&b));
        assert!(!visited.insert(&a));
    }

    #[test]
    fn matches_brute_force_on_small_instance() {
        let m = machine(2, 2);
        let t = pipeline(2); // spout, b0, b1, sink = 4 vertices, 2^4 = 16 plans
        let g = ExecutionGraph::new(&t, &[1, 1, 1, 1], 1);
        let ev = Evaluator::saturated(&m);
        let bb = optimize_placement(&ev, &g, &PlacementOptions::default()).expect("plan");
        let bf = brute_force(&ev, &g).expect("plan");
        assert!(
            (bb.throughput - bf.1).abs() / bf.1 < 1e-9,
            "B&B {} vs brute force {}",
            bb.throughput,
            bf.1
        );
    }

    #[test]
    fn matches_brute_force_without_best_fit() {
        let m = machine(3, 2);
        let t = pipeline(1);
        let g = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let ev = Evaluator::saturated(&m);
        let options = PlacementOptions {
            best_fit: false,
            ..PlacementOptions::default()
        };
        let bb = optimize_placement(&ev, &g, &options).expect("plan");
        let bf = brute_force(&ev, &g).expect("plan");
        assert!((bb.throughput - bf.1).abs() / bf.1 < 1e-9);
    }

    #[test]
    fn collocates_when_it_fits() {
        // Plenty of cores on one socket and no fusable chain (the bolts
        // are replicated): the optimal plan is fully collocated — no
        // fetch cost at all.
        let m = machine(2, 8);
        let t = pipeline(2);
        let g = ExecutionGraph::new(&t, &[1, 2, 2, 1], 1);
        let ev = Evaluator::saturated(&m);
        let r = optimize_placement(&ev, &g, &PlacementOptions::default()).expect("plan");
        let sockets = r.placement.sockets_used();
        assert_eq!(sockets.len(), 1, "expected full collocation: {:?}", sockets);
        assert!(r.evaluation.vertices.iter().all(|v| v.tf_ns == 0.0));
    }

    #[test]
    fn splits_a_fusable_chain_when_serialization_binds() {
        // [1,1,1,1] fuses end to end when collocated: one thread running
        // 200+400+400+100 = 1100 ns (0.91M). With spare cores around, the
        // honest objective breaks the chain across sockets — paying one
        // fetch hop to win back pipeline parallelism — so full collocation
        // is no longer optimal for a fully fusable chain.
        let m = machine(2, 8);
        let t = pipeline(2);
        let g = ExecutionGraph::new(&t, &[1, 1, 1, 1], 1);
        let ev = Evaluator::saturated(&m);
        let r = optimize_placement(&ev, &g, &PlacementOptions::default()).expect("plan");
        let all_on_0 = Placement::all_on(g.vertex_count(), SocketId(0));
        let serialized = ev.with_fusion(true).evaluate(&g, &all_on_0).throughput;
        assert!((serialized - 1e9 / 1100.0).abs() < 1.0);
        assert!(
            r.throughput > serialized * 1.2,
            "splitting should clearly beat the serialized chain: {} vs {serialized}",
            r.throughput
        );
        assert_eq!(r.placement.sockets_used().len(), 2, "chain must break");
    }

    #[test]
    fn spreads_when_socket_too_small() {
        // 2 cores per socket force the 4 replicas across >= 2 sockets.
        let m = machine(4, 2);
        let t = pipeline(2);
        let g = ExecutionGraph::new(&t, &[1, 1, 1, 1], 1);
        let ev = Evaluator::saturated(&m);
        let r = optimize_placement(&ev, &g, &PlacementOptions::default()).expect("plan");
        assert!(r.placement.is_complete());
        assert!(r.placement.sockets_used().len() >= 2);
        // Feasible w.r.t. cores.
        for s in m.socket_ids() {
            let used: usize = r
                .placement
                .vertices_on(s)
                .map(|v| g.vertex(v).multiplicity)
                .sum();
            assert!(used <= 2);
        }
    }

    #[test]
    fn infeasible_when_replicas_exceed_cores() {
        let m = machine(2, 1);
        let t = pipeline(2); // 4 replicas > 2 cores total
        let g = ExecutionGraph::new(&t, &[1, 1, 1, 1], 1);
        let ev = Evaluator::saturated(&m);
        assert!(optimize_placement(&ev, &g, &PlacementOptions::default()).is_none());
    }

    #[test]
    fn respects_node_budget() {
        let m = machine(4, 4);
        let t = pipeline(3);
        let g = ExecutionGraph::new(&t, &[2, 2, 2, 2, 2], 1);
        let ev = Evaluator::saturated(&m);
        let options = PlacementOptions {
            max_nodes: 50,
            ..PlacementOptions::default()
        };
        let r = optimize_placement(&ev, &g, &options);
        if let Some(r) = r {
            assert!(r.explored <= 51);
        }
    }

    #[test]
    fn never_remote_policy_collapses_distance() {
        // Under RLAS_fix(U) any feasible spread looks equally good to the
        // optimizer; the plan is still valid, just potentially bad when
        // re-evaluated with the true model.
        let m = machine(2, 2);
        let t = pipeline(2);
        let g = ExecutionGraph::new(&t, &[1, 1, 1, 1], 1);
        let ev = Evaluator::saturated(&m).with_policy(TfPolicy::NeverRemote);
        let r = optimize_placement(&ev, &g, &PlacementOptions::default()).expect("plan");
        assert!(r.placement.is_complete());
    }

    #[test]
    fn finite_ingress_plan_found() {
        let m = machine(2, 4);
        let t = pipeline(1);
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let ev = Evaluator::saturated(&m).with_ingress(Ingress::Rate(1e5));
        let r = optimize_placement(&ev, &g, &PlacementOptions::default()).expect("plan");
        assert!((r.throughput - 1e5).abs() < 1.0);
    }

    #[test]
    fn warm_seed_placement_never_worse_than_seed() {
        let m = machine(4, 2);
        let t = pipeline(2);
        let g = ExecutionGraph::new(&t, &[1, 2, 1, 1], 1);
        let ev = Evaluator::saturated(&m);
        let options = PlacementOptions::default();
        let cold = optimize_placement(&ev, &g, &options).expect("plan");
        // Seed with a deliberately mediocre first-fit placement: the search
        // must return something at least that good, and — because the seed
        // counts as a solution — at least one solution even under a
        // starved node budget.
        let seed = crate::strategies::first_fit(&g, &m).expect("fits");
        let seed_score = ev.fused_engine().evaluate(&g, &seed).throughput;
        let starved = PlacementOptions {
            max_nodes: 1,
            ..options
        };
        let r = optimize_placement_seeded(&ev, &g, &starved, Some(&seed)).expect("seed survives");
        assert!(r.throughput >= seed_score * (1.0 - 1e-9));
        // With the full budget the seeded search matches the cold optimum.
        let full = optimize_placement_seeded(&ev, &g, &options, Some(&seed)).expect("plan");
        assert!((full.throughput - cold.throughput).abs() / cold.throughput < 1e-9);
    }

    #[test]
    fn seeded_search_not_worse() {
        let m = machine(4, 2);
        let t = pipeline(2);
        let g = ExecutionGraph::new(&t, &[1, 2, 1, 1], 1);
        let ev = Evaluator::saturated(&m);
        let plain = optimize_placement(&ev, &g, &PlacementOptions::default()).expect("plan");
        let seeded = optimize_placement(
            &ev,
            &g,
            &PlacementOptions {
                seed_first_fit: true,
                ..PlacementOptions::default()
            },
        )
        .expect("plan");
        assert!((seeded.throughput - plain.throughput).abs() / plain.throughput < 1e-9);
    }
}
