//! The model split into what a graph fixes and what a placement changes.
//!
//! A B&B search prices hundreds of thousands of placements of *one*
//! execution graph, and each differs from the last by one or two vertices.
//! [`PreparedModel`] holds everything that does not depend on the placement —
//! flow factors, per-edge shares, cache-line counts, `Te`/`Others`/state
//! times, which pairs could fuse — in flat arrays, computed in one pass over
//! the graph. A [`Cursor`] holds one placement over it together with the
//! placement-dependent terms (`Tf`, queue charge, capacity per vertex,
//! pooled capacity per operator). Placing or unplacing a vertex is one slot
//! write; the next read re-prices only what the steps since the last read
//! touched, so a step taken back before anything was read costs nothing.
//!
//! # Bit identity
//!
//! Every value a cursor reports is the same `f64` bit pattern whichever
//! sequence of `place`/`unplace`/`load` calls led to its placement. Nothing
//! is ever updated by adding and subtracting a delta: a touched vertex's
//! weighted fetch term is re-summed over its own incoming edges, an
//! operator's pooled capacity over its own vertices, and `p*` over the
//! operators, each time from zero and each time in the same order. This
//! is load-bearing, not cosmetic: a node-capped B&B returns whatever it had
//! found when the cap hit, so its plan depends on visit order, and visit
//! order depends on bounds comparing exactly as they did in any other run.
//! `tests/planner_goldens.rs` pins the bits; `tests/cursor_differential.rs`
//! checks walks against one-shot passes.

use crate::evaluator::{
    cache_lines, worst_latency_ns, Evaluation, Evaluator, Ingress, VertexRates,
    BOTTLENECK_TOLERANCE,
};
use brisk_dag::{
    ExecutionGraph, FusionPlan, OperatorId, OperatorKind, Partitioning, Placement, VertexId,
};
use brisk_numa::{Machine, SocketId};
use std::ops::Range;

/// One execution edge as its consumer prices it.
#[derive(Debug, Clone, Copy, Default)]
struct Input {
    /// Producer vertex.
    from: usize,
    /// Tuples arriving over the edge per unit of aggregate spout output.
    share: f64,
    /// Cache lines per tuple: `ceil(N / S)` of Formula 2.
    lines: f64,
    /// Whether some placement fuses the edge (replica counts and
    /// partitioning allow it), so that a bound may not charge its crossing.
    fusable: bool,
}

/// Placement-independent terms of one execution vertex.
#[derive(Debug, Clone)]
struct VertexTerms {
    op: usize,
    kind: OperatorKind,
    multiplicity: usize,
    /// `Te`, `Others` and state access per tuple, ns.
    exec_ns: f64,
    overhead_ns: f64,
    state_ns: f64,
    /// Input and output tuples per unit of aggregate spout output.
    in_factor: f64,
    out_factor: f64,
    /// This vertex's slice of [`PreparedModel::inputs`]: its incoming edges
    /// in the order the flow pass reaches them (producers in topological
    /// order) — the order Formula 2's weighted mean is accumulated in.
    inputs: Range<usize>,
}

impl VertexTerms {
    /// Tuples handled per unit of aggregate spout output.
    fn demand(&self) -> f64 {
        if self.kind == OperatorKind::Spout {
            self.out_factor
        } else {
            self.in_factor
        }
    }
}

/// Placement-independent terms of one logical operator.
#[derive(Debug, Clone)]
struct OperatorTerms {
    /// The operator's vertices (contiguous in vertex order).
    vertices: Range<usize>,
    is_spout: bool,
    /// Pooled demand per unit of aggregate spout output: output for a
    /// spout, input otherwise.
    factor: f64,
    /// The producer this operator fuses into whenever every one of its
    /// replica groups shares a socket with the producer's.
    fusable_host: Option<usize>,
    /// A spout's selectivity per outgoing edge: its slice of
    /// [`PreparedModel::selectivities`].
    selectivities: Range<usize>,
}

/// Everything the performance model derives from an execution graph and a
/// machine alone; see the [module docs](self). Built by
/// [`Evaluator::prepare`] in one pass over vertices and edges.
#[derive(Debug, Clone)]
pub struct PreparedModel<'a> {
    graph: &'a ExecutionGraph<'a>,
    machine: &'a Machine,
    vertices: Vec<VertexTerms>,
    ops: Vec<OperatorTerms>,
    /// Incoming edges, grouped by consumer.
    inputs: Vec<Input>,
    /// Flow per unit of aggregate spout output, indexed like
    /// [`ExecutionGraph::edges`].
    edge_factor: Vec<f64>,
    selectivities: Vec<f64>,
    sinks: Vec<VertexId>,
    /// The optimistic (placement-free) fusion plan: edges outside it can
    /// never fuse, pairs inside it fuse exactly when collocated.
    fusable: FusionPlan,
    /// `fusable`'s chains, root first, then members ascending; a placement
    /// can only split them.
    chains: Vec<Vec<OperatorId>>,
    worst_latency_ns: f64,
}

impl<'a> PreparedModel<'a> {
    pub(crate) fn new(machine: &'a Machine, graph: &'a ExecutionGraph<'a>) -> PreparedModel<'a> {
        let topology = graph.topology();
        let clock = machine.clock_hz();
        let fusable = FusionPlan::compute(topology, graph.replication(), None);

        // Each vertex reserves one input slot per incoming edge and fills
        // them as the flow pass arrives (an edge carrying nothing never
        // does, and stays outside the vertex's range).
        let mut first_input = 0;
        let mut vertices: Vec<VertexTerms> = graph
            .vertices()
            .map(|(vid, vertex)| {
                let spec = graph.spec_of(vid);
                let inputs = first_input..first_input;
                first_input += graph.incoming_edges(vid).count();
                VertexTerms {
                    op: vertex.op.0,
                    kind: spec.kind,
                    multiplicity: vertex.multiplicity,
                    exec_ns: spec.cost.exec_cycles / clock * 1e9,
                    overhead_ns: spec.cost.overhead_cycles / clock * 1e9,
                    state_ns: spec.cost.state_cycles / clock * 1e9,
                    in_factor: 0.0,
                    out_factor: 0.0,
                    inputs,
                }
            })
            .collect();

        // Relative flow factors, per unit of aggregate spout output.
        let spout_vertices = graph.spout_vertices();
        let total_spout_mult: usize = spout_vertices
            .iter()
            .map(|&v| graph.vertex(v).multiplicity)
            .sum();
        for &v in &spout_vertices {
            vertices[v.0].out_factor =
                graph.vertex(v).multiplicity as f64 / total_spout_mult.max(1) as f64;
        }
        let mut edge_factor = vec![0.0f64; graph.edge_count()];
        let mut inputs = vec![Input::default(); graph.edge_count()];
        for &vid in graph.topological_order() {
            let vertex = graph.vertex(vid);
            let spec = graph.spec_of(vid);
            let is_spout = spec.kind == OperatorKind::Spout;
            for (lei, out) in topology.outgoing_edge_refs(vertex.op) {
                let stream = out.stream.as_str();
                // Exact Table 8 selectivities: per input stream for bolts.
                let stream_factor: f64 = if is_spout {
                    vertices[vid.0].out_factor * spec.selectivity(None, stream)
                } else {
                    graph
                        .incoming_edges(vid)
                        .map(|e| {
                            let in_stream = topology.edges()[e.edge.logical_edge].stream.as_str();
                            edge_factor[e.index] * spec.selectivity(Some(in_stream), stream)
                        })
                        .sum()
                };
                if stream_factor <= 0.0 {
                    continue;
                }
                vertices[vid.0].out_factor += if is_spout { 0.0 } else { stream_factor };
                // Distribute over the consumer vertices of this logical edge.
                let total_mult: usize = graph
                    .vertices_of(out.to)
                    .iter()
                    .map(|&c| graph.vertex(c).multiplicity)
                    .sum();
                let lines = cache_lines(spec.cost.output_bytes);
                let edge_fusable = fusable.is_edge_fused(lei);
                for e in graph.outgoing_edges(vid) {
                    if e.edge.logical_edge != lei {
                        continue;
                    }
                    let consumer = &mut vertices[e.edge.to.0];
                    let cmult = consumer.multiplicity as f64;
                    let share = match out.partitioning {
                        // Forward pairs replica i with replica i at equal
                        // counts (an exact even spread across the
                        // consumer's identically-shaped vertex groups) and
                        // degrades to Shuffle otherwise — either way the
                        // even spread below is what the engine executes.
                        Partitioning::Shuffle | Partitioning::KeyBy | Partitioning::Forward => {
                            stream_factor * cmult / total_mult as f64
                        }
                        Partitioning::Broadcast => stream_factor * cmult,
                        Partitioning::Global => stream_factor,
                    };
                    edge_factor[e.index] += share;
                    consumer.in_factor += share;
                    inputs[consumer.inputs.end] = Input {
                        from: vid.0,
                        share,
                        lines,
                        fusable: edge_fusable,
                    };
                    consumer.inputs.end += 1;
                }
            }
        }

        let mut selectivities = Vec::new();
        let mut ops = Vec::with_capacity(topology.operator_count());
        for (op, spec) in topology.operators() {
            let of_op = graph.vertices_of(op);
            let first = of_op[0].0;
            debug_assert!(of_op.iter().enumerate().all(|(i, v)| v.0 == first + i));
            let is_spout = spec.kind == OperatorKind::Spout;
            let mut factor = 0.0f64;
            for v in of_op {
                factor += vertices[v.0].demand();
            }
            let first_selectivity = selectivities.len();
            if is_spout {
                selectivities.extend(
                    topology
                        .outgoing_edges(op)
                        .map(|e| spec.selectivity(None, &e.stream)),
                );
            }
            let fusable_host = fusable
                .is_fused_away(op)
                .then(|| fusable.direct_host_of(op).0);
            // Equal replication along a fused edge + one compress ratio
            // means host and guest split into identical vertex groups.
            debug_assert!(fusable_host
                .map_or(true, |host| graph.vertices_of(OperatorId(host)).len()
                    == of_op.len()));
            ops.push(OperatorTerms {
                vertices: first..first + of_op.len(),
                is_spout,
                factor,
                fusable_host,
                selectivities: first_selectivity..selectivities.len(),
            });
        }

        PreparedModel {
            graph,
            machine,
            vertices,
            ops,
            inputs,
            edge_factor,
            selectivities,
            sinks: graph.sink_vertices(),
            chains: fusable.chains(),
            fusable,
            worst_latency_ns: worst_latency_ns(machine),
        }
    }

    /// The graph this model was prepared for.
    pub fn graph(&self) -> &'a ExecutionGraph<'a> {
        self.graph
    }

    /// The optimistic fusion plan — what fuses were every fusable pair
    /// collocated. Any placement's fused set is a subset of it.
    pub fn fusable(&self) -> &FusionPlan {
        &self.fusable
    }

    /// A cursor pricing placements of this graph under `evaluator`'s
    /// ingress, fetch policy and fusion switches, starting from the empty
    /// placement.
    ///
    /// # Panics
    /// Panics if `evaluator` is for a different machine than the one the
    /// model was prepared on.
    pub fn cursor(&'a self, evaluator: &Evaluator<'a>) -> Cursor<'a> {
        assert!(
            std::ptr::eq(evaluator.machine, self.machine) || evaluator.machine == self.machine,
            "cursor and prepared model must share a machine"
        );
        let nv = self.vertices.len();
        let mut cursor = Cursor {
            model: self,
            evaluator: *evaluator,
            placement: Placement::empty(nv),
            vertices: vec![VertexState::default(); nv],
            ops: vec![OperatorState::default(); self.ops.len()],
            moved: Vec::new(),
            threads_on: vec![0; self.machine.sockets()],
            stale: true,
        };
        cursor.derive_fused_set();
        cursor
    }
}

/// Placement-dependent terms of one vertex, as last priced.
#[derive(Debug, Clone, Copy, Default)]
struct VertexState {
    /// The socket the terms below are priced for; the cursor's placement
    /// runs ahead of it between reads.
    priced_on: Option<SocketId>,
    /// Assigned since the last read (listed in [`Cursor::moved`]).
    moved: bool,
    /// `Tf` and queue charge per tuple, ns.
    tf_ns: f64,
    queue_ns: f64,
    /// Input tuples/sec the vertex can process.
    capacity: f64,
}

/// Placement-dependent terms of one operator.
#[derive(Debug, Clone, Copy, Default)]
struct OperatorState {
    /// Fused into its producer under the cursor's placement (always false
    /// unless the evaluator models fusion).
    fused_away: bool,
    /// Capacity summed over the operator's vertices.
    pooled: f64,
}

/// One placement over a [`PreparedModel`], priced under one [`Evaluator`]
/// configuration; see the [module docs](self) for the bit-identity
/// guarantee.
///
/// Without fusion modelled, a read re-prices each vertex moved since the
/// last read and that vertex's placed consumers — the only `Tf` terms its
/// socket enters — and re-pools their operators. With fusion modelled,
/// which pairs fuse (and with them thread counts and every chain's
/// serialized cost) hangs on the placement as a whole, so a step re-derives
/// the fused set and the next read re-prices in full.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    model: &'a PreparedModel<'a>,
    evaluator: Evaluator<'a>,
    placement: Placement,
    vertices: Vec<VertexState>,
    ops: Vec<OperatorState>,
    /// Vertices assigned since the last read, each listed once.
    moved: Vec<usize>,
    /// Executor threads per socket, as last priced: fused-away replicas
    /// ride their hosts.
    threads_on: Vec<usize>,
    /// Everything must be re-priced at the next read, not just `moved`.
    stale: bool,
}

impl<'a> Cursor<'a> {
    /// The current placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Place (or move) vertex `v` on `socket`.
    pub fn place(&mut self, v: VertexId, socket: SocketId) {
        self.assign(v, Some(socket));
    }

    /// Remove vertex `v`'s assignment.
    pub fn unplace(&mut self, v: VertexId) {
        self.assign(v, None);
    }

    /// Replace the whole placement.
    ///
    /// # Panics
    /// Panics if `placement` does not cover the graph.
    pub fn load(&mut self, placement: &Placement) {
        assert_eq!(
            placement.len(),
            self.vertices.len(),
            "placement must cover the graph"
        );
        self.placement.clone_from(placement);
        self.derive_fused_set();
        self.stale = true;
    }

    /// Executor threads the engine spawns for the current placement under
    /// this cursor's evaluator: replicas of operators fused into their
    /// producers ride along for free (none are, unless fusion is modelled).
    pub fn spawned_executors(&self) -> usize {
        let replication = self.model.graph.replication();
        self.ops
            .iter()
            .zip(replication)
            .filter(|(op, _)| !op.fused_away)
            .map(|(_, replicas)| replicas)
            .sum()
    }

    /// Modelled throughput of the current placement — for a partial one,
    /// the B&B bounding function (see [`Evaluator::bound`]).
    pub fn bound(&mut self) -> f64 {
        self.refresh();
        let (_, p_star) = self.solve();
        let mut throughput = 0.0;
        for &v in &self.model.sinks {
            throughput += self.rates(v.0, p_star).1;
        }
        throughput
    }

    /// Output rate of vertex `v` under the current placement: the one
    /// field of the evaluation the best-fit heuristic ranks candidates by.
    pub fn output_rate(&mut self, v: VertexId) -> f64 {
        self.refresh();
        let (_, p_star) = self.solve();
        self.rates(v.0, p_star).2
    }

    /// Full evaluation of the current placement.
    pub fn evaluation(&mut self) -> Evaluation {
        let mut evaluation = Evaluation::default();
        self.evaluate_into(&mut evaluation);
        evaluation
    }

    /// [`Cursor::evaluation`] into an existing value, reusing its buffers.
    pub fn evaluate_into(&mut self, out: &mut Evaluation) {
        self.refresh();
        let model = self.model;
        let (p_sat, p_star) = self.solve();

        // Over-supply pressure per operator against the saturated demand.
        // (A spout is "pressured" when external input outpaces it — always
        // true in the saturated regime handled by the scaler — so it
        // reports 0.)
        out.operator_pressure.clear();
        out.operator_pressure
            .extend(model.ops.iter().zip(&self.ops).map(|(op, state)| {
                if !op.is_spout && op.factor > BOTTLENECK_TOLERANCE && state.pooled > 0.0 {
                    op.factor * p_sat / state.pooled
                } else {
                    0.0
                }
            }));
        out.edge_rates.clear();
        out.edge_rates
            .extend(model.edge_factor.iter().map(|f| f * p_star));
        out.vertices.clear();
        out.throughput = 0.0;
        for (v, (terms, state)) in model.vertices.iter().zip(&self.vertices).enumerate() {
            let (input_rate, processed_rate, output_rate) = self.rates(v, p_star);
            if terms.kind == OperatorKind::Sink {
                out.throughput += processed_rate;
            }
            out.vertices.push(VertexRates {
                input_rate,
                capacity: state.capacity,
                processed_rate,
                output_rate,
                exec_ns: terms.exec_ns,
                overhead_ns: terms.overhead_ns,
                state_ns: terms.state_ns,
                tf_ns: state.tf_ns,
                queue_ns: state.queue_ns,
                bottleneck: out.operator_pressure[terms.op] > 1.0 + BOTTLENECK_TOLERANCE,
            });
        }
    }

    fn assign(&mut self, v: VertexId, to: Option<SocketId>) {
        if self.placement.socket_of(v) == to {
            return;
        }
        match to {
            Some(socket) => self.placement.place(v, socket),
            None => self.placement.unplace(v),
        }
        if self.evaluator.fusion {
            self.derive_fused_set();
            self.stale = true;
        } else if !self.stale && !self.vertices[v.0].moved {
            self.vertices[v.0].moved = true;
            self.moved.push(v.0);
        }
    }

    /// Which fusable operators the placement leaves fused: every replica
    /// group collocated with its host's, unplaced counting as collocated
    /// (the bounding relaxation) — what `FusionPlan::from_graph` decides,
    /// from the pairs the prepared model already knows can fuse.
    fn derive_fused_set(&mut self) {
        if !self.evaluator.fusion {
            return;
        }
        let model = self.model;
        for (terms, state) in model.ops.iter().zip(&mut self.ops) {
            state.fused_away = terms.fusable_host.is_some_and(|host| {
                model.ops[host]
                    .vertices
                    .clone()
                    .zip(terms.vertices.clone())
                    .all(|(h, g)| {
                        match (
                            self.placement.socket_of(VertexId(h)),
                            self.placement.socket_of(VertexId(g)),
                        ) {
                            (Some(a), Some(b)) => a == b,
                            _ => true,
                        }
                    })
            });
        }
    }

    /// Bring the priced terms up to the placement.
    fn refresh(&mut self) {
        if !self.stale {
            self.reprice_moved();
        }
        if self.stale {
            self.reprice_all();
        }
    }

    /// Re-price what the vertices moved since the last read touched; gives
    /// up (`stale`) if a socket started or stopped time-sharing, which
    /// rescales every vertex on it.
    fn reprice_moved(&mut self) {
        let model = self.model;
        let cores = model.machine.cores_per_socket();
        // Thread counts first: every price below reads them.
        for &v in &self.moved {
            let was = self.vertices[v].priced_on;
            let now = self.placement.socket_of(VertexId(v));
            if was == now {
                continue; // moved and moved back
            }
            let threads = model.vertices[v].multiplicity;
            for (socket, arrives) in [(was, false), (now, true)] {
                let Some(socket) = socket else { continue };
                let before = self.threads_on[socket.0];
                let after = if arrives {
                    before + threads
                } else {
                    before - threads
                };
                self.threads_on[socket.0] = after;
                self.stale |= before.max(after) > cores;
            }
        }
        if self.stale {
            return;
        }
        for i in 0..self.moved.len() {
            let v = self.moved[i];
            let now = self.placement.socket_of(VertexId(v));
            let state = &mut self.vertices[v];
            state.moved = false;
            if state.priced_on == now {
                continue;
            }
            state.priced_on = now;
            // `v`'s socket enters its own Tf and that of its placed
            // consumers (an unplaced endpoint fetches for free).
            self.price(v);
            // Edges leave `v` grouped by consumer operator: pool an operator
            // once the last of its vertices is priced.
            let mut unpooled = model.vertices[v].op;
            for edge in model.graph.outgoing_edges(VertexId(v)) {
                let c = edge.edge.to;
                if self.placement.socket_of(c).is_none() {
                    continue;
                }
                let op = model.vertices[c.0].op;
                if op != unpooled {
                    self.pool(unpooled);
                    unpooled = op;
                }
                self.price(c.0);
            }
            self.pool(unpooled);
        }
        self.moved.clear();
    }

    /// Re-price everything from the placement.
    fn reprice_all(&mut self) {
        let model = self.model;
        // Core occupancy counts *executor threads*: a fused-away replica
        // rides its host's thread, so it does not claim a core of its own —
        // exactly the engine's spawn behaviour.
        self.threads_on.fill(0);
        for (v, terms) in model.vertices.iter().enumerate() {
            if self.ops[terms.op].fused_away {
                continue;
            }
            if let Some(socket) = self.placement.socket_of(VertexId(v)) {
                self.threads_on[socket.0] += terms.multiplicity;
            }
        }
        for v in 0..model.vertices.len() {
            self.vertices[v].moved = false;
            self.vertices[v].priced_on = self.placement.socket_of(VertexId(v));
            self.price(v);
        }
        self.serialize_chains();
        for op in 0..model.ops.len() {
            self.pool(op);
        }
        self.moved.clear();
        self.stale = false;
    }

    /// Share of a core each thread on `socket` gets: 1 until the socket is
    /// oversubscribed, then its cores split evenly.
    fn core_share(&self, socket: Option<SocketId>) -> f64 {
        let cores = self.model.machine.cores_per_socket();
        match socket {
            Some(s) if self.threads_on[s.0] > cores => cores as f64 / self.threads_on[s.0] as f64,
            _ => 1.0,
        }
    }

    /// Full per-tuple handling time `T(p)` of vertex `v`, ns.
    fn handling_ns(&self, v: usize) -> f64 {
        let terms = &self.model.vertices[v];
        let state = &self.vertices[v];
        terms.exec_ns + terms.overhead_ns + terms.state_ns + state.tf_ns + state.queue_ns
    }

    /// Price vertex `v` as its own executor on its current socket: `Tf`
    /// (Formula 2) and the queue charge averaged over its incoming edges by
    /// share, then its capacity.
    fn price(&mut self, v: usize) {
        let model = self.model;
        let evaluator = &self.evaluator;
        let terms = &model.vertices[v];
        let to = self.placement.socket_of(VertexId(v));
        // Fused edges are delivered inline inside one executor: no queue
        // crossing, no fetch — their Formula-2 term is dropped outright.
        let inline = self.ops[terms.op].fused_away;
        // Bound-mode refinement of the queue charge: an edge some placement
        // could still fuse rides free, and only edges **no** completion can
        // fuse pay — see `Evaluator::fusable_edges_ride_free`.
        let spare_fusable = evaluator.fusable_edges_ride_free && evaluator.queue_overhead_ns > 0.0;
        let mut weighted_tf = 0.0f64;
        let mut weighted_queue = 0.0f64;
        for input in &model.inputs[terms.inputs.clone()] {
            let (tf, queue) = if inline {
                (0.0, 0.0)
            } else {
                (
                    evaluator.fetch_lines_ns(
                        input.lines,
                        model.worst_latency_ns,
                        self.placement.socket_of(VertexId(input.from)),
                        to,
                    ),
                    if spare_fusable && input.fusable {
                        0.0
                    } else {
                        evaluator.queue_overhead_ns
                    },
                )
            };
            weighted_tf += input.share * tf;
            weighted_queue += input.share * queue;
        }
        let state = &mut self.vertices[v];
        if terms.in_factor > 0.0 {
            state.tf_ns = weighted_tf / terms.in_factor;
            state.queue_ns = weighted_queue / terms.in_factor;
        }
        let t = self.handling_ns(v);
        self.vertices[v].capacity = if t > 0.0 {
            terms.multiplicity as f64 * 1e9 / t * self.core_share(to)
        } else {
            f64::INFINITY
        };
    }

    /// Serialized-chain cost: a fused chain's replica pair is ONE thread
    /// running every member's per-tuple work back to back, so the chain
    /// sustains the spout-output rate `p_chain` at which the members'
    /// demands exactly fill the host thread:
    ///
    /// ```text
    /// Σ_member demand(m) × T(m) × p_chain = mult × 1e9 × share
    /// ```
    ///
    /// Every member's capacity becomes its own share of `p_chain`, so the
    /// operator-pooled back-pressure pass sees the chain saturate as one
    /// unit instead of crediting each fused-away operator a phantom
    /// executor.
    fn serialize_chains(&mut self) {
        if !self.evaluator.fusion {
            return;
        }
        let model = self.model;
        for chain in &model.chains {
            for &OperatorId(root) in chain {
                if self.ops[root].fused_away {
                    continue;
                }
                if guests(model, &self.ops, chain, root, 0).next().is_none() {
                    continue;
                }
                for group in 0..model.ops[root].vertices.len() {
                    let root_v = model.ops[root].vertices.start + group;
                    // Root first, then guests ascending, is the order the
                    // busy time sums in.
                    let busy_per_p: f64 = std::iter::once(root_v)
                        .chain(guests(model, &self.ops, chain, root, group))
                        .map(|v| model.vertices[v].demand() * self.handling_ns(v))
                        .sum();
                    let budget_ns = model.vertices[root_v].multiplicity as f64
                        * 1e9
                        * self.core_share(self.placement.socket_of(VertexId(root_v)));
                    let p_chain = if busy_per_p > 0.0 {
                        budget_ns / busy_per_p
                    } else {
                        f64::INFINITY
                    };
                    for v in
                        std::iter::once(root_v).chain(guests(model, &self.ops, chain, root, group))
                    {
                        self.vertices[v].capacity = if p_chain.is_finite() {
                            model.vertices[v].demand() * p_chain
                        } else {
                            f64::INFINITY
                        };
                    }
                }
            }
        }
    }

    /// Pool capacity per operator: shuffle/key-by routing is
    /// work-conserving, so replicas of one operator share load.
    fn pool(&mut self, op: usize) {
        let mut pooled = 0.0f64;
        for state in &self.vertices[self.model.ops[op].vertices.clone()] {
            pooled += state.capacity;
        }
        self.ops[op].pooled = pooled;
    }

    /// The spout-saturated demand `p_sat` (what the spouts would emit
    /// unthrottled, capped by a finite ingress) and the sustainable spout
    /// output `p*`: back-pressure lets the slowest operator (capacity per
    /// unit of demand) set the steady state.
    fn solve(&self) -> (f64, f64) {
        let ops = self.model.ops.iter().zip(&self.ops);
        let mut p_sat = f64::INFINITY;
        for (op, state) in ops.clone() {
            if op.is_spout && op.factor > 0.0 {
                p_sat = p_sat.min(state.pooled / op.factor);
            }
        }
        if let Ingress::Rate(r) = self.evaluator.ingress {
            p_sat = p_sat.min(r.max(0.0));
        }
        let mut p_star = p_sat;
        for (op, state) in ops {
            if !op.is_spout && op.factor > BOTTLENECK_TOLERANCE && state.pooled.is_finite() {
                p_star = p_star.min(state.pooled / op.factor);
            }
        }
        if !p_star.is_finite() {
            p_star = 0.0;
        }
        (p_sat, p_star)
    }

    /// Input, processed and output rate of vertex `v` at spout output `p*`.
    fn rates(&self, v: usize, p_star: f64) -> (f64, f64, f64) {
        let model = self.model;
        let terms = &model.vertices[v];
        let input = terms.in_factor * p_star;
        match terms.kind {
            OperatorKind::Spout => {
                let processed = terms.out_factor * p_star;
                // Spout output across streams (selectivities applied).
                let output = model.selectivities[model.ops[terms.op].selectivities.clone()]
                    .iter()
                    .map(|selectivity| processed * selectivity)
                    .sum();
                (input, processed, output)
            }
            OperatorKind::Sink => {
                let processed = input.min(self.vertices[v].capacity);
                (input, processed, processed)
            }
            OperatorKind::Bolt => (
                input,
                input.min(self.vertices[v].capacity),
                terms.out_factor * p_star,
            ),
        }
    }
}

/// The operators of `chain` that `root` hosts under the placement — those
/// whose host links all survive up to it — as their vertices of replica
/// group `group`, ascending by operator.
fn guests<'c>(
    model: &'c PreparedModel<'_>,
    ops: &'c [OperatorState],
    chain: &'c [OperatorId],
    root: usize,
    group: usize,
) -> impl Iterator<Item = usize> + 'c {
    chain
        .iter()
        .filter(move |op| {
            let mut host = op.0;
            while ops[host].fused_away {
                host = model.ops[host]
                    .fusable_host
                    .expect("fused-away operators have hosts");
            }
            op.0 != root && host == root
        })
        .map(move |op| model.ops[op.0].vertices.start + group)
}
