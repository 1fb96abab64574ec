//! The discrete-event simulation core.
//!
//! Entities: **replicas** (one per operator replica, pinned to a core of its
//! placed socket), **cores** (round-robin run queues), **queues** (one
//! bounded FIFO of batches per consumer replica) and a global event heap of
//! service completions. A service is the processing of one batch (or, for
//! spouts, the generation of one): its duration charges execution, engine
//! overhead and — when the batch's producer lives on another socket — the
//! Formula 2 remote-fetch stall.

use crate::report::{ReplicaStats, SimReport};
use brisk_dag::{ExecutionGraph, FusionPlan, OperatorId, OperatorKind, Partitioning, Placement};
use brisk_metrics::Histogram;
use brisk_model::Ingress;
use brisk_numa::{Machine, SocketId, CACHE_LINE_BYTES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Tuples per batch (the jumbo-tuple size; 1 disables batching).
    pub batch_size: u32,
    /// Bound of each consumer input queue, in batches.
    pub queue_capacity: usize,
    /// Virtual time to simulate, ns.
    pub horizon_ns: u64,
    /// Virtual time before metrics start accumulating, ns.
    pub warmup_ns: u64,
    /// RNG seed (simulations are fully deterministic per seed).
    pub seed: u64,
    /// Lognormal sigma for service-time noise (Figure 3 dispersion).
    pub noise_sigma: f64,
    /// External ingress: saturated (capacity probing) or a fixed rate.
    pub ingress: Ingress,
    /// Extra per-batch dispatch cost, ns — models centralized scheduling
    /// (e.g. the StreamBox-style morsel dispatcher's lock).
    pub dispatch_overhead_ns: f64,
    /// Enable epoch-based bandwidth throttling (Eq. 4–5 dynamics).
    pub bandwidth_model: bool,
    /// Usable cores per socket (defaults to all; the Figure 11 core sweep
    /// restricts the last socket).
    pub usable_cores: Option<Vec<usize>>,
    /// Hardware-prefetcher discount on multi-line remote fetches: cache
    /// lines after the first cost `prefetch_factor` of a full `L(i,j)`.
    /// The analytical model keeps the full `ceil(N/S) * L` cost, so
    /// estimates exceed measurements for large tuples — exactly the
    /// Splitter effect the paper reports in Table 3.
    pub prefetch_factor: f64,
    /// Simulate operator-chain fusion (`EngineConfig::fusion` semantics):
    /// fused-away operators stop being simulation entities — their
    /// serialized per-tuple work folds into the chain host's service time,
    /// their external out-edges become ports of the host, and fused-away
    /// sinks count events at the host's completion. No queue, fetch stall
    /// or scheduling happens on fused edges. Off by default, preserving
    /// the legacy all-pipelined simulation; note that with fusion on,
    /// fused-away operators report no per-replica stats of their own.
    pub fusion: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            batch_size: 64,
            queue_capacity: 64,
            horizon_ns: 100_000_000, // 100 ms
            warmup_ns: 20_000_000,   // 20 ms
            seed: 0x5EED,
            noise_sigma: 0.08,
            ingress: Ingress::Saturated,
            dispatch_overhead_ns: 0.0,
            bandwidth_model: true,
            usable_cores: None,
            prefetch_factor: 0.6,
            fusion: false,
        }
    }
}

/// A batch of tuples in flight.
#[derive(Debug, Clone, Copy)]
struct Batch {
    tuples: u32,
    /// Earliest origination time among constituent tuples, ns.
    created_ns: u64,
    from_socket: u16,
    bytes_per_tuple: f32,
    /// Position of the logical edge this batch travels on within the
    /// consumer's input-edge list; selects the right per-stream selectivity
    /// at the consumer (Table 8 has per-(input, output) selectivities).
    in_slot: u16,
}

/// An outbound batch awaiting delivery. Shuffle/key-by deliveries pick the
/// first consumer (from the port's round-robin cursor) with queue space —
/// work-conserving routing, matching the model's proportional-service
/// assumption (Case 1). Broadcast/global deliveries have a fixed target.
#[derive(Debug, Clone, Copy)]
struct Pending {
    port: usize,
    batch: Batch,
    fixed_target: Option<u32>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Ready,
    Running,
    WaitingInput,
    Blocked,
}

struct OutPort {
    /// Consumer replica ids this port can target.
    consumers: Vec<u32>,
    partitioning: Partitioning,
    /// Position of this port's logical edge within the consumer operator's
    /// input-edge list (stamped onto every shipped batch).
    consumer_slot: u16,
    cursor: usize,
    /// Fractional tuples accumulated towards the next batch.
    pending: f64,
    /// Earliest origination time folded into `pending`.
    earliest_ns: u64,
    /// Effective selectivity per *input logical edge index of the host*
    /// (position matches the in-slot stamped on arriving batches); for
    /// spouts a single wildcard entry. Under fusion this folds the whole
    /// chain's compounded per-stream selectivities from the host's input
    /// down to the emitting member's external edge.
    selectivity: Vec<f64>,
    /// Output bytes per tuple on this port (the emitting member's profile —
    /// differs from the host's own when the port belongs to a fused member).
    out_bytes: f64,
}

struct Replica {
    kind: OperatorKind,
    socket: u16,
    core: u32,
    state: State,
    state_since: u64,
    /// Input FIFO (bolts/sinks only).
    input: VecDeque<Batch>,
    /// Producers blocked on this replica's full queue.
    waiters: Vec<u32>,
    /// Outbound batches that could not be delivered (back-pressure).
    undelivered: Vec<Pending>,
    outs: Vec<OutPort>,
    /// Map logical-edge index -> position in `outs[_].selectivity`.
    in_edges: Vec<usize>,
    // Cost profile (ns at the machine clock).
    te_ns: f64,
    others_ns: f64,
    out_bytes: f64,
    mem_bytes: f64,
    // Serialized fused-chain work riding this host, per input slot (empty
    // when nothing fuses in): extra exec/overhead ns per input tuple, and
    // sink deliveries per input tuple when the chain swallowed a sink.
    inline_te: Vec<f64>,
    inline_oh: Vec<f64>,
    sink_mult: Vec<f64>,
    /// Fractional fused-sink deliveries carried to the next service.
    sink_pending: f64,
    // Current service bookkeeping.
    svc_batch: Option<Batch>,
    svc_exec_ns: u64,
    svc_overhead_ns: u64,
    svc_fetch_ns: u64,
    stats: ReplicaStats,
}

struct Core {
    run_queue: VecDeque<u32>,
    running: Option<u32>,
}

/// The configured simulator, ready to [`Simulator::run`].
pub struct Simulator<'a> {
    machine: &'a Machine,
    graph: &'a ExecutionGraph<'a>,
    placement: &'a Placement,
    config: SimConfig,
}

impl<'a> Simulator<'a> {
    /// Build a simulator for `graph` placed by `placement` on `machine`.
    ///
    /// # Errors
    /// Fails when the placement is incomplete or no usable cores exist.
    pub fn new(
        machine: &'a Machine,
        graph: &'a ExecutionGraph<'a>,
        placement: &'a Placement,
        config: SimConfig,
    ) -> Result<Simulator<'a>, String> {
        if placement.len() != graph.vertex_count() {
            return Err("placement does not cover the graph".into());
        }
        if !placement.is_complete() {
            return Err("placement is incomplete".into());
        }
        if let Some(uc) = &config.usable_cores {
            if uc.len() != machine.sockets() {
                return Err("usable_cores must list every socket".into());
            }
            if uc.iter().any(|&c| c == 0 || c > machine.cores_per_socket()) {
                return Err("usable_cores out of range".into());
            }
        }
        if config.batch_size == 0 {
            return Err("batch size must be positive".into());
        }
        Ok(Simulator {
            machine,
            graph,
            placement,
            config,
        })
    }

    /// Execute the simulation and report.
    pub fn run(&self) -> SimReport {
        let mut world = World::build(self.machine, self.graph, self.placement, &self.config);
        world.run();
        world.into_report()
    }
}

struct BandwidthLedger {
    epoch_ns: u64,
    current_epoch: u64,
    /// bytes moved per (from, to) socket pair in the previous/current epoch.
    prev: Vec<f64>,
    cur: Vec<f64>,
    /// local traffic per socket.
    prev_local: Vec<f64>,
    cur_local: Vec<f64>,
    sockets: usize,
}

impl BandwidthLedger {
    fn new(sockets: usize) -> BandwidthLedger {
        BandwidthLedger {
            epoch_ns: 1_000_000,
            current_epoch: 0,
            prev: vec![0.0; sockets * sockets],
            cur: vec![0.0; sockets * sockets],
            prev_local: vec![0.0; sockets],
            cur_local: vec![0.0; sockets],
            sockets,
        }
    }

    fn roll(&mut self, now: u64) {
        let epoch = now / self.epoch_ns;
        if epoch != self.current_epoch {
            std::mem::swap(&mut self.prev, &mut self.cur);
            self.cur.iter_mut().for_each(|b| *b = 0.0);
            std::mem::swap(&mut self.prev_local, &mut self.cur_local);
            self.cur_local.iter_mut().for_each(|b| *b = 0.0);
            self.current_epoch = epoch;
        }
    }

    /// Record a cross-socket transfer; returns the throttle factor (>= 1)
    /// derived from the previous epoch's utilization of the link.
    fn remote(&mut self, now: u64, from: usize, to: usize, bytes: f64, capacity_bps: f64) -> f64 {
        self.roll(now);
        let idx = from * self.sockets + to;
        self.cur[idx] += bytes;
        let cap_per_epoch = capacity_bps * self.epoch_ns as f64 / 1e9;
        (self.prev[idx] / cap_per_epoch).max(1.0)
    }

    /// Record local memory traffic; returns the DRAM throttle factor.
    fn local(&mut self, now: u64, socket: usize, bytes: f64, capacity_bps: f64) -> f64 {
        self.roll(now);
        self.cur_local[socket] += bytes;
        let cap_per_epoch = capacity_bps * self.epoch_ns as f64 / 1e9;
        (self.prev_local[socket] / cap_per_epoch).max(1.0)
    }
}

struct World<'a> {
    machine: &'a Machine,
    config: &'a SimConfig,
    replicas: Vec<Replica>,
    cores: Vec<Core>,
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>, // (time, seq, core)
    seq: u64,
    rng: StdRng,
    ledger: BandwidthLedger,
    latency: Histogram,
    sink_events: u64,
    spout_pace_ns: f64,
    queue_capacity: usize,
}

impl<'a> World<'a> {
    fn build(
        machine: &'a Machine,
        graph: &ExecutionGraph<'_>,
        placement: &Placement,
        config: &'a SimConfig,
    ) -> World<'a> {
        let clock = machine.clock_hz();
        let topology = graph.topology();
        // Which edges collapse inline; fused-away operators spawn nothing.
        let fusion = config
            .fusion
            .then(|| FusionPlan::from_graph(graph, placement));
        let fused_away = |op: OperatorId| fusion.as_ref().is_some_and(|f| f.is_fused_away(op));
        let edge_fused = |lei: usize| fusion.as_ref().is_some_and(|f| f.is_edge_fused(lei));

        // Expand vertices into replicas; assign cores round-robin per socket.
        let usable: Vec<usize> = match &config.usable_cores {
            Some(uc) => uc.clone(),
            None => vec![machine.cores_per_socket(); machine.sockets()],
        };
        let core_base: Vec<usize> = {
            let mut acc = 0;
            let mut v = Vec::with_capacity(machine.sockets());
            for &u in usable.iter().take(machine.sockets()) {
                v.push(acc);
                acc += u;
            }
            v
        };
        let total_cores: usize = usable.iter().sum();
        let mut next_core_on_socket = vec![0usize; machine.sockets()];

        let mut replicas: Vec<Replica> = Vec::new();
        let mut replicas_of_op: Vec<Vec<u32>> = vec![Vec::new(); topology.operator_count()];
        for (op, spec) in topology.operators() {
            if fused_away(op) {
                continue; // rides its host's replicas
            }
            for &v in graph.vertices_of(op) {
                let socket = placement.socket_of(v).expect("complete placement");
                for _ in 0..graph.vertex(v).multiplicity {
                    let core_local = next_core_on_socket[socket.0] % usable[socket.0];
                    next_core_on_socket[socket.0] += 1;
                    let id = replicas.len() as u32;
                    replicas_of_op[op.0].push(id);
                    replicas.push(Replica {
                        kind: spec.kind,
                        socket: socket.0 as u16,
                        core: (core_base[socket.0] + core_local) as u32,
                        state: State::Ready,
                        state_since: 0,
                        input: VecDeque::new(),
                        waiters: Vec::new(),
                        undelivered: Vec::new(),
                        outs: Vec::new(),
                        in_edges: Vec::new(),
                        // State access is execution time, as the model
                        // prices it (`Te + Others + state`).
                        te_ns: spec.cost.exec_ns(clock) + spec.cost.state_ns(clock),
                        others_ns: spec.cost.overhead_ns(clock),
                        out_bytes: spec.cost.output_bytes,
                        mem_bytes: spec.cost.mem_bytes_per_tuple,
                        inline_te: Vec::new(),
                        inline_oh: Vec::new(),
                        sink_mult: Vec::new(),
                        sink_pending: 0.0,
                        svc_batch: None,
                        svc_exec_ns: 0,
                        svc_overhead_ns: 0,
                        svc_fetch_ns: 0,
                        stats: ReplicaStats {
                            operator: op.0,
                            socket: socket.0,
                            ..Default::default()
                        },
                    });
                }
            }
        }

        // Wire output ports. Each simulated replica is a fusion-chain host
        // (trivially a chain of one when nothing fuses into it): the flow
        // of every chain member is propagated per *host input slot* along
        // fused edges, members' serialized work folds into the host's
        // inline vectors, and members' unfused out-edges become ports of
        // the host with compounded selectivities.
        let chain_of: std::collections::HashMap<usize, Vec<OperatorId>> = fusion
            .as_ref()
            .map(|f| f.chains().into_iter().map(|c| (c[0].0, c)).collect())
            .unwrap_or_default();
        for (op, spec) in topology.operators() {
            if fused_away(op) {
                continue;
            }
            let in_edge_indices: Vec<usize> = topology
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| e.to == op)
                .map(|(i, _)| i)
                .collect();
            let slots = if spec.kind == OperatorKind::Spout {
                1
            } else {
                in_edge_indices.len().max(1)
            };
            let chain = chain_of.get(&op.0).cloned().unwrap_or_else(|| vec![op]);
            // Members in topological order so producers resolve first.
            let order: Vec<OperatorId> = topology
                .topological_order()
                .iter()
                .copied()
                .filter(|o| chain.contains(o))
                .collect();
            // Per fused logical edge: tuples travelling on it per host
            // input tuple, by host input slot.
            let mut arr: std::collections::HashMap<usize, Vec<f64>> =
                std::collections::HashMap::new();
            // Unfused out-edges of chain members: (member, lei, flow/slot).
            let mut external: Vec<(OperatorId, usize, Vec<f64>)> = Vec::new();
            let mut inline_te = vec![0.0f64; slots];
            let mut inline_oh = vec![0.0f64; slots];
            let mut sink_mult = vec![0.0f64; slots];
            for &m in &order {
                let mspec = topology.operator(m);
                // (input stream, arrivals per host tuple by slot).
                let inputs: Vec<(Option<&str>, Vec<f64>)> = if m == op {
                    if spec.kind == OperatorKind::Spout {
                        vec![(None, vec![1.0])]
                    } else {
                        in_edge_indices
                            .iter()
                            .enumerate()
                            .map(|(s, &lei)| {
                                let mut v = vec![0.0; slots];
                                v[s] = 1.0;
                                (Some(topology.edges()[lei].stream.as_str()), v)
                            })
                            .collect()
                    }
                } else {
                    topology
                        .edges()
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.to == m)
                        .map(|(lei, e)| {
                            (
                                Some(e.stream.as_str()),
                                arr.get(&lei).cloned().unwrap_or_else(|| vec![0.0; slots]),
                            )
                        })
                        .collect()
                };
                if m != op {
                    for s in 0..slots {
                        let processed: f64 = inputs.iter().map(|(_, a)| a[s]).sum();
                        inline_te[s] +=
                            processed * (mspec.cost.exec_ns(clock) + mspec.cost.state_ns(clock));
                        inline_oh[s] += processed * mspec.cost.overhead_ns(clock);
                        if mspec.kind == OperatorKind::Sink {
                            sink_mult[s] += processed;
                        }
                    }
                }
                for (lei, edge) in topology
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.from == m)
                {
                    let flow: Vec<f64> = (0..slots)
                        .map(|s| {
                            inputs
                                .iter()
                                .map(|(st, a)| a[s] * mspec.selectivity(*st, &edge.stream))
                                .sum()
                        })
                        .collect();
                    if edge_fused(lei) {
                        arr.insert(lei, flow);
                    } else {
                        external.push((m, lei, flow));
                    }
                }
            }
            let fused_in = inline_te.iter().any(|&t| t > 0.0)
                || inline_oh.iter().any(|&t| t > 0.0)
                || sink_mult.iter().any(|&t| t > 0.0);
            for (local, &rid) in replicas_of_op[op.0].iter().enumerate() {
                let mut outs = Vec::with_capacity(external.len());
                for (member, lei, flow) in &external {
                    let edge = &topology.edges()[*lei];
                    let consumers: Vec<u32> = match edge.partitioning {
                        Partitioning::Global => {
                            vec![replicas_of_op[edge.to.0][0]]
                        }
                        // Local forwarding pins this producer replica to
                        // the index-aligned consumer replica — only at
                        // equal replica counts (a fused member shares the
                        // host's count by the chain invariant); otherwise
                        // the edge degrades to Shuffle's full list.
                        Partitioning::Forward
                            if replicas_of_op[edge.to.0].len() == replicas_of_op[op.0].len() =>
                        {
                            vec![replicas_of_op[edge.to.0][local]]
                        }
                        _ => replicas_of_op[edge.to.0].clone(),
                    };
                    let consumer_slot = topology
                        .edges()
                        .iter()
                        .enumerate()
                        .filter(|(_, e)| e.to == edge.to)
                        .position(|(i, _)| i == *lei)
                        .unwrap_or(0) as u16;
                    outs.push(OutPort {
                        consumers,
                        partitioning: edge.partitioning,
                        consumer_slot,
                        cursor: (rid as usize) % usize::MAX,
                        pending: 0.0,
                        earliest_ns: u64::MAX,
                        selectivity: flow.clone(),
                        out_bytes: topology.operator(*member).cost.output_bytes,
                    });
                }
                let r = &mut replicas[rid as usize];
                r.outs = outs;
                r.in_edges = in_edge_indices.clone();
                if fused_in {
                    r.inline_te = inline_te.clone();
                    r.inline_oh = inline_oh.clone();
                    r.sink_mult = sink_mult.clone();
                }
            }
        }

        // Stagger shuffle cursors so producers do not all hit consumer 0.
        for r in replicas.iter_mut() {
            for o in r.outs.iter_mut() {
                if !o.consumers.is_empty() {
                    o.cursor %= o.consumers.len();
                }
            }
        }

        let cores = (0..total_cores)
            .map(|_| Core {
                run_queue: VecDeque::new(),
                running: None,
            })
            .collect();

        // Spout pacing under finite ingress.
        let n_spout_replicas: usize = topology
            .spouts()
            .iter()
            .map(|&s| replicas_of_op[s.0].len())
            .sum();
        let spout_pace_ns = match config.ingress {
            Ingress::Saturated => 0.0,
            Ingress::Rate(total) => {
                if total <= 0.0 || n_spout_replicas == 0 {
                    0.0
                } else {
                    let share = total / n_spout_replicas as f64;
                    config.batch_size as f64 * 1e9 / share
                }
            }
        };

        World {
            machine,
            config,
            replicas,
            cores,
            heap: BinaryHeap::new(),
            seq: 0,
            rng: StdRng::seed_from_u64(config.seed),
            ledger: BandwidthLedger::new(machine.sockets()),
            latency: Histogram::new(),
            sink_events: 0,
            spout_pace_ns,
            queue_capacity: config.queue_capacity,
        }
    }

    fn noise(&mut self) -> f64 {
        let sigma = self.config.noise_sigma;
        if sigma <= 0.0 {
            return 1.0;
        }
        // Box-Muller; mean-corrected lognormal (E[factor] = 1).
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (sigma * z - sigma * sigma / 2.0).exp()
    }

    fn run(&mut self) {
        // Everyone starts ready; spouts will produce, bolts will park.
        for rid in 0..self.replicas.len() as u32 {
            let core = self.replicas[rid as usize].core;
            self.cores[core as usize].run_queue.push_back(rid);
        }
        for core in 0..self.cores.len() as u32 {
            self.kick(core, 0);
        }
        while let Some(Reverse((t, _, core))) = self.heap.pop() {
            if t >= self.config.horizon_ns {
                break;
            }
            self.finish_service(core, t);
            self.kick(core, t);
        }
    }

    /// Try to start a service on `core` at time `now`.
    fn kick(&mut self, core: u32, now: u64) {
        if self.cores[core as usize].running.is_some() {
            return;
        }
        while let Some(rid) = self.cores[core as usize].run_queue.pop_front() {
            // Reserve the core *before* computing the service: popping a
            // batch inside start_service can wake blocked producers, which
            // recursively kick cores — including this one. Without the
            // reservation two services could start on one core and the
            // second completion would find it idle.
            self.cores[core as usize].running = Some(rid);
            match self.start_service(rid, now) {
                Some(duration) => {
                    self.seq += 1;
                    self.heap
                        .push(Reverse((now + duration.max(1), self.seq, core)));
                    return;
                }
                None => {
                    self.cores[core as usize].running = None;
                    continue;
                }
            }
        }
    }

    fn set_state(&mut self, rid: u32, state: State, now: u64) {
        let r = &mut self.replicas[rid as usize];
        let elapsed = now.saturating_sub(r.state_since);
        if now >= self.config.warmup_ns {
            match r.state {
                State::Blocked => r.stats.blocked_ns += elapsed,
                State::WaitingInput => r.stats.waiting_ns += elapsed,
                _ => {}
            }
        }
        r.state = state;
        r.state_since = now;
    }

    /// Compute the duration of `rid`'s next service; `None` if it has no
    /// work (parks as WaitingInput).
    fn start_service(&mut self, rid: u32, now: u64) -> Option<u64> {
        let kind = self.replicas[rid as usize].kind;
        match kind {
            OperatorKind::Spout => {
                let noise = self.noise();
                let r = &mut self.replicas[rid as usize];
                let b = self.config.batch_size as f64;
                // Fused members run serialized inside this thread.
                let chain_te = r.te_ns + r.inline_te.first().copied().unwrap_or(0.0);
                let chain_oh = r.others_ns + r.inline_oh.first().copied().unwrap_or(0.0);
                let work = b * (chain_te + chain_oh) * noise + self.config.dispatch_overhead_ns;
                let dur = work.max(self.spout_pace_ns) as u64;
                r.svc_batch = Some(Batch {
                    tuples: self.config.batch_size,
                    created_ns: now,
                    from_socket: r.socket,
                    bytes_per_tuple: r.out_bytes as f32,
                    in_slot: 0,
                });
                r.svc_exec_ns = (b * chain_te * noise) as u64;
                r.svc_overhead_ns = dur.saturating_sub(r.svc_exec_ns);
                r.svc_fetch_ns = 0;
                self.set_state(rid, State::Running, now);
                Some(dur)
            }
            OperatorKind::Bolt | OperatorKind::Sink => {
                let batch = {
                    let r = &mut self.replicas[rid as usize];
                    match r.input.pop_front() {
                        Some(b) => b,
                        None => {
                            self.set_state(rid, State::WaitingInput, now);
                            return None;
                        }
                    }
                };
                // A slot opened: wake producers blocked on this queue.
                self.wake_waiters(rid, now);

                let noise = self.noise();
                let my_socket = self.replicas[rid as usize].socket as usize;
                let n = batch.tuples as f64;

                // Formula 2 fetch cost with optional bandwidth throttling.
                let mut fetch = 0.0;
                if batch.from_socket as usize != my_socket {
                    let full_lines = (batch.bytes_per_tuple as f64 / CACHE_LINE_BYTES as f64)
                        .ceil()
                        .max(1.0);
                    let lines = 1.0 + (full_lines - 1.0) * self.config.prefetch_factor;
                    let lat = self
                        .machine
                        .latency_ns(SocketId(batch.from_socket as usize), SocketId(my_socket));
                    let mut factor = 1.0;
                    if self.config.bandwidth_model {
                        let bytes = n * batch.bytes_per_tuple as f64;
                        factor = self.ledger.remote(
                            now,
                            batch.from_socket as usize,
                            my_socket,
                            bytes,
                            self.machine.remote_bandwidth(
                                SocketId(batch.from_socket as usize),
                                SocketId(my_socket),
                            ),
                        );
                    }
                    fetch = n * lines * lat * factor;
                }

                let mut local_factor = 1.0;
                if self.config.bandwidth_model {
                    let r = &self.replicas[rid as usize];
                    local_factor = self.ledger.local(
                        now,
                        my_socket,
                        n * r.mem_bytes,
                        self.machine.local_bandwidth(),
                    );
                }

                let r = &mut self.replicas[rid as usize];
                let slot = batch.in_slot as usize;
                let chain_te = r.te_ns + r.inline_te.get(slot).copied().unwrap_or(0.0);
                let chain_oh = r.others_ns + r.inline_oh.get(slot).copied().unwrap_or(0.0);
                let exec = n * chain_te * noise * local_factor;
                let overhead = n * chain_oh * noise + self.config.dispatch_overhead_ns;
                r.svc_batch = Some(batch);
                r.svc_exec_ns = exec as u64;
                r.svc_overhead_ns = overhead as u64;
                r.svc_fetch_ns = fetch as u64;
                self.set_state(rid, State::Running, now);
                Some((exec + overhead + fetch) as u64)
            }
        }
    }

    /// Service completed on `core`: account stats, emit outputs, decide the
    /// replica's next state.
    fn finish_service(&mut self, core: u32, now: u64) {
        let rid = self.cores[core as usize]
            .running
            .take()
            .expect("service end on idle core");
        let measured = now >= self.config.warmup_ns;
        let (batch, kind) = {
            let r = &mut self.replicas[rid as usize];
            let batch = r.svc_batch.take().expect("service had a batch");
            if measured {
                r.stats.processed += batch.tuples as u64;
                r.stats.exec_ns += r.svc_exec_ns;
                r.stats.overhead_ns += r.svc_overhead_ns;
                r.stats.fetch_ns += r.svc_fetch_ns;
            }
            (batch, r.kind)
        };

        if kind == OperatorKind::Sink {
            if measured {
                self.sink_events += batch.tuples as u64;
                self.latency.record_n(
                    now.saturating_sub(batch.created_ns) as f64,
                    batch.tuples as u64,
                );
            }
        } else {
            // A sink fused into this host delivers inline: count its share
            // of the batch here (fractional remainders carry over).
            if measured {
                let whole = {
                    let r = &mut self.replicas[rid as usize];
                    let mult = r
                        .sink_mult
                        .get(batch.in_slot as usize)
                        .copied()
                        .unwrap_or(0.0);
                    if mult > 0.0 {
                        r.sink_pending += batch.tuples as f64 * mult;
                        let whole = r.sink_pending as u64;
                        r.sink_pending -= whole as f64;
                        whole
                    } else {
                        0
                    }
                };
                if whole > 0 {
                    self.sink_events += whole;
                    self.latency
                        .record_n(now.saturating_sub(batch.created_ns) as f64, whole);
                }
            }
            self.accumulate_outputs(rid, &batch, kind, now);
        }

        // Deliver whatever is ready; decide next state.
        let fully_flushed = self.try_flush(rid, now);
        if !fully_flushed {
            self.set_state(rid, State::Blocked, now);
            return;
        }
        let has_work = {
            let r = &self.replicas[rid as usize];
            r.kind == OperatorKind::Spout || !r.input.is_empty()
        };
        if has_work {
            self.set_state(rid, State::Ready, now);
            let core = self.replicas[rid as usize].core;
            self.cores[core as usize].run_queue.push_back(rid);
        } else {
            self.set_state(rid, State::WaitingInput, now);
        }
    }

    /// Fold the consumed batch into each output port's pending counter and
    /// cut full batches.
    fn accumulate_outputs(&mut self, rid: u32, batch: &Batch, kind: OperatorKind, _now: u64) {
        let b = self.config.batch_size;
        let r = &mut self.replicas[rid as usize];
        let mut cut: Vec<(usize, Batch)> = Vec::new(); // (out port, batch)
        for (oi, port) in r.outs.iter_mut().enumerate() {
            // The batch knows which logical input edge it travelled on, so
            // the exact per-(input stream, output stream) selectivity of
            // Table 8 applies.
            let sel = if kind == OperatorKind::Spout {
                port.selectivity.first().copied().unwrap_or(1.0)
            } else {
                port.selectivity
                    .get(batch.in_slot as usize)
                    .copied()
                    .unwrap_or(1.0)
            };
            port.pending += batch.tuples as f64 * sel;
            port.earliest_ns = port.earliest_ns.min(batch.created_ns);
            while port.pending >= b as f64 {
                port.pending -= b as f64;
                cut.push((
                    oi,
                    Batch {
                        tuples: b,
                        created_ns: port.earliest_ns,
                        from_socket: r.socket,
                        bytes_per_tuple: port.out_bytes as f32,
                        in_slot: port.consumer_slot,
                    },
                ));
                if port.pending < b as f64 {
                    port.earliest_ns = u64::MAX;
                }
            }
        }
        // Route each cut batch: fixed targets for broadcast/global, deferred
        // (work-conserving) choice for shuffle/key-by.
        for (oi, out_batch) in cut {
            let pendings: Vec<Pending> = {
                let port = &self.replicas[rid as usize].outs[oi];
                match port.partitioning {
                    Partitioning::Shuffle | Partitioning::KeyBy => vec![Pending {
                        port: oi,
                        batch: out_batch,
                        fixed_target: None,
                    }],
                    // Degraded (unequal-count) Forward was wired with the
                    // full consumer list: defer like Shuffle.
                    Partitioning::Forward if port.consumers.len() > 1 => vec![Pending {
                        port: oi,
                        batch: out_batch,
                        fixed_target: None,
                    }],
                    Partitioning::Broadcast => port
                        .consumers
                        .iter()
                        .map(|&t| Pending {
                            port: oi,
                            batch: out_batch,
                            fixed_target: Some(t),
                        })
                        .collect(),
                    // Global and equal-count Forward both carry a single
                    // pre-resolved target (the funnel head / the
                    // index-aligned pair).
                    Partitioning::Global | Partitioning::Forward => vec![Pending {
                        port: oi,
                        batch: out_batch,
                        fixed_target: Some(port.consumers[0]),
                    }],
                }
            };
            self.replicas[rid as usize].undelivered.extend(pendings);
        }
    }

    /// Try to deliver all undelivered batches. Returns false when delivery
    /// stalls on full consumer queues (producer must block).
    fn try_flush(&mut self, rid: u32, now: u64) -> bool {
        loop {
            let Some(&pending) = self.replicas[rid as usize].undelivered.first() else {
                return true;
            };
            let target = match pending.fixed_target {
                Some(t) => {
                    if self.replicas[t as usize].input.len() >= self.queue_capacity {
                        if !self.replicas[t as usize].waiters.contains(&rid) {
                            self.replicas[t as usize].waiters.push(rid);
                        }
                        return false;
                    }
                    t
                }
                None => {
                    // Work-conserving shuffle: probe consumers from the
                    // round-robin cursor, take the first with space.
                    let (consumers, cursor) = {
                        let port = &self.replicas[rid as usize].outs[pending.port];
                        (port.consumers.clone(), port.cursor)
                    };
                    let n = consumers.len();
                    let mut chosen = None;
                    for off in 0..n {
                        let t = consumers[(cursor + off) % n];
                        if self.replicas[t as usize].input.len() < self.queue_capacity {
                            chosen = Some((t, (cursor + off + 1) % n));
                            break;
                        }
                    }
                    match chosen {
                        Some((t, next_cursor)) => {
                            self.replicas[rid as usize].outs[pending.port].cursor = next_cursor;
                            t
                        }
                        None => {
                            // Everything is full: wait on all consumers so
                            // any pop can resume us.
                            for &t in &consumers {
                                if !self.replicas[t as usize].waiters.contains(&rid) {
                                    self.replicas[t as usize].waiters.push(rid);
                                }
                            }
                            return false;
                        }
                    }
                }
            };
            self.replicas[target as usize]
                .input
                .push_back(pending.batch);
            self.replicas[rid as usize].undelivered.remove(0);
            // Wake the consumer if it was parked.
            if self.replicas[target as usize].state == State::WaitingInput {
                self.set_state(target, State::Ready, now);
                let core = self.replicas[target as usize].core;
                self.cores[core as usize].run_queue.push_back(target);
                self.kick(core, now);
            }
        }
    }

    /// A slot opened on `rid`'s input queue: give blocked producers another
    /// chance to flush.
    fn wake_waiters(&mut self, rid: u32, now: u64) {
        let waiters = std::mem::take(&mut self.replicas[rid as usize].waiters);
        for w in waiters {
            if self.replicas[w as usize].state != State::Blocked {
                continue;
            }
            if self.try_flush(w, now) {
                self.set_state(w, State::Ready, now);
                let core = self.replicas[w as usize].core;
                self.cores[core as usize].run_queue.push_back(w);
                self.kick(core, now);
            }
        }
    }

    fn into_report(self) -> SimReport {
        let window = self
            .config
            .horizon_ns
            .saturating_sub(self.config.warmup_ns)
            .max(1);
        SimReport {
            measured_window_ns: window,
            sink_events: self.sink_events,
            throughput: self.sink_events as f64 * 1e9 / window as f64,
            latency_ns: self.latency,
            replicas: self.replicas.into_iter().map(|r| r.stats).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_dag::{CostProfile, TopologyBuilder};
    use brisk_model::Evaluator;
    use brisk_numa::MachineBuilder;

    fn machine() -> Machine {
        MachineBuilder::new("sim")
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

    /// spout(100ns) -> bolt(200ns) -> sink(50ns), 64-byte tuples.
    fn linear() -> brisk_dag::LogicalTopology {
        let mut b = TopologyBuilder::new("lin");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 16.0, 64.0));
        let x = b.add_bolt("bolt", CostProfile::new(200.0, 0.0, 16.0, 64.0));
        let k = b.add_sink("sink", CostProfile::new(50.0, 0.0, 16.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.build().expect("valid")
    }

    fn quiet_config() -> SimConfig {
        SimConfig {
            noise_sigma: 0.0,
            bandwidth_model: false,
            horizon_ns: 50_000_000,
            warmup_ns: 10_000_000,
            ..SimConfig::default()
        }
    }

    #[test]
    fn measured_throughput_tracks_model() {
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let report = Simulator::new(&m, &g, &p, quiet_config())
            .expect("valid")
            .run();
        let model = Evaluator::saturated(&m).evaluate(&g, &p);
        // Bolt-bound at 5M tuples/s; simulation should land within 10%.
        let rel = (report.throughput - model.throughput).abs() / model.throughput;
        assert!(
            rel < 0.10,
            "sim {} vs model {} (rel {rel})",
            report.throughput,
            model.throughput
        );
    }

    #[test]
    fn stateful_operator_tracks_the_model() {
        // spout(100) -> bolt(200 + 250 of state access) -> sink(50): the
        // model prices the bolt at 450 ns. Unfused it gates the pipeline at
        // 1e9/450; fused, the chain serializes at 100 + 450 + 50. The
        // simulator must charge the state access in both shapes — on the
        // bolt as its own executor and as a member folded into its host.
        let m = machine();
        let mut b = TopologyBuilder::new("stateful");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 16.0, 64.0));
        let x = b.add_bolt(
            "index",
            CostProfile::new(200.0, 0.0, 16.0, 64.0).with_state_access(250.0),
        );
        let k = b.add_sink("sink", CostProfile::new(50.0, 0.0, 16.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        for fusion in [false, true] {
            let config = SimConfig {
                fusion,
                ..quiet_config()
            };
            let report = Simulator::new(&m, &g, &p, config).expect("valid").run();
            let model = Evaluator::saturated(&m)
                .with_fusion(fusion)
                .evaluate(&g, &p);
            let rel = (report.throughput - model.throughput).abs() / model.throughput;
            assert!(
                rel < 0.05,
                "fusion {fusion}: sim {} vs model {} (rel {rel})",
                report.throughput,
                model.throughput
            );
        }
    }

    #[test]
    fn remote_bolt_is_slower_than_local() {
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let local = Placement::all_on(g.vertex_count(), SocketId(0));
        let mut remote = local.clone();
        remote.place(brisk_dag::VertexId(1), SocketId(1));
        let r_local = Simulator::new(&m, &g, &local, quiet_config())
            .expect("valid")
            .run();
        let r_remote = Simulator::new(&m, &g, &remote, quiet_config())
            .expect("valid")
            .run();
        assert!(
            r_remote.throughput < r_local.throughput * 0.8,
            "remote {} should trail local {}",
            r_remote.throughput,
            r_local.throughput
        );
        // And the bolt's measured per-tuple fetch time reflects Formula 2:
        // ceil(64/64) * 200 = 200 ns.
        let b = r_remote.breakdown(1);
        assert!((b.rma_ns - 200.0).abs() < 40.0, "rma={}", b.rma_ns);
        assert_eq!(r_local.breakdown(1).rma_ns, 0.0);
    }

    #[test]
    fn replication_scales_measured_throughput() {
        let m = machine();
        let t = linear();
        let g1 = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p1 = Placement::all_on(g1.vertex_count(), SocketId(0));
        let r1 = Simulator::new(&m, &g1, &p1, quiet_config())
            .expect("valid")
            .run();
        let g2 = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let p2 = Placement::all_on(g2.vertex_count(), SocketId(0));
        let r2 = Simulator::new(&m, &g2, &p2, quiet_config())
            .expect("valid")
            .run();
        assert!(
            r2.throughput > r1.throughput * 1.5,
            "2 bolts {} should near-double 1 bolt {}",
            r2.throughput,
            r1.throughput
        );
    }

    #[test]
    fn finite_ingress_caps_throughput() {
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let config = SimConfig {
            ingress: Ingress::Rate(1e6),
            ..quiet_config()
        };
        let report = Simulator::new(&m, &g, &p, config).expect("valid").run();
        let rel = (report.throughput - 1e6).abs() / 1e6;
        assert!(
            rel < 0.1,
            "throughput {} should track 1M/s",
            report.throughput
        );
    }

    #[test]
    fn latency_grows_when_bottlenecked() {
        // Saturated system: queues fill, so latency >> service time.
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let report = Simulator::new(&m, &g, &p, quiet_config())
            .expect("valid")
            .run();
        assert!(report.latency_ns.count() > 0);
        // An under-provisioned pipeline accumulates queueing delay well
        // above the ~350 ns of pure service time.
        assert!(report.latency_ns.percentile(50.0) > 1000.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let config = SimConfig {
            noise_sigma: 0.1,
            ..quiet_config()
        };
        let a = Simulator::new(&m, &g, &p, config.clone())
            .expect("valid")
            .run();
        let b = Simulator::new(&m, &g, &p, config).expect("valid").run();
        assert_eq!(a.sink_events, b.sink_events);
        assert_eq!(a.throughput, b.throughput);
    }

    #[test]
    fn selectivity_multiplies_events() {
        let m = machine();
        let mut b = TopologyBuilder::new("sel");
        let s = b.add_spout("s", CostProfile::new(1000.0, 0.0, 16.0, 64.0));
        let x = b.add_bolt("split", CostProfile::new(100.0, 0.0, 16.0, 64.0));
        let k = b.add_sink("k", CostProfile::new(10.0, 0.0, 16.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.set_selectivity(x, None, brisk_dag::DEFAULT_STREAM, 10.0);
        let t = b.build().expect("valid");
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let report = Simulator::new(&m, &g, &p, quiet_config())
            .expect("valid")
            .run();
        let spout_rate = report.operator_processed(0) as f64;
        let sink_rate = report.sink_events as f64;
        let ratio = sink_rate / spout_rate;
        assert!(
            (ratio - 10.0).abs() < 1.5,
            "sink/spout ratio {ratio} should approach the selectivity 10"
        );
    }

    #[test]
    fn fused_chain_matches_serialized_model() {
        // [1,1,1] collocated: the whole pipeline fuses into one executor
        // running 100 + 200 + 50 = 350 ns per tuple. The fusion-aware
        // model predicts exactly 1e9/350 ≈ 2.857M; the fused simulation
        // must land there — NOT at the 5M the pipelined (unfused) sim
        // sustains when the bolt alone gates.
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let config = SimConfig {
            fusion: true,
            ..quiet_config()
        };
        let report = Simulator::new(&m, &g, &p, config).expect("valid").run();
        let model = Evaluator::saturated(&m).with_fusion(true).evaluate(&g, &p);
        let rel = (report.throughput - model.throughput).abs() / model.throughput;
        assert!(
            rel < 0.10,
            "fused sim {} vs fused model {} (rel {rel})",
            report.throughput,
            model.throughput
        );
        // And it trails the unfused (pipelined) simulation, as serialized
        // chains must.
        let unfused = Simulator::new(&m, &g, &p, quiet_config())
            .expect("valid")
            .run();
        assert!(report.throughput < unfused.throughput * 0.8);
        // The fused-away sink still counts events and records latency.
        assert!(report.sink_events > 0);
        assert!(report.latency_ns.count() > 0);
    }

    #[test]
    fn fused_chain_skips_the_remote_fetch() {
        // Everything on one socket fuses end to end, so even AlwaysRemote-
        // style cross-socket costs cannot appear: compare against a split
        // placement where the bolt sits remote and the chain breaks.
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let local = Placement::all_on(g.vertex_count(), SocketId(0));
        let mut split = local.clone();
        split.place(brisk_dag::VertexId(1), SocketId(1));
        let config = SimConfig {
            fusion: true,
            ..quiet_config()
        };
        let fused = Simulator::new(&m, &g, &local, config.clone())
            .expect("valid")
            .run();
        let broken = Simulator::new(&m, &g, &split, config).expect("valid").run();
        // The split bolt keeps its own executor and pays Formula 2.
        assert!(broken.breakdown(1).rma_ns > 0.0);
        // The fused run has no bolt replica at all (it rides the spout).
        assert_eq!(fused.operator_processed(1), 0);
    }

    #[test]
    fn selectivity_compounds_through_a_fused_chain() {
        let m = machine();
        let mut b = TopologyBuilder::new("sel");
        let s = b.add_spout("s", CostProfile::new(1000.0, 0.0, 16.0, 64.0));
        let x = b.add_bolt("split", CostProfile::new(100.0, 0.0, 16.0, 64.0));
        let k = b.add_sink("k", CostProfile::new(10.0, 0.0, 16.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.set_selectivity(x, None, brisk_dag::DEFAULT_STREAM, 10.0);
        let t = b.build().expect("valid");
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let config = SimConfig {
            fusion: true,
            ..quiet_config()
        };
        let report = Simulator::new(&m, &g, &p, config).expect("valid").run();
        // The fused sink sees 10 deliveries per generated tuple.
        let ratio = report.sink_events as f64 / report.operator_processed(0) as f64;
        assert!(
            (ratio - 10.0).abs() < 0.5,
            "fused sink/spout ratio {ratio} should be the selectivity 10"
        );
    }

    #[test]
    fn replication_breaks_fusion_back_to_pipelining() {
        // [1,2,1]: no edge pairs 1:1, so the fused and unfused simulations
        // are the same world and must agree exactly (same seed).
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 2, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let fused = Simulator::new(
            &m,
            &g,
            &p,
            SimConfig {
                fusion: true,
                ..quiet_config()
            },
        )
        .expect("valid")
        .run();
        let unfused = Simulator::new(&m, &g, &p, quiet_config())
            .expect("valid")
            .run();
        assert_eq!(fused.sink_events, unfused.sink_events);
        assert_eq!(fused.throughput, unfused.throughput);
    }

    #[test]
    fn rejects_incomplete_placement() {
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::empty(g.vertex_count());
        assert!(Simulator::new(&m, &g, &p, quiet_config()).is_err());
    }

    #[test]
    fn usable_cores_validation() {
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let bad = SimConfig {
            usable_cores: Some(vec![2]),
            ..quiet_config()
        };
        assert!(Simulator::new(&m, &g, &p, bad).is_err());
        let good = SimConfig {
            usable_cores: Some(vec![2, 2]),
            ..quiet_config()
        };
        assert!(Simulator::new(&m, &g, &p, good).is_ok());
    }

    #[test]
    fn oversubscribed_core_time_shares() {
        // Three replicas forced onto one core (usable_cores = 1): aggregate
        // throughput limited by one core's time budget.
        let m = machine();
        let t = linear();
        let g = ExecutionGraph::new(&t, &[1, 1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let one_core = SimConfig {
            usable_cores: Some(vec![1, 4]),
            ..quiet_config()
        };
        let shared = Simulator::new(&m, &g, &p, one_core).expect("valid").run();
        let spread = Simulator::new(&m, &g, &p, quiet_config())
            .expect("valid")
            .run();
        assert!(
            shared.throughput < spread.throughput,
            "time sharing {} must trail dedicated cores {}",
            shared.throughput,
            spread.throughput
        );
    }
}
