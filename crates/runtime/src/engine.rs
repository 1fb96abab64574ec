//! The threaded execution engine.
//!
//! One task per spawned operator replica, wired by bounded queues carrying
//! jumbo tuples and driven by the work-stealing worker pool
//! ([`crate::scheduler`]). Shutdown cascades topologically: the run
//! deadline stops the spouts; a bolt exits once every producer operator has
//! finished *and* its input queues are drained, so no tuple in flight is
//! lost.
//!
//! The engine runs a plan on the host it is started on; it does not emulate
//! the machine the plan was optimized for. A plan's socket placement is kept
//! as a fact per replica ([`Engine::replica_sockets`]) and decides one thing:
//! which edges fuse, since only collocated pairs may. What a remote fetch
//! costs on a multi-socket server is priced by the model (`brisk_model`) and
//! charged by the simulator (`brisk_sim`), not here.

use crate::batch::{Batch, BatchCursor, SlabPool, SlabStats};
use crate::fusion::{FusedSinkState, FusedTarget, SinkLocal, SinkProgress};
use crate::operator::{
    AppRuntime, BoltContext, Collector, DynBolt, EngineClock, OperatorRuntime, OutputEdge,
    StateEntry,
};
use crate::partition::Partitioner;
use crate::queue::{QueueKind, ReplicaQueue};
use crate::scheduler::{self, PoolRun, Scheduler, WakeHub};
use crate::spsc::BackoffProfile;
use crate::supervise::{panic_message, FaultKind, FaultSummary, ReplicaFault};
use crate::tuple::JumboTuple;
use brisk_dag::{
    ExecutionGraph, ExecutionPlan, FusionPlan, LogicalTopology, OperatorId, OperatorKind,
    Partitioning,
};
use brisk_metrics::Histogram;
use brisk_numa::{Machine, SocketId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine tuning knobs.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`EngineConfig::builder`] (or start from [`EngineConfig::default`] and
/// assign fields), so new knobs — like [`EngineConfig::scheduler`] — stop
/// being breaking changes.
///
/// ```
/// use brisk_runtime::{EngineConfig, Scheduler};
///
/// let config = EngineConfig::builder()
///     .fusion(false)
///     .scheduler(Scheduler::CorePool { workers: 4 })
///     .build();
/// assert_eq!(config.scheduler, Scheduler::CorePool { workers: 4 });
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Queue capacity in jumbo tuples.
    pub queue_capacity: usize,
    /// Tuples batched per jumbo tuple (1 disables the jumbo optimization).
    /// A soft bound: while a destination queue is full the producing task
    /// keeps running out its bounded slice, so a builder may grow past
    /// this before it seals.
    pub jumbo_size: usize,
    /// Operator-chain fusion (default on): 1:1 collocated producer→consumer
    /// chains collapse into a single executor calling the downstream
    /// operator inline instead of routing through a queue (see
    /// [`brisk_dag::FusionPlan`] for eligibility). Disable for A/B runs.
    pub fusion: bool,
    /// Width of the work-stealing worker pool that drives every replica
    /// task (see [`Scheduler`]; default: one worker per host core).
    pub scheduler: Scheduler,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            queue_capacity: 64,
            jumbo_size: 64,
            fusion: true,
            scheduler: Scheduler::default(),
        }
    }
}

impl EngineConfig {
    /// Chainable builder starting from [`EngineConfig::default`].
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Chainable builder for [`EngineConfig`]; see [`EngineConfig::builder`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Queue capacity in jumbos ([`EngineConfig::queue_capacity`]).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Tuples per jumbo ([`EngineConfig::jumbo_size`]).
    pub fn jumbo_size(mut self, size: usize) -> Self {
        self.config.jumbo_size = size;
        self
    }

    /// Toggle operator-chain fusion ([`EngineConfig::fusion`]).
    pub fn fusion(mut self, enabled: bool) -> Self {
        self.config.fusion = enabled;
        self
    }

    /// Size the worker pool ([`EngineConfig::scheduler`]).
    pub fn scheduler(mut self, scheduler: Scheduler) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Finish the chain.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Aggregated results of one engine run.
#[derive(Debug)]
pub struct RunReport {
    /// Wall-clock run time (including drain).
    pub elapsed: Duration,
    /// Tuples received by sink operators.
    pub sink_events: u64,
    /// `sink_events / elapsed` in events per second.
    pub throughput: f64,
    /// End-to-end latency (spout emit → sink receive), nanoseconds.
    pub latency_ns: Histogram,
    /// Payload slabs freshly allocated by the batch fabric over the whole
    /// run (pool misses). Steady state should be dominated by
    /// [`RunReport::slab_recycled`] instead.
    pub slab_allocs: u64,
    /// Payload slabs reused from a producer arena pool (pool hits) — the
    /// zero-allocation steady-state path.
    pub slab_recycled: u64,
    /// Every counter of every logical operator, by operator index.
    ops: Vec<OpStats>,
    /// Every structured fault of the run, in occurrence order.
    faults: Vec<ReplicaFault>,
    /// Tuples handled per global replica (spouts: emitted; bolts/sinks:
    /// consumed, including inline fused deliveries).
    replica_tuples: Vec<u64>,
    /// Nanoseconds each global replica spent inside its operator's
    /// `consume` (bolts/sinks only; spout slots stay 0).
    replica_busy: Vec<u64>,
    /// `(operator index, replica index)` of every global replica slot, in
    /// global-index order.
    replica_map: Vec<(usize, usize)>,
}

/// One replica's measured tuple rate — the per-replica signal the elastic
/// controller (and users, via [`RunReport::replica_rates`] or the live
/// [`EngineHandle::rates`]) reads to detect workload drift.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplicaRate {
    /// Logical operator index.
    pub op: usize,
    /// Replica index within the operator.
    pub replica: usize,
    /// Tuples this replica handled: emitted for spout replicas, consumed
    /// (queued pops plus inline fused deliveries) for bolts and sinks.
    pub tuples: u64,
    /// `tuples` divided by the sampling window, per second.
    pub rate: f64,
    /// Nanoseconds spent inside the operator's `consume` calls — execution
    /// plus emission (pushes never wait: a full queue hands the jumbo
    /// back), including inline work of fused targets riding this replica.
    /// Spout replicas report 0 (generation is not instrumented).
    pub busy_ns: u64,
}

impl ReplicaRate {
    /// Measured service time per tuple in nanoseconds — the online
    /// counterpart of the cost model's per-tuple `T(p)`; `None` when the
    /// replica has no instrumented busy time (spouts, starved replicas).
    pub fn service_ns(&self) -> Option<f64> {
        (self.busy_ns > 0 && self.tuples > 0).then(|| self.busy_ns as f64 / self.tuples as f64)
    }
}

/// Per-operator slice of a [`RunReport`], indexed by logical operator (see
/// [`RunReport::operator`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStats {
    /// Input-side tuples this operator consumed. Spouts have no input and
    /// report 0 — their generation count is in `emitted`, so spout
    /// emission and sink consumption stay distinguishable.
    pub processed: u64,
    /// Output-side tuples this operator emitted across all streams.
    pub emitted: u64,
    /// Back-pressure episodes charged to this operator as a producer: a
    /// flush found a destination queue full and the task had to yield.
    pub queue_full_events: u64,
    /// Jumbo tuples this operator pushed to consumer queues (fused edges
    /// deliver inline and never count).
    pub queue_pushes: u64,
    /// Tuples quarantined (dead-lettered) at this operator: each poison
    /// tuple whose `execute` panicked, plus every tuple a dead replica or
    /// dead fused instance will never process. At-most-once for these;
    /// exactly-once otherwise.
    pub quarantined: u64,
    /// Faults attributed to this operator (each continuation or death
    /// records one).
    pub faults: u64,
}

impl RunReport {
    /// Throughput in the paper's unit (k events/s).
    pub fn k_events_per_sec(&self) -> f64 {
        self.throughput / 1e3
    }

    /// All counters of one logical operator, by operator index.
    pub fn operator(&self, op: usize) -> OpStats {
        self.ops[op]
    }

    /// Number of logical operators covered by this report.
    pub fn operator_count(&self) -> usize {
        self.ops.len()
    }

    /// Every operator's counters, in operator order — convenient for
    /// whole-topology assertions (e.g. cross-configuration determinism).
    pub fn per_operator(&self) -> Vec<OpStats> {
        self.ops.clone()
    }

    /// Measured input-side processing rate of one operator, tuples/sec
    /// (0 for spouts — see [`RunReport::output_rate`]).
    pub fn input_rate(&self, op: usize) -> f64 {
        self.operator(op).processed as f64 / self.elapsed.as_secs_f64()
    }

    /// Measured output-side emission rate of one operator, tuples/sec
    /// (the measured counterpart of the model's per-operator `ro`).
    pub fn output_rate(&self, op: usize) -> f64 {
        self.operator(op).emitted as f64 / self.elapsed.as_secs_f64()
    }

    /// Every structured fault of the run, in occurrence order (empty on a
    /// clean run).
    pub fn faults(&self) -> &[ReplicaFault] {
        &self.faults
    }

    /// Measured per-replica tuple rates over the whole run, in global
    /// replica order (operator-major). Spout replicas report their emission
    /// rate; bolt and sink replicas their consumption rate, counting inline
    /// fused deliveries against the fused operator's replica — the same
    /// per-replica signal [`EngineHandle::rates`] exposes live.
    pub fn replica_rates(&self) -> Vec<ReplicaRate> {
        let secs = self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE);
        self.replica_map
            .iter()
            .zip(self.replica_tuples.iter().zip(&self.replica_busy))
            .map(|(&(op, replica), (&tuples, &busy_ns))| ReplicaRate {
                op,
                replica,
                tuples,
                rate: tuples as f64 / secs,
                busy_ns,
            })
            .collect()
    }

    /// Aggregated fault view of the run: faults and the run-wide
    /// quarantine total.
    pub fn fault_summary(&self) -> FaultSummary {
        FaultSummary {
            faults: self.faults.clone(),
            quarantined: self.ops.iter().map(|o| o.quarantined).sum(),
        }
    }
}

/// One wired input of a replica: a handle on the queue it pops.
pub(crate) type InputPort = Arc<ReplicaQueue<JumboTuple>>;

/// The wired, ready-to-run engine.
pub struct Engine {
    app: Arc<AppRuntime>,
    replication: Vec<usize>,
    config: EngineConfig,
    /// When set, *any* stop (run limit, drain, migration request) harvests
    /// operator state through `extract_state` instead of running `finish` —
    /// the deterministic migration-pause mode the elastic controller and
    /// the migration conformance tests use.
    capture_state_on_stop: bool,
    /// State handed over from a predecessor engine, installed into the
    /// matching replicas at start. Consumed by the first `start`.
    preload: Mutex<Vec<(usize, usize, Vec<StateEntry>)>>,
    /// Skew-aware KeyBy routing weights per *consumer* operator index
    /// (one weight per consumer replica), fed into the partitioners of
    /// every unfused KeyBy edge into that operator.
    keyby_weights: HashMap<usize, Vec<f64>>,
    /// Socket of every global replica index under the plan this engine was
    /// built from ([`Engine::with_plan`]); `None` for a bare replication
    /// vector. Read by placement-aware fusion only.
    replica_sockets: Option<Vec<SocketId>>,
}

impl Engine {
    /// Build an engine running `replication[op]` replicas of each operator.
    pub fn new(
        app: AppRuntime,
        replication: Vec<usize>,
        config: EngineConfig,
    ) -> Result<Engine, String> {
        Engine::from_shared(Arc::new(app), replication, config)
    }

    /// Like [`Engine::new`] but sharing an already-wrapped [`AppRuntime`] —
    /// successive migration epochs rebuild the engine around the same app
    /// without re-registering operator factories.
    pub fn from_shared(
        app: Arc<AppRuntime>,
        replication: Vec<usize>,
        config: EngineConfig,
    ) -> Result<Engine, String> {
        app.validate()?;
        if replication.len() != app.topology.operator_count() {
            return Err("replication must cover every operator".into());
        }
        if replication.contains(&0) {
            return Err("replication level must be at least 1".into());
        }
        let total: usize = replication.iter().sum();
        if total > 512 {
            return Err(format!("{total} replicas exceed the 512-thread safety cap"));
        }
        Ok(Engine {
            app,
            replication,
            config,
            capture_state_on_stop: false,
            preload: Mutex::new(Vec::new()),
            keyby_weights: HashMap::new(),
            replica_sockets: None,
        })
    }

    /// Harvest operator state on *every* stop — run limit, natural drain or
    /// migration request — instead of running `finish` hooks. The harvested
    /// entries come back through [`EngineHandle::join_with_state`]. This is
    /// the migration-pause mode: `finish` finals belong to the true end of
    /// the stream, which only the last epoch's (non-capturing) engine
    /// reaches.
    pub fn capture_state_on_stop(&mut self, capture: bool) {
        self.capture_state_on_stop = capture;
    }

    /// Stage migrated state for `replica` of operator `op`, installed via
    /// `install_state` right after the replica's operator is constructed
    /// (before it produces or consumes anything). Consumed by the first
    /// [`Engine::start`].
    pub fn preload_state(
        &self,
        op: usize,
        replica: usize,
        entries: Vec<StateEntry>,
    ) -> Result<(), String> {
        if op >= self.replication.len() {
            return Err(format!("operator index {op} out of range"));
        }
        if replica >= self.replication[op] {
            return Err(format!(
                "replica {replica} out of range for operator {op} ({} replicas)",
                self.replication[op]
            ));
        }
        self.preload.lock().push((op, replica, entries));
        Ok(())
    }

    /// Skew-aware KeyBy routing: weight the key-space share of each replica
    /// of consumer operator `op` (one weight per replica, relative). Fed
    /// into every unfused KeyBy edge into `op`; fused KeyBy edges keep the
    /// uniform aligned routing their pairing was computed for. See
    /// [`crate::partition::keyby_slot_table`] for the slot semantics.
    pub fn set_keyby_weights(&mut self, op: usize, weights: Vec<f64>) -> Result<(), String> {
        if op >= self.replication.len() {
            return Err(format!("operator index {op} out of range"));
        }
        if weights.len() != self.replication[op] {
            return Err(format!(
                "expected {} weights for operator {op}, got {}",
                self.replication[op],
                weights.len()
            ));
        }
        self.keyby_weights.insert(op, weights);
        Ok(())
    }

    /// Build an engine from an optimized [`ExecutionPlan`] for `machine`.
    /// The plan's placement decides which edges fuse (only collocated pairs
    /// may); the run itself happens on this host, at this host's speed.
    /// `Err` when the placement does not cover the plan's execution graph
    /// or names a socket `machine` does not have.
    pub fn with_plan(
        app: AppRuntime,
        plan: &ExecutionPlan,
        machine: &Machine,
        config: EngineConfig,
    ) -> Result<Engine, String> {
        let mut engine = Engine::new(app, plan.replication.clone(), config)?;
        engine.place(plan, machine)?;
        Ok(engine)
    }

    /// Record `plan`'s placement on this engine after checking it against
    /// the engine's topology and `machine`. The plan's replication must be
    /// the engine's own.
    pub(crate) fn place(&mut self, plan: &ExecutionPlan, machine: &Machine) -> Result<(), String> {
        let graph = ExecutionGraph::new(&self.app.topology, &plan.replication, plan.compress_ratio);
        if plan.placement.len() != graph.vertex_count() {
            return Err(format!(
                "placement covers {} vertices, the plan's execution graph has {}",
                plan.placement.len(),
                graph.vertex_count()
            ));
        }
        let sockets = replica_sockets_of(&graph, plan);
        if let Some(s) = sockets.iter().find(|s| s.0 >= machine.sockets()) {
            return Err(format!(
                "plan places a replica on socket {}, machine {} has {}",
                s.0,
                machine.name(),
                machine.sockets()
            ));
        }
        self.replica_sockets = Some(sockets);
        Ok(())
    }

    /// Socket of every global replica index, when the engine was built from
    /// a plan ([`Engine::with_plan`]).
    pub fn replica_sockets(&self) -> Option<&[SocketId]> {
        self.replica_sockets.as_deref()
    }

    /// Total operator replicas under this engine's plan (fused-away ones
    /// included).
    pub fn total_replicas(&self) -> usize {
        self.replication.iter().sum()
    }

    /// Run the wired topology until `limit` is reached, then drain every
    /// in-flight tuple and report. This is the single execution surface:
    /// [`Engine::run_for`] and [`Engine::run_until_events`] are thin
    /// wrappers over the two [`RunLimit`] variants.
    ///
    /// # Example
    ///
    /// Build a tiny spout → bolt → sink app, pick fusion and the pool
    /// width through the config builder, and run to exhaustion:
    ///
    /// ```
    /// use brisk_dag::{CostProfile, TopologyBuilder, DEFAULT_STREAM};
    /// use brisk_runtime::{
    ///     AppRuntime, Collector, DynBolt, DynSpout, Engine, EngineConfig, RunLimit, Scheduler,
    ///     SpoutStatus, TupleView,
    /// };
    /// use std::time::Duration;
    ///
    /// struct Nums(u64);
    /// impl DynSpout for Nums {
    ///     fn next(&mut self, c: &mut Collector) -> SpoutStatus {
    ///         if self.0 == 0 {
    ///             return SpoutStatus::Exhausted;
    ///         }
    ///         self.0 -= 1;
    ///         let now = c.now_ns();
    ///         c.send_default(self.0, now, self.0);
    ///         SpoutStatus::Emitted(1)
    ///     }
    /// }
    /// struct Relay;
    /// impl DynBolt for Relay {
    ///     fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
    ///         let v = *t.value::<u64>().expect("u64 payloads");
    ///         c.send_default(v, t.event_ns, t.key);
    ///     }
    /// }
    /// struct Discard;
    /// impl DynBolt for Discard {
    ///     fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
    /// }
    ///
    /// let mut b = TopologyBuilder::new("quick");
    /// let s = b.add_spout("nums", CostProfile::trivial());
    /// let x = b.add_bolt("relay", CostProfile::trivial());
    /// let k = b.add_sink("sink", CostProfile::trivial());
    /// b.connect_shuffle(s, x);
    /// b.connect_shuffle(x, k);
    /// let topology = b.build().unwrap();
    /// let (s, x, k) = (
    ///     topology.find("nums").unwrap(),
    ///     topology.find("relay").unwrap(),
    ///     topology.find("sink").unwrap(),
    /// );
    /// let app = AppRuntime::new(topology)
    ///     .spout(s, |_| Nums(200))
    ///     .bolt(x, |_| Relay)
    ///     .sink(k, |_| Discard);
    ///
    /// let config = EngineConfig::builder()
    ///     .fusion(true)
    ///     .scheduler(Scheduler::CorePool { workers: 2 })
    ///     .build();
    /// let engine = Engine::new(app, vec![1, 1, 1], config).unwrap();
    /// let report = engine.run(RunLimit::Events {
    ///     events: 200,
    ///     timeout: Duration::from_secs(60),
    /// });
    /// assert_eq!(report.sink_events, 200);
    /// assert_eq!(report.operator(1).processed, 200);
    /// ```
    ///
    /// Plan-driven runs work the same way: build via [`Engine::with_plan`]
    /// (whose placement decides which edges fuse) and call `run(...)` /
    /// [`Engine::run_until_events`] on the result.
    pub fn run(&self, limit: RunLimit) -> RunReport {
        self.start(limit).join()
    }

    /// Run until `deadline` elapses, then drain and report
    /// (`RunLimit::Duration` convenience).
    pub fn run_for(&self, deadline: Duration) -> RunReport {
        self.run(RunLimit::Duration(deadline))
    }

    /// Run until the sinks have received at least `events` tuples (or
    /// `timeout` elapses), then drain and report
    /// (`RunLimit::Events` convenience). Deterministic-ish runs for tests.
    pub fn run_until_events(&self, events: u64, timeout: Duration) -> RunReport {
        self.run(RunLimit::Events { events, timeout })
    }

    /// Wire and spawn the topology, returning a live [`EngineHandle`]
    /// without blocking on the run limit. The handle exposes live
    /// per-replica rates ([`EngineHandle::rates`]) and the migration pause
    /// ([`EngineHandle::request_migration`]);
    /// [`EngineHandle::join`] drives the limit and reports — `run(limit)`
    /// is exactly `start(limit).join()`.
    pub fn start(&self, condition: RunLimit) -> EngineHandle {
        let topology = &self.app.topology;
        let n_ops = topology.operator_count();
        let replica_base: Vec<usize> = {
            let mut base = vec![0usize; n_ops];
            let mut acc = 0;
            for (i, b) in base.iter_mut().enumerate() {
                *b = acc;
                acc += self.replication[i];
            }
            base
        };
        let total_replicas: usize = self.replication.iter().sum();

        // Operator-chain fusion: 1:1 replica-paired collocated chains
        // (single-replica chains, Forward edges, aligned KeyBy) collapse
        // into their host executors; fused edges get no queues at all.
        let fusion = if self.config.fusion {
            FusionPlan::compute(topology, &self.replication, self.replica_sockets())
        } else {
            FusionPlan::disabled(topology)
        };
        let spawned_replicas = fusion.spawned_executors(&self.replication);
        let pool_workers = self.config.scheduler.pool_workers(spawned_replicas);
        // Oversubscription-aware wait ladder for idle workers: when an
        // explicit `workers` count outnumbers hardware cores, spinning
        // burns the timeslices the other workers need, so waiters park
        // almost immediately.
        let backoff_profile = BackoffProfile::detect(pool_workers, POLL_BACKOFF);
        let wake_hub = Arc::new(WakeHub::new(total_replicas));

        // Slab arenas for the zero-copy batch fabric: one pool per
        // (operator, replica) producer, each with its own counters; the
        // handle keeps them all so teardown can sum the counters and
        // assert every slab came home.
        let pools: Vec<Vec<Arc<SlabPool>>> = self
            .replication
            .iter()
            .map(|&r| (0..r).map(|_| SlabPool::standalone()).collect())
            .collect();

        // Queues per unfused logical edge. Output edges are grouped per
        // (operator, local replica) because fused-away operators emit from
        // their host's task rather than a replica of their own. The ring
        // behind each queue follows from how many tasks push into it.
        let capacity = self.config.queue_capacity;
        let new_queue = |producers: usize| {
            let kind = QueueKind::default().for_producers(producers);
            Arc::new(ReplicaQueue::new(kind, capacity))
        };
        let mut inputs: Vec<Vec<InputPort>> = (0..total_replicas).map(|_| Vec::new()).collect();
        let mut op_outputs: Vec<Vec<Vec<OutputEdge>>> = self
            .replication
            .iter()
            .map(|&r| (0..r).map(|_| Vec::new()).collect())
            .collect();
        for (lei, edge) in topology.edges().iter().enumerate() {
            if fusion.is_edge_fused(lei) {
                continue; // delivered inline by the host executor
            }
            let np = self.replication[edge.from.0];
            let nc = self.replication[edge.to.0];
            let base = replica_base[edge.to.0];
            // A Global edge funnels every producer replica into consumer
            // replica 0 through one shared queue (with several producers
            // that is the fan-in ring; an SpscQueue is never shared). Every
            // other edge gets one queue per (producer, consumer) pair it
            // connects, so the single-producer contract holds by
            // construction.
            let funnel = matches!(edge.partitioning, Partitioning::Global).then(|| {
                let q = new_queue(np);
                inputs[base].push(Arc::clone(&q));
                q
            });
            for (r, outputs) in op_outputs[edge.from.0].iter_mut().enumerate() {
                // Which consumer replicas producer replica `r` feeds. Local
                // forwarding at equal counts pins producer r to consumer r;
                // at unequal counts the pairing is meaningless and Forward
                // spreads over every consumer like Shuffle — the model's
                // even-spread, work-conserving treatment is then exact.
                let targets = match edge.partitioning {
                    Partitioning::Global => 0..1,
                    Partitioning::Forward if np == nc => r..r + 1,
                    _ => 0..nc,
                };
                let consumers: Vec<usize> = targets.map(|c| base + c).collect();
                let queues = consumers
                    .iter()
                    .map(|&cg| match &funnel {
                        Some(q) => Arc::clone(q),
                        None => {
                            let q = new_queue(1);
                            inputs[cg].push(Arc::clone(&q));
                            q
                        }
                    })
                    .collect();
                // Skew-aware KeyBy re-weighting: the controller's measured
                // per-replica load lands here as a weighted slot table
                // (other strategies ignore weights).
                let mut partitioner = Partitioner::new(edge.partitioning, consumers.len());
                if let Some(w) = self.keyby_weights.get(&edge.to.0) {
                    partitioner = partitioner.with_weights(w);
                }
                outputs.push(OutputEdge::new(
                    lei,
                    edge.stream.clone(),
                    partitioner,
                    queues,
                    consumers,
                    &pools[edge.from.0][r],
                ));
            }
        }

        // Shared run state. `live_replicas` counts tasks still running:
        // it lets the driver stop waiting early when finite (sized) spouts
        // exhaust and the whole pipeline drains before the event target or
        // deadline is reached, and tells pool workers when to exit.
        // Fused-away operators have no task of their own.
        let clock = Arc::new(EngineClock::new());
        let shared = Arc::new(EngineShared {
            app: Arc::clone(&self.app),
            backoff_profile,
            clock: Arc::clone(&clock),
            stop: AtomicBool::new(false),
            op_done: (0..n_ops).map(|_| AtomicBool::new(false)).collect(),
            op_live: self
                .replication
                .iter()
                .map(|&r| AtomicUsize::new(r))
                .collect(),
            processed: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            emitted: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            queue_full: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            queue_pushes: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            live_replicas: AtomicUsize::new(spawned_replicas),
            sink_progress: Arc::new(SinkProgress {
                events: AtomicU64::new(0),
            }),
            quarantined: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            op_faults: (0..n_ops).map(|_| AtomicU64::new(0)).collect(),
            faults: Mutex::new(Vec::new()),
            dead_inputs: Mutex::new(Vec::new()),
            harvest: AtomicBool::new(self.capture_state_on_stop),
            harvested: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            preload: {
                let slots: Vec<Mutex<Option<Vec<StateEntry>>>> =
                    (0..total_replicas).map(|_| Mutex::new(None)).collect();
                let mut covered = vec![false; n_ops];
                for (op, replica, entries) in std::mem::take(&mut *self.preload.lock()) {
                    covered[op] = true;
                    *slots[replica_base[op] + replica].lock() = Some(entries);
                }
                // A migrated operator's hand-off must reach EVERY replica:
                // one that received no entries still gets an (empty)
                // install so it learns the migration happened — a
                // budget-sharded spout would otherwise re-derive a fresh
                // factory share next to peers carrying the real positions,
                // duplicating input.
                for (op, &covered) in covered.iter().enumerate() {
                    if !covered {
                        continue;
                    }
                    for r in 0..self.replication[op] {
                        let slot = &slots[replica_base[op] + r];
                        let mut guard = slot.lock();
                        if guard.is_none() {
                            *guard = Some(Vec::new());
                        }
                    }
                }
                slots
            },
            replica_tuples: (0..total_replicas).map(|_| AtomicU64::new(0)).collect(),
            replica_busy_ns: (0..total_replicas).map(|_| AtomicU64::new(0)).collect(),
            replica_base: replica_base.clone(),
            replica_map: self
                .replication
                .iter()
                .enumerate()
                .flat_map(|(op, &r)| (0..r).map(move |i| (op, i)))
                .collect(),
        });

        // Build fused targets bottom-up (reverse topological order), so a
        // chain's tail exists before the operator that hosts it. Fusion
        // pairs replicas index-wise (a fused edge requires equal replica
        // counts), so each fused-away operator gets one instance *per
        // replica pair*, each with its own collector; replica r's subtree
        // then attaches to the chain host's replica-r collector.
        let mut pending_fused: Vec<Vec<Vec<FusedTarget>>> = self
            .replication
            .iter()
            .map(|&r| (0..r).map(|_| Vec::new()).collect())
            .collect();
        for &op in topology.topological_order().iter().rev() {
            if !fusion.is_fused_away(op) {
                continue;
            }
            let spec = topology.operator(op);
            let streams: Vec<String> = topology
                .edges()
                .iter()
                .enumerate()
                .filter(|&(lei, e)| e.to == op && fusion.is_edge_fused(lei))
                .map(|(_, e)| e.stream.clone())
                .collect();
            let host = fusion.direct_host_of(op);
            for r in 0..self.replication[op.0] {
                let ctx = BoltContext {
                    replica: r,
                    replicas: self.replication[op.0],
                };
                let mut bolt = match self.app.runtime(op) {
                    OperatorRuntime::Bolt(f) | OperatorRuntime::Sink(f) => f(ctx),
                    OperatorRuntime::Spout(_) => unreachable!("spouts are never fused away"),
                };
                if let Some(entries) = shared.take_preload(replica_base[op.0] + r) {
                    bolt.install_state(entries);
                }
                let collector = Collector::new(
                    replica_base[op.0] + r,
                    self.config.jumbo_size,
                    std::mem::take(&mut op_outputs[op.0][r]),
                    Arc::clone(&clock),
                )
                .with_fused(std::mem::take(&mut pending_fused[op.0][r]))
                .with_wake_hub(Arc::clone(&wake_hub));
                let sink = (spec.kind == OperatorKind::Sink)
                    .then(|| FusedSinkState::new(Arc::clone(&shared.sink_progress)));
                pending_fused[host.0][r].push(FusedTarget {
                    op_index: op.0,
                    streams: streams.clone(),
                    bolt,
                    collector,
                    processed: 0,
                    sink,
                    replica: r,
                    shared: Arc::clone(&shared),
                    host_op: host.0,
                    dead: false,
                });
            }
        }

        // Seed every spawned replica as a task, in reverse topological
        // order so consumers sit early in the pool's run queues, before
        // producers start pushing — not required for correctness, helps
        // startup latency.
        let spawn_order: Vec<brisk_dag::OperatorId> =
            topology.topological_order().iter().rev().copied().collect();
        let mut inputs_by_replica: Vec<Option<Vec<InputPort>>> =
            inputs.into_iter().map(Some).collect();
        let mut seeds: Vec<TaskSeed> = Vec::with_capacity(spawned_replicas);
        for op in spawn_order {
            if fusion.is_fused_away(op) {
                continue; // runs inline inside its chain host
            }
            let spec = topology.operator(op);
            for (r, outputs) in op_outputs[op.0].iter_mut().enumerate() {
                let global = replica_base[op.0] + r;
                // Replica r hosts the replica-r instances of its fused
                // subtree (index-aligned pairing).
                let collector = Collector::new(
                    global,
                    self.config.jumbo_size,
                    std::mem::take(outputs),
                    Arc::clone(&clock),
                )
                .with_fused(std::mem::take(&mut pending_fused[op.0][r]))
                .with_wake_hub(Arc::clone(&wake_hub));
                seeds.push(TaskSeed {
                    global,
                    op_index: op.0,
                    kind: spec.kind,
                    ctx: BoltContext {
                        replica: r,
                        replicas: self.replication[op.0],
                    },
                    collector,
                    ports: inputs_by_replica[global].take().expect("inputs once"),
                    producer_ops: topology.producers_of(op).iter().map(|p| p.0).collect(),
                });
            }
        }

        let started = Instant::now();
        let running = scheduler::spawn_pool(seeds, wake_hub, Arc::clone(&shared), pool_workers);
        EngineHandle {
            shared,
            running,
            pools,
            limit: condition,
            started,
        }
    }
}

/// State harvested from one engine at a migration pause: one
/// `(operator index, replica index, entries)` record per replica whose
/// operator returned `Some` from `extract_state`.
pub type HarvestedState = Vec<(usize, usize, Vec<StateEntry>)>;

/// A live, running engine: the handle [`Engine::start`] returns before the
/// run limit is reached.
///
/// The handle is the elastic runtime's control surface — it exposes live
/// per-replica rates ([`EngineHandle::rates`]), sink progress, and the
/// tuple-safe migration pause: [`EngineHandle::request_migration`] flips
/// the engine into harvest mode and stops it; spouts exit at the next
/// emission boundary, bolts drain every in-flight tuple (a bolt only exits
/// once all its producers retired *and* its input queues are empty), and
/// each drained replica hands its state out through `extract_state`
/// instead of running `finish`. [`EngineHandle::join_with_state`] then
/// returns both the report and the harvested state for re-installation
/// into a successor engine.
pub struct EngineHandle {
    shared: Arc<EngineShared>,
    running: PoolRun,
    pools: Vec<Vec<Arc<SlabPool>>>,
    limit: RunLimit,
    started: Instant,
}

impl EngineHandle {
    /// Live per-replica tuple rates since start, in global replica order
    /// (operator-major): spout replicas report emission, bolt/sink replicas
    /// consumption (inline fused deliveries count against the fused
    /// operator's own replica). The controller samples this to detect
    /// drift; [`RunReport::replica_rates`] is the post-run equivalent.
    pub fn rates(&self) -> Vec<ReplicaRate> {
        let secs = self.started.elapsed().as_secs_f64().max(f64::MIN_POSITIVE);
        self.shared
            .replica_map
            .iter()
            .zip(
                self.shared
                    .replica_tuples
                    .iter()
                    .zip(&self.shared.replica_busy_ns),
            )
            .map(|(&(op, replica), (tuples, busy))| {
                let tuples = tuples.load(Ordering::Relaxed);
                ReplicaRate {
                    op,
                    replica,
                    tuples,
                    rate: tuples as f64 / secs,
                    busy_ns: busy.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Tuples received by sink operators so far (relaxed, monotone).
    pub fn sink_events(&self) -> u64 {
        self.shared.sink_progress.events.load(Ordering::Relaxed)
    }

    /// Wall-clock time since the engine started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Whether every replica has retired (the pipeline drained or the run
    /// was stopped). [`EngineHandle::join`] returns promptly once true.
    pub fn is_finished(&self) -> bool {
        self.shared.live_replicas.load(Ordering::Relaxed) == 0
    }

    /// Stop the run before its limit: spouts exit at the next emission
    /// boundary and the pipeline drains — exactly the limit-reached path.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Begin a migration pause: harvest mode on, then stop. Every replica
    /// drains its inputs (nothing in flight is dropped), hands its state
    /// out via `extract_state` instead of running `finish`, and retires.
    /// Collect the state with [`EngineHandle::join_with_state`].
    pub fn request_migration(&self) {
        self.shared.harvest.store(true, Ordering::SeqCst);
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Drive the run limit, then drain, join the worker pool and report.
    pub fn join(self) -> RunReport {
        self.join_inner().0
    }

    /// [`EngineHandle::join`] plus the state harvested at the stop (empty
    /// unless harvest mode was on — via [`Engine::capture_state_on_stop`]
    /// or [`EngineHandle::request_migration`]).
    pub fn join_with_state(self) -> (RunReport, HarvestedState) {
        self.join_inner()
    }

    fn join_inner(self) -> (RunReport, HarvestedState) {
        let EngineHandle {
            shared,
            running,
            pools,
            limit,
            started,
        } = self;
        // Drive the stop condition; an external request_stop /
        // request_migration short-circuits either limit.
        match limit {
            RunLimit::Duration(d) => {
                let deadline = started + d;
                loop {
                    if shared.stop.load(Ordering::Relaxed)
                        || shared.live_replicas.load(Ordering::Relaxed) == 0
                    {
                        break; // stopped early, or finite spouts drained
                    }
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    std::thread::sleep((deadline - now).min(Duration::from_millis(1)));
                }
            }
            RunLimit::Events { events, timeout } => {
                let deadline = started + timeout;
                while shared.sink_progress.events.load(Ordering::Relaxed) < events
                    && shared.live_replicas.load(Ordering::Relaxed) > 0
                    && Instant::now() < deadline
                    && !shared.stop.load(Ordering::Relaxed)
                {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        shared.stop.store(true, Ordering::SeqCst);
        // Sink metrics stayed task-local for the whole run (replicas never
        // serialized on a shared histogram); the pool hands back the merge.
        let SinkLocal {
            events: sink_events,
            latency: latency_ns,
        } = running.join(&shared);
        // Every task retired, so dead replicas' closed rings are quiescent:
        // charge what is left in them to the dead operator (a push after
        // the close was charged by its producer) and drop it, so its slabs
        // are home before the check below.
        for (op, ports) in std::mem::take(&mut *shared.dead_inputs.lock()) {
            let mut stranded = 0;
            for port in &ports {
                while let Some(jumbo) = port.try_pop() {
                    stranded += jumbo.len() as u64;
                }
            }
            shared.quarantined[op].fetch_add(stranded, Ordering::Relaxed);
        }

        // Every queue, collector and pending batch dropped with its task,
        // so every slab checked out of an arena must be home again. Debug
        // tripwire: a nonzero count is a refcount leak in the batch fabric.
        let slab_sum = |count: fn(&SlabStats) -> u64| -> u64 {
            pools.iter().flatten().map(|p| count(p.stats())).sum()
        };
        let slab_allocs = slab_sum(SlabStats::allocated);
        let slab_recycled = slab_sum(SlabStats::recycled);
        let outstanding = slab_sum(SlabStats::outstanding);
        debug_assert_eq!(
            outstanding, 0,
            "slab leak at engine teardown: {outstanding} slab(s) still outstanding"
        );
        // The payloads left in pooled slabs are freed here, not by a worker.
        drop(pools);

        let elapsed = started.elapsed();
        let load_all =
            |v: &[AtomicU64]| -> Vec<u64> { v.iter().map(|c| c.load(Ordering::Relaxed)).collect() };
        let load = |v: &[AtomicU64], op: usize| v[op].load(Ordering::Relaxed);
        let report = RunReport {
            elapsed,
            sink_events,
            throughput: sink_events as f64 / elapsed.as_secs_f64(),
            latency_ns,
            ops: (0..shared.processed.len())
                .map(|op| OpStats {
                    processed: load(&shared.processed, op),
                    emitted: load(&shared.emitted, op),
                    queue_full_events: load(&shared.queue_full, op),
                    queue_pushes: load(&shared.queue_pushes, op),
                    quarantined: load(&shared.quarantined, op),
                    faults: load(&shared.op_faults, op),
                })
                .collect(),
            slab_allocs,
            slab_recycled,
            faults: std::mem::take(&mut *shared.faults.lock()),
            replica_tuples: load_all(&shared.replica_tuples),
            replica_busy: load_all(&shared.replica_busy_ns),
            replica_map: shared.replica_map.clone(),
        };
        let mut harvested = std::mem::take(&mut *shared.harvested.lock());
        // A spout that exhausted its budget before the pause request flipped
        // the harvest flag exited without harvesting; its parked position is
        // still part of the migration hand-off (without it the successor's
        // fresh factories would re-derive full budget shares and duplicate
        // input). Retired state is dropped on a plain (non-migrating) stop.
        if shared.harvesting() {
            harvested.append(&mut *shared.retired.lock());
        }
        // Deterministic order for redistribution and tests: push order is
        // whatever thread interleaving the drain produced.
        harvested.sort_by_key(|h| (h.0, h.1));
        (report, harvested)
    }
}

/// Expand a plan's vertex-granular placement into the engine's per-replica
/// socket assignment. Global replica indices are operator-major (all
/// replicas of operator 0, then operator 1, …), and each — possibly
/// compressed — execution vertex covers `multiplicity` consecutive replicas
/// of its operator, in `vertices_of` order. Vertices an optimizer left
/// unplaced default to socket 0.
pub fn plan_replica_sockets(topology: &LogicalTopology, plan: &ExecutionPlan) -> Vec<SocketId> {
    let graph = ExecutionGraph::new(topology, &plan.replication, plan.compress_ratio);
    replica_sockets_of(&graph, plan)
}

/// [`plan_replica_sockets`] over an already-built execution graph of `plan`.
fn replica_sockets_of(graph: &ExecutionGraph<'_>, plan: &ExecutionPlan) -> Vec<SocketId> {
    let mut replica_socket = vec![SocketId(0); plan.total_replicas()];
    let mut base = 0usize;
    for (op, _) in graph.topology().operators() {
        for &v in graph.vertices_of(op) {
            let socket = plan.placement.socket_of(v).unwrap_or(SocketId(0));
            for r in 0..graph.vertex(v).multiplicity {
                replica_socket[base + r] = socket;
            }
            base += graph.vertex(v).multiplicity;
        }
    }
    replica_socket
}

/// Stop condition for [`Engine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLimit {
    /// Run for a fixed wall-clock duration, then drain and report.
    Duration(Duration),
    /// Run until the sinks have received at least `events` tuples, the
    /// pipeline drains (finite spouts), or `timeout` elapses — whichever
    /// comes first.
    Events {
        /// Sink-event target.
        events: u64,
        /// Wall-clock safety net.
        timeout: Duration,
    },
}

/// Engine state shared by every task of one run.
pub(crate) struct EngineShared {
    pub(crate) app: Arc<AppRuntime>,
    pub(crate) backoff_profile: BackoffProfile,
    pub(crate) clock: Arc<EngineClock>,
    pub(crate) stop: AtomicBool,
    /// Per-operator "every replica retired" latches (consumers drain and
    /// exit once all their producers latch).
    pub(crate) op_done: Vec<AtomicBool>,
    /// Per-operator live instance counts (replicas + fused instances).
    pub(crate) op_live: Vec<AtomicUsize>,
    pub(crate) processed: Vec<AtomicU64>,
    pub(crate) emitted: Vec<AtomicU64>,
    pub(crate) queue_full: Vec<AtomicU64>,
    pub(crate) queue_pushes: Vec<AtomicU64>,
    /// Tasks still running — the driver's early-exit signal and the pool
    /// workers' shutdown condition.
    pub(crate) live_replicas: AtomicUsize,
    pub(crate) sink_progress: Arc<SinkProgress>,
    /// Per-operator quarantined (dead-lettered) tuple counts.
    pub(crate) quarantined: Vec<AtomicU64>,
    /// Per-operator fault counts (mirrors `faults` for cheap per-op reads).
    pub(crate) op_faults: Vec<AtomicU64>,
    /// Structured fault records, in occurrence order.
    pub(crate) faults: Mutex<Vec<ReplicaFault>>,
    /// Closed input rings of replicas that died, by operator index: their
    /// leftovers are counted into `quarantined` at teardown.
    pub(crate) dead_inputs: Mutex<Vec<(usize, Vec<InputPort>)>>,
    /// Migration-pause mode: when set at stop time, draining replicas hand
    /// their state out via `extract_state` instead of running `finish`.
    pub(crate) harvest: AtomicBool,
    /// State harvested at a migration pause: `(op, replica, entries)`.
    pub(crate) harvested: Mutex<Vec<(usize, usize, Vec<StateEntry>)>>,
    /// Final state of spouts that retired *before* any harvest was
    /// requested (a budget-sharded source drains long before a slow
    /// downstream finishes). Folded into `harvested` when the stop turns
    /// out to be a migration pause, discarded otherwise — without it, a
    /// migration racing spout exhaustion would lose the "budget spent"
    /// position and the successor's spouts would re-derive fresh shares.
    pub(crate) retired: Mutex<Vec<(usize, usize, Vec<StateEntry>)>>,
    /// Per-global-replica migrated-state install slots, taken exactly once
    /// at instantiation.
    pub(crate) preload: Vec<Mutex<Option<Vec<StateEntry>>>>,
    /// Per-global-replica tuple counters behind [`EngineHandle::rates`]:
    /// spout replicas count emissions, bolt/sink replicas consumed tuples
    /// (queued and inline-fused alike).
    pub(crate) replica_tuples: Vec<AtomicU64>,
    /// Nanoseconds each global replica spent inside `consume` (bolts/sinks
    /// only) — the online service-time signal cost recalibration reads.
    pub(crate) replica_busy_ns: Vec<AtomicU64>,
    /// First global replica index of each operator.
    pub(crate) replica_base: Vec<usize>,
    /// `(op, replica)` of every global replica index.
    pub(crate) replica_map: Vec<(usize, usize)>,
}

impl EngineShared {
    /// Operator name for fault attribution (`"<executor>"` when the fault
    /// is not attributable to an operator).
    pub(crate) fn op_name(&self, op_index: usize) -> String {
        if op_index == usize::MAX {
            return "<executor>".to_string();
        }
        self.app
            .topology
            .operator(OperatorId(op_index))
            .name
            .clone()
    }

    /// Record a structured fault (and charge the per-operator counter when
    /// attributable).
    pub(crate) fn record_fault(
        &self,
        op_index: usize,
        replica: usize,
        kind: FaultKind,
        message: String,
        continued: bool,
    ) {
        if op_index != usize::MAX {
            self.op_faults[op_index].fetch_add(1, Ordering::Relaxed);
        }
        self.faults.lock().push(ReplicaFault {
            op_index,
            op_name: self.op_name(op_index),
            replica,
            kind,
            message,
            continued,
        });
    }

    /// Whether the run is stopping into a migration pause (state harvest)
    /// rather than a final shutdown (`finish` hooks).
    pub(crate) fn harvesting(&self) -> bool {
        self.harvest.load(Ordering::Acquire)
    }

    /// Claim the migrated state staged for a global replica, once.
    pub(crate) fn take_preload(&self, global: usize) -> Option<Vec<StateEntry>> {
        self.preload[global].lock().take()
    }

    /// Record one replica's extracted state (no-op for `None`: the
    /// operator declared itself stateless).
    pub(crate) fn harvest_state(
        &self,
        op_index: usize,
        replica: usize,
        entries: Option<Vec<StateEntry>>,
    ) {
        if let Some(entries) = entries {
            self.harvested.lock().push((op_index, replica, entries));
        }
    }

    /// Park the final state of a spout that retired before any harvest was
    /// requested (see the `retired` field).
    pub(crate) fn park_retired(
        &self,
        op_index: usize,
        replica: usize,
        entries: Option<Vec<StateEntry>>,
    ) {
        if let Some(entries) = entries {
            self.retired.lock().push((op_index, replica, entries));
        }
    }
}

/// Everything one spawned replica needs to run, produced by the engine's
/// wiring phase and turned into a pool task by
/// [`scheduler::spawn_pool`].
pub(crate) struct TaskSeed {
    /// Global replica index — doubles as the pool's task id.
    pub(crate) global: usize,
    pub(crate) op_index: usize,
    pub(crate) kind: OperatorKind,
    pub(crate) ctx: BoltContext,
    pub(crate) collector: Collector,
    pub(crate) ports: Vec<InputPort>,
    pub(crate) producer_ops: Vec<usize>,
}

/// Force-retire a replica whose executor was lost (a panic that escaped
/// every operator guard): record the fault, close its *input* queues so
/// producers fail fast instead of backing up forever, and release its —
/// and its fused subtree's — `op_live` latches so downstream consumers
/// drain and exit. Output queues are left open for still-live consumers.
pub(crate) fn emergency_retire(
    shared: &EngineShared,
    op_index: usize,
    replica: usize,
    hosted_ops: &[usize],
    input_queues: &[InputPort],
    message: String,
) {
    shared.record_fault(op_index, replica, FaultKind::ExecutorLoss, message, false);
    for q in input_queues {
        q.close();
    }
    for &op in hosted_ops {
        if shared.op_live[op].fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.op_done[op].store(true, Ordering::Release);
        }
    }
    if shared.op_live[op_index].fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.op_done[op_index].store(true, Ordering::Release);
    }
    shared.live_replicas.fetch_sub(1, Ordering::Relaxed);
}

/// Merge a finished task's collector-local counters (and its fused
/// subtree's) into the shared report state, then retire the task: release
/// `op_done` latches and decrement the live-task count. The collector must
/// be fully flushed.
pub(crate) fn merge_and_retire(
    collector: &mut Collector,
    op_index: usize,
    mut sink_local: Option<SinkLocal>,
    shared: &EngineShared,
) -> Option<SinkLocal> {
    // Collector counters stay task-local for the whole run so the hot path
    // never touches shared cache lines.
    shared.emitted[op_index].fetch_add(collector.emitted, Ordering::Relaxed);
    shared.queue_full[op_index].fetch_add(collector.stalled_flushes, Ordering::Relaxed);
    shared.queue_pushes[op_index].fetch_add(collector.flushes, Ordering::Relaxed);
    charge_refused(collector, shared);
    // Merge every fused operator instance's counters and sink metrics,
    // then retire it from `op_live` — a fused operator has one instance
    // per host replica, and the last host out releases its `op_done`
    // latch, exactly like real replicas do below.
    for mut target in collector.take_fused() {
        shared.processed[target.op_index].fetch_add(target.processed, Ordering::Relaxed);
        shared.emitted[target.op_index].fetch_add(target.collector.emitted, Ordering::Relaxed);
        shared.queue_full[target.op_index]
            .fetch_add(target.collector.stalled_flushes, Ordering::Relaxed);
        shared.queue_pushes[target.op_index].fetch_add(target.collector.flushes, Ordering::Relaxed);
        charge_refused(&target.collector, shared);
        if let Some(state) = target.sink.take() {
            let local = sink_local.get_or_insert_with(SinkLocal::default);
            local.events += state.local.events;
            local.latency.merge(&state.local.latency);
        }
        if shared.op_live[target.op_index].fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.op_done[target.op_index].store(true, Ordering::Release);
        }
    }
    // Last replica out marks the operator done, releasing consumers.
    if shared.op_live[op_index].fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.op_done[op_index].store(true, Ordering::Release);
    }
    shared.live_replicas.fetch_sub(1, Ordering::Relaxed);
    sink_local
}

/// Charge the tuples `collector` dropped at closed rings to the dead
/// consumers' operators, so their edges still conserve.
fn charge_refused(collector: &Collector, shared: &EngineShared) {
    for &(consumer, tuples) in &collector.refused {
        let (op, _) = shared.replica_map[consumer];
        shared.quarantined[op].fetch_add(tuples, Ordering::Relaxed);
    }
}

/// Jumbos drained from one port per consumer poll: enough to amortize the
/// ring's index publish, small enough to keep round-robin port fairness.
pub(crate) const POP_BATCH: usize = 4;

/// Emit-side flush cadence, in operator invocations: a task ships its
/// partial batches at least this often, so a slow stream cannot sit in a
/// builder for a whole slice.
pub(crate) const FLUSH_EVERY: u32 = 256;

/// Park interval ceiling of the spin → yield → park ladder
/// ([`crate::Backoff`]) idle pool workers wait on.
const POLL_BACKOFF: Duration = Duration::from_micros(100);

/// Round-robin scan state over a replica's input ports, shared by the poll
/// loop and the shutdown drain check.
pub(crate) struct PortCursor {
    n_ports: usize,
    next: usize,
}

impl PortCursor {
    pub(crate) fn new(n_ports: usize) -> PortCursor {
        PortCursor { n_ports, next: 0 }
    }

    /// Pop up to `max` jumbos from the first non-empty port at or after the
    /// cursor, advancing the cursor past it. `false` when every port was
    /// empty.
    pub(crate) fn poll(
        &mut self,
        ports: &[InputPort],
        out: &mut Vec<JumboTuple>,
        max: usize,
    ) -> bool {
        for off in 0..self.n_ports {
            let idx = (self.next + off) % self.n_ports;
            if ports[idx].pop_n(out, max) > 0 {
                self.next = (idx + 1) % self.n_ports;
                return true;
            }
        }
        false
    }

    /// Whether every port is empty (lock-free reads; exact once the
    /// producers have finished).
    pub(crate) fn drained(&self, ports: &[InputPort]) -> bool {
        ports.iter().all(|p| p.is_empty())
    }
}

/// A bolt's consume-side working state, persisted by its pool task across
/// slices.
pub(crate) struct BoltState {
    pub(crate) bolt: Box<dyn DynBolt>,
    pub(crate) cursor: PortCursor,
    pub(crate) batch: Vec<JumboTuple>,
    /// Remainders of panic-interrupted batches — everything after the
    /// quarantined poison tuple, kept as zero-copy slices of the shared
    /// slab: replayed first when the replica continues, so a contained
    /// panic loses exactly the one quarantined tuple.
    pub(crate) pending: Vec<Batch>,
    pub(crate) sink_local: Option<SinkLocal>,
    pub(crate) since_flush: u32,
}

impl BoltState {
    pub(crate) fn new(bolt: Box<dyn DynBolt>, kind: OperatorKind, n_ports: usize) -> BoltState {
        BoltState {
            bolt,
            cursor: PortCursor::new(n_ports),
            batch: Vec::with_capacity(POP_BATCH),
            pending: Vec::new(),
            sink_local: (kind == OperatorKind::Sink).then(SinkLocal::default),
            since_flush: 0,
        }
    }
}

/// Consume the jumbos sitting in `state.batch`: execute the bolt under a
/// panic guard, record sink metrics, and flush on the [`FLUSH_EVERY`]
/// cadence.
///
/// A panic inside `execute` returns `Err` with the rendered payload after
/// quarantining exactly the poison tuple: everything executed before it is
/// already counted, everything after it moves to `state.pending` for
/// replay if the operator continues, and the remaining jumbos stay in
/// `state.batch`.
pub(crate) fn consume_batch(
    state: &mut BoltState,
    collector: &mut Collector,
    op_index: usize,
    shared: &EngineShared,
) -> Result<(), String> {
    // Front to back without shifting the rest down per jumbo; each jumbo
    // still drops (and recycles its slab) as soon as it is consumed.
    let mut jumbos = std::mem::take(&mut state.batch);
    let mut unconsumed = jumbos.drain(..);
    while let Some(jumbo) = unconsumed.next() {
        let total = jumbo.len();
        let now_ns = if state.sink_local.is_some() {
            shared.clock.now_ns()
        } else {
            0
        };
        // One guard per batch, not per tuple: catch_unwind is free on the
        // non-panic path, and the cursor pins the poison tuple on unwind.
        let batch = jumbo.batch;
        let cursor = BatchCursor::new(&batch);
        let bolt = &mut state.bolt;
        // Service-time instrumentation brackets the consume call: one
        // clock pair per jumbo, amortized over the whole batch.
        let busy_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| bolt.consume(&cursor, collector)));
        shared.replica_busy_ns[collector.replica()]
            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        // Sink metrics are recorded post-hoc off the batch's event-time
        // lane (completed prefix only, on a fault) — one clock read per
        // batch, same resolution as before, no per-tuple bookkeeping
        // inside the hot loop.
        let record_sink = |state: &mut BoltState, upto: usize| {
            if let Some(local) = state.sink_local.as_mut() {
                for &ev in &batch.event_ns_lane()[..upto] {
                    local.latency.record(now_ns.saturating_sub(ev) as f64);
                }
                local.events += upto as u64;
                // Relaxed aggregate so `run_until_events` can poll.
                shared
                    .sink_progress
                    .events
                    .fetch_add(upto as u64, Ordering::Relaxed);
            }
        };
        match result {
            Ok(()) => {
                // Returning normally from `consume` counts the whole batch
                // as processed (the documented contract).
                record_sink(state, total);
                shared.processed[op_index].fetch_add(total as u64, Ordering::Relaxed);
                shared.replica_tuples[collector.replica()]
                    .fetch_add(total as u64, Ordering::Relaxed);
                state.since_flush += 1;
                if state.since_flush >= FLUSH_EVERY {
                    collector.flush_all();
                    state.since_flush = 0;
                }
            }
            Err(payload) => {
                // `done` tuples completed and count as processed; tuple
                // `done` is the poison tuple — quarantined, never retried;
                // the tail replays on continuation as a zero-copy slice of
                // the same slab (no payload clones to quarantine out of a
                // shared batch).
                let done = cursor.done().min(total);
                record_sink(state, done);
                shared.processed[op_index].fetch_add(done as u64, Ordering::Relaxed);
                shared.replica_tuples[collector.replica()]
                    .fetch_add(done as u64, Ordering::Relaxed);
                shared.quarantined[op_index].fetch_add(1, Ordering::Relaxed);
                if done + 1 < total {
                    state.pending.push(batch.slice(done + 1, total - done - 1));
                }
                state.batch.extend(unconsumed);
                return Err(panic_message(payload.as_ref()));
            }
        }
    }
    drop(unconsumed);
    state.batch = jumbos; // empty, capacity kept
    Ok(())
}

/// Replay tuples left over from a panic-interrupted jumbo (everything
/// after the quarantined poison tuple), one guarded call each — a repeat
/// offender quarantines again rather than wedging the replica.
pub(crate) fn replay_pending(
    state: &mut BoltState,
    collector: &mut Collector,
    op_index: usize,
    shared: &EngineShared,
) -> Result<(), String> {
    while let Some(front) = state.pending.first_mut() {
        // Detach one single-tuple slice off the front — a refcount bump on
        // the shared slab, never a payload clone. Replaying through
        // `consume` (not `execute`) keeps per-tuple semantics for batch
        // consumers and fault-injection wrappers alike.
        let one = front.slice(0, 1);
        if front.len() == 1 {
            state.pending.remove(0);
        } else {
            let rest = front.slice(1, front.len() - 1);
            *front = rest;
        }
        let cursor = BatchCursor::new(&one);
        let bolt = &mut state.bolt;
        let busy_start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| bolt.consume(&cursor, collector)));
        shared.replica_busy_ns[collector.replica()]
            .fetch_add(busy_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        match result {
            Ok(()) => {
                if let Some(local) = state.sink_local.as_mut() {
                    let now = shared.clock.now_ns();
                    local
                        .latency
                        .record(now.saturating_sub(one.event_ns(0)) as f64);
                    local.events += 1;
                    shared.sink_progress.events.fetch_add(1, Ordering::Relaxed);
                }
                shared.processed[op_index].fetch_add(1, Ordering::Relaxed);
                shared.replica_tuples[collector.replica()].fetch_add(1, Ordering::Relaxed);
            }
            Err(payload) => {
                shared.quarantined[op_index].fetch_add(1, Ordering::Relaxed);
                return Err(panic_message(payload.as_ref()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TupleView;
    use crate::operator::{DynBolt, DynSpout, SpoutStatus};
    use crate::tuple::Tuple;
    use brisk_dag::{CostProfile, TopologyBuilder, DEFAULT_STREAM};

    struct CountingSpout {
        next: u64,
        limit: u64,
    }
    impl DynSpout for CountingSpout {
        fn next(&mut self, c: &mut Collector) -> SpoutStatus {
            if self.next >= self.limit {
                return SpoutStatus::Exhausted;
            }
            let now = c.now_ns();
            c.send_default(self.next, now, self.next);
            self.next += 1;
            SpoutStatus::Emitted(1)
        }
    }

    struct DoublingBolt;
    impl DynBolt for DoublingBolt {
        fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
            let v = *t.value::<u64>().expect("u64 payload");
            c.send_default(v, t.event_ns, t.key);
            c.send_default(v, t.event_ns, t.key);
        }
    }

    struct NullSink;
    impl DynBolt for NullSink {
        fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
    }

    fn app(limit: u64) -> AppRuntime {
        let mut b = TopologyBuilder::new("t");
        let s = b.add_spout("s", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        let (s, x, k) = (
            t.find("s").expect("s"),
            t.find("x").expect("x"),
            t.find("k").expect("k"),
        );
        AppRuntime::new(t)
            .spout(s, move |_| CountingSpout { next: 0, limit })
            .bolt(x, |_| DoublingBolt)
            .sink(k, |_| NullSink)
    }

    /// Per-operator input-side counts via the supported accessor.
    fn processed(r: &RunReport) -> Vec<u64> {
        r.per_operator().iter().map(|o| o.processed).collect()
    }

    /// Per-operator output-side counts via the supported accessor.
    fn emitted(r: &RunReport) -> Vec<u64> {
        r.per_operator().iter().map(|o| o.emitted).collect()
    }

    /// Total queue crossings across all operators.
    fn total_pushes(r: &RunReport) -> u64 {
        r.per_operator().iter().map(|o| o.queue_pushes).sum()
    }

    #[test]
    fn pipeline_delivers_every_tuple_exactly_doubled() {
        let engine =
            Engine::new(app(1000), vec![1, 2, 2], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(2000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 2000, "1000 inputs doubled");
        // Input side: spouts consume nothing, the bolt sees every sentence,
        // the sink consumes the doubled stream.
        assert_eq!(processed(&report), vec![0, 1000, 2000]);
        // Output side: spout emission and sink consumption are reported
        // separately and the doubling shows up between them.
        assert_eq!(emitted(&report), vec![1000, 2000, 0]);
        assert!(report.output_rate(0) > 0.0);
        assert!(report.input_rate(2) >= report.output_rate(0));
    }

    #[test]
    fn single_worker_pool_survives_back_pressure_without_deadlock() {
        // One worker drives the whole pipeline through tiny queues: every
        // producer task hits back-pressure with nobody else to drain it.
        // Non-blocking flushes + task yield must keep the pool live (a
        // push that waited here would deadlock the lone worker forever).
        let config = EngineConfig::builder()
            .queue_capacity(2)
            .jumbo_size(8)
            .scheduler(Scheduler::CorePool { workers: 1 })
            .build();
        let engine = Engine::new(app(2000), vec![1, 2, 2], config).expect("valid engine");
        let report = engine.run_until_events(4000, Duration::from_secs(60));
        assert_eq!(report.sink_events, 4000);
        assert_eq!(processed(&report), vec![0, 2000, 4000]);
        let stalls: u64 = report
            .per_operator()
            .iter()
            .map(|o| o.queue_full_events)
            .sum();
        assert!(stalls > 0, "tiny queues must exercise the yield path");
    }

    #[test]
    fn auto_sized_pool_runs_oversubscribed_plans() {
        // workers = 0 sizes the pool to the host; 9 replicas on (possibly)
        // one core still drain to exhaustion.
        let config = EngineConfig::builder()
            .scheduler(Scheduler::CorePool { workers: 0 })
            .build();
        // Each of the 3 spout replicas feeds 600 sentences: 1800 in, 3600 out.
        let engine = Engine::new(app(600), vec![3, 3, 3], config).expect("valid engine");
        let report = engine.run_until_events(3600, Duration::from_secs(60));
        assert_eq!(report.sink_events, 3600);
        assert_eq!(processed(&report), vec![0, 1800, 3600]);
    }

    #[test]
    fn latency_is_recorded() {
        // [1,2,1] keeps real queue crossings in the pipeline (the bolt's
        // replication blocks fusion on both edges), so sink latency
        // reflects genuine queue dwell time. Fused-sink latency recording
        // is covered by `fusion_ab_is_equivalent_and_removes_every_crossing`.
        let engine =
            Engine::new(app(500), vec![1, 2, 1], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(1000, Duration::from_secs(20));
        assert_eq!(report.latency_ns.count(), 1000);
        assert!(report.latency_ns.percentile(99.0) > 0.0);
    }

    /// Stamps each tuple, then holds it for 2 µs before emitting.
    struct SlowStampSpout {
        left: u64,
    }
    impl DynSpout for SlowStampSpout {
        fn next(&mut self, c: &mut Collector) -> SpoutStatus {
            if self.left == 0 {
                return SpoutStatus::Exhausted;
            }
            self.left -= 1;
            let stamped = c.now_ns();
            while c.now_ns() < stamped + 2_000 {
                std::hint::spin_loop();
            }
            c.send_default(self.left, stamped, self.left);
            SpoutStatus::Emitted(1)
        }
    }

    #[test]
    fn fused_sink_never_stamps_a_tuple_with_a_stale_clock() {
        // A fully fused spout→sink chain delivers inline, inside the
        // spout's `send`. The sink amortizes its clock read over 64
        // deliveries; a tuple stamped after the cached read must refresh
        // it, or its latency clamps to zero and the median with it.
        let mut b = TopologyBuilder::new("stamp");
        let s = b.add_spout("s", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, k);
        let t = b.build().expect("valid");
        let (s, k) = (t.find("s").expect("s"), t.find("k").expect("k"));
        let app = AppRuntime::new(t)
            .spout(s, |_| SlowStampSpout { left: 500 })
            .sink(k, |_| NullSink);
        let engine = Engine::new(app, vec![1, 1], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(500, Duration::from_secs(20));
        assert_eq!(report.sink_events, 500);
        assert_eq!(total_pushes(&report), 0, "the chain must be fully fused");
        let p50 = report.latency_ns.percentile(50.0);
        assert!(p50 >= 2_000.0, "every tuple is ≥ 2 µs old, p50 = {p50} ns");
    }

    #[test]
    fn small_jumbo_still_correct() {
        let config = EngineConfig::builder().jumbo_size(1).build();
        let engine = Engine::new(app(300), vec![1, 1, 1], config).expect("valid engine");
        let report = engine.run_until_events(600, Duration::from_secs(20));
        assert_eq!(report.sink_events, 600);
    }

    /// A `[1, 1, 1]` plan for `app` with operator `i` on `sockets[i]`.
    fn placed_plan(sockets: [usize; 3]) -> ExecutionPlan {
        let mut placement = brisk_dag::Placement::empty(3);
        for (v, &s) in sockets.iter().enumerate() {
            placement.place(brisk_dag::VertexId(v), SocketId(s));
        }
        ExecutionPlan {
            replication: vec![1, 1, 1],
            compress_ratio: 1,
            placement,
        }
    }

    #[test]
    fn cross_socket_placement_costs_no_wall_time_and_still_splits_fusion() {
        // Same app, same replication; one plan collocated, one split across
        // the sockets of a machine whose one-hop latency is a millisecond.
        // The engine runs on this host, so the split costs no wall time
        // (emulating the machine would spin ≥ 6 s on the 6000 crossings of
        // the x→k edge alone); what the placement does decide is fusion.
        let machine = brisk_numa::MachineBuilder::new("virt")
            .sockets(2)
            .cores_per_socket(8)
            .clock_ghz(1.0)
            .local_latency_ns(50.0)
            .one_hop_latency_ns(1e6)
            .max_hop_latency_ns(1e6)
            .build();
        let run = |sockets: [usize; 3]| {
            let plan = placed_plan(sockets);
            Engine::with_plan(app(3000), &plan, &machine, EngineConfig::default())
                .expect("valid engine")
                .run_until_events(6000, Duration::from_secs(30))
        };
        let local = run([0, 0, 0]);
        let split = run([0, 1, 0]);
        assert_eq!(local.sink_events, 6000);
        assert_eq!(split.sink_events, 6000);
        assert!(
            split.elapsed < Duration::from_secs(3),
            "a cross-socket plan must not sleep, took {:?}",
            split.elapsed
        );
        assert_eq!(total_pushes(&local), 0, "collocated chain fuses fully");
        assert!(
            split.operator(0).queue_pushes > 0 && split.operator(1).queue_pushes > 0,
            "both crossing edges stay queued"
        );
    }

    #[test]
    fn with_plan_rejects_a_plan_for_a_bigger_machine() {
        let machine = brisk_numa::MachineBuilder::new("small")
            .sockets(2)
            .cores_per_socket(8)
            .clock_ghz(1.0)
            .build();
        let config = EngineConfig::default();
        let err = Engine::with_plan(app(10), &placed_plan([0, 3, 0]), &machine, config.clone())
            .err()
            .expect("socket 3 does not exist on a 2-socket machine");
        assert!(err.contains("socket 3"), "{err}");
        // A placement that does not cover the plan's graph is refused too,
        // instead of indexing out of range.
        let mut short = placed_plan([0, 0, 0]);
        short.placement = brisk_dag::Placement::empty(2);
        assert!(Engine::with_plan(app(10), &short, &machine, config).is_err());
    }

    #[test]
    fn with_plan_maps_compressed_vertices_to_replica_sockets() {
        // Multi-operator, multi-replica, compressed graph: replication
        // [2, 5, 1] at compress ratio 3 yields vertices s#0(x2) | x#0(x3),
        // x#1(x2) | k#0(x1). Each vertex's socket must fan out to exactly
        // the consecutive global replica indices it covers.
        use brisk_dag::VertexId;
        let machine = brisk_numa::MachineBuilder::new("map")
            .sockets(3)
            .cores_per_socket(8)
            .clock_ghz(1.0)
            .build();
        let app = app(10);
        let graph = ExecutionGraph::new(&app.topology, &[2, 5, 1], 3);
        assert_eq!(graph.vertex_count(), 4, "compression shape changed");
        let mut placement = brisk_dag::Placement::empty(graph.vertex_count());
        placement.place(VertexId(0), SocketId(1)); // s#0
        placement.place(VertexId(1), SocketId(0)); // x#0
        placement.place(VertexId(2), SocketId(2)); // x#1
        placement.place(VertexId(3), SocketId(1)); // k#0
        let plan = ExecutionPlan {
            replication: vec![2, 5, 1],
            compress_ratio: 3,
            placement,
        };
        let expected: Vec<SocketId> = [1, 1, 0, 0, 0, 2, 2, 1]
            .iter()
            .map(|&s| SocketId(s))
            .collect();
        assert_eq!(plan_replica_sockets(&app.topology, &plan), expected);
        let engine =
            Engine::with_plan(app, &plan, &machine, EngineConfig::default()).expect("valid engine");
        assert_eq!(engine.replica_sockets(), Some(expected.as_slice()));
        // The mapping is what placement-aware fusion reads: run it to make
        // sure the wired engine still delivers everything (two spout
        // replicas x 10 inputs, doubled by the bolt).
        let report = engine.run_until_events(u64::MAX, Duration::from_secs(20));
        assert_eq!(report.sink_events, 40);
    }

    #[test]
    fn fusion_ab_is_equivalent_and_removes_every_crossing() {
        // [1,1,1] fuses the whole pipeline into one executor. The A/B must
        // agree on every per-operator counter while the fused run performs
        // zero queue crossings. Running under debug assertions, this also
        // exercises the SPSC tripwires over the rewired graph.
        let run = |fusion: bool| {
            let config = EngineConfig::builder().fusion(fusion).build();
            let engine = Engine::new(app(1000), vec![1, 1, 1], config).expect("valid engine");
            engine.run_until_events(2000, Duration::from_secs(20))
        };
        let fused = run(true);
        let unfused = run(false);
        for report in [&fused, &unfused] {
            assert_eq!(report.sink_events, 2000);
            assert_eq!(processed(report), vec![0, 1000, 2000]);
            assert_eq!(emitted(report), vec![1000, 2000, 0]);
        }
        assert_eq!(
            total_pushes(&fused),
            0,
            "a fully fused chain crosses no queue"
        );
        assert!(
            total_pushes(&unfused) > 0,
            "the unfused run must pay real crossings"
        );
        assert_eq!(fused.latency_ns.count(), 2000, "fused sink records latency");
    }

    #[test]
    fn fused_chain_feeds_unfused_consumer_through_queues() {
        // s(1) -> x(1) fuses; x -> k(2) stays queued, pushed from the host
        // task on behalf of the fused x. The sink replicas must shut down
        // cleanly via x's op_done latch (released by the host).
        let engine =
            Engine::new(app(500), vec![1, 1, 2], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(1000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 1000);
        assert_eq!(processed(&report), vec![0, 500, 1000]);
        assert_eq!(emitted(&report), vec![500, 1000, 0]);
        assert_eq!(report.operator(0).queue_pushes, 0, "spout->x edge is fused");
        assert!(
            report.operator(1).queue_pushes > 0,
            "x->k edges stay queued"
        );
    }

    fn global_funnel_app(limit: u64) -> AppRuntime {
        let mut b = TopologyBuilder::new("funnel");
        let s = b.add_spout("s", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, k, brisk_dag::Partitioning::Global);
        let t = b.build().expect("valid");
        let (s, k) = (t.find("s").expect("s"), t.find("k").expect("k"));
        AppRuntime::new(t)
            .spout(s, move |ctx| CountingSpout {
                next: ctx.replica as u64 * limit,
                limit: (ctx.replica as u64 + 1) * limit,
            })
            .sink(k, |_| NullSink)
    }

    #[test]
    fn global_funnel_routes_multiple_producers_through_the_mpsc_fabric() {
        // Three spout replicas funnel into one sink replica over a Global
        // edge: the wiring must give the shared queue the MPSC ring — the
        // debug tripwires would panic if an SpscQueue ever saw two
        // producers. Every tuple arrives exactly once.
        let engine = Engine::new(global_funnel_app(400), vec![3, 1], EngineConfig::default())
            .expect("valid engine");
        let report = engine.run_until_events(1200, Duration::from_secs(20));
        assert_eq!(report.sink_events, 1200);
        assert_eq!(report.operator(0).emitted, 1200);
        assert_eq!(report.operator(1).processed, 1200);
    }

    struct BroadcastSpout {
        next: u64,
        limit: u64,
    }
    impl DynSpout for BroadcastSpout {
        fn next(&mut self, c: &mut Collector) -> SpoutStatus {
            if self.next >= self.limit {
                return SpoutStatus::Exhausted;
            }
            let now = c.now_ns();
            c.send_default(self.next, now, self.next);
            self.next += 1;
            SpoutStatus::Emitted(1)
        }
    }

    #[test]
    fn broadcast_counts_emitted_once_per_tuple_and_processed_per_copy() {
        // Pins the RunReport accounting semantics on Broadcast fan-out:
        // the producer's `emitted` counts each logical tuple ONCE (not once
        // per target replica), while the consumer side counts every
        // delivered copy — so a 3-replica broadcast shows emitted = N and
        // processed = sink_events = 3N.
        let mut b = TopologyBuilder::new("bc");
        let s = b.add_spout("s", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, k, brisk_dag::Partitioning::Broadcast);
        let t = b.build().expect("valid");
        let (s, k) = (t.find("s").expect("s"), t.find("k").expect("k"));
        let app = AppRuntime::new(t)
            .spout(s, |_| BroadcastSpout {
                next: 0,
                limit: 600,
            })
            .sink(k, |_| NullSink);
        let engine = Engine::new(app, vec![1, 3], EngineConfig::default()).expect("valid engine");
        let report = engine.run_until_events(1800, Duration::from_secs(20));
        assert_eq!(
            report.operator(0).emitted,
            600,
            "one count per tuple, not per copy"
        );
        assert_eq!(
            report.operator(1).processed,
            1800,
            "each replica counts its copy"
        );
        assert_eq!(report.sink_events, 1800);
        // Crossings ship per (jumbo, target queue): three consumer queues
        // mean at least three pushes, and never fewer than the stalls.
        assert!(report.operator(0).queue_pushes >= 3);
        assert!(report.operator(0).queue_full_events <= report.operator(0).queue_pushes);
        // Broadcast is a refcount bump: each sealed slab feeds all three
        // replicas, so slab seals are bounded by the *logical* tuple count
        // — a fabric that copied per destination would need 3× the slabs.
        assert!(report.slab_allocs > 0, "the run used the batch fabric");
        assert!(
            report.slab_allocs + report.slab_recycled <= 600,
            "slab seals scale with logical tuples, not destination copies \
             (allocs {} + recycled {})",
            report.slab_allocs,
            report.slab_recycled
        );
    }

    fn forward_app(limit: u64) -> AppRuntime {
        // spout -> x over Forward (pairwise-fusable at equal counts),
        // x -> k over Shuffle.
        let mut b = TopologyBuilder::new("fwd");
        let s = b.add_spout("s", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, x, brisk_dag::Partitioning::Forward);
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        let (s, x, k) = (
            t.find("s").expect("s"),
            t.find("x").expect("x"),
            t.find("k").expect("k"),
        );
        AppRuntime::new(t)
            .spout(s, move |ctx| CountingSpout {
                next: ctx.replica as u64 * limit,
                limit: (ctx.replica as u64 + 1) * limit,
            })
            .bolt(x, |_| DoublingBolt)
            .sink(k, |_| NullSink)
    }

    #[test]
    fn forward_pairwise_fusion_ab_matches_and_silences_the_edge() {
        // 3:3 Forward pairs fuse: the A/B must agree on every counter
        // while the fused run's spout pushes nothing (its only edge is
        // fused); the hosted x instances still push to the sink queue.
        let run = |fusion: bool| {
            let config = EngineConfig::builder().fusion(fusion).build();
            let engine =
                Engine::new(forward_app(400), vec![3, 3, 1], config).expect("valid engine");
            engine.run_until_events(2400, Duration::from_secs(20))
        };
        let fused = run(true);
        let unfused = run(false);
        for report in [&fused, &unfused] {
            assert_eq!(report.sink_events, 2400);
            assert_eq!(processed(report), vec![0, 1200, 2400]);
            assert_eq!(emitted(report), vec![1200, 2400, 0]);
        }
        assert_eq!(
            fused.operator(0).queue_pushes,
            0,
            "fused Forward edge is silent"
        );
        assert!(
            fused.operator(1).queue_pushes > 0,
            "hosted x still pushes to k"
        );
        assert!(
            unfused.operator(0).queue_pushes > 0,
            "unfused pairs pay crossings"
        );
    }

    #[test]
    fn forward_with_unequal_counts_degrades_to_shuffle_without_fusing() {
        // 4 producers into 2 consumers: the pairing is meaningless, so the
        // edge degrades to Shuffle's even spread — every tuple arrives
        // exactly once, nothing fuses (counts differ), and the model's
        // work-conserving pooling matches what the engine executes.
        let engine =
            Engine::new(forward_app(250), vec![4, 2, 1], EngineConfig::default()).expect("valid");
        let report = engine.run_until_events(2000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 2000);
        assert_eq!(report.operator(1).processed, 1000);
        assert!(
            report.operator(0).queue_pushes > 0,
            "4:2 Forward stays queued"
        );
    }

    /// Sink that asserts every tuple it sees hashes to its own replica
    /// index — the aligned-KeyBy pairing contract.
    struct ResidueAssertingSink {
        replica: usize,
        replicas: usize,
    }
    impl DynBolt for ResidueAssertingSink {
        fn execute(&mut self, t: &TupleView<'_>, _c: &mut Collector) {
            assert_eq!(
                (Tuple::mix_key(t.key) % self.replicas as u64) as usize,
                self.replica,
                "key {} leaked to replica {}",
                t.key,
                self.replica
            );
        }
    }

    /// Bolt that re-emits its input under the same key (key-preserving).
    struct KeyKeepingBolt;
    impl DynBolt for KeyKeepingBolt {
        fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
            let v = *t.value::<u64>().expect("u64 payload");
            c.send_default(v + 1, t.event_ns, t.key);
        }
    }

    #[test]
    fn aligned_keyby_pairwise_fusion_preserves_key_routing() {
        // s -> a (KeyBy) -> k (KeyBy), a key-preserving, [1, 2, 2]: the
        // a->k edge fuses pairwise, and every inline delivery must carry a
        // key belonging to that replica's shard — the sink instances
        // assert it tuple by tuple (a violation faults the fused sink and
        // shows up as missing sink events).
        let mut b = TopologyBuilder::new("aligned");
        let s = b.add_spout("s", CostProfile::trivial());
        let a = b.add_bolt("a", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, a, brisk_dag::Partitioning::KeyBy);
        b.connect(a, DEFAULT_STREAM, k, brisk_dag::Partitioning::KeyBy);
        b.set_key_preserving(a);
        let t = b.build().expect("valid");
        let (s, a, k) = (
            t.find("s").expect("s"),
            t.find("a").expect("a"),
            t.find("k").expect("k"),
        );
        let app = AppRuntime::new(t)
            .spout(s, |_| CountingSpout {
                next: 0,
                limit: 1000,
            })
            .bolt(a, |_| KeyKeepingBolt)
            .sink(k, |ctx| ResidueAssertingSink {
                replica: ctx.replica,
                replicas: ctx.replicas,
            });
        let engine = Engine::new(app, vec![1, 2, 2], EngineConfig::default()).expect("valid");
        let report = engine.run_until_events(1000, Duration::from_secs(20));
        assert_eq!(report.sink_events, 1000);
        assert_eq!(processed(&report), vec![0, 1000, 1000]);
        assert_eq!(report.operator(1).queue_pushes, 0, "a->k fused pairwise");
        assert!(report.operator(0).queue_pushes > 0, "1:2 head stays queued");
        assert_eq!(report.latency_ns.count(), 1000, "fused sinks record");
    }

    #[test]
    fn rejects_bad_replication() {
        assert!(Engine::new(app(10), vec![1, 1], EngineConfig::default()).is_err());
        assert!(Engine::new(app(10), vec![1, 0, 1], EngineConfig::default()).is_err());
    }

    #[test]
    fn exhausted_spouts_end_the_run_before_the_event_target() {
        // 100 inputs can only ever produce 200 sink events; asking for more
        // must return as soon as the pipeline drains, not burn the timeout.
        let engine =
            Engine::new(app(100), vec![1, 1, 1], EngineConfig::default()).expect("valid engine");
        let t0 = Instant::now();
        let report = engine.run_until_events(u64::MAX, Duration::from_secs(30));
        assert_eq!(report.sink_events, 200);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "drained pipeline should return early, took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn run_for_duration_terminates() {
        let engine =
            Engine::new(app(u64::MAX), vec![1, 1, 1], EngineConfig::default()).expect("valid");
        let report = engine.run_for(Duration::from_millis(200));
        assert!(report.sink_events > 0);
        assert!(report.throughput > 0.0);
    }
}
