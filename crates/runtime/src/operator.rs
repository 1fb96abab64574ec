//! The user-facing operator API (Storm/Heron-style, per the paper's goal of
//! API compatibility) and the per-task output collector.
//!
//! Applications implement [`DynSpout`] for sources and [`DynBolt`] for
//! bolts/sinks, and register a *factory* per operator so each replica gets
//! its own state. The [`Collector`] is the task's partition controller +
//! output batching stage: values sent through the typed
//! [`Collector::send`] path are routed per edge strategy and accumulated
//! into arena-backed [`crate::batch::Batch`]es that ship to the consumer
//! queues as [`JumboTuple`] container handles.

use crate::batch::{Batch, BatchBuilder, BatchCursor, SlabPool, TupleView};
use crate::fusion::FusedTarget;
use crate::partition::{Partitioner, RouteTargets};
use crate::queue::{QueueKind, ReplicaQueue};
use crate::scheduler::WakeHub;
use crate::spsc::PushError;
use crate::tuple::JumboTuple;
use brisk_dag::{LogicalTopology, OperatorId, OperatorKind};
use std::any::Any;
use std::collections::VecDeque;
use std::sync::Arc;

/// One unit of migratable operator state: a routing key plus an opaque
/// byte payload the operator itself encodes/decodes.
///
/// The key is what plan migration routes on: for keyed (KeyBy) operators
/// it must be the same `u64` partition key the operator's *input* tuples
/// carry, so redistributing entries with the partitioner's routing
/// function lands each entry on the replica that will receive that key's
/// tuples under the new plan. Spouts use their replica index as the key —
/// a source's stream position is bound to the replica, not to a tuple key.
pub type StateEntry = (u64, Vec<u8>);

/// Result of one spout invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpoutStatus {
    /// The spout emitted this many tuples and has more available.
    Emitted(usize),
    /// Nothing available right now; the executor backs off briefly.
    Idle,
    /// The source is exhausted; the spout replica shuts down.
    Exhausted,
}

/// A source operator replica.
pub trait DynSpout: Send {
    /// Produce the next tuple(s) into `collector`.
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus;

    /// Called after this replica panicked and the restart policy granted a
    /// restart. Return `true` to keep this instance (explicit state
    /// handoff); the default `false` discards it and the supervisor builds
    /// a fresh instance from the operator factory.
    fn recover(&mut self) -> bool {
        false
    }

    /// Hand this replica's source position out for plan migration
    /// (generalizing [`DynSpout::recover`]'s in-place handoff to an
    /// across-engines one): called after the replica drains during a
    /// migration pause. Return `Some` to move the state (the entries are
    /// re-installed via [`DynSpout::install_state`] into the successor
    /// engine's replica); the default `None` marks the spout stateless for
    /// migration purposes.
    fn extract_state(&mut self) -> Option<Vec<StateEntry>> {
        None
    }

    /// Install migrated state into a freshly constructed replica, before it
    /// produces anything. The default ignores the entries.
    fn install_state(&mut self, _entries: Vec<StateEntry>) {}
}

/// A processing (bolt) or terminal (sink) operator replica.
///
/// Input arrives batch-at-a-time through [`DynBolt::consume`]; the default
/// implementation drains the batch cursor through the per-tuple
/// [`DynBolt::execute`], so most operators only implement `execute`.
/// Batch-wholesale operators (e.g. a parser that wants the whole `&[T]`
/// payload slice with a single per-batch downcast) override `consume`
/// instead and honor the [`BatchCursor`] completion contract.
pub trait DynBolt: Send {
    /// Process one input tuple, emitting zero or more outputs.
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector);

    /// Process one input batch. Returning normally counts the entire batch
    /// as processed; on panic, the cursor's [`BatchCursor::done`] count
    /// pins the poison tuple for quarantine and the remainder is replayed.
    fn consume(&mut self, input: &BatchCursor<'_>, collector: &mut Collector) {
        while let Some(view) = input.next() {
            self.execute(&view, collector);
        }
    }

    /// Called once at shutdown so stateful bolts can emit final results.
    fn finish(&mut self, _collector: &mut Collector) {}

    /// Called after this replica panicked and the restart policy granted a
    /// restart. Return `true` to keep this instance (explicit state
    /// handoff); the default `false` discards it and the supervisor builds
    /// a fresh instance from the operator factory.
    fn recover(&mut self) -> bool {
        false
    }

    /// Hand this replica's accumulated state out for plan migration: called
    /// instead of [`DynBolt::finish`] after the replica drains during a
    /// migration pause (finals belong to the true end of stream, which the
    /// successor engine reaches). Keyed operators must key each entry by
    /// the partition key of the input tuples it was built from, so
    /// redistribution tracks the new plan's routing. The default `None`
    /// marks the bolt stateless for migration purposes.
    fn extract_state(&mut self) -> Option<Vec<StateEntry>> {
        None
    }

    /// Install migrated state into a freshly constructed replica, before it
    /// processes anything. A replica may receive entries harvested from
    /// several predecessor replicas (rescaling), so implementations should
    /// merge rather than overwrite. The default ignores the entries.
    fn install_state(&mut self, _entries: Vec<StateEntry>) {}
}

/// Construction context handed to operator factories.
#[derive(Debug, Clone, Copy)]
pub struct BoltContext {
    /// Replica index within the operator (0-based).
    pub replica: usize,
    /// Total replicas of the operator under the active plan.
    pub replicas: usize,
}

/// Factory for one operator's replicas.
pub enum OperatorRuntime {
    /// Spout factory.
    Spout(Box<dyn Fn(BoltContext) -> Box<dyn DynSpout> + Send + Sync>),
    /// Bolt factory.
    Bolt(Box<dyn Fn(BoltContext) -> Box<dyn DynBolt> + Send + Sync>),
    /// Sink factory (a bolt that does not emit; the engine also counts its
    /// inputs for throughput/latency reporting).
    Sink(Box<dyn Fn(BoltContext) -> Box<dyn DynBolt> + Send + Sync>),
}

impl OperatorRuntime {
    fn kind(&self) -> OperatorKind {
        match self {
            OperatorRuntime::Spout(_) => OperatorKind::Spout,
            OperatorRuntime::Bolt(_) => OperatorKind::Bolt,
            OperatorRuntime::Sink(_) => OperatorKind::Sink,
        }
    }
}

/// A logical topology paired with executable operator implementations.
pub struct AppRuntime {
    /// The application DAG.
    pub topology: LogicalTopology,
    pub(crate) runtimes: Vec<Option<OperatorRuntime>>,
}

impl AppRuntime {
    /// Start wiring implementations for `topology`.
    pub fn new(topology: LogicalTopology) -> AppRuntime {
        let n = topology.operator_count();
        AppRuntime {
            topology,
            runtimes: (0..n).map(|_| None).collect(),
        }
    }

    /// Register a spout implementation.
    pub fn spout<S, F>(mut self, op: OperatorId, factory: F) -> Self
    where
        S: DynSpout + 'static,
        F: Fn(BoltContext) -> S + Send + Sync + 'static,
    {
        self.runtimes[op.0] = Some(OperatorRuntime::Spout(Box::new(move |ctx| {
            Box::new(factory(ctx))
        })));
        self
    }

    /// Register a bolt implementation.
    pub fn bolt<B, F>(mut self, op: OperatorId, factory: F) -> Self
    where
        B: DynBolt + 'static,
        F: Fn(BoltContext) -> B + Send + Sync + 'static,
    {
        self.runtimes[op.0] = Some(OperatorRuntime::Bolt(Box::new(move |ctx| {
            Box::new(factory(ctx))
        })));
        self
    }

    /// Register a sink implementation.
    pub fn sink<B, F>(mut self, op: OperatorId, factory: F) -> Self
    where
        B: DynBolt + 'static,
        F: Fn(BoltContext) -> B + Send + Sync + 'static,
    {
        self.runtimes[op.0] = Some(OperatorRuntime::Sink(Box::new(move |ctx| {
            Box::new(factory(ctx))
        })));
        self
    }

    /// Check that every operator has an implementation of the right kind.
    pub fn validate(&self) -> Result<(), String> {
        for (id, spec) in self.topology.operators() {
            match &self.runtimes[id.0] {
                None => return Err(format!("operator '{}' has no implementation", spec.name)),
                Some(rt) if rt.kind() != spec.kind => {
                    return Err(format!(
                        "operator '{}' is declared {:?} but implemented as {:?}",
                        spec.name,
                        spec.kind,
                        rt.kind()
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// The registered factory for `op`.
    ///
    /// # Panics
    /// Panics when the operator has no implementation (call
    /// [`AppRuntime::validate`] first).
    pub fn runtime(&self, op: OperatorId) -> &OperatorRuntime {
        self.runtimes[op.0]
            .as_ref()
            .expect("operator implementation missing")
    }
}

/// One output buffer: the partitioner plus per-consumer batch accumulation
/// and the destination queues.
pub(crate) struct OutputEdge {
    /// Index into `LogicalTopology::edges`.
    pub logical_edge: usize,
    /// Stream name this edge subscribes to.
    pub stream: String,
    pub partitioner: Partitioner,
    /// One queue per consumer replica (empty slots for `Global` non-zero
    /// replicas are simply absent: queue list is indexed by consumer
    /// replica). Each queue has this task as its only producer, which is
    /// what makes the SPSC fabric exact.
    pub queues: Vec<Arc<ReplicaQueue<JumboTuple>>>,
    /// Global replica index of the consumer behind each queue — the
    /// scheduler's wake-on-push target.
    pub consumers: Vec<usize>,
    /// Broadcast edges accumulate into *one* shared builder: the sealed
    /// slab is shared across every consumer by refcount bump.
    pub broadcast: bool,
    /// Open typed accumulation: one builder per consumer, or a single
    /// shared builder on broadcast edges.
    pub builders: Vec<BatchBuilder>,
    /// Sealed batches awaiting a successful queue push, per consumer
    /// (stalled jumbos park here; order is preserved).
    pub sealed: Vec<VecDeque<JumboTuple>>,
}

impl OutputEdge {
    pub(crate) fn new(
        logical_edge: usize,
        stream: String,
        partitioner: Partitioner,
        queues: Vec<Arc<ReplicaQueue<JumboTuple>>>,
        consumers: Vec<usize>,
        pool: &Arc<SlabPool>,
    ) -> OutputEdge {
        let n = queues.len();
        let broadcast = partitioner.is_broadcast();
        let builder_count = if broadcast { 1 } else { n };
        OutputEdge {
            logical_edge,
            stream,
            partitioner,
            queues,
            consumers,
            broadcast,
            builders: (0..builder_count)
                .map(|_| BatchBuilder::new(Arc::clone(pool)))
                .collect(),
            sealed: (0..n).map(|_| VecDeque::new()).collect(),
        }
    }
}

/// The task-side emit interface: routes, batches and ships tuples — and,
/// when operator fusion is active, runs fused-away consumers inline.
///
/// Pushes never block: a full destination queue hands the jumbo back, it
/// parks in the edge's sealed backlog, and the collector reports itself
/// back-pressured so the owning task can yield its worker
/// instead of stalling the whole pool.
pub struct Collector {
    producer_replica: usize,
    jumbo_size: usize,
    edges: Vec<OutputEdge>,
    /// Shared-arrangement groups: for each edge, the *follower* broadcast
    /// edges on the same stream whose consumers receive handles to this
    /// (leader) edge's sealed slabs. Followers keep no builders of their
    /// own — the arrangement is materialized once, however many
    /// downstream queries subscribe.
    shared_followers: Vec<Vec<usize>>,
    /// Inverse map: `Some(leader)` when this edge rides another edge's
    /// builder instead of accumulating itself.
    follower_of: Vec<Option<usize>>,
    /// Fused-away consumers executed inline on emit (operator fusion).
    fused: Vec<FusedTarget>,
    /// The value [`Collector::send_with`] fills when it cannot fill a slab
    /// slot directly; kept between sends so its allocations are reused.
    scratch: Option<Box<dyn Any + Send>>,
    clock: Arc<EngineClock>,
    /// Wake hub: a successful push marks the consumer's task ready.
    /// `None` only for standalone [`Collector::capture`] collectors, whose
    /// taps nobody sleeps on.
    wake_hub: Option<Arc<WakeHub>>,
    /// True while some destination buffer could not flush; cleared when
    /// [`Collector::flush_all`] gets everything through.
    backpressured: bool,
    /// Tracks a contiguous back-pressure episode so `stalled_flushes`
    /// counts each episode once, not once per retry sweep.
    in_stall: bool,
    /// Tuples emitted by this task (all streams).
    pub emitted: u64,
    /// Jumbo tuples successfully pushed to destination queues — the queue
    /// crossings operator fusion exists to eliminate (fused edges never
    /// touch this counter).
    pub flushes: u64,
    /// Queue-pressure counter: jumbo flushes that found their destination
    /// queue already full, i.e. moments this task was held up by
    /// back-pressure from a slow consumer. Counted once per contiguous
    /// back-pressure episode, not once per retry sweep.
    pub stalled_flushes: u64,
    /// True once any destination queue is closed (engine shutting down),
    /// including queues downstream of a fused chain.
    pub output_closed: bool,
}

impl Collector {
    pub(crate) fn new(
        producer_replica: usize,
        jumbo_size: usize,
        mut edges: Vec<OutputEdge>,
        clock: Arc<EngineClock>,
    ) -> Collector {
        // Same-stream Broadcast edges form one shared-arrangement group:
        // the first (leader) edge's builder accumulates the stream once
        // and every member ships handles to the same sealed slab, so an
        // index consumed by several downstream queries seals one
        // maintainer's worth of slabs, not one per query.
        let mut shared_followers: Vec<Vec<usize>> = vec![Vec::new(); edges.len()];
        let mut follower_of: Vec<Option<usize>> = vec![None; edges.len()];
        for i in 0..edges.len() {
            if !edges[i].broadcast || follower_of[i].is_some() {
                continue;
            }
            for j in (i + 1)..edges.len() {
                if edges[j].broadcast
                    && follower_of[j].is_none()
                    && edges[j].stream == edges[i].stream
                {
                    follower_of[j] = Some(i);
                    shared_followers[i].push(j);
                }
            }
        }
        for (j, leader) in follower_of.iter().enumerate() {
            if leader.is_some() {
                edges[j].builders.clear();
            }
        }
        Collector {
            producer_replica,
            jumbo_size,
            edges,
            shared_followers,
            follower_of,
            fused: Vec::new(),
            scratch: None,
            clock,
            wake_hub: None,
            backpressured: false,
            in_stall: false,
            emitted: 0,
            flushes: 0,
            stalled_flushes: 0,
            output_closed: false,
        }
    }

    /// Attach fused-away consumers to run inline on emit.
    pub(crate) fn with_fused(mut self, fused: Vec<FusedTarget>) -> Collector {
        self.fused = fused;
        self
    }

    /// Wake consumers' tasks through `hub` on every successful push. The
    /// engine applies it to every collector in a task's fused subtree.
    pub(crate) fn with_wake_hub(mut self, hub: Arc<WakeHub>) -> Collector {
        self.wake_hub = Some(hub);
        self
    }

    /// Whether some destination buffer is waiting on a full queue,
    /// anywhere in this collector's fused subtree.
    /// The owning task must yield instead of consuming more input.
    pub(crate) fn is_backpressured(&self) -> bool {
        self.backpressured || self.fused.iter().any(|t| t.collector.is_backpressured())
    }

    /// Nanoseconds since engine start (used by spouts to stamp event time).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Global replica index of the task that owns this collector.
    pub fn replica(&self) -> usize {
        self.producer_replica
    }

    /// Send `value` on `stream` with explicit event time and partitioning
    /// key — the typed batch path. The value lands directly in a typed,
    /// arena-backed batch builder (no per-tuple `Arc`); routing, batching
    /// and back-pressure are handled here, and the call never blocks (a
    /// full destination queue parks the sealed batch in a backlog). Fused
    /// edges bypass all of that: the
    /// downstream operator runs inline on a borrowed view, right here in
    /// the producer's thread.
    pub fn send<T: Any + Send + Sync + Clone>(
        &mut self,
        stream: &str,
        value: T,
        event_ns: u64,
        key: u64,
    ) {
        self.send_impl(stream, value, event_ns, key);
    }

    /// Send on the default stream (key 0 is conventional for un-keyed
    /// values, but any key works).
    pub fn send_default<T: Any + Send + Sync + Clone>(
        &mut self,
        value: T,
        event_ns: u64,
        key: u64,
    ) {
        self.send_impl(brisk_dag::DEFAULT_STREAM, value, event_ns, key);
    }

    /// Send on `stream` by writing the value where it will travel: `fill`
    /// receives a `T` to overwrite and the tuple is routed, batched and
    /// delivered exactly as [`Collector::send`] would deliver the result.
    ///
    /// **Contract:** the `T` handed to `fill` holds `T::default()` or an
    /// earlier emission — overwrite every field. Overwrite in place
    /// (`String::clone_from`, `clear` + `push_str`) and the payload reuses
    /// the allocations it already owns: when the stream has one queue
    /// subscriber and no fused one, the `T` is the slab slot itself,
    /// recycled with its old contents; otherwise it is a value this
    /// collector keeps between sends, shown to fused consumers and
    /// `clone_from`ed into each subscriber's slot. Operators whose payloads
    /// own heap memory should emit this way; for `Copy` payloads `send` is
    /// the same price.
    ///
    /// If `fill` panics nothing was sent.
    pub fn send_with<T: Any + Send + Sync + Clone + Default>(
        &mut self,
        stream: &str,
        event_ns: u64,
        key: u64,
        fill: impl FnOnce(&mut T),
    ) {
        let fused = self
            .fused
            .iter()
            .any(|t| t.streams.iter().any(|s| s == stream));
        let mut subscribers = (0..self.edges.len()).filter(|&ei| self.subscribes(ei, stream));
        if let (false, Some(ei), None) = (fused, subscribers.next(), subscribers.next()) {
            let slot = self.route(ei, key);
            let sealed = self.edges[ei].builders[slot].push_with(event_ns, key, fill);
            self.emitted += 1;
            self.after_push(ei, slot, sealed);
            return;
        }
        let mut scratch = match self.scratch.take().map(|b| b.downcast::<T>()) {
            Some(Ok(scratch)) => scratch,
            _ => Box::new(T::default()),
        };
        fill(&mut scratch);
        self.emitted += 1;
        self.deliver_fused(stream, &*scratch, event_ns, key);
        for ei in 0..self.edges.len() {
            if self.subscribes(ei, stream) {
                let slot = self.route(ei, key);
                let sealed = self.edges[ei].builders[slot]
                    .push_with(event_ns, key, |v: &mut T| v.clone_from(&scratch));
                self.after_push(ei, slot, sealed);
            }
        }
        self.scratch = Some(scratch);
    }

    fn send_impl<T: Any + Send + Sync + Clone>(
        &mut self,
        stream: &str,
        value: T,
        event_ns: u64,
        key: u64,
    ) {
        self.emitted += 1;
        // Fused consumers run first, on a borrowed view — after this the
        // value is moved into a batch builder.
        self.deliver_fused(stream, &value, event_ns, key);
        // Queue edges: move the value into the last subscribing edge,
        // clone only for the earlier ones (single-subscriber streams — the
        // common case — never clone).
        let mut remaining = (0..self.edges.len())
            .filter(|&ei| self.subscribes(ei, stream))
            .count();
        if remaining == 0 {
            return;
        }
        let mut value = Some(value);
        for ei in 0..self.edges.len() {
            if !self.subscribes(ei, stream) {
                continue;
            }
            remaining -= 1;
            let v = if remaining == 0 {
                value.take().expect("last subscriber takes the value")
            } else {
                value.as_ref().expect("value present").clone()
            };
            let slot = self.route(ei, key);
            let sealed = self.edges[ei].builders[slot].push(v, event_ns, key);
            self.after_push(ei, slot, sealed);
        }
    }

    /// Whether edge `ei` accumulates `stream` in builders of its own.
    /// Shared-arrangement followers don't: their consumers are served by
    /// the leader's builder.
    fn subscribes(&self, ei: usize, stream: &str) -> bool {
        self.edges[ei].stream == stream && self.follower_of[ei].is_none()
    }

    /// Run every fused consumer of `stream` inline on a borrowed view of
    /// `value`, once per fused edge.
    fn deliver_fused<T: Any + Send + Sync>(
        &mut self,
        stream: &str,
        value: &T,
        event_ns: u64,
        key: u64,
    ) {
        for fi in 0..self.fused.len() {
            let deliveries = self.fused[fi]
                .streams
                .iter()
                .filter(|s| s.as_str() == stream)
                .count();
            if deliveries == 0 {
                continue;
            }
            let view = TupleView::of_value(value, event_ns, key);
            let target = &mut self.fused[fi];
            for _ in 0..deliveries {
                target.deliver(&view);
            }
            // A dead fused target (restart budget exhausted) can no longer
            // make progress: treat it like a closed output so the host
            // winds down instead of feeding a black hole forever.
            if target.collector.output_closed || target.dead {
                self.output_closed = true;
            }
        }
    }

    /// The builder of edge `ei` a tuple with `key` accumulates in.
    fn route(&mut self, ei: usize, key: u64) -> usize {
        let e = &mut self.edges[ei];
        if e.broadcast {
            0 // the single shared builder
        } else {
            match e.partitioner.route(key) {
                RouteTargets::One(t) => t,
                // Non-broadcast strategies always route to one target.
                RouteTargets::All(_) => unreachable!("broadcast handled above"),
            }
        }
    }

    /// After a push into builder `slot` of edge `ei`: ship what the push
    /// sealed, and seal/ship the builder itself once it is full.
    fn after_push(&mut self, ei: usize, slot: usize, sealed: Option<Batch>) {
        if let Some(batch) = sealed {
            // Heterogeneous stream: the previous (differently typed) slab
            // sealed early. Ship it ahead to preserve order.
            self.enqueue_batch(ei, slot, batch);
        }
        // While back-pressure is active, skip the per-send
        // flush attempt: the sealed backlog absorbs the rest of the task's
        // bounded slice and the task-level flush_all retries once the
        // queue drains.
        if self.edges[ei].builders[slot].len() >= self.jumbo_size && !self.backpressured {
            if let Some(batch) = self.edges[ei].builders[slot].seal() {
                self.enqueue_batch(ei, slot, batch);
            }
            self.flush_routed(ei, slot);
        }
    }

    /// Wrap a sealed batch into jumbo(s) on the sealed queue(s). On
    /// broadcast edges every consumer receives a handle to the *same* slab
    /// — the copy is a refcount bump — and shared-arrangement follower
    /// edges on the same stream receive handles to that slab too, each
    /// under its own logical-edge header.
    fn enqueue_batch(&mut self, ei: usize, slot: usize, batch: Batch) {
        let producer = self.producer_replica;
        for fidx in 0..self.shared_followers[ei].len() {
            let fi = self.shared_followers[ei][fidx];
            let e = &mut self.edges[fi];
            for t in 0..e.queues.len() {
                e.sealed[t].push_back(JumboTuple::new(producer, e.logical_edge, batch.clone()));
            }
        }
        let e = &mut self.edges[ei];
        if e.broadcast {
            let last = e.queues.len() - 1;
            for t in 0..last {
                e.sealed[t].push_back(JumboTuple::new(producer, e.logical_edge, batch.clone()));
            }
            e.sealed[last].push_back(JumboTuple::new(producer, e.logical_edge, batch));
        } else {
            e.sealed[slot].push_back(JumboTuple::new(producer, e.logical_edge, batch));
        }
    }

    /// Flush the consumer(s) a sealed batch from builder `slot` landed on.
    fn flush_routed(&mut self, ei: usize, slot: usize) {
        if self.edges[ei].broadcast {
            for t in 0..self.edges[ei].queues.len() {
                self.flush_one(ei, t);
            }
            for fidx in 0..self.shared_followers[ei].len() {
                let fi = self.shared_followers[ei][fidx];
                for t in 0..self.edges[fi].queues.len() {
                    self.flush_one(fi, t);
                }
            }
        } else {
            self.flush_one(ei, slot);
        }
    }

    /// Drain consumer `consumer`'s sealed backlog into its queue.
    fn flush_one(&mut self, edge: usize, consumer: usize) {
        while let Some(jumbo) = self.edges[edge].sealed[consumer].pop_front() {
            let e = &mut self.edges[edge];
            match e.queues[consumer].try_push(jumbo) {
                Ok(()) => {
                    self.flushes += 1;
                    if let Some(hub) = &self.wake_hub {
                        hub.wake(e.consumers[consumer]);
                    }
                }
                Err(PushError::Full(jumbo)) => {
                    // Park the jumbo back at the front (order is
                    // preserved) and report the stall once per
                    // back-pressure episode.
                    e.sealed[consumer].push_front(jumbo);
                    if !self.in_stall {
                        self.stalled_flushes += 1;
                        self.in_stall = true;
                    }
                    self.backpressured = true;
                    return;
                }
                Err(PushError::Closed(_)) => self.output_closed = true,
            }
        }
    }

    /// Flush every partially filled builder and sealed backlog (periodic
    /// timeout flush and final drain), recursing through fused chains so
    /// their queue-bound output buffers flush on the host's cadence too.
    /// Re-attempts stalled jumbos and recomputes the back-pressure flag:
    /// it clears only when everything ships.
    pub fn flush_all(&mut self) {
        self.backpressured = false;
        for ei in 0..self.edges.len() {
            for slot in 0..self.edges[ei].builders.len() {
                if let Some(batch) = self.edges[ei].builders[slot].seal() {
                    self.enqueue_batch(ei, slot, batch);
                }
            }
            for t in 0..self.edges[ei].queues.len() {
                self.flush_one(ei, t);
            }
        }
        if !self.backpressured {
            self.in_stall = false;
        }
        for target in &mut self.fused {
            target.collector.flush_all();
            if target.collector.output_closed {
                self.output_closed = true;
            }
        }
    }

    /// Call `finish` on every fused operator, depth-first down the chain,
    /// so stateful fused bolts can emit their final results at shutdown
    /// (their emissions land before the host's final [`Collector::flush_all`]).
    /// Panic-guarded per target: a faulty `finish` is recorded against the
    /// fused op and does not take the host's teardown down with it.
    pub(crate) fn finish_fused(&mut self) {
        for target in &mut self.fused {
            target.finish();
            target.collector.finish_fused();
        }
    }

    /// Logical operator indexes hosted inline by this collector's fused
    /// subtree (recursive) — the ops whose accounting an emergency teardown
    /// must force-retire alongside the host's own.
    pub(crate) fn hosted_ops(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for target in &self.fused {
            out.push(target.op_index);
            out.extend(target.collector.hosted_ops());
        }
        out
    }

    /// Every destination queue reachable from this collector, including
    /// queues owned by fused targets down the chain — the stall watchdog's
    /// back-pressure disambiguation set.
    pub(crate) fn queue_handles(&self) -> Vec<Arc<ReplicaQueue<JumboTuple>>> {
        let mut out = Vec::new();
        for e in &self.edges {
            for q in &e.queues {
                out.push(Arc::clone(q));
            }
        }
        for target in &self.fused {
            out.extend(target.collector.queue_handles());
        }
        out
    }

    /// Detach the whole fused-target tree (children before parents) so the
    /// engine can merge per-operator counters and sink metrics after the
    /// host task finishes.
    pub(crate) fn take_fused(&mut self) -> Vec<FusedTarget> {
        let mut out = Vec::new();
        for mut target in std::mem::take(&mut self.fused) {
            out.extend(target.collector.take_fused());
            out.push(target);
        }
        out
    }
}

/// Capture taps returned by [`Collector::capture`]: one `(stream name,
/// queue)` pair per outgoing edge of the captured operator.
pub type CaptureTaps = Vec<(String, Arc<ReplicaQueue<JumboTuple>>)>;

impl Collector {
    /// A standalone collector that *captures* emissions instead of shipping
    /// them to executor queues: one single-consumer queue per outgoing edge
    /// of `op`, with jumbo size 1 so every tuple is immediately visible.
    /// Like every collector it never blocks: once a tap is full, further
    /// emissions wait in the collector (shipped by a later
    /// [`Collector::flush_all`] if the tap has been drained) rather than
    /// hanging the calling thread.
    ///
    /// This is the harness behind operator profiling (the paper prepares an
    /// operator's sample input "by pre-executing all upstream operators")
    /// and behind unit-testing bolts in isolation.
    pub fn capture(
        topology: &LogicalTopology,
        op: OperatorId,
        capacity: usize,
    ) -> (Collector, CaptureTaps) {
        let pool = SlabPool::standalone();
        let mut edges = Vec::new();
        let mut taps = Vec::new();
        for (lei, edge) in topology.edges().iter().enumerate() {
            if edge.from != op {
                continue;
            }
            let queue = Arc::new(ReplicaQueue::new(QueueKind::default(), capacity));
            taps.push((edge.stream.clone(), Arc::clone(&queue)));
            edges.push(OutputEdge::new(
                lei,
                edge.stream.clone(),
                Partitioner::new(edge.partitioning, 1),
                vec![queue],
                vec![0],
                &pool,
            ));
        }
        (
            Collector::new(0, 1, edges, Arc::new(EngineClock::new())),
            taps,
        )
    }
}

/// Monotonic engine clock shared by all tasks.
pub(crate) struct EngineClock {
    start: std::time::Instant,
}

impl EngineClock {
    pub fn new() -> EngineClock {
        EngineClock {
            start: std::time::Instant::now(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_dag::{CostProfile, Partitioning, TopologyBuilder, DEFAULT_STREAM};

    struct NullSpout;
    impl DynSpout for NullSpout {
        fn next(&mut self, _c: &mut Collector) -> SpoutStatus {
            SpoutStatus::Exhausted
        }
    }
    struct NullBolt;
    impl DynBolt for NullBolt {
        fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
    }

    fn topology() -> LogicalTopology {
        let mut b = TopologyBuilder::new("t");
        let s = b.add_spout("s", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, k);
        b.build().expect("valid")
    }

    #[test]
    fn validate_catches_missing_impl() {
        let t = topology();
        let app = AppRuntime::new(t);
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_catches_kind_mismatch() {
        let t = topology();
        let s = t.find("s").expect("exists");
        let k = t.find("k").expect("exists");
        let app = AppRuntime::new(t)
            .bolt(s, |_| NullBolt) // spout implemented as bolt: wrong
            .sink(k, |_| NullBolt);
        assert!(app.validate().is_err());
    }

    #[test]
    fn validate_accepts_complete_app() {
        let t = topology();
        let s = t.find("s").expect("exists");
        let k = t.find("k").expect("exists");
        let app = AppRuntime::new(t)
            .spout(s, |_| NullSpout)
            .sink(k, |_| NullBolt);
        assert!(app.validate().is_ok());
    }

    fn shuffle_edge(q: &Arc<ReplicaQueue<JumboTuple>>) -> OutputEdge {
        OutputEdge::new(
            0,
            DEFAULT_STREAM.to_string(),
            Partitioner::new(Partitioning::Shuffle, 1),
            vec![Arc::clone(q)],
            vec![0],
            &crate::batch::SlabPool::standalone(),
        )
    }

    #[test]
    fn collector_batches_into_jumbos() {
        let q = Arc::new(ReplicaQueue::new(QueueKind::default(), 16));
        let edge = shuffle_edge(&q);
        let mut c = Collector::new(0, 4, vec![edge], Arc::new(EngineClock::new()));
        for i in 0..10u32 {
            c.send_default(i, 0, 0);
        }
        // 10 tuples at jumbo size 4: two full jumbos shipped, 2 residual.
        assert_eq!(q.len(), 2);
        c.flush_all();
        assert_eq!(q.len(), 3);
        let j1 = q.try_pop().expect("jumbo");
        assert_eq!(j1.len(), 4);
        // The payloads are a contiguous typed slice: one downcast per batch.
        assert_eq!(j1.batch.payloads::<u32>().expect("typed"), &[0, 1, 2, 3]);
        let j3_len: usize = {
            q.try_pop();
            q.try_pop().expect("residual").len()
        };
        assert_eq!(j3_len, 2);
        assert_eq!(c.emitted, 10);
    }

    #[test]
    fn full_capture_tap_parks_overflow_instead_of_blocking() {
        let t = topology();
        let s = t.find("s").expect("exists");
        let (mut c, taps) = Collector::capture(&t, s, 2);
        for i in 0..5u32 {
            c.send_default(i, 0, 0); // must return even with the tap full
        }
        let tap = &taps[0].1;
        assert_eq!(tap.len(), 2);
        assert!(c.is_backpressured());
        let mut seen = Vec::new();
        while seen.len() < 5 {
            while let Some(j) = tap.try_pop() {
                seen.extend_from_slice(j.batch.payloads::<u32>().expect("typed"));
            }
            c.flush_all();
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "nothing lost, order kept");
        assert!(!c.is_backpressured());
    }

    #[test]
    fn heterogeneous_stream_seals_per_type_in_order() {
        let q = Arc::new(ReplicaQueue::new(QueueKind::default(), 16));
        let edge = shuffle_edge(&q);
        let mut c = Collector::new(0, 64, vec![edge], Arc::new(EngineClock::new()));
        c.send_default(1u32, 0, 0);
        c.send_default(2u32, 0, 0);
        c.send_default(String::from("x"), 0, 0);
        c.send_default(3u32, 0, 0);
        c.flush_all();
        // Type switches seal early: three ordered, type-homogeneous batches.
        assert_eq!(
            q.try_pop().expect("u32s").batch.payloads::<u32>(),
            Some(&[1, 2][..])
        );
        assert!(q
            .try_pop()
            .expect("string")
            .batch
            .payloads::<String>()
            .is_some());
        assert_eq!(
            q.try_pop().expect("tail").batch.payloads::<u32>(),
            Some(&[3][..])
        );
    }

    #[test]
    fn broadcast_is_a_refcount_bump() {
        // One slab allocation feeds N destinations: the jumbos popped off
        // the three queues all view the same slab, per-copy accounting
        // (one queue push per destination) is unchanged, and the sealed
        // storage recycles once every handle drops.
        let pool = crate::batch::SlabPool::standalone();
        let queues: Vec<Arc<ReplicaQueue<JumboTuple>>> = (0..3)
            .map(|_| Arc::new(ReplicaQueue::new(QueueKind::default(), 16)))
            .collect();
        let edge = OutputEdge::new(
            0,
            DEFAULT_STREAM.to_string(),
            Partitioner::new(Partitioning::Broadcast, 3),
            queues.clone(),
            vec![0, 1, 2],
            &pool,
        );
        let mut c = Collector::new(0, 4, vec![edge], Arc::new(EngineClock::new()));
        for i in 0..4u64 {
            c.send_default(i, 0, i);
        }
        assert_eq!(c.emitted, 4, "emitted counts logical tuples, not copies");
        assert_eq!(c.flushes, 3, "one queue crossing per destination");
        assert_eq!(pool.stats().allocated(), 1, "one slab for all copies");
        let jumbos: Vec<JumboTuple> = queues
            .iter()
            .map(|q| q.try_pop().expect("jumbo delivered"))
            .collect();
        let slab = jumbos[0].batch.slab_id();
        for j in &jumbos {
            assert_eq!(j.batch.slab_id(), slab, "copies share one slab");
            assert_eq!(j.batch.payloads::<u64>().expect("typed"), &[0, 1, 2, 3]);
        }
        assert_eq!(pool.stats().outstanding(), 1);
        drop(jumbos);
        drop(c);
        assert_eq!(pool.stats().outstanding(), 0, "storage recycled");
    }

    #[test]
    fn shared_stream_broadcast_edges_seal_once() {
        // Two distinct downstream operators subscribe to one arranged
        // stream via Broadcast: the arrangement is built in ONE builder
        // and every consumer replica across both edges pops a handle to
        // the same slab — seals stay one maintainer's worth, however
        // many queries attach.
        let pool = crate::batch::SlabPool::standalone();
        let mk = || Arc::new(ReplicaQueue::new(QueueKind::default(), 16));
        let q_point: Vec<Arc<ReplicaQueue<JumboTuple>>> = (0..2).map(|_| mk()).collect();
        let q_agg: Vec<Arc<ReplicaQueue<JumboTuple>>> = (0..3).map(|_| mk()).collect();
        let point_edge = OutputEdge::new(
            0,
            "arranged".to_string(),
            Partitioner::new(Partitioning::Broadcast, 2),
            q_point.clone(),
            vec![0, 1],
            &pool,
        );
        let agg_edge = OutputEdge::new(
            1,
            "arranged".to_string(),
            Partitioner::new(Partitioning::Broadcast, 3),
            q_agg.clone(),
            vec![2, 3, 4],
            &pool,
        );
        let mut c = Collector::new(
            0,
            4,
            vec![point_edge, agg_edge],
            Arc::new(EngineClock::new()),
        );
        for i in 0..4u64 {
            c.send("arranged", i, 0, i);
        }
        assert_eq!(c.emitted, 4, "emitted counts logical tuples");
        assert_eq!(c.flushes, 5, "one queue crossing per consumer replica");
        assert_eq!(
            pool.stats().allocated() + pool.stats().recycled(),
            1,
            "two query edges share one maintainer's seal"
        );
        let jumbos: Vec<JumboTuple> = q_point
            .iter()
            .chain(q_agg.iter())
            .map(|q| q.try_pop().expect("jumbo delivered"))
            .collect();
        let slab = jumbos[0].batch.slab_id();
        for j in &jumbos {
            assert_eq!(j.batch.slab_id(), slab, "all five copies share one slab");
            assert_eq!(j.batch.payloads::<u64>().expect("typed"), &[0, 1, 2, 3]);
        }
        // Each consumer still sees its own logical edge on the header.
        assert_eq!(jumbos[0].logical_edge, 0);
        assert_eq!(jumbos[4].logical_edge, 1);
        drop(jumbos);
        drop(c);
        assert_eq!(pool.stats().outstanding(), 0, "storage recycled");
    }

    #[test]
    fn send_with_overwrites_recycled_slots_in_place() {
        // One queue subscriber, nothing fused: `fill` gets the slab slot
        // itself, and after the first batch recycles it gets that batch's
        // strings back to overwrite.
        let q = Arc::new(ReplicaQueue::new(QueueKind::default(), 16));
        let mut c = Collector::new(0, 2, vec![shuffle_edge(&q)], Arc::new(EngineClock::new()));
        let mut seen = Vec::new();
        for word in ["alpha", "beta", "gamma", "delta"] {
            c.send_with(DEFAULT_STREAM, 7, 9, |slot: &mut String| {
                seen.push(slot.clone());
                slot.clear();
                slot.push_str(word);
            });
            // Consume (and so recycle) each batch as soon as it ships.
            if let Some(j) = q.try_pop() {
                assert_eq!(j.batch.event_ns_lane(), [7, 7]);
                assert_eq!(j.batch.key_lane(), [9, 9]);
                seen.push(j.batch.payloads::<String>().expect("typed").join("+"));
            }
        }
        assert_eq!(
            seen,
            ["", "", "alpha+beta", "alpha", "beta", "gamma+delta"],
            "fresh slots hold the default, recycled ones the earlier emission"
        );
        assert_eq!(c.emitted, 4);
    }

    #[test]
    fn send_with_fans_one_fill_out_to_every_subscriber() {
        // Two queue edges on one stream: `fill` runs once, on the
        // collector's own value, and each subscriber's slot gets a copy.
        let qs: Vec<Arc<ReplicaQueue<JumboTuple>>> = (0..2)
            .map(|_| Arc::new(ReplicaQueue::new(QueueKind::default(), 16)))
            .collect();
        let edges = qs.iter().map(shuffle_edge).collect();
        let mut c = Collector::new(0, 4, edges, Arc::new(EngineClock::new()));
        let mut fills = 0;
        for i in 0..4u64 {
            c.send_with(DEFAULT_STREAM, i, i, |slot: &mut String| {
                fills += 1;
                slot.clear();
                slot.push_str(&format!("w{i}"));
            });
        }
        c.send_with("nowhere", 0, 0, |_: &mut String| fills += 1);
        assert_eq!(fills, 5);
        assert_eq!(c.emitted, 5, "emitted counts logical tuples, not copies");
        for q in &qs {
            let j = q.try_pop().expect("jumbo delivered");
            assert_eq!(
                j.batch.payloads::<String>().expect("typed"),
                ["w0", "w1", "w2", "w3"]
            );
            assert_eq!(j.batch.event_ns_lane(), [0, 1, 2, 3]);
        }
    }

    #[test]
    fn collector_ignores_unknown_stream() {
        let mut c = Collector::new(0, 4, Vec::new(), Arc::new(EngineClock::new()));
        c.send("nowhere", 1u8, 0, 0);
        assert_eq!(c.emitted, 1); // counted but dropped (no subscriber)
    }
}
