//! # brisk-runtime
//!
//! The BriskStream execution engine (Section 5 + Appendix A): a real,
//! threaded, shared-memory streaming runtime.
//!
//! Design points taken from the paper:
//!
//! * **One task per replica, one process**: each spawned replica of each
//!   operator is one task inside a single process, so tuples are passed
//!   **by reference** — producers store payloads in shared slabs and
//!   enqueue only container handles.
//! * **Jumbo tuples over a zero-copy batch fabric** ([`batch`]): output
//!   tuples headed for the same consumer accumulate in a typed,
//!   arena-backed [`Batch`] (contiguous payloads + parallel event-time /
//!   key lanes over one refcounted slab) and ship as one [`JumboTuple`]
//!   container handle — a single queue insertion moves the whole batch
//!   (Section 5.2), broadcast is a refcount bump, and slab storage
//!   recycles through per-producer [`SlabPool`] arenas so the steady
//!   state allocates nothing. Pass-by-reference is taken to its
//!   conclusion: *a payload is allocated, overwritten and freed only by
//!   the task that emits it*. A consumer borrows a slab and hands it back
//!   uncleared; the producer's next fill overwrites the stale payloads,
//!   in place when the operator emits through [`Collector::send_with`],
//!   so a payload's `Drop` runs when its slot is reused or the engine is
//!   torn down, not when the consumer finishes the batch.
//! * **Bounded queues with back-pressure**: when a consumer falls behind,
//!   its input queues fill and producer tasks yield their worker instead
//!   of consuming more input, eventually throttling the spout so the
//!   system settles at its maximum sustainable rate (Section 6.1,
//!   footnote 2). The ring behind each queue is chosen at wiring time from
//!   its producer count — there is no knob: one producer replica gets the
//!   **lock-free cache-conscious SPSC ring** ([`SpscQueue`]); genuinely
//!   multi-producer wiring (a multi-replica `Global` funnel) gets the
//!   **CAS-claimed MPSC ring** ([`MpscQueue`])
//!   ([`QueueKind::for_producers`]). Idle workers wait on an adaptive
//!   **spin → yield → park** ladder ([`Backoff`]) whose rung layout
//!   ([`BackoffProfile`]) turns park-dominant when workers outnumber
//!   hardware cores.
//! * **Partition controller**: every task routes each emitted tuple to one
//!   output buffer per consumer replica according to the edge's partitioning
//!   strategy (shuffle / key-by / broadcast / global / forward).
//! * **Operator-chain fusion** ([`fusion`], [`brisk_dag::FusionPlan`]):
//!   collocated producer→consumer pairs wired 1:1 at the replica level —
//!   single-replica chains, equal-count `Forward` edges, aligned KeyBy —
//!   collapse into host executors that run the downstream operator
//!   inline, one instance per replica pair, in the producer's task: no
//!   jumbo batching, queue crossing or poll loop on fused edges
//!   ([`EngineConfig::fusion`], default on).
//!
//! * **One executor** ([`scheduler`]): replicas run as *tasks* multiplexed
//!   onto a fixed pool of workers through work-stealing run queues with
//!   wake-on-push — decoupling replica counts from thread counts, so
//!   heavily replicated plans never oversubscribe the host. The pool's
//!   width ([`Scheduler::CorePool`]'s `workers`) is its only setting.
//!
//! * **Supervised execution** ([`supervise`]): every user-operator call is
//!   panic-contained; a panicking replica becomes a structured
//!   [`ReplicaFault`] and the poison tuple is quarantined (at-most-once for
//!   it, exactly-once for everything else). The operator, not the engine
//!   configuration, decides what happens next: [`DynBolt::recover`] /
//!   [`DynSpout::recover`] returning `true` keeps the same instance going;
//!   the default retires the replica, and every tuple it will never process
//!   is charged to its quarantine count, so conservation holds on death
//!   too. The deterministic [`FaultPlan`] harness ([`faultinject`]) drives
//!   fault-conformance testing with fusion on and off.
//!
//! * **Elastic execution** ([`elastic`]): the profile → optimize → execute
//!   life cycle runs continuously. An [`ElasticEngine`] samples live
//!   per-replica rates ([`EngineHandle::rates`]), detects drift against
//!   the cost model's prediction for the running plan, re-calibrates the
//!   model from measurement, re-runs RLAS warm-started from the incumbent
//!   plan, and migrates the running engine onto a sufficiently better plan
//!   through a tuple-safe pause → drain → hand-off-state → rewire → resume
//!   protocol ([`EngineHandle::request_migration`],
//!   [`Engine::preload_state`]). Skew-aware KeyBy re-weighting
//!   ([`Engine::set_keyby_weights`]) rides the same migration path.
//!
//! The engine executes a [`brisk_dag::LogicalTopology`] under a
//! [`brisk_dag::ExecutionPlan`] on the host it is started on. The plan's
//! socket placement is kept per replica ([`Engine::replica_sockets`]) and
//! decides which edges fuse — only collocated pairs may — and nothing else:
//! the engine does not emulate the plan's machine. What a remote fetch
//! costs there (Formula 2) is priced by `brisk_model` and charged by
//! `brisk_sim`.
#![warn(missing_docs)]

pub mod batch;
pub mod drift;
pub mod elastic;
pub mod engine;
pub mod faultinject;
pub mod fusion;
pub mod mpsc;
pub mod operator;
pub mod partition;
pub mod queue;
pub mod scheduler;
pub mod spsc;
pub mod supervise;
pub mod tuple;

pub use batch::{Batch, BatchBuilder, BatchCursor, SlabPool, SlabStats, TupleView};
pub use drift::DriftPlan;
pub use elastic::{ElasticEngine, ElasticOptions, ElasticReport};
pub use engine::{
    plan_replica_sockets, Engine, EngineConfig, EngineConfigBuilder, EngineHandle, HarvestedState,
    OpStats, ReplicaRate, RunLimit, RunReport,
};
pub use faultinject::{silence_injected_panics, FaultPlan, INJECTED_PANIC_PREFIX};
pub use mpsc::MpscQueue;
pub use operator::{
    AppRuntime, BoltContext, Collector, DynBolt, DynSpout, OperatorRuntime, SpoutStatus, StateEntry,
};
pub use partition::{keyby_slot_table, route_keyed, Partitioner, KEYBY_SLOTS_PER_CONSUMER};
pub use queue::{QueueKind, ReplicaQueue};
pub use scheduler::Scheduler;
pub use spsc::{Backoff, BackoffProfile, PushError, SpscQueue};
pub use supervise::{FaultKind, FaultSummary, ReplicaFault};
pub use tuple::{JumboTuple, Tuple};
