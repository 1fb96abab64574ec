//! The engine's executor: a work-stealing pool of worker threads.
//!
//! BriskStream's RLAS optimizer places *replicas* on cores, but mapping one
//! OS thread per replica would couple replica counts to thread counts: a
//! plan with hundreds of replicas would oversubscribe the host. The engine
//! decouples them, in the spirit of timely-dataflow's worker model: a fixed
//! set of workers ([`Scheduler::CorePool`]) multiplexes per-replica
//! operator *tasks* through work-stealing run queues.
//!
//! # Task lifecycle
//!
//! Every spawned replica (fused-away operators ride their chain host)
//! becomes one task, identified by its global replica index. A task holds
//! the replica's operator instance, collector (with its fused subtree) and
//! input ports, and moves through an atomic state machine:
//!
//! ```text
//!            pop by worker              slice ran dry
//! READY ───────────────────▶ RUNNING ───────────────▶ IDLE
//!   ▲                          │  │                     │
//!   │      yield (requeue)     │  │    exhausted        │ wake-on-push /
//!   └──────────────────────────┘  └──▶ DONE             │ producers done
//!   └───────────────────────────────────────────────────┘
//! ```
//!
//! A *slice* drains up to a bounded number of jumbos from the task's input
//! ports (or invokes a spout a bounded number of times), runs the operator
//! — including its whole fused subtree, inline — and flushes. Bounding the
//! slice keeps one hot replica from starving the rest of a worker's run
//! queue.
//!
//! Queue pushes wake the consumer's task through the `WakeHub`: a
//! compare-and-swap from `IDLE` to `READY` enqueues the task on the shared
//! injector, so only genuinely sleeping tasks pay the wake cost. The
//! classic lost-wakeup race (producer pushes while the consumer's slice is
//! deciding to sleep) is closed on the sleep path: the worker publishes
//! `IDLE` *first*, then re-checks the task's input queues and producer
//! latches, and re-wakes the task itself if work slipped in.
//!
//! # Stealing policy
//!
//! Each worker owns a run queue and serves it round-robin (pop front, run
//! a slice, requeue at the back). Freshly woken tasks on the shared
//! injector take priority over the worker's own queue — a yielding task
//! requeues itself every slice, so the reverse order would let one
//! back-pressured producer starve its just-woken consumers on a small
//! pool. A dry worker then steals from the *back* of sibling queues —
//! the slot its owner would reach last. A worker with
//! no task anywhere falls back to the adaptive spin → yield → park ladder
//! ([`Backoff`]), so idle workers end up parked rather than spinning.
//!
//! # Home workers
//!
//! A task that yields after getting work done requeues on the worker that
//! ran it, where its state is cache-warm. A task that *stalled* — a
//! back-pressured producer, a spout with nothing to emit — requeues on its
//! **home worker** instead, fixed at spawn: spouts share the last worker,
//! every other task goes round-robin over the workers before it.
//!
//! A stalled task never sleeps (nothing would wake it), so it keeps
//! whatever queue it sits on from running dry. Left where the start-up
//! race for the injector happened to put it, it pins that placement for
//! the rest of the run: a back-pressured bolt picked up by the worker the
//! saturating spout polls on stays there, its consumers queue up on the
//! other worker, and Word Count runs at 1.7 M or 3.0 M events/s by the luck
//! of that race. Homes make where stalled tasks wait a function of the
//! plan, not of timing — and keep the tasks that stall by design, the
//! spouts, off the queues of the bolts they are waiting for.
//!
//! Back-pressure cannot block a worker: collectors only ever `try_push`,
//! so a full destination queue hands the jumbo back, the task reports
//! itself back-pressured and *yields* its worker instead of parking it —
//! the single-worker pool therefore cannot deadlock on a
//! producer→consumer cycle through a bounded queue.

use crate::engine::{
    consume_batch, emergency_retire, merge_and_retire, replay_pending, BoltState, EngineShared,
    InputPort, TaskSeed, FLUSH_EVERY, POP_BATCH,
};
use crate::fusion::SinkLocal;
use crate::operator::{Collector, DynSpout, OperatorRuntime, SpoutStatus};
use crate::spsc::Backoff;
use crate::supervise::{panic_message, FaultKind};
use brisk_dag::OperatorKind;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle, Thread};

/// How the engine maps operator replicas onto OS threads
/// ([`crate::EngineConfig::scheduler`]). There is one executor; its width
/// is the only setting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// A fixed pool of workers drives per-replica tasks through
    /// work-stealing run queues (see the [module docs](self)). Replica
    /// counts no longer dictate thread counts, so a plan with hundreds of
    /// replicas runs on as many workers as the host has cores.
    CorePool {
        /// Worker-thread count; `0` sizes the pool to the host's available
        /// parallelism. Always clamped to the number of spawned tasks.
        workers: usize,
    },
}

impl Default for Scheduler {
    /// A pool sized to the host's available parallelism.
    fn default() -> Self {
        Scheduler::CorePool { workers: 0 }
    }
}

impl Scheduler {
    /// Resolved pool width for `tasks` spawned replicas: at least one
    /// worker and at most one per task.
    pub(crate) fn pool_workers(&self, tasks: usize) -> usize {
        let Scheduler::CorePool { workers } = *self;
        let w = if workers == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        w.clamp(1, tasks.max(1))
    }
}

/// Task states (one `AtomicU8` per global replica index).
const IDLE: u8 = 0;
const READY: u8 = 1;
const RUNNING: u8 = 2;
const DONE: u8 = 3;

/// Wake-on-push hub shared by the pool's workers and every engine
/// [`Collector`]: task states plus the injector queue freshly woken tasks
/// land on. Fused-away replicas keep the `DONE` state they are born with,
/// so waking them is a no-op.
pub(crate) struct WakeHub {
    states: Vec<AtomicU8>,
    injector: Mutex<VecDeque<usize>>,
    /// Workers currently inside the idle back-off ladder; wakes unpark
    /// them so a freshly readied task is picked up within one rung.
    idle_workers: AtomicUsize,
    /// Every worker's thread handle, registered at worker startup.
    sleepers: Mutex<Vec<Thread>>,
}

impl WakeHub {
    pub(crate) fn new(total_replicas: usize) -> WakeHub {
        WakeHub {
            states: (0..total_replicas).map(|_| AtomicU8::new(DONE)).collect(),
            injector: Mutex::new(VecDeque::new()),
            idle_workers: AtomicUsize::new(0),
            sleepers: Mutex::new(Vec::new()),
        }
    }

    /// Mark `task` ready if it is sleeping. Exactly one waker wins the
    /// `IDLE → READY` transition, so a task is never enqueued twice.
    pub(crate) fn wake(&self, task: usize) {
        if self.states[task]
            .compare_exchange(IDLE, READY, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.injector.lock().push_back(task);
            self.unpark_idle();
        }
    }

    /// Wake every sleeping task — used when an operator retires, which may
    /// release consumers parked on its `op_done` latch.
    fn wake_all(&self) {
        for t in 0..self.states.len() {
            self.wake(t);
        }
    }

    fn unpark_idle(&self) {
        if self.idle_workers.load(Ordering::Acquire) > 0 {
            for t in self.sleepers.lock().iter() {
                t.unpark();
            }
        }
    }
}

/// Sleep-path recheck data, kept outside the task slot so the lost-wakeup
/// guard can inspect a task's inputs *after* returning it to its slot.
struct TaskMeta {
    queues: Vec<InputPort>,
    producer_ops: Vec<usize>,
}

/// One schedulable replica: the operator instance plus its collector,
/// input ports and supervision state.
struct Task {
    op_index: usize,
    /// Replica index within the operator.
    replica: usize,
    body: TaskBody,
    collector: Collector,
    ports: Vec<InputPort>,
    producer_ops: Vec<usize>,
    /// Operator `finish` hooks already ran; the task only drains
    /// back-pressured output buffers before retiring.
    finished: bool,
    /// The operator panicked and declined to continue: skip its `finish`,
    /// drain buffers, retire.
    dead: bool,
}

enum TaskBody {
    Spout {
        spout: Box<dyn DynSpout>,
        since_flush: u32,
    },
    Bolt(BoltState),
}

/// Spout invocations per slice. Sized to keep the spout's working set hot
/// for several flush batches before the worker switches tasks (a switch
/// costs cache and branch locality, not just the queue hops); back-pressure
/// still ends a slice immediately, so consumers on the same worker are
/// never starved — a saturating spout runs out of queue space long before
/// it runs out of slice.
const SPOUT_SLICE: u32 = 1024;

/// Port polls per bolt slice (each poll drains up to [`POP_BATCH`] jumbos).
/// Like [`SPOUT_SLICE`], deliberately generous: an empty poll or
/// back-pressure ends the slice early, so the budget only bounds how long a
/// saturated bolt keeps its state hot before yielding the worker.
const BOLT_SLICE_POLLS: usize = 64;

enum SliceOutcome {
    /// The task stays runnable: requeue it. `progressed` is false when the
    /// slice did no useful work (back-pressured or an idle spout), which
    /// feeds the worker's whole-pool-idle detector.
    Yield { progressed: bool },
    /// A bolt with live producers and empty inputs: park until a push (or
    /// a producer retiring) wakes it.
    Sleep,
    /// The task retired; counters are merged, sink metrics returned.
    Finished(Option<SinkLocal>),
}

enum Step {
    Yield(bool),
    Sleep,
    Finish,
    /// A contained operator panic (rendered payload); the operator's
    /// `recover()` decides continuation vs. death.
    Fault(String),
}

fn run_slice(task: &mut Task, shared: &EngineShared) -> SliceOutcome {
    if task.finished {
        return finish_task(task, shared);
    }
    // Ship stalled output before consuming any more input.
    if task.collector.is_backpressured() {
        task.collector.flush_all();
        if task.collector.is_backpressured() {
            return SliceOutcome::Yield { progressed: false };
        }
    }
    let step = match &mut task.body {
        TaskBody::Spout { spout, since_flush } => {
            run_spout_slice(spout.as_mut(), since_flush, &mut task.collector, shared)
        }
        TaskBody::Bolt(state) => run_bolt_slice(
            state,
            &task.ports,
            &mut task.collector,
            &task.producer_ops,
            task.op_index,
            shared,
        ),
    };
    match step {
        Step::Finish => finish_task(task, shared),
        Step::Sleep => SliceOutcome::Sleep,
        Step::Yield(progressed) => SliceOutcome::Yield { progressed },
        Step::Fault(message) => handle_fault(task, message, shared),
    }
}

/// One spout slice: bounded `next` calls, each under a panic guard.
fn run_spout_slice(
    spout: &mut dyn DynSpout,
    since_flush: &mut u32,
    collector: &mut Collector,
    shared: &EngineShared,
) -> Step {
    let mut step = Step::Yield(false);
    for _ in 0..SPOUT_SLICE {
        if shared.stop.load(Ordering::Relaxed) || collector.output_closed {
            return Step::Finish;
        }
        let status = match catch_unwind(AssertUnwindSafe(|| spout.next(collector))) {
            Ok(status) => status,
            Err(payload) => return Step::Fault(panic_message(payload.as_ref())),
        };
        match status {
            SpoutStatus::Emitted(n) => {
                shared.replica_tuples[collector.replica()].fetch_add(n as u64, Ordering::Relaxed);
                step = Step::Yield(true);
                *since_flush += 1;
                if *since_flush >= FLUSH_EVERY {
                    collector.flush_all();
                    *since_flush = 0;
                }
                if collector.is_backpressured() {
                    break;
                }
            }
            SpoutStatus::Idle => {
                // Nothing to emit right now. Spouts have no input
                // queues, so no push will ever wake them: they stay
                // runnable and the worker's idle detector paces the
                // polling.
                collector.flush_all();
                *since_flush = 0;
                break;
            }
            SpoutStatus::Exhausted => return Step::Finish,
        }
    }
    step
}

/// One bolt slice: continuation housekeeping (replay the interrupted
/// jumbo's tail, finish leftover batched jumbos), then bounded input polls.
fn run_bolt_slice(
    state: &mut BoltState,
    ports: &[InputPort],
    collector: &mut Collector,
    producer_ops: &[usize],
    op_index: usize,
    shared: &EngineShared,
) -> Step {
    if let Err(m) = replay_pending(state, collector, op_index, shared) {
        return Step::Fault(m);
    }
    let mut progressed = false;
    if !state.batch.is_empty() {
        progressed = true;
        if let Err(m) = consume_batch(state, collector, op_index, shared) {
            return Step::Fault(m);
        }
        if collector.is_backpressured() {
            return Step::Yield(true);
        }
    }
    for _ in 0..BOLT_SLICE_POLLS {
        if state.cursor.poll(ports, &mut state.batch, POP_BATCH) {
            progressed = true;
            if let Err(m) = consume_batch(state, collector, op_index, shared) {
                return Step::Fault(m);
            }
            if collector.is_backpressured() {
                break;
            }
        } else {
            collector.flush_all();
            state.since_flush = 0;
            if collector.is_backpressured() {
                // Consumers never signal "space freed", so a
                // stalled task must poll-retry, not sleep.
                break;
            }
            let producers_done = producer_ops
                .iter()
                .all(|&p| shared.op_done[p].load(Ordering::Acquire));
            if producers_done {
                if state.cursor.drained(ports) {
                    return Step::Finish;
                }
                // A straggler jumbo is still in flight: stay
                // runnable and drain it next slice.
            } else if !progressed {
                return Step::Sleep;
            }
            break;
        }
    }
    Step::Yield(progressed)
}

/// Fault supervisor: the operator's `recover()` decides. Continuing keeps
/// the same instance, and the next slice replays the interrupted jumbo's
/// tail. Dying closes the task's *input* queues (producers fail fast;
/// outputs stay open for live consumers), charges every tuple the replica
/// holds to its quarantine count, hands the closed rings to teardown for
/// the same, and retires through [`finish_task`]'s normal accounting.
fn handle_fault(task: &mut Task, message: String, shared: &EngineShared) -> SliceOutcome {
    let continued = match &mut task.body {
        TaskBody::Spout { spout, .. } => spout.recover(),
        TaskBody::Bolt(state) => state.bolt.recover(),
    };
    shared.record_fault(
        task.op_index,
        task.replica,
        FaultKind::OperatorPanic,
        message,
        continued,
    );
    if continued {
        return SliceOutcome::Yield { progressed: true };
    }
    for p in &task.ports {
        p.close();
    }
    if let TaskBody::Bolt(state) = &mut task.body {
        let pending: usize = state.pending.drain(..).map(|b| b.len()).sum();
        let batched: usize = state.batch.drain(..).map(|j| j.len()).sum();
        shared.quarantined[task.op_index].fetch_add((pending + batched) as u64, Ordering::Relaxed);
        shared
            .dead_inputs
            .lock()
            .push((task.op_index, task.ports.clone()));
    }
    task.dead = true;
    finish_task(task, shared)
}

/// Run the operator's `finish` hooks (once), then drain every output
/// buffer; with back-pressure the task yields and keeps draining on later
/// slices until all residue ships, and only then merges its counters.
fn finish_task(task: &mut Task, shared: &EngineShared) -> SliceOutcome {
    if !task.finished {
        if !task.dead && shared.harvesting() {
            // Migration pause: hand state out instead of finishing —
            // `finish` finals belong to the true end of stream, which only
            // the last (non-harvesting) epoch reaches.
            let extracted = match &mut task.body {
                TaskBody::Spout { spout, .. } => {
                    catch_unwind(AssertUnwindSafe(|| spout.extract_state()))
                }
                TaskBody::Bolt(state) => {
                    let bolt = &mut state.bolt;
                    catch_unwind(AssertUnwindSafe(|| bolt.extract_state()))
                }
            };
            match extracted {
                Ok(entries) => shared.harvest_state(task.op_index, task.replica, entries),
                Err(payload) => shared.record_fault(
                    task.op_index,
                    task.replica,
                    FaultKind::OperatorPanic,
                    panic_message(payload.as_ref()),
                    false,
                ),
            }
        } else if !task.dead {
            match &mut task.body {
                TaskBody::Spout { spout, .. } => {
                    // Exhausted before any harvest was requested: park the
                    // final source position so a migration pause that races
                    // this retirement still hands the spent budget over
                    // (join folds parked state into the harvest).
                    match catch_unwind(AssertUnwindSafe(|| spout.extract_state())) {
                        Ok(entries) => shared.park_retired(task.op_index, task.replica, entries),
                        Err(payload) => shared.record_fault(
                            task.op_index,
                            task.replica,
                            FaultKind::OperatorPanic,
                            panic_message(payload.as_ref()),
                            false,
                        ),
                    }
                }
                TaskBody::Bolt(state) => {
                    // Panic-guarded: a faulty `finish` is recorded (the
                    // operator is retiring anyway) and never poisons
                    // teardown.
                    let bolt = &mut state.bolt;
                    let collector = &mut task.collector;
                    if let Err(payload) = catch_unwind(AssertUnwindSafe(|| bolt.finish(collector)))
                    {
                        shared.record_fault(
                            task.op_index,
                            task.replica,
                            FaultKind::OperatorPanic,
                            panic_message(payload.as_ref()),
                            false,
                        );
                    }
                }
            }
        }
        task.collector.finish_fused();
        task.finished = true;
    }
    task.collector.flush_all();
    if task.collector.is_backpressured() && !task.collector.output_closed {
        return SliceOutcome::Yield { progressed: true };
    }
    let sink_local = match &mut task.body {
        TaskBody::Bolt(state) => state.sink_local.take(),
        TaskBody::Spout { .. } => None,
    };
    SliceOutcome::Finished(merge_and_retire(
        &mut task.collector,
        task.op_index,
        sink_local,
        shared,
    ))
}

/// The pool's shared spine: per-worker run queues, task slots, and the
/// run's merged sink metrics.
struct PoolShared {
    hub: Arc<WakeHub>,
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Task storage by global replica index; `None` while a worker runs
    /// the task (and forever once it retires or for fused-away replicas).
    slots: Vec<Mutex<Option<Task>>>,
    /// Sleep-path recheck data (input queues + producer latches).
    meta: Vec<Option<TaskMeta>>,
    /// Home worker by global replica index: where a stalled task requeues.
    home: Vec<usize>,
    sink: Mutex<SinkLocal>,
}

/// A running worker pool; [`PoolRun::join`] blocks until every task
/// retired and returns the merged sink metrics.
pub(crate) struct PoolRun {
    workers: Vec<JoinHandle<()>>,
    pool: Arc<PoolShared>,
}

impl PoolRun {
    pub(crate) fn join(self, shared: &EngineShared) -> SinkLocal {
        for h in self.workers {
            // Worker bodies are backstopped, so a join error means even
            // the backstop unwound: record the executor loss (it is not
            // attributable to an operator) instead of double-panicking
            // during teardown.
            if let Err(payload) = h.join() {
                shared.record_fault(
                    usize::MAX,
                    0,
                    FaultKind::ExecutorLoss,
                    panic_message(payload.as_ref()),
                    false,
                );
            }
        }
        std::mem::take(&mut self.pool.sink.lock())
    }
}

/// Home worker of each task, from the tasks' kinds in seeding order: spouts
/// share the last worker, everything else goes round-robin over the workers
/// before it. A single worker is everybody's home.
fn home_workers(kinds: impl Iterator<Item = OperatorKind>, workers: usize) -> Vec<usize> {
    let bolt_workers = (workers - 1).max(1);
    let mut bolts = 0;
    kinds
        .map(|kind| match kind {
            OperatorKind::Spout => workers - 1,
            OperatorKind::Bolt | OperatorKind::Sink => {
                bolts += 1;
                (bolts - 1) % bolt_workers
            }
        })
        .collect()
}

/// Instantiate every seed as a task, queue each on its home worker (in the
/// given order — the engine passes reverse-topological, so consumers land
/// early), and spawn `workers` pool workers.
pub(crate) fn spawn_pool(
    seeds: Vec<TaskSeed>,
    hub: Arc<WakeHub>,
    shared: Arc<EngineShared>,
    workers: usize,
) -> PoolRun {
    let total = hub.states.len();
    let slots: Vec<Mutex<Option<Task>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let mut meta: Vec<Option<TaskMeta>> = (0..total).map(|_| None).collect();
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let homes = home_workers(seeds.iter().map(|s| s.kind), workers);
    let mut home = vec![0; total];
    for (seed, at) in seeds.into_iter().zip(homes) {
        let t = seed.global;
        home[t] = at;
        meta[t] = Some(TaskMeta {
            queues: seed.ports.clone(),
            producer_ops: seed.producer_ops.clone(),
        });
        let op = brisk_dag::OperatorId(seed.op_index);
        let body = match shared.app.runtime(op) {
            OperatorRuntime::Spout(f) => {
                let mut spout = f(seed.ctx);
                if let Some(entries) = shared.take_preload(t) {
                    spout.install_state(entries);
                }
                TaskBody::Spout {
                    spout,
                    since_flush: 0,
                }
            }
            OperatorRuntime::Bolt(f) | OperatorRuntime::Sink(f) => {
                let mut bolt = f(seed.ctx);
                if let Some(entries) = shared.take_preload(t) {
                    bolt.install_state(entries);
                }
                TaskBody::Bolt(BoltState::new(bolt, seed.kind, seed.ports.len()))
            }
        };
        *slots[t].lock() = Some(Task {
            op_index: seed.op_index,
            replica: seed.ctx.replica,
            body,
            collector: seed.collector,
            ports: seed.ports,
            producer_ops: seed.producer_ops,
            finished: false,
            dead: false,
        });
        hub.states[t].store(READY, Ordering::Release);
        deques[home[t]].lock().push_back(t);
    }
    let pool = Arc::new(PoolShared {
        hub,
        deques,
        slots,
        meta,
        home,
        sink: Mutex::new(SinkLocal::default()),
    });
    let handles = (0..workers)
        .map(|w| {
            let pool = Arc::clone(&pool);
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("brisk-worker#{w}"))
                .spawn(move || worker_loop(w, &pool, &shared))
                .expect("worker spawn")
        })
        .collect();
    PoolRun {
        workers: handles,
        pool,
    }
}

/// Next task for worker `w`: the injector first (freshly woken tasks —
/// and a yielding task requeues onto its worker's own deque every slice,
/// so own-deque-first would let one back-pressured producer starve woken
/// consumers forever on a small pool), then the own queue front, then
/// steal from the back of sibling queues.
fn next_task(w: usize, pool: &PoolShared) -> Option<usize> {
    if let Some(t) = pool.hub.injector.lock().pop_front() {
        return Some(t);
    }
    if let Some(t) = pool.deques[w].lock().pop_front() {
        return Some(t);
    }
    let n = pool.deques.len();
    for off in 1..n {
        if let Some(t) = pool.deques[(w + off) % n].lock().pop_back() {
            return Some(t);
        }
    }
    None
}

fn worker_loop(w: usize, pool: &PoolShared, shared: &EngineShared) {
    pool.hub.sleepers.lock().push(thread::current());
    let mut backoff = Backoff::with_profile(shared.backoff_profile);
    // Consecutive slices (across any tasks) that did no useful work; once
    // the streak covers every live task the whole pool looks idle and the
    // worker drops onto the back-off ladder.
    let mut unproductive = 0usize;
    loop {
        match next_task(w, pool) {
            Some(t) => {
                if pool.hub.states[t]
                    .compare_exchange(READY, RUNNING, Ordering::AcqRel, Ordering::Acquire)
                    .is_err()
                {
                    continue; // stale id; the state machine owns the truth
                }
                let mut task = pool.slots[t].lock().take().expect("claimed task present");
                // Backstop: a panic that escapes every operator guard (a
                // runtime bug, not an operator fault) must not kill the
                // worker — force-retire the task's accounting so the rest
                // of the run winds down, and keep serving other tasks.
                let outcome = match catch_unwind(AssertUnwindSafe(|| run_slice(&mut task, shared)))
                {
                    Ok(outcome) => outcome,
                    Err(payload) => {
                        let hosted = task.collector.hosted_ops();
                        emergency_retire(
                            shared,
                            task.op_index,
                            task.replica,
                            &hosted,
                            &task.ports,
                            panic_message(payload.as_ref()),
                        );
                        pool.hub.states[t].store(DONE, Ordering::Release);
                        pool.hub.wake_all();
                        unproductive = 0;
                        backoff.reset();
                        continue;
                    }
                };
                match outcome {
                    SliceOutcome::Yield { progressed } => {
                        // Slot first, then state, then queue: a task id in
                        // a run queue always has its task in its slot.
                        *pool.slots[t].lock() = Some(task);
                        pool.hub.states[t].store(READY, Ordering::Release);
                        // Cache-warm here if it got work done; home if it
                        // stalled (see "Home workers" in the module docs).
                        // A parked home worker is not unparked for it: a
                        // stalled task has nothing to hurry for, and the
                        // extra wake-ups made how often an idle spout is
                        // polled — and with it paced latency — unsteady.
                        let next = if progressed { w } else { pool.home[t] };
                        pool.deques[next].lock().push_back(t);
                        if progressed {
                            unproductive = 0;
                            backoff.reset();
                        } else {
                            unproductive += 1;
                            if unproductive >= shared.live_replicas.load(Ordering::Relaxed).max(1) {
                                snooze_idle(pool, &mut backoff);
                                unproductive = 0;
                            }
                        }
                    }
                    SliceOutcome::Sleep => {
                        let meta = pool.meta[t].as_ref().expect("meta for live task");
                        *pool.slots[t].lock() = Some(task);
                        // Publish IDLE *before* rechecking: a producer that
                        // pushed after our slice saw empty queues either
                        // wins the wake CAS itself or its push is visible
                        // to the recheck below — never neither.
                        pool.hub.states[t].store(IDLE, Ordering::SeqCst);
                        let work_appeared = meta.queues.iter().any(|q| !q.is_empty())
                            || meta
                                .producer_ops
                                .iter()
                                .all(|&p| shared.op_done[p].load(Ordering::Acquire));
                        if work_appeared {
                            pool.hub.wake(t);
                        }
                        unproductive += 1;
                    }
                    SliceOutcome::Finished(sink) => {
                        if let Some(s) = sink {
                            let mut agg = pool.sink.lock();
                            agg.events += s.events;
                            agg.latency.merge(&s.latency);
                        }
                        pool.hub.states[t].store(DONE, Ordering::Release);
                        // Retiring may have released an `op_done` latch
                        // consumers sleep on; let them re-evaluate.
                        pool.hub.wake_all();
                        unproductive = 0;
                        backoff.reset();
                    }
                }
            }
            None => {
                if shared.live_replicas.load(Ordering::Acquire) == 0 {
                    break;
                }
                snooze_idle(pool, &mut backoff);
            }
        }
    }
}

/// One rung of the idle ladder, with the worker registered as idle so
/// wakes unpark it instead of waiting out the park interval.
fn snooze_idle(pool: &PoolShared, backoff: &mut Backoff) {
    pool.hub.idle_workers.fetch_add(1, Ordering::AcqRel);
    backoff.snooze();
    pool.hub.idle_workers.fetch_sub(1, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use OperatorKind::{Bolt, Sink, Spout};

    #[test]
    fn spouts_are_at_home_on_the_last_worker_and_bolts_on_the_others() {
        // Seeding order is reverse-topological: sink first, spout last.
        let kinds = [Sink, Bolt, Bolt, Bolt, Spout, Spout];
        assert_eq!(home_workers(kinds.into_iter(), 1), [0, 0, 0, 0, 0, 0]);
        assert_eq!(home_workers(kinds.into_iter(), 2), [0, 0, 0, 0, 1, 1]);
        assert_eq!(home_workers(kinds.into_iter(), 3), [0, 1, 0, 1, 2, 2]);
    }
}
