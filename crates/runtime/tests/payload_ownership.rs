//! The ownership rule of the slab plane, checked on a running engine: *a
//! payload is allocated, overwritten and freed only by the task that emits
//! it*.
//!
//! A payload type that records every construction and every drop runs
//! through a queued three-operator pipeline on two workers. When the run
//! is over and the pools are gone, every payload ever constructed must
//! have been dropped exactly once, and each drop must have happened in one
//! of two places: inside an emitting operator's own call (its push
//! overwrote the stale payload in a recycled slot), or on the thread that
//! joined the engine (teardown frees what the pools still hold). A drop
//! anywhere else is a consumer's worker running a producer's destructor.
//!
//! Tasks move between workers, so "the emitter" is a thread-local flag the
//! emitting operators raise around their own `execute`/`next`, not a
//! thread id fixed per operator.

use brisk_dag::{CostProfile, TopologyBuilder, DEFAULT_STREAM};
use brisk_runtime::{
    AppRuntime, Collector, DynBolt, DynSpout, Engine, EngineConfig, Scheduler, SpoutStatus,
    TupleView,
};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

const TUPLES: u64 = 20_000;

static BORN: AtomicU64 = AtomicU64::new(0);
/// One record per drop: the payload's id, the dropping thread, and whether
/// that thread was inside an emitting operator's call.
static DROPS: Mutex<Vec<(u64, ThreadId, bool)>> = Mutex::new(Vec::new());

thread_local! {
    static EMITTING: Cell<bool> = const { Cell::new(false) };
}

/// Raise [`EMITTING`] for the duration of `f`.
fn emitting<R>(f: impl FnOnce() -> R) -> R {
    EMITTING.with(|e| e.set(true));
    let out = f();
    EMITTING.with(|e| e.set(false));
    out
}

struct Tracked {
    id: u64,
    seq: u64,
}

impl Tracked {
    fn new(seq: u64) -> Tracked {
        Tracked {
            id: BORN.fetch_add(1, Ordering::Relaxed),
            seq,
        }
    }
}

impl Default for Tracked {
    fn default() -> Tracked {
        Tracked::new(0)
    }
}

impl Clone for Tracked {
    fn clone(&self) -> Tracked {
        Tracked::new(self.seq)
    }
}

impl Drop for Tracked {
    fn drop(&mut self) {
        let in_emitter = EMITTING.with(Cell::get);
        DROPS
            .lock()
            .expect("no drop panics")
            .push((self.id, thread::current().id(), in_emitter));
    }
}

/// Emits owned payloads: each push overwrites — and so drops — whatever an
/// earlier batch left in the recycled slot.
struct Source {
    next: u64,
}

impl DynSpout for Source {
    fn next(&mut self, c: &mut Collector) -> SpoutStatus {
        if self.next == TUPLES {
            return SpoutStatus::Exhausted;
        }
        self.next += 1;
        let now = c.now_ns();
        emitting(|| c.send_default(Tracked::new(self.next), now, self.next));
        SpoutStatus::Emitted(1)
    }
}

/// Re-emits in place: the slot's stale payload is overwritten field by
/// field and never dropped.
struct Relay;

impl DynBolt for Relay {
    fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
        let seq = t.value::<Tracked>().expect("typed").seq;
        emitting(|| {
            c.send_with(DEFAULT_STREAM, t.event_ns, t.key, |slot: &mut Tracked| {
                slot.seq = seq;
            })
        });
    }
}

struct SumSink {
    sum: Arc<AtomicU64>,
}

impl DynBolt for SumSink {
    fn execute(&mut self, t: &TupleView<'_>, _c: &mut Collector) {
        let seq = t.value::<Tracked>().expect("typed").seq;
        self.sum.fetch_add(seq, Ordering::Relaxed);
    }
}

#[test]
fn payloads_are_dropped_once_and_only_by_their_emitter_or_teardown() {
    let mut b = TopologyBuilder::new("ownership");
    let source = b.add_spout("source", CostProfile::trivial());
    let relay = b.add_bolt("relay", CostProfile::trivial());
    let sink = b.add_sink("sink", CostProfile::trivial());
    b.connect_shuffle(source, relay);
    b.connect_shuffle(relay, sink);
    let sum = Arc::new(AtomicU64::new(0));
    let sink_sum = Arc::clone(&sum);
    let app = AppRuntime::new(b.build().expect("valid"))
        .spout(source, |_| Source { next: 0 })
        .bolt(relay, |_| Relay)
        .sink(sink, move |_| SumSink {
            sum: Arc::clone(&sink_sum),
        });
    // Queued edges (fusion off) on two workers; short queues keep every
    // pool far below the overflow cap, the one place a consumer may free.
    let config = EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers: 2 })
        .fusion(false)
        .queue_capacity(8)
        .build();
    let engine = Engine::new(app, vec![1, 1, 1], config).expect("valid engine config");
    let report = engine.run_until_events(u64::MAX, Duration::from_secs(120));

    assert_eq!(report.sink_events, TUPLES);
    assert_eq!(sum.load(Ordering::Relaxed), TUPLES * (TUPLES + 1) / 2);
    assert!(
        report.slab_allocs < 64,
        "a pool may have overflowed ({} slabs allocated): the premise is gone",
        report.slab_allocs
    );
    assert!(report.slab_recycled > report.slab_allocs, "slabs recycled");

    let drops = std::mem::take(&mut *DROPS.lock().expect("no drop panics"));
    let born = BORN.load(Ordering::Relaxed);
    assert!(born >= TUPLES, "the source alone constructs one per tuple");
    let mut ids: Vec<u64> = drops.iter().map(|d| d.0).collect();
    ids.sort_unstable();
    assert_eq!(
        ids,
        (0..born).collect::<Vec<u64>>(),
        "every payload constructed is dropped exactly once by the time the engine is gone"
    );

    let me = thread::current().id();
    let foreign = drops
        .iter()
        .filter(|&&(_, thread, in_emitter)| !in_emitter && thread != me)
        .count();
    assert_eq!(
        foreign, 0,
        "{foreign} of {born} payloads were dropped on a worker outside their emitter's call"
    );
    let by_emitter = drops.iter().filter(|d| d.2).count() as u64;
    assert!(
        by_emitter >= TUPLES / 2,
        "recycled slots are overwritten by the source ({by_emitter} of {born} drops)"
    );
}
