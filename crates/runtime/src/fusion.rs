//! Executor-level operator fusion: run a fused-away consumer inline.
//!
//! When a [`brisk_dag::FusionPlan`] collapses a 1:1 collocated
//! producer→consumer edge, the consumer stops being an executor of its own:
//! its operator instance moves *into the producer's task* as a
//! `FusedTarget` attached to the producer's [`Collector`]. An emit on a
//! fused stream then calls the downstream operator's `execute` directly —
//! no jumbo accumulation, no queue push/pop, no poll/back-off loop —
//! while the downstream operator keeps its **own** collector for
//! everything it emits, so chains compose (a fused bolt can itself host
//! further fused targets) and unfused downstream edges keep their normal
//! queue wiring.
//!
//! Accounting stays per logical operator: each target tracks the tuples it
//! consumed inline and (for sinks) its latency histogram; the engine merges
//! these into the [`crate::engine::RunReport`] after the host task retires,
//! exactly as it does for real replicas. A fused operator has one instance
//! **per replica pair** (fusion requires equal replica counts; the
//! single-replica chain is the n = 1 case), each riding host replica `i`'s
//! collector. Shutdown therefore counts instances down through the shared
//! `op_live` counter exactly like real replicas do — only the **last**
//! host replica to exit releases the fused operator's `op_done` latch, so
//! unfused downstream consumers never stop while a sibling pair is still
//! emitting.

use crate::batch::TupleView;
use crate::engine::EngineShared;
use crate::operator::{Collector, DynBolt};
use crate::supervise::{panic_message, FaultKind};
use brisk_metrics::Histogram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Shared, relaxed sink progress counter — only used so
/// `Engine::run_until_events` can poll from the driver thread. The
/// authoritative per-replica metrics ([`SinkLocal`]) are thread-local (or
/// fused-target-local) and merged after join.
pub(crate) struct SinkProgress {
    pub(crate) events: AtomicU64,
}

/// Per-sink metrics owned by one replica task (or one fused sink target)
/// for the whole run and merged into the report after the task retires.
#[derive(Default)]
pub(crate) struct SinkLocal {
    pub(crate) events: u64,
    pub(crate) latency: Histogram,
}

/// Sink bookkeeping of a fused-away sink operator.
pub(crate) struct FusedSinkState {
    pub(crate) local: SinkLocal,
    pub(crate) progress: Arc<SinkProgress>,
    /// Clock value shared by a batch of deliveries: the queued sink path
    /// reads the clock once per jumbo (64 tuples by default) and stamps
    /// the whole batch with it; refreshing every [`CLOCK_BATCH`] inline
    /// deliveries keeps the fused path's latency resolution — and its
    /// per-tuple cost — equivalent instead of paying one `Instant::now`
    /// per tuple on the hottest path. A tuple stamped *after* the cached
    /// read (a fully fused spout→sink chain stamps and delivers in one
    /// call) forces a refresh, so its latency never clamps to zero.
    cached_now_ns: u64,
    until_refresh: u32,
}

/// Deliveries per clock refresh on the fused sink path; mirrors the
/// default jumbo size the queued path amortizes its clock read over.
const CLOCK_BATCH: u32 = 64;

impl FusedSinkState {
    pub(crate) fn new(progress: Arc<SinkProgress>) -> FusedSinkState {
        FusedSinkState {
            local: SinkLocal::default(),
            progress,
            cached_now_ns: 0,
            until_refresh: 0,
        }
    }
}

/// A fused-away consumer operator, hosted inline by a producer's
/// [`Collector`].
pub(crate) struct FusedTarget {
    /// Logical operator index of the fused-away consumer.
    pub(crate) op_index: usize,
    /// Stream names of the fused producer→consumer edges — one entry per
    /// fused logical edge, so parallel edges on the same stream deliver
    /// once per edge, mirroring queue wiring.
    pub(crate) streams: Vec<String>,
    /// The consumer's operator instance, executed inline.
    pub(crate) bolt: Box<dyn DynBolt>,
    /// The consumer's own output stage (recurses into further fused
    /// targets down the chain).
    pub(crate) collector: Collector,
    /// Input-side tuples consumed inline (merged into
    /// `RunReport::processed`).
    pub(crate) processed: u64,
    /// Present when the fused consumer is a sink.
    pub(crate) sink: Option<FusedSinkState>,
    /// Replica index of the fused operator instance.
    pub(crate) replica: usize,
    /// Shared run state: fault records and quarantine counters.
    pub(crate) shared: Arc<EngineShared>,
    /// Logical operator index of the chain host (fault attribution names
    /// the fused op, with the host recorded alongside).
    pub(crate) host_op: usize,
    /// The operator panicked and declined to continue: deliveries
    /// dead-letter (quarantine) and the host winds down via its
    /// `output_closed` check.
    pub(crate) dead: bool,
}

impl FusedTarget {
    /// Consume one tuple inline: run the operator under a panic guard and
    /// record sink metrics (if terminal). The tuple arrives as a borrowed
    /// [`TupleView`] straight off the producer's stack — fusion's whole
    /// point is that nothing crosses a queue (or touches a slab) here.
    ///
    /// A contained panic quarantines the tuple and attributes a
    /// [`FaultKind::FusedPanic`] to the *fused* operator, not the host.
    /// The operator's `recover()` then decides: continue with the same
    /// instance, or die and dead-letter every later delivery.
    pub(crate) fn deliver(&mut self, tuple: &TupleView<'_>) {
        if self.dead {
            // Dead-letter accounting keeps conservation exact: every tuple
            // the producer emitted is either processed or quarantined.
            self.shared.quarantined[self.op_index].fetch_add(1, Ordering::Relaxed);
            return;
        }
        let bolt = &mut self.bolt;
        let collector = &mut self.collector;
        match catch_unwind(AssertUnwindSafe(|| bolt.execute(tuple, collector))) {
            Ok(()) => {
                self.processed += 1;
                // Per-replica rate signal for the elastic controller: an
                // inline delivery counts against the fused operator's own
                // replica, exactly like a queued pop would.
                self.shared.replica_tuples[self.shared.replica_base[self.op_index] + self.replica]
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(sink) = &mut self.sink {
                    if sink.until_refresh == 0 || sink.cached_now_ns < tuple.event_ns {
                        sink.cached_now_ns = self.collector.now_ns();
                        sink.until_refresh = CLOCK_BATCH;
                    }
                    sink.until_refresh -= 1;
                    sink.local
                        .latency
                        .record(sink.cached_now_ns.saturating_sub(tuple.event_ns) as f64);
                    sink.local.events += 1;
                    // Relaxed aggregate so `run_until_events` can poll.
                    sink.progress.events.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(payload) => {
                self.shared.quarantined[self.op_index].fetch_add(1, Ordering::Relaxed);
                let continued = self.bolt.recover();
                self.shared.record_fault(
                    self.op_index,
                    self.replica,
                    FaultKind::FusedPanic {
                        host_op: self.host_op,
                    },
                    panic_message(payload.as_ref()),
                    continued,
                );
                self.dead = !continued;
            }
        }
    }

    /// Shutdown `finish` for the fused operator, panic-guarded so a faulty
    /// finalizer is recorded instead of unwinding through the host's
    /// teardown. Skipped for a dead instance. During a migration pause the
    /// instance hands its state out via `extract_state` instead — same
    /// contract as a real replica's drain.
    pub(crate) fn finish(&mut self) {
        if self.dead {
            return;
        }
        let bolt = &mut self.bolt;
        if self.shared.harvesting() {
            match catch_unwind(AssertUnwindSafe(|| bolt.extract_state())) {
                Ok(entries) => self
                    .shared
                    .harvest_state(self.op_index, self.replica, entries),
                Err(payload) => self.shared.record_fault(
                    self.op_index,
                    self.replica,
                    FaultKind::FusedPanic {
                        host_op: self.host_op,
                    },
                    panic_message(payload.as_ref()),
                    false,
                ),
            }
            return;
        }
        let collector = &mut self.collector;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| bolt.finish(collector))) {
            self.shared.record_fault(
                self.op_index,
                self.replica,
                FaultKind::FusedPanic {
                    host_op: self.host_op,
                },
                panic_message(payload.as_ref()),
                false,
            );
        }
    }
}
