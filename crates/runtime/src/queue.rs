//! Bounded communication queues with back-pressure.
//!
//! Every producer→consumer replica pair owns one queue. A full queue
//! refuses `try_push` — the engine's tasks then yield their worker, and
//! that refusal *is* the back-pressure mechanism that ultimately slows the
//! spout to the system's sustainable rate (the blocking `push*` family
//! waits instead, for callers with a thread to spare). `pop` never blocks;
//! `close` fails subsequent pushes and wakes blocked producers while
//! queued items stay poppable, so shutdown drains every in-flight tuple.
//!
//! Two lock-free rings implement these semantics behind [`ReplicaQueue`].
//! Which one a queue gets is decided at wiring time from its producer
//! count ([`QueueKind::for_producers`]) — it is not a user knob:
//!
//! * [`SpscQueue`](crate::spsc::SpscQueue) — the default: a
//!   cache-conscious ring exploiting the engine's one-producer /
//!   one-consumer wiring (see `crate::spsc` for the design).
//! * [`MpscQueue`](crate::mpsc::MpscQueue) — the CAS-claimed fan-in ring
//!   for queues with more than one pushing task, so an `SpscQueue` is
//!   never shared between producers.

use crate::mpsc::MpscQueue;
use crate::spsc::{PushError, SpscQueue};
use std::time::Duration;

/// Which ring implements a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// The lock-free cache-conscious [`SpscQueue`] — the default fabric,
    /// exact for the engine's one-queue-per-replica-pair wiring.
    #[default]
    Spsc,
    /// The lock-free CAS-claimed [`MpscQueue`] — the fan-in fabric the
    /// engine selects automatically for queues with more than one
    /// producing thread (e.g. several replicas funnelling into one
    /// consumer over a `Global` edge once fusion rewires the graph).
    Mpsc,
}

impl QueueKind {
    /// The fabric actually wired for a queue with `producers` pushing
    /// tasks: a multi-producer queue can never be an [`SpscQueue`], so
    /// the SPSC preference upgrades to the MPSC ring.
    pub fn for_producers(self, producers: usize) -> QueueKind {
        match self {
            QueueKind::Spsc if producers > 1 => QueueKind::Mpsc,
            kind => kind,
        }
    }
}

impl std::fmt::Display for QueueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueKind::Spsc => write!(f, "spsc"),
            QueueKind::Mpsc => write!(f, "mpsc"),
        }
    }
}

/// A replica-pair queue of either ring, dispatching each operation to the
/// selected implementation. Both rings share identical back-pressure and
/// close/drain semantics.
// The variants differ in size because the ring pads its index pairs to
// whole cache lines; the engine holds every queue behind an `Arc`, and
// boxing the ring would put a second pointer hop on every push/pop.
#[allow(clippy::large_enum_variant)]
pub enum ReplicaQueue<T> {
    /// Lock-free SPSC ring fabric.
    Spsc(SpscQueue<T>),
    /// Lock-free CAS-claimed MPSC ring fabric.
    Mpsc(MpscQueue<T>),
}

impl<T> ReplicaQueue<T> {
    /// Queue of the given fabric holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(kind: QueueKind, capacity: usize) -> ReplicaQueue<T> {
        match kind {
            QueueKind::Spsc => ReplicaQueue::Spsc(SpscQueue::new(capacity)),
            QueueKind::Mpsc => ReplicaQueue::Mpsc(MpscQueue::new(capacity)),
        }
    }

    /// Which fabric this queue uses.
    pub fn kind(&self) -> QueueKind {
        match self {
            ReplicaQueue::Spsc(_) => QueueKind::Spsc,
            ReplicaQueue::Mpsc(_) => QueueKind::Mpsc,
        }
    }

    /// Capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        match self {
            ReplicaQueue::Spsc(q) => q.capacity(),
            ReplicaQueue::Mpsc(q) => q.capacity(),
        }
    }

    /// Blocking push (back-pressure). `Err(item)` if closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        match self {
            ReplicaQueue::Spsc(q) => q.push(item),
            ReplicaQueue::Mpsc(q) => q.push(item),
        }
    }

    /// Blocking push that reports whether it stalled on a full queue
    /// (`Ok(true)`). `Err(item)` if closed.
    pub fn push_tracked(&self, item: T) -> Result<bool, T> {
        match self {
            ReplicaQueue::Spsc(q) => q.push_tracked(item),
            ReplicaQueue::Mpsc(q) => q.push_tracked(item),
        }
    }

    /// Non-blocking push: `Err(PushError::Full)` hands the item back when
    /// the queue is at capacity instead of waiting (the engine's flush
    /// path — a task yields its worker on back-pressure rather than
    /// blocking it).
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        match self {
            ReplicaQueue::Spsc(q) => q.try_push(item),
            ReplicaQueue::Mpsc(q) => q.try_push(item),
        }
    }

    /// Push with a deadline computed before any waiting. `Err(item)` on
    /// close or timeout.
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<(), T> {
        match self {
            ReplicaQueue::Spsc(q) => q.push_timeout(item, timeout),
            ReplicaQueue::Mpsc(q) => q.push_timeout(item, timeout),
        }
    }

    /// Blocking batch push. `Err(remaining)` if the queue closes mid-batch.
    pub fn push_n(&self, items: Vec<T>) -> Result<(), Vec<T>> {
        match self {
            ReplicaQueue::Spsc(q) => q.push_n(items),
            ReplicaQueue::Mpsc(q) => q.push_n(items),
        }
    }

    /// Non-blocking pop.
    pub fn try_pop(&self) -> Option<T> {
        match self {
            ReplicaQueue::Spsc(q) => q.try_pop(),
            ReplicaQueue::Mpsc(q) => q.try_pop(),
        }
    }

    /// Batch pop of up to `max` items into `out`; returns how many.
    pub fn pop_n(&self, out: &mut Vec<T>, max: usize) -> usize {
        match self {
            ReplicaQueue::Spsc(q) => q.pop_n(out, max),
            ReplicaQueue::Mpsc(q) => q.pop_n(out, max),
        }
    }

    /// Number of queued items right now.
    pub fn len(&self) -> usize {
        match self {
            ReplicaQueue::Spsc(q) => q.len(),
            ReplicaQueue::Mpsc(q) => q.len(),
        }
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        match self {
            ReplicaQueue::Spsc(q) => q.is_empty(),
            ReplicaQueue::Mpsc(q) => q.is_empty(),
        }
    }

    /// Close the queue: subsequent pushes fail, blocked producers wake,
    /// queued items remain poppable (drain-on-shutdown).
    pub fn close(&self) {
        match self {
            ReplicaQueue::Spsc(q) => q.close(),
            ReplicaQueue::Mpsc(q) => q.close(),
        }
    }

    /// Whether [`ReplicaQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        match self {
            ReplicaQueue::Spsc(q) => q.is_closed(),
            ReplicaQueue::Mpsc(q) => q.is_closed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn replica_queue_dispatches_both_rings() {
        for kind in [QueueKind::Spsc, QueueKind::Mpsc] {
            let q: ReplicaQueue<u32> = ReplicaQueue::new(kind, 4);
            assert_eq!(q.kind(), kind);
            assert_eq!(q.capacity(), 4);
            q.push(7).expect("open");
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            assert_eq!(q.try_pop(), Some(7));
            q.push_n(vec![1, 2, 3]).expect("open");
            let mut out = Vec::new();
            assert_eq!(q.pop_n(&mut out, 8), 3);
            q.close();
            assert!(q.is_closed());
            assert!(q.push(9).is_err());
        }
        assert_eq!(QueueKind::default(), QueueKind::Spsc);
    }

    #[test]
    fn spsc_preference_upgrades_to_mpsc_for_multiple_producers() {
        assert_eq!(QueueKind::Spsc.for_producers(1), QueueKind::Spsc);
        assert_eq!(QueueKind::Spsc.for_producers(4), QueueKind::Mpsc);
        assert_eq!(QueueKind::Mpsc.for_producers(1), QueueKind::Mpsc);
    }

    #[test]
    fn push_tracked_reports_stalls_on_both_rings() {
        for kind in [QueueKind::Spsc, QueueKind::Mpsc] {
            let q: Arc<ReplicaQueue<u32>> = Arc::new(ReplicaQueue::new(kind, 1));
            // Uncontended push: no stall.
            assert!(!q.push_tracked(1).expect("open"), "{kind}");
            // Queue full: the push must block until the consumer drains,
            // and report that it stalled.
            let q2 = Arc::clone(&q);
            let handle = std::thread::spawn(move || q2.push_tracked(2));
            std::thread::sleep(Duration::from_millis(30));
            assert_eq!(q.try_pop(), Some(1));
            assert!(
                handle.join().expect("no panic").expect("open"),
                "{kind}: full-queue push should report a stall"
            );
            assert_eq!(q.try_pop(), Some(2));
        }
    }
}
