//! Bounded communication queues with back-pressure.
//!
//! Every producer→consumer replica pair owns one queue. A full queue
//! refuses `try_push` — the engine's tasks then yield their worker, and
//! that refusal *is* the back-pressure mechanism that ultimately slows the
//! spout to the system's sustainable rate. Nothing blocks, push or pop;
//! `close` fails subsequent pushes while queued items stay poppable, so
//! shutdown drains every in-flight tuple.
//!
//! Two lock-free rings implement these semantics behind [`ReplicaQueue`].
//! Which one a queue gets is decided at wiring time from its producer
//! count ([`QueueKind::for_producers`]) — it is not a user knob:
//!
//! * [`SpscQueue`] — the default: a cache-conscious ring exploiting the
//!   engine's one-producer / one-consumer wiring (see `crate::spsc` for
//!   the design).
//! * [`MpscQueue`] — the CAS-claimed fan-in ring for queues with more than
//!   one pushing task, so an `SpscQueue` is never shared between producers.

use crate::mpsc::MpscQueue;
use crate::spsc::{PushError, SpscQueue};

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

    /// Push, or hand the item back: `Err(PushError::Full)` when the queue
    /// is at capacity (a task then yields its worker and retries — the
    /// engine's flush path), `Err(PushError::Closed)` after
    /// [`ReplicaQueue::close`]. Never waits.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        match self {
            ReplicaQueue::Spsc(q) => q.try_push(item),
            ReplicaQueue::Mpsc(q) => q.try_push(item),
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

    /// Close the queue: subsequent pushes fail with `PushError::Closed`,
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

    #[test]
    fn replica_queue_dispatches_both_rings() {
        for kind in [QueueKind::Spsc, QueueKind::Mpsc] {
            let q: ReplicaQueue<u32> = ReplicaQueue::new(kind, 4);
            assert_eq!(q.kind(), kind);
            assert_eq!(q.capacity(), 4);
            q.try_push(7).expect("room");
            assert_eq!(q.len(), 1);
            assert!(!q.is_empty());
            assert_eq!(q.try_pop(), Some(7));
            for i in 1..=4 {
                q.try_push(i).expect("room");
            }
            assert!(matches!(q.try_push(5), Err(PushError::Full(5))), "{kind}");
            let mut out = Vec::new();
            assert_eq!(q.pop_n(&mut out, 8), 4);
            assert_eq!(out, [1, 2, 3, 4]);
            q.close();
            assert!(q.is_closed());
            assert!(matches!(q.try_push(9), Err(PushError::Closed(9))), "{kind}");
        }
        assert_eq!(QueueKind::default(), QueueKind::Spsc);
    }

    #[test]
    fn spsc_preference_upgrades_to_mpsc_for_multiple_producers() {
        assert_eq!(QueueKind::Spsc.for_producers(1), QueueKind::Spsc);
        assert_eq!(QueueKind::Spsc.for_producers(4), QueueKind::Mpsc);
        assert_eq!(QueueKind::Mpsc.for_producers(1), QueueKind::Mpsc);
    }
}
