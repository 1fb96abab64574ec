//! Cache-conscious lock-free SPSC ring buffer — the fast queue fabric.
//!
//! The engine wires **exactly one** producer replica to **exactly one**
//! consumer replica per queue (see `Engine::start`), so a general
//! multi-producer queue would pay for synchronization nobody needs. This
//! ring exploits the 1:1 structure:
//!
//! * **Fixed power-of-two ring** of `UnsafeCell<MaybeUninit<T>>` slots;
//!   head/tail are monotonically increasing indices masked into the ring,
//!   so full/empty never need a separate flag.
//! * **Cache-line isolation**: the producer's index pair and the consumer's
//!   index pair live on separate 128-byte-aligned lines, so a push never
//!   invalidates the consumer's line and vice versa.
//! * **Cached counterpart indices** (the rigtorp/LMAX trick): the producer
//!   keeps a *stale copy* of the consumer's head and only re-reads the real
//!   atomic when the ring looks full; the consumer mirrors this with a
//!   cached tail. In steady state each side touches only its own line —
//!   cross-core cache-line bouncing drops to ~one transfer per
//!   `capacity` operations instead of one per operation.
//! * **Batch `pop_n`**: one index publish moves a whole group of jumbo
//!   tuples, amortizing even the single remaining release-store.
//! * **Nothing blocks**: a full ring refuses `try_push` with
//!   [`PushError::Full`] and hands the item back; the engine's tasks yield
//!   their worker and retry, which is the whole back-pressure mechanism.
//!
//! # The SPSC contract
//!
//! At most one thread may push at a time and at most one thread may pop at
//! a time. Either role may migrate to a different thread only through an
//! external happens-before edge (thread spawn/join, channel handoff).
//! Violating this is a data race (undefined behaviour) — the engine's
//! per-pair wiring guarantees it by construction, and
//! [`crate::queue::QueueKind::for_producers`] switches genuinely
//! multi-producer queues to the MPSC ring.
//! Debug builds carry a best-effort tripwire that panics when it observes
//! two threads inside the same role concurrently; release builds pay
//! nothing. `len`, `is_empty`, `close` and `is_closed` are safe from any
//! thread.
//!
//! Close/drain semantics: after `close` every push is refused with
//! [`PushError::Closed`], while items already in the ring remain poppable so
//! shutdown drains every in-flight tuple.
//!
//! The module also holds the spin → yield → park wait ladder ([`Backoff`],
//! [`BackoffProfile`]) the pool's idle workers wait on.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

/// Pad-and-align wrapper keeping a value on its own cache line (128 bytes
/// covers the spatial-prefetcher pair on x86 and big.LITTLE lines on arm).
/// Shared with the MPSC ring ([`crate::mpsc`]), which reuses this padded
/// ring skeleton with CAS-claimed slots.
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// Producer-owned index line: the real tail plus a stale copy of head.
struct ProducerSide {
    /// Next slot to write; published with `Release` after the write.
    tail: AtomicUsize,
    /// Stale copy of the consumer's head, re-read only when the ring
    /// *looks* full. Only the producer thread touches this cell.
    cached_head: UnsafeCell<usize>,
}

/// Consumer-owned index line: the real head plus a stale copy of tail.
struct ConsumerSide {
    /// Next slot to read; published with `Release` after the read.
    head: AtomicUsize,
    /// Stale copy of the producer's tail, re-read only when the ring
    /// *looks* empty. Only the consumer thread touches this cell.
    cached_tail: UnsafeCell<usize>,
}

/// Why a push did not enqueue.
#[derive(Debug)]
pub enum PushError<T> {
    /// The ring is at capacity; the item is handed back for retry.
    Full(T),
    /// The queue is closed; the item is handed back permanently.
    Closed(T),
}

/// A bounded lock-free single-producer single-consumer ring buffer.
///
/// See the [module docs](self) for the design and the SPSC contract.
pub struct SpscQueue<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `ring_size - 1`; ring size is `capacity.next_power_of_two()`.
    mask: usize,
    /// User-visible capacity (back-pressure bound, ≤ ring size).
    capacity: usize,
    producer: CachePadded<ProducerSide>,
    consumer: CachePadded<ConsumerSide>,
    closed: AtomicBool,
    /// Debug-build tripwires catching *concurrent* producers/consumers —
    /// a best-effort detector for SPSC-contract violations, not a proof.
    #[cfg(debug_assertions)]
    push_active: AtomicBool,
    #[cfg(debug_assertions)]
    pop_active: AtomicBool,
}

/// Debug-build guard asserting a role (producer or consumer) is not
/// entered concurrently from two threads.
#[cfg(debug_assertions)]
struct RoleGuard<'a>(&'a AtomicBool);

#[cfg(debug_assertions)]
impl<'a> RoleGuard<'a> {
    fn enter(flag: &'a AtomicBool, role: &str) -> RoleGuard<'a> {
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "concurrent {role}s detected: SpscQueue allows only one {role} at a time \
             (use QueueKind::Mpsc for multi-producer wiring)"
        );
        RoleGuard(flag)
    }
}

#[cfg(debug_assertions)]
impl Drop for RoleGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

// SAFETY: the SPSC contract (module docs) serializes all accesses to the
// slot array and to each side's cached index; the indices themselves are
// atomics. `T: Send` is required because items cross threads.
unsafe impl<T: Send> Send for SpscQueue<T> {}
unsafe impl<T: Send> Sync for SpscQueue<T> {}

impl<T> SpscQueue<T> {
    /// Ring holding at most `capacity` items (back-pressure bound).
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> SpscQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        let ring = capacity.next_power_of_two();
        let slots = (0..ring)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscQueue {
            slots,
            mask: ring - 1,
            capacity,
            producer: CachePadded(ProducerSide {
                tail: AtomicUsize::new(0),
                cached_head: UnsafeCell::new(0),
            }),
            consumer: CachePadded(ConsumerSide {
                head: AtomicUsize::new(0),
                cached_tail: UnsafeCell::new(0),
            }),
            closed: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            push_active: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            pop_active: AtomicBool::new(false),
        }
    }

    /// Capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Free slots as seen by the producer, refreshing the cached head from
    /// the real atomic only when the ring looks full. Producer-side only.
    #[inline]
    fn free_slots(&self, tail: usize) -> usize {
        // SAFETY: producer-side call per the SPSC contract.
        let cached_head = unsafe { &mut *self.producer.0.cached_head.get() };
        let mut free = self.capacity - tail.wrapping_sub(*cached_head);
        if free == 0 {
            *cached_head = self.consumer.0.head.load(Ordering::Acquire);
            free = self.capacity - tail.wrapping_sub(*cached_head);
        }
        free
    }

    /// Push, or hand the item back: [`PushError::Full`] when the ring is at
    /// capacity, [`PushError::Closed`] after [`SpscQueue::close`]. Never
    /// waits. Producer-side only.
    #[inline]
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        #[cfg(debug_assertions)]
        let _role = RoleGuard::enter(&self.push_active, "producer");
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        let tail = self.producer.0.tail.load(Ordering::Relaxed);
        if self.free_slots(tail) == 0 {
            return Err(PushError::Full(item));
        }
        // SAFETY: the slot at `tail` is outside [head, tail), so the
        // consumer will not touch it until the Release store below.
        unsafe { (*self.slots[tail & self.mask].get()).write(item) };
        self.producer
            .0
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Items ready to pop as seen by the consumer, refreshing the cached
    /// tail only when the ring looks empty. Consumer-side only.
    #[inline]
    fn available(&self, head: usize) -> usize {
        // SAFETY: consumer-side call per the SPSC contract.
        let cached_tail = unsafe { &mut *self.consumer.0.cached_tail.get() };
        let mut avail = cached_tail.wrapping_sub(head);
        if avail == 0 {
            *cached_tail = self.producer.0.tail.load(Ordering::Acquire);
            avail = cached_tail.wrapping_sub(head);
        }
        avail
    }

    /// Non-blocking pop. Consumer-side only.
    #[inline]
    pub fn try_pop(&self) -> Option<T> {
        #[cfg(debug_assertions)]
        let _role = RoleGuard::enter(&self.pop_active, "consumer");
        let head = self.consumer.0.head.load(Ordering::Relaxed);
        if self.available(head) == 0 {
            return None;
        }
        // SAFETY: slot at `head` was published by the producer's Release
        // store (observed via the Acquire load in `available`).
        let item = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
        self.consumer
            .0
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Batch pop: moves up to `max` items into `out` with a **single**
    /// head publish. Returns how many were popped. Consumer-side only.
    pub fn pop_n(&self, out: &mut Vec<T>, max: usize) -> usize {
        #[cfg(debug_assertions)]
        let _role = RoleGuard::enter(&self.pop_active, "consumer");
        let head = self.consumer.0.head.load(Ordering::Relaxed);
        let avail = self.available(head);
        if avail == 0 || max == 0 {
            return 0;
        }
        let n = avail.min(max);
        out.reserve(n);
        for i in 0..n {
            // SAFETY: slots [head, head+avail) were published by the
            // producer; we consume a prefix then publish once.
            let item =
                unsafe { (*self.slots[head.wrapping_add(i) & self.mask].get()).assume_init_read() };
            out.push(item);
        }
        self.consumer
            .0
            .head
            .store(head.wrapping_add(n), Ordering::Release);
        n
    }

    /// Number of queued items right now — a lock-free pair of atomic loads.
    /// Exact when the counterpart side is quiescent (the engine's drain
    /// check), approximate while both sides are in flight.
    pub fn len(&self) -> usize {
        let head = self.consumer.0.head.load(Ordering::Acquire);
        let tail = self.producer.0.tail.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.capacity)
    }

    /// Whether the queue is currently empty (lock-free atomic reads).
    pub fn is_empty(&self) -> bool {
        let head = self.consumer.0.head.load(Ordering::Acquire);
        let tail = self.producer.0.tail.load(Ordering::Acquire);
        head == tail
    }

    /// Close the queue: subsequent pushes fail with [`PushError::Closed`].
    /// Items already queued remain poppable (drain-on-shutdown).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`SpscQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for SpscQueue<T> {
    fn drop(&mut self) {
        // Drop any items still in flight. `&mut self` proves exclusivity.
        let head = *self.consumer.0.head.get_mut();
        let tail = *self.producer.0.tail.get_mut();
        let mut i = head;
        while i != tail {
            // SAFETY: every slot in [head, tail) holds an initialized item.
            unsafe { (*self.slots[i & self.mask].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Spin rungs of the dedicated-core ladder: 1, 2, 4, 8 `spin_loop` hints.
const SPIN_STEPS: u32 = 4;
/// Cumulative boundary step of the dedicated-core ladder: steps
/// `SPIN_STEPS..YIELD_STEPS` yield (4 rungs), then the ladder parks.
const YIELD_STEPS: u32 = 8;

/// Shape of the spin → yield → park ladder: how many rungs are spent
/// spinning and yielding before a waiter parks.
///
/// On a machine with a core per worker, spinning briefly is the
/// lowest-latency way to ride out a momentary lull. When the pool runs
/// **oversubscribed** — more workers than hardware cores — every spin burns
/// a timeslice another worker needs to make progress, so the oversubscribed
/// profile skips straight past the spin rungs and parks after a single
/// yield: parked waits donate the CPU instead of fighting for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffProfile {
    /// Rungs spent issuing `spin_loop` hints (1 << step hints per rung).
    pub spin_steps: u32,
    /// Cumulative rung index after which the ladder parks; rungs in
    /// `spin_steps..yield_steps` call `yield_now`.
    pub yield_steps: u32,
    /// Park interval of the deepest rung.
    pub park: Duration,
}

impl BackoffProfile {
    /// The dedicated-core ladder: 4 spin rungs, 4 yield rungs, then park.
    pub fn dedicated(park: Duration) -> BackoffProfile {
        BackoffProfile {
            spin_steps: SPIN_STEPS,
            yield_steps: YIELD_STEPS,
            park,
        }
    }

    /// The oversubscribed ladder: no spinning, one yield, then park — a
    /// waiting thread gets out of the runnable set as fast as possible so
    /// shared timeslices go to whoever has actual work.
    pub fn oversubscribed(park: Duration) -> BackoffProfile {
        BackoffProfile {
            spin_steps: 0,
            yield_steps: 1,
            park,
        }
    }

    /// Pick the profile for running `threads` busy threads on this host:
    /// oversubscribed when they exceed `std::thread::available_parallelism`.
    pub fn detect(threads: usize, park: Duration) -> BackoffProfile {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if threads > cores {
            BackoffProfile::oversubscribed(park)
        } else {
            BackoffProfile::dedicated(park)
        }
    }
}

/// Adaptive spin → yield → park wait ladder.
///
/// What an idle pool worker waits on: short waits burn a few pipeline
/// hints (latency ≈ ns), medium waits donate the timeslice (`yield_now`),
/// and sustained waits park the thread for a bounded interval so an idle
/// system costs ~0 CPU while still observing new work promptly. Call [`Backoff::reset`] after
/// useful work to drop back to the cheap rungs. The rung layout comes from
/// a [`BackoffProfile`]; oversubscribed hosts should use
/// [`BackoffProfile::oversubscribed`] so parked waits dominate.
pub struct Backoff {
    step: u32,
    profile: BackoffProfile,
}

impl Backoff {
    /// Dedicated-core ladder whose park rung sleeps `park` per step.
    pub fn new(park: Duration) -> Backoff {
        Backoff::with_profile(BackoffProfile::dedicated(park))
    }

    /// Ladder with an explicit rung layout.
    pub fn with_profile(profile: BackoffProfile) -> Backoff {
        Backoff { step: 0, profile }
    }

    /// Back to the cheapest rungs (call after making progress).
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Wait one rung and advance the ladder.
    pub fn snooze(&mut self) {
        if self.step < self.profile.spin_steps {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < self.profile.yield_steps {
            std::thread::yield_now();
        } else {
            std::thread::park_timeout(self.profile.park);
        }
        self.step = self.step.saturating_add(1);
    }

    /// Whether the ladder has escalated to the parking rung.
    pub fn is_parking(&self) -> bool {
        self.step > self.profile.yield_steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order() {
        let q = SpscQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("room");
        }
        for i in 0..5 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn capacity_is_respected_even_when_rounded_up() {
        // 6 rounds to an 8-slot ring but back-pressure binds at 6.
        let q = SpscQueue::new(6);
        for i in 0..6 {
            assert!(q.try_push(i).is_ok());
        }
        assert!(matches!(q.try_push(99), Err(PushError::Full(99))));
        assert_eq!(q.len(), 6);
        assert_eq!(q.try_pop(), Some(0));
        assert!(q.try_push(99).is_ok());
    }

    #[test]
    fn close_refuses_pushes_and_preserves_drain() {
        // Full *and* closed: the refusal must say Closed (permanent), not
        // Full (retry), or a producer would poll a dead queue forever.
        let q = SpscQueue::new(1);
        q.try_push(0u8).expect("room");
        q.close();
        assert!(q.is_closed());
        assert!(matches!(q.try_push(1), Err(PushError::Closed(1))));
        // Existing items still drain.
        assert_eq!(q.try_pop(), Some(0));
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn batch_pop_roundtrip() {
        let q = SpscQueue::new(16);
        for i in 0..10 {
            q.try_push(i).expect("room");
        }
        assert_eq!(q.len(), 10);
        let mut out = Vec::new();
        assert_eq!(q.pop_n(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.pop_n(&mut out, 100), 6);
        assert_eq!(out[4..], [4, 5, 6, 7, 8, 9]);
        assert_eq!(q.pop_n(&mut out, 1), 0);
    }

    #[test]
    fn drop_releases_in_flight_items() {
        let q = SpscQueue::new(8);
        let marker = Arc::new(());
        for _ in 0..5 {
            q.try_push(Arc::clone(&marker)).expect("room");
        }
        q.try_pop();
        drop(q);
        assert_eq!(Arc::strong_count(&marker), 1, "all queued clones dropped");
    }

    #[test]
    fn wraparound_many_times() {
        let q = SpscQueue::new(4);
        for round in 0..1000u64 {
            q.try_push(round).expect("room");
            assert_eq!(q.try_pop(), Some(round));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn backoff_ladder_escalates_and_resets() {
        let mut b = Backoff::new(Duration::from_micros(1));
        assert!(!b.is_parking());
        for _ in 0..=YIELD_STEPS {
            b.snooze();
        }
        assert!(b.is_parking());
        b.reset();
        assert!(!b.is_parking());
    }

    #[test]
    fn oversubscribed_profile_parks_almost_immediately() {
        let park = Duration::from_micros(1);
        let mut b = Backoff::with_profile(BackoffProfile::oversubscribed(park));
        // One yield rung, then straight to parking — no spin phase at all.
        b.snooze();
        b.snooze();
        assert!(
            b.is_parking(),
            "second rung of the oversubscribed ladder must park"
        );
        let dedicated = BackoffProfile::dedicated(park);
        assert!(dedicated.spin_steps > 0 && dedicated.yield_steps > dedicated.spin_steps);
        // Detection: a single thread never oversubscribes; more threads
        // than any real host has cores always does.
        assert_eq!(BackoffProfile::detect(1, park), dedicated);
        assert_eq!(
            BackoffProfile::detect(usize::MAX, park),
            BackoffProfile::oversubscribed(park)
        );
    }
}
