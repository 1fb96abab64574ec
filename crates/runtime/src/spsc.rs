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
//! * **Batch `push_n`/`pop_n`**: one index publish moves a whole group of
//!   jumbo tuples, amortizing even the single remaining release-store.
//! * **Hybrid wait strategy** ([`Backoff`]): a blocked producer walks a
//!   spin → yield → park ladder instead of taking a condvar, preserving
//!   blocking back-pressure without a lock on the hot path.
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
//! Close/drain semantics: `close` fails subsequent pushes and unblocks
//! waiting producers (they observe the flag within one park interval),
//! while items already in the ring remain poppable so shutdown drains every
//! in-flight tuple.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

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

/// Why a non-blocking push did not enqueue.
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
    /// Wait-ladder shape for blocking-push waits.
    profile: BackoffProfile,
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
    /// Ring holding at most `capacity` items (back-pressure bound), with
    /// the default blocking-push park interval.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> SpscQueue<T> {
        SpscQueue::with_park(capacity, DEFAULT_PARK)
    }

    /// Ring with an explicit park interval for blocking-push waits — the
    /// engine passes its `poll_backoff` here so producer wake latency
    /// under back-pressure is tunable alongside consumer idle latency.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_park(capacity: usize, park: Duration) -> SpscQueue<T> {
        SpscQueue::with_profile(capacity, BackoffProfile::dedicated(park))
    }

    /// Ring with an explicit wait-ladder shape ([`BackoffProfile`]) for
    /// blocking-push waits — the engine passes its oversubscription-aware
    /// profile here so blocked producers park promptly when replica
    /// threads outnumber cores.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_profile(capacity: usize, profile: BackoffProfile) -> SpscQueue<T> {
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
            profile,
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

    /// Non-blocking push. Producer-side only.
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

    /// Blocking push: walks the spin → yield → park ladder while the ring
    /// is full (back-pressure). Returns `Err(item)` if the queue is closed.
    /// Producer-side only.
    pub fn push(&self, item: T) -> Result<(), T> {
        self.push_tracked(item).map(|_| ())
    }

    /// Blocking push that additionally reports whether it found the ring
    /// full and had to wait (`Ok(true)`) — the engine's queue-pressure
    /// signal, measured inside the push path so the uncontended fast path
    /// costs nothing extra. Producer-side only.
    pub fn push_tracked(&self, item: T) -> Result<bool, T> {
        let mut item = match self.try_push(item) {
            Ok(()) => return Ok(false),
            Err(PushError::Closed(i)) => return Err(i),
            Err(PushError::Full(i)) => i,
        };
        let mut backoff = Backoff::with_profile(self.profile);
        loop {
            backoff.snooze();
            match self.try_push(item) {
                Ok(()) => return Ok(true),
                Err(PushError::Closed(i)) => return Err(i),
                Err(PushError::Full(i)) => item = i,
            }
        }
    }

    /// Push with a deadline. `Err(item)` on close *or* timeout. The
    /// deadline is computed **before** any waiting, so time spent blocked
    /// on a full ring counts against the caller's budget.
    /// Producer-side only.
    pub fn push_timeout(&self, item: T, timeout: Duration) -> Result<(), T> {
        let deadline = Instant::now() + timeout;
        let mut item = item;
        let mut backoff = Backoff::with_profile(self.profile);
        loop {
            match self.try_push(item) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(i)) => return Err(i),
                Err(PushError::Full(i)) => {
                    if Instant::now() >= deadline {
                        return Err(i);
                    }
                    item = i;
                    backoff.snooze();
                }
            }
        }
    }

    /// Blocking batch push: enqueues every item, publishing the tail **once
    /// per free run** rather than once per item, so a whole jumbo group
    /// costs a single release store. `Err(remaining)` if the queue closes
    /// mid-batch. Producer-side only.
    pub fn push_n(&self, items: Vec<T>) -> Result<(), Vec<T>> {
        #[cfg(debug_assertions)]
        let _role = RoleGuard::enter(&self.push_active, "producer");
        let mut iter = items.into_iter();
        if iter.len() == 0 {
            return Ok(());
        }
        let mut backoff = Backoff::with_profile(self.profile);
        loop {
            if self.closed.load(Ordering::Acquire) {
                return Err(iter.collect());
            }
            let tail = self.producer.0.tail.load(Ordering::Relaxed);
            let free = self.free_slots(tail);
            if free == 0 {
                backoff.snooze();
                continue;
            }
            let mut wrote = 0usize;
            while wrote < free {
                match iter.next() {
                    // SAFETY: slots [tail, tail+free) are unowned by the
                    // consumer until the single Release store below.
                    Some(x) => unsafe {
                        (*self.slots[tail.wrapping_add(wrote) & self.mask].get()).write(x);
                        wrote += 1;
                    },
                    None => break,
                }
            }
            self.producer
                .0
                .tail
                .store(tail.wrapping_add(wrote), Ordering::Release);
            if iter.len() == 0 {
                return Ok(());
            }
            backoff.reset();
        }
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

    /// Close the queue: subsequent pushes fail; producers blocked in the
    /// park rung observe the flag within one park interval. Items already
    /// queued remain poppable (drain-on-shutdown).
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

/// Default park interval for waits internal to the queue (blocking push).
/// Matches the engine's default `poll_backoff` so close-latency stays in
/// the same ballpark as the old condvar wake.
const DEFAULT_PARK: Duration = Duration::from_micros(100);

/// Spin rungs of the dedicated-core ladder: 1, 2, 4, 8 `spin_loop` hints.
const SPIN_STEPS: u32 = 4;
/// Cumulative boundary step of the dedicated-core ladder: steps
/// `SPIN_STEPS..YIELD_STEPS` yield (4 rungs), then the ladder parks.
const YIELD_STEPS: u32 = 8;

/// Shape of the spin → yield → park ladder: how many rungs are spent
/// spinning and yielding before a waiter parks.
///
/// On a machine with a core per replica, spinning briefly is the
/// lowest-latency way to ride out a momentary stall. When the engine runs
/// **oversubscribed** — more replica threads than hardware cores (the
/// documented 1-vCPU fabric inversion in the ROADMAP) — every spin burns a
/// timeslice the *counterpart* thread needs to make progress, so the
/// oversubscribed profile skips straight past the spin rungs and parks
/// after a single yield: parked waits donate the CPU instead of fighting
/// for it.
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
/// Shared by the queue fabrics' blocking pushes and the engine's idle
/// executors: short waits burn a few pipeline hints (latency ≈ ns), medium
/// waits donate the timeslice (`yield_now`), and sustained waits park the
/// thread for a bounded interval so an idle system costs ~0 CPU while still
/// observing `close`/new-work promptly. Call [`Backoff::reset`] after
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
            q.push(i).expect("open");
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
    fn push_blocks_until_pop() {
        let q = Arc::new(SpscQueue::new(1));
        q.push(0u32).expect("open");
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || {
            let t0 = Instant::now();
            q2.push(1).expect("open");
            t0.elapsed()
        });
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(q.try_pop(), Some(0));
        let blocked_for = handle.join().expect("no panic");
        assert!(
            blocked_for >= Duration::from_millis(30),
            "producer should have blocked, waited only {blocked_for:?}"
        );
        assert_eq!(q.try_pop(), Some(1));
    }

    #[test]
    fn push_timeout_expires() {
        let q = SpscQueue::new(1);
        q.push(1u8).expect("open");
        let t0 = Instant::now();
        assert!(q.push_timeout(2, Duration::from_millis(20)).is_err());
        assert!(t0.elapsed() >= Duration::from_millis(19));
    }

    #[test]
    fn close_wakes_blocked_producer_and_preserves_drain() {
        let q = Arc::new(SpscQueue::new(1));
        q.push(0u8).expect("open");
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.push(1));
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        assert!(handle.join().expect("no panic").is_err());
        // Existing items still drain.
        assert_eq!(q.try_pop(), Some(0));
        assert!(q.push(2).is_err());
    }

    #[test]
    fn batch_ops_roundtrip() {
        let q = SpscQueue::new(16);
        q.push_n((0..10).collect()).expect("open");
        assert_eq!(q.len(), 10);
        let mut out = Vec::new();
        assert_eq!(q.pop_n(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.pop_n(&mut out, 100), 6);
        assert_eq!(out[4..], [4, 5, 6, 7, 8, 9]);
        assert_eq!(q.pop_n(&mut out, 1), 0);
    }

    #[test]
    fn push_n_larger_than_capacity_blocks_through() {
        // Batch bigger than the ring: producer publishes in free runs while
        // a consumer drains concurrently.
        let q = Arc::new(SpscQueue::new(4));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || q2.push_n((0..64u32).collect()));
        let mut got = Vec::new();
        while got.len() < 64 {
            if q.pop_n(&mut got, 8) == 0 {
                std::thread::yield_now();
            }
        }
        assert!(producer.join().expect("no panic").is_ok());
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn drop_releases_in_flight_items() {
        let q = SpscQueue::new(8);
        let marker = Arc::new(());
        for _ in 0..5 {
            q.push(Arc::clone(&marker)).expect("open");
        }
        q.try_pop();
        drop(q);
        assert_eq!(Arc::strong_count(&marker), 1, "all queued clones dropped");
    }

    #[test]
    fn wraparound_many_times() {
        let q = SpscQueue::new(4);
        for round in 0..1000u64 {
            q.push(round).expect("open");
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
