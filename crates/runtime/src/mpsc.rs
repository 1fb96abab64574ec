//! Lock-free multi-producer single-consumer ring — the fan-in fabric.
//!
//! Operator fusion (and, later, work-stealing) makes several producer
//! *threads* feed one consumer queue — the one wiring shape the SPSC ring's
//! contract forbids. This ring reuses the SPSC fabric's padded power-of-two
//! skeleton but lets any number of threads push:
//!
//! * **CAS-claimed slots**: producers claim a monotonically increasing
//!   *ticket* with a compare-and-swap on the shared tail, then write their
//!   slot privately. Contention is a single CAS retry loop — no lock, no
//!   condvar.
//! * **Per-slot sequence numbers** (Vyukov-style): each slot carries an
//!   atomic sequence the writer bumps to `ticket + 1` after the payload
//!   write, so the consumer observes slots strictly in ticket order and a
//!   slot is never read half-written. On wrap, the consumer re-arms the
//!   slot at `ticket + ring`, handing it back to the producer side.
//! * **Cache-line isolation**: the shared tail and the consumer's head
//!   live on separate 128-byte lines (`CachePadded`, shared with
//!   `spsc.rs`), so consumer progress does not invalidate the producers'
//!   CAS line and vice versa.
//!
//! Ordering guarantees: globally, items pop in ticket order (the order
//! producers won their CAS); per producer, pushes pop in that producer's
//! program order (FIFO per producer). Capacity is an exact back-pressure
//! bound: a full ring refuses `try_push` with [`PushError::Full`], as the
//! SPSC ring does, and nothing ever waits.
//!
//! Close/drain semantics match the SPSC ring's: after `close` every push is
//! refused with [`PushError::Closed`]; items already in the ring remain
//! poppable so shutdown drains every in-flight tuple.
//!
//! The single-consumer half of the contract still holds: at most one
//! thread may pop at a time (debug builds carry the same best-effort
//! tripwire as the SPSC ring). `len`, `is_empty`, `close` and `is_closed`
//! are safe from any thread.

use crate::spsc::{CachePadded, PushError};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One ring slot: the Vyukov sequence plus the payload cell.
struct Slot<T> {
    /// `ticket` while free for the producer that claims `ticket`;
    /// `ticket + 1` once written; `ticket + ring` after consumption
    /// (= free for the producer that claims `ticket + ring`).
    seq: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded lock-free multi-producer single-consumer ring buffer.
///
/// See the [module docs](self) for the design and contract.
pub struct MpscQueue<T> {
    slots: Box<[Slot<T>]>,
    /// `ring_size - 1`; ring size is `capacity.next_power_of_two()`.
    mask: usize,
    /// User-visible capacity (exact back-pressure bound, ≤ ring size).
    capacity: usize,
    /// Next ticket to claim; CAS-incremented by producers.
    tail: CachePadded<AtomicUsize>,
    /// Next ticket to pop; written only by the consumer.
    head: CachePadded<AtomicUsize>,
    closed: AtomicBool,
    /// Debug-build tripwire catching concurrent consumers (producers are
    /// allowed to be concurrent here — that is the point of the fabric).
    #[cfg(debug_assertions)]
    pop_active: AtomicBool,
}

// SAFETY: slot ownership is handed between threads through the per-slot
// sequence protocol (Acquire/Release pairs on `seq`); the indices are
// atomics. `T: Send` is required because items cross threads.
unsafe impl<T: Send> Send for MpscQueue<T> {}
unsafe impl<T: Send> Sync for MpscQueue<T> {}

impl<T> MpscQueue<T> {
    /// Ring holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> MpscQueue<T> {
        assert!(capacity > 0, "queue capacity must be positive");
        let ring = capacity.next_power_of_two();
        let slots = (0..ring)
            .map(|i| Slot {
                seq: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        MpscQueue {
            slots,
            mask: ring - 1,
            capacity,
            tail: CachePadded(AtomicUsize::new(0)),
            head: CachePadded(AtomicUsize::new(0)),
            closed: AtomicBool::new(false),
            #[cfg(debug_assertions)]
            pop_active: AtomicBool::new(false),
        }
    }

    /// Capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Push, or hand the item back: [`PushError::Full`] when the ring is at
    /// capacity, [`PushError::Closed`] after [`MpscQueue::close`]. Never
    /// waits. Safe from any number of threads concurrently.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        if self.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(item));
        }
        let tail = loop {
            // Exact capacity bound: head only grows, so a ticket admitted
            // here stays within `capacity` outstanding items. Load order
            // matters: reading head (Acquire) *before* tail guarantees
            // `head ≤ tail` for the snapshots — a stale tail read before a
            // fresh head could make the subtraction underflow and report a
            // drained ring as Full. Reading head before the CAS keeps the
            // check conservative.
            let head = self.head.0.load(Ordering::Acquire);
            let tail = self.tail.0.load(Ordering::Relaxed);
            if tail.wrapping_sub(head) >= self.capacity {
                return Err(PushError::Full(item));
            }
            match self.tail.0.compare_exchange_weak(
                tail,
                tail.wrapping_add(1),
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break tail,
                Err(_) => continue,
            }
        };
        let slot = &self.slots[tail & self.mask];
        // The capacity check plus the consumer's seq-before-head publishing
        // order guarantee the slot is already re-armed for this ticket.
        debug_assert_eq!(slot.seq.load(Ordering::Acquire), tail);
        // SAFETY: the CAS above made this thread the unique owner of
        // ticket `tail`; the consumer will not read the slot until the
        // Release store below.
        unsafe { (*slot.value.get()).write(item) };
        slot.seq.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Non-blocking pop. Consumer-side only.
    pub fn try_pop(&self) -> Option<T> {
        #[cfg(debug_assertions)]
        let _role = RoleGuard::enter(&self.pop_active);
        let head = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[head & self.mask];
        if slot.seq.load(Ordering::Acquire) != head.wrapping_add(1) {
            return None; // ticket `head` not yet published
        }
        // SAFETY: the writer of ticket `head` published the payload with
        // the Release store observed above.
        let item = unsafe { (*slot.value.get()).assume_init_read() };
        // Re-arm the slot for the producer that will claim ticket
        // `head + ring`, *before* publishing the new head — a producer that
        // observes the new head must find the slot already re-armed.
        slot.seq
            .store(head.wrapping_add(self.mask + 1), Ordering::Release);
        self.head.0.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Batch pop: moves up to `max` contiguous published items into `out`
    /// with a single head publish. Returns how many were popped.
    /// Consumer-side only.
    pub fn pop_n(&self, out: &mut Vec<T>, max: usize) -> usize {
        #[cfg(debug_assertions)]
        let _role = RoleGuard::enter(&self.pop_active);
        let head = self.head.0.load(Ordering::Relaxed);
        let mut n = 0usize;
        while n < max {
            let ticket = head.wrapping_add(n);
            let slot = &self.slots[ticket & self.mask];
            if slot.seq.load(Ordering::Acquire) != ticket.wrapping_add(1) {
                break;
            }
            // SAFETY: ticket published by its writer (Acquire pairs with
            // the writer's Release store on `seq`).
            out.push(unsafe { (*slot.value.get()).assume_init_read() });
            slot.seq
                .store(ticket.wrapping_add(self.mask + 1), Ordering::Release);
            n += 1;
        }
        if n > 0 {
            self.head.0.store(head.wrapping_add(n), Ordering::Release);
        }
        n
    }

    /// Number of queued (claimed) items right now — approximate while
    /// producers are in flight, exact when they are quiescent (the
    /// engine's drain check).
    pub fn len(&self) -> usize {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        tail.wrapping_sub(head).min(self.capacity)
    }

    /// Whether the queue is currently empty (no claimed tickets).
    pub fn is_empty(&self) -> bool {
        let head = self.head.0.load(Ordering::Acquire);
        let tail = self.tail.0.load(Ordering::Acquire);
        head == tail
    }

    /// Close the queue: subsequent pushes fail with [`PushError::Closed`].
    /// Queued items remain poppable (drain-on-shutdown).
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Whether [`MpscQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }
}

impl<T> Drop for MpscQueue<T> {
    fn drop(&mut self) {
        // Drop published items still in flight. `&mut self` proves
        // exclusivity; unpublished (claimed-but-unwritten) tickets cannot
        // exist here because every producer borrow has ended.
        let head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        let mut i = head;
        while i != tail {
            // SAFETY: slots in [head, tail) hold initialized items.
            unsafe { (*self.slots[i & self.mask].value.get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// Debug-build guard asserting the single-consumer half of the contract.
#[cfg(debug_assertions)]
struct RoleGuard<'a>(&'a AtomicBool);

#[cfg(debug_assertions)]
impl<'a> RoleGuard<'a> {
    fn enter(flag: &'a AtomicBool) -> RoleGuard<'a> {
        assert!(
            !flag.swap(true, Ordering::Acquire),
            "concurrent consumers detected: MpscQueue allows only one consumer at a time"
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_producer() {
        let q = MpscQueue::new(8);
        for i in 0..5 {
            q.try_push(i).expect("room");
        }
        for i in 0..5 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn capacity_is_exact_even_when_rounded_up() {
        // 6 rounds to an 8-slot ring but back-pressure binds at 6.
        let q = MpscQueue::new(6);
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
        let q = MpscQueue::new(1);
        q.try_push(0u8).expect("room");
        q.close();
        assert!(q.is_closed());
        assert!(matches!(q.try_push(1), Err(PushError::Closed(1))));
        assert_eq!(q.try_pop(), Some(0));
        assert!(matches!(q.try_push(2), Err(PushError::Closed(2))));
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn batch_pop_roundtrip() {
        let q = MpscQueue::new(16);
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
        assert!(q.is_empty());
    }

    #[test]
    fn wraparound_many_times() {
        let q = MpscQueue::new(4);
        for round in 0..1000u64 {
            q.try_push(round).expect("room");
            assert_eq!(q.try_pop(), Some(round));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn drop_releases_in_flight_items() {
        let q = MpscQueue::new(8);
        let marker = Arc::new(());
        for _ in 0..5 {
            q.try_push(Arc::clone(&marker)).expect("room");
        }
        q.try_pop();
        drop(q);
        assert_eq!(Arc::strong_count(&marker), 1, "all queued clones dropped");
    }

    #[test]
    fn four_producers_exactly_once_and_fifo_per_producer() {
        let q = Arc::new(MpscQueue::new(16));
        let producers = 4usize;
        let per_producer = 5_000u32;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    // Full: yield and retry, as a back-pressured task does.
                    let mut item = (p, i);
                    while let Err(PushError::Full(back)) = q.try_push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let mut seen = vec![Vec::new(); producers];
        let expect = producers as u32 * per_producer;
        let mut got = Vec::new();
        let mut count = 0;
        while count < expect {
            let n = q.pop_n(&mut got, 8);
            if n == 0 {
                std::thread::yield_now();
                continue;
            }
            for (p, i) in got.drain(..) {
                seen[p].push(i);
                count += 1;
            }
        }
        for h in handles {
            h.join().expect("no panic");
        }
        assert!(q.is_empty());
        // Exactly once + FIFO per producer: each producer's stream arrives
        // complete and in order.
        for s in seen {
            let expect: Vec<u32> = (0..per_producer).collect();
            assert_eq!(s, expect);
        }
    }
}
