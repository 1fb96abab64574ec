//! Property + stress tests for the queue fabrics.
//!
//! Both [`QueueKind`]s must agree on the contract the engine depends on:
//! FIFO order, a hard capacity bound (a full ring refuses with `Full`), and
//! close/drain semantics (a closed ring refuses with `Closed`, queued items
//! still pop). The properties replay randomized push/pop interleavings
//! against a `VecDeque` model; the stress tests move 100k tuples across
//! real producer/consumer threads under each fabric, and the MPSC ring
//! additionally proves exactly-once + FIFO-per-producer under genuine
//! multi-producer contention.

use brisk_runtime::{MpscQueue, PushError, QueueKind, ReplicaQueue};
use proptest::prelude::*;
use std::sync::Arc;

const KINDS: [QueueKind; 2] = [QueueKind::Spsc, QueueKind::Mpsc];

/// Push the way a back-pressured engine task does (`Collector::flush_one`):
/// a full ring hands the item back, the producer yields and retries.
fn push_yielding<T>(try_push: impl Fn(T) -> Result<(), PushError<T>>, mut item: T) {
    loop {
        match try_push(item) {
            Ok(()) => return,
            Err(PushError::Full(back)) => {
                item = back;
                std::thread::yield_now();
            }
            Err(PushError::Closed(_)) => panic!("queue closed under a live producer"),
        }
    }
}

/// Apply a randomized op sequence to a queue and a `VecDeque` model,
/// checking they agree step by step. Ops: even = `try_push` (a full queue
/// must refuse with `Full`, and only then), odd = pop.
fn check_against_model(kind: QueueKind, capacity: usize, ops: &[u8]) -> Result<(), TestCaseError> {
    let q: ReplicaQueue<u64> = ReplicaQueue::new(kind, capacity);
    let mut model = std::collections::VecDeque::new();
    let mut next_value = 0u64;
    for &op in ops {
        if op % 2 == 0 {
            let full = model.len() == capacity;
            let outcome = q.try_push(next_value);
            let refused = matches!(outcome, Err(PushError::Full(v)) if v == next_value);
            prop_assert!(
                if full { refused } else { outcome.is_ok() },
                "push on {} at len {} (capacity {}) returned {:?}",
                kind,
                model.len(),
                capacity,
                outcome
            );
            if !full {
                model.push_back(next_value);
                next_value += 1;
            }
        } else {
            prop_assert_eq!(q.try_pop(), model.pop_front());
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert_eq!(q.is_empty(), model.is_empty());
        prop_assert!(q.len() <= capacity, "capacity bound violated");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// FIFO order + exact capacity bound under random interleavings.
    #[test]
    fn fifo_and_capacity_match_model(
        capacity in 1usize..20,
        ops in prop::collection::vec(0u8..4, 1..200),
    ) {
        for kind in KINDS {
            check_against_model(kind, capacity, &ops)?;
        }
    }

    /// Batch `pop_n` preserves FIFO order and counts every item once.
    #[test]
    fn batch_pops_match_item_ops(
        capacity in 1usize..16,
        chunks in prop::collection::vec(1usize..12, 1..20),
    ) {
        for kind in KINDS {
            let q: ReplicaQueue<u64> = ReplicaQueue::new(kind, capacity);
            let mut next = 0u64;
            let mut popped = Vec::new();
            for &chunk in &chunks {
                // Fill up to the chunk or the free space, whichever binds
                // (single-threaded: nobody would drain a full ring).
                let free = capacity - q.len();
                for _ in 0..chunk.min(free) {
                    prop_assert!(q.try_push(next).is_ok());
                    next += 1;
                }
                q.pop_n(&mut popped, chunk / 2 + 1);
            }
            while q.pop_n(&mut popped, 8) > 0 {}
            prop_assert_eq!(popped.len() as u64, next);
            // FIFO end to end: popped must be exactly 0..next in order.
            let expect: Vec<u64> = (0..next).collect();
            prop_assert_eq!(popped, expect);
            prop_assert!(q.is_empty());
        }
    }

    /// Close/drain semantics: after close, pushes are refused with `Closed`
    /// — on a full ring too — and every item enqueued before close still
    /// pops, in order.
    #[test]
    fn close_preserves_drain(
        capacity in 1usize..16,
        pre_close in 0usize..16,
        pop_before_close in 0usize..8,
    ) {
        for kind in KINDS {
            let q: ReplicaQueue<u64> = ReplicaQueue::new(kind, capacity);
            let pushed = pre_close.min(capacity);
            for i in 0..pushed {
                prop_assert!(q.try_push(i as u64).is_ok());
            }
            let expect = pushed as u64;
            let mut seen = 0u64;
            for _ in 0..pop_before_close.min(pushed) {
                prop_assert_eq!(q.try_pop(), Some(seen));
                seen += 1;
            }
            q.close();
            prop_assert!(q.is_closed());
            prop_assert!(
                matches!(q.try_push(999), Err(PushError::Closed(999))),
                "push after close must be refused as Closed"
            );
            while let Some(v) = q.try_pop() {
                prop_assert_eq!(v, seen);
                seen += 1;
            }
            prop_assert!(seen == expect, "drain lost or invented items: {seen} != {expect}");
        }
    }
}

/// 2-thread stress: exactly-once, in-order delivery of 100k tuples through
/// a small ring under both fabrics, with a producer that yields on `Full`
/// and batch pops on the consumer side.
#[test]
fn two_thread_stress_exactly_once_100k() {
    const N: u64 = 100_000;
    for kind in KINDS {
        let q: Arc<ReplicaQueue<u64>> = Arc::new(ReplicaQueue::new(kind, 32));
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..N {
                    push_yielding(|v| q.try_push(v), i);
                }
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got: Vec<u64> = Vec::with_capacity(N as usize);
                let mut idle = 0u32;
                while (got.len() as u64) < N {
                    if q.pop_n(&mut got, 8) == 0 {
                        idle += 1;
                        if idle % 64 == 0 {
                            std::thread::yield_now();
                        }
                    } else {
                        idle = 0;
                    }
                }
                got
            })
        };
        producer.join().expect("producer ok");
        let got = consumer.join().expect("consumer ok");
        assert_eq!(got.len() as u64, N, "{kind}: exactly-once count");
        for (i, v) in got.iter().enumerate() {
            assert_eq!(*v, i as u64, "{kind}: order violated at {i}");
        }
        assert!(q.is_empty(), "{kind}: ring should be fully drained");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// MPSC ring vs a per-producer model: 4 real producer threads push
    /// disjoint tagged sequences of random lengths through a small ring;
    /// the consumer must observe every item exactly once and each
    /// producer's items in program order, with the ring fully drained.
    #[test]
    fn mpsc_four_producers_exactly_once_fifo_per_producer(
        capacity in 1usize..24,
        lens in (100usize..400, 100usize..400, 100usize..400, 100usize..400),
    ) {
        let lens = [lens.0, lens.1, lens.2, lens.3];
        let q: Arc<MpscQueue<(usize, u32)>> = Arc::new(MpscQueue::new(capacity));
        let mut handles = Vec::new();
        for (p, &len) in lens.iter().enumerate() {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..len as u32 {
                    push_yielding(|v| q.try_push(v), (p, i));
                }
            }));
        }
        let expect: usize = lens.iter().sum();
        let mut seen: [Vec<u32>; 4] = Default::default();
        let mut got = Vec::new();
        let mut count = 0usize;
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
            h.join().expect("producer ok");
        }
        prop_assert!(q.is_empty(), "ring fully drained");
        for (p, s) in seen.iter().enumerate() {
            let model: Vec<u32> = (0..lens[p] as u32).collect();
            prop_assert!(s == &model, "producer {} lost order or items", p);
        }
    }
}
