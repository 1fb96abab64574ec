//! Property tests for the partition controller.
//!
//! The engine indexes consumer queue arrays with whatever
//! [`Partitioner::route`] returns, so the first property is a memory-safety
//! boundary: every routed index must fall in `0..consumers` for every
//! strategy and any key. On top of that, KeyBy must be a pure function of
//! the key (sticky routing is what lets bolts keep keyed state), and
//! Shuffle must stay fair within ±1 over *any* observation window — the
//! round-robin cursor never favours a replica.

use brisk_dag::Partitioning;
use brisk_runtime::{Partitioner, QueueKind, ReplicaQueue};
use proptest::prelude::*;

const STRATEGIES: [Partitioning; 4] = [
    Partitioning::Shuffle,
    Partitioning::KeyBy,
    Partitioning::Broadcast,
    Partitioning::Global,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every routed index is a valid consumer replica, for every strategy.
    #[test]
    fn routes_stay_in_bounds(
        consumers in 1usize..12,
        keys in prop::collection::vec(0u64..u64::MAX, 1..100),
    ) {
        for strategy in STRATEGIES {
            let mut p = Partitioner::new(strategy, consumers);
            prop_assert_eq!(p.consumers(), consumers);
            for &k in &keys {
                for target in p.route(k).iter() {
                    prop_assert!(
                        target < consumers,
                        "{:?} routed {} with {} consumers",
                        strategy, target, consumers
                    );
                }
            }
        }
    }

    /// KeyBy is deterministic: the same key always lands on the same
    /// replica, regardless of interleaved traffic and router state.
    #[test]
    fn keyby_is_deterministic(
        consumers in 1usize..12,
        key in 0u64..u64::MAX,
        noise in prop::collection::vec(0u64..u64::MAX, 0..50),
    ) {
        let mut p = Partitioner::new(Partitioning::KeyBy, consumers);
        let first: Vec<usize> = p.route(key).iter().collect();
        for &n in &noise {
            p.route(n);
        }
        let again: Vec<usize> = p.route(key).iter().collect();
        prop_assert!(first == again, "key {} moved replicas", key);
        // A fresh router agrees too: routing is a function of the key
        // alone, not of router history.
        let mut fresh = Partitioner::new(Partitioning::KeyBy, consumers);
        let independent: Vec<usize> = fresh.route(key).iter().collect();
        prop_assert_eq!(first, independent);
    }

    /// Shuffle is fair within ±1 over any window: after `n` routed tuples,
    /// every replica has seen either `floor(n/c)` or `ceil(n/c)`.
    #[test]
    fn shuffle_fair_within_one_over_any_window(
        consumers in 1usize..12,
        window in 1usize..500,
    ) {
        let mut p = Partitioner::new(Partitioning::Shuffle, consumers);
        let mut counts = vec![0usize; consumers];
        for i in 0..window {
            for t in p.route(i as u64).iter() {
                counts[t] += 1;
            }
            let lo = counts.iter().min().expect("nonempty");
            let hi = counts.iter().max().expect("nonempty");
            prop_assert!(
                hi - lo <= 1,
                "window {} with {} consumers drifted: {:?}",
                i + 1, consumers, counts
            );
        }
    }

    /// Sanity composition: KeyBy-routed tuples land in per-replica queues
    /// without ever indexing out of bounds, even on strided key spaces
    /// (the regression behind the FNV mix).
    #[test]
    fn strided_keyby_traffic_reaches_real_queues(
        consumers in 2usize..6,
        stride in 1u64..32,
    ) {
        let queues: Vec<ReplicaQueue<u64>> = (0..consumers)
            .map(|_| ReplicaQueue::new(QueueKind::Mpsc, 1024))
            .collect();
        let mut p = Partitioner::new(Partitioning::KeyBy, consumers);
        for i in 0..256u64 {
            let key = i * stride;
            for t in p.route(key).iter() {
                queues[t].try_push(key).expect("256 keys fit in 1024 slots");
            }
        }
        let total: usize = queues.iter().map(|q| q.len()).sum();
        prop_assert!(total == 256, "every tuple routed somewhere, once");
        let busy = queues.iter().filter(|q| !q.is_empty()).count();
        prop_assert!(
            stride == 0 || busy >= 2 || consumers < 2,
            "stride {} parked all but one of {} replicas",
            stride, consumers
        );
    }
}
