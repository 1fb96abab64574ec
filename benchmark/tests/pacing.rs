//! The open-loop schedule and how the input splits across spout replicas.

use brisk_benchmark::load::{lanes_of, Schedule, Windows, LANES};

/// Events per second replica `replica` of `replicas` offers at `rate`.
fn rate_share(rate: u64, replica: usize, replicas: usize) -> f64 {
    rate as f64 * lanes_of(replica, replicas).len() as f64 / LANES as f64
}

#[test]
fn due_times_follow_the_absolute_schedule() {
    let s = Schedule {
        rate: 1_500_000,
        start_ns: 10_000_000,
    };
    assert_eq!(s.due_ns(0), 10_000_000);
    // One second in, exactly `rate` events have come due.
    assert_eq!(s.due_ns(1_500_000), 1_010_000_000);
    // Never drifts: event g is due at g / rate, however far out.
    assert_eq!(
        s.due_ns(1_500_000 * 3600),
        10_000_000 + 3600 * 1_000_000_000
    );
    let mut prev = 0;
    for g in 0..10_000 {
        let due = s.due_ns(g);
        assert!(due >= prev, "due times are monotone");
        prev = due;
    }
}

#[test]
fn a_replicas_lanes_come_due_in_round_robin_order() {
    let s = Schedule {
        rate: 100_000,
        start_ns: 0,
    };
    for replicas in 1..=LANES {
        for replica in 0..replicas {
            // The spout visits its lanes cyclically; that must be the
            // order in which their events come due.
            let lanes = lanes_of(replica, replicas);
            let mut prev = 0;
            for i in 0..50u64 {
                for &lane in &lanes {
                    let due = s.due_ns(Schedule::global_index(lane, i));
                    assert!(
                        due >= prev,
                        "replica {replica}/{replicas} lane {lane} event {i}"
                    );
                    prev = due;
                }
            }
        }
    }
}

#[test]
fn every_lane_has_one_owner_and_the_rates_sum_to_the_total() {
    for replicas in 1..=LANES {
        let mut owned = vec![0usize; LANES];
        let mut total = 0.0;
        for replica in 0..replicas {
            for lane in lanes_of(replica, replicas) {
                owned[lane] += 1;
            }
            total += rate_share(120_000, replica, replicas);
        }
        assert!(
            owned.iter().all(|&n| n == 1),
            "{replicas} replicas: {owned:?}"
        );
        assert!(
            (total - 120_000.0).abs() < 1e-6,
            "{replicas} replicas offer {total}"
        );
    }
    // Replica counts that divide the lanes split the rate evenly.
    for replicas in [1, 2, 4, 8] {
        for replica in 0..replicas {
            assert_eq!(
                rate_share(120_000, replica, replicas),
                120_000.0 / replicas as f64
            );
        }
    }
}

#[test]
fn windows_discard_the_warm_up_and_the_tail() {
    let w = Windows {
        start_ns: 2_000_000_000,
        width_ns: 500_000_000,
        count: 20,
    };
    assert_eq!(w.index(0), None);
    assert_eq!(w.index(1_999_999_999), None);
    assert_eq!(w.index(2_000_000_000), Some(0));
    assert_eq!(w.index(2_499_999_999), Some(0));
    assert_eq!(w.index(2_500_000_000), Some(1));
    assert_eq!(w.index(11_999_999_999), Some(19));
    assert_eq!(w.index(12_000_000_000), None);
    assert_eq!(Windows::NONE.index(5), None);
}
