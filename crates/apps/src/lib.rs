//! # brisk-apps
//!
//! The four benchmark applications of the paper's evaluation (Section 6.1,
//! Appendix B), each in two forms:
//!
//! * a **logical topology** with per-operator cost profiles calibrated from
//!   the paper's published measurements (Table 3 per-tuple times, Figure 8
//!   breakdowns, Table 4 absolute throughputs on Server A) — consumed by the
//!   performance model, the RLAS optimizer and the simulator;
//! * a **real executable implementation** ([`brisk_runtime::AppRuntime`])
//!   whose operators do the actual work (splitting sentences, updating
//!   hashmaps, scoring transactions, running the Linear Road logic) — run
//!   by the threaded engine in the examples and integration tests.
//!
//! | App | Topology | Character |
//! |---|---|---|
//! | [`word_count`] (WC) | spout → parser → splitter → counter → sink | high fan-out (splitter selectivity 10), small tuples |
//! | [`fraud_detection`] (FD) | spout → parser → predictor → sink | compute-heavy predictor, large tuples |
//! | [`spike_detection`] (SD) | spout → parser → moving-average → spike-detect → sink | keyed window state |
//! | [`linear_road`] (LR) | 11 operators, multi-stream (Figure 18c, Table 8) | complex topology, per-stream selectivities |

pub mod fraud_detection;
pub mod generators;
pub mod linear_road;
pub mod shared_index;
pub mod spike_detection;
pub mod stream_join;
pub mod word_count;

use brisk_dag::LogicalTopology;
use brisk_runtime::AppRuntime;

/// The clock (GHz) the paper's published per-tuple nanosecond costs were
/// measured at: Server A's Xeon E7-8890 runs at 1.2 GHz.
pub const CALIBRATION_GHZ: f64 = 1.2;

/// All applications by abbreviation, for experiment sweeps: the four
/// paper benchmarks plus the join-shaped workload tier (SJ/SI).
pub fn all_topologies() -> Vec<(&'static str, LogicalTopology)> {
    vec![
        ("WC", word_count::topology()),
        ("FD", fraud_detection::topology()),
        ("SD", spike_detection::topology()),
        ("LR", linear_road::topology()),
        ("SJ", stream_join::topology()),
        ("SI", shared_index::topology()),
    ]
}

/// This replica's share of a total input-event budget: `total / replicas`
/// plus one unit of the remainder for the lowest replica indices, so the
/// shares sum to exactly `total` under any replication level. Spouts use
/// this to make sized runs reproduce the same workload regardless of the
/// execution plan.
pub fn replica_share(total: u64, replica: usize, replicas: usize) -> u64 {
    let n = replicas.max(1) as u64;
    total / n + u64::from((replica as u64) < total % n)
}

/// Shared wire format for migratable spout state.
///
/// Every benchmark spout is a deterministic seeded generator plus an input
/// budget, so its whole state is three numbers: the RNG `seed`, how many
/// events it has `emitted`, and how many `remaining` before exhaustion. A
/// successor replica rebuilds the generator from the seed and replays
/// `emitted` draws (via the generators' cheap `skip_*` methods) to land on
/// the exact same stream position — no tuple is re-emitted or lost.
pub(crate) mod spout_state {
    use brisk_runtime::StateEntry;

    /// `seed | emitted | remaining`, little-endian u64s.
    pub fn encode(seed: u64, emitted: u64, remaining: u64) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(24);
        bytes.extend_from_slice(&seed.to_le_bytes());
        bytes.extend_from_slice(&emitted.to_le_bytes());
        bytes.extend_from_slice(&remaining.to_le_bytes());
        bytes
    }

    pub fn decode(bytes: &[u8]) -> Option<(u64, u64, u64)> {
        if bytes.len() != 24 {
            return None;
        }
        let word = |i: usize| u64::from_le_bytes(bytes[i * 8..(i + 1) * 8].try_into().expect("8"));
        Some((word(0), word(1), word(2)))
    }

    /// Merge harvested entries into one stream position: continue the first
    /// entry's stream (its seed and replay offset), carrying the *summed*
    /// remaining budget so rescaled migrations conserve the total event
    /// count exactly.
    pub fn merge(entries: &[StateEntry]) -> Option<(u64, u64, u64)> {
        let mut merged: Option<(u64, u64, u64)> = None;
        for (_, bytes) in entries {
            let Some((seed, emitted, remaining)) = decode(bytes) else {
                continue;
            };
            merged = Some(match merged {
                None => (seed, emitted, remaining),
                Some((s, e, r)) => (s, e, r.saturating_add(remaining)),
            });
        }
        merged
    }
}

/// A runnable, *size-parameterized* application by paper abbreviation: the
/// spouts generate exactly `total_events` input events (split across
/// replicas via [`replica_share`]) and then exhaust, so a run drains
/// deterministically — the reproducible workload behind the conformance
/// suites and the repo benchmark's verified runs.
pub fn app_sized(abbrev: &str, total_events: u64) -> Option<AppRuntime> {
    match abbrev {
        "WC" => Some(word_count::app_sized(total_events)),
        "FD" => Some(fraud_detection::app_sized(total_events)),
        "SD" => Some(spike_detection::app_sized(total_events)),
        "LR" => Some(linear_road::app_sized(total_events)),
        "SJ" => Some(stream_join::app_sized(total_events)),
        "SI" => Some(shared_index::app_sized(total_events)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_topologies_build_and_validate() {
        let apps = all_topologies();
        assert_eq!(apps.len(), 6);
        for (name, t) in apps {
            assert!(t.operator_count() >= 4, "{name} too small");
            assert!(!t.spouts().is_empty(), "{name} has no spout");
            assert!(!t.sinks().is_empty(), "{name} has no sink");
        }
    }

    #[test]
    fn all_apps_have_runnable_implementations() {
        assert!(word_count::app().validate().is_ok());
        assert!(fraud_detection::app().validate().is_ok());
        assert!(spike_detection::app().validate().is_ok());
        assert!(linear_road::app().validate().is_ok());
        assert!(stream_join::app().validate().is_ok());
        assert!(shared_index::app().validate().is_ok());
    }

    #[test]
    fn replica_shares_sum_to_total() {
        for total in [0u64, 1, 7, 100, 101] {
            for replicas in 1..=5usize {
                let sum: u64 = (0..replicas)
                    .map(|r| replica_share(total, r, replicas))
                    .sum();
                assert_eq!(sum, total, "total {total} over {replicas} replicas");
            }
        }
        // Guard against the unbounded sentinel overflowing.
        assert!(replica_share(u64::MAX, 0, 3) > 0);
    }

    #[test]
    fn app_sized_resolves_every_abbreviation() {
        for (abbrev, _) in all_topologies() {
            let app = app_sized(abbrev, 100).expect("known app");
            assert!(app.validate().is_ok(), "{abbrev}");
        }
        assert!(app_sized("nope", 100).is_none());
    }

    /// Drain every spout of a sized app (single replica each) and return
    /// the total events emitted across all of them.
    fn drain_all_spouts(app: &AppRuntime) -> usize {
        use brisk_runtime::{Collector, OperatorRuntime, SpoutStatus};
        let mut emitted = 0;
        for spout_id in app.topology.spouts() {
            let OperatorRuntime::Spout(factory) = app.runtime(spout_id) else {
                panic!("spout expected");
            };
            let mut spout = factory(brisk_runtime::BoltContext {
                replica: 0,
                replicas: 1,
            });
            let (mut collector, _taps) = Collector::capture(&app.topology, spout_id, 64);
            loop {
                match spout.next(&mut collector) {
                    SpoutStatus::Emitted(n) => emitted += n,
                    SpoutStatus::Exhausted => break,
                    SpoutStatus::Idle => {}
                }
            }
        }
        emitted
    }

    #[test]
    fn sized_spouts_exhaust_after_their_share() {
        // Single-spout and two-spout apps alike emit exactly the budget,
        // summed across every spout in the topology.
        for abbrev in ["WC", "SJ", "SI"] {
            let app = app_sized(abbrev, 5).expect("known app");
            assert_eq!(drain_all_spouts(&app), 5, "{abbrev}");
        }
    }
}
