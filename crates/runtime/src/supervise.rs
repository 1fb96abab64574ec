//! Supervised execution: restart policies, structured replica faults,
//! poison-tuple quarantine accounting, and the stall watchdog.
//!
//! The engine's executors wrap every user-operator call (`DynSpout::next`,
//! `DynBolt::execute`, `DynBolt::finish`, and inline fused deliveries) in
//! `catch_unwind`, so a panicking operator becomes a structured
//! [`ReplicaFault`] instead of a poisoned `join` that takes the whole run
//! down. What happens next is governed by [`RestartPolicy`]:
//!
//! * **Restart** ([`RestartPolicy::Bounded`]): the replica's operator
//!   instance is re-created through its registered factory (or kept, when
//!   [`crate::DynBolt::recover`] / [`crate::DynSpout::recover`] opts in to
//!   explicit state handoff) after an exponential backoff, while the
//!   replica's queues, collector, fused subtree and `op_live` latch stay
//!   exactly as they were — drain and termination accounting is unchanged
//!   by a restart.
//! * **Quarantine**: a panic attributed to a specific input tuple sends
//!   that tuple to the operator's dead-letter counter
//!   ([`crate::OpStats::quarantined`]) instead of retrying it forever. The
//!   engine guarantees *at-most-once* for a quarantined tuple and
//!   exactly-once for everything else.
//! * **Death** ([`RestartPolicy::Never`], or a bounded budget exhausted):
//!   the replica retires through the normal accounting path and closes its
//!   *input* queues so back-pressured producers fail fast instead of
//!   retrying forever. Its output queues are **not** closed — still-live consumers
//!   drain them and exit through the ordinary `op_done` cascade.
//!
//! The optional **stall watchdog**
//! ([`crate::EngineConfig::stall_deadline`]) samples per-replica progress
//! counters from a supervisor thread and records a [`StallEvent`] for any
//! bolt/sink replica that makes no progress within the deadline while
//! input is pending — unless one of its output queues is full, which means
//! the replica is back-pressured, not stuck, and is never flagged. The
//! watchdog only ever observes and reports; it never kills a replica.

use crate::engine::EngineShared;
use crate::queue::ReplicaQueue;
use crate::tuple::JumboTuple;
use brisk_dag::OperatorId;
use std::any::Any;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Backoff ceiling for [`RestartPolicy::Bounded`]: exponential growth is
/// capped here so a replica with a large restart budget never sleeps
/// unboundedly between attempts.
pub const MAX_RESTART_BACKOFF: Duration = Duration::from_secs(5);

/// What the engine does when a replica's operator panics
/// ([`crate::EngineConfig::restart`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RestartPolicy {
    /// No restarts: the first fault retires the replica (its input queues
    /// close so producers fail fast; the run terminates cleanly and the
    /// fault is reported).
    #[default]
    Never,
    /// Restart the replica up to `max_restarts` times, sleeping
    /// `backoff * 2^(attempt-1)` (capped at [`MAX_RESTART_BACKOFF`])
    /// before each attempt. The faulting input tuple, if one is
    /// attributable, is quarantined — never retried.
    Bounded {
        /// Restart budget per replica (per fused instance for fused-away
        /// operators). The `max_restarts + 1`-th fault kills the replica.
        max_restarts: u32,
        /// Base backoff before the first restart; doubles per attempt.
        backoff: Duration,
    },
}

impl RestartPolicy {
    /// Backoff before restart attempt `attempt` (1-based), or `None` when
    /// the policy denies the restart and the replica must die.
    pub fn delay_for(&self, attempt: u32) -> Option<Duration> {
        match *self {
            RestartPolicy::Never => None,
            RestartPolicy::Bounded {
                max_restarts,
                backoff,
            } => {
                if attempt == 0 || attempt > max_restarts {
                    return None;
                }
                let doublings = (attempt - 1).min(16);
                Some(
                    backoff
                        .saturating_mul(1u32 << doublings)
                        .min(MAX_RESTART_BACKOFF),
                )
            }
        }
    }
}

/// How a fault surfaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// A panic escaped the operator's own `next`/`execute`/`finish` call
    /// on a spawned replica.
    OperatorPanic,
    /// A panic inside an inline fused delivery — attributed to the fused
    /// operator, not to the executor hosting it.
    FusedPanic {
        /// Logical operator index of the chain host whose thread/task the
        /// panic happened on.
        host_op: usize,
    },
    /// The executor itself was lost (a panic outside any guarded operator
    /// call, or a join error): the supervisor force-retired the replica's
    /// accounting so the rest of the run can wind down.
    ExecutorLoss,
}

/// One structured fault record (see [`crate::RunReport::faults`]).
#[derive(Debug, Clone)]
pub struct ReplicaFault {
    /// Logical operator index the fault is attributed to
    /// (`usize::MAX` for faults not attributable to an operator, e.g. the
    /// loss of a pool worker).
    pub op_index: usize,
    /// Operator name at fault time (`"<executor>"` when not attributable).
    pub op_name: String,
    /// Replica index within the operator.
    pub replica: usize,
    /// How the fault surfaced.
    pub kind: FaultKind,
    /// The panic payload, rendered.
    pub message: String,
    /// Whether the restart policy granted a restart (false: the replica
    /// died).
    pub restarted: bool,
}

impl fmt::Display for ReplicaFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}: {:?} \"{}\" ({})",
            self.op_name,
            self.replica,
            self.kind,
            self.message,
            if self.restarted { "restarted" } else { "died" }
        )
    }
}

/// A watchdog observation: a replica made no progress within the stall
/// deadline while input was pending and none of its output queues was full
/// (i.e. it was not merely back-pressured).
#[derive(Debug, Clone)]
pub struct StallEvent {
    /// Logical operator index of the stalled replica.
    pub op_index: usize,
    /// Operator name.
    pub op_name: String,
    /// Replica index within the operator.
    pub replica: usize,
    /// How long the replica had made no progress when flagged.
    pub stalled_for: Duration,
}

impl fmt::Display for StallEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{} stalled for {:?}",
            self.op_name, self.replica, self.stalled_for
        )
    }
}

/// Aggregated fault view of one run ([`crate::RunReport::fault_summary`]).
#[derive(Debug, Clone, Default)]
pub struct FaultSummary {
    /// Every recorded fault, in occurrence order.
    pub faults: Vec<ReplicaFault>,
    /// Every watchdog stall observation.
    pub stalls: Vec<StallEvent>,
    /// Total replica restarts across all operators.
    pub restarts: u64,
    /// Total quarantined (dead-lettered) tuples across all operators.
    pub quarantined: u64,
}

impl FaultSummary {
    /// True when the run saw no faults and no stalls.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.stalls.is_empty()
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} fault(s), {} restart(s), {} quarantined tuple(s), {} stall(s)",
            self.faults.len(),
            self.restarts,
            self.quarantined,
            self.stalls.len()
        )?;
        for fault in &self.faults {
            writeln!(f, "  - {fault}")?;
        }
        for stall in &self.stalls {
            writeln!(f, "  - {stall}")?;
        }
        Ok(())
    }
}

/// Render a panic payload (the `Box<dyn Any>` from `catch_unwind`).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Everything the watchdog needs to observe one spawned bolt/sink replica.
pub(crate) struct WatchEntry {
    pub(crate) global: usize,
    pub(crate) op_index: usize,
    pub(crate) replica: usize,
    /// The replica's input queues: a stall requires pending input.
    pub(crate) inputs: Vec<Arc<ReplicaQueue<JumboTuple>>>,
    /// The replica's output queues (including its fused subtree's): a full
    /// output queue means back-pressure, which is never flagged.
    pub(crate) outputs: Vec<Arc<ReplicaQueue<JumboTuple>>>,
}

/// Spawn the supervisor thread sampling per-replica progress counters.
/// Exits when the run stops or every replica retires.
pub(crate) fn spawn_watchdog(
    entries: Vec<WatchEntry>,
    shared: Arc<EngineShared>,
    deadline: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("brisk-watchdog".into())
        .spawn(move || {
            let tick = (deadline / 4).max(Duration::from_millis(1));
            let mut last: Vec<u64> = entries
                .iter()
                .map(|e| shared.progress[e.global].load(Ordering::Relaxed))
                .collect();
            let mut changed: Vec<Instant> = vec![Instant::now(); entries.len()];
            let mut flagged: Vec<bool> = vec![false; entries.len()];
            loop {
                if shared.stop.load(Ordering::Relaxed)
                    || shared.live_replicas.load(Ordering::Relaxed) == 0
                {
                    break;
                }
                std::thread::sleep(tick);
                for (i, e) in entries.iter().enumerate() {
                    if shared.replica_done[e.global].load(Ordering::Relaxed) {
                        continue;
                    }
                    let cur = shared.progress[e.global].load(Ordering::Relaxed);
                    if cur != last[i] {
                        last[i] = cur;
                        changed[i] = Instant::now();
                        flagged[i] = false;
                        continue;
                    }
                    if flagged[i] {
                        continue;
                    }
                    let stalled_for = changed[i].elapsed();
                    if stalled_for < deadline {
                        continue;
                    }
                    // No progress past the deadline. Flag only a replica
                    // that *could* have progressed: input pending, and no
                    // output queue full (a full output queue means the
                    // replica is blocked by back-pressure downstream —
                    // slow, not stuck, and never the watchdog's business).
                    let has_input = e.inputs.iter().any(|q| !q.is_empty());
                    let backpressured = e.outputs.iter().any(|q| q.len() >= q.capacity());
                    if has_input && !backpressured {
                        flagged[i] = true;
                        let op_name = shared
                            .app
                            .topology
                            .operator(OperatorId(e.op_index))
                            .name
                            .clone();
                        shared.stalls.lock().push(StallEvent {
                            op_index: e.op_index,
                            op_name,
                            replica: e.replica,
                            stalled_for,
                        });
                    }
                }
            }
        })
        .expect("watchdog spawn")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_denies_every_attempt() {
        assert_eq!(RestartPolicy::Never.delay_for(1), None);
        assert_eq!(RestartPolicy::default().delay_for(1), None);
    }

    #[test]
    fn bounded_backoff_doubles_and_caps() {
        let p = RestartPolicy::Bounded {
            max_restarts: 3,
            backoff: Duration::from_millis(100),
        };
        assert_eq!(p.delay_for(1), Some(Duration::from_millis(100)));
        assert_eq!(p.delay_for(2), Some(Duration::from_millis(200)));
        assert_eq!(p.delay_for(3), Some(Duration::from_millis(400)));
        assert_eq!(p.delay_for(4), None, "budget exhausted");
        let wide = RestartPolicy::Bounded {
            max_restarts: 100,
            backoff: Duration::from_secs(1),
        };
        assert_eq!(wide.delay_for(60), Some(MAX_RESTART_BACKOFF), "capped");
    }

    #[test]
    fn summary_formats_and_empties() {
        let mut s = FaultSummary::default();
        assert!(s.is_empty());
        s.faults.push(ReplicaFault {
            op_index: 1,
            op_name: "relay".into(),
            replica: 0,
            kind: FaultKind::OperatorPanic,
            message: "boom".into(),
            restarted: true,
        });
        s.restarts = 1;
        assert!(!s.is_empty());
        let text = format!("{s}");
        assert!(text.contains("relay#0"), "{text}");
        assert!(text.contains("restarted"), "{text}");
    }
}
