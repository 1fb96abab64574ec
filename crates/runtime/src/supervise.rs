//! Supervised execution: panic containment, poison-tuple quarantine and
//! structured replica faults.
//!
//! The engine's executors wrap every user-operator call (`DynSpout::next`,
//! `DynBolt::execute`, `DynBolt::finish`, and inline fused deliveries) in
//! `catch_unwind`, so a panicking operator becomes a structured
//! [`ReplicaFault`] instead of a poisoned `join` that takes the whole run
//! down. There is one policy, and the operator decides the outcome:
//!
//! * **Quarantine**: a panic attributed to a specific input tuple sends
//!   that tuple to the operator's dead-letter counter
//!   ([`crate::OpStats::quarantined`]) instead of retrying it. The engine
//!   guarantees *at-most-once* for a quarantined tuple and exactly-once for
//!   everything else.
//! * **Continuation**: when [`crate::DynBolt::recover`] /
//!   [`crate::DynSpout::recover`] returns `true`, the replica keeps the
//!   *same* operator instance and carries on with the tuple after the
//!   poison one. The operator is declaring that it is consistent after an
//!   unwind anywhere in the call; nothing is re-created.
//! * **Death** (the default `recover() == false`): the replica retires
//!   through the normal accounting path and closes its *input* queues so
//!   back-pressured producers fail fast instead of retrying forever. Its
//!   output queues are **not** closed — still-live consumers drain them and
//!   exit through the ordinary `op_done` cascade.
//!
//! Conservation holds on death too: every tuple a dead replica will never
//! process — the rest of the interrupted jumbo, the jumbos it had already
//! popped, what is left in its closed input rings and every jumbo a
//! producer has refused at a closed ring — is charged to the dead
//! operator's `quarantined`, so `producer emitted == consumer processed +
//! consumer quarantined` on every single-stream edge.

use std::any::Any;
use std::fmt;

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
    /// Whether the operator's `recover()` kept the replica going with the
    /// same instance (false: the replica died).
    pub continued: bool,
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
            if self.continued { "continued" } else { "died" }
        )
    }
}

/// Aggregated fault view of one run ([`crate::RunReport::fault_summary`]).
#[derive(Debug, Clone, Default)]
pub struct FaultSummary {
    /// Every recorded fault, in occurrence order.
    pub faults: Vec<ReplicaFault>,
    /// Total quarantined (dead-lettered) tuples across all operators.
    pub quarantined: u64,
}

impl FaultSummary {
    /// True when the run saw no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

impl fmt::Display for FaultSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} fault(s), {} quarantined tuple(s)",
            self.faults.len(),
            self.quarantined
        )?;
        for fault in &self.faults {
            writeln!(f, "  - {fault}")?;
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

#[cfg(test)]
mod tests {
    use super::*;

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
            continued: true,
        });
        assert!(!s.is_empty());
        let text = format!("{s}");
        assert!(text.contains("relay#0"), "{text}");
        assert!(text.contains("continued"), "{text}");
    }
}
