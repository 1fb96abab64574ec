//! Deterministic workload drift for elastic-runtime testing.
//!
//! A [`DriftPlan`] describes *when* an operator's per-tuple cost changes —
//! "after the first `N` tuples across all replicas of operator `op`, every
//! further tuple costs an extra `d`" — and [`DriftPlan::instrument`] wraps
//! the matching operator factories of an [`AppRuntime`] so the cost step
//! fires at exactly that point, run after run, whatever the pool width or
//! fusion setting. The trigger counter lives in an `Arc`
//! created at instrument time and is shared by every replica (and every
//! restart), so drift onset is a property of *global* progress, not of any
//! one replica's tuple count.
//!
//! Unlike [`crate::faultinject::FaultPlan`]'s wrappers, drift wrappers
//! forward [`DynSpout::extract_state`] / [`DynBolt::install_state`] to the
//! inner operator: drift exists to exercise the elastic controller, whose
//! migrations must be able to hand the *inner* operator's state across
//! epochs.

use crate::batch::TupleView;
use crate::operator::{
    AppRuntime, BoltContext, Collector, DynBolt, DynSpout, OperatorRuntime, SpoutStatus, StateEntry,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Clone)]
struct SlowSpec {
    /// Global (cross-replica) invocation count after which drift is live.
    after: u64,
    /// Extra busy-spin cost per invocation once drift is live.
    extra: Duration,
    seen: Arc<AtomicU64>,
}

/// A deterministic workload-drift schedule over an application's operators.
///
/// ```
/// use brisk_runtime::DriftPlan;
/// use std::time::Duration;
///
/// // Op 2 becomes 3µs/tuple more expensive after 10k tuples.
/// let plan = DriftPlan::new().slow_after(2, 10_000, Duration::from_micros(3));
/// assert_eq!(plan.step_count(), 1);
/// ```
#[derive(Clone, Default)]
pub struct DriftPlan {
    slows: Vec<(usize, SlowSpec)>,
}

impl DriftPlan {
    /// An empty plan (instrumenting with it is a no-op).
    pub fn new() -> DriftPlan {
        DriftPlan::default()
    }

    /// After `after_tuples` total invocations of operator `op` (summed
    /// across its replicas), every further invocation busy-spins `extra`
    /// before running the inner operator — a step change in per-tuple cost
    /// that shifts the bottleneck the optimizer planned for.
    pub fn slow_after(mut self, op: usize, after_tuples: u64, extra: Duration) -> DriftPlan {
        self.slows.push((
            op,
            SlowSpec {
                after: after_tuples,
                extra,
                seen: Arc::new(AtomicU64::new(0)),
            },
        ));
        self
    }

    /// Number of scheduled cost steps.
    pub fn step_count(&self) -> usize {
        self.slows.len()
    }

    /// Wrap the factories of every operator this plan targets, so the
    /// returned app drifts deterministically.
    pub fn instrument(&self, mut app: AppRuntime) -> AppRuntime {
        let n = app.topology.operator_count();
        for op in 0..n {
            let slows: Vec<SlowSpec> = self
                .slows
                .iter()
                .filter(|(o, _)| *o == op)
                .map(|(_, s)| s.clone())
                .collect();
            if slows.is_empty() {
                continue;
            }
            let runtime = app.runtimes[op]
                .take()
                .expect("instrument before validate: operator has no implementation");
            app.runtimes[op] = Some(match runtime {
                OperatorRuntime::Spout(f) => OperatorRuntime::Spout(wrap_spout(f, slows)),
                OperatorRuntime::Bolt(f) => OperatorRuntime::Bolt(wrap_bolt(f, slows)),
                OperatorRuntime::Sink(f) => OperatorRuntime::Sink(wrap_bolt(f, slows)),
            });
        }
        app
    }
}

type SpoutFactory = Box<dyn Fn(BoltContext) -> Box<dyn DynSpout> + Send + Sync>;
type BoltFactory = Box<dyn Fn(BoltContext) -> Box<dyn DynBolt> + Send + Sync>;

fn wrap_spout(inner: SpoutFactory, slows: Vec<SlowSpec>) -> SpoutFactory {
    Box::new(move |ctx| {
        Box::new(DriftSpout {
            inner: inner(ctx),
            slows: slows.clone(),
        })
    })
}

fn wrap_bolt(inner: BoltFactory, slows: Vec<SlowSpec>) -> BoltFactory {
    Box::new(move |ctx| {
        Box::new(DriftBolt {
            inner: inner(ctx),
            slows: slows.clone(),
        })
    })
}

/// Advance every trigger by one invocation; busy-spin the live steps.
/// Spinning (not sleeping) models a genuinely more expensive computation:
/// the replica's core stays occupied, so back-pressure and the measured
/// per-replica rates respond exactly as they would to real cost drift.
fn drift_tick(slows: &[SlowSpec]) {
    for s in slows {
        let n = s.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if n > s.after {
            let end = Instant::now() + s.extra;
            while Instant::now() < end {
                std::hint::spin_loop();
            }
        }
    }
}

struct DriftSpout {
    inner: Box<dyn DynSpout>,
    slows: Vec<SlowSpec>,
}

impl DynSpout for DriftSpout {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        drift_tick(&self.slows);
        self.inner.next(collector)
    }

    fn recover(&mut self) -> bool {
        self.inner.recover()
    }

    fn extract_state(&mut self) -> Option<Vec<StateEntry>> {
        self.inner.extract_state()
    }

    fn install_state(&mut self, entries: Vec<StateEntry>) {
        self.inner.install_state(entries);
    }
}

struct DriftBolt {
    inner: Box<dyn DynBolt>,
    slows: Vec<SlowSpec>,
}

impl DynBolt for DriftBolt {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        drift_tick(&self.slows);
        self.inner.execute(tuple, collector);
    }

    // `consume` is intentionally NOT forwarded: the default drains the
    // batch through `execute` above, so the cost step applies per *tuple*
    // — a per-batch spin would understate drift by the batch factor.

    fn finish(&mut self, collector: &mut Collector) {
        self.inner.finish(collector);
    }

    fn recover(&mut self) -> bool {
        self.inner.recover()
    }

    fn extract_state(&mut self) -> Option<Vec<StateEntry>> {
        self.inner.extract_state()
    }

    fn install_state(&mut self, entries: Vec<StateEntry>) {
        self.inner.install_state(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trigger_counts_globally_across_clones() {
        let plan = DriftPlan::new().slow_after(0, 3, Duration::from_nanos(1));
        let spec = plan.slows[0].1.clone();
        let a = vec![spec.clone()];
        let b = vec![spec.clone()];
        // Two replicas sharing one trigger: 2 + 2 invocations cross the
        // threshold of 3 on the fourth tick overall.
        drift_tick(&a);
        drift_tick(&b);
        drift_tick(&a);
        assert_eq!(spec.seen.load(Ordering::Relaxed), 3);
        drift_tick(&b);
        assert_eq!(spec.seen.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn empty_plan_is_noop_on_step_count() {
        assert_eq!(DriftPlan::new().step_count(), 0);
    }
}
