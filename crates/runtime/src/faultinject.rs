//! Deterministic fault injection for supervision testing.
//!
//! A [`FaultPlan`] describes *where* panics fire — "panic on the Nth tuple
//! processed by replica `r` of operator `op`" — and
//! [`FaultPlan::instrument`] wraps the matching operator factories of an
//! [`AppRuntime`] so the panics fire at exactly those points, run after
//! run, whatever the pool width or fusion setting. Trigger state lives in
//! `Arc`s created at instrument time, so a fired panic never fires again,
//! however many instances a plan's app is built into.
//!
//! Injected wrappers panic *before* invoking the inner operator, so the
//! poison tuple never half-executes and the inner instance — and, for
//! spouts, the generation cursor — is untouched by the unwind. That makes
//! continuing sound by construction: the wrappers return `true` from
//! [`DynBolt::recover`] / [`DynSpout::recover`], so an injected fault
//! quarantines its tuple and the replica carries on, with deterministic
//! post-fault counter vectors.

use crate::batch::TupleView;
use crate::operator::{
    AppRuntime, BoltContext, Collector, DynBolt, DynSpout, OperatorRuntime, SpoutStatus,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};

/// Panic payloads produced by injected faults start with this prefix;
/// [`silence_injected_panics`] filters on it.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault";

#[derive(Clone)]
struct PanicSpec {
    op: usize,
    replica: usize,
    /// 1-based invocation ordinal the panic fires on.
    nth: u64,
    seen: Arc<AtomicU64>,
    fired: Arc<AtomicBool>,
}

/// A deterministic fault schedule over an application's operators.
///
/// ```
/// use brisk_runtime::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .panic_on_nth(2, 0, 30) // 30th tuple of op 2, replica 0
///     .panic_on_nth(0, 0, 100); // 100th `next` call of the spout
/// assert_eq!(plan.panic_count(), 2);
/// ```
#[derive(Clone, Default)]
pub struct FaultPlan {
    panics: Vec<PanicSpec>,
}

impl FaultPlan {
    /// An empty plan (instrumenting with it is a no-op).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panic on the `nth` (1-based) invocation of operator `op`'s replica
    /// `replica` — the `nth` tuple executed by a bolt/sink, or the `nth`
    /// `next` call of a spout (fired *before* the spout generates, so no
    /// input is lost to the fault).
    pub fn panic_on_nth(mut self, op: usize, replica: usize, nth: u64) -> FaultPlan {
        self.panics.push(PanicSpec {
            op,
            replica,
            nth: nth.max(1),
            seen: Arc::new(AtomicU64::new(0)),
            fired: Arc::new(AtomicBool::new(false)),
        });
        self
    }

    /// Number of scheduled panics.
    pub fn panic_count(&self) -> usize {
        self.panics.len()
    }

    /// Wrap the factories of every operator this plan targets, so the
    /// returned app fires the scheduled faults deterministically.
    pub fn instrument(&self, mut app: AppRuntime) -> AppRuntime {
        let n = app.topology.operator_count();
        for op in 0..n {
            let panics: Vec<PanicSpec> =
                self.panics.iter().filter(|p| p.op == op).cloned().collect();
            if panics.is_empty() {
                continue;
            }
            let runtime = app.runtimes[op]
                .take()
                .expect("instrument before validate: operator has no implementation");
            app.runtimes[op] = Some(match runtime {
                OperatorRuntime::Spout(f) => OperatorRuntime::Spout(wrap_spout(f, panics)),
                OperatorRuntime::Bolt(f) => OperatorRuntime::Bolt(wrap_bolt(f, panics)),
                OperatorRuntime::Sink(f) => OperatorRuntime::Sink(wrap_bolt(f, panics)),
            });
        }
        app
    }
}

type SpoutFactory = Box<dyn Fn(BoltContext) -> Box<dyn DynSpout> + Send + Sync>;
type BoltFactory = Box<dyn Fn(BoltContext) -> Box<dyn DynBolt> + Send + Sync>;

fn wrap_spout(inner: SpoutFactory, panics: Vec<PanicSpec>) -> SpoutFactory {
    Box::new(move |ctx| {
        Box::new(InjectedSpout {
            inner: inner(ctx),
            panics: panics
                .iter()
                .filter(|p| p.replica == ctx.replica)
                .cloned()
                .collect(),
        })
    })
}

fn wrap_bolt(inner: BoltFactory, panics: Vec<PanicSpec>) -> BoltFactory {
    Box::new(move |ctx| {
        Box::new(InjectedBolt {
            inner: inner(ctx),
            panics: panics
                .iter()
                .filter(|p| p.replica == ctx.replica)
                .cloned()
                .collect(),
        })
    })
}

/// Advance every trigger by one invocation and fire a scheduled panic (at
/// most once per spec, across instances).
fn tick(panics: &[PanicSpec]) {
    for p in panics {
        let n = p.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if n == p.nth && !p.fired.swap(true, Ordering::SeqCst) {
            panic!(
                "{INJECTED_PANIC_PREFIX}: op {} replica {} invocation {}",
                p.op, p.replica, n
            );
        }
    }
}

struct InjectedSpout {
    inner: Box<dyn DynSpout>,
    panics: Vec<PanicSpec>,
}

impl DynSpout for InjectedSpout {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        tick(&self.panics);
        self.inner.next(collector)
    }

    fn recover(&mut self) -> bool {
        true // the panic fired before the inner spout ran: its cursor is intact
    }
}

struct InjectedBolt {
    inner: Box<dyn DynBolt>,
    panics: Vec<PanicSpec>,
}

impl DynBolt for InjectedBolt {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        tick(&self.panics);
        self.inner.execute(tuple, collector);
    }

    // `consume` is intentionally NOT forwarded to the inner bolt: the
    // default drains the batch through `execute` above, which is what
    // makes the fault trigger fire once per *tuple* (deterministic
    // ordinals) rather than once per batch.

    fn finish(&mut self, collector: &mut Collector) {
        self.inner.finish(collector);
    }

    fn recover(&mut self) -> bool {
        true // the panic fired before the inner bolt ran: its state is intact
    }
}

/// Install a process-wide panic hook that swallows the backtrace spam of
/// *injected* panics (they are expected and contained by the engine)
/// while delegating every other panic to the previous hook. Idempotent.
pub fn silence_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if msg.starts_with(INJECTED_PANIC_PREFIX) {
                return;
            }
            prev(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_fire_once_and_share_state_across_instances() {
        let plan = FaultPlan::new().panic_on_nth(0, 0, 3);
        let spec = plan.panics[0].clone();
        // Two wrapper "instances" sharing the trigger, as when one plan's
        // app is built into several engines.
        let a = vec![spec.clone()];
        let b = vec![spec];
        tick(&a);
        tick(&a);
        let hit = std::panic::catch_unwind(|| tick(&a));
        assert!(hit.is_err(), "third invocation panics");
        // The second instance sees fired=true: no re-fire ever.
        for _ in 0..10 {
            tick(&b);
        }
    }
}
