//! Deterministic fault injection for supervision testing.
//!
//! A [`FaultPlan`] describes *where* faults fire — "panic on the Nth tuple
//! processed by replica `r` of operator `op`", or "sleep `d` on a schedule
//! of tuples" — and [`FaultPlan::instrument`] wraps the matching operator
//! factories of an [`AppRuntime`] so the faults fire at exactly those
//! points, run after run, whatever the pool width or fusion setting.
//! Trigger state lives in `Arc`s created at instrument time, so a
//! restarted replica shares the same trigger and an already-fired panic
//! never re-fires.
//!
//! Injected wrappers panic *before* invoking the inner operator, so the
//! poison tuple never half-executes, and they opt in to explicit state
//! handoff ([`DynBolt::recover`] / [`DynSpout::recover`] return `true`):
//! a restart keeps the inner operator instance — and, for spouts, the
//! generation cursor — making post-fault counter vectors deterministic.

use crate::batch::TupleView;
use crate::operator::{
    AppRuntime, BoltContext, Collector, DynBolt, DynSpout, OperatorRuntime, SpoutStatus,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Once};
use std::time::Duration;

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

#[derive(Clone)]
struct DelaySpec {
    op: usize,
    replica: usize,
    /// Sleep on every invocation where `seen % every == 0` (0 disables).
    every: u64,
    /// Sleep once, on exactly this 1-based invocation (0 disables).
    nth: u64,
    delay: Duration,
    seen: Arc<AtomicU64>,
}

/// A deterministic fault schedule over an application's operators.
///
/// ```
/// use brisk_runtime::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .panic_on_nth(2, 0, 30) // 30th tuple of op 2, replica 0
///     .delay_every(4, 0, 8, Duration::from_micros(50));
/// assert_eq!(plan.panic_count(), 1);
/// ```
#[derive(Clone, Default)]
pub struct FaultPlan {
    panics: Vec<PanicSpec>,
    delays: Vec<DelaySpec>,
}

impl FaultPlan {
    /// An empty plan (instrumenting with it is a no-op).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Panic on the `nth` (1-based) invocation of operator `op`'s replica
    /// `replica` — the `nth` tuple executed by a bolt/sink, or the `nth`
    /// `next` call of a spout (fired *before* the spout generates, so no
    /// input is lost across the restart).
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

    /// Sleep `delay` on every `every`-th invocation of operator `op`'s
    /// replica `replica` (a deterministic slow-operator emulation).
    pub fn delay_every(mut self, op: usize, replica: usize, every: u64, delay: Duration) -> Self {
        self.delays.push(DelaySpec {
            op,
            replica,
            every: every.max(1),
            nth: 0,
            delay,
            seen: Arc::new(AtomicU64::new(0)),
        });
        self
    }

    /// Sleep `delay` once, on exactly the `nth` (1-based) invocation of
    /// operator `op`'s replica `replica` — a one-shot stall emulation for
    /// watchdog tests.
    pub fn delay_on_nth(mut self, op: usize, replica: usize, nth: u64, delay: Duration) -> Self {
        self.delays.push(DelaySpec {
            op,
            replica,
            every: 0,
            nth: nth.max(1),
            delay,
            seen: Arc::new(AtomicU64::new(0)),
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
            let delays: Vec<DelaySpec> =
                self.delays.iter().filter(|d| d.op == op).cloned().collect();
            if panics.is_empty() && delays.is_empty() {
                continue;
            }
            let runtime = app.runtimes[op]
                .take()
                .expect("instrument before validate: operator has no implementation");
            app.runtimes[op] = Some(match runtime {
                OperatorRuntime::Spout(f) => OperatorRuntime::Spout(wrap_spout(f, panics, delays)),
                OperatorRuntime::Bolt(f) => OperatorRuntime::Bolt(wrap_bolt(f, panics, delays)),
                OperatorRuntime::Sink(f) => OperatorRuntime::Sink(wrap_bolt(f, panics, delays)),
            });
        }
        app
    }
}

type SpoutFactory = Box<dyn Fn(BoltContext) -> Box<dyn DynSpout> + Send + Sync>;
type BoltFactory = Box<dyn Fn(BoltContext) -> Box<dyn DynBolt> + Send + Sync>;

fn wrap_spout(inner: SpoutFactory, panics: Vec<PanicSpec>, delays: Vec<DelaySpec>) -> SpoutFactory {
    Box::new(move |ctx| {
        Box::new(InjectedSpout {
            inner: inner(ctx),
            panics: panics
                .iter()
                .filter(|p| p.replica == ctx.replica)
                .cloned()
                .collect(),
            delays: delays
                .iter()
                .filter(|d| d.replica == ctx.replica)
                .cloned()
                .collect(),
        })
    })
}

fn wrap_bolt(inner: BoltFactory, panics: Vec<PanicSpec>, delays: Vec<DelaySpec>) -> BoltFactory {
    Box::new(move |ctx| {
        Box::new(InjectedBolt {
            inner: inner(ctx),
            panics: panics
                .iter()
                .filter(|p| p.replica == ctx.replica)
                .cloned()
                .collect(),
            delays: delays
                .iter()
                .filter(|d| d.replica == ctx.replica)
                .cloned()
                .collect(),
        })
    })
}

/// Advance every trigger by one invocation; sleep scheduled delays, then
/// fire a scheduled panic (at most once per spec, across restarts).
fn tick(panics: &[PanicSpec], delays: &[DelaySpec]) {
    for d in delays {
        let n = d.seen.fetch_add(1, Ordering::Relaxed) + 1;
        let fire = (d.every > 0 && n % d.every == 0) || (d.nth > 0 && n == d.nth);
        if fire {
            std::thread::sleep(d.delay);
        }
    }
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
    delays: Vec<DelaySpec>,
}

impl DynSpout for InjectedSpout {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        tick(&self.panics, &self.delays);
        self.inner.next(collector)
    }

    fn recover(&mut self) -> bool {
        true // keep the inner generation cursor across restarts
    }
}

struct InjectedBolt {
    inner: Box<dyn DynBolt>,
    panics: Vec<PanicSpec>,
    delays: Vec<DelaySpec>,
}

impl DynBolt for InjectedBolt {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        tick(&self.panics, &self.delays);
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
        true // keep inner operator state across restarts
    }
}

/// Install a process-wide panic hook that swallows the backtrace spam of
/// *injected* panics (they are expected and caught by the supervisor)
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
        // Two wrapper "instances" sharing the trigger, as across a restart.
        let a = vec![spec.clone()];
        let b = vec![spec];
        tick(&a, &[]);
        tick(&a, &[]);
        let hit = std::panic::catch_unwind(|| tick(&a, &[]));
        assert!(hit.is_err(), "third invocation panics");
        // The restarted instance sees fired=true: no re-fire ever.
        for _ in 0..10 {
            tick(&b, &[]);
        }
    }

    #[test]
    fn delay_schedules_do_not_panic() {
        let plan = FaultPlan::new()
            .delay_every(0, 0, 2, Duration::from_micros(1))
            .delay_on_nth(0, 0, 3, Duration::from_micros(1));
        for _ in 0..8 {
            tick(&[], &plan.delays);
        }
    }
}
