//! Supervision behaviour under deterministic faults: poison-tuple
//! quarantine and conservation, continuation decided by the operator's own
//! `recover()`, clean retirement of a replica that declines to continue
//! (with conservation on its dead edge), fused-chain fault attribution,
//! and queue close/drain semantics across abnormal exits.
//!
//! Every test drives a tiny deterministic spout → bolt → sink chain so
//! failures land on exactly the same tuple run after run: a [`FaultPlan`]
//! for injected panics (its wrappers always continue), or a test-local
//! counting bolt whose own `recover()` decides. Most run on a two-worker
//! pool (three tasks when unfused, so continuation, back-pressure and
//! retirement all happen with tasks sharing workers).

use brisk_dag::{CostProfile, Partitioning, TopologyBuilder, DEFAULT_STREAM};
use brisk_runtime::{
    silence_injected_panics, AppRuntime, Collector, DynBolt, DynSpout, Engine, EngineConfig,
    EngineConfigBuilder, FaultKind, FaultPlan, RunReport, Scheduler, SpoutStatus, TupleView,
    INJECTED_PANIC_PREFIX,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The suite's engine shape: two workers, fusion as given.
fn pool(fusion: bool) -> EngineConfigBuilder {
    EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers: 2 })
        .fusion(fusion)
}

struct SeqSpout {
    next: u64,
    limit: u64,
}
impl DynSpout for SeqSpout {
    fn next(&mut self, c: &mut Collector) -> SpoutStatus {
        if self.next >= self.limit {
            return SpoutStatus::Exhausted;
        }
        let now = c.now_ns();
        c.send_default(self.next, now, self.next);
        self.next += 1;
        SpoutStatus::Emitted(1)
    }
}

/// 1:1 relay — post-fault aggregate counts stay deterministic whatever
/// tuple the fault lands on.
struct Relay;
impl DynBolt for Relay {
    fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
        let v = *t.value::<u64>().expect("u64 payload");
        c.send_default(v, t.event_ns, t.key);
    }
}

struct NullSink;
impl DynBolt for NullSink {
    fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
}

/// spout(0) → relay(1) → sink(2), all single-replica. `forward` wires
/// Forward edges so the whole chain fuses when fusion is on.
fn chain_app(limit: u64, forward: bool) -> AppRuntime {
    let mut b = TopologyBuilder::new("faulty");
    let s = b.add_spout("src", CostProfile::trivial());
    let r = b.add_bolt("relay", CostProfile::trivial());
    let k = b.add_sink("out", CostProfile::trivial());
    if forward {
        b.connect(s, DEFAULT_STREAM, r, Partitioning::Forward);
        b.connect(r, DEFAULT_STREAM, k, Partitioning::Forward);
    } else {
        b.connect_shuffle(s, r);
        b.connect_shuffle(r, k);
    }
    let t = b.build().expect("valid topology");
    let (s, r, k) = (
        t.find("src").expect("src"),
        t.find("relay").expect("relay"),
        t.find("out").expect("out"),
    );
    AppRuntime::new(t)
        .spout(s, move |_| SeqSpout { next: 0, limit })
        .bolt(r, |_| Relay)
        .sink(k, |_| NullSink)
}

fn run(app: AppRuntime, plan: &FaultPlan, config: EngineConfig) -> RunReport {
    silence_injected_panics();
    let engine = Engine::new(plan.instrument(app), vec![1, 1, 1], config).expect("valid engine");
    engine.run_until_events(u64::MAX, Duration::from_secs(120))
}

#[test]
fn continued_relay_quarantines_each_poison_tuple() {
    // One scheduled panic, then two on the same replica: each quarantines
    // exactly its tuple, and the relay carries on with the same instance.
    let schedules: [&[u64]; 2] = [&[30], &[20, 60]];
    for fusion in [false, true] {
        for nths in schedules {
            let ctx = format!("fusion={fusion}, panics at {nths:?}");
            let plan = nths
                .iter()
                .fold(FaultPlan::new(), |plan, &nth| plan.panic_on_nth(1, 0, nth));
            let faults = nths.len() as u64;
            let report = run(chain_app(500, fusion), &plan, pool(fusion).build());
            let relay = report.operator(1);
            assert_eq!(relay.quarantined, faults, "{ctx}: poison tuples");
            assert_eq!(relay.faults, faults, "{ctx}: one fault each");
            assert_eq!(relay.processed, 500 - faults, "{ctx}: the rest");
            assert_eq!(
                report.sink_events,
                500 - faults,
                "{ctx}: sink sees the rest"
            );
            // Conservation: every tuple emitted upstream is either processed
            // or quarantined downstream — nothing lost, nothing duplicated.
            assert_eq!(
                report.operator(0).emitted,
                relay.processed + relay.quarantined,
                "{ctx}: spout→relay conservation"
            );
            let sink = report.operator(2);
            assert_eq!(
                relay.emitted,
                sink.processed + sink.quarantined,
                "{ctx}: relay→sink conservation"
            );
            assert_eq!(report.faults().len() as u64, faults, "{ctx}");
            let kind = if fusion {
                FaultKind::FusedPanic { host_op: 0 }
            } else {
                FaultKind::OperatorPanic
            };
            for fault in report.faults() {
                assert_eq!(fault.op_index, 1, "{ctx}");
                assert_eq!(fault.kind, kind, "{ctx}");
                assert!(fault.continued, "{ctx}: the wrapper's recover() continues");
            }
        }
    }
}

const PANIC_AT: u64 = 100;

/// Counts its input, panicking on its own [`PANIC_AT`]th tuple before
/// counting it, and emits the count in `finish`. It keeps the default
/// `recover()`, so its replica dies on the panic.
#[derive(Default)]
struct PanickyCounter {
    seen: u64,
    count: u64,
}
impl DynBolt for PanickyCounter {
    fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {
        self.seen += 1;
        if self.seen == PANIC_AT {
            panic!("{INJECTED_PANIC_PREFIX}: the counter's own tuple {PANIC_AT}");
        }
        self.count += 1;
    }

    fn finish(&mut self, c: &mut Collector) {
        c.send_default(self.count, 0, 0);
    }
}

/// A [`PanickyCounter`] that declares itself consistent after the unwind,
/// as it is: its panic fires before the count moves.
#[derive(Default)]
struct RecoveringCounter(PanickyCounter);
impl DynBolt for RecoveringCounter {
    fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
        self.0.execute(t, c);
    }

    fn finish(&mut self, c: &mut Collector) {
        self.0.finish(c);
    }

    fn recover(&mut self) -> bool {
        true
    }
}

/// Keeps the last value it received.
struct LastValue(Arc<AtomicU64>);
impl DynBolt for LastValue {
    fn execute(&mut self, t: &TupleView<'_>, _c: &mut Collector) {
        let v = *t.value::<u64>().expect("u64 payload");
        self.0.store(v, Ordering::Relaxed);
    }
}

/// spout(0) → counter(1) → sink(2), the counter a [`RecoveringCounter`]
/// if `recovers`, else a [`PanickyCounter`]. Returns the app and the cell
/// its sink stores the count in (`u64::MAX` until a count arrives).
fn counter_app(limit: u64, forward: bool, recovers: bool) -> (AppRuntime, Arc<AtomicU64>) {
    let mut b = TopologyBuilder::new("counting");
    let s = b.add_spout("src", CostProfile::trivial());
    let c = b.add_bolt("counter", CostProfile::trivial());
    let k = b.add_sink("out", CostProfile::trivial());
    if forward {
        b.connect(s, DEFAULT_STREAM, c, Partitioning::Forward);
        b.connect(c, DEFAULT_STREAM, k, Partitioning::Forward);
    } else {
        b.connect_shuffle(s, c);
        b.connect_shuffle(c, k);
    }
    let t = b.build().expect("valid topology");
    let (s, c, k) = (
        t.find("src").expect("src"),
        t.find("counter").expect("counter"),
        t.find("out").expect("out"),
    );
    let total = Arc::new(AtomicU64::new(u64::MAX));
    let cell = Arc::clone(&total);
    let app = AppRuntime::new(t)
        .spout(s, move |_| SeqSpout { next: 0, limit })
        .sink(k, move |_| LastValue(Arc::clone(&cell)));
    let app = if recovers {
        app.bolt(c, |_| RecoveringCounter::default())
    } else {
        app.bolt(c, |_| PanickyCounter::default())
    };
    (app, total)
}

#[test]
fn an_operator_that_recovers_continues_with_its_state() {
    let n = 1000;
    for fusion in [false, true] {
        let (app, total) = counter_app(n, fusion, true);
        let report = run(
            app,
            &FaultPlan::new(),
            EngineConfig::builder().fusion(fusion).build(),
        );
        let counter = report.operator(1);
        assert_eq!(
            total.load(Ordering::Relaxed),
            n - 1,
            "fusion={fusion}: the same instance counted everything but the poison tuple"
        );
        assert_eq!(counter.quarantined, 1, "fusion={fusion}");
        assert_eq!(counter.processed, n - 1, "fusion={fusion}");
        assert_eq!(report.faults().len(), 1, "fusion={fusion}");
        assert!(report.faults()[0].continued, "fusion={fusion}");
        assert_eq!(report.sink_events, 1, "fusion={fusion}: the count");
    }
}

/// The law a dead consumer must still obey: every tuple its producer
/// emitted is processed or quarantined.
fn assert_dead_edge_conserves(report: &RunReport, ctx: &str) {
    let counter = report.operator(1);
    assert_eq!(
        report.operator(0).emitted,
        counter.processed + counter.quarantined,
        "{ctx}: spout→counter conservation across the death"
    );
}

#[test]
fn an_operator_that_declines_recovery_dies_and_the_run_winds_down() {
    let n = 200_000;
    for fusion in [false, true] {
        let ctx = format!("fusion={fusion}");
        let (app, total) = counter_app(n, fusion, false);
        let start = Instant::now();
        let report = run(
            app,
            &FaultPlan::new(),
            EngineConfig::builder().fusion(fusion).build(),
        );
        // Clean termination well inside the 120s harness timeout: no hang,
        // no double panic, producers failed fast on the closed queue.
        assert!(
            start.elapsed() < Duration::from_secs(60),
            "{ctx}: run must wind down promptly after the replica dies"
        );
        assert_eq!(report.faults().len(), 1, "{ctx}");
        assert!(!report.faults()[0].continued, "{ctx}: replica died");
        assert_eq!(report.operator(1).processed, PANIC_AT - 1, "{ctx}");
        assert!(
            report.operator(0).emitted < n,
            "{ctx}: spout stopped early once its consumer died"
        );
        assert_eq!(total.load(Ordering::Relaxed), u64::MAX, "{ctx}: no finish");
        assert_eq!(report.sink_events, 0, "{ctx}");
        assert_dead_edge_conserves(&report, &ctx);
    }
}

#[test]
fn dead_replica_unblocks_back_pressured_producers() {
    // Tiny rings back-pressure the spout almost immediately; the counter
    // then dies. Closing the dead replica's input queues must reach the
    // stalled spout so the run winds down instead of retrying a push
    // nobody will ever drain.
    let config = pool(false).queue_capacity(2).jumbo_size(1).build();
    let (app, _) = counter_app(100_000, false, false);
    let start = Instant::now();
    let report = run(app, &FaultPlan::new(), config);
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "stalled producer must be released by the dying consumer"
    );
    assert_eq!(report.faults().len(), 1);
    assert!(report.operator(0).emitted < 100_000, "spout stopped early");
    assert_dead_edge_conserves(&report, "back-pressured");
}

#[test]
fn continued_spout_loses_no_input() {
    // The injected panic fires *before* the spout generates, and the
    // replica continues with the same generation cursor: nothing is lost.
    let plan = FaultPlan::new().panic_on_nth(0, 0, 50);
    let report = run(chain_app(500, false), &plan, pool(false).build());
    assert_eq!(report.operator(0).faults, 1);
    assert!(report.faults()[0].continued);
    assert_eq!(report.operator(0).emitted, 500, "full budget");
    assert_eq!(report.sink_events, 500, "exactly-once held");
    let quarantined: u64 = report.per_operator().iter().map(|o| o.quarantined).sum();
    assert_eq!(quarantined, 0, "no tuple was in flight");
}

#[test]
fn continuation_preserves_rings_under_capacity_pressure() {
    // Two-slot single-tuple rings: the spout is back-pressured on a full
    // ring when the relay faults. Continuing must leave the ring open and
    // intact (closing it would kill the producer; corrupting it would
    // break conservation).
    let config = pool(false).queue_capacity(2).jumbo_size(1).build();
    let plan = FaultPlan::new().panic_on_nth(1, 0, 25);
    let report = run(chain_app(400, false), &plan, config);
    let relay = report.operator(1);
    assert_eq!(relay.faults, 1);
    assert_eq!(relay.quarantined, 1);
    assert_eq!(report.operator(0).emitted, 400, "spout ran to exhaustion");
    assert_eq!(
        report.operator(0).emitted,
        relay.processed + relay.quarantined,
        "conservation across the fault"
    );
    assert_eq!(
        report.sink_events, 399,
        "continuing must not close or corrupt the full ring"
    );
}

#[test]
fn fused_panic_is_attributed_to_the_fused_operator() {
    let plan = FaultPlan::new().panic_on_nth(1, 0, 30);
    let report = run(chain_app(500, true), &plan, pool(true).build());
    // The Forward chain fused: nothing crossed a queue.
    let total_pushes: u64 = report.per_operator().iter().map(|o| o.queue_pushes).sum();
    assert_eq!(total_pushes, 0, "single-replica Forward chain must fuse");
    let relay = report.operator(1);
    assert_eq!(relay.quarantined, 1);
    assert_eq!(relay.faults, 1);
    assert_eq!(report.operator(0).faults, 0, "host executor is not charged");
    assert_eq!(report.sink_events, 499);
    let fault = &report.faults()[0];
    assert_eq!(
        fault.op_index, 1,
        "attributed to the fused op, not the host"
    );
    assert_eq!(fault.kind, FaultKind::FusedPanic { host_op: 0 });
    assert!(fault.continued);
}
