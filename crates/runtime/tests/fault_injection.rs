//! Supervision behaviour under deterministic injected faults: restart
//! backoff, poison-tuple quarantine and conservation, clean retirement
//! under [`RestartPolicy::Never`], watchdog stall detection (and its
//! back-pressure blind spot staying blind), fused-chain fault attribution,
//! and queue close/drain semantics across abnormal exits.
//!
//! Every test drives a tiny deterministic spout → relay → sink chain with
//! a [`FaultPlan`] so failures land on exactly the same tuple run after
//! run, on a two-worker pool (three tasks when unfused, so restarts,
//! back-pressure and retirement all happen with tasks sharing workers).

use brisk_dag::{CostProfile, Partitioning, TopologyBuilder, DEFAULT_STREAM};
use brisk_runtime::{
    silence_injected_panics, AppRuntime, Collector, DynBolt, DynSpout, Engine, EngineConfig,
    EngineConfigBuilder, FaultKind, FaultPlan, RestartPolicy, RunReport, Scheduler, SpoutStatus,
    TupleView,
};
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

fn bounded(max_restarts: u32, backoff: Duration) -> RestartPolicy {
    RestartPolicy::Bounded {
        max_restarts,
        backoff,
    }
}

#[test]
fn bounded_restart_recovers_and_quarantines_the_poison_tuple() {
    let config = pool(false)
        .restart(bounded(3, Duration::from_millis(1)))
        .build();
    let plan = FaultPlan::new().panic_on_nth(1, 0, 30);
    let report = run(chain_app(500, false), &plan, config);
    let relay = report.operator(1);
    assert_eq!(relay.quarantined, 1, "poison tuple quarantined");
    assert_eq!(relay.restarts, 1, "one restart");
    assert_eq!(relay.faults, 1, "one recorded fault");
    assert_eq!(relay.processed, 499, "everything else processed");
    assert_eq!(report.sink_events, 499, "sink sees the rest");
    // Conservation: every tuple emitted upstream is either processed
    // or quarantined downstream — nothing lost, nothing duplicated.
    assert_eq!(
        report.operator(0).emitted,
        relay.processed + relay.quarantined,
        "spout→relay conservation"
    );
    let sink = report.operator(2);
    assert_eq!(
        relay.emitted,
        sink.processed + sink.quarantined,
        "relay→sink conservation"
    );
    assert_eq!(report.faults().len(), 1);
    let fault = &report.faults()[0];
    assert_eq!(fault.op_index, 1);
    assert_eq!(fault.kind, FaultKind::OperatorPanic);
    assert!(fault.restarted, "policy granted the restart");
}

#[test]
fn restart_backoff_doubles_and_is_respected() {
    let config = pool(false)
        .restart(bounded(2, Duration::from_millis(100)))
        .build();
    // Two faults: backoff 100ms then 200ms — the run cannot finish in
    // less than their sum.
    let plan = FaultPlan::new()
        .panic_on_nth(1, 0, 20)
        .panic_on_nth(1, 0, 60);
    let start = Instant::now();
    let report = run(chain_app(400, false), &plan, config);
    let elapsed = start.elapsed();
    assert!(
        elapsed >= Duration::from_millis(280),
        "100ms + 200ms backoff must be observed, ran in {elapsed:?}"
    );
    let relay = report.operator(1);
    assert_eq!(relay.restarts, 2);
    assert_eq!(relay.quarantined, 2);
    assert_eq!(report.sink_events, 398);
}

#[test]
fn never_policy_retires_the_replica_and_terminates_cleanly() {
    let plan = FaultPlan::new().panic_on_nth(1, 0, 10);
    let start = Instant::now();
    let report = run(chain_app(200_000, false), &plan, pool(false).build());
    // Clean termination well inside the 120s harness timeout: no hang,
    // no double panic, producers failed fast on the closed queue.
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "run must wind down promptly after the replica dies"
    );
    assert_eq!(report.fault_summary().restarts, 0);
    assert_eq!(report.faults().len(), 1);
    assert!(!report.faults()[0].restarted, "replica died");
    assert!(
        report.operator(0).emitted < 200_000,
        "spout stopped early once its consumer died"
    );
    assert!(report.sink_events < 200_000);
}

#[test]
fn spout_restart_loses_no_input() {
    let config = pool(false)
        .restart(bounded(3, Duration::from_millis(1)))
        .build();
    // The injected panic fires *before* the spout generates, and
    // `recover()` keeps the generation cursor: nothing is lost.
    let plan = FaultPlan::new().panic_on_nth(0, 0, 50);
    let report = run(chain_app(500, false), &plan, config);
    assert_eq!(report.operator(0).restarts, 1);
    assert_eq!(report.operator(0).emitted, 500, "full budget");
    assert_eq!(report.sink_events, 500, "exactly-once held");
    let quarantined: u64 = report.per_operator().iter().map(|o| o.quarantined).sum();
    assert_eq!(quarantined, 0, "no tuple was in flight");
}

#[test]
fn restart_preserves_rings_under_capacity_pressure() {
    // Two-slot single-tuple rings: the spout is back-pressured on a full
    // ring while the relay is down for its backoff. The restart must leave
    // the ring open and intact (closing it would kill the producer;
    // corrupting it would break conservation).
    let config = pool(false)
        .queue_capacity(2)
        .jumbo_size(1)
        .restart(bounded(3, Duration::from_millis(1)))
        .build();
    let plan = FaultPlan::new().panic_on_nth(1, 0, 25);
    let report = run(chain_app(400, false), &plan, config);
    let relay = report.operator(1);
    assert_eq!(relay.restarts, 1);
    assert_eq!(relay.quarantined, 1);
    assert_eq!(report.operator(0).emitted, 400, "spout ran to exhaustion");
    assert_eq!(
        report.operator(0).emitted,
        relay.processed + relay.quarantined,
        "conservation across the restart"
    );
    assert_eq!(
        report.sink_events, 399,
        "restart must not close or corrupt the full ring"
    );
}

#[test]
fn dead_replica_unblocks_back_pressured_producers() {
    // Tiny rings back-pressure the spout almost immediately; the relay
    // then dies under `Never`. Closing the dead replica's input queues
    // must reach the stalled spout so the run winds down instead of
    // retrying a push nobody will ever drain.
    let config = pool(false).queue_capacity(2).jumbo_size(1).build();
    let plan = FaultPlan::new().panic_on_nth(1, 0, 5);
    let start = Instant::now();
    let report = run(chain_app(100_000, false), &plan, config);
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "stalled producer must be released by the dying consumer"
    );
    assert_eq!(report.faults().len(), 1);
    assert!(report.operator(0).emitted < 100_000, "spout stopped early");
}

#[test]
fn watchdog_ignores_back_pressured_replicas() {
    // A deliberately slow sink behind tiny queues back-pressures the
    // relay: long waits, but every one of them excused — the relay's
    // output queue is full (back-pressure, not a stall) and the sink keeps
    // making progress jumbo by jumbo.
    let config = pool(false)
        .queue_capacity(2)
        .jumbo_size(4)
        .stall_deadline(Duration::from_millis(100))
        .build();
    let plan = FaultPlan::new().delay_every(2, 0, 1, Duration::from_millis(1));
    let report = run(chain_app(300, false), &plan, config);
    assert_eq!(report.sink_events, 300);
    assert!(
        report.stalls().is_empty(),
        "back-pressured relay and a slow-but-moving sink are not stalls: {:?}",
        report.stalls()
    );
}

#[test]
fn watchdog_flags_a_genuinely_stuck_replica() {
    let config = pool(false)
        .stall_deadline(Duration::from_millis(60))
        .build();
    // The sink seizes for 500ms mid-run with input queued behind it and
    // (being a sink) no output queue to blame.
    let plan = FaultPlan::new().delay_on_nth(2, 0, 50, Duration::from_millis(500));
    let report = run(chain_app(2000, false), &plan, config);
    assert_eq!(report.sink_events, 2000, "a stall is flagged, never killed");
    assert!(
        report.stalls().iter().any(|s| s.op_index == 2),
        "sink slept 500ms against a 60ms deadline: {:?}",
        report.stalls()
    );
}

#[test]
fn fused_panic_is_attributed_to_the_fused_operator() {
    let config = pool(true)
        .restart(bounded(3, Duration::from_millis(1)))
        .build();
    let plan = FaultPlan::new().panic_on_nth(1, 0, 30);
    let report = run(chain_app(500, true), &plan, config);
    // The Forward chain fused: nothing crossed a queue.
    let total_pushes: u64 = report.per_operator().iter().map(|o| o.queue_pushes).sum();
    assert_eq!(total_pushes, 0, "single-replica Forward chain must fuse");
    let relay = report.operator(1);
    assert_eq!(relay.quarantined, 1);
    assert_eq!(relay.restarts, 1);
    assert_eq!(relay.faults, 1);
    assert_eq!(report.operator(0).faults, 0, "host executor is not charged");
    assert_eq!(report.operator(0).restarts, 0);
    assert_eq!(report.sink_events, 499);
    let fault = &report.faults()[0];
    assert_eq!(
        fault.op_index, 1,
        "attributed to the fused op, not the host"
    );
    assert_eq!(fault.kind, FaultKind::FusedPanic { host_op: 0 });
    assert!(fault.restarted);
}
