//! Fault-injection conformance: supervision must be *execution-shape
//! invariant*. Under the same deterministic injected fault, the fused and
//! the unfused run (both on a two-worker pool) must produce identical
//! per-operator counter vectors — processed, emitted, quarantined,
//! faults and sink totals — and obey exactly-once-minus-quarantined
//! conservation on every attributable edge. No configuration is needed:
//! [`FaultPlan`]'s wrappers panic before the inner operator runs and so
//! always continue.
//!
//! Word Count pins cross-config equality (all its operators have
//! content-deterministic 1:1-or-derivable arity, so the aggregate effect
//! of quarantining the Nth tuple of a replica is the same whatever
//! schedule delivered it). Linear Road — multi-stream dispatcher,
//! interleaving-dependent accident path — instead pins the conservation
//! laws, fault attribution and clean termination per cell.
//!
//! Each cell builds its own [`FaultPlan`]: trigger state (the `seen` /
//! `fired` atomics) is shared across every app an instance instruments, by
//! design — a fired panic never fires again — so reusing one plan across
//! cells would fire its faults in the first cell only.

use brisk_apps::app_sized;
use brisk_dag::{CostProfile, Partitioning, TopologyBuilder, DEFAULT_STREAM};
use brisk_runtime::{
    silence_injected_panics, AppRuntime, Collector, DynBolt, DynSpout, Engine, EngineConfig,
    FaultPlan, RunReport, Scheduler, SpoutStatus, TupleView,
};
use std::time::Duration;

/// WC replication: spout(0) parser(1) splitter(2)x3 counter(3)x2 sink(4).
/// The 3→2 KeyBy edge keeps counter and sink real replicas in both cells;
/// the 1:1 head fuses in the fusion=on cell.
fn wc_replication() -> Vec<usize> {
    vec![1, 1, 3, 2, 1]
}

struct Cell {
    fusion: bool,
    report: RunReport,
}

impl Cell {
    fn label(&self) -> String {
        format!("fusion={}", self.fusion)
    }
}

fn cell_config(fusion: bool) -> EngineConfig {
    EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers: 2 })
        .fusion(fusion)
        .build()
}

/// One run per cell (fusion on, fusion off), each instrumenting `app()`
/// with a freshly built plan.
fn run_cells(
    plan_for_cell: impl Fn() -> FaultPlan,
    app: impl Fn() -> AppRuntime,
    replication: Vec<usize>,
) -> Vec<Cell> {
    silence_injected_panics();
    [true, false]
        .into_iter()
        .map(|fusion| {
            let app = plan_for_cell().instrument(app());
            let engine = Engine::new(app, replication.clone(), cell_config(fusion))
                .expect("valid engine config");
            let report = engine.run_until_events(u64::MAX, Duration::from_secs(120));
            Cell { fusion, report }
        })
        .collect()
}

fn run_wc_cells(plan_for_cell: impl Fn() -> FaultPlan, budget: u64) -> Vec<Cell> {
    run_cells(
        plan_for_cell,
        || app_sized("WC", budget).expect("known app"),
        wc_replication(),
    )
}

/// The five counter vectors conformance compares across cells.
fn vectors(r: &RunReport) -> (Vec<u64>, Vec<u64>, Vec<u64>, Vec<u64>, u64) {
    let per_op = r.per_operator();
    (
        per_op.iter().map(|o| o.processed).collect(),
        per_op.iter().map(|o| o.emitted).collect(),
        per_op.iter().map(|o| o.quarantined).collect(),
        per_op.iter().map(|o| o.faults).collect(),
        r.sink_events,
    )
}

/// WC is a pure chain on single streams: every edge is attributable, and
/// each consumer must account for its producer's full output as processed
/// or quarantined.
fn check_wc_conservation(cell: &Cell) {
    let r = &cell.report;
    for op in 1..=4 {
        let upstream = r.operator(op - 1).emitted;
        let me = r.operator(op);
        assert_eq!(
            upstream,
            me.processed + me.quarantined,
            "{}: edge {}→{} must conserve tuples",
            cell.label(),
            op - 1,
            op
        );
    }
}

fn check_identical(cells: &[Cell], what: &str) {
    let reference = vectors(&cells[0].report);
    for cell in &cells[1..] {
        assert_eq!(
            vectors(&cell.report),
            reference,
            "{what}: {} diverged from {}",
            cell.label(),
            cells[0].label()
        );
    }
}

#[test]
fn wc_spout_panic_matches_the_fault_free_baseline() {
    let budget = 600;
    let baseline = run_wc_cells(FaultPlan::new, budget);
    let injected = run_wc_cells(|| FaultPlan::new().panic_on_nth(0, 0, 50), budget);
    check_identical(&baseline, "baseline");
    check_identical(&injected, "spout-panic");
    // The spout panics before generating and recovers its cursor: the
    // injected runs reproduce the fault-free tuple flow exactly.
    let (bp, be, bq, _, bs) = vectors(&baseline[0].report);
    let (ip, ie, iq, ir, is_) = vectors(&injected[0].report);
    assert_eq!(ip, bp, "processed unchanged by a recovered spout fault");
    assert_eq!(ie, be, "emitted unchanged by a recovered spout fault");
    assert_eq!(is_, bs, "sink total unchanged by a recovered spout fault");
    assert_eq!(iq, bq, "nothing quarantined: the fault predates the tuple");
    assert_eq!(ir[0], 1, "exactly one spout fault");
    for cell in &injected {
        check_wc_conservation(cell);
        assert_eq!(cell.report.faults().len(), 1, "{}", cell.label());
        assert!(cell.report.faults()[0].continued, "{}", cell.label());
    }
}

#[test]
fn wc_mid_bolt_panic_is_identical_fused_and_unfused() {
    // Counter (op 3) replica 0 loses its 30th tuple in both cells. The
    // counter is a real (unfused) replica in both, so this exercises the
    // task continuation path.
    let cells = run_wc_cells(|| FaultPlan::new().panic_on_nth(3, 0, 30), 600);
    check_identical(&cells, "mid-bolt-panic");
    for cell in &cells {
        check_wc_conservation(cell);
        let counter = cell.report.operator(3);
        assert_eq!(counter.quarantined, 1, "{}", cell.label());
        assert_eq!(counter.faults, 1, "{}", cell.label());
        assert_eq!(
            cell.report.operator(2).emitted,
            counter.processed + 1,
            "{}: exactly the poison tuple is missing",
            cell.label()
        );
        assert!(cell.report.sink_events > 0, "{}", cell.label());
    }
}

#[test]
fn wc_sink_panic_is_identical_fused_and_unfused() {
    let cells = run_wc_cells(|| FaultPlan::new().panic_on_nth(4, 0, 40), 600);
    check_identical(&cells, "sink-panic");
    for cell in &cells {
        check_wc_conservation(cell);
        let sink = cell.report.operator(4);
        assert_eq!(sink.quarantined, 1, "{}", cell.label());
        assert_eq!(sink.faults, 1, "{}", cell.label());
        assert_eq!(
            cell.report.sink_events,
            cell.report.operator(3).emitted - 1,
            "{}: sink total is exactly-once minus the quarantined tuple",
            cell.label()
        );
    }
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

struct NullSink;
impl DynBolt for NullSink {
    fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {}
}

/// spout(1) → sink(3) over Broadcast: every jumbo's slab is shared by all
/// three sink replicas when the fault fires.
fn broadcast_app(budget: u64) -> AppRuntime {
    let mut b = TopologyBuilder::new("bc-fault");
    let s = b.add_spout("src", CostProfile::trivial());
    let k = b.add_sink("out", CostProfile::trivial());
    b.connect(s, DEFAULT_STREAM, k, Partitioning::Broadcast);
    let t = b.build().expect("valid topology");
    let (s, k) = (t.find("src").expect("src"), t.find("out").expect("out"));
    AppRuntime::new(t)
        .spout(s, move |_| SeqSpout {
            next: 0,
            limit: budget,
        })
        .sink(k, |_| NullSink)
}

/// Quarantining a tuple out of a batch whose slab is *shared* across
/// broadcast replicas must stay exact: one copy lost on the faulted
/// replica, every other replica's copies intact, and the counter vectors
/// identical fused and unfused. This is
/// the shared-batch half of poison-tuple conservation — the quarantine
/// path keeps the un-poisoned remainder as a slice of the shared slab, so
/// any cross-replica interference (or a slab clone that forked the
/// accounting) would break either equality below. The debug slab tripwire
/// at engine teardown also asserts the quarantined tuple's slab handle
/// was released.
#[test]
fn broadcast_quarantine_conserves_shared_batches() {
    let budget = 600u64;
    let replicas = 3u64;
    // Sink replica 0 panics on its 30th delivered copy; the slab under
    // that copy is shared with replicas 1 and 2.
    let cells = run_cells(
        || FaultPlan::new().panic_on_nth(1, 0, 30),
        || broadcast_app(budget),
        vec![1, 3],
    );
    check_identical(&cells, "broadcast-quarantine");
    for cell in &cells {
        let r = &cell.report;
        let sink = r.operator(1);
        assert_eq!(r.operator(0).emitted, budget, "{}", cell.label());
        assert_eq!(
            sink.quarantined,
            1,
            "{}: exactly the poison copy",
            cell.label()
        );
        assert_eq!(
            sink.processed + sink.quarantined,
            budget * replicas,
            "{}: every broadcast copy accounted, none cloned or lost",
            cell.label()
        );
        assert_eq!(sink.faults, 1, "{}", cell.label());
        assert_eq!(r.sink_events, budget * replicas - 1, "{}", cell.label());
    }
}

#[test]
fn lr_faults_conserve_and_terminate() {
    let budget = 800;
    // spout head, fused-chain parser, multi-producer funnel sink.
    for (op, nth) in [(0usize, 40u64), (1, 30), (11, 25)] {
        for cell in run_cells(
            || FaultPlan::new().panic_on_nth(op, 0, nth),
            || app_sized("LR", budget).expect("known app"),
            vec![1; 12],
        ) {
            let report = &cell.report;
            let ctx = format!("LR {} op={op}", cell.label());

            assert!(report.sink_events > 0, "{ctx}: run survived the fault");
            assert_eq!(report.faults().len(), 1, "{ctx}");
            let fault = &report.faults()[0];
            assert_eq!(fault.op_index, op, "{ctx}: fault attributed to op");
            assert!(fault.continued, "{ctx}");
            assert_eq!(report.operator(op).faults, 1, "{ctx}");

            // Parser (op 1) emits on a single stream: its edge from the
            // spout stays attributable whatever else the fault disturbed.
            let parser = report.operator(1);
            assert_eq!(
                report.operator(0).emitted,
                parser.processed + parser.quarantined,
                "{ctx}: spout→parser conservation"
            );
            assert_eq!(report.operator(0).emitted, budget, "{ctx}: full budget");
            let quarantined = report.fault_summary().quarantined;
            if op == 0 {
                assert_eq!(quarantined, 0, "{ctx}: spout fault predates the tuple");
            } else {
                assert_eq!(quarantined, 1, "{ctx}: exactly the poison tuple");
            }
        }
    }
}
