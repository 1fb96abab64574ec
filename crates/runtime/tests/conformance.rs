//! Engine conformance suite: exactly-once tuple accounting for all six
//! benchmark applications with operator fusion on and off, on a two-worker
//! pool (fewer workers than tasks, so every run exercises stealing,
//! yielding on back-pressure and wake-on-push).
//!
//! Both cells run a deterministic sized workload to exhaustion and check
//! the conservation laws the engine must never violate, whatever the
//! execution shape (queued replicas, MPSC funnels, fused chains,
//! pairwise-fused replica pairs):
//!
//! * the spouts emit exactly the configured input budget (the sized
//!   generators split it across replicas without loss or duplication);
//! * every *checkable* edge conserves tuples — for a consumer all of whose
//!   producers emit on a single stream, input-side `processed` equals the
//!   sum of its producers' `emitted` (once per copy for Broadcast edges);
//!   multi-stream producers (LR's dispatcher) make per-edge delivery
//!   unattributable from per-operator counters, so their consumers are
//!   skipped;
//! * `sink_events` equals the input-side count of the sink operators, and
//!   every sink tuple has a latency sample;
//! * for the linear apps (WC/FD/SD — every operator emits a
//!   content-deterministic number of tuples per input), the full
//!   per-operator `processed`/`emitted` vectors are **identical across
//!   both cells**: the execution shape may change where and when tuples
//!   flow, never how many. (LR's accident detector emits based on
//!   cross-replica arrival interleaving, so LR asserts the conservation
//!   laws per cell instead.)

use brisk_apps::app_sized;
use brisk_dag::{CostProfile, OperatorKind, Partitioning, TopologyBuilder, DEFAULT_STREAM};
use brisk_runtime::{
    AppRuntime, Collector, DynBolt, DynSpout, Engine, EngineConfig, EngineConfigBuilder, RunReport,
    Scheduler, SpoutStatus, TupleView,
};
use std::time::Duration;

struct Cell {
    fusion: bool,
    report: RunReport,
}

fn cell_config(fusion: bool) -> EngineConfigBuilder {
    EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers: 2 })
        .fusion(fusion)
}

fn run_cells(abbrev: &str, replication: Vec<usize>, budget: u64) -> Vec<Cell> {
    [true, false]
        .into_iter()
        .map(|fusion| {
            let app = app_sized(abbrev, budget).expect("known app");
            let engine = Engine::new(app, replication.clone(), cell_config(fusion).build())
                .expect("valid engine config");
            let report = engine.run_until_events(u64::MAX, Duration::from_secs(120));
            Cell { fusion, report }
        })
        .collect()
}

/// Assert the conservation laws on one run.
fn check_conservation(abbrev: &str, replication: &[usize], budget: u64, cell: &Cell) {
    let topology = brisk_apps::all_topologies()
        .into_iter()
        .find(|(a, _)| *a == abbrev)
        .map(|(_, t)| t)
        .expect("known app");
    let ctx = format!("{abbrev} fusion={}", cell.fusion);
    let r = &cell.report;

    // Spouts emit exactly the input budget.
    let spout_emitted: u64 = topology
        .operators()
        .filter(|(_, s)| s.kind == OperatorKind::Spout)
        .map(|(id, _)| r.operator(id.0).emitted)
        .sum();
    assert_eq!(spout_emitted, budget, "{ctx}: spout emission != budget");

    // Edge conservation wherever per-operator counters can attribute it.
    for (v, _) in topology.operators() {
        let incoming: Vec<_> = topology.incoming_edges(v).collect();
        if incoming.is_empty() {
            continue; // spout
        }
        let checkable = incoming.iter().all(|e| {
            let mut streams: Vec<&str> = topology
                .outgoing_edges(e.from)
                .map(|oe| oe.stream.as_str())
                .collect();
            streams.dedup();
            streams.len() == 1
        });
        if !checkable {
            continue;
        }
        let expected: u64 = incoming
            .iter()
            .map(|e| {
                let copies = match e.partitioning {
                    Partitioning::Broadcast => replication[v.0] as u64,
                    _ => 1,
                };
                r.operator(e.from.0).emitted * copies
            })
            .sum();
        assert_eq!(
            r.operator(v.0).processed,
            expected,
            "{ctx}: operator {} lost or duplicated tuples",
            topology.operator(v).name
        );
    }

    // Sinks: input-side count == sink_events == latency samples.
    let sink_processed: u64 = topology
        .operators()
        .filter(|(_, s)| s.kind == OperatorKind::Sink)
        .map(|(id, _)| r.operator(id.0).processed)
        .sum();
    assert_eq!(r.sink_events, sink_processed, "{ctx}: sink accounting");
    assert_eq!(
        r.latency_ns.count(),
        r.sink_events,
        "{ctx}: every sink tuple records latency"
    );
}

/// Assert both cells produced identical per-operator counter vectors
/// (content-deterministic apps only).
fn check_cross_config_determinism(abbrev: &str, cells: &[Cell]) {
    let counts = |r: &RunReport| -> (Vec<u64>, Vec<u64>) {
        let per_op = r.per_operator();
        (
            per_op.iter().map(|o| o.processed).collect(),
            per_op.iter().map(|o| o.emitted).collect(),
        )
    };
    let reference = &cells[0];
    let (ref_processed, ref_emitted) = counts(&reference.report);
    for cell in &cells[1..] {
        let (processed, emitted) = counts(&cell.report);
        assert_eq!(
            processed, ref_processed,
            "{abbrev}: processed differs between fusion={} and fusion={}",
            cell.fusion, reference.fusion
        );
        assert_eq!(
            emitted, ref_emitted,
            "{abbrev}: emitted differs between fusion={} and fusion={}",
            cell.fusion, reference.fusion
        );
        assert_eq!(
            cell.report.sink_events, reference.report.sink_events,
            "{abbrev}: sink_events differ"
        );
    }
}

fn conformance(abbrev: &str, replication: Vec<usize>, budget: u64, deterministic: bool) {
    let cells = run_cells(abbrev, replication.clone(), budget);
    for cell in &cells {
        check_conservation(abbrev, &replication, budget, cell);
    }
    if deterministic {
        check_cross_config_determinism(abbrev, &cells);
    }
}

#[test]
fn word_count_conforms_fused_and_unfused() {
    // Multi-replica splitter/counter: KeyBy fan-out plus a 1:1 fused head.
    conformance("WC", vec![1, 1, 3, 2, 1], 1200, true);
}

#[test]
fn fraud_detection_conforms_fused_and_unfused() {
    // 2:2 Forward head — pairwise fusion in the fusion=on cell — feeding
    // a 3-replica KeyBy predictor.
    conformance("FD", vec![2, 2, 3, 1], 2000, true);
}

#[test]
fn spike_detection_conforms_fused_and_unfused() {
    // The aligned-KeyBy pair: moving_average(2) → spike_detect(2) fuses
    // pairwise when fusion is on; parser funnels 2 spouts' tuples.
    conformance("SD", vec![2, 1, 2, 2, 1], 2000, true);
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

/// Broadcast fan-out: each sealed slab is shared by all three sink
/// replicas, and the per-copy accounting must hold with fusion on and off
/// — emitted once per logical tuple, processed once per delivered copy,
/// with slab seals bounded by the *logical* tuple count (a payload-copying
/// fabric would need one slab per copy, 3× more).
#[test]
fn broadcast_shared_batches_conform_fused_and_unfused() {
    let budget = 600u64;
    let mut reports = Vec::new();
    for fusion in [true, false] {
        let mut b = TopologyBuilder::new("bc");
        let s = b.add_spout("src", CostProfile::trivial());
        let k = b.add_sink("out", CostProfile::trivial());
        b.connect(s, DEFAULT_STREAM, k, Partitioning::Broadcast);
        let t = b.build().expect("valid topology");
        let (s, k) = (t.find("src").expect("src"), t.find("out").expect("out"));
        let app = AppRuntime::new(t)
            .spout(s, move |_| SeqSpout {
                next: 0,
                limit: budget,
            })
            .sink(k, |_| NullSink);
        let engine =
            Engine::new(app, vec![1, 3], cell_config(fusion).build()).expect("valid engine config");
        let report = engine.run_until_events(u64::MAX, Duration::from_secs(120));
        let ctx = format!("bc fusion={fusion}");
        assert_eq!(report.operator(0).emitted, budget, "{ctx}");
        assert_eq!(report.operator(1).processed, budget * 3, "{ctx}");
        assert_eq!(report.sink_events, budget * 3, "{ctx}");
        assert!(
            report.slab_allocs + report.slab_recycled <= budget,
            "{ctx}: slab seals must not scale with broadcast copies"
        );
        reports.push((ctx, report));
    }
    let reference: Vec<u64> = reports[0]
        .1
        .per_operator()
        .iter()
        .map(|o| o.processed)
        .collect();
    for (ctx, r) in &reports[1..] {
        let processed: Vec<u64> = r.per_operator().iter().map(|o| o.processed).collect();
        assert_eq!(&processed, &reference, "{ctx} diverged");
    }
}

/// The join-shaped workload tier: two spouts KeyBy into a stateful
/// window-join bolt. Beyond the generic conservation laws, each cell's
/// match *multiset* must be bit-identical to the single-threaded oracle:
/// the sink volume equals the oracle pair count, and the join replicas'
/// harvested digests (count ‖ xor ‖ sum of canonical pair hashes) merge
/// to exactly the oracle digest — exactly-once match accounting fused and
/// unfused.
#[test]
fn stream_join_conforms_and_matches_the_oracle_fused_and_unfused() {
    use brisk_apps::stream_join::{self, JoinDigest};
    use brisk_runtime::RunLimit;

    let budget = 1200u64;
    // Sink replicated like the join: the KeyBy edge below the (key-
    // confined, key-preserving) join is aligned, so the fusion=on cell
    // exercises pairwise fusion of a stateful two-upstream operator.
    let replication = vec![2usize, 3, 2, 3];
    let (left_total, right_total) = stream_join::side_totals(budget);
    let expected = stream_join::oracle(left_total, right_total);
    assert!(expected.count > 0, "workload must produce matches");
    let join_op = brisk_apps::stream_join::topology()
        .find("join")
        .expect("join")
        .0;

    let mut cells = Vec::new();
    for fusion in [true, false] {
        let ctx = format!("SJ fusion={fusion}");
        let app = app_sized("SJ", budget).expect("known app");
        let mut engine = Engine::new(app, replication.clone(), cell_config(fusion).build())
            .expect("valid engine config");
        engine.capture_state_on_stop(true);
        let (report, state) = engine
            .start(RunLimit::Events {
                events: u64::MAX,
                timeout: Duration::from_secs(120),
            })
            .join_with_state();

        // Every matched pair reached the sink exactly once.
        assert_eq!(
            report.sink_events, expected.count,
            "{ctx}: sink volume != oracle match count"
        );
        // The replicas' merged digests reproduce the oracle's match
        // multiset bit-exactly.
        let mut digest = JoinDigest::default();
        for (op, _replica, entries) in &state {
            if *op == join_op {
                digest.merge(&JoinDigest::from_entries(entries));
            }
        }
        assert_eq!(digest, expected, "{ctx}: match multiset diverged");

        cells.push(Cell { fusion, report });
    }
    for cell in &cells {
        check_conservation("SJ", &replication, budget, cell);
    }
    check_cross_config_determinism("SJ", &cells);
}

#[test]
fn shared_index_conforms_fused_and_unfused() {
    // One arranged index broadcast to two queries: a point lookup fed by
    // a second spout, and a windowed aggregate. Result *counts* are
    // interleaving-independent (one answer per probe, one delta per
    // update per aggregate replica), so both cells must agree.
    conformance("SI", vec![2, 2, 1, 2, 2, 1], 1200, true);
}

/// The shared-arrangement zero-copy pin: with two queries subscribed to
/// the arranged stream, the maintainer seals each batch ONCE — the
/// second Broadcast edge shares the leader edge's builder and receives a
/// refcount bump, not a copy. At `jumbo_size(1)` every push seals — as
/// long as no queue ever fills (under back-pressure a builder legitimately
/// grows past `jumbo_size`), hence queues deep enough to hold the whole
/// run — so slab checkouts count builder pushes exactly: `3·updates +
/// 2·queries` (update spout + one maintainer's worth + query spout + point
/// results + aggregate deltas). A per-edge-copying collector would need
/// `4·updates + 2·queries`. Engine teardown separately asserts
/// `outstanding == 0`, so a leaked arrangement slab fails the run.
#[test]
fn shared_arrangement_slab_seals_do_not_double_with_two_queries() {
    let budget = 400u64;
    let (u, q) = brisk_apps::shared_index::side_totals(budget);
    let app = app_sized("SI", budget).expect("known app");
    let config = cell_config(false)
        .jumbo_size(1)
        .queue_capacity(4096)
        .build();
    let engine = Engine::new(app, vec![1; 6], config).expect("valid engine config");
    let report = engine.run_until_events(u64::MAX, Duration::from_secs(120));
    assert_eq!(report.sink_events, u + q, "sink accounting");
    assert_eq!(
        report.slab_allocs + report.slab_recycled,
        3 * u + 2 * q,
        "attaching the second query must not add a maintainer's worth of seals"
    );
}

#[test]
fn linear_road_conforms_fused_and_unfused() {
    // 12 operators, multi-stream dispatcher, long fusable chains. The
    // accident path's emissions depend on cross-replica interleaving, so
    // LR pins the conservation laws per cell rather than cross-config
    // equality.
    conformance("LR", vec![2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1], 1500, false);
}
