//! Migration conformance suite: exactly-once tuple accounting across a
//! live, mid-run plan migration, with operator fusion on and off, on a
//! two-worker pool.
//!
//! Every cell splits a deterministic sized workload across two engine
//! epochs joined by a migration pause: epoch one runs to a mid-budget
//! stop in harvest mode (`capture_state_on_stop` — the elastic
//! controller's pause), its harvested state is redistributed onto a
//! successor engine (`preload_state`), and epoch two runs the rest to
//! exhaustion. The laws that must survive the hand-off, whatever the
//! execution shape:
//!
//! * the two epochs' spouts emit exactly the configured input budget
//!   between them — the harvested source positions resume, never rewind
//!   or skip, and the stop really lands mid-budget (each epoch emits a
//!   strictly positive share);
//! * summed sink deliveries equal the app's content-independent
//!   expectation (WC: words per sentence × budget; FD: one prediction
//!   per transaction);
//! * for the deterministic linear apps the summed per-operator
//!   `processed`/`emitted` vectors are **identical across both cells** —
//!   the migration point and fusion shape may move tuples between epochs,
//!   never create or destroy them;
//! * a migration that *changes replica counts* conserves the same totals
//!   (rescaling redistributes budget shares and keyed state, uncovered
//!   new replicas get an empty install and claim no fresh budget);
//! * stateful operators hand their accumulations over bit-exactly: WC's
//!   migrated word counts, re-harvested at the end of epoch two, equal a
//!   never-migrated reference run's counts entry for entry;
//! * a migration racing spout exhaustion — the pause requested *after*
//!   the sized spouts already retired — still conserves the budget: the
//!   retired source positions are parked and folded into the harvest, so
//!   the successor epoch re-emits nothing;
//! * the elastic controller's own loop — drift, forced re-plan, live
//!   migration — conserves the same totals end to end.

use brisk_apps::{app_sized, word_count};
use brisk_dag::OperatorKind;
use brisk_runtime::{
    DriftPlan, ElasticEngine, ElasticOptions, Engine, EngineConfig, EngineConfigBuilder,
    HarvestedState, RunLimit, RunReport, Scheduler, StateEntry,
};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

const LONG: Duration = Duration::from_secs(120);

fn pool(fusion: bool) -> EngineConfigBuilder {
    EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers: 2 })
        .fusion(fusion)
}

/// Shallow queues keep the sized spouts backpressured, so the epoch-one
/// stop lands while the source is still mid-budget (the default
/// 4096-tuple-deep queues would swallow these budgets whole and the
/// "migration" would degenerate into a restart of a drained pipeline).
fn cell_config(fusion: bool) -> EngineConfig {
    pool(fusion).queue_capacity(2).jumbo_size(8).build()
}

/// The driver polls the sink-event stop once a millisecond, and a pool
/// drains these shallow-queue pipelines in a few milliseconds, so a small
/// budget can be spent before the stop lands — degenerating the "mid-budget
/// pause" into a plain restart of a drained pipeline. Scale the budgets so
/// epoch one lasts many polls in either build profile.
fn scaled(budget: u64) -> u64 {
    if cfg!(debug_assertions) {
        budget * 4
    } else {
        budget * 25
    }
}

/// Spread harvested entries over a successor replication by `key %
/// replicas` — the identity for spout entries (keyed by replica index)
/// when the count is unchanged, and a stable shard when it grows.
fn redistribute(
    state: HarvestedState,
    replication: &[usize],
) -> Vec<(usize, usize, Vec<StateEntry>)> {
    let mut buckets: BTreeMap<(usize, usize), Vec<StateEntry>> = BTreeMap::new();
    for (op, _old_replica, entries) in state {
        for entry in entries {
            let to = (entry.0 as usize) % replication[op];
            buckets.entry((op, to)).or_default().push(entry);
        }
    }
    buckets
        .into_iter()
        .map(|((op, replica), entries)| (op, replica, entries))
        .collect()
}

/// Run `abbrev` split across two epochs: epoch one to `epoch1_sink_target`
/// sink events under harvest mode, state redistributed onto
/// `replication2`, epoch two to exhaustion. Epoch two captures state too
/// when `capture_final` is set (for the bit-exact hand-off check).
fn migrate_once(
    abbrev: &str,
    replication1: &[usize],
    replication2: &[usize],
    budget: u64,
    epoch1_sink_target: u64,
    config: &EngineConfig,
    capture_final: bool,
) -> (RunReport, RunReport, HarvestedState) {
    let app1 = app_sized(abbrev, budget).expect("known app");
    let mut first = Engine::new(app1, replication1.to_vec(), config.clone()).expect("valid engine");
    first.capture_state_on_stop(true);
    let (r1, state) = first
        .start(RunLimit::Events {
            events: epoch1_sink_target,
            timeout: LONG,
        })
        .join_with_state();

    let app2 = app_sized(abbrev, budget).expect("known app");
    let mut second =
        Engine::new(app2, replication2.to_vec(), config.clone()).expect("valid engine");
    second.capture_state_on_stop(capture_final);
    for (op, replica, entries) in redistribute(state, replication2) {
        second.preload_state(op, replica, entries).expect("preload");
    }
    let (r2, final_state) = second
        .start(RunLimit::Events {
            events: u64::MAX,
            timeout: LONG,
        })
        .join_with_state();
    (r1, r2, final_state)
}

/// Summed spout emission across both epochs, from per-operator counters.
fn spout_emitted(abbrev: &str, r1: &RunReport, r2: &RunReport) -> (u64, u64) {
    let topology = brisk_apps::all_topologies()
        .into_iter()
        .find(|(a, _)| *a == abbrev)
        .map(|(_, t)| t)
        .expect("known app");
    let emitted = |r: &RunReport| -> u64 {
        topology
            .operators()
            .filter(|(_, s)| s.kind == OperatorKind::Spout)
            .map(|(id, _)| r.operator(id.0).emitted)
            .sum()
    };
    (emitted(r1), emitted(r2))
}

/// Both cells for one app: conservation per cell, plus cross-cell
/// equality of the summed per-operator counters.
fn both_cells(abbrev: &str, replication: &[usize], budget: u64, expected_sink: u64) {
    let epoch1_target = expected_sink / 3;
    let mut summed: Vec<(String, Vec<u64>, Vec<u64>, u64)> = Vec::new();
    for fusion in [true, false] {
        let ctx = format!("{abbrev} fusion={fusion}");
        let config = cell_config(fusion);
        let (r1, r2, _) = migrate_once(
            abbrev,
            replication,
            replication,
            budget,
            epoch1_target,
            &config,
            false,
        );
        let (in1, in2) = spout_emitted(abbrev, &r1, &r2);
        assert!(
            in1 > 0 && in1 < budget,
            "{ctx}: the pause must land mid-budget (epoch one emitted {in1}/{budget})"
        );
        assert_eq!(
            in1 + in2,
            budget,
            "{ctx}: migration lost or duplicated source tuples"
        );
        assert_eq!(
            r1.sink_events + r2.sink_events,
            expected_sink,
            "{ctx}: migration lost or duplicated sink tuples"
        );
        let n = r1.per_operator().len();
        let processed: Vec<u64> = (0..n)
            .map(|op| r1.operator(op).processed + r2.operator(op).processed)
            .collect();
        let emitted: Vec<u64> = (0..n)
            .map(|op| r1.operator(op).emitted + r2.operator(op).emitted)
            .collect();
        summed.push((ctx, processed, emitted, r1.sink_events + r2.sink_events));
    }
    let (ref_ctx, ref_processed, ref_emitted, ref_sink) = &summed[0];
    for (ctx, processed, emitted, sink) in &summed[1..] {
        assert_eq!(
            processed, ref_processed,
            "{ctx}: summed processed diverged from {ref_ctx}"
        );
        assert_eq!(
            emitted, ref_emitted,
            "{ctx}: summed emitted diverged from {ref_ctx}"
        );
        assert_eq!(sink, ref_sink, "{ctx}: summed sink_events diverged");
    }
}

#[test]
fn word_count_migration_conforms_fused_and_unfused() {
    // KeyBy fan-out, a 1:1 fused head, and a stateful counter whose
    // accumulations ride the hand-off.
    let budget = scaled(1200);
    both_cells(
        "WC",
        &[1, 1, 3, 2, 1],
        budget,
        budget * word_count::WORDS_PER_SENTENCE as u64,
    );
}

#[test]
fn fraud_detection_migration_conforms_fused_and_unfused() {
    // 2:2 Forward head (pairwise fusion in the fusion=on cell) and a KeyBy
    // predictor.
    let budget = scaled(2000);
    both_cells("FD", &[2, 2, 3, 1], budget, budget);
}

#[test]
fn rescaling_migration_conserves_the_budget() {
    // The successor plan grows the spout, parser and counter — harvested
    // budget shares shard onto the survivors, the uncovered new replicas
    // get an empty install and must claim no fresh budget of their own.
    let budget = scaled(1200);
    let expected_sink = budget * word_count::WORDS_PER_SENTENCE as u64;
    let (r1, r2, _) = migrate_once(
        "WC",
        &[1, 1, 3, 2, 1],
        &[2, 2, 3, 3, 1],
        budget,
        expected_sink / 3,
        &cell_config(false),
        false,
    );
    let (in1, in2) = spout_emitted("WC", &r1, &r2);
    assert!(in1 > 0 && in1 < budget, "pause must land mid-budget");
    assert_eq!(in1 + in2, budget, "rescaling duplicated the source");
    assert_eq!(
        r1.sink_events + r2.sink_events,
        expected_sink,
        "rescaling lost or duplicated sink tuples"
    );
}

/// Decode WC counter entries (count LE ‖ word bytes) into a merged map.
fn word_counts(state: &HarvestedState, counter_op: usize) -> HashMap<String, u64> {
    let mut counts = HashMap::new();
    for (op, _replica, entries) in state {
        if *op != counter_op {
            continue;
        }
        for (_key, bytes) in entries {
            let count = u64::from_le_bytes(bytes[..8].try_into().expect("count prefix"));
            let word = std::str::from_utf8(&bytes[8..]).expect("utf8 word");
            *counts.entry(word.to_string()).or_insert(0) += count;
        }
    }
    counts
}

#[test]
fn word_count_state_hands_off_bit_exact() {
    // The migrated run's final counter state — epoch-one counts carried
    // through `preload_state`, epoch two counted on top — must equal a
    // never-migrated reference run's, word for word and count for count.
    let budget = 1200;
    let replication = [1usize, 1, 3, 2, 1];
    let counter_op = word_count::topology().find("counter").expect("counter").0;
    let config = cell_config(false);

    let mut reference = Engine::new(
        app_sized("WC", budget).expect("WC"),
        replication.to_vec(),
        config.clone(),
    )
    .expect("valid engine");
    reference.capture_state_on_stop(true);
    let (ref_report, ref_state) = reference
        .start(RunLimit::Events {
            events: u64::MAX,
            timeout: LONG,
        })
        .join_with_state();
    let ref_counts = word_counts(&ref_state, counter_op);

    let (r1, r2, final_state) = migrate_once(
        "WC",
        &replication,
        &replication,
        budget,
        budget * word_count::WORDS_PER_SENTENCE as u64 / 2,
        &config,
        true,
    );
    let migrated_counts = word_counts(&final_state, counter_op);

    let total: u64 = ref_counts.values().sum();
    assert_eq!(
        total,
        budget * word_count::WORDS_PER_SENTENCE as u64,
        "reference counts cover every word"
    );
    assert_eq!(
        ref_report.sink_events,
        r1.sink_events + r2.sink_events,
        "migrated run delivers the reference sink volume"
    );
    assert_eq!(
        migrated_counts, ref_counts,
        "migrated counter state diverged from the never-migrated reference"
    );
}

/// Redistribute harvested stream-join state the way the live engine
/// routes it: window-index entries follow the KeyBy router (`mix_key %
/// replicas` — the replica that will receive the key's future tuples),
/// watermark bookkeeping fans out to every replica (each successor needs
/// the eviction lower bound; the merge takes per-origin maxima), the
/// digest parks on replica 0 (it merges additively on the next harvest),
/// and spout positions stay keyed by replica index.
fn sj_redistribute(
    state: HarvestedState,
    replication: &[usize],
    join_op: usize,
) -> Vec<(usize, usize, Vec<StateEntry>)> {
    let mut buckets: BTreeMap<(usize, usize), Vec<StateEntry>> = BTreeMap::new();
    for (op, _old_replica, entries) in state {
        for entry in entries {
            if op == join_op {
                match entry.1.first() {
                    Some(0 | 1) => {
                        let to = brisk_runtime::route_keyed(entry.0, replication[op], None);
                        buckets.entry((op, to)).or_default().push(entry);
                    }
                    Some(2) => {
                        for to in 0..replication[op] {
                            buckets.entry((op, to)).or_default().push(entry.clone());
                        }
                    }
                    _ => buckets.entry((op, 0)).or_default().push(entry),
                }
            } else {
                let to = (entry.0 as usize) % replication[op];
                buckets.entry((op, to)).or_default().push(entry);
            }
        }
    }
    buckets
        .into_iter()
        .map(|((op, replica), entries)| (op, replica, entries))
        .collect()
}

/// Merge every join replica's harvested digest into the run total.
fn sj_digest(state: &HarvestedState, join_op: usize) -> brisk_apps::stream_join::JoinDigest {
    let mut total = brisk_apps::stream_join::JoinDigest::default();
    for (op, _replica, entries) in state {
        if *op == join_op {
            total.merge(&brisk_apps::stream_join::JoinDigest::from_entries(entries));
        }
    }
    total
}

#[test]
fn stream_join_index_survives_migration_bit_exact() {
    // The migration-conformance cell for the join tier: pause a running
    // stream_join mid-budget, hand the sliding-window index (entries,
    // watermarks, digest) and both spouts' stream positions to a
    // successor engine, run to exhaustion, and demand the final match
    // digest be bit-identical to (a) a never-migrated reference run and
    // (b) the single-threaded oracle.
    use brisk_apps::stream_join;

    let budget = scaled(1200);
    let replication = [2usize, 3, 2, 3];
    let (left_total, right_total) = stream_join::side_totals(budget);
    let expected = stream_join::oracle(left_total, right_total);
    let join_op = stream_join::topology().find("join").expect("join").0;
    let config = cell_config(false);

    let mut reference = Engine::new(
        app_sized("SJ", budget).expect("SJ"),
        replication.to_vec(),
        config.clone(),
    )
    .expect("valid engine");
    reference.capture_state_on_stop(true);
    let (ref_report, ref_state) = reference
        .start(RunLimit::Events {
            events: u64::MAX,
            timeout: LONG,
        })
        .join_with_state();
    assert_eq!(
        sj_digest(&ref_state, join_op),
        expected,
        "reference run must reproduce the oracle multiset"
    );
    assert_eq!(ref_report.sink_events, expected.count);

    // Epoch one: stop mid-budget under harvest mode.
    let mut first = Engine::new(
        app_sized("SJ", budget).expect("SJ"),
        replication.to_vec(),
        config.clone(),
    )
    .expect("valid engine");
    first.capture_state_on_stop(true);
    let (r1, state) = first
        .start(RunLimit::Events {
            events: expected.count / 3,
            timeout: LONG,
        })
        .join_with_state();

    // Epoch two: the redistributed index finishes the stream.
    let mut second = Engine::new(
        app_sized("SJ", budget).expect("SJ"),
        replication.to_vec(),
        config.clone(),
    )
    .expect("valid engine");
    second.capture_state_on_stop(true);
    for (op, replica, entries) in sj_redistribute(state, &replication, join_op) {
        second.preload_state(op, replica, entries).expect("preload");
    }
    let (r2, final_state) = second
        .start(RunLimit::Events {
            events: u64::MAX,
            timeout: LONG,
        })
        .join_with_state();

    let (in1, in2) = spout_emitted("SJ", &r1, &r2);
    assert!(
        in1 > 0 && in1 < budget,
        "the pause must land mid-budget (epoch one emitted {in1}/{budget})"
    );
    assert_eq!(
        in1 + in2,
        budget,
        "migration lost or duplicated source tuples"
    );
    assert_eq!(
        r1.sink_events + r2.sink_events,
        expected.count,
        "migration lost or duplicated matched pairs"
    );
    assert_eq!(
        sj_digest(&final_state, join_op),
        expected,
        "migrated window index diverged from the never-migrated reference"
    );
}

#[test]
fn migration_racing_spout_exhaustion_conserves_the_budget() {
    // Deep (default) queues: the sized spouts flood their whole budget
    // in-flight and retire long before any pause. A migration requested
    // after that point must still hand the spent positions over — the
    // successor's spouts install them (or an empty share) and re-emit
    // nothing. Regression test for the retired-state fold: without it the
    // successor re-derives fresh factory budgets and doubles the input.
    let budget = 400;
    let expected_sink = budget * word_count::WORDS_PER_SENTENCE as u64;
    let config = pool(false).build();
    let replication = [1usize, 1, 2, 2, 1];
    let app = app_sized("WC", budget).expect("WC");
    let first = Engine::new(app, replication.to_vec(), config.clone()).expect("valid engine");
    let handle = first.start(RunLimit::Duration(LONG));
    // Wait until the spout has provably spent its whole budget.
    let deadline = std::time::Instant::now() + LONG;
    loop {
        let emitted: u64 = handle
            .rates()
            .iter()
            .filter(|r| r.op == 0)
            .map(|r| r.tuples)
            .sum();
        if emitted >= budget {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "spout never exhausted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    handle.request_migration();
    let (r1, state) = handle.join_with_state();
    assert!(
        state.iter().any(|(op, _, _)| *op == 0),
        "the exhausted spout's position must still be harvested"
    );

    let app2 = app_sized("WC", budget).expect("WC");
    let second = Engine::new(app2, replication.to_vec(), config).expect("valid engine");
    for (op, replica, entries) in redistribute(state, &replication) {
        second.preload_state(op, replica, entries).expect("preload");
    }
    let r2 = second.run_until_events(u64::MAX, LONG);
    let (in1, in2) = spout_emitted("WC", &r1, &r2);
    assert_eq!(in1, budget, "epoch one spent the whole budget");
    assert_eq!(in2, 0, "successor re-emitted a spent budget");
    assert_eq!(
        r1.sink_events + r2.sink_events,
        expected_sink,
        "lost or duplicated sink tuples"
    );
}

#[test]
fn elastic_drift_replans_and_conserves_every_tuple() {
    // The controller's whole loop under a drifting workload (no throughput
    // gate — that is the benchmark's business): a 150 µs/tuple cost step
    // lands on WC's parser an eighth of the way into the budget while the
    // word distribution shifts to Zipf 2.5; the controller must re-plan at
    // least once (forced at sample 4 if organic drift detection loses the
    // race) and the live migration must neither drop nor duplicate a tuple.
    let budget = 8_000;
    let machine = brisk_numa::Machine::server_a().restrict_sockets(2);
    let app = DriftPlan::new()
        .slow_after(1, budget / 8, Duration::from_micros(150))
        .instrument(word_count::app_sized_skewed(
            budget,
            Some((budget / 16, 2.5)),
        ));
    let scaling = brisk_rlas::ScalingOptions {
        compress_ratio: 2,
        max_total_replicas: Some(8),
        placement: brisk_rlas::PlacementOptions {
            max_nodes: 2_500,
            ..brisk_rlas::PlacementOptions::default()
        },
        ..brisk_rlas::ScalingOptions::default()
    };
    let initial = brisk_rlas::optimize(&machine, &app.topology, &scaling)
        .expect("feasible initial plan")
        .plan;
    // Shallow queues keep the spout back-pressured, so the source is still
    // live when the migration lands.
    let config = EngineConfig::builder()
        .queue_capacity(2)
        .jumbo_size(16)
        .build();
    let options = ElasticOptions {
        sample_interval: Duration::from_millis(25),
        min_gain: 0.02,
        max_migrations: 2,
        scaling,
        force_replan_after: Some(4),
        ..ElasticOptions::default()
    };
    let report = ElasticEngine::with_plan(app, machine, config, options, initial)
        .expect("controller")
        .run(RunLimit::Duration(LONG));

    assert!(report.replans >= 1, "drift must trigger a re-plan");
    let spout_emitted: u64 = report.epochs.iter().map(|e| e.operator(0).emitted).sum();
    assert_eq!(spout_emitted, budget, "source budget across epochs");
    assert_eq!(
        report.sink_events(),
        budget * word_count::WORDS_PER_SENTENCE as u64,
        "sink volume across epochs"
    );
}
