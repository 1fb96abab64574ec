//! The load against the real engine: the generated input, and with it every
//! count and digest, must not depend on how the spout is replicated.

use brisk_benchmark::load::{Input, LoadConfig, Windows};
use brisk_benchmark::run::engine_config;
use brisk_benchmark::workload;
use brisk_runtime::{Engine, RunLimit};
use std::time::Duration;

fn sized_run(name: &str, replication: Vec<usize>, events: u64) -> (u64, u64, (u64, u64, u64)) {
    let w = workload::find(name).expect("known workload");
    let (app, shared) = (w.install)(
        (w.app)(),
        LoadConfig {
            seed: 7,
            input: Input::Sized(events),
            windows: Windows::NONE,
        },
    );
    let report = Engine::new(app, replication, engine_config(2))
        .expect("executable")
        .run(RunLimit::Events {
            events: u64::MAX,
            timeout: Duration::from_secs(60),
        });
    let (mut emitted, mut expected) = (0, 0);
    for s in shared.spouts.lock().expect("spout tallies").iter() {
        emitted += s.emitted;
        expected += s.expected_sink;
    }
    let mut digest = brisk_benchmark::load::Digest::default();
    for s in shared.sinks.lock().expect("sink tallies").iter() {
        digest.merge(&s.digest);
    }
    assert_eq!(
        digest.count, report.sink_events,
        "{name}: sink and engine agree"
    );
    (emitted, expected, (digest.count, digest.xor, digest.sum))
}

#[test]
fn word_count_input_is_independent_of_spout_replication() {
    let one = sized_run("wc", vec![1, 1, 1, 1, 1], 3_001);
    let three = sized_run("wc", vec![3, 1, 2, 2, 1], 3_001);
    assert_eq!(one.0, 3_001);
    assert_eq!(one.1, 30_010, "ten words per sentence");
    assert_eq!(one.2 .0, one.1, "conservation");
    assert_eq!(one, three);
}

#[test]
fn spike_detection_and_linear_road_conserve_under_replication() {
    let one = sized_run("sd", vec![1, 1, 1, 1, 1], 5_000);
    let two = sized_run("sd", vec![2, 1, 2, 2, 1], 5_000);
    assert_eq!(one.2 .0, 5_000);
    assert_eq!(one, two);

    let one = sized_run("lr", vec![1; 12], 5_000);
    let mut replication = vec![1; 12];
    replication[0] = 2;
    replication[8] = 3;
    let more = sized_run("lr", replication, 5_000);
    // No accident in 5000 events, so the law needs no content-dependent term.
    assert_eq!(one.2 .0, one.1);
    assert_eq!(one, more);
}
