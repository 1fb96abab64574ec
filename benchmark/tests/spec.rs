//! `BENCHMARK.json` is generated from `spec.rs`; the committed file must be
//! that output, and must stay inside the driver's limits.

use brisk_benchmark::{spec, workload};

#[test]
fn the_committed_benchmark_json_is_the_generated_one() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        committed,
        spec::benchmark_json(),
        "regenerate with `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --emit-spec > BENCHMARK.json`"
    );
}

#[test]
fn names_units_and_bounds_are_inside_the_drivers_limits() {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut names: Vec<&str> = Vec::new();
    for w in &workload::ALL {
        assert!(name_ok(w.name), "{}", w.name);
        assert!(
            w.why.chars().count() <= 200 && !w.why.contains('\n'),
            "{}: why too long",
            w.name
        );
        names.push(w.name);
    }
    for (name, unit, better, bound) in spec::END_TO_END {
        assert!(name_ok(name) && unit_ok(unit), "{name} {unit}");
        assert!(better == "higher" || better == "lower");
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
        names.push(name);
    }
    for (name, unit, better) in spec::PER_LAYER {
        assert!(name_ok(name) && unit_ok(unit), "{name} {unit}");
        assert!(better == "higher" || better == "lower");
        names.push(name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    assert!(spec::END_TO_END
        .iter()
        .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == "lower"));
    assert!((1..=60).contains(&spec::RUN_SECONDS));
    assert!(spec::benchmark_json().len() <= 64 * 1024);
}
