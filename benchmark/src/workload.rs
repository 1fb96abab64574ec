//! The three workloads: one application plus one planning problem each.

use crate::load::{self, LoadConfig, LoadShared};
use brisk_numa::Machine;
use brisk_runtime::AppRuntime;
use std::sync::Arc;

/// One workload.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists, one line, for `BENCHMARK.json`.
    pub why: &'static str,
    /// The application, with its own spout and sink still in place.
    pub app: fn() -> AppRuntime,
    /// Replace spout and sink with the benchmark's.
    pub install: fn(AppRuntime, LoadConfig) -> (AppRuntime, Arc<LoadShared>),
    /// Generate that many events outside any engine (the generator rung).
    pub generate: fn(u64, u64) -> u64,
    /// The machine the paper-scale plan (step 2) is optimized for.
    pub plan_machine: fn() -> Machine,
    /// Open-loop input rate of the paced phase, events/s, chosen by sweeping
    /// rates on the host the benchmark was defined on: inside the regime
    /// where the workload's latency windows agree with one another (see
    /// "Paced rates" in the README). Frozen here so that the offered load
    /// never follows the engine.
    pub paced_rate: u64,
    /// An operator whose output count depends on generated content and is
    /// therefore read from the run report instead of the conservation law
    /// (Linear Road's accident notifications).
    pub content_dependent_op: Option<&'static str>,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "wc",
        why: "Word Count: String split, hashing and allocation in the operator bodies do most of the work and fan-out 10 hits the Collector ten times per input; the planner does almost none.",
        app: brisk_apps::word_count::app,
        install: load::install::<load::Sentences>,
        generate: load::generate::<load::Sentences>,
        plan_machine: Machine::server_a,
        paced_rate: 25_000,
        content_dependent_op: None,
    },
    Workload {
        name: "sd",
        why: "Spike Detection: Copy payloads and sub-100 ns bodies, so runtime dispatch, batch seal, queue crossing and pairwise fusion do most of the work and the apps layer little.",
        app: brisk_apps::spike_detection::app,
        install: load::install::<load::Readings>,
        generate: load::generate::<load::Readings>,
        plan_machine: Machine::server_a,
        paced_rate: 1_500_000,
        content_dependent_op: None,
    },
    Workload {
        name: "lr",
        why: "Linear Road: twelve operators, multi-stream edges and a 600k-node plan search on Server B; loads the scheduler and dag fusion, and plan_time_s is almost all rlas + model.",
        app: brisk_apps::linear_road::app,
        install: load::install::<load::RoadEvents>,
        generate: load::generate::<load::RoadEvents>,
        // Server A takes ~28 s per call on this topology; Server B keeps the
        // planner-heavy workload inside the run budget.
        plan_machine: Machine::server_b,
        paced_rate: 15_000,
        content_dependent_op: Some("accident_notify"),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}
