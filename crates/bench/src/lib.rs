//! # brisk-bench
//!
//! The experiment harness: one function (and one binary) per table and
//! figure of the paper's evaluation (Section 6). Each experiment prints a
//! Markdown fragment with our measured/estimated numbers next to the
//! paper's published values, so EXPERIMENTS.md can be regenerated with
//! `cargo run --release -p brisk-bench --bin all_experiments`.
//!
//! Absolute numbers are not expected to match the paper — the substrate here
//! is a calibrated simulator, not two eight-socket servers — but the
//! *shapes* (who wins, by what factor, where the knees are) are asserted by
//! the integration tests in `tests/`.

pub mod experiments;
pub mod harness;
pub mod paper;

pub use harness::{latency_sim, plan_for, standard_options, standard_sim, PLAN_NODE_BUDGET};
