//! The repo benchmark. See `README.md` in this directory.
#![deny(deprecated)]

pub mod estimator;
pub mod host;
pub mod layers;
pub mod load;
pub mod run;
pub mod spec;
pub mod trace;
pub mod workload;
