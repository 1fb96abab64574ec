//! The `BriskStream` system object: submit → optimize → execute.

use brisk_dag::{ExecutionGraph, ExecutionPlan, LogicalTopology};
use brisk_model::{Evaluation, Evaluator};
use brisk_numa::Machine;
use brisk_rlas::{optimize, OptimizedPlan, ScalingOptions};
use brisk_runtime::{AppRuntime, Engine, EngineConfig, RunReport};
use brisk_sim::{SimConfig, SimReport, Simulator};
use std::time::Duration;

/// Failure modes of plan construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// No placement satisfies the resource constraints even at replication
    /// one — the topology cannot run on this machine.
    NoFeasiblePlan,
    /// The threaded engine rejected the plan (e.g. too many replicas for
    /// host execution).
    Engine(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NoFeasiblePlan => write!(f, "no feasible execution plan"),
            PlanError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// An optimized plan plus its predicted performance.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Replication + placement chosen by RLAS.
    pub plan: ExecutionPlan,
    /// Modelled application throughput, tuples/sec.
    pub predicted_throughput: f64,
    /// The full model evaluation backing the prediction.
    pub evaluation: Evaluation,
    /// Scaling iterations RLAS ran.
    pub iterations: usize,
}

impl From<OptimizedPlan> for PlanReport {
    fn from(p: OptimizedPlan) -> PlanReport {
        PlanReport {
            plan: p.plan,
            predicted_throughput: p.throughput,
            evaluation: p.evaluation,
            iterations: p.iterations,
        }
    }
}

/// The system facade: a machine plus optimizer settings.
#[derive(Debug, Clone)]
pub struct BriskStream {
    machine: Machine,
    options: ScalingOptions,
}

impl BriskStream {
    /// A system over `machine` with default RLAS settings (compression
    /// ratio 5, replica budget = total cores).
    pub fn new(machine: Machine) -> BriskStream {
        BriskStream {
            machine,
            options: ScalingOptions::default(),
        }
    }

    /// Override the optimizer settings.
    pub fn with_options(machine: Machine, options: ScalingOptions) -> BriskStream {
        BriskStream { machine, options }
    }

    /// The machine plans are optimized for.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The active optimizer settings.
    pub fn options(&self) -> &ScalingOptions {
        &self.options
    }

    /// Optimize an execution plan for `topology` (profile-driven RLAS).
    pub fn submit(&mut self, topology: &LogicalTopology) -> Result<PlanReport, PlanError> {
        optimize(&self.machine, topology, &self.options)
            .map(PlanReport::from)
            .ok_or(PlanError::NoFeasiblePlan)
    }

    /// Evaluate an arbitrary plan (not necessarily RLAS's) under the model
    /// — the same fusion-aware objective [`BriskStream::submit`] optimizes
    /// (serialized fused chains, queue-crossing costs on unfused edges).
    pub fn evaluate(&self, topology: &LogicalTopology, plan: &ExecutionPlan) -> Evaluation {
        let graph = ExecutionGraph::new(topology, &plan.replication, plan.compress_ratio);
        Evaluator::saturated(&self.machine)
            .fused_engine()
            .evaluate(&graph, &plan.placement)
    }

    /// "Measure" a plan by simulating it on the virtual machine: this is
    /// where the machine's Formula-2 fetch costs are charged per tuple.
    ///
    /// With `config.fusion` set, the discrete-event simulator collapses
    /// the plan's fusion chains exactly like the engine does (fused
    /// members run serialized inside their host's executor, no queue or
    /// fetch stall on fused edges), so the simulated rate tracks the
    /// fusion-aware prediction from [`BriskStream::submit`]/
    /// [`BriskStream::evaluate`]. With it clear (the default), every
    /// replica is its own pipelined executor with real queues — the
    /// engine with `EngineConfig::fusion` disabled — and the simulated
    /// rate can exceed the fusion-aware prediction on fusable plans
    /// (pipelined chains out-run serialized ones, queue costs aside).
    pub fn simulate(
        &self,
        topology: &LogicalTopology,
        plan: &ExecutionPlan,
        config: SimConfig,
    ) -> Result<SimReport, String> {
        let graph = ExecutionGraph::new(topology, &plan.replication, plan.compress_ratio);
        Ok(Simulator::new(&self.machine, &graph, &plan.placement, config)?.run())
    }

    /// Execute a real application under the plan on this host's threaded
    /// engine for `duration`. The engine does not emulate the system's
    /// machine: the plan's placement decides which edges fuse (only
    /// collocated pairs may) and is checked against the machine — a plan
    /// naming a socket it lacks is a [`PlanError::Engine`] — but nothing
    /// is slowed down to that machine's remote-fetch latencies; use
    /// [`BriskStream::simulate`] for those.
    pub fn execute(
        &self,
        app: AppRuntime,
        plan: &ExecutionPlan,
        config: EngineConfig,
        duration: Duration,
    ) -> Result<RunReport, PlanError> {
        let engine =
            Engine::with_plan(app, plan, &self.machine, config).map_err(PlanError::Engine)?;
        Ok(engine.run_for(duration))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_dag::{CostProfile, TopologyBuilder};

    fn pipeline() -> LogicalTopology {
        let mut b = TopologyBuilder::new("p");
        let s = b.add_spout("s", CostProfile::new(150.0, 20.0, 32.0, 64.0));
        let x = b.add_bolt("x", CostProfile::new(450.0, 30.0, 32.0, 64.0));
        let k = b.add_sink("k", CostProfile::new(50.0, 10.0, 16.0, 16.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.build().expect("valid")
    }

    #[test]
    fn submit_produces_feasible_plan() {
        let machine = Machine::server_b().restrict_sockets(2);
        let mut sys = BriskStream::new(machine);
        let t = pipeline();
        let report = sys.submit(&t).expect("feasible");
        assert!(report.plan.placement.is_complete());
        assert!(report.predicted_throughput > 0.0);
        assert!(report.plan.total_replicas() <= sys.machine().total_cores());
    }

    #[test]
    fn evaluate_matches_submit_prediction() {
        let machine = Machine::server_b().restrict_sockets(2);
        let mut sys = BriskStream::new(machine);
        let t = pipeline();
        let report = sys.submit(&t).expect("feasible");
        let eval = sys.evaluate(&t, &report.plan);
        assert!((eval.throughput - report.predicted_throughput).abs() < 1.0);
    }

    #[test]
    fn simulate_lands_near_prediction() {
        let machine = Machine::server_b().restrict_sockets(2);
        let mut sys = BriskStream::with_options(
            Machine::server_b().restrict_sockets(2),
            ScalingOptions {
                compress_ratio: 2,
                ..ScalingOptions::default()
            },
        );
        let _ = machine;
        let t = pipeline();
        let report = sys.submit(&t).expect("feasible");
        let sim = sys
            .simulate(
                &t,
                &report.plan,
                SimConfig {
                    noise_sigma: 0.0,
                    horizon_ns: 50_000_000,
                    warmup_ns: 10_000_000,
                    ..SimConfig::default()
                },
            )
            .expect("simulates");
        let rel =
            (sim.throughput - report.predicted_throughput).abs() / report.predicted_throughput;
        assert!(
            rel < 0.15,
            "sim {} vs predicted {} (rel {rel})",
            sim.throughput,
            report.predicted_throughput
        );
    }

    #[test]
    fn fused_simulation_tracks_the_fused_prediction() {
        // submit() scores plans with the fused-engine objective; a
        // simulation that collapses the same chains must land near that
        // prediction even when the plan fuses aggressively (compression 1
        // keeps single-replica chains fusable).
        let mut sys = BriskStream::with_options(
            Machine::server_b().restrict_sockets(2),
            ScalingOptions {
                compress_ratio: 2,
                ..ScalingOptions::default()
            },
        );
        let t = pipeline();
        let report = sys.submit(&t).expect("feasible");
        let sim = sys
            .simulate(
                &t,
                &report.plan,
                SimConfig {
                    noise_sigma: 0.0,
                    horizon_ns: 50_000_000,
                    warmup_ns: 10_000_000,
                    fusion: true,
                    ..SimConfig::default()
                },
            )
            .expect("simulates");
        let rel =
            (sim.throughput - report.predicted_throughput).abs() / report.predicted_throughput;
        assert!(
            rel < 0.15,
            "fused sim {} vs predicted {} (rel {rel})",
            sim.throughput,
            report.predicted_throughput
        );
    }

    #[test]
    fn infeasible_topology_reports_error() {
        // One-core machine cannot host a three-operator pipeline.
        let machine = brisk_numa::MachineBuilder::new("tiny")
            .sockets(1)
            .cores_per_socket(1)
            .clock_ghz(1.0)
            .build();
        let mut sys = BriskStream::new(machine);
        let t = pipeline();
        assert!(matches!(sys.submit(&t), Err(PlanError::NoFeasiblePlan)));
    }
}
