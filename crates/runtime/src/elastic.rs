//! The elastic controller: a continuous profile → recalibrate → re-plan →
//! migrate loop over a live engine.
//!
//! BriskStream's original life cycle is one-shot — profile operator costs,
//! run RLAS once, execute the plan forever. [`ElasticEngine`] closes the
//! loop: while an engine epoch runs, the controller samples each replica's
//! live tuple and busy-time counters ([`crate::EngineHandle::rates`]),
//! detects when the measured per-operator service times *drift* away from
//! what the cost model predicted for the running plan, re-calibrates the
//! cost model from the measurement
//! ([`brisk_model::recalibrate_from_measurement`]), re-runs RLAS
//! warm-started from the incumbent plan, and — only when the predicted
//! gain clears a migration-cost bar — migrates the running engine onto the
//! new plan without dropping or duplicating a single tuple:
//!
//! 1. **Pause** — [`crate::EngineHandle::request_migration`] flips the
//!    engine into harvest mode and stops the spouts at their next emission
//!    boundary.
//! 2. **Drain** — every bolt keeps consuming until all of its producers
//!    retired *and* its input queues are empty, so nothing in flight is
//!    lost.
//! 3. **Hand off state** — each drained replica surrenders its state
//!    through `extract_state` instead of running its `finish` hook.
//! 4. **Rewire** — a successor engine is built for the new plan over the
//!    *same* [`AppRuntime`]; harvested state is redistributed to the new
//!    replicas (keyed state follows the new KeyBy routing) and staged via
//!    [`Engine::preload_state`].
//! 5. **Resume** — the new epoch starts; preloaded state is installed into
//!    each operator before it consumes or produces anything.
//!
//! Skew-aware KeyBy re-weighting rides along: when the measured
//! per-replica load of a keyed consumer is visibly skewed, the successor
//! engine re-weights that operator's key-space shares
//! ([`Engine::set_keyby_weights`]) so hot replicas shed keys to cold ones.

use crate::operator::StateEntry;
use crate::partition::keyby_slot_table;
use crate::partition::route_keyed;
use crate::{AppRuntime, Engine, EngineConfig, HarvestedState, RunLimit, RunReport};
use brisk_dag::{ExecutionGraph, ExecutionPlan, LogicalTopology, OperatorId, Partitioning};
use brisk_model::{recalibrate_from_measurement, Evaluator, MeasuredOperator};
use brisk_numa::Machine;
use brisk_rlas::{optimize, ScalingOptions};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tuning knobs for the elastic control loop.
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// How often the controller samples live per-replica rates.
    pub sample_interval: Duration,
    /// Relative drift that arms a re-plan: the maximum over operators of
    /// `|measured service / (host factor × modelled service) − 1|`,
    /// host-factor-normalized so a uniform engine-vs-model bias (which a
    /// migration cannot fix) never fires the trigger.
    pub drift_threshold: f64,
    /// Consecutive drifted samples required before the controller actually
    /// re-plans (hysteresis against transient spikes).
    pub hysteresis: usize,
    /// Migration-cost bar: a freshly optimized plan is adopted only when
    /// its predicted throughput exceeds the incumbent's (re-scored under
    /// the recalibrated model) by this relative margin.
    pub min_gain: f64,
    /// Hard cap on migrations per run (safety valve against oscillation).
    pub max_migrations: usize,
    /// Skew-aware KeyBy re-weighting of the successor engine (see module
    /// docs); disable to keep uniform key-space shares across migrations.
    pub keyby_reweight: bool,
    /// Skew that arms re-weighting: max over replicas of
    /// `load / mean load` for a keyed consumer must exceed this.
    pub skew_trigger: f64,
    /// RLAS options for every re-search. The controller adds the warm
    /// start itself; leave [`ScalingOptions::warm_start`] unset.
    pub scaling: ScalingOptions,
    /// Deterministic override for tests and manual rescaling: after this
    /// many samples of the first epoch, re-plan and migrate once
    /// regardless of measured drift or predicted gain.
    pub force_replan_after: Option<usize>,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions {
            sample_interval: Duration::from_millis(100),
            drift_threshold: 0.5,
            hysteresis: 2,
            min_gain: 0.05,
            max_migrations: 4,
            keyby_reweight: true,
            skew_trigger: 1.25,
            scaling: ScalingOptions::default(),
            force_replan_after: None,
        }
    }
}

/// Everything one elastic run produced: per-epoch engine reports plus the
/// controller's own re-planning bookkeeping.
#[derive(Debug)]
pub struct ElasticReport {
    /// One engine report per epoch, in execution order.
    pub epochs: Vec<RunReport>,
    /// The plan each epoch executed (`plans.len() == epochs.len()`).
    pub plans: Vec<ExecutionPlan>,
    /// Migrations actually performed (plan adoptions).
    pub replans: usize,
    /// Re-searches triggered, including ones whose result did not clear
    /// the migration-cost bar.
    pub replan_attempts: usize,
    /// Wall-clock pause per migration: from the migration request to the
    /// successor engine's start (tuples flow on neither side during it).
    pub pauses: Vec<Duration>,
    /// Total wall-clock time across all epochs and pauses.
    pub elapsed: Duration,
}

impl ElasticReport {
    /// Tuples received by sink operators across all epochs.
    pub fn sink_events(&self) -> u64 {
        self.epochs.iter().map(|e| e.sink_events).sum()
    }

    /// End-to-end throughput across the whole run, pauses included.
    pub fn throughput(&self) -> f64 {
        self.sink_events() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// The longest migration pause (zero when no migration happened).
    pub fn max_pause(&self) -> Duration {
        self.pauses.iter().copied().max().unwrap_or(Duration::ZERO)
    }

    /// The last epoch's report — after a migration, the post-migration
    /// steady state.
    pub fn last_epoch(&self) -> &RunReport {
        self.epochs.last().expect("an elastic run has >= 1 epoch")
    }
}

/// An engine wrapped in the continuous re-planning controller. See the
/// module docs for the loop; [`ElasticEngine::run`] drives it to the run
/// limit and reports.
pub struct ElasticEngine {
    app: Arc<AppRuntime>,
    machine: Machine,
    config: EngineConfig,
    options: ElasticOptions,
    initial: ExecutionPlan,
}

impl ElasticEngine {
    /// Build the controller, choosing the initial plan by running RLAS on
    /// the app's profiled operator costs ([`ElasticEngine::with_plan`]
    /// skips that and starts from a caller-supplied plan).
    pub fn new(
        app: AppRuntime,
        machine: Machine,
        config: EngineConfig,
        options: ElasticOptions,
    ) -> Result<ElasticEngine, String> {
        let plan = optimize(&machine, &app.topology, &options.scaling)
            .ok_or("no feasible plan for the initial topology")?
            .plan;
        ElasticEngine::with_plan(app, machine, config, options, plan)
    }

    /// Build the controller around an externally optimized initial plan.
    pub fn with_plan(
        app: AppRuntime,
        machine: Machine,
        config: EngineConfig,
        options: ElasticOptions,
        initial: ExecutionPlan,
    ) -> Result<ElasticEngine, String> {
        let elastic = ElasticEngine {
            app: Arc::new(app),
            machine,
            config,
            options,
            initial,
        };
        // Refuse here what the first epoch's engine would refuse: an
        // invalid app, or a plan that does not fit the topology or names
        // a socket the machine lacks.
        elastic.build_engine(&elastic.initial, &mut Vec::new(), &HashMap::new())?;
        Ok(elastic)
    }

    /// The plan the first epoch will execute.
    pub fn initial_plan(&self) -> &ExecutionPlan {
        &self.initial
    }

    /// Run to `limit` under continuous re-planning. The limit spans the
    /// whole run: a `Duration` counts wall-clock across epochs and pauses,
    /// an `Events` target counts sink tuples across epochs.
    pub fn run(&self, limit: RunLimit) -> ElasticReport {
        let n_ops = self.app.topology.operator_count();
        let started = Instant::now();
        let mut calibrated = self.app.topology.clone();
        let mut plan = self.initial.clone();
        let mut preload: Vec<(usize, usize, Vec<StateEntry>)> = Vec::new();
        let mut keyby_weights: HashMap<usize, Vec<f64>> = HashMap::new();
        let mut report = ElasticReport {
            epochs: Vec::new(),
            plans: Vec::new(),
            replans: 0,
            replan_attempts: 0,
            pauses: Vec::new(),
            elapsed: Duration::ZERO,
        };
        let mut events_done = 0u64;
        let mut forced_done = false;
        let mut pause_started: Option<Instant> = None;

        while let Some(epoch_limit) = remaining_limit(limit, started.elapsed(), events_done) {
            let engine = match self.build_engine(&plan, &mut preload, &keyby_weights) {
                Ok(e) => e,
                // A re-planned shape the engine rejects (e.g. over the
                // thread safety cap) should be impossible — RLAS respects
                // the machine budget — but never strand harvested state:
                // stop re-planning and surface what ran so far.
                Err(_) if !report.epochs.is_empty() => break,
                Err(e) => panic!("initial plan rejected by the engine: {e}"),
            };
            let handle = engine.start(epoch_limit);
            if let Some(t0) = pause_started.take() {
                report.pauses.push(t0.elapsed());
            }
            report.plans.push(plan.clone());

            // Sample live rates until the epoch finishes or a migration is
            // adopted. Drift is judged on per-sample *windows* (deltas of
            // the cumulative counters), so the pre-drift prefix of a long
            // epoch cannot dilute the signal.
            let mut last = vec![MeasuredOperator::default(); n_ops];
            let mut drifted_samples = 0usize;
            let mut samples = 0usize;
            let mut adopted: Option<(ExecutionPlan, LogicalTopology)> = None;
            'sampling: while !handle.is_finished() {
                let t0 = Instant::now();
                while t0.elapsed() < self.options.sample_interval {
                    if handle.is_finished() {
                        break 'sampling;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                samples += 1;
                let cumulative = pool_measurement(n_ops, &handle.rates());
                let window: Vec<MeasuredOperator> = cumulative
                    .iter()
                    .zip(&last)
                    .map(|(c, l)| MeasuredOperator {
                        tuples: c.tuples - l.tuples,
                        busy_ns: c.busy_ns - l.busy_ns,
                    })
                    .collect();
                last = cumulative;

                let recal =
                    recalibrate_from_measurement(&self.machine, &calibrated, &plan, &window);
                let forced = !forced_done
                    && self
                        .options
                        .force_replan_after
                        .is_some_and(|n| samples >= n);
                if recal.max_drift() > self.options.drift_threshold {
                    drifted_samples += 1;
                } else {
                    drifted_samples = 0;
                }
                if !forced
                    && (drifted_samples < self.options.hysteresis
                        || report.replans >= self.options.max_migrations)
                {
                    continue;
                }

                report.replan_attempts += 1;
                forced_done |= forced;
                let warm = ScalingOptions {
                    warm_start: Some(plan.clone()),
                    ..self.options.scaling.clone()
                };
                let Some(new_plan) = optimize(&self.machine, &recal.topology, &warm) else {
                    // No feasible plan under the recalibrated model: keep
                    // running the incumbent, re-baseline drift detection.
                    calibrated = recal.topology;
                    drifted_samples = 0;
                    continue;
                };
                // Migration-cost bar: the incumbent re-scored under the
                // recalibrated model is what "doing nothing" yields.
                let graph =
                    ExecutionGraph::new(&recal.topology, &plan.replication, plan.compress_ratio);
                let incumbent = Evaluator::saturated(&self.machine)
                    .fused_engine()
                    .evaluate(&graph, &plan.placement)
                    .throughput;
                if forced || new_plan.throughput > incumbent * (1.0 + self.options.min_gain) {
                    adopted = Some((new_plan.plan, recal.topology));
                    break 'sampling;
                }
                // Gain too small to pay for a pause: absorb the
                // recalibration so the model tracks reality and the drift
                // trigger re-arms from the new baseline.
                calibrated = recal.topology;
                drifted_samples = 0;
            }

            match adopted {
                None => {
                    let epoch = handle.join();
                    report.epochs.push(epoch);
                    break;
                }
                Some((new_plan, new_topology)) => {
                    pause_started = Some(Instant::now());
                    handle.request_migration();
                    let (epoch, state) = handle.join_with_state();
                    events_done += epoch.sink_events;
                    keyby_weights = self.skew_weights(&epoch, &plan, &new_plan);
                    preload = self.redistribute(state, &new_plan, &keyby_weights);
                    report.epochs.push(epoch);
                    report.replans += 1;
                    calibrated = new_topology;
                    plan = new_plan;
                }
            }
        }

        report.elapsed = started.elapsed();
        report
    }

    /// Wire one epoch's engine: the plan's placement (it decides which
    /// edges fuse), carried KeyBy weights, and the staged migration state
    /// (drained into the engine).
    fn build_engine(
        &self,
        plan: &ExecutionPlan,
        preload: &mut Vec<(usize, usize, Vec<StateEntry>)>,
        keyby_weights: &HashMap<usize, Vec<f64>>,
    ) -> Result<Engine, String> {
        let mut engine = Engine::from_shared(
            self.app.clone(),
            plan.replication.clone(),
            self.config.clone(),
        )?;
        engine.place(plan, &self.machine)?;
        for (&op, weights) in keyby_weights {
            engine.set_keyby_weights(op, weights.clone())?;
        }
        for (op, replica, entries) in preload.drain(..) {
            engine.preload_state(op, replica, entries)?;
        }
        Ok(engine)
    }

    /// Skew-aware KeyBy re-weighting for the successor engine: keyed
    /// consumers whose replica count survives the migration and whose
    /// measured per-replica load is skewed beyond
    /// [`ElasticOptions::skew_trigger`] get inverse-load key-space weights.
    fn skew_weights(
        &self,
        epoch: &RunReport,
        old_plan: &ExecutionPlan,
        new_plan: &ExecutionPlan,
    ) -> HashMap<usize, Vec<f64>> {
        let mut weights = HashMap::new();
        if !self.options.keyby_reweight {
            return weights;
        }
        let rates = epoch.replica_rates();
        for (id, _) in self.app.topology.operators() {
            let op = id.0;
            if !self.is_keyed_consumer(id) || new_plan.replication[op] != old_plan.replication[op] {
                continue;
            }
            let loads: Vec<f64> = rates
                .iter()
                .filter(|r| r.op == op)
                .map(|r| r.tuples as f64)
                .collect();
            let mean = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
            if mean <= 0.0 {
                continue;
            }
            let max = loads.iter().copied().fold(0.0f64, f64::max);
            if max / mean <= self.options.skew_trigger {
                continue;
            }
            let w: Vec<f64> = loads
                .iter()
                .map(|&l| (mean / l.max(1.0)).clamp(0.25, 4.0))
                .collect();
            weights.insert(op, w);
        }
        weights
    }

    /// Spread harvested state over the successor plan's replicas. Keyed
    /// consumers route each entry by its key through the *new* engine's
    /// KeyBy routing (including any skew weights just computed), so keyed
    /// state lands where the successor will route that key's tuples.
    /// Everything else — spouts above all — spreads by `key % replicas`,
    /// which is the identity when the replica count is unchanged (spout
    /// entries are keyed by replica index).
    fn redistribute(
        &self,
        state: HarvestedState,
        new_plan: &ExecutionPlan,
        keyby_weights: &HashMap<usize, Vec<f64>>,
    ) -> Vec<(usize, usize, Vec<StateEntry>)> {
        let mut buckets: BTreeMap<(usize, usize), Vec<StateEntry>> = BTreeMap::new();
        for (op, _old_replica, entries) in state {
            let consumers = new_plan.replication[op];
            let keyed = self.is_keyed_consumer(OperatorId(op));
            let table = keyby_weights
                .get(&op)
                .map(|w| keyby_slot_table(consumers, w));
            for entry in entries {
                let replica = if keyed {
                    route_keyed(entry.0, consumers, table.as_deref())
                } else {
                    (entry.0 as usize) % consumers
                };
                buckets.entry((op, replica)).or_default().push(entry);
            }
        }
        buckets
            .into_iter()
            .map(|((op, replica), entries)| (op, replica, entries))
            .collect()
    }

    fn is_keyed_consumer(&self, op: OperatorId) -> bool {
        self.app
            .topology
            .incoming_edges(op)
            .any(|e| e.partitioning == Partitioning::KeyBy)
    }
}

/// Pool live per-replica rates into one [`MeasuredOperator`] per logical
/// operator (cumulative since engine start).
fn pool_measurement(n_ops: usize, rates: &[crate::ReplicaRate]) -> Vec<MeasuredOperator> {
    let mut pooled = vec![MeasuredOperator::default(); n_ops];
    for r in rates {
        pooled[r.op].tuples += r.tuples;
        pooled[r.op].busy_ns += r.busy_ns;
    }
    pooled
}

/// What is left of `limit` after `elapsed` wall-clock and `events_done`
/// sink tuples; `None` when the limit is spent.
fn remaining_limit(limit: RunLimit, elapsed: Duration, events_done: u64) -> Option<RunLimit> {
    match limit {
        RunLimit::Duration(d) => {
            let left = d.checked_sub(elapsed)?;
            (!left.is_zero()).then_some(RunLimit::Duration(left))
        }
        RunLimit::Events { events, timeout } => {
            let left = timeout.checked_sub(elapsed)?;
            if left.is_zero() || events_done >= events {
                return None;
            }
            Some(RunLimit::Events {
                events: events - events_done,
                timeout: left,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Collector, DynBolt, DynSpout, SpoutStatus, TupleView};
    use brisk_dag::{CostProfile, TopologyBuilder};
    use brisk_numa::MachineBuilder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn machine() -> Machine {
        MachineBuilder::new("elastic-test")
            .sockets(2)
            .tray_size(4)
            .cores_per_socket(4)
            .clock_ghz(1.0)
            .local_latency_ns(50.0)
            .one_hop_latency_ns(200.0)
            .max_hop_latency_ns(200.0)
            .local_bandwidth_gbps(50.0)
            .one_hop_bandwidth_gbps(10.0)
            .max_hop_bandwidth_gbps(5.0)
            .build()
    }

    /// Spout that emits a fixed budget and migrates its remaining budget.
    struct BudgetSpout {
        replica: u64,
        remaining: u64,
    }

    impl DynSpout for BudgetSpout {
        fn next(&mut self, c: &mut Collector) -> SpoutStatus {
            if self.remaining == 0 {
                return SpoutStatus::Exhausted;
            }
            self.remaining -= 1;
            let now = c.now_ns();
            c.send_default(self.remaining, now, self.remaining);
            SpoutStatus::Emitted(1)
        }

        fn extract_state(&mut self) -> Option<Vec<StateEntry>> {
            Some(vec![(self.replica, self.remaining.to_le_bytes().to_vec())])
        }

        fn install_state(&mut self, entries: Vec<StateEntry>) {
            self.remaining = entries
                .iter()
                .map(|(_, b)| u64::from_le_bytes(b.as_slice().try_into().expect("u64 state")))
                .sum();
        }
    }

    struct CountSink(Arc<AtomicU64>);

    impl DynBolt for CountSink {
        fn execute(&mut self, _t: &TupleView<'_>, _c: &mut Collector) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn budget_app(budget_per_replica: u64) -> (AppRuntime, Arc<AtomicU64>) {
        let mut b = TopologyBuilder::new("elastic");
        let s = b.add_spout("spout", CostProfile::new(300.0, 0.0, 16.0, 64.0));
        let x = b.add_bolt("bolt", CostProfile::new(600.0, 0.0, 16.0, 64.0));
        let k = b.add_sink("sink", CostProfile::new(50.0, 0.0, 16.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        let (s, x, k) = (
            t.find("spout").expect("spout"),
            t.find("bolt").expect("bolt"),
            t.find("sink").expect("sink"),
        );
        let seen = Arc::new(AtomicU64::new(0));
        let sink_seen = seen.clone();
        let app = AppRuntime::new(t)
            .spout(s, move |ctx| BudgetSpout {
                replica: ctx.replica as u64,
                remaining: budget_per_replica,
            })
            .bolt(x, |_| Relay)
            .sink(k, move |_| CountSink(sink_seen.clone()));
        (app, seen)
    }

    struct Relay;

    impl DynBolt for Relay {
        fn execute(&mut self, t: &TupleView<'_>, c: &mut Collector) {
            let v = *t.value::<u64>().expect("u64 payloads");
            c.send_default(v, t.event_ns, t.key);
        }
    }

    #[test]
    fn undrifted_run_stays_on_one_epoch() {
        // Drift detection is disarmed (infinite threshold) so the test pins
        // the no-migration path deterministically: these toy operators'
        // real (debug-build) costs need not match their cost profiles, and
        // an armed controller could legitimately decide to re-plan.
        let m = machine();
        let (app, seen) = budget_app(20_000);
        let elastic = ElasticEngine::new(
            app,
            m,
            EngineConfig::default(),
            ElasticOptions {
                sample_interval: Duration::from_millis(5),
                drift_threshold: f64::INFINITY,
                ..ElasticOptions::default()
            },
        )
        .expect("controller");
        let spouts = elastic.initial_plan().replication[0] as u64;
        let report = elastic.run(RunLimit::Duration(Duration::from_secs(30)));
        assert_eq!(report.epochs.len(), 1);
        assert_eq!(report.replans, 0);
        assert_eq!(report.sink_events(), 20_000 * spouts);
        assert_eq!(seen.load(Ordering::Relaxed), 20_000 * spouts);
        assert!(report.pauses.is_empty());
    }

    #[test]
    fn forced_migration_conserves_every_tuple() {
        let m = machine();
        let (app, seen) = budget_app(150_000);
        let elastic = ElasticEngine::new(
            app,
            m,
            EngineConfig::default(),
            ElasticOptions {
                sample_interval: Duration::from_millis(5),
                force_replan_after: Some(1),
                max_migrations: 1,
                ..ElasticOptions::default()
            },
        )
        .expect("controller");
        let spouts = elastic.initial_plan().replication[0] as u64;
        let budget = 150_000 * spouts;
        let report = elastic.run(RunLimit::Duration(Duration::from_secs(60)));
        assert_eq!(report.replans, 1, "the forced re-plan must migrate");
        assert_eq!(report.epochs.len(), 2);
        assert_eq!(report.pauses.len(), 1);
        assert_eq!(
            report.sink_events(),
            budget,
            "migration must neither drop nor duplicate tuples"
        );
        assert_eq!(seen.load(Ordering::Relaxed), budget);
        // The spouts' budget state actually moved: epoch 2 emitted the rest.
        assert!(report.epochs[1].sink_events > 0, "post-migration progress");
    }

    #[test]
    fn remaining_limit_arithmetic() {
        let d = RunLimit::Duration(Duration::from_secs(10));
        match remaining_limit(d, Duration::from_secs(4), 0) {
            Some(RunLimit::Duration(left)) => assert_eq!(left, Duration::from_secs(6)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(remaining_limit(d, Duration::from_secs(10), 0).is_none());
        let e = RunLimit::Events {
            events: 100,
            timeout: Duration::from_secs(10),
        };
        match remaining_limit(e, Duration::from_secs(1), 40) {
            Some(RunLimit::Events { events, timeout }) => {
                assert_eq!(events, 60);
                assert_eq!(timeout, Duration::from_secs(9));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(remaining_limit(e, Duration::from_secs(1), 100).is_none());
    }
}
