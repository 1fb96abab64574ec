//! Topologically sorted iterative scaling (Algorithm 1 of the paper).
//!
//! RLAS optimizes replication and placement *together*: placement determines
//! each operator's capacity (via NUMA distances), and capacities determine
//! which operators are over-supplied bottlenecks whose replication must
//! grow. The loop:
//!
//! 1. Start with one replica per operator (Figure 4, label (0)), or a caller
//!    supplied warm start (the Appendix D speed-up).
//! 2. Optimize placement with the B&B search; remember the plan if it beats
//!    the best one seen.
//! 3. Walk operators in **reverse topological order** (sink towards spout);
//!    grow the first bottleneck's replication by its over-supply ratio
//!    `ceil(ri / ro)`.
//! 4. Repeat until placement fails (machine full), nothing is over-supplied,
//!    or the replica budget is exhausted.

use crate::placement::{
    optimize_placement, optimize_placement_seeded, PlacementOptions, PlacementResult,
};
use brisk_dag::{ExecutionGraph, ExecutionPlan, FusionPlan, LogicalTopology};
use brisk_model::{Evaluation, Evaluator, TfPolicy};
use brisk_numa::Machine;

/// Executor threads a replication spawns, judging collocation
/// *optimistically* (placement unknown, every fusable pair assumed
/// collocated): operator-chain fusion runs fused-away replicas inline on
/// their hosts, so they cost no thread. The replica budget constrains the
/// spawned-thread count — fusing a chain frees budget the scaler can
/// spend on more replicas elsewhere (the fusion ↔ parallelism trade).
/// This optimistic count is a fast pre-filter; candidates are re-charged
/// against their **actual** placement ([`placed_executors`]) before
/// adoption, since a placement that splits a pair spawns the extra
/// threads after all.
pub fn spawned_executors(topology: &LogicalTopology, replication: &[usize]) -> usize {
    FusionPlan::compute(topology, replication, None).spawned_executors(replication)
}

/// Executor threads the engine will actually spawn for `placement`: pairs
/// the placement splits across sockets do not fuse and pay full threads.
pub fn placed_executors(graph: &ExecutionGraph<'_>, placement: &brisk_dag::Placement) -> usize {
    FusionPlan::from_graph(graph, placement).spawned_executors(graph.replication())
}

/// Options for the full RLAS optimization.
#[derive(Debug, Clone)]
pub struct ScalingOptions {
    /// Replicas fused per scheduling unit (heuristic 3). The paper uses 5
    /// as a good throughput/runtime trade-off (Table 7).
    pub compress_ratio: usize,
    /// Executor budget; defaults to the machine's total core count.
    /// Counted against [`spawned_executors`], not raw replicas: replicas a
    /// [`FusionPlan`] fuses away ride their hosts for free, so fusing a
    /// chain frees budget for replication elsewhere.
    ///
    /// The budget is a *concurrency* constraint, not a thread count: the
    /// engine's one executor is a work-stealing pool, every spawned
    /// executor is one schedulable task on it, and the pool's worker count
    /// — not the plan — caps how many run at once. A spawned executor only
    /// sustains its modelled rate when it effectively owns a core, so the
    /// machine's core count is the right default; a plan that exceeds the
    /// cores it actually gets degrades gracefully (tasks time-share
    /// workers) rather than oversubscribing threads.
    pub max_total_replicas: Option<usize>,
    /// Maximum scaling iterations (safety bound; the replica budget normally
    /// terminates the loop first).
    pub max_iterations: usize,
    /// Warm-start replication per operator (Appendix D: "start from a
    /// reasonably large DAG configuration").
    pub initial_replication: Option<Vec<usize>>,
    /// Warm-start *plan* for incremental re-search: the scaling loop starts
    /// from this plan's replication (unless [`initial_replication`] is also
    /// set, which wins) and, whenever the candidate replication and
    /// compress ratio match the warm plan's, its placement is installed as
    /// the B&B incumbent before the search opens — re-optimization after a
    /// cost-model recalibration then prunes against the running plan from
    /// node one and can never return anything the model scores worse.
    ///
    /// [`initial_replication`]: ScalingOptions::initial_replication
    pub warm_start: Option<ExecutionPlan>,
    /// Final refinement: up to this many hill-climb steps, each either a
    /// single-replica shift from a low-pressure operator towards the
    /// binding one, or — when no shift improves and budget remains — a
    /// single-replica growth of a binding operator (0 disables).
    pub hill_climb_steps: usize,
    /// B&B options forwarded to every placement call.
    pub placement: PlacementOptions,
}

impl Default for ScalingOptions {
    fn default() -> Self {
        ScalingOptions {
            compress_ratio: 5,
            max_total_replicas: None,
            max_iterations: 256,
            initial_replication: None,
            warm_start: None,
            hill_climb_steps: 4,
            placement: PlacementOptions::default(),
        }
    }
}

/// A fully optimized execution plan with its model evaluation.
#[derive(Debug, Clone)]
pub struct OptimizedPlan {
    /// Replication + placement.
    pub plan: ExecutionPlan,
    /// Modelled throughput in tuples/sec under the *relative-location*
    /// policy with operator fusion modelled — what the fusing engine will
    /// actually execute (even for the `RLAS_fix` ablations, so numbers
    /// are comparable).
    pub throughput: f64,
    /// Evaluation backing `throughput`.
    pub evaluation: Evaluation,
    /// Scaling iterations executed.
    pub iterations: usize,
    /// Total B&B nodes explored across iterations.
    pub explored_nodes: usize,
}

impl OptimizedPlan {
    /// Rebuild the execution graph this plan was optimized over.
    pub fn graph<'t>(&self, topology: &'t LogicalTopology) -> ExecutionGraph<'t> {
        ExecutionGraph::new(topology, &self.plan.replication, self.plan.compress_ratio)
    }
}

/// Run full RLAS (scaling + placement) for `topology` on `machine`.
pub fn optimize(
    machine: &Machine,
    topology: &LogicalTopology,
    options: &ScalingOptions,
) -> Option<OptimizedPlan> {
    optimize_with_policy(machine, topology, TfPolicy::RelativeLocation, options)
}

/// Run RLAS but let the optimizer believe a fixed fetch-cost policy
/// (`RLAS_fix(L)` = [`TfPolicy::AlwaysRemote`], `RLAS_fix(U)` =
/// [`TfPolicy::NeverRemote`]); the returned plan is **re-evaluated** under
/// the true relative-location model so ablations are compared on actual
/// predicted performance (Figure 12's methodology).
pub fn optimize_with_policy(
    machine: &Machine,
    topology: &LogicalTopology,
    policy: TfPolicy,
    options: &ScalingOptions,
) -> Option<OptimizedPlan> {
    let evaluator = Evaluator::saturated(machine).with_policy(policy);
    let budget = options
        .max_total_replicas
        .unwrap_or_else(|| machine.total_cores());

    let mut replication = options
        .initial_replication
        .clone()
        .or_else(|| options.warm_start.as_ref().map(|w| w.replication.clone()))
        .unwrap_or_else(|| vec![1; topology.operator_count()]);
    assert_eq!(replication.len(), topology.operator_count());

    // The warm placement seeds the B&B incumbent whenever a candidate's
    // shape matches the warm plan's — usually iteration 0, where it makes
    // the re-search incremental.
    let warm_seed = |replication: &[usize]| -> Option<&brisk_dag::Placement> {
        options.warm_start.as_ref().and_then(|w| {
            (w.replication == *replication && w.compress_ratio == options.compress_ratio)
                .then_some(&w.placement)
        })
    };

    // The whole search — greedy scaling, balanced candidate, hill-climb —
    // scores plans under the *search policy's own* model, so every policy
    // gets identical search machinery and the ablations measure the cost
    // model, not unequal search effort. Only the final winner is re-scored
    // under the true relative-location model (Figure 12's methodology).
    let mut best: Option<OptimizedPlan> = None;
    let mut explored_total = 0usize;

    // Every placement call carries the executor budget: placement decides
    // which fusable pairs collocate (and so which replicas ride free), so
    // the B&B must only return placements whose spawned threads fit.
    let placement_options = PlacementOptions {
        max_executors: Some(budget),
        ..options.placement
    };

    // Operators excluded from greedy growth. Throughput *plateaus* are
    // tolerated — co-scaling needs them (a spout bump only pays off after
    // the bolt behind it catches up, and the node-capped B&B makes single
    // steps noisy) — but an operator bumped three times IN A ROW without
    // any throughput gain is banned and its futile replicas refunded: an
    // operator whose per-replica load replication cannot dilute (a
    // Broadcast consumer sees the full stream in every replica) stays
    // flagged as the bottleneck no matter how far it is grown, and would
    // otherwise absorb the entire executor budget one useless bump at a
    // time while the true bottleneck behind it starves.
    let mut banned = vec![false; topology.operator_count()];
    // Consecutive futile bumps of one operator: (op, count, replication
    // the op had before the streak began — restored if the op is banned).
    let mut futile_streak: Option<(usize, usize, usize)> = None;
    // The op grown to produce the current replication, the modelled
    // throughput it departed from, and its pre-bump replication.
    let mut last_step: Option<(usize, f64, usize)> = None;

    for iteration in 0..options.max_iterations {
        let graph = ExecutionGraph::new(topology, &replication, options.compress_ratio);
        let Some(result) = optimize_placement_seeded(
            &evaluator,
            &graph,
            &placement_options,
            warm_seed(&replication),
        ) else {
            break; // no valid placement: machine or thread budget is full
        };
        explored_total += result.explored;
        debug_assert!(placed_executors(&graph, &result.placement) <= budget);

        let better = best
            .as_ref()
            .map(|b| result.throughput > b.throughput)
            .unwrap_or(true);
        if better {
            best = Some(OptimizedPlan {
                plan: ExecutionPlan {
                    replication: replication.clone(),
                    compress_ratio: options.compress_ratio,
                    placement: result.placement.clone(),
                },
                throughput: result.throughput,
                evaluation: result.evaluation.clone(),
                iterations: iteration + 1,
                explored_nodes: explored_total,
            });
        }

        if let Some((grown_op, departed_from, repl_before)) = last_step.take() {
            if result.throughput > departed_from * (1.0 + 1e-9) {
                futile_streak = None; // progress: fresh plateau allowance
            } else {
                let (count, streak_base) = match futile_streak {
                    Some((op, n, base)) if op == grown_op => (n + 1, base),
                    _ => (1, repl_before),
                };
                if count >= 3 {
                    // Growth provably isn't paying: stop considering the
                    // operator and refund the executor budget the futile
                    // streak consumed, then re-plan from the trimmed shape.
                    banned[grown_op] = true;
                    replication[grown_op] = streak_base;
                    futile_streak = None;
                    continue;
                }
                futile_streak = Some((grown_op, count, streak_base));
            }
        }

        match next_replication(topology, &result, &replication, budget, &banned) {
            Some((next, grown_op)) => {
                last_step = Some((grown_op, result.throughput, replication[grown_op]));
                replication = next;
            }
            None => break, // no bottleneck to scale or budget exhausted
        }
    }

    // Final candidate: a rate-balanced replication (budget split across
    // operators proportionally to modelled load). The iterative greedy can
    // paint itself into a corner on tight budgets; this candidate is cheap
    // insurance and the better of the two plans wins.
    if let Some(balanced) = balanced_replication(topology, budget) {
        try_candidate(
            topology,
            balanced,
            options,
            &evaluator,
            &placement_options,
            Acceptance::StrictlyBetter,
            budget,
            &mut best,
            &mut explored_total,
        );
    }

    // Bounded hill-climb: shift single replicas from the least pressured
    // operators towards the binding one, and — only when no shift improves —
    // spend leftover budget growing the most pressured operator. Catches
    // mixes the ceil-ratio growth steps jump over. Growth is allowed to
    // accept throughput *plateaus* (the extra replica buys headroom a later
    // step cashes in, e.g. one sink replica per socket); trying shifts first
    // keeps flat growth from starving strictly-improving moves, and the
    // climb still terminates because plateau moves strictly grow the
    // replica total, which is capped by the budget.
    let reduced = PlacementOptions {
        max_nodes: (options.placement.max_nodes / 6).max(500),
        ..placement_options
    };
    for _ in 0..options.hill_climb_steps {
        let Some(current) = best.clone() else { break };
        // Rank operators by how close to binding they are. `operator_pressure`
        // alone won't do: it is defined as 0 for spouts (their demand is
        // external), yet in the saturated regime the spout is often exactly
        // the operator worth growing. Saturation (processed / capacity,
        // pooled over replicas) is 1.0 for every binding operator including
        // spouts, and pressure still ranks over-supplied operators (> 1)
        // first.
        let n_ops = topology.operator_count();
        let graph = current.graph(topology);
        let mut processed = vec![0.0f64; n_ops];
        let mut capacity = vec![0.0f64; n_ops];
        for (vid, vertex) in graph.vertices() {
            let rates = &current.evaluation.vertices[vid.0];
            processed[vertex.op.0] += rates.processed_rate;
            capacity[vertex.op.0] += rates.capacity;
        }
        let score: Vec<f64> = (0..n_ops)
            .map(|op| {
                let saturation = if capacity[op] > 0.0 {
                    processed[op] / capacity[op]
                } else {
                    0.0
                };
                current.evaluation.operator_pressure[op].max(saturation)
            })
            .collect();
        let mut by_pressure: Vec<usize> = (0..n_ops).collect();
        by_pressure.sort_by(|&a, &b| score[b].partial_cmp(&score[a]).expect("finite pressure"));
        let mut improved = false;
        'moves: for &dst in by_pressure.iter().take(2) {
            for &src in by_pressure.iter().rev() {
                if src == dst || current.plan.replication[src] <= 1 {
                    continue;
                }
                let mut candidate = current.plan.replication.clone();
                candidate[src] -= 1;
                candidate[dst] += 1;
                if try_candidate(
                    topology,
                    candidate,
                    options,
                    &evaluator,
                    &reduced,
                    Acceptance::StrictlyBetter,
                    budget,
                    &mut best,
                    &mut explored_total,
                ) {
                    improved = true;
                    break 'moves;
                }
            }
        }
        if !improved && spawned_executors(topology, &current.plan.replication) < budget {
            // No shift helps: grow toward the binding operators instead.
            for &dst in by_pressure.iter().take(2) {
                let mut candidate = current.plan.replication.clone();
                candidate[dst] += 1;
                if try_candidate(
                    topology,
                    candidate,
                    options,
                    &evaluator,
                    &reduced,
                    Acceptance::AllowPlateauGrowth,
                    budget,
                    &mut best,
                    &mut explored_total,
                ) {
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }

    // Re-score the winner under the true relative-location model (fusion
    // modelled, matching what the engine will execute) so ablation plans
    // are compared on actual predicted performance.
    if policy != TfPolicy::RelativeLocation {
        if let Some(b) = best.as_mut() {
            let truth = Evaluator::saturated(machine).fused_engine();
            let graph = b.graph(topology);
            let eval = truth.evaluate(&graph, &b.plan.placement);
            b.throughput = eval.throughput;
            b.evaluation = eval;
        }
    }

    best
}

/// How [`try_candidate`] decides whether a candidate replaces the incumbent.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Acceptance {
    /// Adopt only on strictly higher modelled throughput.
    StrictlyBetter,
    /// Also adopt on *equal* throughput when the candidate uses strictly
    /// more replicas: the extra capacity often unlocks a strictly better
    /// neighbour on the next climb step, and the growing total guarantees
    /// termination.
    AllowPlateauGrowth,
}

/// Evaluate one replication candidate end to end under the search policy's
/// model; adopt it when it beats the incumbent under `acceptance`. Returns
/// whether it was adopted.
#[allow(clippy::too_many_arguments)]
fn try_candidate(
    topology: &LogicalTopology,
    replication: Vec<usize>,
    options: &ScalingOptions,
    evaluator: &Evaluator<'_>,
    placement_options: &PlacementOptions,
    acceptance: Acceptance,
    budget: usize,
    best: &mut Option<OptimizedPlan>,
    explored_total: &mut usize,
) -> bool {
    // A shift or growth can break a fused pair and spawn extra threads;
    // the executor budget binds every candidate, not just the greedy path.
    // Optimistic pre-filter first (skips the B&B), actual-placement charge
    // after.
    if spawned_executors(topology, &replication) > budget {
        return false;
    }
    let graph = ExecutionGraph::new(topology, &replication, options.compress_ratio);
    let Some(result) = optimize_placement(evaluator, &graph, placement_options) else {
        return false;
    };
    *explored_total += result.explored;
    debug_assert!(placed_executors(&graph, &result.placement) <= budget);
    let better = match best.as_ref() {
        None => true,
        Some(b) => {
            result.throughput > b.throughput
                || (acceptance == Acceptance::AllowPlateauGrowth
                    && result.throughput >= b.throughput * (1.0 - 1e-12)
                    && replication.iter().sum::<usize>() > b.plan.total_replicas())
        }
    };
    if better {
        let iterations = best.as_ref().map(|b| b.iterations).unwrap_or(0) + 1;
        *best = Some(OptimizedPlan {
            plan: ExecutionPlan {
                replication,
                compress_ratio: options.compress_ratio,
                placement: result.placement,
            },
            throughput: result.throughput,
            evaluation: result.evaluation,
            iterations,
            explored_nodes: *explored_total,
        });
    }
    better
}

/// Budget split across operators proportionally to `relative input rate ×
/// local per-tuple cycles` (selectivities propagated from a unit spout
/// rate), at least one replica each. `None` when the budget cannot cover
/// one replica per operator.
pub fn balanced_replication(topology: &LogicalTopology, budget: usize) -> Option<Vec<usize>> {
    let n = topology.operator_count();
    if budget < n {
        return None;
    }
    // Propagate relative rates through selectivities.
    let mut rate = vec![0.0f64; n];
    for &op in topology.topological_order() {
        let spec = topology.operator(op);
        if topology.incoming_edges(op).next().is_none() {
            rate[op.0] = 1.0;
        }
        for (_, edge) in topology.outgoing_edge_refs(op) {
            let sel = spec.selectivity(None, &edge.stream);
            rate[edge.to.0] += rate[op.0] * sel;
        }
    }
    let weight: Vec<f64> = topology
        .operators()
        .map(|(id, spec)| (rate[id.0] * spec.cost.local_cycles()).max(1e-9))
        .collect();
    let total_weight: f64 = weight.iter().sum();
    let mut replication = vec![1usize; n];
    let extra = budget - n;
    let mut assigned = 0usize;
    for i in 0..n {
        let share = (extra as f64 * weight[i] / total_weight).floor() as usize;
        replication[i] += share;
        assigned += share;
    }
    // Hand leftovers to the heaviest operators.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weight[b].partial_cmp(&weight[a]).expect("finite weights"));
    let mut i = 0;
    while assigned < extra {
        replication[order[i % n]] += 1;
        assigned += 1;
        i += 1;
    }
    Some(replication)
}

/// One scaling step: find the bottleneck operator closest to the sinks and
/// grow its replication by `ceil(ri / ro)`; returns the new replication
/// plus the operator that was grown. Operators in `banned` — whose growth
/// steps repeatedly failed to improve throughput — are passed over in
/// favour of the next bottleneck.
fn next_replication(
    topology: &LogicalTopology,
    result: &PlacementResult,
    replication: &[usize],
    budget: usize,
    banned: &[bool],
) -> Option<(Vec<usize>, usize)> {
    // Budget is in executor threads: fused-away replicas ride for free.
    let total = spawned_executors(topology, replication);
    if total >= budget {
        return None;
    }
    let bottlenecks = result.evaluation.bottleneck_operators();

    // Reverse topological order: scale from sink towards spout.
    for &op in topology.topological_order().iter().rev() {
        if banned[op.0] {
            continue;
        }
        let Some(&(_, ratio)) = bottlenecks.iter().find(|&&(o, _)| o == op.0) else {
            continue;
        };
        let current = replication[op.0];
        let target = (current as f64 * ratio).ceil() as usize;
        let grown = target.max(current + 1);
        // Never hand one operator more than half the remaining budget in a
        // single step: the greedy ceil(ri/ro) growth otherwise exhausts the
        // machine on the first bottleneck and starves the ones behind it.
        let step_cap = (budget - total).div_ceil(2);
        let capped = grown.min(current + step_cap);
        if capped <= current {
            continue;
        }
        let mut next = replication.to_vec();
        next[op.0] = capped;
        return Some((next, op.0));
    }

    // No operator is over-supplied. Under the saturated-ingress regime the
    // external rate always exceeds spout capacity (back-pressure is what
    // throttles it, Section 6.1), so the spout itself is the remaining
    // bottleneck: grow it geometrically while budget remains (the best plan
    // seen so far is kept, so overshooting is harmless).
    for &op in topology.topological_order() {
        if topology.operator(op).kind == brisk_dag::OperatorKind::Spout && !banned[op.0] {
            let current = replication[op.0];
            let step = (current / 2).max(1).min(budget - total);
            if step == 0 {
                continue;
            }
            let mut next = replication.to_vec();
            next[op.0] = current + step;
            return Some((next, op.0));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use brisk_dag::{CostProfile, TopologyBuilder};
    use brisk_numa::MachineBuilder;

    fn machine(sockets: usize, cores: usize) -> Machine {
        MachineBuilder::new("scale")
            .sockets(sockets)
            .tray_size(4)
            .cores_per_socket(cores)
            .clock_ghz(1.0)
            .local_latency_ns(50.0)
            .one_hop_latency_ns(300.0)
            .max_hop_latency_ns(500.0)
            .local_bandwidth_gbps(50.0)
            .one_hop_bandwidth_gbps(10.0)
            .max_hop_bandwidth_gbps(5.0)
            .build()
    }

    /// Fast spout, slow bolt: the bolt is the bottleneck until it gets
    /// several replicas.
    fn unbalanced() -> LogicalTopology {
        let mut b = TopologyBuilder::new("u");
        let s = b.add_spout("spout", CostProfile::new(100.0, 0.0, 16.0, 64.0));
        let x = b.add_bolt("bolt", CostProfile::new(400.0, 0.0, 16.0, 64.0));
        let k = b.add_sink("sink", CostProfile::new(50.0, 0.0, 16.0, 64.0));
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.build().expect("valid")
    }

    #[test]
    fn scaling_grows_bottleneck_operator() {
        let m = machine(2, 8);
        let t = unbalanced();
        let opts = ScalingOptions {
            compress_ratio: 1,
            ..ScalingOptions::default()
        };
        let plan = optimize(&m, &t, &opts).expect("plan");
        let bolt = t.find("bolt").expect("exists");
        let spout = t.find("spout").expect("exists");
        assert!(
            plan.plan.replication[bolt.0] > plan.plan.replication[spout.0],
            "bolt ({}x) should out-replicate spout ({}x)",
            plan.plan.replication[bolt.0],
            plan.plan.replication[spout.0]
        );
        // The bolt needs ~4 replicas per spout replica.
        assert!(plan.plan.replication[bolt.0] >= 3);
    }

    #[test]
    fn scaled_plan_beats_singleton_plan() {
        let m = machine(2, 8);
        let t = unbalanced();
        let opts = ScalingOptions {
            compress_ratio: 1,
            ..ScalingOptions::default()
        };
        let scaled = optimize(&m, &t, &opts).expect("plan");
        let singleton = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 1,
                max_total_replicas: Some(3), // pin to one replica each
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        assert!(scaled.throughput > singleton.throughput * 1.5);
    }

    #[test]
    fn replica_budget_respected() {
        let m = machine(2, 4); // 8 cores
        let t = unbalanced();
        let plan = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 1,
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        // The budget is in executor threads: fused-away replicas are free.
        assert!(spawned_executors(&t, &plan.plan.replication) <= m.total_cores());
        // And the B&B core-feasibility check caps raw replicas too.
        assert!(plan.plan.total_replicas() <= m.total_cores());
    }

    #[test]
    fn explicit_budget_respected() {
        let m = machine(2, 8);
        let t = unbalanced();
        let plan = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 1,
                max_total_replicas: Some(5),
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        assert!(spawned_executors(&t, &plan.plan.replication) <= 5);
    }

    #[test]
    fn fused_chains_do_not_consume_executor_budget() {
        // s -> x (Forward) -> k: at equal s/x counts the pair fuses, so
        // the sum of replicas may exceed the budget while spawned threads
        // respect it — fusion buys parallelism the raw count could not.
        let mut b = TopologyBuilder::new("fwd");
        let s = b.add_spout("s", CostProfile::new(200.0, 0.0, 16.0, 64.0));
        let x = b.add_bolt("x", CostProfile::new(200.0, 0.0, 16.0, 64.0));
        let k = b.add_sink("k", CostProfile::new(10.0, 0.0, 16.0, 64.0));
        b.connect(
            s,
            brisk_dag::DEFAULT_STREAM,
            x,
            brisk_dag::Partitioning::Forward,
        );
        b.connect_shuffle(x, k);
        let t = b.build().expect("valid");
        assert_eq!(spawned_executors(&t, &[3, 3, 1]), 4, "pairs fuse");
        assert_eq!(spawned_executors(&t, &[3, 2, 1]), 6, "mismatch unfuses");
        // 16-core sockets so all 11 vertices can collocate (the B&B's
        // core check counts vertices, not threads).
        let m = machine(2, 16);
        // Warm-start on the fused shape: 5+5 replicas but only 6 threads
        // (each x rides its spout pair), pooling 5×1e9/400 = 12.5M — more
        // than any unfused split of 6 threads can reach (e.g. [3,2,1]
        // sustains 10M). The optimizer must accept the over-replicated
        // shape under the executor budget and keep it as the winner.
        let plan = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 1,
                max_total_replicas: Some(6),
                initial_replication: Some(vec![5, 5, 1]),
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        assert!(spawned_executors(&t, &plan.plan.replication) <= 6);
        assert!(
            plan.plan.total_replicas() > spawned_executors(&t, &plan.plan.replication),
            "expected at least one fused-away replica in {:?}",
            plan.plan.replication
        );
        assert!(
            plan.throughput >= 12.5e6 * (1.0 - 1e-9),
            "fused pairs should pool 12.5M, got {}",
            plan.throughput
        );
    }

    #[test]
    fn warm_start_converges_to_similar_plan() {
        let m = machine(2, 8);
        let t = unbalanced();
        let cold = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 1,
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        let warm = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 1,
                initial_replication: Some(vec![1, 3, 1]),
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        // `iterations` counts plan adoptions, and the fusion-aware scorer
        // can adopt one extra intermediate improvement on the warm path
        // even when both runs converge to the same plan — allow that
        // bookkeeping step while still requiring comparable convergence.
        assert!(warm.iterations <= cold.iterations + 1);
        assert!(warm.throughput >= cold.throughput * 0.9);
    }

    #[test]
    fn warm_started_research_not_worse_than_incumbent() {
        // Elastic re-planning path: optimize cold, perturb the cost model
        // (as recalibration would), re-optimize warm-started from the
        // incumbent plan. The warm search must score at least the incumbent
        // under the *new* model and not regress the cold re-search.
        let m = machine(2, 8);
        let t = unbalanced();
        let opts = ScalingOptions {
            compress_ratio: 1,
            ..ScalingOptions::default()
        };
        let cold = optimize(&m, &t, &opts).expect("plan");

        let mut drifted = t.clone();
        let bolt = t.find("bolt").expect("exists");
        let profile = t.operator(bolt).cost;
        drifted.set_cost(bolt, profile.scaled(3.0, 1.0));

        let warm = optimize(
            &m,
            &drifted,
            &ScalingOptions {
                warm_start: Some(cold.plan.clone()),
                ..opts.clone()
            },
        )
        .expect("plan");

        // Incumbent re-scored under the drifted model is the warm floor.
        let graph = ExecutionGraph::new(&drifted, &cold.plan.replication, opts.compress_ratio);
        let incumbent = Evaluator::saturated(&m)
            .fused_engine()
            .evaluate(&graph, &cold.plan.placement)
            .throughput;
        assert!(warm.throughput >= incumbent * (1.0 - 1e-9));
        let drifted_cold = optimize(&m, &drifted, &opts).expect("plan");
        assert!(warm.throughput >= drifted_cold.throughput * 0.95);
    }

    #[test]
    fn fix_u_ablation_not_better_than_rlas() {
        // Optimizing while ignoring RMA can only tie or lose once the plan
        // is scored with the real model.
        let m = machine(4, 2);
        let t = unbalanced();
        let opts = ScalingOptions {
            compress_ratio: 1,
            ..ScalingOptions::default()
        };
        let rlas = optimize(&m, &t, &opts).expect("plan");
        let fix_u = optimize_with_policy(&m, &t, TfPolicy::NeverRemote, &opts).expect("plan");
        assert!(fix_u.throughput <= rlas.throughput * (1.0 + 1e-9));
    }

    #[test]
    fn compression_reduces_vertex_count() {
        let m = machine(2, 6);
        let t = unbalanced();
        let fine = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 1,
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        let coarse = optimize(
            &m,
            &t,
            &ScalingOptions {
                compress_ratio: 4,
                ..ScalingOptions::default()
            },
        )
        .expect("plan");
        let fine_graph = fine.graph(&t);
        let coarse_graph = coarse.graph(&t);
        if coarse.plan.total_replicas() >= fine.plan.total_replicas() {
            assert!(coarse_graph.vertex_count() <= fine_graph.vertex_count());
        }
    }
}
