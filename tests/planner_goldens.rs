//! Bit-identity goldens for the planner: the performance model's
//! `Evaluation` and the RLAS search's plans, pinned to the last `f64` bit.
//!
//! Four of the ten placement calls in the full-scale `lr` search stop at the
//! node cap, so the plan that search returns depends on *visit order*, and
//! visit order depends on every bound, best-fit rank and solution score
//! comparing exactly as before. A refactor of the model or the search must
//! therefore reproduce not "the same throughput within 1e-9" but the same
//! bit patterns — these tests are the tripwire.
//!
//! **Every constant below was generated at commit `77bf63e` (PR 17), before
//! the evaluator was split into a prepared model and a cursor**, by running
//! this file there and copying the "actual" values out of the failure
//! message. They must never be regenerated from a commit that also changes
//! `crates/model` or `crates/rlas/src/placement.rs`.

use briskstream::apps::{linear_road, spike_detection, word_count};
use briskstream::dag::{ExecutionGraph, LogicalTopology, Placement, VertexId};
use briskstream::model::{Evaluation, Evaluator, Ingress, TfPolicy};
use briskstream::numa::{Machine, SocketId};
use briskstream::rlas::{
    optimize, optimize_placement, spawned_executors, PlacementOptions, ScalingOptions,
};

/// The benchmark's three workloads: name, topology, paper machine.
fn workloads() -> [(&'static str, LogicalTopology, Machine); 3] {
    [
        ("wc", word_count::topology(), Machine::server_a()),
        ("sd", spike_detection::topology(), Machine::server_a()),
        ("lr", linear_road::topology(), Machine::server_b()),
    ]
}

// ---------------------------------------------------------------------
// (b) Evaluation digests
// ---------------------------------------------------------------------

/// SplitMix64: the test's own seeded generator, so the sampled placements
/// can never change under it.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every field of an evaluation, bit for bit.
    fn evaluation(&mut self, eval: &Evaluation) {
        self.word(eval.throughput.to_bits());
        for v in &eval.vertices {
            for field in [
                v.input_rate,
                v.capacity,
                v.processed_rate,
                v.output_rate,
                v.exec_ns,
                v.overhead_ns,
                v.state_ns,
                v.tf_ns,
                v.queue_ns,
            ] {
                self.word(field.to_bits());
            }
            self.word(u64::from(v.bottleneck));
        }
        for rate in &eval.edge_rates {
            self.word(rate.to_bits());
        }
        for pressure in &eval.operator_pressure {
            self.word(pressure.to_bits());
        }
    }
}

/// Seeded placements of `n` vertices over `sockets` sockets: the empty one,
/// everything on socket 0 (oversubscribed at scale), six partial ones at
/// fill rates 1/4, 1/2 and 3/4, and six complete ones.
fn sample_placements(n: usize, sockets: usize, rng: &mut SplitMix) -> Vec<Placement> {
    let mut out = vec![Placement::empty(n), Placement::all_on(n, SocketId(0))];
    for quarters in [1usize, 2, 3, 1, 2, 3, 4, 4, 4, 4, 4, 4] {
        let mut p = Placement::empty(n);
        for v in 0..n {
            if rng.below(4) < quarters {
                p.place(VertexId(v), SocketId(rng.below(sockets)));
            }
        }
        out.push(p);
    }
    out
}

/// The evaluator configurations the planner and its callers use, plus the
/// ablation policies and a finite ingress.
fn evaluators(machine: &Machine) -> [(&'static str, Evaluator<'_>); 8] {
    let base = Evaluator::saturated(machine);
    [
        ("plain", base),
        ("bounding", base.bounding()),
        ("fused_engine", base.fused_engine()),
        ("fusion_only", base.with_fusion(true)),
        (
            "always_remote_bounding",
            base.with_policy(TfPolicy::AlwaysRemote).bounding(),
        ),
        (
            "always_remote_fused",
            base.with_policy(TfPolicy::AlwaysRemote).fused_engine(),
        ),
        (
            "never_remote_fused",
            base.with_policy(TfPolicy::NeverRemote).fused_engine(),
        ),
        (
            "rate_fused",
            base.with_ingress(Ingress::Rate(250_000.0)).fused_engine(),
        ),
    ]
}

/// Replications the digest walks per workload: all ones (fully fusable
/// chains), a doubled shape (pairwise fusion where the app allows it) and
/// the replication the paper-scale plan settles on.
fn digest_shapes(name: &str, operators: usize) -> Vec<(Vec<usize>, usize)> {
    let paper: Vec<usize> = match name {
        "wc" => vec![4, 2, 11, 61, 33],
        "sd" => vec![4, 3, 54, 49, 3],
        _ => vec![1, 1, 1, 2, 1, 2, 2, 1, 25, 1, 1, 1],
    };
    assert_eq!(paper.len(), operators);
    vec![
        (vec![1; operators], 1),
        (vec![2; operators], 1),
        (vec![3; operators], 2),
        (paper, 5),
    ]
}

#[test]
fn evaluation_digests_match_the_parent_commit() {
    // Generated at 77bf63e (see the module docs).
    let pinned: [(&str, [u64; 8]); 3] = [
        (
            "wc",
            [
                0x203a52efc49050d1,
                0x2f010f41db927ec9,
                0xda8906b798533e8d,
                0x09a42331f3d17fda,
                0xd5f4b7136cd53b92,
                0xd2d12081a4ab90f1,
                0xec7bf59fe36b5d85,
                0x8b6f06a16a1bb9ba,
            ],
        ),
        (
            "sd",
            [
                0x4833f80d784d28d3,
                0xa3c0387aa6e524a9,
                0xd97609ef9a199a37,
                0x37f20f88f29d25d0,
                0x0840ecf7201f626a,
                0x8f7ffb1862ca3e87,
                0x457a4093db347e6f,
                0xc40abbbbf373901b,
            ],
        ),
        (
            "lr",
            [
                0x89ad9b0d02e596a1,
                0xe268f96666939c1e,
                0x3394deaef458d3c4,
                0xc07667f194727cc5,
                0xa25a599a67c07d45,
                0x7e38c3c437ef7bd4,
                0x46b5058df13c2410,
                0x2eeaffbd152c34ea,
            ],
        ),
    ];
    let mut actual = Vec::new();
    for (name, topology, machine) in workloads() {
        let mut digests = [0u64; 8];
        for (slot, (_, evaluator)) in evaluators(&machine).into_iter().enumerate() {
            let mut digest = Digest::new();
            let mut rng = SplitMix(0xb715_c057 + slot as u64);
            for (replication, compress) in digest_shapes(name, topology.operator_count()) {
                let graph = ExecutionGraph::new(&topology, &replication, compress);
                for placement in
                    sample_placements(graph.vertex_count(), machine.sockets(), &mut rng)
                {
                    digest.evaluation(&evaluator.evaluate(&graph, &placement));
                    digest.word(evaluator.bound(&graph, &placement).to_bits());
                }
            }
            digests[slot] = digest.0;
        }
        actual.push((name, digests));
    }
    assert_eq!(
        actual.as_slice(),
        pinned.as_slice(),
        "Evaluation bits drifted from the parent commit; actual: {actual:#x?}"
    );
}

// ---------------------------------------------------------------------
// (c) Search goldens
// ---------------------------------------------------------------------

fn render(placement: &Placement) -> String {
    (0..placement.len())
        .map(|v| match placement.socket_of(VertexId(v)) {
            Some(s) => char::from_digit(s.0 as u32, 36).expect("fewer than 36 sockets"),
            None => '-',
        })
        .collect()
}

/// One `optimize` call, as a line: replication, placement (one socket digit
/// per vertex), throughput bits, plan adoptions, B&B nodes over all calls.
fn scaling_row(
    name: &str,
    machine: &Machine,
    topology: &LogicalTopology,
    options: &ScalingOptions,
) -> String {
    let plan = optimize(machine, topology, options).expect("the machine hosts the workload");
    format!(
        "{name} replication={:?} placement={} throughput={:#018x} iterations={} nodes={}",
        plan.plan.replication,
        render(&plan.plan.placement),
        plan.throughput.to_bits(),
        plan.iterations,
        plan.explored_nodes,
    )
}

/// One `optimize_placement` call, as a line: placement, throughput bits and
/// the three search counters.
fn placement_row(
    label: &str,
    evaluator: &Evaluator<'_>,
    graph: &ExecutionGraph<'_>,
    options: &PlacementOptions,
) -> String {
    match optimize_placement(evaluator, graph, options) {
        Some(r) => format!(
            "{label} placement={} throughput={:#018x} explored={} pruned={} solutions={}",
            render(&r.placement),
            r.throughput.to_bits(),
            r.explored,
            r.pruned,
            r.solutions,
        ),
        None => format!("{label} infeasible"),
    }
}

fn assert_rows(actual: &[String], pinned: &[&str]) {
    assert!(
        actual.iter().map(String::as_str).eq(pinned.iter().copied()),
        "search drifted from the parent commit; actual rows:\n{}",
        actual
            .iter()
            .map(|row| format!("        \"{row}\",\n"))
            .collect::<String>()
    );
}

/// The benchmark's run-plan options (`benchmark/src/run.rs`): executor
/// budget 8 (or one more than the all-ones plan spawns), compression 2,
/// 6 000 B&B nodes — on Server A restricted to two sockets.
fn run_plan_options(topology: &LogicalTopology) -> ScalingOptions {
    let all_ones = vec![1usize; topology.operator_count()];
    let floor = spawned_executors(topology, &all_ones) + 1;
    ScalingOptions {
        compress_ratio: 2,
        max_total_replicas: Some(floor.max(8)),
        placement: PlacementOptions {
            max_nodes: 6_000,
            ..PlacementOptions::default()
        },
        ..ScalingOptions::default()
    }
}

#[test]
fn run_plan_searches_match_the_parent_commit() {
    // Generated at 77bf63e (see the module docs).
    let pinned: [&str; 3] = [
        "wc replication=[1, 1, 2, 4, 1] placement=000000 throughput=0x4157f15fb94d3ef3 iterations=6 nodes=128",
        "sd replication=[1, 1, 4, 2, 1] placement=000000 throughput=0x411f428f91dd413b iterations=3 nodes=126",
        "lr replication=[1, 1, 1, 1, 1, 1, 1, 1, 3, 1, 1, 1] placement=0001110011000 throughput=0x410ca227360d54d1 iterations=2 nodes=2661",
    ];
    let machine = Machine::server_a().restrict_sockets(2);
    let actual: Vec<String> = workloads()
        .iter()
        .map(|(name, topology, _)| {
            scaling_row(name, &machine, topology, &run_plan_options(topology))
        })
        .collect();
    assert_rows(&actual, &pinned);
}

#[test]
fn paper_scale_searches_match_the_parent_commit() {
    // Generated at 77bf63e (see the module docs). The benchmark's
    // `plan_predicted_eps` is this throughput (61 893 308.3051611 on `wc`,
    // 8 239 905.844312483 on `sd`) and its `rlas.plan_nodes` this node count.
    let pinned: [&str; 2] = [
        "wc replication=[4, 2, 11, 61, 33] placement=0000011122233344405556771 throughput=0x418d8355e270f84e iterations=32 nodes=990",
        "sd replication=[4, 3, 54, 49, 3] placement=000011122233344455566634 throughput=0x415f6ec87609373a iterations=26 nodes=804",
    ];
    let actual: Vec<String> = workloads()
        .iter()
        .take(2)
        .map(|(name, topology, machine)| {
            scaling_row(name, machine, topology, &ScalingOptions::default())
        })
        .collect();
    assert_rows(&actual, &pinned);
}

/// Single B&B searches that branch, prune, revisit and stop at the node cap,
/// on the paper machine: three replicas per operator uncompressed under
/// every `PlacementOptions` switch, a binding thread budget and the two
/// ablation policies; the paper-scale replication at compression 3 with and
/// without best-fit; and an `lr` shape whose search is almost all solution
/// nodes (the scorer and the constraint check, not the bound).
#[test]
fn placement_searches_match_the_parent_commit() {
    // Generated at 77bf63e (see the module docs).
    let pinned: [&str; 31] = [
        "wc/threes/default placement=041123111111111 throughput=0x4151f507caf9ef36 explored=25 pruned=10 solutions=1",
        "wc/threes/no_best_fit placement=045123666666777 throughput=0x4151f507caf9ef36 explored=188 pruned=552 solutions=2",
        "wc/threes/no_redundancy_elimination placement=041123111111111 throughput=0x4151f507caf9ef36 explored=25 pruned=10 solutions=1",
        "wc/threes/seed_first_fit placement=000000000000000 throughput=0x4151f507caf9ef36 explored=1 pruned=1 solutions=1",
        "wc/threes/tight_thread_budget placement=041123111111111 throughput=0x4151f507caf9ef36 explored=25 pruned=10 solutions=1",
        "wc/threes/no_thread_budget placement=041123111111111 throughput=0x4151f507caf9ef36 explored=25 pruned=10 solutions=1",
        "wc/threes/fix_l placement=041123111111111 throughput=0x41434f5e678a55a8 explored=25 pruned=10 solutions=1",
        "wc/threes/fix_u placement=041123111111111 throughput=0x4151f507caf9ef36 explored=25 pruned=10 solutions=1",
        "wc/paper_at_3/default placement=000000011111122222233333344055555567777 throughput=0x418be78dccd5c126 explored=40 pruned=1 solutions=1",
        "wc/paper_at_3/no_best_fit placement=000000012345677777766333332066655555444 throughput=0x418bc8aee8d0e586 explored=2000 pruned=9646 solutions=1",
        "sd/threes/default placement=021111111345111 throughput=0x411d0a9363460a25 explored=165 pruned=69 solutions=3",
        "sd/threes/no_best_fit placement=023111111456777 throughput=0x411d0a9363460a25 explored=1282 pruned=4617 solutions=3",
        "sd/threes/no_redundancy_elimination placement=021111111345111 throughput=0x411d0a9363460a25 explored=165 pruned=69 solutions=3",
        "sd/threes/seed_first_fit placement=021111111345111 throughput=0x411d0a9363460a25 explored=165 pruned=69 solutions=4",
        "sd/threes/tight_thread_budget placement=041123111111111 throughput=0x41119f7dde3065a8 explored=2000 pruned=0 solutions=2",
        "sd/threes/no_thread_budget placement=021111111345111 throughput=0x411d0a9363460a25 explored=165 pruned=69 solutions=3",
        "sd/threes/fix_l placement=041123111567111 throughput=0x411ab811ee4b15db explored=43 pruned=28 solutions=1",
        "sd/threes/fix_u placement=041123111567111 throughput=0x411d0a9363460a25 explored=43 pruned=28 solutions=1",
        "sd/paper_at_3/default placement=000000111111222222333333444444555555607 throughput=0x415b99107384b686 explored=40 pruned=1 solutions=1",
        "sd/paper_at_3/no_best_fit placement=010000023333332222211456777777666665555 throughput=0x415f7d3285bf4998 explored=2000 pruned=5977 solutions=1",
        "lr/threes/default placement=011123111233444222000222444110000333 throughput=0x412ff6eda470ab8f explored=2000 pruned=341 solutions=3",
        "lr/threes/no_best_fit placement=045123677555444666666655554777777444 throughput=0x4130372fd2582452 explored=2000 pruned=7839 solutions=1",
        "lr/threes/no_redundancy_elimination placement=011123111233444222000222444110000333 throughput=0x412ff6eda470ab8f explored=2000 pruned=341 solutions=3",
        "lr/threes/seed_first_fit placement=000000001333333222122222334111111444 throughput=0x413012a432bf392f explored=2000 pruned=431 solutions=1",
        "lr/threes/tight_thread_budget placement=011123111233444222000222444110000333 throughput=0x412ff6eda470ab8f explored=2000 pruned=341 solutions=3",
        "lr/threes/no_thread_budget placement=011123111233444222000222444110000333 throughput=0x412ff6eda470ab8f explored=2000 pruned=341 solutions=3",
        "lr/threes/fix_l placement=041123111223333022000222567111000333 throughput=0x412e70a44072cfef explored=55 pruned=19 solutions=1",
        "lr/threes/fix_u placement=041123111223333022000222567111000333 throughput=0x413136d71e9671db explored=55 pruned=19 solutions=1",
        "lr/paper_at_3/default placement=01201000567765447344 throughput=0x412d76e639e630cd explored=2000 pruned=907 solutions=1",
        "lr/paper_at_3/no_best_fit placement=01277657766554437344 throughput=0x412f5344866709c9 explored=110 pruned=92 solutions=2",
        "lr/mostly_solutions placement=01236522677776346 throughput=0x4123b8fa8b7c091c explored=2000 pruned=0 solutions=1562",
    ];
    let paper_replication: [&[usize]; 3] = [
        &[4, 2, 11, 61, 33],
        &[4, 3, 54, 49, 3],
        &[1, 1, 1, 2, 1, 2, 2, 1, 25, 1, 1, 1],
    ];
    let mut actual = Vec::new();
    for ((name, topology, machine), paper) in workloads().iter().zip(paper_replication) {
        let rlas = Evaluator::saturated(machine);
        let base = PlacementOptions {
            max_nodes: 2_000,
            max_executors: Some(machine.total_cores()),
            ..PlacementOptions::default()
        };
        let no_best_fit = PlacementOptions {
            best_fit: false,
            ..base
        };

        let threes = vec![3usize; topology.operator_count()];
        let graph = ExecutionGraph::new(topology, &threes, 1);
        let variants = [
            ("default", rlas, base),
            ("no_best_fit", rlas, no_best_fit),
            (
                "no_redundancy_elimination",
                rlas,
                PlacementOptions {
                    redundancy_elimination: false,
                    ..base
                },
            ),
            (
                "seed_first_fit",
                rlas,
                PlacementOptions {
                    seed_first_fit: true,
                    ..base
                },
            ),
            (
                "tight_thread_budget",
                rlas,
                PlacementOptions {
                    max_executors: Some(spawned_executors(topology, &threes) + 1),
                    ..base
                },
            ),
            (
                "no_thread_budget",
                rlas,
                PlacementOptions {
                    max_executors: None,
                    ..base
                },
            ),
            ("fix_l", rlas.with_policy(TfPolicy::AlwaysRemote), base),
            ("fix_u", rlas.with_policy(TfPolicy::NeverRemote), base),
        ];
        for (variant, evaluator, options) in variants {
            let label = format!("{name}/threes/{variant}");
            actual.push(placement_row(&label, &evaluator, &graph, &options));
        }

        let graph = ExecutionGraph::new(topology, paper, 3);
        for (variant, options) in [("default", base), ("no_best_fit", no_best_fit)] {
            let label = format!("{name}/paper_at_3/{variant}");
            actual.push(placement_row(&label, &rlas, &graph, &options));
        }
    }
    let (_, lr, server_b) = &workloads()[2];
    actual.push(placement_row(
        "lr/mostly_solutions",
        &Evaluator::saturated(server_b),
        &ExecutionGraph::new(lr, &[1, 1, 1, 1, 1, 1, 1, 1, 12, 1, 1, 1], 2),
        &PlacementOptions {
            max_nodes: 2_000,
            max_executors: Some(server_b.total_cores()),
            ..PlacementOptions::default()
        },
    ));
    assert_rows(&actual, &pinned);
}

/// The full-scale `lr` search on Server B: 601 626 nodes, four of its ten
/// placement calls stopped by the node cap — the row the bit-identity
/// invariant exists for (`plan_predicted_eps` 1 026 466.2625048698). Seconds
/// in release, minutes in debug, so only release legs
/// (`cargo test --workspace --release`) pay for it.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn full_scale_lr_search_matches_the_parent_commit() {
    // Generated at 77bf63e (see the module docs).
    let pinned: [&str; 1] = [
        "lr replication=[1, 1, 1, 2, 1, 2, 2, 1, 25, 1, 1, 1] placement=0120033345672333 throughput=0x412f5344866709ce iterations=6 nodes=601626",
    ];
    let (name, topology, machine) = &workloads()[2];
    let actual = [scaling_row(
        name,
        machine,
        topology,
        &ScalingOptions::default(),
    )];
    assert_rows(&actual, &pinned);
}
