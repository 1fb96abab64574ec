//! Resource-constraint checking (Equations 3–5 of the paper).
//!
//! A valid execution plan must satisfy, for every socket `i`, `j`:
//!
//! * **Eq. 3** — CPU: `Σ_{operators at Si} ro · T ≤ C`, plus the physical
//!   limit that core-isolated replicas cannot outnumber the socket's cores.
//! * **Eq. 4** — memory: `Σ_{operators at Si} ro · M ≤ B`.
//! * **Eq. 5** — interconnect: `Σ_{consumers at Sj, producers at Si}
//!   ro(s) · N ≤ Q(i,j)`.
//!
//! Checks run on partial placements too: only placed vertices contribute
//! demand (the B&B uses this to prune branches whose *already placed* subset
//! is infeasible, since demand only grows as more vertices are placed).

use crate::evaluator::Evaluation;
use brisk_dag::{ExecutionGraph, Placement};
use brisk_numa::{Machine, SocketId};

/// Relative slack allowed before a constraint counts as violated
/// (absorbs floating-point accumulation error at exact saturation).
const CONSTRAINT_TOLERANCE: f64 = 1e-9;

/// One violated resource constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// More replicas pinned to a socket than it has cores.
    Cores {
        /// Affected socket.
        socket: SocketId,
        /// Replicas placed there.
        used: usize,
        /// Cores available.
        capacity: usize,
    },
    /// Eq. 3: aggregated cycle demand exceeds the socket's cycle budget.
    CpuCycles {
        /// Affected socket.
        socket: SocketId,
        /// Demanded cycles/sec.
        used: f64,
        /// Available cycles/sec (`C`).
        capacity: f64,
    },
    /// Eq. 4: aggregated memory traffic exceeds local DRAM bandwidth.
    LocalBandwidth {
        /// Affected socket.
        socket: SocketId,
        /// Demanded bytes/sec.
        used: f64,
        /// Attainable bytes/sec (`B`).
        capacity: f64,
    },
    /// Eq. 5: cross-socket tuple traffic exceeds the channel bandwidth.
    ChannelBandwidth {
        /// Producer socket.
        from: SocketId,
        /// Consumer socket.
        to: SocketId,
        /// Demanded bytes/sec.
        used: f64,
        /// Attainable bytes/sec (`Q(i,j)`).
        capacity: f64,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Cores {
                socket,
                used,
                capacity,
            } => write!(f, "{socket}: {used} replicas > {capacity} cores"),
            Violation::CpuCycles {
                socket,
                used,
                capacity,
            } => write!(
                f,
                "{socket}: {:.2}G cycles/s > {:.2}G available",
                used / 1e9,
                capacity / 1e9
            ),
            Violation::LocalBandwidth {
                socket,
                used,
                capacity,
            } => write!(
                f,
                "{socket}: {:.2} GB/s local traffic > {:.2} GB/s",
                used / 1e9,
                capacity / 1e9
            ),
            Violation::ChannelBandwidth {
                from,
                to,
                used,
                capacity,
            } => write!(
                f,
                "{from}->{to}: {:.2} GB/s > {:.2} GB/s channel",
                used / 1e9,
                capacity / 1e9
            ),
        }
    }
}

/// Outcome of checking a plan against Eq. 3–5.
#[derive(Debug, Clone, Default)]
pub struct ConstraintReport {
    /// All violations found (empty means the plan is feasible).
    pub violations: Vec<Violation>,
}

impl ConstraintReport {
    /// Whether the plan satisfies every constraint.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Check `placement` (restricted to its placed vertices) on `machine`
    /// using the rates in `eval`.
    pub fn check(
        machine: &Machine,
        graph: &ExecutionGraph<'_>,
        placement: &Placement,
        eval: &Evaluation,
    ) -> ConstraintReport {
        let mut demand = ResourceDemand::default();
        demand.measure(machine, graph, placement, eval);
        ConstraintReport {
            violations: demand.violations(machine).collect(),
        }
    }
}

/// The left-hand sides of Eq. 3–5: what a placement's placed vertices ask
/// of every socket and every channel. A value can be re-measured any number
/// of times without allocating again — the B&B checks one per solution node.
#[derive(Debug, Clone, Default)]
pub struct ResourceDemand {
    /// Replicas pinned per socket.
    cores: Vec<usize>,
    /// Eq. 3: cycles/sec demanded per socket.
    cycles: Vec<f64>,
    /// Eq. 4: bytes/sec of memory traffic per socket.
    local_bw: Vec<f64>,
    /// Eq. 5: bytes/sec per channel, row-major `[from][to]`.
    channel: Vec<f64>,
}

impl ResourceDemand {
    /// Measure `placement` (restricted to its placed vertices) on `machine`
    /// using the rates in `eval`, replacing whatever was measured before.
    pub fn measure(
        &mut self,
        machine: &Machine,
        graph: &ExecutionGraph<'_>,
        placement: &Placement,
        eval: &Evaluation,
    ) {
        let n = machine.sockets();
        self.cores.clear();
        self.cores.resize(n, 0);
        for per_socket in [&mut self.cycles, &mut self.local_bw] {
            per_socket.clear();
            per_socket.resize(n, 0.0);
        }
        self.channel.clear();
        self.channel.resize(n * n, 0.0);

        for (vid, vertex) in graph.vertices() {
            let Some(socket) = placement.socket_of(vid) else {
                continue;
            };
            let rates = &eval.vertices[vid.0];
            let spec = graph.spec_of(vid);
            self.cores[socket.0] += vertex.multiplicity;
            // ro * T: processed tuples/sec times cycles per tuple
            // (T includes the placement-dependent fetch stall).
            let cycles_per_tuple = machine.ns_to_cycles(rates.total_ns());
            self.cycles[socket.0] += rates.processed_rate * cycles_per_tuple;
            self.local_bw[socket.0] += rates.processed_rate * spec.cost.mem_bytes_per_tuple;
        }

        for (ei, edge) in graph.edges().iter().enumerate() {
            let (Some(from), Some(to)) =
                (placement.socket_of(edge.from), placement.socket_of(edge.to))
            else {
                continue;
            };
            if from == to {
                continue;
            }
            let bytes = graph.spec_of(edge.from).cost.output_bytes;
            self.channel[from.0 * n + to.0] += eval.edge_rates[ei] * bytes;
        }
    }

    /// Every constraint of `machine` the measured demand exceeds: per
    /// socket cores, cycles and local bandwidth, then per channel.
    pub fn violations<'s>(&'s self, machine: &'s Machine) -> impl Iterator<Item = Violation> + 's {
        let n = self.cores.len();
        let c = machine.cycles_per_socket();
        let b = machine.local_bandwidth();
        let per_socket = (0..n).flat_map(move |s| {
            let socket = SocketId(s);
            let cores = (self.cores[s] > machine.cores_per_socket()).then(|| Violation::Cores {
                socket,
                used: self.cores[s],
                capacity: machine.cores_per_socket(),
            });
            let cycles =
                (self.cycles[s] > c * (1.0 + CONSTRAINT_TOLERANCE)).then(|| Violation::CpuCycles {
                    socket,
                    used: self.cycles[s],
                    capacity: c,
                });
            let local_bw = (self.local_bw[s] > b * (1.0 + CONSTRAINT_TOLERANCE)).then(|| {
                Violation::LocalBandwidth {
                    socket,
                    used: self.local_bw[s],
                    capacity: b,
                }
            });
            [cores, cycles, local_bw].into_iter().flatten()
        });
        let per_channel = (0..n * n).filter_map(move |ij| {
            let (from, to) = (SocketId(ij / n), SocketId(ij % n));
            let q = machine.remote_bandwidth(from, to);
            (from != to && self.channel[ij] > q * (1.0 + CONSTRAINT_TOLERANCE)).then(|| {
                Violation::ChannelBandwidth {
                    from,
                    to,
                    used: self.channel[ij],
                    capacity: q,
                }
            })
        });
        per_socket.chain(per_channel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluator::Evaluator;
    use brisk_dag::{CostProfile, TopologyBuilder};
    use brisk_numa::MachineBuilder;

    fn tiny_machine(cores: usize) -> Machine {
        MachineBuilder::new("tiny")
            .sockets(2)
            .cores_per_socket(cores)
            .clock_ghz(1.0)
            .local_latency_ns(50.0)
            .one_hop_latency_ns(200.0)
            .max_hop_latency_ns(200.0)
            .local_bandwidth_gbps(10.0)
            .one_hop_bandwidth_gbps(1.0)
            .max_hop_bandwidth_gbps(1.0)
            .build()
    }

    fn pipeline(mem_per_tuple: f64, tuple_bytes: f64) -> brisk_dag::LogicalTopology {
        let mut b = TopologyBuilder::new("p");
        let s = b.add_spout(
            "s",
            CostProfile::new(100.0, 0.0, mem_per_tuple, tuple_bytes),
        );
        let k = b.add_sink(
            "k",
            CostProfile::new(100.0, 0.0, mem_per_tuple, tuple_bytes),
        );
        b.connect_shuffle(s, k);
        b.build().expect("valid")
    }

    #[test]
    fn feasible_plan_passes() {
        let m = tiny_machine(4);
        let t = pipeline(10.0, 64.0);
        let g = ExecutionGraph::new(&t, &[1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &p);
        let report = ConstraintReport::check(&m, &g, &p, &eval);
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn too_many_replicas_violates_cores() {
        let m = tiny_machine(1);
        let t = pipeline(10.0, 64.0);
        let g = ExecutionGraph::new(&t, &[1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &p);
        let report = ConstraintReport::check(&m, &g, &p, &eval);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Cores { .. })));
    }

    #[test]
    fn heavy_memory_traffic_violates_local_bandwidth() {
        let m = tiny_machine(8);
        // Spout at 10M tuples/s with 10 KB of memory traffic per tuple
        // demands 100 GB/s >> 10 GB/s local bandwidth.
        let t = pipeline(10_000.0, 64.0);
        let g = ExecutionGraph::new(&t, &[1, 1], 1);
        let p = Placement::all_on(g.vertex_count(), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &p);
        let report = ConstraintReport::check(&m, &g, &p, &eval);
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::LocalBandwidth { .. })));
    }

    #[test]
    fn cross_socket_traffic_violates_channel() {
        let m = tiny_machine(8);
        // 4 KB tuples crossing sockets from eight producers to eight
        // consumers: ~8 x 77k tuples/s x 4 KB ~ 2.5 GB/s > 1 GB/s channel.
        let t = pipeline(10.0, 4096.0);
        let g = ExecutionGraph::new(&t, &[8, 8], 1);
        let mut p = Placement::empty(g.vertex_count());
        for i in 0..8 {
            p.place(brisk_dag::VertexId(i), SocketId(0));
            p.place(brisk_dag::VertexId(8 + i), SocketId(1));
        }
        let eval = Evaluator::saturated(&m).evaluate(&g, &p);
        let report = ConstraintReport::check(&m, &g, &p, &eval);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::ChannelBandwidth { .. })),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn partial_placement_counts_only_placed() {
        let m = tiny_machine(1);
        let t = pipeline(10.0, 64.0);
        let g = ExecutionGraph::new(&t, &[1, 1], 1);
        let mut p = Placement::empty(g.vertex_count());
        p.place(brisk_dag::VertexId(0), SocketId(0));
        let eval = Evaluator::saturated(&m).evaluate(&g, &p);
        let report = ConstraintReport::check(&m, &g, &p, &eval);
        // One replica on a one-core socket is fine; the unplaced sink does
        // not count.
        assert!(report.ok(), "{:?}", report.violations);
    }

    #[test]
    fn violations_render() {
        let v = Violation::ChannelBandwidth {
            from: SocketId(0),
            to: SocketId(1),
            used: 2e9,
            capacity: 1e9,
        };
        assert!(format!("{v}").contains("S0->S1"));
    }
}
