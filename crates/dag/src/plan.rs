//! Execution plans: replication + placement.
//!
//! "A streaming execution plan determines the number of replicas of each
//! operator (operator replication), as well as the way of allocating each
//! operator to the underlying CPU cores (operator placement)." — Section 1.
//!
//! Placement here is at socket granularity, matching the paper's model
//! (within a socket, replicas are spread across cores round-robin by the
//! executor/simulator).

use crate::graph::{ExecutionGraph, VertexId};
use brisk_numa::SocketId;

/// Socket assignment of every execution vertex; `None` = not yet placed
/// (B&B works on partial placements).
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct Placement {
    sockets: Vec<Option<SocketId>>,
}

impl Clone for Placement {
    fn clone(&self) -> Placement {
        Placement {
            sockets: self.sockets.clone(),
        }
    }

    /// Reuses `self`'s allocation: searches overwrite one scratch placement
    /// per scored candidate.
    fn clone_from(&mut self, source: &Placement) {
        self.sockets.clone_from(&source.sockets);
    }
}

impl Placement {
    /// A placement with every vertex unplaced.
    pub fn empty(vertex_count: usize) -> Placement {
        Placement {
            sockets: vec![None; vertex_count],
        }
    }

    /// A placement with every vertex on the same socket.
    pub fn all_on(vertex_count: usize, socket: SocketId) -> Placement {
        Placement {
            sockets: vec![Some(socket); vertex_count],
        }
    }

    /// Number of vertices covered.
    pub fn len(&self) -> usize {
        self.sockets.len()
    }

    /// True when no vertices are covered.
    pub fn is_empty(&self) -> bool {
        self.sockets.is_empty()
    }

    /// Socket of a vertex, if placed.
    pub fn socket_of(&self, v: VertexId) -> Option<SocketId> {
        self.sockets[v.0]
    }

    /// Place vertex `v` on `socket`.
    pub fn place(&mut self, v: VertexId, socket: SocketId) {
        self.sockets[v.0] = Some(socket);
    }

    /// Remove vertex `v`'s assignment.
    pub fn unplace(&mut self, v: VertexId) {
        self.sockets[v.0] = None;
    }

    /// Whether every vertex is placed.
    pub fn is_complete(&self) -> bool {
        self.sockets.iter().all(Option::is_some)
    }

    /// Number of placed vertices.
    pub fn placed_count(&self) -> usize {
        self.sockets.iter().filter(|s| s.is_some()).count()
    }

    /// Whether both vertices are placed on the same socket.
    pub fn collocated(&self, a: VertexId, b: VertexId) -> bool {
        match (self.sockets[a.0], self.sockets[b.0]) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    /// Vertices placed on `socket`.
    pub fn vertices_on(&self, socket: SocketId) -> impl Iterator<Item = VertexId> + '_ {
        self.sockets
            .iter()
            .enumerate()
            .filter(move |(_, s)| **s == Some(socket))
            .map(|(i, _)| VertexId(i))
    }

    /// Distinct sockets in use.
    pub fn sockets_used(&self) -> Vec<SocketId> {
        let mut v: Vec<SocketId> = self.sockets.iter().flatten().copied().collect();
        v.sort();
        v.dedup();
        v
    }
}

/// A complete execution plan: per-operator replication, the compression
/// ratio the placement was computed at, and the placement itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionPlan {
    /// Replicas per operator (indexed by `OperatorId`).
    pub replication: Vec<usize>,
    /// Compression ratio of the placed execution graph.
    pub compress_ratio: usize,
    /// Socket assignment per execution vertex.
    pub placement: Placement,
}

impl ExecutionPlan {
    /// Plan with replication 1 everywhere and every vertex on socket 0 —
    /// the starting point of the scaling algorithm (Figure 4, label (0)).
    pub fn singleton(operator_count: usize) -> ExecutionPlan {
        ExecutionPlan {
            replication: vec![1; operator_count],
            compress_ratio: 1,
            placement: Placement::all_on(operator_count, SocketId(0)),
        }
    }

    /// Total number of replicas.
    pub fn total_replicas(&self) -> usize {
        self.replication.iter().sum()
    }

    /// Number of replicas (counting vertex multiplicity) on `socket`.
    pub fn replicas_on(&self, graph: &ExecutionGraph<'_>, socket: SocketId) -> usize {
        self.placement
            .vertices_on(socket)
            .map(|v| graph.vertex(v).multiplicity)
            .sum()
    }

    /// Pretty multi-line description (used by examples and experiments).
    pub fn describe(&self, graph: &ExecutionGraph<'_>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan: {} replicas in {} vertices (compress ratio {})",
            self.total_replicas(),
            graph.vertex_count(),
            self.compress_ratio
        );
        for (op, spec) in graph.topology().operators() {
            let homes: Vec<String> = graph
                .vertices_of(op)
                .iter()
                .map(|&v| match self.placement.socket_of(v) {
                    Some(s) => format!("{}x{}", s, graph.vertex(v).multiplicity),
                    None => "unplaced".to_string(),
                })
                .collect();
            let _ = writeln!(
                out,
                "  {:<16} x{:<3} -> [{}]",
                spec.name,
                self.replication[op.0],
                homes.join(", ")
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostProfile;
    use crate::topology::TopologyBuilder;

    fn graph_fixture(topology: &crate::topology::LogicalTopology) -> ExecutionGraph<'_> {
        ExecutionGraph::new(topology, &[2, 3, 1], 1)
    }

    fn linear3() -> crate::topology::LogicalTopology {
        let mut b = TopologyBuilder::new("lin");
        let s = b.add_spout("s", CostProfile::trivial());
        let x = b.add_bolt("x", CostProfile::trivial());
        let k = b.add_sink("k", CostProfile::trivial());
        b.connect_shuffle(s, x);
        b.connect_shuffle(x, k);
        b.build().expect("valid")
    }

    #[test]
    fn placement_lifecycle() {
        let mut p = Placement::empty(4);
        assert!(!p.is_complete());
        assert_eq!(p.placed_count(), 0);
        p.place(VertexId(0), SocketId(1));
        p.place(VertexId(1), SocketId(1));
        assert!(p.collocated(VertexId(0), VertexId(1)));
        assert!(!p.collocated(VertexId(0), VertexId(2)));
        p.place(VertexId(2), SocketId(0));
        p.place(VertexId(3), SocketId(2));
        assert!(p.is_complete());
        assert_eq!(
            p.sockets_used(),
            vec![SocketId(0), SocketId(1), SocketId(2)]
        );
        p.unplace(VertexId(3));
        assert!(!p.is_complete());
    }

    #[test]
    fn vertices_on_socket() {
        let mut p = Placement::empty(3);
        p.place(VertexId(0), SocketId(0));
        p.place(VertexId(2), SocketId(0));
        let on0: Vec<VertexId> = p.vertices_on(SocketId(0)).collect();
        assert_eq!(on0, vec![VertexId(0), VertexId(2)]);
    }

    #[test]
    fn replicas_on_socket_counts_multiplicity() {
        let t = linear3();
        let g = ExecutionGraph::new(&t, &[2, 5, 1], 3);
        // Vertices: s#0(2) | x#0(3) x#1(2) | k#0(1) = 4 vertices.
        assert_eq!(g.vertex_count(), 4);
        let mut plan = ExecutionPlan {
            replication: vec![2, 5, 1],
            compress_ratio: 3,
            placement: Placement::empty(g.vertex_count()),
        };
        for (v, _) in g.vertices() {
            plan.placement.place(v, SocketId(0));
        }
        assert_eq!(plan.replicas_on(&g, SocketId(0)), 8);
        assert_eq!(plan.total_replicas(), 8);
    }

    #[test]
    fn describe_mentions_operators() {
        let t = linear3();
        let g = graph_fixture(&t);
        let plan = ExecutionPlan {
            replication: vec![2, 3, 1],
            compress_ratio: 1,
            placement: Placement::all_on(g.vertex_count(), SocketId(0)),
        };
        let d = plan.describe(&g);
        assert!(d.contains("x"));
        assert!(d.contains("S0"));
    }

    #[test]
    fn singleton_plan() {
        let p = ExecutionPlan::singleton(3);
        assert_eq!(p.total_replicas(), 3);
        assert!(p.placement.is_complete());
    }
}
