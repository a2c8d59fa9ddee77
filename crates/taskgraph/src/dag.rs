//! The immutable task-graph (DAG) model and its builder.
//!
//! A [`TaskGraph`] is constructed once through a [`TaskGraphBuilder`] and is
//! immutable afterwards: schedulers and simulators only ever read it, which
//! lets one `TaskGraph` be shared (e.g. behind `Arc`) across the many
//! simulation instances a parameter sweep spawns without synchronization.

use std::collections::HashSet;

use crate::algo;
use crate::error::GraphError;
use crate::ids::NodeId;
use crate::Cycles;

/// One task (node) of a task graph.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskNode {
    /// Human-readable name, used in traces and DOT output.
    pub name: String,
    /// Worst-case execution demand in processor cycles.
    pub wcet: Cycles,
}

/// An immutable directed acyclic graph of tasks with precedence edges.
///
/// Nodes are stored densely and addressed by [`NodeId`]; predecessor and
/// successor adjacency lists are precomputed at build time, as is a canonical
/// topological order, so the hot scheduling paths never re-derive them.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TaskGraph {
    name: String,
    nodes: Vec<TaskNode>,
    /// `succs[v]` = nodes that may only start after `v` completes.
    succs: Vec<Vec<NodeId>>,
    /// `preds[v]` = nodes that must complete before `v` may start.
    preds: Vec<Vec<NodeId>>,
    /// A canonical topological order (Kahn, smallest-id-first tie-break).
    topo: Vec<NodeId>,
    /// Sum of all node WCETs — the `WCi` of the paper (§4.1).
    total_wcet: Cycles,
    /// `edge_bytes[v][k]` = bytes `v` hands to `succs[v][k]` (index-aligned
    /// with `succs`). Plain precedence edges carry 0 bytes; imported
    /// workflows (WfCommons files) and explicit weighted edges carry the
    /// payload the interconnect must move when the endpoints land on
    /// different PEs.
    edge_bytes: Vec<Vec<u64>>,
}

impl TaskGraph {
    /// The graph's name.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of precedence edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Access one node.
    ///
    /// # Panics
    /// Panics if `id` does not belong to this graph.
    #[inline]
    pub fn node(&self, id: NodeId) -> &TaskNode {
        &self.nodes[id.index()]
    }

    /// Worst-case execution demand of one node, in cycles.
    #[inline]
    pub fn wcet(&self, id: NodeId) -> Cycles {
        self.nodes[id.index()].wcet
    }

    /// Iterate over all node ids in insertion order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// All nodes, with their ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = (NodeId, &TaskNode)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId::from_index(i), n))
    }

    /// Direct successors of `id` (tasks that wait on it).
    #[inline]
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.succs[id.index()]
    }

    /// Direct predecessors of `id` (tasks it waits on).
    #[inline]
    pub fn predecessors(&self, id: NodeId) -> &[NodeId] {
        &self.preds[id.index()]
    }

    /// In-degree of a node; nodes with in-degree 0 are *source* (entry) tasks.
    #[inline]
    pub fn in_degree(&self, id: NodeId) -> usize {
        self.preds[id.index()].len()
    }

    /// Out-degree of a node; nodes with out-degree 0 are *sink* (exit) tasks.
    #[inline]
    pub fn out_degree(&self, id: NodeId) -> usize {
        self.succs[id.index()].len()
    }

    /// Nodes with no predecessors — ready as soon as the graph is released.
    pub fn sources(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.in_degree(n) == 0).collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.node_ids().filter(|&n| self.out_degree(n) == 0).collect()
    }

    /// A canonical topological order, precomputed at build time.
    #[inline]
    pub fn topological_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Sum of all node WCETs, in cycles — `WCi = Σ wcij` of the paper.
    #[inline]
    pub fn total_wcet(&self) -> Cycles {
        self.total_wcet
    }

    /// True if there is an edge `from -> to`.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succs[from.index()].contains(&to)
    }

    /// All edges as `(from, to)` pairs, grouped by source in id order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succs.iter().enumerate().flat_map(|(i, outs)| {
            let from = NodeId::from_index(i);
            outs.iter().map(move |&to| (from, to))
        })
    }

    /// Bytes carried by the edge `from -> to`; `None` if there is no such
    /// edge. Plain precedence edges carry 0.
    pub fn edge_bytes(&self, from: NodeId, to: NodeId) -> Option<u64> {
        let k = self.succs[from.index()].binary_search(&to).ok()?;
        Some(self.edge_bytes[from.index()][k])
    }

    /// Every outgoing edge of `from` with its byte payload, in successor-id
    /// order (index-aligned with [`successors`](Self::successors)).
    #[inline]
    pub fn out_edges(&self, from: NodeId) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.succs[from.index()].iter().copied().zip(self.edge_bytes[from.index()].iter().copied())
    }

    /// Sum of all edge payloads, bytes. 0 for plain precedence graphs.
    pub fn total_edge_bytes(&self) -> u64 {
        self.edge_bytes.iter().flatten().sum()
    }

    /// Length (in cycles) of the longest WCET-weighted path — the graph's
    /// critical path. A lower bound on any instance's completion, useful for
    /// sanity-checking generated periods (`critical_path ≤ period · fmax`
    /// must hold or the graph is trivially unschedulable).
    pub fn critical_path(&self) -> Cycles {
        algo::critical_path(self)
    }
}

/// Incremental, validated construction of a [`TaskGraph`].
///
/// Node insertion hands back [`NodeId`]s; edges may reference only those ids.
/// `build` runs the final acyclicity check and freezes the graph.
#[derive(Debug, Clone, Default)]
pub struct TaskGraphBuilder {
    name: String,
    nodes: Vec<TaskNode>,
    edges: Vec<(NodeId, NodeId, u64)>,
    /// `(from, to)` of every edge in `edges`: O(1) duplicate rejection.
    edge_index: HashSet<(NodeId, NodeId)>,
}

impl TaskGraphBuilder {
    /// Start a new graph with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        TaskGraphBuilder { name: name.into(), ..TaskGraphBuilder::default() }
    }

    /// Pre-allocate for `nodes` nodes and `edges` edges.
    pub fn with_capacity(name: impl Into<String>, nodes: usize, edges: usize) -> Self {
        TaskGraphBuilder {
            name: name.into(),
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            edge_index: HashSet::with_capacity(edges),
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Add a task with the given worst-case cycle demand; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, wcet: Cycles) -> NodeId {
        let id = NodeId::from_index(self.nodes.len());
        self.nodes.push(TaskNode { name: name.into(), wcet });
        id
    }

    /// Add a precedence edge `from -> to` (`to` cannot start before `from`
    /// completes).
    ///
    /// Rejects unknown endpoints, self-loops and duplicates immediately;
    /// cycles are only detectable (and rejected) at [`build`](Self::build)
    /// time.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<(), GraphError> {
        self.add_edge_weighted(from, to, 0)
    }

    /// Add a precedence edge `from -> to` carrying `bytes` of data — the
    /// payload an interconnect must move when the two endpoints are mapped
    /// onto different processing elements. Same validation as
    /// [`add_edge`](Self::add_edge) (which is the `bytes = 0` shorthand).
    pub fn add_edge_weighted(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
    ) -> Result<(), GraphError> {
        let n = self.nodes.len();
        if from.index() >= n {
            return Err(GraphError::UnknownNode(from));
        }
        if to.index() >= n {
            return Err(GraphError::UnknownNode(to));
        }
        if from == to {
            return Err(GraphError::SelfLoop(from));
        }
        if !self.edge_index.insert((from, to)) {
            return Err(GraphError::DuplicateEdge(from, to));
        }
        self.edges.push((from, to, bytes));
        Ok(())
    }

    /// Validate and freeze the graph.
    ///
    /// Checks: at least one node, no zero-WCET node, acyclic edge relation.
    pub fn build(self) -> Result<TaskGraph, GraphError> {
        let TaskGraphBuilder { name, nodes, edges, edge_index } = self;
        // Free the index before the adjacency lists are allocated.
        drop(edge_index);
        if nodes.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        for (i, node) in nodes.iter().enumerate() {
            if node.wcet == 0 {
                return Err(GraphError::ZeroWcet(NodeId::from_index(i)));
            }
        }
        let n = nodes.len();
        let mut out: Vec<Vec<(NodeId, u64)>> = vec![Vec::new(); n];
        let mut preds: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(from, to, bytes) in &edges {
            out[from.index()].push((to, bytes));
            preds[to.index()].push(from);
        }
        // Deterministic adjacency order regardless of edge insertion order;
        // edge payloads stay index-aligned with their successor entries.
        let mut succs: Vec<Vec<NodeId>> = Vec::with_capacity(n);
        let mut edge_bytes: Vec<Vec<u64>> = Vec::with_capacity(n);
        for mut list in out {
            list.sort_unstable_by_key(|&(to, _)| to);
            succs.push(list.iter().map(|&(to, _)| to).collect());
            edge_bytes.push(list.iter().map(|&(_, b)| b).collect());
        }
        for list in preds.iter_mut() {
            list.sort_unstable();
        }
        let topo = algo::topological_sort(n, &succs, &preds)?;
        let total_wcet = nodes.iter().map(|t| t.wcet).sum();
        Ok(TaskGraph { name, nodes, succs, preds, topo, total_wcet, edge_bytes })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// diamond: a -> {b, c} -> d
    fn diamond() -> TaskGraph {
        let mut b = TaskGraphBuilder::new("diamond");
        let a = b.add_node("a", 10);
        let x = b.add_node("b", 20);
        let y = b.add_node("c", 30);
        let z = b.add_node("d", 40);
        b.add_edge(a, x).unwrap();
        b.add_edge(a, y).unwrap();
        b.add_edge(x, z).unwrap();
        b.add_edge(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_diamond_with_correct_adjacency() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        let c = NodeId::from_index(2);
        let d = NodeId::from_index(3);
        assert_eq!(g.successors(a), &[b, c]);
        assert_eq!(g.predecessors(d), &[b, c]);
        assert_eq!(g.in_degree(a), 0);
        assert_eq!(g.out_degree(d), 0);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![d]);
    }

    #[test]
    fn total_wcet_is_sum_of_nodes() {
        assert_eq!(diamond().total_wcet(), 100);
    }

    #[test]
    fn critical_path_of_diamond_takes_heavier_branch() {
        // a(10) -> c(30) -> d(40) = 80
        assert_eq!(diamond().critical_path(), 80);
    }

    #[test]
    fn topological_order_respects_all_edges() {
        let g = diamond();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.node_count()];
            for (i, &n) in g.topological_order().iter().enumerate() {
                p[n.index()] = i;
            }
            p
        };
        for (from, to) in g.edges() {
            assert!(pos[from.index()] < pos[to.index()], "{from} before {to}");
        }
    }

    #[test]
    fn empty_graph_is_rejected() {
        assert_eq!(TaskGraphBuilder::new("empty").build().unwrap_err(), GraphError::EmptyGraph);
    }

    #[test]
    fn zero_wcet_is_rejected() {
        let mut b = TaskGraphBuilder::new("z");
        let n = b.add_node("bad", 0);
        assert_eq!(b.build().unwrap_err(), GraphError::ZeroWcet(n));
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut b = TaskGraphBuilder::new("s");
        let n = b.add_node("x", 1);
        assert_eq!(b.add_edge(n, n).unwrap_err(), GraphError::SelfLoop(n));
    }

    #[test]
    fn duplicate_edge_is_rejected() {
        let mut b = TaskGraphBuilder::new("d");
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        b.add_edge(x, y).unwrap();
        assert_eq!(b.add_edge(x, y).unwrap_err(), GraphError::DuplicateEdge(x, y));
    }

    #[test]
    fn unknown_endpoint_is_rejected() {
        let mut b = TaskGraphBuilder::new("u");
        let x = b.add_node("x", 1);
        let ghost = NodeId::from_index(9);
        assert_eq!(b.add_edge(x, ghost).unwrap_err(), GraphError::UnknownNode(ghost));
        assert_eq!(b.add_edge(ghost, x).unwrap_err(), GraphError::UnknownNode(ghost));
    }

    #[test]
    fn cycle_is_rejected_at_build() {
        let mut b = TaskGraphBuilder::new("c");
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        let z = b.add_node("z", 1);
        b.add_edge(x, y).unwrap();
        b.add_edge(y, z).unwrap();
        b.add_edge(z, x).unwrap();
        assert!(matches!(b.build().unwrap_err(), GraphError::CycleDetected(_)));
    }

    #[test]
    fn single_node_graph_is_fine() {
        let mut b = TaskGraphBuilder::new("one");
        b.add_node("only", 5);
        let g = b.build().unwrap();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.critical_path(), 5);
        assert_eq!(g.topological_order().len(), 1);
    }

    #[test]
    fn independent_nodes_have_no_edges() {
        let mut b = TaskGraphBuilder::new("ind");
        for i in 0..5 {
            b.add_node(format!("t{i}"), (i + 1) as Cycles);
        }
        let g = b.build().unwrap();
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.sources().len(), 5);
        assert_eq!(g.sinks().len(), 5);
        // Critical path of independent tasks = heaviest single task.
        assert_eq!(g.critical_path(), 5);
    }

    #[test]
    fn has_edge_and_edges_agree() {
        let g = diamond();
        let listed: Vec<_> = g.edges().collect();
        assert_eq!(listed.len(), 4);
        for (f, t) in listed {
            assert!(g.has_edge(f, t));
            assert!(!g.has_edge(t, f), "edges are directed");
        }
    }

    #[test]
    fn edge_bytes_default_to_zero_and_follow_the_sorted_adjacency() {
        let g = diamond();
        let a = NodeId::from_index(0);
        let b = NodeId::from_index(1);
        let d = NodeId::from_index(3);
        assert_eq!(g.edge_bytes(a, b), Some(0));
        assert_eq!(g.edge_bytes(b, a), None, "no reverse edge");
        assert_eq!(g.edge_bytes(a, d), None, "no such edge");
        assert_eq!(g.total_edge_bytes(), 0);
    }

    #[test]
    fn weighted_edges_keep_their_payload_after_adjacency_sorting() {
        let mut b = TaskGraphBuilder::new("w");
        let a = b.add_node("a", 1);
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        // Insert in reverse successor order so build() has to re-sort.
        b.add_edge_weighted(a, y, 300).unwrap();
        b.add_edge_weighted(a, x, 200).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.successors(a), &[x, y]);
        assert_eq!(g.edge_bytes(a, x), Some(200));
        assert_eq!(g.edge_bytes(a, y), Some(300));
        assert_eq!(g.out_edges(a).collect::<Vec<_>>(), vec![(x, 200), (y, 300)]);
        assert_eq!(g.total_edge_bytes(), 500);
    }

    #[test]
    fn weighted_duplicate_edge_is_rejected_regardless_of_payload() {
        let mut b = TaskGraphBuilder::new("wd");
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        b.add_edge_weighted(x, y, 5).unwrap();
        assert_eq!(b.add_edge_weighted(x, y, 9).unwrap_err(), GraphError::DuplicateEdge(x, y));
        assert_eq!(b.add_edge(x, y).unwrap_err(), GraphError::DuplicateEdge(x, y));
    }

    #[test]
    fn adjacency_is_sorted_regardless_of_insertion_order() {
        let mut b = TaskGraphBuilder::new("sorted");
        let a = b.add_node("a", 1);
        let x = b.add_node("x", 1);
        let y = b.add_node("y", 1);
        // Insert in reverse order; adjacency must still come out sorted.
        b.add_edge(a, y).unwrap();
        b.add_edge(a, x).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.successors(a), &[x, y]);
    }
}
