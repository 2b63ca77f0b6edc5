use std::collections::{BTreeSet, VecDeque};

use crate::GraphError;

/// An undirected edge between two node indices, stored with `a < b`.
///
/// `Edge` is a canonicalized pair: constructing `Edge::new(3, 1)` and
/// `Edge::new(1, 3)` yields the same value, so edges can be compared and
/// hashed without worrying about endpoint order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    a: usize,
    b: usize,
}

impl Edge {
    /// Creates a canonicalized edge between `u` and `v`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops are not representable).
    pub fn new(u: usize, v: usize) -> Self {
        assert_ne!(u, v, "self-loop edge ({u}, {v})");
        Edge {
            a: u.min(v),
            b: u.max(v),
        }
    }

    /// The smaller endpoint.
    pub fn a(&self) -> usize {
        self.a
    }

    /// The larger endpoint.
    pub fn b(&self) -> usize {
        self.b
    }

    /// Returns the endpoint of the edge that is not `n`.
    ///
    /// Returns `None` if `n` is not an endpoint of this edge.
    pub fn other(&self, n: usize) -> Option<usize> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }

    /// Whether `n` is one of the two endpoints.
    pub fn contains(&self, n: usize) -> bool {
        n == self.a || n == self.b
    }
}

impl From<(usize, usize)> for Edge {
    fn from((u, v): (usize, usize)) -> Self {
        Edge::new(u, v)
    }
}

/// A simple undirected graph over nodes `0..node_count`.
///
/// Nodes are dense `usize` indices; edges are stored both in an adjacency
/// list (sorted, for deterministic iteration) and a set (for O(log E)
/// membership checks). The structure is used both for MaxCut problem graphs
/// and for hardware coupling graphs.
///
/// # Examples
///
/// ```
/// use qgraph::Graph;
///
/// let mut g = Graph::new(3);
/// g.add_edge(0, 1)?;
/// g.add_edge(1, 2)?;
/// assert_eq!(g.degree(1), 2);
/// assert!(!g.has_edge(0, 2));
/// # Ok::<(), qgraph::GraphError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Graph {
    adjacency: Vec<BTreeSet<usize>>,
    edges: BTreeSet<Edge>,
}

impl Graph {
    /// Creates a graph with `node_count` nodes and no edges.
    pub fn new(node_count: usize) -> Self {
        Graph {
            adjacency: vec![BTreeSet::new(); node_count],
            edges: BTreeSet::new(),
        }
    }

    /// Builds a graph from an edge list.
    ///
    /// Duplicate edges are silently collapsed (the graph is simple).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] if an endpoint is `>=
    /// node_count` and [`GraphError::SelfLoop`] on `(u, u)` pairs.
    pub fn from_edges<I>(node_count: usize, edges: I) -> Result<Self, GraphError>
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = Graph::new(node_count);
        for (u, v) in edges {
            g.add_edge(u, v)?;
        }
        Ok(g)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `(u, v)`.
    ///
    /// Returns `true` if the edge was newly inserted and `false` if it was
    /// already present.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::NodeOutOfBounds`] or [`GraphError::SelfLoop`]
    /// for invalid endpoints.
    pub fn add_edge(&mut self, u: usize, v: usize) -> Result<bool, GraphError> {
        let n = self.node_count();
        if u >= n {
            return Err(GraphError::NodeOutOfBounds {
                node: u,
                node_count: n,
            });
        }
        if v >= n {
            return Err(GraphError::NodeOutOfBounds {
                node: v,
                node_count: n,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let inserted = self.edges.insert(Edge::new(u, v));
        if inserted {
            self.adjacency[u].insert(v);
            self.adjacency[v].insert(u);
        }
        Ok(inserted)
    }

    /// Removes the undirected edge `(u, v)`, returning whether it existed.
    pub fn remove_edge(&mut self, u: usize, v: usize) -> bool {
        if u == v || u >= self.node_count() || v >= self.node_count() {
            return false;
        }
        let removed = self.edges.remove(&Edge::new(u, v));
        if removed {
            self.adjacency[u].remove(&v);
            self.adjacency[v].remove(&u);
        }
        removed
    }

    /// Whether the edge `(u, v)` exists. Out-of-range nodes yield `false`.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        u != v
            && u < self.node_count()
            && v < self.node_count()
            && self.edges.contains(&Edge::new(u, v))
    }

    /// The degree of node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n >= node_count`.
    pub fn degree(&self, n: usize) -> usize {
        self.adjacency[n].len()
    }

    /// Iterates over the neighbors of `n` in increasing index order.
    ///
    /// # Panics
    ///
    /// Panics if `n >= node_count`.
    pub fn neighbors(&self, n: usize) -> impl Iterator<Item = usize> + '_ {
        self.adjacency[n].iter().copied()
    }

    /// Iterates over all edges in canonical (sorted) order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.edges.iter().copied()
    }

    /// Iterates over all node indices.
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.node_count()
    }

    /// The set of nodes at hop-distance exactly 1 from `n` (first
    /// neighbors) — same as [`Graph::neighbors`] but collected.
    pub fn first_neighbors(&self, n: usize) -> BTreeSet<usize> {
        self.adjacency[n].clone()
    }

    /// The set of nodes at hop-distance exactly `k` from `n`.
    ///
    /// Used for the *connectivity strength* metric of QAIM: the strength of
    /// a physical qubit is `|ring(1)| + |ring(2)|` (optionally higher rings
    /// for larger architectures).
    ///
    /// # Panics
    ///
    /// Panics if `n >= node_count`.
    pub fn ring(&self, n: usize, k: usize) -> BTreeSet<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[n] = 0;
        let mut queue = VecDeque::from([n]);
        let mut out = BTreeSet::new();
        while let Some(u) = queue.pop_front() {
            if dist[u] == k {
                out.insert(u);
                continue; // no need to expand beyond the target ring
            }
            for v in self.neighbors(u) {
                if dist[v] == usize::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        out
    }

    /// Whether the graph is connected (the empty graph and single-node graph
    /// count as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut queue = VecDeque::from([0usize]);
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for v in self.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == n
    }

    /// The connected components, each a sorted list of nodes; components are
    /// ordered by their smallest node.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut seen = vec![false; n];
        let mut components = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut queue = VecDeque::from([start]);
            while let Some(u) = queue.pop_front() {
                for v in self.neighbors(u) {
                    if !seen[v] {
                        seen[v] = true;
                        comp.push(v);
                        queue.push_back(v);
                    }
                }
            }
            comp.sort_unstable();
            components.push(comp);
        }
        components
    }

    /// The number of common neighbors of `u` and `v` (triangle count through
    /// the edge `(u, v)` when the edge exists). Used by the analytic p=1
    /// QAOA MaxCut expectation.
    pub fn common_neighbors(&self, u: usize, v: usize) -> usize {
        self.adjacency[u].intersection(&self.adjacency[v]).count()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|n| self.degree(n))
            .max()
            .unwrap_or(0)
    }
}

impl Extend<(usize, usize)> for Graph {
    /// Extends the graph with edges, panicking on invalid endpoints.
    fn extend<T: IntoIterator<Item = (usize, usize)>>(&mut self, iter: T) {
        for (u, v) in iter {
            self.add_edge(u, v).expect("invalid edge in Extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k4() -> Graph {
        Graph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn edge_canonicalizes_order() {
        assert_eq!(Edge::new(3, 1), Edge::new(1, 3));
        assert_eq!(Edge::new(1, 3).a(), 1);
        assert_eq!(Edge::new(1, 3).b(), 3);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(2, 5);
        assert_eq!(e.other(2), Some(5));
        assert_eq!(e.other(5), Some(2));
        assert_eq!(e.other(3), None);
        assert!(e.contains(2) && e.contains(5) && !e.contains(0));
    }

    #[test]
    #[should_panic]
    fn edge_self_loop_panics() {
        let _ = Edge::new(2, 2);
    }

    #[test]
    fn add_edge_rejects_out_of_bounds() {
        let mut g = Graph::new(2);
        assert_eq!(
            g.add_edge(0, 2),
            Err(GraphError::NodeOutOfBounds {
                node: 2,
                node_count: 2
            })
        );
        assert_eq!(
            g.add_edge(5, 0),
            Err(GraphError::NodeOutOfBounds {
                node: 5,
                node_count: 2
            })
        );
    }

    #[test]
    fn add_edge_rejects_self_loop() {
        let mut g = Graph::new(2);
        assert_eq!(g.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut g = Graph::new(3);
        assert!(g.add_edge(0, 1).unwrap());
        assert!(!g.add_edge(1, 0).unwrap());
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn remove_edge_round_trip() {
        let mut g = k4();
        assert!(g.remove_edge(0, 3));
        assert!(!g.has_edge(0, 3));
        assert!(!g.remove_edge(0, 3));
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.degree(0), 2);
        // invalid removals are no-ops
        assert!(!g.remove_edge(1, 1));
        assert!(!g.remove_edge(0, 99));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = k4();
        for n in g.nodes() {
            assert_eq!(g.degree(n), 3);
        }
        assert_eq!(g.neighbors(0).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn rings_of_path_graph() {
        // 0 - 1 - 2 - 3 - 4
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).unwrap();
        assert_eq!(g.ring(0, 1), BTreeSet::from([1]));
        assert_eq!(g.ring(0, 2), BTreeSet::from([2]));
        assert_eq!(g.ring(2, 1), BTreeSet::from([1, 3]));
        assert_eq!(g.ring(2, 2), BTreeSet::from([0, 4]));
        assert_eq!(g.ring(0, 5), BTreeSet::new());
        assert_eq!(g.ring(0, 0), BTreeSet::from([0]));
    }

    #[test]
    fn connectivity() {
        assert!(Graph::new(0).is_connected());
        assert!(Graph::new(1).is_connected());
        assert!(!Graph::new(2).is_connected());
        assert!(k4().is_connected());
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert!(!g.is_connected());
        assert_eq!(g.connected_components(), vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    fn common_neighbors_counts_triangles() {
        let g = k4();
        assert_eq!(g.common_neighbors(0, 1), 2); // nodes 2 and 3
        let path = Graph::from_edges(3, [(0, 1), (1, 2)]).unwrap();
        assert_eq!(path.common_neighbors(0, 2), 1);
        assert_eq!(path.common_neighbors(0, 1), 0);
    }

    #[test]
    fn extend_adds_edges() {
        let mut g = Graph::new(4);
        g.extend([(0, 1), (2, 3)]);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn max_degree_and_degree_sum() {
        let g = Graph::from_edges(4, [(0, 1), (0, 2), (0, 3)]).unwrap();
        assert_eq!(g.max_degree(), 3);
        assert_eq!(Graph::new(0).max_degree(), 0);
    }
}
