//! All-pairs shortest-path computation and distance matrices.
//!
//! Both the IC and VIC methodologies of the paper rely on qubit-to-qubit
//! distances in the hardware coupling graph (Figure 6(c)/(d)):
//!
//! * **Unit distances** (IC): each coupling edge has weight 1, so the
//!   distance is the hop count — computed by [`floyd_warshall`].
//! * **Reliability-weighted distances** (VIC): each edge is weighted by the
//!   inverse of its two-qubit gate success rate, so unreliable links look
//!   "longer" — computed by [`floyd_warshall_weighted`].
//!
//! Distances are computed once per hardware target (the paper notes the
//! Floyd–Warshall matrix is "measured once ... and accessed from memory
//! during QAIM") and reused by every compilation pass.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::Graph;

/// Process-wide count of all-pairs shortest-path computations (both
/// [`floyd_warshall`] and [`floyd_warshall_weighted`]).
///
/// The APSP matrices are `O(n^3)` to build and are meant to be computed
/// once per hardware target and shared (e.g. via `qhw::HardwareContext`).
/// This counter is the observability hook that lets tests *prove* the
/// caching discipline holds: snapshot [`apsp_invocations`] around a batch
/// of compilations and assert the delta.
static APSP_INVOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// The number of Floyd–Warshall runs (unit or weighted) since process
/// start. Monotonically increasing; compare two snapshots to count the
/// runs a region of code triggered.
pub fn apsp_invocations() -> usize {
    APSP_INVOCATIONS.load(Ordering::Relaxed)
}

thread_local! {
    static THREAD_APSP_INVOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// [`apsp_invocations`] counting only the runs made on the calling
/// thread. A delta of it is exact even while other threads, such as
/// concurrently running tests, compute their own matrices.
pub fn apsp_invocations_on_this_thread() -> usize {
    THREAD_APSP_INVOCATIONS.with(Cell::get)
}

fn count_apsp() {
    APSP_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    THREAD_APSP_INVOCATIONS.with(|c| c.set(c.get() + 1));
}

/// Process-wide count of [`ShortestPathTrees::build`] calls: the
/// companion of [`APSP_INVOCATIONS`] for the per-metric path tables a
/// hardware context builds on first use.
static PATH_TREE_BUILDS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_PATH_TREE_BUILDS: Cell<usize> = const { Cell::new(0) };
}

/// The number of [`ShortestPathTrees`] built since process start, on any
/// thread. Compare two snapshots to count the builds a region of code
/// (say, a multi-worker batch) triggered.
pub fn path_tree_builds() -> usize {
    PATH_TREE_BUILDS.load(Ordering::Relaxed)
}

/// [`path_tree_builds`] counting only the builds made on the calling
/// thread.
pub fn path_tree_builds_on_this_thread() -> usize {
    THREAD_PATH_TREE_BUILDS.with(Cell::get)
}

/// Dense all-pairs hop-distance matrix produced by [`floyd_warshall`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceMatrix {
    n: usize,
    /// `usize::MAX` encodes "unreachable".
    dist: Vec<usize>,
}

impl DistanceMatrix {
    /// The hop distance from `u` to `v`, or `None` when unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn get(&self, u: usize, v: usize) -> Option<usize> {
        let d = self.dist[u * self.n + v];
        (d != usize::MAX).then_some(d)
    }

    /// Number of nodes the matrix covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The raw row-major distance table (`usize::MAX` = unreachable).
    ///
    /// Routing hot loops index this directly — one slice read per lookup
    /// instead of the `Option` round-trip of [`DistanceMatrix::get`].
    pub fn flat(&self) -> &[usize] {
        &self.dist
    }

    /// The table as dense `f64` distances (`f64::INFINITY` = unreachable,
    /// finite hops converted exactly) — built once so per-lookup
    /// integer→float conversion stays out of routing hot loops.
    pub fn to_f64_flat(&self) -> Vec<f64> {
        self.dist
            .iter()
            .map(|&d| {
                if d == usize::MAX {
                    f64::INFINITY
                } else {
                    d as f64
                }
            })
            .collect()
    }

    /// The largest finite pairwise distance (graph diameter), or `None` for
    /// graphs with fewer than two mutually reachable nodes.
    pub fn diameter(&self) -> Option<usize> {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != usize::MAX && d > 0)
            .max()
    }
}

/// Dense all-pairs weighted-distance matrix produced by
/// [`floyd_warshall_weighted`].
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedDistanceMatrix {
    n: usize,
    /// `f64::INFINITY` encodes "unreachable".
    dist: Vec<f64>,
}

impl WeightedDistanceMatrix {
    /// The weighted distance from `u` to `v`, or `None` when unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn get(&self, u: usize, v: usize) -> Option<f64> {
        let d = self.dist[u * self.n + v];
        d.is_finite().then_some(d)
    }

    /// The raw row-major distance table (`f64::INFINITY` = unreachable).
    pub fn flat(&self) -> &[f64] {
        &self.dist
    }

    /// Number of nodes the matrix covers.
    pub fn node_count(&self) -> usize {
        self.n
    }
}

/// One shortest-path tree per source node, stored as a predecessor table:
/// a path query walks a row of it instead of re-running a search.
///
/// The tree from `from` is exactly what a linear-scan Dijkstra from
/// `from` would leave in its predecessor array: repeatedly settle the
/// unsettled node of least tentative distance (ordered by
/// [`f64::total_cmp`]), the lowest index first among equals, and relax a
/// neighbor `w` of the settled `u` only when
/// `dist[u] + cost(u, w) < dist[w] - 1e-9`. A search that stops once its
/// target settles walks the same predecessors, so every query answers
/// with the path such a search returns.
#[derive(Debug)]
pub struct ShortestPathTrees {
    n: usize,
    /// `prev[from * n + v]`: `v`'s predecessor on the `from → v` path;
    /// [`NO_PREV`] for `v == from` and for unreachable `v`.
    prev: Vec<u32>,
}

const NO_PREV: u32 = u32::MAX;

/// `x`'s position in [`f64::total_cmp`] order as an unsigned key.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

impl ShortestPathTrees {
    /// Builds the trees from every node of the graph whose hop-distance
    /// matrix is `hops` (its edges are the pairs at distance 1), with edge
    /// costs `cost(u, w)` (non-negative; `f64::INFINITY` or NaN never
    /// relaxes, so either marks a pair to route around). One binary-heap
    /// Dijkstra per source, `O(n · m log n)` in all, and counted by
    /// [`path_tree_builds`].
    ///
    /// The heap pops `(total_cmp key, index)` pairs, so the first live
    /// entry is the node a linear scan would settle next: an unsettled
    /// node's newest entry carries its current distance, and every older
    /// entry of it is strictly larger.
    ///
    /// # Panics
    ///
    /// Panics if the graph has `u32::MAX` nodes or more.
    pub fn build(hops: &DistanceMatrix, cost: impl Fn(usize, usize) -> f64) -> Self {
        PATH_TREE_BUILDS.fetch_add(1, Ordering::Relaxed);
        THREAD_PATH_TREE_BUILDS.with(|c| c.set(c.get() + 1));
        let n = hops.node_count();
        assert!(
            n < NO_PREV as usize,
            "{n} nodes overflow the predecessor table"
        );
        // CSR adjacency with each directed edge's cost evaluated once, not
        // once per source.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut adjacent = Vec::new();
        offsets.push(0);
        for u in 0..n {
            adjacent.extend(
                (0..n)
                    .filter(|&w| hops.dist[u * n + w] == 1)
                    .map(|w| (w, cost(u, w))),
            );
            offsets.push(adjacent.len());
        }
        let mut prev = vec![NO_PREV; n * n];
        let mut dist = vec![f64::INFINITY; n];
        let mut settled = vec![false; n];
        let mut heap = std::collections::BinaryHeap::new();
        for from in 0..n {
            let tree = &mut prev[from * n..(from + 1) * n];
            dist.fill(f64::INFINITY);
            settled.fill(false);
            dist[from] = 0.0;
            heap.push(std::cmp::Reverse((total_order_key(0.0), from)));
            while let Some(std::cmp::Reverse((_, u))) = heap.pop() {
                if settled[u] {
                    continue;
                }
                settled[u] = true;
                for &(w, edge_cost) in &adjacent[offsets[u]..offsets[u + 1]] {
                    if settled[w] {
                        continue;
                    }
                    let through = dist[u] + edge_cost;
                    if through < dist[w] - 1e-9 {
                        dist[w] = through;
                        tree[w] = u as u32;
                        heap.push(std::cmp::Reverse((total_order_key(through), w)));
                    }
                }
            }
        }
        ShortestPathTrees { n, prev }
    }

    /// Leaves the node sequence from `from` to `to` (both inclusive) in
    /// `path` and returns `true`, or returns `false` when `to` is
    /// unreachable from `from`. Walks `from`'s tree back from `to`: no
    /// search, no allocation beyond `path`'s own growth.
    ///
    /// # Panics
    ///
    /// Panics if `from` or `to` is out of range.
    pub fn path_into(&self, from: usize, to: usize, path: &mut Vec<usize>) -> bool {
        let tree = &self.prev[from * self.n..(from + 1) * self.n];
        path.clear();
        path.push(to);
        let mut cur = to;
        while cur != from {
            match tree[cur] {
                NO_PREV => return false,
                p => cur = p as usize,
            }
            path.push(cur);
        }
        path.reverse();
        true
    }
}

/// Computes all-pairs hop distances with the Floyd–Warshall algorithm.
///
/// `O(n^3)` time, `O(n^2)` memory — run once per hardware graph and cached.
///
/// # Examples
///
/// ```
/// let g = qgraph::generators::path(4);
/// let d = qgraph::shortest_path::floyd_warshall(&g);
/// assert_eq!(d.get(0, 3), Some(3));
/// assert_eq!(d.get(2, 2), Some(0));
/// ```
pub fn floyd_warshall(g: &Graph) -> DistanceMatrix {
    count_apsp();
    let n = g.node_count();
    let mut dist = vec![usize::MAX; n * n];
    for u in 0..n {
        dist[u * n + u] = 0;
        for v in g.neighbors(u) {
            dist[u * n + v] = 1;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if dik == usize::MAX {
                continue;
            }
            for j in 0..n {
                let dkj = dist[k * n + j];
                if dkj == usize::MAX {
                    continue;
                }
                let through = dik + dkj;
                if through < dist[i * n + j] {
                    dist[i * n + j] = through;
                }
            }
        }
    }
    DistanceMatrix { n, dist }
}

/// Computes all-pairs shortest distances with per-edge weights supplied by
/// `weight(u, v)`.
///
/// The VIC methodology passes `weight = 1 / success_rate(u, v)` so that the
/// resulting distances encode operation reliability (Figure 6(d)).
///
/// # Panics
///
/// Panics if `weight` returns a negative or non-finite value for an existing
/// edge (Floyd–Warshall requires non-negative weights, and reliability
/// weights are always >= 1).
pub fn floyd_warshall_weighted<F>(g: &Graph, mut weight: F) -> WeightedDistanceMatrix
where
    F: FnMut(usize, usize) -> f64,
{
    count_apsp();
    let n = g.node_count();
    let mut dist = vec![f64::INFINITY; n * n];
    for u in 0..n {
        dist[u * n + u] = 0.0;
        for v in g.neighbors(u) {
            let w = weight(u, v);
            assert!(
                w.is_finite() && w >= 0.0,
                "edge weight for ({u}, {v}) must be finite and non-negative, got {w}"
            );
            dist[u * n + v] = w;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let dik = dist[i * n + k];
            if !dik.is_finite() {
                continue;
            }
            for j in 0..n {
                let through = dik + dist[k * n + j];
                if through < dist[i * n + j] {
                    dist[i * n + j] = through;
                }
            }
        }
    }
    WeightedDistanceMatrix { n, dist }
}

/// Single-source hop distances by breadth-first search.
///
/// Entries are `None` for unreachable nodes. Cheaper than Floyd–Warshall
/// when only one source is needed.
///
/// # Panics
///
/// Panics if `source >= g.node_count()`.
pub fn bfs_distances(g: &Graph, source: usize) -> Vec<Option<usize>> {
    assert!(source < g.node_count(), "source {source} out of range");
    let mut dist = vec![None; g.node_count()];
    dist[source] = Some(0);
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let du = dist[u].expect("queued nodes have distances");
        for v in g.neighbors(u) {
            if dist[v].is_none() {
                dist[v] = Some(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Reconstructs one shortest path (as a node sequence, inclusive of both
/// endpoints) between `u` and `v` using hop distances.
///
/// Returns `None` when `v` is unreachable from `u`. When several shortest
/// paths exist the lexicographically-first one (by neighbor index) is
/// returned, which keeps routing deterministic.
///
/// # Panics
///
/// Panics if `u` or `v` is out of range.
pub fn shortest_path(g: &Graph, u: usize, v: usize) -> Option<Vec<usize>> {
    let dist_from_v = bfs_distances(g, v);
    dist_from_v[u]?;
    let mut path = vec![u];
    let mut current = u;
    while current != v {
        let d = dist_from_v[current].expect("on-path nodes are reachable");
        let next = g
            .neighbors(current)
            .find(|&w| dist_from_v[w] == Some(d - 1))
            .expect("some neighbor is closer to the target");
        path.push(next);
        current = next;
    }
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn unit_distances_on_path() {
        let g = generators::path(5);
        let d = floyd_warshall(&g);
        assert_eq!(d.get(0, 4), Some(4));
        assert_eq!(d.get(1, 3), Some(2));
        assert_eq!(d.get(2, 2), Some(0));
        assert_eq!(d.diameter(), Some(4));
    }

    #[test]
    fn unreachable_is_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = floyd_warshall(&g);
        assert_eq!(d.get(0, 2), None);
        assert_eq!(d.get(0, 1), Some(1));
    }

    #[test]
    fn weighted_distances_match_fig6() {
        // Hypothetical 6-qubit ring of Figure 6(a) with the success rates of
        // Figure 6(b): edges (0,1)=0.90 (0,5)=0.82 (1,2)=0.85 (1,4)=0.81
        // (2,3)=0.89 (3,4)=0.88 (4,5)=0.84.
        let g =
            Graph::from_edges(6, [(0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)]).unwrap();
        let rate = |u: usize, v: usize| -> f64 {
            match (u.min(v), u.max(v)) {
                (0, 1) => 0.90,
                (0, 5) => 0.82,
                (1, 2) => 0.85,
                (1, 4) => 0.81,
                (2, 3) => 0.89,
                (3, 4) => 0.88,
                (4, 5) => 0.84,
                _ => unreachable!(),
            }
        };
        let w = floyd_warshall_weighted(&g, |u, v| 1.0 / rate(u, v));
        // Figure 6(d) reports (0,1)=1.11, (0,2)=2.29, (0,3)=3.41, (0,4)=2.34,
        // (0,5)=1.22 (values rounded to 2 decimals in the paper).
        let expect = [(1, 1.11), (2, 2.29), (3, 3.41), (4, 2.34), (5, 1.22)];
        for (v, want) in expect {
            let got = w.get(0, v).unwrap();
            assert!((got - want).abs() < 0.01, "d(0,{v}) = {got}, want {want}");
        }
        // And the unit-distance matrix should match Figure 6(c) row 0.
        let d = floyd_warshall(&g);
        for (v, want) in [(1, 1), (2, 2), (3, 3), (4, 2), (5, 1)] {
            assert_eq!(d.get(0, v), Some(want));
        }
    }

    #[test]
    fn weighted_reduces_to_unit_with_weight_one() {
        let g = generators::cycle(7);
        let d = floyd_warshall(&g);
        let w = floyd_warshall_weighted(&g, |_, _| 1.0);
        for u in 0..7 {
            for v in 0..7 {
                assert_eq!(d.get(u, v).map(|x| x as f64), w.get(u, v));
            }
        }
    }

    #[test]
    #[should_panic]
    fn weighted_rejects_negative_weight() {
        let g = generators::path(3);
        let _ = floyd_warshall_weighted(&g, |_, _| -1.0);
    }

    #[test]
    fn bfs_matches_floyd_warshall() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let g = generators::erdos_renyi(15, 0.3, &mut rng).unwrap();
        let d = floyd_warshall(&g);
        for s in 0..15 {
            let bfs = bfs_distances(&g, s);
            for (t, &bt) in bfs.iter().enumerate() {
                assert_eq!(bt, d.get(s, t), "s={s}, t={t}");
            }
        }
    }

    #[test]
    fn shortest_path_endpoints_and_length() {
        let g = generators::grid(3, 3);
        let p = shortest_path(&g, 0, 8).unwrap();
        assert_eq!(p.first(), Some(&0));
        assert_eq!(p.last(), Some(&8));
        assert_eq!(p.len(), 5); // 4 hops
        for pair in p.windows(2) {
            assert!(g.has_edge(pair[0], pair[1]));
        }
        // trivial path
        assert_eq!(shortest_path(&g, 4, 4), Some(vec![4]));
    }

    #[test]
    fn path_trees_walk_lowest_index_shortest_paths() {
        // A 4-cycle 0-1-2-3-0 plus an isolated node 4: both 0→2 paths tie
        // at two hops, and the lower-index middle node (1) settles first.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let before = path_tree_builds_on_this_thread();
        let trees = ShortestPathTrees::build(&floyd_warshall(&g), |_, _| 1.0);
        assert_eq!(path_tree_builds_on_this_thread() - before, 1);
        let mut path = Vec::new();
        assert!(trees.path_into(0, 2, &mut path));
        assert_eq!(path, [0, 1, 2]);
        assert!(trees.path_into(2, 0, &mut path));
        assert_eq!(path, [2, 1, 0]);
        assert!(trees.path_into(3, 3, &mut path));
        assert_eq!(path, [3]);
        assert!(!trees.path_into(0, 4, &mut path));
        // A costlier edge diverts the tie to the other side.
        let trees = ShortestPathTrees::build(&floyd_warshall(&g), |a, b| {
            if (a.min(b), a.max(b)) == (0, 1) {
                2.0
            } else {
                1.0
            }
        });
        assert!(trees.path_into(0, 2, &mut path));
        assert_eq!(path, [0, 3, 2]);
    }

    #[test]
    fn shortest_path_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(shortest_path(&g, 0, 3), None);
    }
}
