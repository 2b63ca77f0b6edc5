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
    fn shortest_path_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        assert_eq!(shortest_path(&g, 0, 3), None);
    }
}
