//! Random and deterministic graph generators.
//!
//! The paper's evaluation workloads are Erdős–Rényi `G(n, p)` graphs with
//! edge probabilities 0.1–0.6 and random `k`-regular graphs with 3–8 (up to
//! 15) edges per node. The generators here are seeded so every experiment
//! in the harness is reproducible.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{Graph, GraphError};

/// Samples an Erdős–Rényi `G(n, p)` random graph.
///
/// Each of the `n * (n - 1) / 2` possible edges is included independently
/// with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `p` is not in `[0, 1]` or is
/// not finite.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let g = qgraph::generators::erdos_renyi(20, 0.5, &mut rng)?;
/// assert_eq!(g.node_count(), 20);
/// # Ok::<(), qgraph::GraphError>(())
/// ```
pub fn erdos_renyi<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameters(format!(
            "edge probability must be in [0, 1], got {p}"
        )));
    }
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u, v).expect("endpoints in range");
            }
        }
    }
    Ok(g)
}

/// Samples a connected Erdős–Rényi graph by rejection, retrying up to
/// `max_attempts` times.
///
/// QAOA-MaxCut instances on disconnected graphs decompose trivially, so the
/// evaluation only uses connected samples.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] for an invalid `p` and
/// [`GraphError::GenerationFailed`] if no connected sample is found within
/// the attempt budget.
pub fn connected_erdos_renyi<R: Rng + ?Sized>(
    n: usize,
    p: f64,
    max_attempts: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    for _ in 0..max_attempts {
        let g = erdos_renyi(n, p, rng)?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed(format!(
        "no connected G({n}, {p}) sample in {max_attempts} attempts"
    )))
}

/// Samples a uniform random simple `k`-regular graph on `n` nodes using the
/// configuration (pairing) model with restarts.
///
/// Every node has exactly `k` neighbors. Internally each node contributes
/// `k` half-edges (stubs); the stubs are shuffled and paired, and the sample
/// is rejected and retried when the pairing produces a self-loop or parallel
/// edge.
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] when `n * k` is odd or
/// `k >= n`, and [`GraphError::GenerationFailed`] if no simple pairing is
/// found within an internal retry budget (vanishingly unlikely for the
/// `k <= 15`, `n <= 36` parameter ranges the paper uses).
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(11);
/// let g = qgraph::generators::random_regular(20, 3, &mut rng)?;
/// assert!(g.nodes().all(|v| g.degree(v) == 3));
/// # Ok::<(), qgraph::GraphError>(())
/// ```
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if k >= n {
        return Err(GraphError::InvalidParameters(format!(
            "regular degree k={k} must be < n={n}"
        )));
    }
    if (n * k) % 2 != 0 {
        return Err(GraphError::InvalidParameters(format!(
            "n*k must be even, got n={n}, k={k}"
        )));
    }
    if k == 0 {
        return Ok(Graph::new(n));
    }
    const MAX_RESTARTS: usize = 10_000;
    'restart: for _ in 0..MAX_RESTARTS {
        // Suitable-pairing variant of the configuration model (as used by
        // NetworkX): shuffle the stub multiset, then repeatedly take the
        // first remaining stub and pair it with the first remaining stub
        // that does not create a self-loop or parallel edge. Restart the
        // whole attempt when no suitable partner exists. This succeeds with
        // high probability even for dense degrees (k up to ~n/2), unlike a
        // reject-whole-pairing scheme whose success rate decays like
        // exp(-k^2/4).
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat(v).take(k)).collect();
        stubs.shuffle(rng);
        let mut g = Graph::new(n);
        while !stubs.is_empty() {
            let u = stubs[0];
            let Some(pos) = stubs
                .iter()
                .skip(1)
                .position(|&v| v != u && !g.has_edge(u, v))
            else {
                continue 'restart;
            };
            let v = stubs.remove(pos + 1);
            stubs.remove(0);
            g.add_edge(u, v).expect("endpoints in range");
        }
        return Ok(g);
    }
    Err(GraphError::GenerationFailed(format!(
        "no simple {k}-regular pairing on {n} nodes in {MAX_RESTARTS} restarts"
    )))
}

/// Samples a *connected* random `k`-regular graph by rejection.
///
/// # Errors
///
/// Same as [`random_regular`], plus [`GraphError::GenerationFailed`] when no
/// connected sample appears within `max_attempts`.
pub fn connected_random_regular<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    max_attempts: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    for _ in 0..max_attempts {
        let g = random_regular(n, k, rng)?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed(format!(
        "no connected {k}-regular sample on {n} nodes in {max_attempts} attempts"
    )))
}

/// Samples a connected Erdős–Rényi graph conditioned on an exact edge count.
///
/// Used for the §VI comparison against the temporal-planner baseline, which
/// evaluates "8-node erdos-renyi random graphs with exactly 8 edges".
///
/// # Errors
///
/// Returns [`GraphError::InvalidParameters`] if `edges` exceeds `n(n-1)/2`
/// or is below `n - 1` (a connected graph needs at least a spanning tree),
/// and [`GraphError::GenerationFailed`] on retry exhaustion.
pub fn connected_gnm<R: Rng + ?Sized>(
    n: usize,
    edges: usize,
    max_attempts: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let max_edges = n * n.saturating_sub(1) / 2;
    if edges > max_edges {
        return Err(GraphError::InvalidParameters(format!(
            "{edges} edges requested but K_{n} has only {max_edges}"
        )));
    }
    if n > 0 && edges < n - 1 {
        return Err(GraphError::InvalidParameters(format!(
            "{edges} edges cannot connect {n} nodes"
        )));
    }
    let mut all: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    for _ in 0..max_attempts {
        all.shuffle(rng);
        let g = Graph::from_edges(n, all.iter().take(edges).copied())?;
        if g.is_connected() {
            return Ok(g);
        }
    }
    Err(GraphError::GenerationFailed(format!(
        "no connected G({n}, m={edges}) sample in {max_attempts} attempts"
    )))
}

/// The path graph `0 - 1 - ... - (n-1)`.
pub fn path(n: usize) -> Graph {
    Graph::from_edges(n, (1..n).map(|v| (v - 1, v))).expect("valid path edges")
}

/// The cycle graph on `n >= 3` nodes.
///
/// # Panics
///
/// Panics if `n < 3` (a simple cycle needs at least 3 nodes).
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "cycle requires at least 3 nodes, got {n}");
    let mut g = path(n);
    g.add_edge(n - 1, 0).expect("valid closing edge");
    g
}

/// The complete graph `K_n`.
pub fn complete(n: usize) -> Graph {
    Graph::from_edges(n, (0..n).flat_map(|u| ((u + 1)..n).map(move |v| (u, v))))
        .expect("valid complete-graph edges")
}

/// The `rows x cols` 2-D grid (mesh) graph with nodes in row-major order.
///
/// Node `(r, c)` has index `r * cols + c`. The paper's hypothetical 36-qubit
/// device is `grid(6, 6)`.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let mut g = Graph::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let i = r * cols + c;
            if c + 1 < cols {
                g.add_edge(i, i + 1).expect("valid grid edge");
            }
            if r + 1 < rows {
                g.add_edge(i, i + cols).expect("valid grid edge");
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn erdos_renyi_extreme_probabilities() {
        let mut r = rng(1);
        let empty = erdos_renyi(10, 0.0, &mut r).unwrap();
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, &mut r).unwrap();
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn erdos_renyi_rejects_bad_probability() {
        let mut r = rng(1);
        assert!(erdos_renyi(5, -0.1, &mut r).is_err());
        assert!(erdos_renyi(5, 1.5, &mut r).is_err());
        assert!(erdos_renyi(5, f64::NAN, &mut r).is_err());
    }

    #[test]
    fn erdos_renyi_edge_count_near_expectation() {
        let mut r = rng(42);
        let trials = 50;
        let (n, p) = (20usize, 0.5);
        let total: usize = (0..trials)
            .map(|_| erdos_renyi(n, p, &mut r).unwrap().edge_count())
            .sum();
        let mean = total as f64 / trials as f64;
        let expected = p * (n * (n - 1) / 2) as f64;
        assert!(
            (mean - expected).abs() < 10.0,
            "mean {mean} too far from {expected}"
        );
    }

    #[test]
    fn erdos_renyi_is_seed_deterministic() {
        let g1 = erdos_renyi(15, 0.3, &mut rng(9)).unwrap();
        let g2 = erdos_renyi(15, 0.3, &mut rng(9)).unwrap();
        assert_eq!(g1, g2);
    }

    #[test]
    fn connected_er_is_connected() {
        let mut r = rng(3);
        let g = connected_erdos_renyi(12, 0.5, 1000, &mut r).unwrap();
        assert!(g.is_connected());
    }

    #[test]
    fn regular_graphs_have_exact_degree() {
        let mut r = rng(5);
        for k in [3, 4, 5, 6, 7, 8] {
            let g = random_regular(20, k, &mut r).unwrap();
            assert!(g.nodes().all(|v| g.degree(v) == k), "k={k}");
            assert_eq!(g.edge_count(), 20 * k / 2);
        }
    }

    #[test]
    fn regular_rejects_invalid_parameters() {
        let mut r = rng(5);
        assert!(matches!(
            random_regular(5, 3, &mut r),
            Err(GraphError::InvalidParameters(_))
        ));
        assert!(matches!(
            random_regular(4, 4, &mut r),
            Err(GraphError::InvalidParameters(_))
        ));
    }

    #[test]
    fn regular_zero_degree_is_empty() {
        let g = random_regular(6, 0, &mut rng(2)).unwrap();
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn connected_regular_is_connected() {
        let g = connected_random_regular(14, 3, 1000, &mut rng(8)).unwrap();
        assert!(g.is_connected());
        assert!(g.nodes().all(|v| g.degree(v) == 3));
    }

    #[test]
    fn gnm_has_exact_edges_and_connectivity() {
        let g = connected_gnm(8, 8, 1000, &mut rng(13)).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 8);
        assert!(g.is_connected());
    }

    #[test]
    fn gnm_rejects_unsatisfiable_counts() {
        assert!(connected_gnm(8, 100, 10, &mut rng(1)).is_err());
        assert!(connected_gnm(8, 3, 10, &mut rng(1)).is_err());
    }

    #[test]
    fn deterministic_families() {
        let p = path(4);
        assert_eq!(p.edge_count(), 3);
        let c = cycle(5);
        assert_eq!(c.edge_count(), 5);
        assert!(c.nodes().all(|v| c.degree(v) == 2));
        let k = complete(6);
        assert_eq!(k.edge_count(), 15);
        let g = grid(6, 6);
        assert_eq!(g.node_count(), 36);
        assert_eq!(g.edge_count(), 2 * 6 * 5);
        // corner, edge, interior degrees
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(7), 4);
    }

    #[test]
    #[should_panic]
    fn cycle_too_small_panics() {
        let _ = cycle(2);
    }
}
