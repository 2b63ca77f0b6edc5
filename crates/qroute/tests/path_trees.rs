//! Pins the router's shortest-path tables to the search they replaced.
//!
//! Every path the router walks (a plateau move, a serial-fallback walk)
//! comes from the predecessor table [`RoutingMetric::shortest_paths`]
//! builds once per metric. For every `(from, to)` pair the table must
//! answer with exactly the path of the linear-scan Dijkstra the router
//! used to run per query, frozen below as [`scan_path`]: the SWAPs the
//! router emits follow that path hop by hop, so any other shortest path —
//! even one of equal cost — changes the compiled circuit.

use qhw::{Calibration, Topology};
use qroute::RoutingMetric;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The per-query search the tables replace, verbatim apart from its
/// buffers: settle the unvisited node of least distance (`total_cmp`,
/// lowest index first among equals), stop when `to` settles, relax only
/// on `< dist - 1e-9`.
fn scan_path(
    topology: &Topology,
    metric: &RoutingMetric,
    from: usize,
    to: usize,
) -> Option<Vec<usize>> {
    let n = topology.num_qubits();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    dist[from] = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&u| !visited[u] && dist[u].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))?;
        if u == to {
            break;
        }
        visited[u] = true;
        for &w in topology.neighbors(u) {
            if visited[w] {
                continue;
            }
            let cost = dist[u] + metric.swap_cost(u, w);
            if cost < dist[w] - 1e-9 {
                dist[w] = cost;
                prev[w] = u;
            }
        }
    }
    if !dist[to].is_finite() {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur];
        if cur == usize::MAX {
            return None;
        }
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Checks every ordered pair; returns how many pairs had no path.
fn assert_table_matches_scan(topology: &Topology, metric: &RoutingMetric, label: &str) -> usize {
    let trees = metric.shortest_paths();
    let mut path = Vec::new();
    let mut unreachable = 0;
    for from in 0..topology.num_qubits() {
        for to in 0..topology.num_qubits() {
            let want = scan_path(topology, metric, from, to);
            let found = trees.path_into(from, to, &mut path);
            assert_eq!(
                found.then(|| path.clone()),
                want,
                "{label}: path {from} -> {to} diverged"
            );
            unreachable += usize::from(!found);
        }
    }
    unreachable
}

/// Both metrics over `topology`: hops, and reliability under a random
/// normal table and under a uniform one (every SWAP costs the same, so
/// only the ordering rule picks among equal-cost paths).
fn assert_all_metrics(topology: &Topology, seed: u64, label: &str) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let random = Calibration::random_normal(topology, 1e-2, 0.5e-2, &mut rng);
    let uniform = Calibration::uniform(topology, 0.02, 0.001, 0.02);
    let hops = assert_table_matches_scan(topology, &RoutingMetric::hops(topology), label);
    for (name, cal) in [("random", &random), ("uniform", &uniform)] {
        let metric = RoutingMetric::reliability(topology, cal);
        let missing = assert_table_matches_scan(topology, &metric, &format!("{label}/{name}"));
        assert_eq!(
            missing, hops,
            "{label}/{name}: metrics disagree on reachability"
        );
    }
    hops
}

#[test]
fn tables_match_the_linear_scan_on_devices() {
    for topology in [
        Topology::ibmq_20_tokyo(),
        Topology::ibmq_16_melbourne(),
        Topology::heavy_hex(2, 2),
        Topology::grid(4, 5),
        Topology::ring(9),
    ] {
        let label = topology.name().to_owned();
        assert_eq!(assert_all_metrics(&topology, 3, &label), 0);
    }
}

#[test]
fn tables_match_the_linear_scan_on_random_connected_graphs() {
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let n = [8, 16, 30][seed as usize % 3];
        let p = [0.15, 0.3, 0.6][seed as usize / 4 % 3];
        let g = qgraph::generators::connected_erdos_renyi(n, p, 1000, &mut rng).unwrap();
        let topology = Topology::from_graph(format!("er{n}-{p}-{seed}"), g);
        let label = topology.name().to_owned();
        assert_eq!(assert_all_metrics(&topology, seed, &label), 0);
    }
}

#[test]
fn disconnected_pairs_have_no_path() {
    let mut pairs_without_path = 0;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        // Two random components side by side, plus a few isolated
        // qubits: every cross pair must report no path.
        let (a, b, isolated) = (
            6 + seed as usize % 5,
            4 + seed as usize % 3,
            seed as usize % 3,
        );
        let ga = qgraph::generators::connected_erdos_renyi(a, 0.4, 1000, &mut rng).unwrap();
        let gb = qgraph::generators::connected_erdos_renyi(b, 0.5, 1000, &mut rng).unwrap();
        let edges = ga
            .edges()
            .map(|e| (e.a(), e.b()))
            .chain(gb.edges().map(|e| (a + e.a(), a + e.b())));
        let n = a + b + isolated;
        let g = qgraph::Graph::from_edges(n, edges).unwrap();
        let topology = Topology::from_graph(format!("split{seed}"), g);
        let missing = assert_all_metrics(&topology, seed, topology.name());
        // Cross-component ordered pairs, plus each isolated qubit's pairs
        // with every other qubit.
        let reachable = a * a + b * b + isolated;
        assert_eq!(missing, n * n - reachable);
        pairs_without_path += missing;
    }
    assert!(pairs_without_path > 0);
}
