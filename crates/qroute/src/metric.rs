use std::sync::Arc;

use qgraph::shortest_path::{DistanceMatrix, ShortestPathTrees, WeightedDistanceMatrix};
use qhw::{Calibration, HardwareContext, PathTreeCell, Topology};

/// The distance notion the router (and IC/VIC layer formation) uses.
///
/// * **Hops** — every coupling edge costs 1; distance is the shortest path
///   length (Figure 6(c)). Used by NAIVE, QAIM, IP and IC.
/// * **Reliability** — edge `(u, v)` costs `1 / cnot_success(u, v)`, so
///   low-reliability links look longer and routing avoids them
///   (Figure 6(d)). Used by VIC.
///
/// Both variants carry the hop-distance matrix: the router's SWAP-count
/// potential is always measured in hops (each SWAP changes a hop distance
/// by integral amounts, guaranteeing fast termination), while the
/// reliability weights steer *which* equal-hop path is taken and which
/// gates the incremental layer former prioritizes.
///
/// The distance matrices are held behind [`Arc`]: building a metric from a
/// [`HardwareContext`] ([`RoutingMetric::from_context`]) shares the
/// context's cached matrices instead of re-running Floyd–Warshall, and
/// cloning a metric clones pointers, not `O(n^2)` data. The same holds
/// for the metric's shortest-path table ([`RoutingMetric::shortest_paths`]),
/// which is built on the first path query and shared with the context
/// from then on.
#[derive(Debug, Clone)]
pub struct RoutingMetric {
    hops: Arc<DistanceMatrix>,
    /// The hop matrix pre-converted to dense `f64` (`INFINITY` =
    /// unreachable): [`RoutingMetric::dist`] for the unit metric is one
    /// slice read from this table instead of an `Option` round-trip plus
    /// an integer→float conversion per lookup — the difference dominates
    /// the router's candidate-evaluation loop.
    hops_f64: Arc<Vec<f64>>,
    n: usize,
    hop_diameter: usize,
    paths: PathTreeCell,
    weighted: Option<Weighted>,
}

#[derive(Debug, Clone)]
struct Weighted {
    distances: Arc<WeightedDistanceMatrix>,
    /// Dense per-edge weights for local SWAP-step costs.
    edge_weight: Arc<Vec<f64>>,
    n: usize,
}

/// Builds the dense `1 / success` per-edge weight table VIC's local SWAP
/// costs read.
fn edge_weights(topology: &Topology, calibration: &Calibration) -> Vec<f64> {
    let n = topology.num_qubits();
    let mut edge_weight = vec![f64::INFINITY; n * n];
    for e in topology.graph().edges() {
        let w = 1.0 / calibration.cnot_success(e.a(), e.b());
        edge_weight[e.a() * n + e.b()] = w;
        edge_weight[e.b() * n + e.a()] = w;
    }
    edge_weight
}

impl RoutingMetric {
    /// Unit-distance metric over `topology`.
    ///
    /// Runs Floyd–Warshall afresh; prefer [`RoutingMetric::from_context`]
    /// when a [`HardwareContext`] is available.
    pub fn hops(topology: &Topology) -> Self {
        let hops = Arc::new(topology.distances());
        let hops_f64 = Arc::new(hops.to_f64_flat());
        RoutingMetric {
            hop_diameter: hops.diameter().unwrap_or(0),
            hops,
            hops_f64,
            n: topology.num_qubits(),
            paths: PathTreeCell::default(),
            weighted: None,
        }
    }

    /// Reliability-weighted metric over `topology` with `calibration`.
    ///
    /// Runs Floyd–Warshall afresh (twice); prefer
    /// [`RoutingMetric::from_context`] when a [`HardwareContext`] is
    /// available.
    pub fn reliability(topology: &Topology, calibration: &Calibration) -> Self {
        let n = topology.num_qubits();
        let hops = Arc::new(topology.distances());
        let hops_f64 = Arc::new(hops.to_f64_flat());
        RoutingMetric {
            hop_diameter: hops.diameter().unwrap_or(0),
            hops,
            hops_f64,
            n,
            paths: PathTreeCell::default(),
            weighted: Some(Weighted {
                distances: Arc::new(topology.weighted_distances(calibration)),
                edge_weight: Arc::new(edge_weights(topology, calibration)),
                n,
            }),
        }
    }

    /// A metric sharing `context`'s cached distance matrices and its
    /// shortest-path table for this metric — no shortest-path
    /// recomputation, and the table is built at most once per context.
    ///
    /// With `variation_aware` set, the context must carry calibration
    /// data (and therefore a weighted matrix); returns `None` otherwise.
    pub fn from_context(context: &HardwareContext, variation_aware: bool) -> Option<Self> {
        let (weighted, paths) = if variation_aware {
            let weighted = Weighted {
                distances: Arc::clone(context.weighted_distances()?),
                // The context caches the dense edge-weight table alongside
                // the weighted matrix, so metric construction in the batch
                // and retry hot paths allocates nothing O(n^2).
                edge_weight: Arc::clone(context.edge_weights()?),
                n: context.num_qubits(),
            };
            (Some(weighted), context.reliability_paths()?)
        } else {
            (None, context.hop_paths())
        };
        Some(RoutingMetric {
            hops: Arc::clone(context.distances()),
            hops_f64: Arc::clone(context.distances_f64()),
            n: context.num_qubits(),
            hop_diameter: context.hop_diameter(),
            paths: Arc::clone(paths),
            weighted,
        })
    }

    /// The metric distance between physical qubits `a` and `b` (weighted
    /// when variation-aware, hop count otherwise); `f64::INFINITY` when
    /// disconnected.
    pub fn dist(&self, a: usize, b: usize) -> f64 {
        self.dist_flat()[a * self.n + b]
    }

    /// The dense row-major metric-distance table [`RoutingMetric::dist`]
    /// reads (`f64::INFINITY` = disconnected): the weighted matrix when
    /// variation-aware, the pre-converted hop table otherwise. Hot loops
    /// hoist this once and index it directly.
    pub fn dist_flat(&self) -> &[f64] {
        match &self.weighted {
            Some(w) => w.distances.flat(),
            None => &self.hops_f64,
        }
    }

    /// The dense row-major hop-distance table (`usize::MAX` =
    /// disconnected) behind [`RoutingMetric::hop_dist`].
    pub fn hops_flat(&self) -> &[usize] {
        self.hops.flat()
    }

    /// Row stride of [`RoutingMetric::dist_flat`] / `hops_flat`: the
    /// physical qubit count.
    pub fn num_physical(&self) -> usize {
        self.n
    }

    /// The hop distance between physical qubits `a` and `b`, regardless of
    /// variation awareness. `usize::MAX` when disconnected.
    pub fn hop_dist(&self, a: usize, b: usize) -> usize {
        self.hops.flat()[a * self.n + b]
    }

    /// The largest finite hop distance between two physical qubits (0 when
    /// no two are connected): cached by the context, or computed when a
    /// metric is built without one.
    pub fn hop_diameter(&self) -> usize {
        self.hop_diameter
    }

    /// The cheapest SWAP paths under [`RoutingMetric::swap_cost`], one tree
    /// per source qubit. Built on the first call — a metric from
    /// [`RoutingMetric::from_context`] shares the context's table, so a
    /// context pays for it once however many metrics, clones and batch
    /// workers query it; a metric built by [`RoutingMetric::hops`] or
    /// [`RoutingMetric::reliability`] builds its own.
    pub fn shortest_paths(&self) -> &ShortestPathTrees {
        self.paths
            .get_or_init(|| ShortestPathTrees::build(&self.hops, |a, b| self.swap_cost(a, b)))
    }

    /// The cost of traversing the single coupling edge `(a, b)` (1 for
    /// hops; `1 / success` for reliability). `f64::INFINITY` when `(a, b)`
    /// is not an edge.
    pub fn edge_cost(&self, a: usize, b: usize) -> f64 {
        match &self.weighted {
            Some(w) => w.edge_weight[a * w.n + b],
            None => match self.hops.get(a, b) {
                Some(1) => 1.0,
                _ => f64::INFINITY,
            },
        }
    }

    /// The *routing cost* of SWAPping across the coupling edge `(a, b)`:
    /// a hop-dominant composite for the variation-aware metric — each hop
    /// costs a large constant plus the log-infidelity of the three CNOTs a
    /// SWAP lowers to (`3 · (−ln success)`), so among all minimum-hop
    /// paths the most reliable one wins. (Unrestricted reliability detours
    /// — the VQM policy the paper cites — were measured to cost more
    /// success probability in extra SWAPs than they recover on this
    /// backend; see DESIGN.md.) Constant 1 for the hop metric.
    /// `f64::INFINITY` when `(a, b)` is not an edge.
    pub fn swap_cost(&self, a: usize, b: usize) -> f64 {
        const HOP_COST: f64 = 1.0e6;
        match &self.weighted {
            Some(w) => {
                let inv_s = w.edge_weight[a * w.n + b]; // 1 / success
                if inv_s.is_finite() {
                    HOP_COST + 3.0 * inv_s.ln()
                } else {
                    f64::INFINITY
                }
            }
            None => match self.hops.get(a, b) {
                Some(1) => 1.0,
                _ => f64::INFINITY,
            },
        }
    }

    /// Whether this is the variation-aware metric.
    pub fn is_variation_aware(&self) -> bool {
        self.weighted.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::shortest_path::apsp_invocations_on_this_thread;

    #[test]
    fn hops_metric_matches_figure_6c() {
        let topo = fig6_topology();
        let m = RoutingMetric::hops(&topo);
        for (v, want) in [(1, 1.0), (2, 2.0), (3, 3.0), (4, 2.0), (5, 1.0)] {
            assert_eq!(m.dist(0, v), want);
            assert_eq!(m.hop_dist(0, v), want as usize);
        }
        assert_eq!(m.edge_cost(0, 1), 1.0);
        assert_eq!(m.edge_cost(0, 2), f64::INFINITY);
    }

    #[test]
    fn reliability_metric_matches_figure_6d() {
        let (topo, cal) = fig6_calibrated();
        let m = RoutingMetric::reliability(&topo, &cal);
        for (v, want) in [(1, 1.11), (2, 2.29), (3, 3.41), (4, 2.34), (5, 1.22)] {
            assert!(
                (m.dist(0, v) - want).abs() < 0.01,
                "d(0,{v}) = {}",
                m.dist(0, v)
            );
        }
        // Hop distances remain available underneath.
        assert_eq!(m.hop_dist(0, 3), 3);
        assert!((m.edge_cost(0, 1) - 1.0 / 0.90).abs() < 1e-12);
        assert!(m.is_variation_aware());
        assert!(!RoutingMetric::hops(&topo).is_variation_aware());
    }

    #[test]
    fn from_context_matches_direct_construction() {
        let (topo, cal) = fig6_calibrated();
        let ctx = HardwareContext::with_calibration(topo.clone(), cal.clone());
        let direct = RoutingMetric::reliability(&topo, &cal);
        let shared = RoutingMetric::from_context(&ctx, true).expect("calibrated context");
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(direct.dist(u, v), shared.dist(u, v));
                assert_eq!(direct.hop_dist(u, v), shared.hop_dist(u, v));
                assert_eq!(direct.edge_cost(u, v), shared.edge_cost(u, v));
            }
        }
        let hops = RoutingMetric::from_context(&ctx, false).expect("hops always available");
        assert!(!hops.is_variation_aware());
    }

    #[test]
    fn from_context_recomputes_nothing() {
        let ctx = HardwareContext::with_calibration(fig6_calibrated().0, fig6_calibrated().1);
        let before = apsp_invocations_on_this_thread();
        let _hops = RoutingMetric::from_context(&ctx, false).unwrap();
        let _vic = RoutingMetric::from_context(&ctx, true).unwrap();
        assert_eq!(apsp_invocations_on_this_thread(), before);
    }

    #[test]
    fn from_context_requires_calibration_for_variation_awareness() {
        let ctx = HardwareContext::new(fig6_topology());
        assert!(RoutingMetric::from_context(&ctx, true).is_none());
        assert!(RoutingMetric::from_context(&ctx, false).is_some());
    }

    /// The hypothetical 6-qubit device of Figure 6(a).
    fn fig6_topology() -> Topology {
        Topology::from_graph(
            "fig6",
            qgraph::Graph::from_edges(6, [(0, 1), (0, 5), (1, 2), (1, 4), (2, 3), (3, 4), (4, 5)])
                .unwrap(),
        )
    }

    fn fig6_calibrated() -> (Topology, Calibration) {
        let topo = fig6_topology();
        let cal = Calibration::from_cnot_errors(
            &topo,
            &[
                ((0, 1), 0.10),
                ((0, 5), 0.18),
                ((1, 2), 0.15),
                ((1, 4), 0.19),
                ((2, 3), 0.11),
                ((3, 4), 0.12),
                ((4, 5), 0.16),
            ],
            1e-3,
            2e-2,
        );
        (topo, cal)
    }
}
