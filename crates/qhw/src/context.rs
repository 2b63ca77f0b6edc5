//! The shared, immutable hardware context threaded through the compile
//! stack.
//!
//! The paper notes the Floyd–Warshall distance matrix is "measured once
//! ... and accessed from memory during QAIM". [`HardwareContext`] is that
//! discipline made structural: it bundles a [`Topology`], its optional
//! [`Calibration`], and every derived artifact the mapping, layer-forming
//! and routing passes consume — the unit-hop distance matrix, the
//! reliability-weighted distance matrix (when calibrated) and the
//! connectivity-strength profile — each computed exactly once at
//! construction and shared from then on (the matrices behind [`Arc`], so
//! metrics and parallel batch workers clone pointers, not `O(n^2)` data).
//! The router's shortest-path trees, one table per routing metric, are
//! shared the same way but built on first use, so a context that never
//! routes a path never pays for them.

use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

use qgraph::shortest_path::{DistanceMatrix, ShortestPathTrees, WeightedDistanceMatrix};

use crate::{Calibration, CalibrationError, HardwareProfile, Topology};

/// A shortest-path table that is built on first use and then shared by
/// every holder of the cell: a context, its clones and every routing
/// metric made from it.
pub type PathTreeCell = Arc<OnceLock<ShortestPathTrees>>;

/// Immutable bundle of a hardware target and its derived compile-time
/// artifacts, built once per `(topology, calibration)` pair.
///
/// Construction runs Floyd–Warshall once for the hop-distance matrix and
/// (when calibrated) once more for the reliability-weighted matrix —
/// `qgraph::shortest_path::apsp_invocations` observes exactly these runs,
/// and every later consumer reads the cached matrices. The one artifact
/// built later is each routing metric's shortest-path table, on its first
/// path query ([`HardwareContext::hop_paths`]).
///
/// # Examples
///
/// ```
/// use qhw::{HardwareContext, Topology};
///
/// let ctx = HardwareContext::new(Topology::ibmq_20_tokyo());
/// assert_eq!(ctx.distances().get(0, 0), Some(0));
/// assert_eq!(ctx.profile().connectivity_strength(0), 7);
/// assert!(ctx.weighted_distances().is_none()); // no calibration supplied
/// ```
#[derive(Debug, Clone)]
pub struct HardwareContext {
    topology: Topology,
    calibration: Option<Calibration>,
    calibration_issue: Option<CalibrationError>,
    distances: Arc<DistanceMatrix>,
    /// The hop matrix as dense `f64` (`INFINITY` = unreachable): the form
    /// the routing hot loops index, converted once per context instead of
    /// once per lookup.
    distances_f64: Arc<Vec<f64>>,
    weighted: Option<Arc<WeightedDistanceMatrix>>,
    edge_weight: Option<Arc<Vec<f64>>>,
    profile: HardwareProfile,
    components: usize,
    hop_diameter: usize,
    hop_paths: PathTreeCell,
    /// Present exactly when `weighted` is: the reliability metric's trees.
    reliability_paths: Option<PathTreeCell>,
}

/// Builds the dense `1 / success` per-edge weight table the
/// variation-aware routing metric reads for local SWAP-step costs
/// (`f64::INFINITY` off the coupling edges).
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

/// Process-wide cache behind [`HardwareContext::shared`], keyed by a
/// fingerprint of the `(topology, calibration)` pair. Entries verify
/// full equality on hit, so a fingerprint collision degrades to a
/// rebuild, never to a wrong context.
static SHARED_CONTEXTS: OnceLock<Mutex<HashMap<u64, Vec<Arc<HardwareContext>>>>> = OnceLock::new();

/// Largest number of distinct `(topology, calibration)` pairs the shared
/// cache retains before it is cleared wholesale (a drifting-calibration
/// workload would otherwise grow it without bound).
const SHARED_CACHE_CAP: usize = 64;

/// Stable fingerprint of a `(topology, calibration)` pair — the
/// "calibration epoch" key of the shared context cache. Two epochs of
/// the same device differ in their error-rate bits, so they hash apart.
fn context_fingerprint(topology: &Topology, calibration: Option<&Calibration>) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    topology.fingerprint().hash(&mut h);
    match calibration {
        None => 0u8.hash(&mut h),
        Some(cal) => {
            1u8.hash(&mut h);
            cal.fingerprint().hash(&mut h);
        }
    }
    h.finish()
}

impl HardwareContext {
    /// Builds the context for an uncalibrated target: hop distances and
    /// the connectivity profile are computed here; no weighted matrix.
    pub fn new(topology: Topology) -> Self {
        let distances = Arc::new(topology.distances());
        let distances_f64 = Arc::new(distances.to_f64_flat());
        let profile = topology.profile();
        let components = topology.graph().connected_components().len();
        HardwareContext {
            topology,
            calibration: None,
            calibration_issue: None,
            hop_diameter: distances.diameter().unwrap_or(0),
            distances,
            distances_f64,
            weighted: None,
            edge_weight: None,
            profile,
            components,
            hop_paths: PathTreeCell::default(),
            reliability_paths: None,
        }
    }

    /// Builds the context for a calibrated target: additionally computes
    /// the reliability-weighted distance matrix of Figure 6(d).
    ///
    /// The calibration is validated against the topology first. An
    /// unusable table (NaN/out-of-range rates, missing or unknown
    /// couplings — see [`Calibration::validate`]) is **kept but
    /// quarantined**: no weighted matrix is built (so variation-aware
    /// consumers see the target as uncalibrated) and the verdict is
    /// available from [`HardwareContext::calibration_issue`]. This is
    /// what lets the compile pipeline degrade VIC → IC instead of
    /// poisoning reliability weights or panicking.
    pub fn with_calibration(topology: Topology, calibration: Calibration) -> Self {
        let distances = Arc::new(topology.distances());
        let distances_f64 = Arc::new(distances.to_f64_flat());
        let profile = topology.profile();
        let components = topology.graph().connected_components().len();
        let calibration_issue = calibration.validate(&topology).err();
        let (weighted, edge_weight) = if calibration_issue.is_none() {
            (
                Some(Arc::new(topology.weighted_distances(&calibration))),
                Some(Arc::new(edge_weights(&topology, &calibration))),
            )
        } else {
            (None, None)
        };
        HardwareContext {
            topology,
            calibration: Some(calibration),
            calibration_issue,
            hop_diameter: distances.diameter().unwrap_or(0),
            distances,
            distances_f64,
            reliability_paths: weighted.as_ref().map(|_| PathTreeCell::default()),
            weighted,
            edge_weight,
            profile,
            components,
            hop_paths: PathTreeCell::default(),
        }
    }

    /// Builds from an optional calibration — the shape pipeline code sees.
    pub fn from_parts(topology: Topology, calibration: Option<Calibration>) -> Self {
        match calibration {
            Some(cal) => HardwareContext::with_calibration(topology, cal),
            None => HardwareContext::new(topology),
        }
    }

    /// A context from the process-wide cache, keyed by the
    /// `(topology, calibration epoch)` fingerprint: the first request for
    /// a pair pays the Floyd–Warshall construction, every later request
    /// clones an [`Arc`]. This is what keeps legacy per-call compile
    /// entry points (and ladder/retry loops built on them) from
    /// rebuilding `O(n^2)` distance matrices per invocation.
    ///
    /// Entries are compared for full equality after the fingerprint
    /// match, so hash collisions fall back to a correct rebuild. The
    /// cache holds at most `SHARED_CACHE_CAP` (64) distinct pairs and is
    /// cleared wholesale beyond that (unbounded growth under drifting
    /// calibrations would be a leak).
    pub fn shared(topology: &Topology, calibration: Option<&Calibration>) -> Arc<HardwareContext> {
        let key = context_fingerprint(topology, calibration);
        let cache = SHARED_CONTEXTS.get_or_init(|| Mutex::new(HashMap::new()));
        {
            let map = cache.lock().expect("shared context cache poisoned");
            if let Some(entries) = map.get(&key) {
                for entry in entries {
                    if entry.topology() == topology && entry.calibration() == calibration {
                        return Arc::clone(entry);
                    }
                }
            }
        }
        // Built outside the lock: Floyd–Warshall on a large device is
        // milliseconds, and batch workers must not serialize on it.
        let built = Arc::new(HardwareContext::from_parts(
            topology.clone(),
            calibration.cloned(),
        ));
        let mut map = cache.lock().expect("shared context cache poisoned");
        if map.len() >= SHARED_CACHE_CAP {
            map.clear();
        }
        map.entry(key).or_default().push(Arc::clone(&built));
        built
    }

    /// The hardware target.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The calibration data, when this context was built with any — even
    /// an unusable table (check [`HardwareContext::calibration_issue`]).
    pub fn calibration(&self) -> Option<&Calibration> {
        self.calibration.as_ref()
    }

    /// Why the supplied calibration is unusable, if it failed
    /// [`Calibration::validate`] at construction.
    pub fn calibration_issue(&self) -> Option<&CalibrationError> {
        self.calibration_issue.as_ref()
    }

    /// Whether the coupling graph is a single connected component
    /// (cached at construction).
    pub fn is_connected(&self) -> bool {
        self.components <= 1
    }

    /// Number of connected components of the coupling graph (cached at
    /// construction).
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// The cached all-pairs hop-distance matrix (Figure 6(c)).
    pub fn distances(&self) -> &Arc<DistanceMatrix> {
        &self.distances
    }

    /// The hop matrix as a dense row-major `f64` table (`INFINITY` =
    /// unreachable) — the exact values `DistanceMatrix::to_f64_flat`
    /// produces, cached so routing metrics built from this context share
    /// one conversion instead of paying `O(n^2)` per compile.
    pub fn distances_f64(&self) -> &Arc<Vec<f64>> {
        &self.distances_f64
    }

    /// The cached reliability-weighted distance matrix (Figure 6(d));
    /// `None` without calibration.
    pub fn weighted_distances(&self) -> Option<&Arc<WeightedDistanceMatrix>> {
        self.weighted.as_ref()
    }

    /// The cached dense `1 / success` per-edge weight table (row-major
    /// `n x n`, `f64::INFINITY` off the coupling edges) the
    /// variation-aware routing metric reads for local SWAP-step costs;
    /// `None` without usable calibration.
    pub fn edge_weights(&self) -> Option<&Arc<Vec<f64>>> {
        self.edge_weight.as_ref()
    }

    /// The largest finite hop distance between two physical qubits (0 when
    /// no two are connected), cached at construction: IC's counting sort
    /// sizes its buckets with it.
    pub fn hop_diameter(&self) -> usize {
        self.hop_diameter
    }

    /// The hop metric's shortest-path trees. The cell starts empty; the
    /// first path query of a routing metric made from this context fills
    /// it, and the context, its clones and every such metric share the one
    /// table from then on.
    pub fn hop_paths(&self) -> &PathTreeCell {
        &self.hop_paths
    }

    /// [`HardwareContext::hop_paths`] for the reliability metric; `None`
    /// without usable calibration.
    pub fn reliability_paths(&self) -> Option<&PathTreeCell> {
        self.reliability_paths.as_ref()
    }

    /// The cached connectivity-strength profile (Figure 3(b)).
    pub fn profile(&self) -> &HardwareProfile {
        &self.profile
    }

    /// Number of physical qubits (shorthand for
    /// `self.topology().num_qubits()`).
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::shortest_path::apsp_invocations_on_this_thread;

    #[test]
    fn uncalibrated_context_caches_hops_and_profile() {
        let topo = Topology::ibmq_20_tokyo();
        let ctx = HardwareContext::new(topo.clone());
        assert_eq!(*ctx.distances().as_ref(), topo.distances());
        assert!(ctx.weighted_distances().is_none());
        assert!(ctx.calibration().is_none());
        assert_eq!(ctx.num_qubits(), 20);
        assert_eq!(
            ctx.profile().connectivity_strength(7),
            topo.profile().connectivity_strength(7)
        );
    }

    #[test]
    fn calibrated_context_caches_weighted_matrix() {
        let (topo, cal) = Calibration::melbourne_2020_04_08();
        let ctx = HardwareContext::with_calibration(topo.clone(), cal.clone());
        let fresh = topo.weighted_distances(&cal);
        let cached = ctx.weighted_distances().expect("calibrated context");
        for u in 0..topo.num_qubits() {
            for v in 0..topo.num_qubits() {
                assert_eq!(cached.get(u, v), fresh.get(u, v));
            }
        }
    }

    #[test]
    fn construction_runs_apsp_a_bounded_number_of_times() {
        // Uncalibrated: exactly one Floyd–Warshall run; calibrated: two.
        // (`cargo test` runs the other tests in this binary concurrently,
        // so the deltas read this thread's own count.)
        let topo = Topology::linear(5);
        let before = apsp_invocations_on_this_thread();
        let ctx = HardwareContext::new(topo);
        let mid = apsp_invocations_on_this_thread();
        assert!(mid - before >= 1);
        // Consuming the cached artifacts must not trigger recomputation.
        let _ = ctx.distances().get(0, 4);
        let _ = ctx.profile().connectivity_strength(0);
        let _d2 = Arc::clone(ctx.distances());
        assert_eq!(apsp_invocations_on_this_thread(), mid);
    }

    #[test]
    fn clone_shares_matrices() {
        let ctx = HardwareContext::new(Topology::grid(4, 4));
        let before = apsp_invocations_on_this_thread();
        let clone = ctx.clone();
        assert_eq!(apsp_invocations_on_this_thread(), before);
        assert!(Arc::ptr_eq(ctx.distances(), clone.distances()));
    }

    #[test]
    fn corrupt_calibration_is_quarantined_not_fatal() {
        use crate::fault::{FaultInjector, FaultKind};
        let topo = Topology::ibmq_16_melbourne();
        let good = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
        for kind in [
            FaultKind::NanRate,
            FaultKind::DeadLink,
            FaultKind::MissingEntry,
        ] {
            let bad = FaultInjector::new(5).corrupt_calibration(&topo, &good, kind);
            // Previously this construction panicked (missing entry) or
            // poisoned the weighted matrix (NaN); now it quarantines.
            let ctx = HardwareContext::with_calibration(topo.clone(), bad);
            assert!(ctx.calibration().is_some(), "{}", kind.label());
            assert!(ctx.calibration_issue().is_some());
            assert!(ctx.weighted_distances().is_none());
        }
        // A valid table keeps full service.
        let ctx = HardwareContext::with_calibration(topo, good);
        assert!(ctx.calibration_issue().is_none());
        assert!(ctx.weighted_distances().is_some());
    }

    #[test]
    fn connectivity_is_cached_and_exposed() {
        let connected = HardwareContext::new(Topology::ring(6));
        assert!(connected.is_connected());
        assert_eq!(connected.component_count(), 1);

        let mut inj = crate::fault::FaultInjector::new(2);
        let split =
            inj.degrade_topology(&Topology::ring(6), crate::fault::FaultKind::SplitComponent);
        let ctx = HardwareContext::new(split);
        assert!(!ctx.is_connected());
        assert!(ctx.component_count() >= 2);
    }

    #[test]
    fn shared_cache_returns_same_arc_for_same_pair() {
        // A topology no other test constructs, so the first call is a
        // genuine miss and the second a hit on the same entry.
        let topo = Topology::grid(3, 7);
        let cal = Calibration::uniform(&topo, 0.017, 0.001, 0.02);
        let a = HardwareContext::shared(&topo, Some(&cal));
        let b = HardwareContext::shared(&topo, Some(&cal));
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.weighted_distances().is_some());

        // A different calibration epoch of the same device is a distinct
        // entry; the uncalibrated flavor is yet another.
        let cal2 = Calibration::uniform(&topo, 0.019, 0.001, 0.02);
        let c = HardwareContext::shared(&topo, Some(&cal2));
        assert!(!Arc::ptr_eq(&a, &c));
        let d = HardwareContext::shared(&topo, None);
        assert!(!Arc::ptr_eq(&a, &d));
        assert!(d.calibration().is_none());
        assert!(Arc::ptr_eq(&d, &HardwareContext::shared(&topo, None)));
    }

    #[test]
    fn fingerprints_separate_structures_and_epochs() {
        // Same structure → same fingerprint; different structure → apart.
        let ring = Topology::ring(6);
        assert_eq!(ring.fingerprint(), Topology::ring(6).fingerprint());
        assert_ne!(ring.fingerprint(), Topology::ring(7).fingerprint());
        assert_ne!(ring.fingerprint(), Topology::linear(6).fingerprint());

        // Calibration epochs hash bit-exactly: even a one-ULP rate drift
        // is a new epoch.
        let cal = Calibration::uniform(&ring, 0.02, 0.001, 0.02);
        assert_eq!(
            cal.fingerprint(),
            Calibration::uniform(&ring, 0.02, 0.001, 0.02).fingerprint()
        );
        let nudged = f64::from_bits(0.02f64.to_bits() + 1);
        let drifted = Calibration::uniform(&ring, nudged, 0.001, 0.02);
        assert_ne!(cal.fingerprint(), drifted.fingerprint());

        // The context fingerprint separates calibrated from uncalibrated
        // and tracks both components.
        assert_ne!(
            context_fingerprint(&ring, None),
            context_fingerprint(&ring, Some(&cal))
        );
        assert_ne!(
            context_fingerprint(&ring, Some(&cal)),
            context_fingerprint(&ring, Some(&drifted))
        );
    }

    #[test]
    fn edge_weights_follow_usable_calibration() {
        let topo = Topology::ring(5);
        let cal = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
        let ctx = HardwareContext::with_calibration(topo.clone(), cal.clone());
        let w = ctx.edge_weights().expect("usable calibration");
        let n = topo.num_qubits();
        assert_eq!(w.len(), n * n);
        for e in topo.graph().edges() {
            let expect = 1.0 / cal.cnot_success(e.a(), e.b());
            assert_eq!(w[e.a() * n + e.b()], expect);
            assert_eq!(w[e.b() * n + e.a()], expect);
        }
        assert!(w[2 * n].is_infinite()); // d(2, 0): non-edge in a 5-ring
        assert!(HardwareContext::new(topo).edge_weights().is_none());
    }

    #[test]
    fn from_parts_matches_dedicated_constructors() {
        let topo = Topology::ring(6);
        let cal = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
        let a = HardwareContext::from_parts(topo.clone(), Some(cal));
        assert!(a.weighted_distances().is_some());
        let b = HardwareContext::from_parts(topo, None);
        assert!(b.weighted_distances().is_none());
    }
}
