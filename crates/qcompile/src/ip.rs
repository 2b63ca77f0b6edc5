//! Instruction Parallelization (IP, §IV-B): bin-packing the commuting
//! CPHASE gates into maximally parallel layers.
//!
//! IP formulates layer formation as binary bin-packing solved with the
//! first-fit-decreasing greedy heuristic (Figure 4):
//!
//! 1. Rank each CPHASE by the total operation count of its two qubits.
//! 2. Create `MOQ` empty layers (MOQ = max operations on any single qubit
//!    — the best-case layer count).
//! 3. Assign gates in rank order to the first layer where both qubit bins
//!    are free; unassignable gates go to a spill list.
//! 4. Repeat from step 2 on the spill list until empty.
//!
//! The layered order is handed to the backend compiler as a flat gate
//! sequence; the backend's own layer partitioner then recovers the
//! parallelism.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::{CphaseOp, ProgramProfile};

/// Packs `ops` into parallel layers with the first-fit-decreasing
/// heuristic.
///
/// `packing_limit` caps the number of gates per layer (§V-H's packing
/// density knob); `None` packs layers to the fullest. Equal-rank gates are
/// shuffled with `rng` before the stable rank sort, reproducing the
/// paper's "similar ranked CPHASE operations are ordered randomly".
///
/// # Panics
///
/// Panics if `packing_limit` is `Some(0)`.
pub fn pack_layers<R: Rng + ?Sized>(
    num_qubits: usize,
    ops: &[CphaseOp],
    packing_limit: Option<usize>,
    rng: &mut R,
) -> Vec<Vec<CphaseOp>> {
    if let Some(limit) = packing_limit {
        assert!(limit > 0, "packing limit must be positive");
    }
    let mut layers: Vec<Vec<CphaseOp>> = Vec::new();
    let mut remaining: Vec<CphaseOp> = ops.to_vec();
    while !remaining.is_empty() {
        // Step 1: rank by cumulative qubit usage of the remaining set.
        let profile = ProgramProfile::from_ops(num_qubits, &remaining);
        remaining.shuffle(rng);
        remaining.sort_by_key(|op| std::cmp::Reverse(profile.op_rank(op)));
        // Step 2: MOQ empty layers for this round.
        let moq = profile.moq();
        let base = layers.len();
        layers.extend(std::iter::repeat_with(Vec::new).take(moq));
        // Per-layer qubit occupancy as bitset rows (one bit per qubit in
        // u64 words): the first-fit probe reads two words per layer
        // instead of chasing a Vec<Vec<bool>> row per candidate.
        let words = num_qubits.div_ceil(64);
        let mut occupied = vec![0u64; moq * words];
        // Step 3: first-fit assignment.
        let mut spill = Vec::new();
        for op in remaining.drain(..) {
            let (wa, ba) = (op.a / 64, 1u64 << (op.a % 64));
            let (wb, bb) = (op.b / 64, 1u64 << (op.b % 64));
            let slot = (0..moq).find(|&l| {
                (occupied[l * words + wa] & ba) == 0
                    && (occupied[l * words + wb] & bb) == 0
                    && packing_limit.map_or(true, |lim| layers[base + l].len() < lim)
            });
            match slot {
                Some(l) => {
                    occupied[l * words + wa] |= ba;
                    occupied[l * words + wb] |= bb;
                    layers[base + l].push(op);
                }
                None => spill.push(op),
            }
        }
        // Step 4: loop on the spill list.
        remaining = spill;
        // Drop layers the round left empty (possible under tight packing
        // limits).
        layers.retain(|l| !l.is_empty());
    }
    layers
}

/// Flattens packed layers into the gate sequence handed to the backend.
pub fn flatten(layers: &[Vec<CphaseOp>]) -> Vec<CphaseOp> {
    layers.iter().flatten().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    fn fig4_ops() -> Vec<CphaseOp> {
        // Figure 4(a): {(1,5), (2,3), (1,4), (2,4)} on qubits 1..=5.
        vec![
            CphaseOp::new(1, 5, 0.1),
            CphaseOp::new(2, 3, 0.1),
            CphaseOp::new(1, 4, 0.1),
            CphaseOp::new(2, 4, 0.1),
        ]
    }

    fn layer_pairs(layer: &[CphaseOp]) -> Vec<(usize, usize)> {
        let mut v: Vec<(usize, usize)> = layer
            .iter()
            .map(|op| (op.a.min(op.b), op.a.max(op.b)))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn fig4_walkthrough() {
        // MOQ = 2, so exactly two layers; the rank-4 gates (1,4) and (2,4)
        // land in different layers (they share qubit 4), and the rank-3
        // gates fill the gaps: L1 = {(1,4), (2,3)}, L2 = {(2,4), (1,5)}.
        let layers = pack_layers(6, &fig4_ops(), None, &mut rng());
        assert_eq!(layers.len(), 2);
        let l1 = layer_pairs(&layers[0]);
        let l2 = layer_pairs(&layers[1]);
        // (1,4) and (2,4) must be split across the layers.
        assert_ne!(
            l1.contains(&(1, 4)),
            l2.contains(&(1, 4)),
            "(1,4) in exactly one layer"
        );
        assert!(l1.contains(&(1, 4)) ^ l1.contains(&(2, 4)));
        // Each layer holds two ops on disjoint qubits.
        assert_eq!(l1.len(), 2);
        assert_eq!(l2.len(), 2);
    }

    #[test]
    fn layers_have_disjoint_qubits() {
        let mut r = rng();
        let g = qgraph::generators::connected_erdos_renyi(12, 0.5, 100, &mut r).unwrap();
        let ops: Vec<CphaseOp> = g
            .edges()
            .map(|e| CphaseOp::new(e.a(), e.b(), 0.2))
            .collect();
        for layer in pack_layers(12, &ops, None, &mut r) {
            let mut used = std::collections::HashSet::new();
            for op in &layer {
                assert!(used.insert(op.a), "qubit {} reused", op.a);
                assert!(used.insert(op.b), "qubit {} reused", op.b);
            }
        }
    }

    #[test]
    fn all_ops_preserved() {
        let mut r = rng();
        let g = qgraph::generators::connected_random_regular(14, 5, 100, &mut r).unwrap();
        let ops: Vec<CphaseOp> = g
            .edges()
            .map(|e| CphaseOp::new(e.a(), e.b(), 0.2))
            .collect();
        let layers = pack_layers(14, &ops, None, &mut r);
        let flat = flatten(&layers);
        assert_eq!(flat.len(), ops.len());
        let mut want: Vec<(usize, usize)> =
            ops.iter().map(|o| (o.a.min(o.b), o.a.max(o.b))).collect();
        let mut got: Vec<(usize, usize)> =
            flat.iter().map(|o| (o.a.min(o.b), o.a.max(o.b))).collect();
        want.sort_unstable();
        got.sort_unstable();
        assert_eq!(want, got);
    }

    #[test]
    fn layer_count_is_at_least_moq() {
        let mut r = rng();
        for k in [3usize, 5, 8] {
            let g = qgraph::generators::connected_random_regular(16, k, 100, &mut r).unwrap();
            let ops: Vec<CphaseOp> = g
                .edges()
                .map(|e| CphaseOp::new(e.a(), e.b(), 0.2))
                .collect();
            let layers = pack_layers(16, &ops, None, &mut r);
            // Every node has k ops, so MOQ = k; packing cannot beat it.
            assert!(layers.len() >= k, "k={k}: {} layers", layers.len());
            // FFD on regular graphs lands near the bound.
            assert!(layers.len() <= k + 3, "k={k}: {} layers", layers.len());
        }
    }

    #[test]
    fn packing_beats_pathological_order() {
        // The Figure 1(b) order forces 6 sequential layers; packing the
        // same K4 ops reaches the optimal 3.
        let ops: Vec<CphaseOp> = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)]
            .into_iter()
            .map(|(a, b)| CphaseOp::new(a, b, 0.1))
            .collect();
        let layers = pack_layers(4, &ops, None, &mut rng());
        assert_eq!(layers.len(), 3);
    }

    #[test]
    fn packing_limit_caps_layer_size() {
        let mut r = rng();
        let g = qgraph::generators::connected_erdos_renyi(16, 0.5, 100, &mut r).unwrap();
        let ops: Vec<CphaseOp> = g
            .edges()
            .map(|e| CphaseOp::new(e.a(), e.b(), 0.2))
            .collect();
        for limit in [1usize, 2, 3, 5] {
            let layers = pack_layers(16, &ops, Some(limit), &mut r);
            assert!(layers.iter().all(|l| l.len() <= limit), "limit {limit}");
            assert_eq!(flatten(&layers).len(), ops.len());
        }
    }

    #[test]
    fn packing_limit_one_gives_one_gate_per_layer() {
        let layers = pack_layers(6, &fig4_ops(), Some(1), &mut rng());
        assert_eq!(layers.len(), 4);
        assert!(layers.iter().all(|l| l.len() == 1));
    }

    #[test]
    #[should_panic]
    fn zero_packing_limit_panics() {
        let _ = pack_layers(6, &fig4_ops(), Some(0), &mut rng());
    }

    #[test]
    fn empty_input_gives_no_layers() {
        let layers = pack_layers(4, &[], None, &mut rng());
        assert!(layers.is_empty());
    }
}
