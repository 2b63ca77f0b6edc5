//! Pass-count guard for SWAP absorption: a routed QAOA circuit simulates
//! with no SWAP pass and one fused diagonal pass per level, however many
//! SWAPs the router put between the level's `RZZ`s.
//!
//! One `#[test]` only: the counts go through the process-global recorder,
//! so a second concurrent test in this binary would add to them.

use qcircuit::Circuit;
use qsim::StateVector;

/// A QAOA circuit routed onto a 6-qubit line: every level interleaves
/// its `RZZ`s (one γ, nearest neighbours only) with SWAP chains, then
/// closes with an `RX` wall. Returns the circuit and its SWAP count.
///
/// Three levels' SWAPs compose to a 4-cycle, so the state only ends in
/// physical order without a restoring SWAP pass if every qubit started
/// on the inverse cycle's storage bit.
fn routed_line_qaoa(levels: usize) -> (Circuit, u64) {
    let n = 6;
    let mut c = Circuit::new(n);
    let mut swaps = 0;
    for q in 0..n {
        c.h(q);
    }
    for level in 0..levels {
        let gamma = 0.3 + 0.2 * level as f64;
        for a in [0, 2, 4] {
            c.rzz(gamma, a, a + 1);
        }
        for a in [1, 3] {
            c.swap(a, a + 1);
            swaps += 1;
            c.rzz(gamma, a - 1, a);
        }
        for a in 0..3 {
            c.swap(a, a + 1);
            swaps += 1;
        }
        c.rzz(gamma, n - 2, n - 1);
        for q in 0..n {
            c.rx(0.7 - 0.1 * level as f64, q);
        }
    }
    (c, swaps)
}

#[test]
fn routed_levels_simulate_as_one_diagonal_pass_each() {
    const LEVELS: usize = 3;
    let (circuit, swaps) = routed_line_qaoa(LEVELS);
    qtrace::enable();
    let state = StateVector::from_circuit(&circuit);
    let manifest = qtrace::take("swap_relabel_passes");
    assert!((state.norm_sqr() - 1.0).abs() < 1e-12);

    assert_eq!(
        manifest.counters.get("qsim/dispatch/swap"),
        None,
        "no SWAP may reach a kernel"
    );
    assert_eq!(manifest.counters.get("qsim/relabeled_swaps"), Some(&swaps));
    let runs = &manifest.histograms["qsim/fused_diag_run_len"];
    assert_eq!(runs.count(), LEVELS as u64, "one diagonal pass per level");
}
