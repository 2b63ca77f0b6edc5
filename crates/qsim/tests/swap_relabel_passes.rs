//! Work guard for SWAP absorption and qubit compaction: a routed QAOA
//! circuit simulates with no SWAP pass and one fused diagonal pass per
//! level, however many SWAPs the router put between the level's `RZZ`s,
//! and every pass sweeps only the amplitudes of the qubits that hold data,
//! however many idle qubits the register has.
//!
//! One `#[test]` only: the counts go through the process-global recorder,
//! so a second concurrent test in this binary would add to them.

use qcircuit::{Circuit, Gate};
use qsim::{SimOptions, StateVector};

/// Line positions holding data.
const LINE: usize = 6;
/// Physical qubits that hold no data, touched by SWAPs only.
const SPARE: usize = 3;

/// A QAOA circuit routed onto a 6-qubit line that sits on 6 of 9
/// physical qubits: every level interleaves its `RZZ`s (one γ, nearest
/// line neighbours only) with SWAP chains along the line, moves one line
/// position onto a spare qubit with one more SWAP (later gates follow the
/// data there), then closes with an `RX` wall. Returns the circuit and
/// its SWAP count.
///
/// Three levels' line SWAPs compose to a 4-cycle, so the state only ends
/// in physical order without a restoring SWAP pass if every qubit started
/// on the inverse permutation's storage bit. The data ends on physical
/// qubits {1, 2, 4, 5, 6, 8}, so the compact state must be scattered.
fn routed_line_qaoa(levels: usize) -> (Circuit, u64) {
    let mut c = Circuit::new(LINE + SPARE);
    // `at[p]`: the physical qubit holding line position `p`.
    let mut at = [0, 2, 3, 5, 7, 8];
    let mut spare = [1, 4, 6];
    for &q in &at {
        c.h(q);
    }
    for level in 0..levels {
        let gamma = 0.3 + 0.2 * level as f64;
        for a in [0, 2, 4] {
            c.rzz(gamma, at[a], at[a + 1]);
        }
        for a in [1, 3] {
            c.swap(at[a], at[a + 1]);
            c.rzz(gamma, at[a - 1], at[a]);
        }
        for a in 0..3 {
            c.swap(at[a], at[a + 1]);
        }
        c.rzz(gamma, at[LINE - 2], at[LINE - 1]);
        let (p, s) = (2 * level % LINE, level % SPARE);
        c.swap(at[p], spare[s]);
        std::mem::swap(&mut at[p], &mut spare[s]);
        for &q in &at {
            c.rx(0.7 - 0.1 * level as f64, q);
        }
    }
    let swaps = c.iter().filter(|i| matches!(i.gate(), Gate::Swap)).count();
    (c, swaps as u64)
}

#[test]
fn routed_levels_simulate_as_one_diagonal_pass_each() {
    const LEVELS: usize = 3;
    let (circuit, swaps) = routed_line_qaoa(LEVELS);
    let mut reference = StateVector::new(circuit.num_qubits());
    for instr in circuit.iter() {
        reference.apply(instr);
    }
    qtrace::enable();
    let state = StateVector::from_circuit(&circuit);
    let manifest = qtrace::take("swap_relabel_passes");
    for (a, b) in state.amplitudes().iter().zip(reference.amplitudes()) {
        assert!(a.approx_eq(*b, 1e-12), "{a:?} vs {b:?}");
    }

    assert_eq!(
        manifest.counters.get("qsim/dispatch/swap"),
        None,
        "no SWAP may reach a kernel"
    );
    assert_eq!(manifest.counters.get("qsim/relabeled_swaps"), Some(&swaps));
    let runs = &manifest.histograms["qsim/fused_diag_run_len"];
    assert_eq!(runs.count(), LEVELS as u64, "one diagonal pass per level");

    // Every kernel application sweeps the 2^6 amplitudes of the data
    // qubits; on the whole register each would sweep 2^9.
    assert_eq!(manifest.gauges.get("qsim/active_qubits"), Some(&6));
    let wall_gates = manifest.histograms["qsim/fused_wall_run_len"].sum();
    let applications = runs.count() + wall_gates;
    assert_eq!(applications, (LEVELS + (LEVELS + 1) * LINE) as u64);
    assert_eq!(
        manifest.counters.get("qsim/amplitude_updates"),
        Some(&(applications << LINE))
    );

    // Splitting the passes over threads changes neither the state nor
    // the work counted.
    let threaded_opts = SimOptions::default()
        .with_threads(4)
        .with_crossover_qubits(0);
    let threaded = StateVector::from_circuit_with(&circuit, &threaded_opts);
    let threaded_manifest = qtrace::take("swap_relabel_passes_threaded");
    assert_eq!(threaded, state);
    assert!(threaded_manifest
        .counters
        .contains_key("qsim/par/parallel_dispatches"));
    assert_eq!(
        threaded_manifest.counters.get("qsim/amplitude_updates"),
        Some(&(applications << LINE))
    );
}
