//! Property-based equivalence tests for the kernel engine: every engine
//! configuration (fused/unfused diagonals, any thread count) must produce
//! the same state as the serial gate-by-gate reference, within
//! 1e-12 per amplitude. The reference is a loop of single-gate
//! [`StateVector::apply`], the one path that applies every SWAP as an
//! amplitude pass instead of absorbing it as a qubit relabel.

use proptest::prelude::*;
use qcircuit::{Circuit, Gate, Instruction};
use qsim::{SimError, SimOptions, StateVector, MAX_QUBITS};

/// A gate mix covering every kernel class: diagonal 1q/2q (fusable),
/// flips, permutations, structured mixers, and generic dense unitaries.
fn arb_unitary_instruction(n: usize) -> impl Strategy<Value = Instruction> {
    let angle = -6.0f64..6.0;
    prop_oneof![
        (0..n).prop_map(|q| Instruction::one(Gate::H, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::X, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::Y, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::Z, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::T, q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rx(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Ry(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rz(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::U1(t.into()), q)),
        (0..n, angle.clone(), angle.clone(), angle.clone())
            .prop_map(|(q, t, p, l)| Instruction::one(Gate::U3(t.into(), p.into(), l.into()), q)),
        (0..n, 1..n).prop_map(move |(a, d)| Instruction::two(Gate::Cnot, a, (a + d) % n)),
        (0..n, 1..n).prop_map(move |(a, d)| Instruction::two(Gate::Cz, a, (a + d) % n)),
        (0..n, 1..n, angle.clone()).prop_map(move |(a, d, t)| Instruction::two(
            Gate::Rzz(t.into()),
            a,
            (a + d) % n
        )),
        (0..n, 1..n, angle).prop_map(move |(a, d, t)| Instruction::two(
            Gate::CPhase(t.into()),
            a,
            (a + d) % n
        )),
        (0..n, 1..n).prop_map(move |(a, d)| Instruction::two(Gate::Swap, a, (a + d) % n)),
    ]
}

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_unitary_instruction(n), 0..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(n);
        for i in instrs {
            c.push(i).expect("in range");
        }
        c
    })
}

/// A QAOA-shaped circuit: H wall, diagonal cost layers, RX mixers — the
/// workload the diagonal-fusion path is built for.
fn arb_qaoa_circuit(n: usize) -> impl Strategy<Value = Circuit> {
    (
        proptest::collection::vec((0..n, 1..n), 1..3 * n),
        -3.0f64..3.0,
        -3.0f64..3.0,
    )
        .prop_map(move |(edges, gamma, beta)| {
            let mut c = Circuit::new(n);
            for q in 0..n {
                c.h(q);
            }
            for (a, d) in edges {
                c.rzz(gamma, a, (a + d) % n);
            }
            for q in 0..n {
                c.rx(2.0 * beta, q);
            }
            c
        })
}

/// A routed-shaped circuit on `n` physical qubits: an `H` wall on the
/// `data` low qubits, then one to three levels, each a run of `RZZ`s that
/// share the level's γ on data qubits with SWAPs on any pair interleaved
/// (so qubits `data..n` are touched only by SWAPs), closed by an `RX`
/// mixer wall on the data qubits.
fn arb_routed_circuit(n: usize, data: usize) -> impl Strategy<Value = Circuit> {
    let step = prop_oneof![
        (0..data, 1..data).prop_map(move |(a, d)| (false, a, (a + d) % data)),
        (0..n, 1..n).prop_map(move |(a, d)| (true, a, (a + d) % n)),
    ];
    let level = (
        proptest::collection::vec(step, 1..4 * n),
        -3.0f64..3.0,
        -3.0f64..3.0,
    );
    proptest::collection::vec(level, 1..4).prop_map(move |levels| {
        let mut c = Circuit::new(n);
        for q in 0..data {
            c.h(q);
        }
        for (steps, gamma, beta) in levels {
            for (is_swap, a, b) in steps {
                if is_swap {
                    c.swap(a, b);
                } else {
                    c.rzz(gamma, a, b);
                }
            }
            for q in 0..data {
                c.rx(2.0 * beta, q);
            }
        }
        c
    })
}

/// A circuit as a router emits it, on `n` physical qubits of which `data`
/// hold logical qubits, placed at random: an `H` wall on the data, then
/// mixers, diagonal gates and CNOTs on data qubits interleaved with SWAPs
/// on any pair, and later gates follow the data wherever the SWAPs
/// carried it. The other `n - data` qubits are touched by SWAPs only, so a
/// fresh-state run simulates the data's `2^data` amplitudes.
fn arb_data_following_circuit(n: usize, data: usize) -> impl Strategy<Value = Circuit> {
    // (kind, a, d, angle): kinds 0–2 are 1q gates on a data qubit, 3–5
    // 2q gates on two (an RZ when both picks land on one), 6 a SWAP of
    // physical qubits `a` and `a + d`.
    let step = (0..7u8, 0..n, 1..n, -3.0f64..3.0);
    (
        proptest::collection::vec(0u32..1 << 16, n..=n),
        proptest::collection::vec(step, 1..6 * n),
    )
        .prop_map(move |(keys, steps)| {
            // `at[l]`: the physical qubit holding logical qubit `l`, the
            // first `data` of a random order of the physical qubits.
            let mut at: Vec<usize> = (0..n).collect();
            at.sort_by_key(|&q| keys[q]);
            at.truncate(data);
            let mut c = Circuit::new(n);
            for &q in &at {
                c.h(q);
            }
            for (kind, a, d, t) in steps {
                let (l, m) = (a % data, (a + d) % data);
                let (p, q) = (at[l], at[m]);
                match kind {
                    0 => c.h(p),
                    1 => c.rx(t, p),
                    2 => c.ry(t, p),
                    3..=5 if l == m => c.rz(t, p),
                    3 => c.rzz(t, p, q),
                    4 => c.cp(t, p, q),
                    5 => c.cx(p, q),
                    _ => {
                        let (x, y) = (a, (a + d) % n);
                        c.swap(x, y);
                        for q in &mut at {
                            if *q == x {
                                *q = y;
                            } else if *q == y {
                                *q = x;
                            }
                        }
                    }
                }
            }
            c
        })
}

/// Applies `c`'s unitary gates to `state` one [`StateVector::apply`] at a
/// time.
fn gate_by_gate(c: &Circuit, mut state: StateVector) -> StateVector {
    for instr in c.iter().filter(|i| i.gate().is_unitary()) {
        state.apply(instr);
    }
    state
}

/// `c` under `opts` from `|0...0⟩` (`from_circuit_with`) and from `start`
/// (`apply_circuit_with`).
fn fresh_and_applied(c: &Circuit, start: &StateVector, opts: &SimOptions) -> [StateVector; 2] {
    let mut applied = start.clone();
    applied.apply_circuit_with(c, opts);
    [StateVector::from_circuit_with(c, opts), applied]
}

fn max_amp_diff(a: &StateVector, b: &StateVector) -> f64 {
    a.amplitudes()
        .iter()
        .zip(b.amplitudes())
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

proptest! {
    /// Fused diagonal application agrees with gate-by-gate application.
    #[test]
    fn fused_diagonals_match_unfused(c in arb_circuit(6, 60)) {
        let fused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(true),
        );
        let unfused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        prop_assert!(max_amp_diff(&fused, &unfused) < 1e-12);
        let reference = gate_by_gate(&c, StateVector::new(6));
        prop_assert!(max_amp_diff(&fused, &reference) < 1e-12);
    }

    /// The QAOA fast path (single parity-class cost layer) agrees with
    /// the generic engine.
    #[test]
    fn qaoa_cost_layer_fusion_matches(c in arb_qaoa_circuit(6)) {
        let fused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(true),
        );
        let unfused = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        prop_assert!(max_amp_diff(&fused, &unfused) < 1e-12);
    }

}

// Thread-equivalence cases spawn thousands of scoped threads each (every
// gate pass forks); fewer, fatter cases keep the suite quick without
// losing coverage.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// N oversubscribed threads produce the same state as serial — the
    /// chunking rules never split a gate's coupled amplitudes.
    #[test]
    fn thread_counts_match_serial(c in arb_circuit(6, 50), threads in 2usize..9) {
        let serial = StateVector::from_circuit_with(&c, &SimOptions::serial());
        let parallel = StateVector::from_circuit_with(
            &c,
            &SimOptions::default()
                .with_threads(threads)
                .with_crossover_qubits(0),
        );
        prop_assert!(
            max_amp_diff(&serial, &parallel) < 1e-12,
            "threads={threads}"
        );
        // Stronger than the contract: chunking must not reassociate any
        // floating-point operation, so the match is exact.
        prop_assert_eq!(serial.amplitudes(), parallel.amplitudes());
    }

    /// Routed circuits, whose SWAPs the engine absorbs as relabels, match
    /// the per-gate path from `|0...0⟩` and from a prepared non-basis
    /// state, fused and unfused, and every thread count reproduces the
    /// serial result exactly.
    #[test]
    fn routed_circuits_match_gate_by_gate(
        c in arb_routed_circuit(7, 5),
        prep in arb_circuit(7, 30),
        threads in 2usize..9,
    ) {
        let start = gate_by_gate(&prep, StateVector::new(7));
        let reference = [gate_by_gate(&c, StateVector::new(7)), gate_by_gate(&c, start.clone())];
        for fused in [true, false] {
            let serial = SimOptions::serial().with_fused_diagonals(fused);
            let threaded = serial.with_threads(threads).with_crossover_qubits(0);
            let got = fresh_and_applied(&c, &start, &serial);
            for (g, r) in got.iter().zip(&reference) {
                prop_assert!(max_amp_diff(g, r) < 1e-12, "{serial}");
            }
            prop_assert_eq!(got, fresh_and_applied(&c, &start, &threaded), "{threaded}");
        }
    }

    /// A fresh-state run of a circuit whose idle qubits only SWAPs touch
    /// simulates the data qubits alone and scatters them into the full
    /// register: it matches the per-gate path, fused and unfused, and
    /// every thread count reproduces the serial result exactly.
    #[test]
    fn compacted_runs_match_gate_by_gate(
        c in (1usize..8).prop_flat_map(|data| arb_data_following_circuit(8, data)),
        threads in 2usize..9,
    ) {
        let reference = gate_by_gate(&c, StateVector::new(8));
        for fused in [true, false] {
            let serial = SimOptions::serial().with_fused_diagonals(fused);
            let threaded = serial.with_threads(threads).with_crossover_qubits(0);
            let got = StateVector::from_circuit_with(&c, &serial);
            prop_assert!(max_amp_diff(&got, &reference) < 1e-12, "{serial}");
            prop_assert_eq!(got, StateVector::from_circuit_with(&c, &threaded), "{threaded}");
        }
    }

    /// Threading and fusion composed still match the serial reference.
    #[test]
    fn threaded_fused_matches_serial_unfused(c in arb_qaoa_circuit(5), threads in 2usize..5) {
        let reference = StateVector::from_circuit_with(
            &c,
            &SimOptions::serial().with_fused_diagonals(false),
        );
        let tuned = StateVector::from_circuit_with(
            &c,
            &SimOptions::default()
                .with_threads(threads)
                .with_crossover_qubits(0)
                .with_fused_diagonals(true),
        );
        prop_assert!(max_amp_diff(&reference, &tuned) < 1e-12);
    }
}

#[test]
fn try_new_reports_structured_error() {
    match StateVector::try_new(MAX_QUBITS + 3) {
        Err(SimError::RegisterTooLarge {
            qubits,
            limit,
            representation,
        }) => {
            assert_eq!(qubits, MAX_QUBITS + 3);
            assert_eq!(limit, MAX_QUBITS);
            assert_eq!(representation, "statevector");
        }
        other => panic!("expected RegisterTooLarge, got {other:?}"),
    }
    // In-range widths succeed (kept small — the limit itself would
    // allocate the full 4 GiB vector).
    assert!(StateVector::try_new(10).is_ok());
}
