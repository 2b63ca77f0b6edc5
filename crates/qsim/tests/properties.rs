//! Property-based tests for the statevector simulator.

use proptest::prelude::*;
use qcircuit::{Circuit, Gate, Instruction};
use qsim::{Sampler, StateVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_unitary_instruction(n: usize) -> impl Strategy<Value = Instruction> {
    let angle = -6.0f64..6.0;
    prop_oneof![
        (0..n).prop_map(|q| Instruction::one(Gate::H, q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rx(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Ry(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rz(t.into()), q)),
        (0..n, 1..n).prop_map(move |(a, d)| Instruction::two(Gate::Cnot, a, (a + d) % n)),
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

proptest! {
    #[test]
    fn unitary_circuits_preserve_norm(c in arb_circuit(5, 60)) {
        let sv = StateVector::from_circuit(&c);
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn apply_then_inverse_is_identity(c in arb_circuit(4, 30)) {
        // `c`, then its inverse gates in reverse order, as one run.
        let mut round_trip = c.clone();
        round_trip.append(&c.reversed()).expect("same register");
        let sv = StateVector::from_circuit(&round_trip);
        let initial = StateVector::new(4);
        prop_assert!(sv.fidelity(&initial) > 1.0 - 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one(c in arb_circuit(5, 40)) {
        let p = StateVector::from_circuit(&c).probabilities();
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
    }

    #[test]
    fn diagonal_gates_leave_probabilities_unchanged(
        c in arb_circuit(4, 25),
        theta in -3.0f64..3.0,
        q in 0usize..4,
    ) {
        let base = StateVector::from_circuit(&c);
        let mut phased = base.clone();
        phased.apply(&Instruction::one(Gate::Rz(theta.into()), q));
        phased.apply(&Instruction::two(Gate::Rzz(theta.into()), q, (q + 1) % 4));
        let pa = base.probabilities();
        let pb = phased.probabilities();
        for (a, b) in pa.iter().zip(&pb) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fidelity_is_symmetric_and_bounded(
        c1 in arb_circuit(3, 20),
        c2 in arb_circuit(3, 20),
    ) {
        let a = StateVector::from_circuit(&c1);
        let b = StateVector::from_circuit(&c2);
        let fab = a.fidelity(&b);
        let fba = b.fidelity(&a);
        prop_assert!((fab - fba).abs() < 1e-9);
        prop_assert!((-1e-9..=1.0 + 1e-9).contains(&fab));
        prop_assert!(a.fidelity(&a) > 1.0 - 1e-9);
    }

    #[test]
    fn expectation_of_constant_is_constant(c in arb_circuit(4, 25), k in -5.0f64..5.0) {
        let sv = StateVector::from_circuit(&c);
        let e = sv.expectation_diagonal(|_| k);
        prop_assert!((e - k).abs() < 1e-9);
    }

    #[test]
    fn sampling_distribution_converges(c in arb_circuit(3, 15), seed in 0u64..500) {
        let sv = StateVector::from_circuit(&c);
        let probs = sv.probabilities();
        let mut rng = StdRng::seed_from_u64(seed);
        let counts = Sampler::new(&sv).sample_counts(20_000, &mut rng);
        for (state, want) in probs.iter().enumerate() {
            let got = counts.get(&state).copied().unwrap_or(0) as f64 / 20_000.0;
            prop_assert!((got - want).abs() < 0.03, "sampled {got} vs exact {want}");
        }
    }

    #[test]
    fn swap_relabels_probabilities(c in arb_circuit(3, 20), a in 0usize..3, d in 1usize..3) {
        let b = (a + d) % 3;
        let base = StateVector::from_circuit(&c);
        let mut swapped = base.clone();
        swapped.apply(&Instruction::two(Gate::Swap, a, b));
        let pa = base.probabilities();
        let pb = swapped.probabilities();
        for (idx, &p_orig) in pa.iter().enumerate() {
            let bit_a = (idx >> a) & 1;
            let bit_b = (idx >> b) & 1;
            let swapped_idx = (idx & !(1 << a) & !(1 << b)) | (bit_a << b) | (bit_b << a);
            prop_assert!((p_orig - pb[swapped_idx]).abs() < 1e-9);
        }
    }
}
