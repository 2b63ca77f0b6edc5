//! Property-based tests for the circuit IR.

use proptest::prelude::*;
use qcircuit::basis::{is_in_basis, to_basis, BasisSet};
use qcircuit::layers::{asap_layers, from_layers};
use qcircuit::{qasm, Circuit, Gate, Instruction};

/// Strategy: an arbitrary gate instruction over `n` qubits.
fn arb_instruction(n: usize) -> impl Strategy<Value = Instruction> {
    let angle = -6.0f64..6.0;
    prop_oneof![
        (0..n).prop_map(|q| Instruction::one(Gate::H, q)),
        (0..n).prop_map(|q| Instruction::one(Gate::X, q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rx(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::Rz(t.into()), q)),
        (0..n, angle.clone()).prop_map(|(q, t)| Instruction::one(Gate::U1(t.into()), q)),
        two_qubit(n, None),
        (angle.clone()).prop_flat_map(move |t| two_qubit(n, Some(Gate::Rzz(t.into())))),
        (angle).prop_flat_map(move |t| two_qubit(n, Some(Gate::CPhase(t.into())))),
        two_qubit(n, Some(Gate::Swap)),
    ]
}

fn two_qubit(n: usize, gate: Option<Gate>) -> impl Strategy<Value = Instruction> {
    (0..n, 1..n).prop_map(move |(a, d)| {
        let b = (a + d) % n;
        Instruction::two(gate.unwrap_or(Gate::Cnot), a, b)
    })
}

fn arb_circuit(n: usize, max_len: usize) -> impl Strategy<Value = Circuit> {
    proptest::collection::vec(arb_instruction(n), 0..max_len).prop_map(move |instrs| {
        let mut c = Circuit::new(n);
        for i in instrs {
            c.push(i).expect("instructions are in range");
        }
        c
    })
}

proptest! {
    #[test]
    fn depth_is_bounded_by_length(c in arb_circuit(5, 40)) {
        prop_assert!(c.depth() <= c.len());
        if !c.is_empty() {
            prop_assert!(c.depth() >= 1);
            // depth is at least len / num_qubits (pigeonhole).
            prop_assert!(c.depth() * c.num_qubits() >= c.len());
        }
    }

    #[test]
    fn layers_partition_the_circuit(c in arb_circuit(5, 40)) {
        let layers = asap_layers(&c);
        prop_assert_eq!(layers.len(), c.depth());
        prop_assert_eq!(layers.iter().map(Vec::len).sum::<usize>(), c.len());
        for layer in &layers {
            let mut used = std::collections::HashSet::new();
            for instr in layer {
                for q in instr.qubit_vec() {
                    prop_assert!(used.insert(q));
                }
            }
        }
        // Rebuilding from layers preserves depth and length.
        let rebuilt = from_layers(c.num_qubits(), &layers);
        prop_assert_eq!(rebuilt.depth(), c.depth());
        prop_assert_eq!(rebuilt.len(), c.len());
    }

    #[test]
    fn basis_lowering_is_complete_and_preserves_cx_accounting(c in arb_circuit(4, 30)) {
        let lowered = to_basis(&c, BasisSet::Ibm).unwrap();
        prop_assert!(is_in_basis(&lowered, BasisSet::Ibm));
        // Each two-qubit IR gate contributes its known CNOT cost.
        let expected_cx: usize = c
            .iter()
            .map(|i| match i.gate() {
                Gate::Cnot => 1,
                Gate::Swap => 3,
                Gate::Cz | Gate::CPhase(_) | Gate::Rzz(_) => 2,
                _ => 0,
            })
            .sum();
        prop_assert_eq!(lowered.count_gate("cx"), expected_cx);
        // Measurements survive lowering.
        prop_assert_eq!(lowered.count_gate("measure"), c.count_gate("measure"));
    }

    #[test]
    fn qasm_round_trips(c in arb_circuit(5, 30)) {
        let text = qasm::to_qasm(&c).unwrap();
        let parsed = qasm::parse(&text).unwrap();
        prop_assert_eq!(parsed, c);
    }

    #[test]
    fn reversed_twice_is_identity(c in arb_circuit(4, 25)) {
        let twice = c.reversed().reversed();
        // Measurements are dropped by reversal; compare unitary parts.
        let unitary: Vec<Instruction> =
            c.iter().filter(|i| i.gate().is_unitary()).copied().collect();
        prop_assert_eq!(twice.instructions(), &unitary[..]);
    }

    #[test]
    fn remap_preserves_structure(c in arb_circuit(4, 25)) {
        let mapping = [7usize, 2, 5, 0];
        let mapped = c.remapped(8, |q| mapping[q]);
        prop_assert_eq!(mapped.len(), c.len());
        prop_assert_eq!(mapped.depth(), c.depth());
        prop_assert_eq!(mapped.gate_count(), c.gate_count());
        for (orig, new) in c.iter().zip(mapped.iter()) {
            prop_assert_eq!(new.gate(), orig.gate());
            prop_assert_eq!(new.q0(), mapping[orig.q0()]);
        }
    }

    #[test]
    fn gate_count_splits_by_arity(c in arb_circuit(5, 40)) {
        let ones = c
            .iter()
            .filter(|i| i.gate().arity() == 1 && i.gate().is_unitary())
            .count();
        let twos = c.two_qubit_count();
        prop_assert_eq!(c.gate_count(), ones + twos);
    }
}
