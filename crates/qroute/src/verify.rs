//! Post-routing verification: coupling compliance and functional
//! equivalence.

use qcircuit::{Circuit, Gate, Instruction};
use qhw::Topology;
use qsim::StateVector;

use crate::Layout;

/// Whether every two-qubit gate in `circuit` acts on a coupled physical
/// pair of `topology`.
pub fn satisfies_coupling(circuit: &Circuit, topology: &Topology) -> bool {
    circuit
        .iter()
        .filter(|i| i.gate().arity() == 2)
        .all(|i| topology.are_coupled(i.q0(), i.q1()))
}

/// Checks that a routed physical circuit computes the same state as the
/// logical circuit, accounting for the qubit permutation the SWAPs induce.
///
/// Simulates both circuits (measurements ignored) and compares the logical
/// state against the physical state with the *final* layout's inverse
/// permutation applied. Cost: `qsim` absorbs the routing SWAPs as relabels
/// (each routed level is one diagonal pass) and simulates only the storage
/// bits that hold data, so every pass of either simulation sweeps the
/// `2^n` amplitudes of the `n` logical qubits. Each result is still a
/// dense `2^N`-amplitude state over the `N` physical qubits (16 MiB at
/// 20), which the fidelity reads. The compile pipeline calls it up to
/// `qcompile::pipeline::FULL_VERIFY_MAX_QUBITS` (16) qubits, and the
/// benchmark on the 20-qubit `ibmq_20_tokyo`.
///
/// # Panics
///
/// Panics if `final_layout` disagrees with the physical circuit's qubit
/// count, or if the state would exceed the simulator's qubit limit.
pub fn routed_equivalent(
    logical: &Circuit,
    physical: &Circuit,
    initial_layout: &Layout,
    final_layout: &Layout,
) -> bool {
    let n = physical.num_qubits();
    // Embed the logical circuit on physical qubits via the *initial*
    // layout, then route-free simulate; separately simulate the routed
    // circuit and undo its data movement by swapping each logical qubit's
    // final home back to its initial home.
    let embedded = logical.remapped(n, |l| initial_layout.phys(l));
    let want = StateVector::from_circuit(&embedded);

    let mut routed = physical.clone();
    // Append SWAPs returning every logical qubit from final to initial
    // position (selection-sort over the permutation).
    let mut current: Vec<usize> = (0..logical.num_qubits())
        .map(|l| final_layout.phys(l))
        .collect();
    for l in 0..logical.num_qubits() {
        let target = initial_layout.phys(l);
        let here = current[l];
        if here == target {
            continue;
        }
        routed
            .push(Instruction::two(Gate::Swap, here, target))
            .expect("swap operands in range");
        // Whichever logical qubit occupied `target` moves to `here`.
        for slot in current.iter_mut() {
            if *slot == target {
                *slot = here;
            }
        }
        current[l] = target;
    }
    let got = StateVector::from_circuit(&routed);
    got.fidelity(&want) > 1.0 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route, RoutingMetric};

    #[test]
    fn coupling_violations_detected() {
        let topo = Topology::linear(3);
        let mut bad = Circuit::new(3);
        bad.cx(0, 2);
        assert!(!satisfies_coupling(&bad, &topo));
        let mut good = Circuit::new(3);
        good.cx(0, 1);
        good.h(2);
        assert!(satisfies_coupling(&good, &topo));
    }

    #[test]
    fn equivalence_detects_wrong_circuit() {
        let topo = Topology::linear(3);
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 2);
        let layout = Layout::trivial(3, 3);
        let r = route(&c, &topo, layout.clone(), &RoutingMetric::hops(&topo));
        assert!(routed_equivalent(&c, &r.circuit, &layout, &r.final_layout));

        // Tamper with the routed circuit: no longer equivalent.
        let mut tampered = r.circuit.clone();
        tampered.x(1);
        assert!(!routed_equivalent(&c, &tampered, &layout, &r.final_layout));
    }

    #[test]
    fn equivalence_with_nontrivial_initial_layout() {
        let topo = Topology::ring(5);
        let mut c = Circuit::new(4);
        c.h(0);
        c.rzz(0.8, 0, 3);
        c.cx(1, 2);
        c.rx(0.2, 3);
        let layout = Layout::from_mapping(vec![2, 0, 4, 1], 5);
        let r = route(&c, &topo, layout.clone(), &RoutingMetric::hops(&topo));
        assert!(satisfies_coupling(&r.circuit, &topo));
        assert!(routed_equivalent(&c, &r.circuit, &layout, &r.final_layout));
    }
}
