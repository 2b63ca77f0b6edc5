//! Concurrency-layer scheduling.
//!
//! The backend compiler the paper builds on (\[47\], \[48\]) "partitions the
//! circuit in different layers where each layer consists of gates that can
//! be executed concurrently in the hardware (gates operating on a different
//! set of qubits)". This module implements that partition in the standard
//! as-soon-as-possible (ASAP) form that respects program order: a gate is
//! placed in the earliest layer after the last layer touching any of its
//! qubits.
//!
//! The number of layers equals [`crate::Circuit::depth`].

use crate::{Circuit, Instruction};

/// Partitions the circuit into ASAP concurrency layers.
///
/// Each inner vector holds instructions that act on pairwise-disjoint
/// qubits and can execute in the same time step; layers are ordered in
/// time. Program order is respected: a gate never moves before a
/// program-earlier gate that shares a qubit.
///
/// # Examples
///
/// ```
/// use qcircuit::{layers::asap_layers, Circuit};
///
/// let mut c = Circuit::new(3);
/// c.h(0);
/// c.h(1);
/// c.cx(0, 1);
/// c.h(2);
/// let layers = asap_layers(&c);
/// assert_eq!(layers.len(), 2);
/// assert_eq!(layers[0].len(), 3); // h q0, h q1, h q2
/// assert_eq!(layers[1].len(), 1); // cx
/// ```
pub fn asap_layers(c: &Circuit) -> Vec<Vec<Instruction>> {
    let mut buf = LayerBuffer::new();
    asap_layers_into(c, 0, &mut buf);
    buf.layers.truncate(buf.used);
    buf.layers
}

/// Reusable scratch for [`asap_layers_into`]: the frontier and the layer
/// vectors (including each layer's element buffer) survive across calls,
/// so the per-route-call layer partition allocates nothing in steady
/// state.
#[derive(Debug, Default)]
pub struct LayerBuffer {
    /// Layer storage; only the first [`LayerBuffer::used`] entries are
    /// meaningful after a build (later entries are retained, empty, for
    /// reuse).
    pub layers: Vec<Vec<Instruction>>,
    /// Number of layers the last build produced.
    pub used: usize,
    frontier: Vec<usize>,
}

impl LayerBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        LayerBuffer::default()
    }

    /// The layers of the last [`asap_layers_into`] build.
    pub fn built(&self) -> &[Vec<Instruction>] {
        &self.layers[..self.used]
    }

    fn reset(&mut self, num_qubits: usize) {
        self.frontier.clear();
        self.frontier.resize(num_qubits, 0);
        for layer in &mut self.layers {
            layer.clear();
        }
        self.used = 0;
    }

    fn place(&mut self, instr: Instruction, level: usize) {
        if level == self.used {
            if self.used == self.layers.len() {
                self.layers.push(Vec::new());
            }
            self.used += 1;
        }
        self.layers[level].push(instr);
    }
}

/// [`asap_layers`] over the instruction suffix starting at `start`,
/// building into a reusable [`LayerBuffer`] instead of allocating fresh
/// vectors. Produces exactly the layers `asap_layers` would report for
/// the suffix as a standalone circuit.
///
/// # Panics
///
/// Panics if `start > c.len()`.
pub fn asap_layers_into(c: &Circuit, start: usize, buf: &mut LayerBuffer) {
    buf.reset(c.num_qubits());
    for instr in &c.instructions()[start..] {
        let (q0, arity) = (instr.q0(), instr.gate().arity());
        let level = if arity == 1 {
            buf.frontier[q0]
        } else {
            buf.frontier[q0].max(buf.frontier[instr.q1()])
        };
        buf.place(*instr, level);
        buf.frontier[q0] = level + 1;
        if arity == 2 {
            buf.frontier[instr.q1()] = level + 1;
        }
    }
}

/// Rebuilds a circuit from explicit layers, preserving the layer order.
///
/// # Panics
///
/// Panics if any instruction references a qubit `>= num_qubits`.
pub fn from_layers(num_qubits: usize, layers: &[Vec<Instruction>]) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for layer in layers {
        for instr in layer {
            c.push(*instr)
                .unwrap_or_else(|e| panic!("invalid layered instruction: {e}"));
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Gate;

    fn qaoa_like(order: &[(usize, usize)]) -> Circuit {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        for &(a, b) in order {
            c.rzz(0.5, a, b);
        }
        c
    }

    #[test]
    fn layers_are_disjoint_in_qubits() {
        let c = qaoa_like(&[(0, 1), (2, 3), (0, 2), (1, 3)]);
        for layer in asap_layers(&c) {
            let mut used = std::collections::HashSet::new();
            for instr in &layer {
                for q in instr.qubit_vec() {
                    assert!(used.insert(q), "qubit {q} reused within a layer");
                }
            }
        }
    }

    #[test]
    fn layer_count_matches_depth() {
        for order in [
            vec![(0, 1), (1, 2), (2, 3)],
            vec![(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)],
            vec![(0, 1), (0, 2), (0, 3)],
        ] {
            let c = qaoa_like(&order);
            assert_eq!(asap_layers(&c).len(), c.depth());
        }
    }

    #[test]
    fn from_layers_round_trips() {
        let c = qaoa_like(&[(0, 1), (2, 3), (0, 3)]);
        let layers = asap_layers(&c);
        let rebuilt = from_layers(4, &layers);
        assert_eq!(rebuilt.depth(), c.depth());
        assert_eq!(rebuilt.len(), c.len());
    }

    #[test]
    fn layer_buffer_reuse_matches_fresh_build() {
        let mut buf = LayerBuffer::new();
        let big = qaoa_like(&[(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]);
        let small = qaoa_like(&[(0, 1)]);
        for c in [&big, &small, &big] {
            asap_layers_into(c, 0, &mut buf);
            assert_eq!(buf.built(), asap_layers(c).as_slice());
        }
        // Suffix build matches the suffix as a standalone circuit.
        asap_layers_into(&big, 4, &mut buf);
        let mut suffix = Circuit::new(4);
        for instr in &big.instructions()[4..] {
            suffix.push(*instr).unwrap();
        }
        assert_eq!(buf.built(), asap_layers(&suffix).as_slice());
    }

    #[test]
    fn program_order_is_respected() {
        // Two commuting RZZs sharing a qubit must stay in program order
        // across layers (the scheduler is order-preserving; reordering is
        // the *compiler passes'* job).
        let mut c = Circuit::new(3);
        c.rzz(0.1, 0, 1);
        c.rzz(0.2, 1, 2);
        let layers = asap_layers(&c);
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0][0].gate(), Gate::Rzz((0.1).into()));
        assert_eq!(layers[1][0].gate(), Gate::Rzz((0.2).into()));
    }
}
