use std::fmt;

use crate::param::{Angle, ParamId, ParamTable, ParamValues};
use crate::{CircuitError, Gate};

/// One gate application: a [`Gate`] plus its qubit operands.
///
/// For two-qubit gates the operand order is `(first, second)` where the
/// first operand is the control for [`Gate::Cnot`] / [`Gate::CPhase`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Instruction {
    gate: Gate,
    q0: u32,
    q1: u32,
}

impl Instruction {
    /// Creates a single-qubit instruction.
    ///
    /// # Panics
    ///
    /// Panics if `gate.arity() != 1`.
    pub fn one(gate: Gate, q: usize) -> Self {
        assert_eq!(
            gate.arity(),
            1,
            "{} is not a single-qubit gate",
            gate.name()
        );
        Instruction {
            gate,
            q0: q as u32,
            q1: u32::MAX,
        }
    }

    /// Creates a two-qubit instruction.
    ///
    /// # Panics
    ///
    /// Panics if `gate.arity() != 2` or `a == b`.
    pub fn two(gate: Gate, a: usize, b: usize) -> Self {
        assert_eq!(gate.arity(), 2, "{} is not a two-qubit gate", gate.name());
        assert_ne!(a, b, "two-qubit gate on duplicate operand {a}");
        Instruction {
            gate,
            q0: a as u32,
            q1: b as u32,
        }
    }

    /// The gate being applied.
    pub fn gate(&self) -> Gate {
        self.gate
    }

    /// The qubit operands as a vector (one or two entries).
    pub fn qubit_vec(&self) -> Vec<usize> {
        if self.gate.arity() == 1 {
            vec![self.q0 as usize]
        } else {
            vec![self.q0 as usize, self.q1 as usize]
        }
    }

    /// The first operand (target of 1q gates, control of CNOT).
    pub fn q0(&self) -> usize {
        self.q0 as usize
    }

    /// The second operand of a two-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics for single-qubit instructions.
    pub fn q1(&self) -> usize {
        assert_eq!(self.gate.arity(), 2, "q1() on single-qubit instruction");
        self.q1 as usize
    }

    /// Whether the instruction acts on `q`.
    pub fn acts_on(&self, q: usize) -> bool {
        self.q0 as usize == q || (self.gate.arity() == 2 && self.q1 as usize == q)
    }

    /// Rewrites qubit indices through `map` (e.g. a logical→physical
    /// layout), returning the remapped instruction.
    ///
    /// # Panics
    ///
    /// Panics if `map` returns identical indices for the two operands of a
    /// two-qubit gate.
    pub fn remap<F: Fn(usize) -> usize>(&self, map: F) -> Instruction {
        if self.gate.arity() == 1 {
            Instruction::one(self.gate, map(self.q0 as usize))
        } else {
            Instruction::two(self.gate, map(self.q0 as usize), map(self.q1 as usize))
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.gate.arity() == 1 {
            write!(f, "{} q{}", self.gate, self.q0)
        } else {
            write!(f, "{} q{}, q{}", self.gate, self.q0, self.q1)
        }
    }
}

/// What one [`Circuit::census`] walk counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Census {
    /// [`Circuit::depth`].
    pub depth: usize,
    /// [`Circuit::gate_count`]: every instruction but measurements.
    pub gates: usize,
    /// [`Gate::Cnot`] instructions.
    pub cx: usize,
    /// Instructions carrying a symbolic angle.
    pub parametric: usize,
}

/// Schedules `instr` one level past the latest frontier of its operands,
/// advances those frontiers and returns the level: the as-soon-as-possible
/// rule that defines [`Circuit::depth`].
fn schedule(frontier: &mut [usize], instr: &Instruction) -> usize {
    let q0 = instr.q0 as usize;
    if instr.gate.arity() == 1 {
        frontier[q0] += 1;
        frontier[q0]
    } else {
        let q1 = instr.q1 as usize;
        let level = frontier[q0].max(frontier[q1]) + 1;
        frontier[q0] = level;
        frontier[q1] = level;
        level
    }
}

/// An ordered sequence of gate applications over `num_qubits` qubits.
///
/// The instruction order is program order; concurrency ("layers", the
/// paper's time steps) is derived on demand by [`crate::layers`]. This
/// mirrors how the paper's methodologies work: IP/IC/VIC choose the
/// *sequence* of CPHASE gates handed to the backend, and the backend's
/// layer partitioner extracts parallelism from that sequence.
///
/// # Examples
///
/// ```
/// use qcircuit::{Circuit, Gate};
///
/// let mut c = Circuit::new(2);
/// c.h(0);
/// c.cx(0, 1);
/// c.measure_all();
/// assert_eq!(c.len(), 4);
/// assert_eq!(c.count_gate("cx"), 1);
/// assert_eq!(c.depth(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
    params: ParamTable,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    pub fn new(num_qubits: usize) -> Self {
        Circuit {
            num_qubits,
            instructions: Vec::new(),
            params: ParamTable::new(),
        }
    }

    /// Declares a named circuit parameter, returning its id for use in
    /// symbolic [`Angle`]s.
    pub fn declare_param(&mut self, name: impl Into<String>) -> ParamId {
        self.params.declare(name)
    }

    /// The circuit's declared parameters.
    pub fn param_table(&self) -> &ParamTable {
        &self.params
    }

    /// Replaces the circuit's parameter table (used by builders that emit
    /// instructions referencing an externally constructed table).
    pub fn set_param_table(&mut self, params: ParamTable) {
        self.params = params;
    }

    /// The number of declared parameters.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Whether any instruction carries a symbolic (unbound) angle.
    pub fn is_parametric(&self) -> bool {
        self.instructions.iter().any(|i| i.gate().is_parametric())
    }

    /// Substitutes parameter values into every symbolic angle, producing a
    /// fully bound circuit (empty parameter table).
    ///
    /// This is the whole of "rebinding": a per-gate angle substitution with
    /// no mapping, ordering or routing work.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ParamCountMismatch`] if the circuit declares
    /// parameters and `values` has a different length, and
    /// [`CircuitError::UnboundParameter`] if an instruction references a
    /// parameter `values` does not cover.
    pub fn bind(&self, values: &ParamValues) -> Result<Circuit, CircuitError> {
        if !self.params.is_empty() && values.len() != self.params.len() {
            return Err(CircuitError::ParamCountMismatch {
                expected: self.params.len(),
                found: values.len(),
            });
        }
        // Bulk-copy the instruction stream and rewrite only the symbolic
        // gates in place: binding is on the optimizer's per-iteration hot
        // path, and most instructions (H, CNOT, SWAP, measure) carry no
        // angle at all.
        let mut out = Circuit {
            num_qubits: self.num_qubits,
            instructions: self.instructions.clone(),
            params: ParamTable::new(),
        };
        for instr in &mut out.instructions {
            if instr.gate.is_parametric() {
                instr.gate = instr.gate.bound(values)?;
            }
        }
        Ok(out)
    }

    /// The number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The number of instructions (including measurements).
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Whether the circuit contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// The instructions in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Validates operands and appends an instruction.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfBounds`] for out-of-range operands.
    pub fn push(&mut self, instr: Instruction) -> Result<(), CircuitError> {
        // Validated through q0/q1 directly: `qubit_vec` allocates, and
        // push sits under every gate the compiler emits.
        if instr.q0() >= self.num_qubits {
            return Err(CircuitError::QubitOutOfBounds {
                qubit: instr.q0(),
                num_qubits: self.num_qubits,
            });
        }
        if instr.gate().arity() == 2 && instr.q1() >= self.num_qubits {
            return Err(CircuitError::QubitOutOfBounds {
                qubit: instr.q1(),
                num_qubits: self.num_qubits,
            });
        }
        self.instructions.push(instr);
        Ok(())
    }

    /// Reserves capacity for at least `additional` more instructions.
    ///
    /// The compile path sizes its output buffers up front (spec gate
    /// count plus routing headroom) so layer stitching never reallocates
    /// mid-compile; see [`Circuit::capacity`] for the pin.
    pub fn reserve(&mut self, additional: usize) {
        self.instructions.reserve(additional);
    }

    /// The number of instructions the circuit can hold without
    /// reallocating.
    pub fn capacity(&self) -> usize {
        self.instructions.capacity()
    }

    /// Removes all instructions, retaining the allocated capacity. The
    /// qubit count and parameter table are unchanged — this is the reset
    /// used by per-layer scratch circuits in the incremental compiler.
    pub fn clear(&mut self) {
        self.instructions.clear();
    }

    fn push_one(&mut self, gate: Gate, q: usize) {
        self.push(Instruction::one(gate, q))
            .unwrap_or_else(|e| panic!("invalid gate operand: {e}"));
    }

    fn push_two(&mut self, gate: Gate, a: usize, b: usize) {
        self.push(Instruction::two(gate, a, b))
            .unwrap_or_else(|e| panic!("invalid gate operand: {e}"));
    }

    /// Appends a Hadamard gate.
    ///
    /// # Panics
    ///
    /// This and the other builder shorthands panic on out-of-range qubits;
    /// use [`Circuit::push`] for fallible insertion.
    pub fn h(&mut self, q: usize) {
        self.push_one(Gate::H, q);
    }

    /// Appends a Pauli-X gate.
    pub fn x(&mut self, q: usize) {
        self.push_one(Gate::X, q);
    }

    /// Appends a Pauli-Y gate.
    pub fn y(&mut self, q: usize) {
        self.push_one(Gate::Y, q);
    }

    /// Appends a Pauli-Z gate.
    pub fn z(&mut self, q: usize) {
        self.push_one(Gate::Z, q);
    }

    /// Appends an `Rx(theta)` rotation (concrete or symbolic angle).
    pub fn rx(&mut self, theta: impl Into<Angle>, q: usize) {
        self.push_one(Gate::Rx(theta.into()), q);
    }

    /// Appends an `Ry(theta)` rotation.
    pub fn ry(&mut self, theta: impl Into<Angle>, q: usize) {
        self.push_one(Gate::Ry(theta.into()), q);
    }

    /// Appends an `Rz(theta)` rotation.
    pub fn rz(&mut self, theta: impl Into<Angle>, q: usize) {
        self.push_one(Gate::Rz(theta.into()), q);
    }

    /// Appends a `U1(lambda)` phase gate.
    pub fn u1(&mut self, lambda: impl Into<Angle>, q: usize) {
        self.push_one(Gate::U1(lambda.into()), q);
    }

    /// Appends a CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.push_two(Gate::Cnot, c, t);
    }

    /// Appends a controlled-Z gate.
    pub fn cz(&mut self, a: usize, b: usize) {
        self.push_two(Gate::Cz, a, b);
    }

    /// Appends a controlled-phase gate `diag(1,1,1,e^{iλ})`.
    pub fn cp(&mut self, lambda: impl Into<Angle>, a: usize, b: usize) {
        self.push_two(Gate::CPhase(lambda.into()), a, b);
    }

    /// Appends the commuting ZZ-interaction (the paper's "CPHASE") gate.
    pub fn rzz(&mut self, theta: impl Into<Angle>, a: usize, b: usize) {
        self.push_two(Gate::Rzz(theta.into()), a, b);
    }

    /// Appends a SWAP gate.
    pub fn swap(&mut self, a: usize, b: usize) {
        self.push_two(Gate::Swap, a, b);
    }

    /// Appends a measurement of qubit `q`.
    pub fn measure(&mut self, q: usize) {
        self.push_one(Gate::Measure, q);
    }

    /// Appends a measurement of every qubit.
    pub fn measure_all(&mut self) {
        for q in 0..self.num_qubits {
            self.measure(q);
        }
    }

    /// Appends all instructions of `other`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::SizeMismatch`] if qubit counts differ and
    /// [`CircuitError::ParamTableMismatch`] if both circuits declare
    /// conflicting parameter tables (an empty side adopts the other). Used
    /// by IC/VIC to *stitch* compiled partial circuits (paper §IV-C).
    pub fn append(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        if other.num_qubits != self.num_qubits {
            return Err(CircuitError::SizeMismatch {
                expected: self.num_qubits,
                found: other.num_qubits,
            });
        }
        self.params.merge(&other.params)?;
        self.instructions.extend_from_slice(&other.instructions);
        Ok(())
    }

    /// The circuit depth: the number of concurrency layers (time steps)
    /// when gates are scheduled as soon as possible in program order.
    ///
    /// Matches the paper's depth metric — the Figure 1(b) random circuit
    /// has depth 9 and the Figure 1(c) reordered circuit depth 6, both
    /// counting the final measurements.
    pub fn depth(&self) -> usize {
        self.depth_from(0)
    }

    /// The depth of the instruction suffix starting at `start`, computed
    /// as if those instructions formed a circuit of their own.
    ///
    /// The incremental compiler emits routed layers directly into its
    /// stitched output circuit; this reports the depth of one such
    /// fragment — identical to the depth the fragment would have had as
    /// a standalone partial circuit.
    ///
    /// # Panics
    ///
    /// Panics if `start > self.len()`.
    pub fn depth_from(&self, start: usize) -> usize {
        let mut frontier = Vec::new();
        self.depth_from_with(start, &mut frontier)
    }

    /// [`Circuit::depth_from`] over a caller-supplied frontier buffer —
    /// the incremental router computes a fragment depth per routed layer,
    /// and reusing the buffer keeps that path allocation-free.
    pub fn depth_from_with(&self, start: usize, frontier: &mut Vec<usize>) -> usize {
        frontier.clear();
        frontier.resize(self.num_qubits, 0);
        self.instructions[start..]
            .iter()
            .fold(0, |depth, instr| depth.max(schedule(frontier, instr)))
    }

    /// Depth, gate count, CNOT count and symbolic-angle count in one walk
    /// over the instructions: what a compile reports about each circuit it
    /// outputs, without walking it once per figure.
    pub fn census(&self) -> Census {
        let mut frontier = vec![0; self.num_qubits];
        let mut census = Census::default();
        for instr in &self.instructions {
            census.depth = census.depth.max(schedule(&mut frontier, instr));
            let gate = instr.gate;
            census.gates += usize::from(gate.is_unitary());
            census.cx += usize::from(matches!(gate, Gate::Cnot));
            census.parametric += usize::from(gate.is_parametric());
        }
        census
    }

    /// Total number of instructions excluding measurements — the paper's
    /// *gate-count* metric is reported on the basis-decomposed circuit.
    pub fn gate_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate().is_unitary())
            .count()
    }

    /// The number of two-qubit gates.
    pub fn two_qubit_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate().arity() == 2)
            .count()
    }

    /// The number of instructions whose gate mnemonic equals `name`.
    pub fn count_gate(&self, name: &str) -> usize {
        self.instructions
            .iter()
            .filter(|i| i.gate().name() == name)
            .count()
    }

    /// Maps every qubit index through `map`, e.g. to apply an initial
    /// logical→physical layout.
    pub fn remapped<F: Fn(usize) -> usize>(&self, num_qubits: usize, map: F) -> Circuit {
        let mut out = Circuit::new(num_qubits);
        out.params = self.params.clone();
        for instr in &self.instructions {
            out.push(instr.remap(&map))
                .unwrap_or_else(|e| panic!("remap produced invalid instruction: {e}"));
        }
        out
    }

    /// The reverse circuit: inverses of the unitary gates in reverse order.
    /// Measurements are dropped. Used by reverse-traversal mapping
    /// refinement.
    pub fn reversed(&self) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        out.params = self.params.clone();
        for instr in self.instructions.iter().rev() {
            if !instr.gate().is_unitary() {
                continue;
            }
            let inv = instr.gate().inverse();
            let rebuilt = if inv.arity() == 1 {
                Instruction::one(inv, instr.q0())
            } else {
                Instruction::two(inv, instr.q0(), instr.q1())
            };
            out.push(rebuilt)
                .expect("reversed instruction stays in range");
        }
        out
    }

    /// Iterates over instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;
    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit[{} qubits, {} ops]:",
            self.num_qubits,
            self.len()
        )?;
        for instr in &self.instructions {
            writeln!(f, "  {instr}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates_bounds() {
        let mut c = Circuit::new(2);
        assert_eq!(
            c.push(Instruction::one(Gate::H, 2)),
            Err(CircuitError::QubitOutOfBounds {
                qubit: 2,
                num_qubits: 2
            })
        );
        assert!(c.push(Instruction::two(Gate::Cnot, 0, 1)).is_ok());
        assert_eq!(c.len(), 1);
    }

    #[test]
    #[should_panic]
    fn duplicate_operand_panics() {
        let _ = Instruction::two(Gate::Cnot, 1, 1);
    }

    #[test]
    #[should_panic]
    fn arity_mismatch_panics() {
        let _ = Instruction::one(Gate::Cnot, 0);
    }

    #[test]
    fn fig1_random_vs_reordered_depth() {
        let gamma = 0.4;
        let beta = 0.3;
        // circ-1, Figure 1(b): a poorly ordered CPHASE sequence where every
        // consecutive pair shares a qubit, forcing 6 sequential layers
        // (0-based qubits).
        let mut c1 = Circuit::new(4);
        for q in 0..4 {
            c1.h(q);
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3), (0, 3)] {
            c1.rzz(gamma, a, b);
        }
        for q in 0..4 {
            c1.rx(2.0 * beta, q);
        }
        c1.measure_all();
        assert_eq!(c1.depth(), 9);

        // circ-2, Figure 1(c): three dense layers.
        let mut c2 = Circuit::new(4);
        for q in 0..4 {
            c2.h(q);
        }
        for (a, b) in [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)] {
            c2.rzz(gamma, a, b);
        }
        for q in 0..4 {
            c2.rx(2.0 * beta, q);
        }
        c2.measure_all();
        assert_eq!(c2.depth(), 6);
    }

    #[test]
    fn gate_counts_exclude_measurement() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.measure_all();
        assert_eq!(c.gate_count(), 2);
        assert_eq!(c.two_qubit_count(), 1);
        assert_eq!(c.count_gate("measure"), 2);
        assert_eq!(c.count_gate("h"), 1);
    }

    #[test]
    fn append_checks_size() {
        let mut a = Circuit::new(3);
        let b = Circuit::new(2);
        assert_eq!(
            a.append(&b),
            Err(CircuitError::SizeMismatch {
                expected: 3,
                found: 2
            })
        );
        let mut ok = Circuit::new(3);
        ok.h(1);
        a.append(&ok).unwrap();
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn remap_applies_layout() {
        let mut c = Circuit::new(2);
        c.cx(0, 1);
        let layout = [5usize, 2usize];
        let mapped = c.remapped(6, |q| layout[q]);
        assert_eq!(mapped.instructions()[0].q0(), 5);
        assert_eq!(mapped.instructions()[0].q1(), 2);
    }

    #[test]
    fn reversed_inverts_order_and_gates() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.rz(0.5, 1);
        c.cx(0, 1);
        c.measure_all();
        let r = c.reversed();
        assert_eq!(r.len(), 3); // measurements dropped
        assert_eq!(r.instructions()[0].gate(), Gate::Cnot);
        assert_eq!(r.instructions()[1].gate(), Gate::Rz(Angle::Const(-0.5)));
        assert_eq!(r.instructions()[2].gate(), Gate::H);
    }

    #[test]
    fn bind_substitutes_and_clears_params() {
        let mut c = Circuit::new(2);
        let gamma = c.declare_param("gamma");
        let beta = c.declare_param("beta");
        c.h(0);
        c.rzz(Angle::sym(gamma).neg(), 0, 1);
        c.rx(Angle::sym(beta).scaled(2.0), 0);
        assert!(c.is_parametric());
        assert_eq!(c.num_params(), 2);

        let bound = c.bind(&ParamValues::new(vec![0.4, 0.3])).unwrap();
        assert!(!bound.is_parametric());
        assert_eq!(bound.num_params(), 0);
        assert_eq!(
            bound.instructions()[1].gate(),
            Gate::Rzz(Angle::Const(-0.4))
        );
        assert_eq!(bound.instructions()[2].gate(), Gate::Rx(Angle::Const(0.6)));
        // binding preserves structure: depth and operands are unchanged
        assert_eq!(bound.depth(), c.depth());
        assert_eq!(bound.len(), c.len());
    }

    #[test]
    fn bind_validates_value_count() {
        let mut c = Circuit::new(1);
        let p = c.declare_param("theta");
        c.rx(Angle::sym(p), 0);
        assert_eq!(
            c.bind(&ParamValues::new(vec![0.1, 0.2])),
            Err(CircuitError::ParamCountMismatch {
                expected: 1,
                found: 2
            })
        );
        // undeclared-but-referenced parameter surfaces as UnboundParameter
        let mut loose = Circuit::new(1);
        loose.rx(Angle::sym(ParamId(5)), 0);
        assert_eq!(
            loose.bind(&ParamValues::new(vec![])),
            Err(CircuitError::UnboundParameter {
                param: 5,
                provided: 0
            })
        );
    }

    #[test]
    fn append_merges_param_tables() {
        let mut parametric = Circuit::new(2);
        let p = parametric.declare_param("gamma");
        parametric.rzz(Angle::sym(p), 0, 1);

        // empty table adopts the appended circuit's table
        let mut host = Circuit::new(2);
        host.h(0);
        host.append(&parametric).unwrap();
        assert_eq!(host.num_params(), 1);

        // conflicting non-empty tables refuse to merge
        let mut other = Circuit::new(2);
        other.declare_param("a");
        other.declare_param("b");
        assert!(matches!(
            other.append(&parametric),
            Err(CircuitError::ParamTableMismatch { .. })
        ));
    }

    #[test]
    fn remapped_and_reversed_preserve_params() {
        let mut c = Circuit::new(2);
        let p = c.declare_param("gamma");
        c.rzz(Angle::sym(p), 0, 1);
        assert_eq!(c.remapped(3, |q| q + 1).num_params(), 1);
        let r = c.reversed();
        assert_eq!(r.num_params(), 1);
        assert_eq!(
            r.instructions()[0].gate(),
            Gate::Rzz(Angle::Sym {
                param: p,
                scale: -1.0
            })
        );
    }

    #[test]
    fn depth_of_empty_and_parallel() {
        assert_eq!(Circuit::new(4).depth(), 0);
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        assert_eq!(c.depth(), 1);
        c.cx(0, 1);
        c.cx(2, 3);
        assert_eq!(c.depth(), 2);
        c.cx(1, 2);
        assert_eq!(c.depth(), 3);
    }

    #[test]
    fn census_matches_separate_walks() {
        let mut c = Circuit::new(4);
        let gamma = c.declare_param("gamma");
        assert_eq!(c.census(), Census::default());
        c.h(0);
        c.cx(0, 1);
        c.rzz(Angle::sym(gamma), 1, 2);
        c.swap(2, 3);
        c.rx(0.3, 3);
        c.cx(3, 0);
        c.measure_all();
        let lowered = crate::basis::to_basis(&c, crate::basis::BasisSet::Ibm).unwrap();
        for circuit in [&c, &lowered] {
            let parametric = circuit.iter().filter(|i| i.gate().is_parametric()).count();
            assert_eq!(
                circuit.census(),
                Census {
                    depth: circuit.depth(),
                    gates: circuit.gate_count(),
                    cx: circuit.count_gate("cx"),
                    parametric,
                }
            );
        }
        assert_eq!(c.census().cx, 2);
        assert_eq!(c.census().parametric, 1);
    }

    #[test]
    fn depth_from_matches_standalone_fragment() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        let stitch_point = c.len();
        c.cx(1, 2);
        c.h(2);
        c.cx(0, 1);
        // The suffix as its own circuit:
        let mut frag = Circuit::new(3);
        frag.cx(1, 2);
        frag.h(2);
        frag.cx(0, 1);
        assert_eq!(c.depth_from(stitch_point), frag.depth());
        assert_eq!(c.depth_from(0), c.depth());
        assert_eq!(c.depth_from(c.len()), 0);
    }

    #[test]
    fn reserve_and_clear_keep_capacity() {
        let mut c = Circuit::new(4);
        c.reserve(100);
        let cap = c.capacity();
        assert!(cap >= 100);
        for _ in 0..50 {
            c.h(1);
        }
        assert_eq!(c.capacity(), cap, "reserved pushes must not reallocate");
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), cap, "clear retains capacity");
        assert_eq!(c.num_qubits(), 4);
    }

    #[test]
    fn instruction_overlap_and_acts_on() {
        let a = Instruction::two(Gate::Cnot, 0, 1);
        assert!(a.acts_on(0) && a.acts_on(1) && !a.acts_on(2));
    }

    #[test]
    fn display_formats() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.rzz(0.25, 0, 1);
        let s = c.to_string();
        assert!(s.contains("h q0"));
        assert!(s.contains("rzz(0.2500) q0, q1"));
    }
}
