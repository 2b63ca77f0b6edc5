use crate::kernels::{FusedApplier, Op, ProductState};
use crate::{SimError, SimOptions};
use qcircuit::math::{Complex, ONE, ZERO};
use qcircuit::{Circuit, CircuitError, Gate, Instruction, ParamValues};

/// Hard cap on the dense statevector width: `2^28` amplitudes is 4 GiB,
/// the largest register the representation supports at all.
pub const MAX_QUBITS: usize = 28;

/// A dense statevector over `n` qubits (qubit 0 is the least-significant
/// bit of the basis index).
///
/// The hard limit is [`MAX_QUBITS`] (28) qubits; ~22 qubits is the
/// practical ceiling on a laptop. The paper's largest instances use 36
/// qubits for *compilation* but only 12–15 for *execution*, which fits
/// comfortably.
///
/// A circuit runs from `|0...0⟩` (see [`StateVector::from_circuit_with`])
/// through specialized in-place kernels (see `kernels.rs`): diagonal
/// gates are phase multiplications, `CNOT` is an index swap, the QAOA
/// mixers use structured real rotations, and consecutive diagonal gates
/// fuse into a single amplitude pass. The circuit's `SWAP`s move no
/// amplitudes at all: they relabel which storage bit holds which qubit,
/// and only the qubits that hold data are swept. `from_circuit_with` takes
/// its thread count from [`SimOptions`]; every other entry point uses
/// [`SimOptions::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0...0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits > 28` (the dense vector would not fit in
    /// memory). Use [`StateVector::try_new`] to get an error instead.
    pub fn new(num_qubits: usize) -> Self {
        match Self::try_new(num_qubits) {
            Ok(sv) => sv,
            Err(e) => panic!("statevector too large: {e}"),
        }
    }

    /// The all-zeros state, or [`SimError::RegisterTooLarge`] when the
    /// register exceeds [`MAX_QUBITS`].
    pub fn try_new(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > MAX_QUBITS {
            return Err(SimError::RegisterTooLarge {
                qubits: num_qubits,
                limit: MAX_QUBITS,
                representation: "statevector",
            });
        }
        let mut amps = vec![ZERO; 1usize << num_qubits];
        amps[0] = ONE;
        qtrace::global().gauge_max("qsim/peak_live_amplitudes", amps.len() as u64);
        Ok(StateVector { num_qubits, amps })
    }

    /// Resets to `|0...0⟩` in place, reusing the allocation.
    pub fn reset(&mut self) {
        self.amps.fill(ZERO);
        self.amps[0] = ONE;
    }

    /// Runs every unitary gate of `circuit` on a fresh `|0...0⟩` state.
    /// Measurements are ignored (sampling is a separate step — see
    /// [`crate::Sampler`]).
    pub fn from_circuit(circuit: &Circuit) -> Self {
        Self::from_circuit_with(circuit, &SimOptions::default())
    }

    /// [`StateVector::from_circuit`] with an explicit thread count.
    ///
    /// Cost: the circuit runs on the qubits that hold data only. When `k`
    /// of the register's `N` storage bits meet a gate other than `SWAP`
    /// (a routed circuit's `n` logical qubits), every pass sweeps `2^k`
    /// amplitudes instead of `2^N`, threads are chosen for `k` qubits,
    /// and one final in-place pass moves the `2^k` amplitudes to their
    /// physical indices. The circuit's leading single-qubit gates (a QAOA
    /// `H` wall) cost one serial pass, not one sweep per gate: on `|0…0⟩`
    /// they make a product state, whose `2^k` amplitudes are written
    /// directly. The returned state is the only `2^N` buffer, zeroed once
    /// when it is allocated. [`StateVector::bind_and_simulate`] runs the
    /// same way.
    ///
    /// Results are bit-for-bit identical for every thread count, and agree
    /// with gate-by-gate [`StateVector::apply`] to ~1e-15 per amplitude
    /// when fusion reassociates phase products.
    pub fn from_circuit_with(circuit: &Circuit, opts: &SimOptions) -> Self {
        let mut sv = StateVector::new(circuit.num_qubits());
        sv.run_from_zero(circuit, opts);
        sv
    }

    /// Binds parameter values into a parametric circuit and simulates the
    /// bound result in one call. The binding is a per-gate angle
    /// substitution; the simulation then runs entirely on the bound fast
    /// path (fused-diagonal kernels included).
    ///
    /// # Errors
    ///
    /// [`SimError::ParamMismatch`] when `values` does not cover the
    /// circuit's parameters, [`SimError::RegisterTooLarge`] if the
    /// register does not fit.
    pub fn bind_and_simulate(circuit: &Circuit, values: &ParamValues) -> Result<Self, SimError> {
        let bound = circuit.bind(values).map_err(|e| match e {
            CircuitError::UnboundParameter { param, provided } => SimError::ParamMismatch {
                expected: param as usize + 1,
                found: provided,
            },
            CircuitError::ParamCountMismatch { expected, found } => {
                SimError::ParamMismatch { expected, found }
            }
            // bind only emits the two parameter errors above
            _ => SimError::ParamMismatch {
                expected: circuit.num_params(),
                found: values.len(),
            },
        })?;
        let mut sv = StateVector::try_new(bound.num_qubits())?;
        sv.run_from_zero(&bound, &SimOptions::default());
        Ok(sv)
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The raw amplitudes, indexed by basis state.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Runs the unitary gates of `circuit` on a state that is still
    /// `|0...0⟩`, as the constructors make it, with `SWAP`s absorbed as
    /// qubit relabels and only the storage bits that hold data swept.
    ///
    /// A map from qubit to storage bit is updated at each `SWAP` and no
    /// amplitude moves; every other gate acts on its operands' current
    /// storage bits, so the diagonal gates of a routed QAOA level fuse
    /// into one pass however many `SWAP`s the router interleaved.
    /// `|0...0⟩` is invariant under any qubit permutation, so each qubit
    /// can start on the storage bit that the circuit's `SWAP`s will carry
    /// back to the qubit's own index: the state ends in physical order
    /// with no restoring pass. A storage bit that no other gate touches in
    /// that run stays `|0⟩` throughout, so the `k` touched bits, relabelled
    /// in ascending order to bits `0..k`, run on the first `2^k`
    /// amplitudes of the buffer, and [`scatter`] then moves them to their
    /// physical indices in place. Until the first two-qubit gate other
    /// than a `SWAP`, the state is a product of one-qubit states, so
    /// those gates are composed per bit and written at once.
    fn run_from_zero(&mut self, circuit: &Circuit, opts: &SimOptions) {
        // Each SWAP τ maps slot ← slot ∘ τ, so the run takes `start` to
        // start ∘ σ for the SWAPs' product σ. Replaying them backwards on
        // the identity gives σ⁻¹, and the run then ends on the identity.
        // Replayed backwards, the map also holds, at each other gate, the
        // storage bits the run will apply that gate to.
        let n = self.num_qubits;
        let mut start: Vec<usize> = (0..n).collect();
        let mut active = 0usize;
        for instr in circuit.iter().rev().filter(|i| i.gate().is_unitary()) {
            if matches!(instr.gate(), Gate::Swap) {
                start.swap(instr.q0(), instr.q1());
            } else {
                active |= 1 << start[instr.q0()];
                if instr.gate().arity() == 2 {
                    active |= 1 << start[instr.q1()];
                }
            }
        }
        // Storage bit `s` runs as bit `compact[s]`: the active bits in
        // ascending order first, then the idle ones, which only SWAPs
        // relabel and so never reach a kernel.
        let k = active.count_ones() as usize;
        let below = |set: usize, s: usize| (set & ((1 << s) - 1)).count_ones() as usize;
        let compact: Vec<usize> = (0..n)
            .map(|s| {
                if active >> s & 1 == 1 {
                    below(active, s)
                } else {
                    k + below(!active, s)
                }
            })
            .collect();
        if qtrace::enabled() {
            qtrace::global().gauge_max("qsim/active_qubits", k as u64);
        }
        // `slot[q]`: the bit of the compact amplitude index holding `q`.
        let mut slot: Vec<usize> = start.iter().map(|&s| compact[s]).collect();
        let amps = &mut self.amps[..1 << k];
        let mut gates = circuit.iter().filter(|i| i.gate().is_unitary()).peekable();
        let mut swaps = 0;
        // The leading single-qubit gates (an `H` wall) leave a product
        // state: compose them per bit and write it in one pass.
        let mut product = ProductState::new(k);
        let mut leading = 0;
        while let Some(instr) =
            gates.next_if(|i| i.gate().arity() == 1 || matches!(i.gate(), Gate::Swap))
        {
            if instr.gate().arity() == 1 {
                product.apply(&instr.remap(|q| slot[q]));
                leading += 1;
            } else {
                slot.swap(instr.q0(), instr.q1());
                swaps += 1;
            }
        }
        if leading > 0 {
            product.write(amps);
        }
        let mut fused = FusedApplier::new(opts, k);
        for instr in gates {
            if matches!(instr.gate(), Gate::Swap) {
                slot.swap(instr.q0(), instr.q1());
                swaps += 1;
            } else {
                fused.apply(amps, &instr.remap(|q| slot[q]));
            }
        }
        if qtrace::enabled() {
            qtrace::global().add("qsim/relabeled_swaps", swaps);
        }
        fused.flush(amps);
        debug_assert_eq!(slot, compact, "the SWAPs carry every qubit home");
        scatter(&mut self.amps, active);
    }

    /// Raw mutable amplitude access for the crate-internal streaming
    /// appliers (trajectory simulation).
    pub(crate) fn amps_mut(&mut self) -> &mut [Complex] {
        &mut self.amps
    }

    /// Applies one unitary instruction as its own amplitude pass (a `SWAP`
    /// moves amplitudes): the gate-by-gate reference the fused run is
    /// checked against.
    ///
    /// # Panics
    ///
    /// Panics on measurement instructions or out-of-range operands.
    pub fn apply(&mut self, instr: &Instruction) {
        assert!(
            instr.gate().is_unitary(),
            "cannot apply measurement as a unitary"
        );
        self.assert_operands(instr);
        let threads = SimOptions::default().effective_threads(self.num_qubits);
        Op::from_instruction(instr).apply(&mut self.amps, threads);
    }

    fn assert_operands(&self, instr: &Instruction) {
        let arity = instr.gate().arity();
        assert!(instr.q0() < self.num_qubits, "qubit out of range");
        if arity == 2 {
            assert!(instr.q1() < self.num_qubits, "qubit out of range");
            assert_ne!(
                instr.q0(),
                instr.q1(),
                "two-qubit gate on duplicate operand"
            );
        }
    }

    /// Born-rule probabilities for every basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Writes the Born-rule probabilities into `out`, reusing its
    /// allocation (cleared first). The allocation-free counterpart of
    /// [`StateVector::probabilities`] for resampling loops.
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.amps.iter().map(|a| a.norm_sqr()));
    }

    /// The squared norm of the state (1.0 up to floating-point error for
    /// any circuit of unitary gates).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Expectation value `⟨ψ| D |ψ⟩` of a diagonal observable given by
    /// `value(basis_state)` — e.g. a MaxCut cost function.
    pub fn expectation_diagonal<F: Fn(usize) -> f64>(&self, value: F) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .map(|(idx, a)| a.norm_sqr() * value(idx))
            .sum()
    }

    /// The fidelity `|⟨ψ|φ⟩|²` with another state.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits, "qubit count mismatch");
        let mut inner = ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            inner += a.conj() * *b;
        }
        inner.norm_sqr()
    }
}

/// Moves a state held compactly in `amps[..2^k]`, `k` = the number of set
/// bits of `active`, to its physical indices in place: compact index `c`
/// goes to `pdep(c, active)`, `c`'s bits deposited in order into the set
/// bits of `active`, and every other index ends zero. That map is
/// increasing and never below `c`, so a walk from the top reads each
/// source before any write can land on it.
fn scatter(amps: &mut [Complex], active: usize) {
    if active & (active + 1) == 0 {
        // The active bits are already the low ones: pdep is the identity.
        return;
    }
    // Stepping down through the submasks of `active` visits
    // pdep(c, active) for c = 2^k - 1, ..., 0.
    let mut dest = active;
    for c in (0..1usize << active.count_ones()).rev() {
        if dest != c {
            amps[dest] = amps[c];
            amps[c] = ZERO;
        }
        dest = dest.wrapping_sub(1) & active;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::math::{Matrix2, Matrix4};
    use std::f64::consts::PI;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} != {b}");
    }

    #[test]
    fn initial_state_is_all_zeros() {
        let sv = StateVector::new(3);
        let p = sv.probabilities();
        assert_close(p[0], 1.0);
        assert_close(p.iter().sum::<f64>(), 1.0);
    }

    #[test]
    fn try_new_rejects_oversized_registers() {
        let err = StateVector::try_new(MAX_QUBITS + 1).unwrap_err();
        assert_eq!(
            err,
            SimError::RegisterTooLarge {
                qubits: MAX_QUBITS + 1,
                limit: MAX_QUBITS,
                representation: "statevector",
            }
        );
        assert!(StateVector::try_new(3).is_ok());
    }

    #[test]
    #[should_panic(expected = "statevector too large")]
    fn new_panics_on_oversized_register() {
        let _ = StateVector::new(MAX_QUBITS + 1);
    }

    #[test]
    fn bind_and_simulate_matches_manual_binding() {
        let mut c = Circuit::new(3);
        let gamma = c.declare_param("gamma");
        let beta = c.declare_param("beta");
        for q in 0..3 {
            c.h(q);
        }
        for (a, b) in [(0, 1), (1, 2), (0, 2)] {
            c.rzz(qcircuit::Angle::sym(gamma).neg(), a, b);
        }
        for q in 0..3 {
            c.rx(qcircuit::Angle::sym(beta).scaled(2.0), q);
        }
        let values = ParamValues::new(vec![0.7, 0.4]);
        let via_entry = StateVector::bind_and_simulate(&c, &values).unwrap();
        let via_manual = StateVector::from_circuit(&c.bind(&values).unwrap());
        assert_eq!(via_entry, via_manual);

        // wrong arity surfaces as a structured error
        assert_eq!(
            StateVector::bind_and_simulate(&c, &ParamValues::new(vec![0.7])).unwrap_err(),
            SimError::ParamMismatch {
                expected: 2,
                found: 1
            }
        );
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        let mut sv = StateVector::from_circuit(&c);
        sv.reset();
        assert_eq!(sv, StateVector::new(3));
    }

    #[test]
    fn probabilities_into_matches_probabilities() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.rzz(0.4, 0, 2);
        c.rx(0.9, 1);
        let sv = StateVector::from_circuit(&c);
        let mut buf = vec![99.0; 2]; // wrong size and content on purpose
        sv.probabilities_into(&mut buf);
        assert_eq!(buf, sv.probabilities());
    }

    #[test]
    fn x_flips() {
        let mut c = Circuit::new(2);
        c.x(1);
        let sv = StateVector::from_circuit(&c);
        assert_close(sv.probabilities()[0b10], 1.0);
    }

    #[test]
    fn ghz_state() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        let sv = StateVector::from_circuit(&c);
        let p = sv.probabilities();
        assert_close(p[0b000], 0.5);
        assert_close(p[0b111], 0.5);
        assert_close(sv.norm_sqr(), 1.0);
    }

    /// Applies an arbitrary 2×2 unitary on qubit `q`: the generic-matrix
    /// oracle for the structured kernels.
    fn apply_1q(sv: &mut StateVector, m: &Matrix2, q: usize) {
        Op::Dense1 { bit: 1 << q, m: *m }.apply(&mut sv.amps, 1);
    }

    /// Applies an arbitrary 4×4 unitary on qubits `(a, b)`, `a` being the
    /// more-significant matrix index (matching `Gate::matrix4`).
    fn apply_2q(sv: &mut StateVector, m: &Matrix4, a: usize, b: usize) {
        let (ba, bb) = (1 << a, 1 << b);
        Op::Dense2 { ba, bb, m: *m }.apply(&mut sv.amps, 1);
    }

    #[test]
    fn fast_paths_match_generic_matrices() {
        // Apply each fast-path gate via `apply` and via the generic
        // matrix application; states must agree.
        let gates = [
            Instruction::two(Gate::Rzz((0.73).into()), 0, 2),
            Instruction::two(Gate::CPhase((1.1).into()), 2, 1),
            Instruction::two(Gate::Cz, 1, 0),
            Instruction::two(Gate::Cnot, 2, 0),
            Instruction::two(Gate::Swap, 0, 1),
            Instruction::one(Gate::Rz((0.41).into()), 1),
            Instruction::one(Gate::U1((-0.9).into()), 2),
            Instruction::one(Gate::Z, 0),
            Instruction::one(Gate::H, 2),
            Instruction::one(Gate::Rx((0.77).into()), 0),
            Instruction::one(Gate::Ry((-1.3).into()), 1),
            Instruction::one(Gate::Y, 2),
        ];
        // Prepare a non-trivial state first.
        let mut prep = Circuit::new(3);
        prep.h(0);
        prep.h(1);
        prep.h(2);
        prep.rx(0.3, 0);
        prep.ry(0.5, 1);
        for instr in gates {
            let mut fast = StateVector::from_circuit(&prep);
            fast.apply(&instr);
            let mut slow = StateVector::from_circuit(&prep);
            if instr.gate().arity() == 1 {
                apply_1q(&mut slow, &instr.gate().matrix2(), instr.q0());
            } else {
                apply_2q(&mut slow, &instr.gate().matrix4(), instr.q0(), instr.q1());
            }
            assert!(fast.fidelity(&slow) > 1.0 - 1e-10, "mismatch for {instr}");
        }
    }

    #[test]
    fn cnot_control_orientation() {
        // control=1, target=0: |10> -> |11>
        let mut c = Circuit::new(2);
        c.x(1);
        c.cx(1, 0);
        let sv = StateVector::from_circuit(&c);
        assert_close(sv.probabilities()[0b11], 1.0);
        // control=0 (unset) leaves target alone
        let mut c2 = Circuit::new(2);
        c2.cx(1, 0);
        let sv2 = StateVector::from_circuit(&c2);
        assert_close(sv2.probabilities()[0b00], 1.0);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.swap(0, 1);
        let sv = StateVector::from_circuit(&c);
        assert_close(sv.probabilities()[0b10], 1.0);
    }

    #[test]
    fn rzz_phases_by_parity() {
        // On |+>|+>, Rzz(π) followed by H⊗H maps to |11>.
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(1);
        c.rzz(PI, 0, 1);
        c.h(0);
        c.h(1);
        let sv = StateVector::from_circuit(&c);
        assert_close(sv.probabilities()[0b11], 1.0);
    }

    #[test]
    fn norm_preserved_by_random_circuit() {
        use rand::Rng;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut c = Circuit::new(5);
        for _ in 0..100 {
            match rng.gen_range(0..5) {
                0 => c.h(rng.gen_range(0..5)),
                1 => c.rx(rng.gen_range(-3.0..3.0), rng.gen_range(0..5)),
                2 => c.rz(rng.gen_range(-3.0..3.0), rng.gen_range(0..5)),
                3 => {
                    let a = rng.gen_range(0..5);
                    let b = (a + rng.gen_range(1..5)) % 5;
                    c.cx(a, b);
                }
                _ => {
                    let a = rng.gen_range(0..5);
                    let b = (a + rng.gen_range(1..5)) % 5;
                    c.rzz(rng.gen_range(-3.0..3.0), a, b);
                }
            }
        }
        let sv = StateVector::from_circuit(&c);
        assert_close(sv.norm_sqr(), 1.0);
    }

    #[test]
    fn fused_and_unfused_agree() {
        // A QAOA-shaped circuit with an interleaved CPhase/Cz mix so the
        // accumulator sees every diagonal class at once.
        let mut c = Circuit::new(6);
        for q in 0..6 {
            c.h(q);
        }
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)] {
            c.rzz(0.8, a, b);
        }
        c.cp(0.3, 1, 4);
        c.cz(2, 5);
        c.rz(0.7, 3);
        c.rzz(-0.2, 0, 5);
        for q in 0..6 {
            c.rx(0.6, q);
        }
        let fused = StateVector::from_circuit_with(&c, &SimOptions::default());
        let unfused = gate_by_gate(&c);
        for (a, b) in fused.amplitudes().iter().zip(unfused.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let mut c = Circuit::new(8);
        for q in 0..8 {
            c.h(q);
        }
        for (a, b) in [(0, 7), (1, 6), (2, 5), (3, 4), (0, 4)] {
            c.rzz(0.9, a, b);
        }
        c.cx(7, 0);
        c.swap(3, 7);
        for q in 0..8 {
            c.rx(0.7, q);
        }
        let serial = StateVector::from_circuit_with(&c, &SimOptions::serial());
        let threaded = StateVector::from_circuit_with(&c, &SimOptions::default().with_threads(4));
        assert_eq!(serial, threaded, "threaded result must be bit-identical");
    }

    #[test]
    fn expectation_of_diagonal() {
        // |+>|0>: P(00)=P(01)=.5 ... value = number of set bits
        let mut c = Circuit::new(2);
        c.h(0);
        let sv = StateVector::from_circuit(&c);
        let e = sv.expectation_diagonal(|idx| idx.count_ones() as f64);
        assert_close(e, 0.5);
    }

    #[test]
    fn measurements_are_ignored_by_from_circuit() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.measure_all();
        let sv = StateVector::from_circuit(&c);
        assert_close(sv.probabilities()[0], 0.5);
    }

    #[test]
    fn fidelity_of_orthogonal_states() {
        let mut a = Circuit::new(1);
        a.x(0);
        let sa = StateVector::from_circuit(&a);
        let sb = StateVector::new(1);
        assert_close(sa.fidelity(&sb), 0.0);
        assert_close(sa.fidelity(&sa.clone()), 1.0);
    }

    /// Applies `c`'s unitary gates one at a time, each SWAP as a pass.
    fn gate_by_gate(c: &Circuit) -> StateVector {
        let mut sv = StateVector::new(c.num_qubits());
        for instr in c.iter().filter(|i| i.gate().is_unitary()) {
            sv.apply(instr);
        }
        sv
    }

    #[test]
    fn h_wall_product_state_is_bit_identical_to_gate_by_gate() {
        // One H per data qubit, a SWAP inside the wall and two idle
        // qubits: the product-state write multiplies each amplitude by
        // 1/√2 once per qubit in ascending bit order, as the butterflies
        // do, so the states agree bit for bit.
        let mut c = Circuit::new(7);
        for q in [0, 2, 3] {
            c.h(q);
        }
        c.swap(3, 6);
        c.h(3);
        c.h(5);
        c.measure_all();
        let want = gate_by_gate(&c);
        assert_eq!(
            StateVector::from_circuit_with(&c, &SimOptions::serial()),
            want
        );
        let threaded = SimOptions::default().with_threads(4);
        assert_eq!(StateVector::from_circuit_with(&c, &threaded), want);
    }

    #[test]
    fn swap_only_circuit_runs_no_qubit() {
        // k = 0: no gate holds data, so the run covers one amplitude and
        // the state stays |0000⟩.
        let mut c = Circuit::new(4);
        c.swap(0, 3);
        c.swap(1, 2);
        c.swap(3, 1);
        c.measure_all();
        assert_eq!(StateVector::from_circuit(&c), StateVector::new(4));
    }

    #[test]
    fn circuit_without_idle_qubits_runs_every_qubit() {
        // k = N: every storage bit holds data, so the compact map is the
        // identity and nothing is scattered.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        c.rzz(0.4, 0, 3);
        c.swap(0, 2);
        c.cx(2, 1);
        c.swap(1, 3);
        c.cp(0.3, 0, 1);
        c.rx(0.9, 3);
        c.swap(2, 3);
        c.ry(-0.6, 2);
        let got = StateVector::from_circuit(&c);
        let want = gate_by_gate(&c);
        for (a, b) in got.amplitudes().iter().zip(want.amplitudes()) {
            assert!(a.approx_eq(*b, 1e-12), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn scatter_deposits_compact_bits_into_the_active_ones() {
        // Active bits 1 and 3: compact index c = (c1 c0) goes to
        // (c1 0 c0 0), so 1 → 2, 2 → 8 and 3 → 10. A walk from the bottom
        // would overwrite index 2 before moving it.
        let mut amps: Vec<Complex> = (0..16)
            .map(|i| {
                if i < 4 {
                    Complex::new(i as f64 + 1.0, 0.0)
                } else {
                    ZERO
                }
            })
            .collect();
        scatter(&mut amps, 0b1010);
        let mut want = vec![ZERO; 16];
        for (c, dest) in [0, 2, 8, 10].into_iter().enumerate() {
            want[dest] = Complex::new(c as f64 + 1.0, 0.0);
        }
        assert_eq!(amps, want);
    }

    #[test]
    fn swap_equals_three_cnots() {
        let mut prep = Circuit::new(2);
        prep.h(0);
        prep.rx(0.7, 1);
        let mut c1 = prep.clone();
        c1.swap(0, 1);
        let mut c2 = prep.clone();
        c2.cx(0, 1);
        c2.cx(1, 0);
        c2.cx(0, 1);
        let s1 = StateVector::from_circuit(&c1);
        let s2 = StateVector::from_circuit(&c2);
        assert!(s1.fidelity(&s2) > 1.0 - 1e-10);
    }
}
