//! Exact density-matrix simulation with Pauli error channels.
//!
//! The trajectory simulator ([`crate::TrajectorySimulator`]) is a
//! Monte-Carlo approximation of the mixed-state evolution this module
//! computes exactly. Both share the same error model — after each gate a
//! uniformly random non-identity Pauli fires on its operands with the
//! calibrated probability — so the density matrix serves as ground truth
//! for validating trajectory convergence (see the cross-validation test
//! below). Cost is `O(4^n)` memory and `O(4^n)` per gate, practical up to
//! ~10 qubits — enough for the paper's smallest ARG instances.
//!
//! # Closed-form channels
//!
//! The uniform Pauli channels are applied *allocation-free* by exploiting
//! the Pauli-twirl identity `Σ_P P A P = d·Tr(A)·I` (sum over the full
//! `d²`-element Pauli group of a `d`-dimensional subsystem):
//!
//! * one qubit — elements off-diagonal in qubit `q` scale by `1 − 4p/3`;
//!   diagonal-in-`q` element pairs mix as
//!   `ρ'(r,c) = (1 − 2p/3)·ρ(r,c) + (2p/3)·ρ(r⊕b, c⊕b)`;
//! * two qubits — per operand-subsystem 4×4 block `A`,
//!   `A' = (1 − 16p/15)·A + (4p/15)·Tr(A)·I₄`.
//!
//! The old branch-per-Pauli evaluation (3 resp. 15 full-matrix clones and
//! two-sided conjugations each) survives only as the reference
//! implementation the equivalence tests compare against. Diagonal gates
//! likewise skip the two-sided matrix product: `U = diag(d)` conjugates as
//! `ρ(r,c) ← d(r)·ρ(r,c)·conj(d(c))` in one pass, and `X`/`CNOT`/`SWAP`
//! conjugate by their index involution.

use qcircuit::kernel::Kernel;
use qcircuit::math::{Complex, Matrix2, ONE, ZERO};
use qcircuit::{Circuit, Gate, Instruction};

use crate::{par, NoiseModel, SimError, SimOptions};

/// Hard cap on the dense density-matrix width: a 13-qubit matrix is
/// `4^13` complex entries, ~1 GiB.
pub const MAX_QUBITS: usize = 13;

/// A dense density matrix over `n` qubits, row-major `ρ[r * dim + c]`
/// with the same bit convention as [`crate::StateVector`].
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    num_qubits: usize,
    rho: Vec<Complex>,
}

impl DensityMatrix {
    /// The pure state `|0...0⟩⟨0...0|`.
    ///
    /// # Panics
    ///
    /// Panics for more than 13 qubits (the matrix would exceed ~1 GiB).
    /// Use [`DensityMatrix::try_new`] to get an error instead.
    pub fn new(num_qubits: usize) -> Self {
        match Self::try_new(num_qubits) {
            Ok(dm) => dm,
            Err(e) => panic!("density matrix too large: {e}"),
        }
    }

    /// The pure state `|0...0⟩⟨0...0|`, or [`SimError::RegisterTooLarge`]
    /// when the register exceeds [`MAX_QUBITS`].
    pub fn try_new(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits > MAX_QUBITS {
            return Err(SimError::RegisterTooLarge {
                qubits: num_qubits,
                limit: MAX_QUBITS,
                representation: "density matrix",
            });
        }
        let dim = 1usize << num_qubits;
        let mut rho = vec![ZERO; dim * dim];
        rho[0] = ONE;
        qtrace::global().gauge_max("qsim/peak_live_amplitudes", rho.len() as u64);
        Ok(DensityMatrix { num_qubits, rho })
    }

    /// Resets to `|0...0⟩⟨0...0|` in place, reusing the allocation.
    pub fn reset(&mut self) {
        self.rho.fill(ZERO);
        self.rho[0] = ONE;
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// The trace (1.0 up to floating-point error for valid evolutions).
    pub fn trace(&self) -> f64 {
        let dim = self.dim();
        (0..dim).map(|i| self.rho[i * dim + i].re).sum()
    }

    /// The purity `Tr(ρ²)`: 1 for pure states, `1/2^n` for the maximally
    /// mixed state.
    pub fn purity(&self) -> f64 {
        let dim = self.dim();
        let mut total = 0.0;
        for r in 0..dim {
            for c in 0..dim {
                // Tr(ρ²) = Σ_rc ρ_rc ρ_cr = Σ_rc |ρ_rc|² for Hermitian ρ.
                total += self.rho[r * dim + c].norm_sqr();
            }
        }
        total
    }

    /// Computational-basis outcome probabilities (the diagonal).
    pub fn probabilities(&self) -> Vec<f64> {
        let dim = self.dim();
        (0..dim)
            .map(|i| self.rho[i * dim + i].re.max(0.0))
            .collect()
    }

    /// Applies a unitary single-qubit gate: `ρ ← U ρ U†`.
    fn apply_1q(&mut self, m: &Matrix2, q: usize) {
        let dim = self.dim();
        let bit = 1usize << q;
        // Left multiply U on rows.
        for c in 0..dim {
            for r in 0..dim {
                if r & bit != 0 {
                    continue;
                }
                let r1 = r | bit;
                let a0 = self.rho[r * dim + c];
                let a1 = self.rho[r1 * dim + c];
                self.rho[r * dim + c] = m[0][0] * a0 + m[0][1] * a1;
                self.rho[r1 * dim + c] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
        // Right multiply U† on columns.
        let dag = [
            [m[0][0].conj(), m[1][0].conj()],
            [m[0][1].conj(), m[1][1].conj()],
        ];
        for r in 0..dim {
            for c in 0..dim {
                if c & bit != 0 {
                    continue;
                }
                let c1 = c | bit;
                let a0 = self.rho[r * dim + c];
                let a1 = self.rho[r * dim + c1];
                // (ρ U†)_{rc} = Σ_k ρ_{rk} U†_{kc}
                self.rho[r * dim + c] = a0 * dag[0][0] + a1 * dag[1][0];
                self.rho[r * dim + c1] = a0 * dag[0][1] + a1 * dag[1][1];
            }
        }
    }

    /// Applies a generic two-qubit unitary with explicit index arithmetic
    /// on both sides, mirroring the statevector's dense 4×4 rule.
    fn apply_2q_generic(&mut self, instr: &Instruction) {
        let m = instr.gate().matrix4();
        let dim = self.dim();
        let ba = 1usize << instr.q0();
        let bb = 1usize << instr.q1();
        // Left multiply.
        for c in 0..dim {
            for base in 0..dim {
                if base & (ba | bb) != 0 {
                    continue;
                }
                let idx = [base, base | bb, base | ba, base | ba | bb];
                let olds = idx.map(|r| self.rho[r * dim + c]);
                for (ri, &r) in idx.iter().enumerate() {
                    let mut acc = ZERO;
                    for (ci, &old) in olds.iter().enumerate() {
                        acc += m[ri][ci] * old;
                    }
                    self.rho[r * dim + c] = acc;
                }
            }
        }
        // Right multiply by U†.
        for r in 0..dim {
            for base in 0..dim {
                if base & (ba | bb) != 0 {
                    continue;
                }
                let idx = [base, base | bb, base | ba, base | ba | bb];
                let olds = idx.map(|c| self.rho[r * dim + c]);
                for (ci, &c) in idx.iter().enumerate() {
                    let mut acc = ZERO;
                    for (ki, &old) in olds.iter().enumerate() {
                        // (ρ U†)_{rc} = Σ_k ρ_{rk} conj(U_{ck})
                        acc += old * m[ci][ki].conj();
                    }
                    self.rho[r * dim + c] = acc;
                }
            }
        }
    }

    /// Conjugates by a diagonal unitary `U = diag(d)`:
    /// `ρ(r,c) ← d(r)·ρ(r,c)·conj(d(c))` — a single pass instead of two
    /// matrix products.
    fn conjugate_diagonal<D>(&mut self, d: D, threads: usize)
    where
        D: Fn(usize) -> Complex + Sync,
    {
        let dim = self.dim();
        par::chunked(&mut self.rho, dim, threads, |offset, chunk| {
            let row0 = offset / dim;
            for (lr, row) in chunk.chunks_exact_mut(dim).enumerate() {
                let dr = d(row0 + lr);
                for (c, z) in row.iter_mut().enumerate() {
                    *z = dr * *z * d(c).conj();
                }
            }
        });
    }

    /// Conjugates by a self-inverse basis permutation `U|i⟩ = |π(i)⟩`:
    /// `ρ'(r,c) = ρ(π(r), π(c))` — pure index swaps (CNOT, SWAP, X).
    ///
    /// `row_align` is the power-of-two row-block size containing every
    /// `r ↔ π(r)` pair (`2 · highest permuted bit`).
    fn conjugate_involution<P>(&mut self, pi: P, row_align: usize, threads: usize)
    where
        P: Fn(usize) -> usize + Sync,
    {
        let dim = self.dim();
        par::chunked(&mut self.rho, row_align * dim, threads, |offset, chunk| {
            let row0 = offset / dim;
            let rows = chunk.len() / dim;
            for lr in 0..rows {
                let r = row0 + lr;
                let pr = pi(r);
                for c in 0..dim {
                    let pc = pi(c);
                    if (r, c) < (pr, pc) {
                        chunk.swap(lr * dim + c, (pr - row0) * dim + pc);
                    }
                }
            }
        });
    }

    /// Conjugates by a single-qubit anti-diagonal `a0' = z0·a1, a1' = z1·a0`
    /// (X, Y): `ρ'(r,c) = u(r)·ρ(r⊕b, c⊕b)·conj(u(c))` where `u(i)` is the
    /// factor the flip applies landing on `i`.
    fn conjugate_flip1(&mut self, bit: usize, z0: Complex, z1: Complex, threads: usize) {
        let dim = self.dim();
        let u = move |i: usize| if i & bit == 0 { z0 } else { z1 };
        par::chunked(&mut self.rho, 2 * bit * dim, threads, |offset, chunk| {
            let row0 = offset / dim;
            let rows = chunk.len() / dim;
            for lr in 0..rows {
                let r = row0 + lr;
                if r & bit != 0 {
                    continue;
                }
                let pr = r | bit;
                for c in 0..dim {
                    let pc = c ^ bit;
                    let i = lr * dim + c;
                    let j = (pr - row0) * dim + pc;
                    let (a, b) = (chunk[i], chunk[j]);
                    chunk[i] = u(r) * b * u(c).conj();
                    chunk[j] = u(pr) * a * u(pc).conj();
                }
            }
        });
    }

    /// Applies a unitary instruction through the cheapest conjugation rule:
    /// diagonal gates multiply phases in one pass, CNOT/SWAP/X permute
    /// indices, everything else falls back to the two-sided matrix product.
    fn apply_unitary(&mut self, instr: &Instruction, threads: usize) {
        let b0 = 1usize << instr.q0();
        match instr.gate().kernel() {
            Kernel::Identity => {}
            Kernel::Phase1 { z0, z1 } => {
                self.conjugate_diagonal(move |i| if i & b0 == 0 { z0 } else { z1 }, threads);
            }
            Kernel::Phase2 { phases } => {
                let b1 = 1usize << instr.q1();
                self.conjugate_diagonal(
                    move |i| phases[(usize::from(i & b0 != 0) << 1) | usize::from(i & b1 != 0)],
                    threads,
                );
            }
            Kernel::Flip1 { z0, z1 } => self.conjugate_flip1(b0, z0, z1, threads),
            Kernel::ControlledFlip => {
                let bt = 1usize << instr.q1();
                self.conjugate_involution(
                    move |i| if i & b0 != 0 { i ^ bt } else { i },
                    2 * b0.max(bt),
                    threads,
                );
            }
            Kernel::Swap => {
                let b1 = 1usize << instr.q1();
                self.conjugate_involution(
                    move |i| {
                        let (x, y) = (i & b0 != 0, i & b1 != 0);
                        if x != y {
                            i ^ (b0 | b1)
                        } else {
                            i
                        }
                    },
                    2 * b0.max(b1),
                    threads,
                );
            }
            Kernel::Dense1(m) => self.apply_1q(&m, instr.q0()),
            Kernel::Dense2(_) => self.apply_2q_generic(instr),
            Kernel::Measure => panic!("cannot apply measurement as a unitary"),
        }
    }

    /// The uniform Pauli channel on one qubit with total error probability
    /// `p`: `ρ ← (1-p)ρ + p/3 (XρX + YρY + ZρZ)`, in closed form: elements
    /// off-diagonal in qubit `q` scale by `1 − 4p/3`; diagonal-in-`q`
    /// pairs mix with weight `2p/3`.
    fn apply_pauli_channel_1q(&mut self, q: usize, p: f64, threads: usize) {
        if p <= 0.0 {
            return;
        }
        let dim = self.dim();
        let bit = 1usize << q;
        let off_scale = 1.0 - 4.0 * p / 3.0;
        let keep = 1.0 - 2.0 * p / 3.0;
        let mix = 2.0 * p / 3.0;
        par::chunked(&mut self.rho, 2 * bit * dim, threads, |offset, chunk| {
            let row0 = offset / dim;
            let rows = chunk.len() / dim;
            for lr in 0..rows {
                let r = row0 + lr;
                let rb = r & bit != 0;
                for c in 0..dim {
                    let i = lr * dim + c;
                    if rb != (c & bit != 0) {
                        chunk[i] = chunk[i].scale(off_scale);
                    } else if !rb {
                        // Representative of the pair {(r,c), (r|b, c|b)}.
                        let j = (r | bit) - row0;
                        let j = j * dim + (c | bit);
                        let (a, b) = (chunk[i], chunk[j]);
                        chunk[i] = a.scale(keep) + b.scale(mix);
                        chunk[j] = b.scale(keep) + a.scale(mix);
                    }
                }
            }
        });
    }

    /// The uniform two-qubit Pauli channel (15 non-identity Paulis, each
    /// with weight `p/15`), matching the trajectory injector. Closed form
    /// per operand-subsystem 4×4 block `A`:
    /// `A' = (1 − 16p/15)·A + (4p/15)·Tr(A)·I₄`.
    fn apply_pauli_channel_2q(&mut self, a: usize, b: usize, p: f64, threads: usize) {
        if p <= 0.0 {
            return;
        }
        let dim = self.dim();
        let ba = 1usize << a;
        let bb = 1usize << b;
        let mask = ba | bb;
        let sub = [0, bb, ba, ba | bb];
        let scale = 1.0 - 16.0 * p / 15.0;
        let mix = 4.0 * p / 15.0;
        let row_align = 2 * ba.max(bb);
        par::chunked(&mut self.rho, row_align * dim, threads, |offset, chunk| {
            let row0 = offset / dim;
            let rows = chunk.len() / dim;
            for lr in 0..rows {
                let r = row0 + lr;
                if r & mask != 0 {
                    continue;
                }
                for cc in 0..dim {
                    if cc & mask != 0 {
                        continue;
                    }
                    let mut tr = ZERO;
                    for &j in &sub {
                        tr += chunk[((r | j) - row0) * dim + (cc | j)];
                    }
                    let add = tr.scale(mix);
                    for &j in &sub {
                        let row_base = ((r | j) - row0) * dim;
                        for &k in &sub {
                            let i = row_base + (cc | k);
                            chunk[i] = chunk[i].scale(scale);
                            if j == k {
                                chunk[i] += add;
                            }
                        }
                    }
                }
            }
        });
    }
}

/// Evolves `circuit` exactly under `model`'s gate-error channels (idle
/// depolarization per concurrency layer included; readout error is *not*
/// applied — compare against pre-readout trajectory states).
///
/// Runs with [`SimOptions::default`]. The density matrix over `n` qubits
/// has `4^n` entries, as many as a `2n`-qubit statevector, so it runs
/// serially below 8 qubits and on every available thread from 8 up.
///
/// # Panics
///
/// Panics if the circuit exceeds the density-matrix size limit or applies
/// a two-qubit gate across an uncalibrated pair.
pub fn evolve_with_noise(circuit: &Circuit, model: &NoiseModel) -> DensityMatrix {
    let n = circuit.num_qubits();
    let threads = SimOptions::default().effective_threads(2 * n);
    let mut rho = DensityMatrix::new(n);
    let mut busy = vec![false; n];
    for layer in qcircuit::layers::asap_layers(circuit) {
        busy.fill(false);
        for instr in &layer {
            for q in instr.qubit_vec() {
                busy[q] = true;
            }
            if instr.gate().is_unitary() {
                rho.apply_unitary(instr, threads);
            }
            match instr.gate() {
                Gate::Measure | Gate::Id => {}
                g if g.arity() == 2 => {
                    let p = model.calibration().cnot_error(instr.q0(), instr.q1());
                    rho.apply_pauli_channel_2q(instr.q0(), instr.q1(), p, threads);
                }
                _ => {
                    let p = model.calibration().single_qubit_error(instr.q0());
                    rho.apply_pauli_channel_1q(instr.q0(), p, threads);
                }
            }
        }
        let p_idle = model.idle_error_per_layer();
        if p_idle > 0.0 {
            for (q, is_busy) in busy.iter().enumerate() {
                if !is_busy {
                    rho.apply_pauli_channel_1q(q, p_idle, threads);
                }
            }
        }
    }
    rho
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseModel, TrajectorySimulator};
    use qhw::{Calibration, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    /// The pre-closed-form channel: explicit `(1-p)ρ + Σ_P (p/k) PρP`
    /// with one full-matrix clone per Pauli branch. Kept as the reference
    /// the closed-form fast paths are verified against.
    fn reference_pauli_channel(rho: &DensityMatrix, qubits: &[usize], p: f64) -> DensityMatrix {
        let paulis = [None, Some(Gate::X), Some(Gate::Y), Some(Gate::Z)];
        let combos: Vec<Vec<(usize, Gate)>> = match qubits {
            [q] => paulis
                .iter()
                .skip(1)
                .map(|g| vec![(*q, g.unwrap())])
                .collect(),
            [a, b] => {
                let mut out = Vec::new();
                for (i, pa) in paulis.iter().enumerate() {
                    for (j, pb) in paulis.iter().enumerate() {
                        if i == 0 && j == 0 {
                            continue;
                        }
                        let mut combo = Vec::new();
                        if let Some(g) = pa {
                            combo.push((*a, *g));
                        }
                        if let Some(g) = pb {
                            combo.push((*b, *g));
                        }
                        out.push(combo);
                    }
                }
                out
            }
            _ => panic!("reference channel supports 1 or 2 qubits"),
        };
        let weight = p / combos.len() as f64;
        let mut mixed = rho.clone();
        for z in &mut mixed.rho {
            *z = z.scale(1.0 - p);
        }
        for combo in combos {
            let mut branch = rho.clone();
            for (q, g) in combo {
                branch.apply_1q(&g.matrix2(), q);
            }
            for (z, o) in mixed.rho.iter_mut().zip(&branch.rho) {
                *z += o.scale(weight);
            }
        }
        mixed
    }

    fn nontrivial_state(n: usize) -> DensityMatrix {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        c.rx(0.4, 0);
        c.rzz(0.9, 0, n - 1);
        c.cx(0, 1);
        c.ry(1.1, n - 1);
        let mut rho = DensityMatrix::new(n);
        for instr in c.iter() {
            rho.apply_unitary(instr, 1);
        }
        rho
    }

    #[test]
    fn closed_form_1q_channel_matches_reference() {
        for q in 0..3 {
            let mut rho = nontrivial_state(3);
            let want = reference_pauli_channel(&rho, &[q], 0.13);
            rho.apply_pauli_channel_1q(q, 0.13, 1);
            for (got, exp) in rho.rho.iter().zip(&want.rho) {
                assert!(got.approx_eq(*exp, 1e-12), "qubit {q}: {got:?} vs {exp:?}");
            }
        }
    }

    #[test]
    fn closed_form_2q_channel_matches_reference() {
        for (a, b) in [(0, 1), (2, 0), (1, 2)] {
            let mut rho = nontrivial_state(3);
            let want = reference_pauli_channel(&rho, &[a, b], 0.21);
            rho.apply_pauli_channel_2q(a, b, 0.21, 1);
            for (got, exp) in rho.rho.iter().zip(&want.rho) {
                assert!(
                    got.approx_eq(*exp, 1e-12),
                    "pair ({a},{b}): {got:?} vs {exp:?}"
                );
            }
        }
    }

    #[test]
    fn conjugation_fast_paths_match_generic_product() {
        let gates = [
            Instruction::one(Gate::Rz((0.7).into()), 1),
            Instruction::one(Gate::U1((-0.4).into()), 0),
            Instruction::one(Gate::Z, 2),
            Instruction::one(Gate::X, 1),
            Instruction::one(Gate::Y, 0),
            Instruction::two(Gate::Rzz((0.6).into()), 0, 2),
            Instruction::two(Gate::CPhase((1.2).into()), 2, 1),
            Instruction::two(Gate::Cz, 0, 1),
            Instruction::two(Gate::Cnot, 2, 0),
            Instruction::two(Gate::Swap, 1, 2),
        ];
        for instr in gates {
            let mut fast = nontrivial_state(3);
            fast.apply_unitary(&instr, 1);
            let mut slow = nontrivial_state(3);
            if instr.gate().arity() == 1 {
                slow.apply_1q(&instr.gate().matrix2(), instr.q0());
            } else {
                slow.apply_2q_generic(&instr);
            }
            for (got, exp) in fast.rho.iter().zip(&slow.rho) {
                assert!(got.approx_eq(*exp, 1e-12), "mismatch for {instr}");
            }
        }
    }

    #[test]
    fn channels_agree_across_thread_counts() {
        let mut serial = nontrivial_state(3);
        let mut threaded = nontrivial_state(3);
        serial.apply_pauli_channel_2q(0, 2, 0.15, 1);
        serial.apply_pauli_channel_1q(1, 0.07, 1);
        threaded.apply_pauli_channel_2q(0, 2, 0.15, 4);
        threaded.apply_pauli_channel_1q(1, 0.07, 4);
        assert_eq!(serial, threaded, "threaded channels must be bit-identical");
    }

    #[test]
    fn try_new_rejects_oversized_registers() {
        let err = DensityMatrix::try_new(MAX_QUBITS + 1).unwrap_err();
        assert_eq!(
            err,
            SimError::RegisterTooLarge {
                qubits: MAX_QUBITS + 1,
                limit: MAX_QUBITS,
                representation: "density matrix",
            }
        );
    }

    #[test]
    fn reset_reuses_allocation() {
        let mut rho = nontrivial_state(3);
        rho.reset();
        assert_eq!(rho, DensityMatrix::new(3));
    }

    #[test]
    fn noiseless_density_matches_statevector() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.rzz(0.7, 1, 2);
        c.rx(0.4, 2);
        let topo = Topology::fully_connected(3);
        let cal = Calibration::uniform(&topo, 0.0, 0.0, 0.0);
        // MIN_ERROR clamping makes this effectively (not exactly) zero
        // noise; compare with loose tolerance.
        let model = NoiseModel::new(cal).with_idle_error(0.0);
        let rho = evolve_with_noise(&c, &model);
        let sv = crate::StateVector::from_circuit(&c);
        for (dm_p, sv_p) in rho.probabilities().iter().zip(sv.probabilities()) {
            assert_close(*dm_p, sv_p, 1e-4);
        }
        assert_close(rho.trace(), 1.0, 1e-9);
        assert!(rho.purity() > 0.999);
    }

    #[test]
    fn noise_mixes_the_state() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let topo = Topology::fully_connected(2);
        let cal = Calibration::uniform(&topo, 0.2, 0.05, 0.0);
        let model = NoiseModel::new(cal).with_idle_error(0.0);
        let rho = evolve_with_noise(&c, &model);
        assert_close(rho.trace(), 1.0, 1e-9);
        assert!(rho.purity() < 0.9, "purity {}", rho.purity());
        // Errors leak probability into the odd-parity states.
        let p = rho.probabilities();
        assert!(p[0b01] + p[0b10] > 0.01);
    }

    #[test]
    fn trajectories_converge_to_density_matrix() {
        // The headline cross-validation: averaged trajectory outcomes must
        // approach the exact channel evolution.
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.rzz(0.9, 1, 2);
        c.rx(0.5, 0);
        c.cx(1, 2);
        let topo = Topology::fully_connected(3);
        let cal = Calibration::uniform(&topo, 0.08, 0.02, 0.0);
        let model = NoiseModel::new(cal).with_idle_error(0.01);
        let exact = evolve_with_noise(&c, &model).probabilities();

        let sim = TrajectorySimulator::new(model);
        let mut rng = StdRng::seed_from_u64(12);
        let runs = 4000;
        let mut mean = [0.0f64; 8];
        for _ in 0..runs {
            let sv = sim.run_trajectory(&c, &mut rng);
            for (m, p) in mean.iter_mut().zip(sv.probabilities()) {
                *m += p / runs as f64;
            }
        }
        for (idx, (got, want)) in mean.iter().zip(&exact).enumerate() {
            assert!(
                (got - want).abs() < 0.015,
                "state {idx}: trajectories {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn purity_decreases_monotonically_with_error_rate() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        c.cx(0, 1);
        let topo = Topology::fully_connected(2);
        let mut last = f64::INFINITY;
        for err in [0.01, 0.05, 0.15, 0.3] {
            let cal = Calibration::uniform(&topo, err, 0.0, 0.0);
            let model = NoiseModel::new(cal).with_idle_error(0.0);
            let purity = evolve_with_noise(&c, &model).purity();
            assert!(purity < last, "purity {purity} at error {err}");
            last = purity;
        }
    }

    #[test]
    #[should_panic]
    fn oversized_density_matrix_panics() {
        let _ = DensityMatrix::new(14);
    }
}
