use std::f64::consts::{FRAC_PI_2, PI};
use std::fmt;

use crate::math::{self, Complex, Matrix2, Matrix4, ONE, ZERO};
use crate::param::{Angle, ParamValues};
use crate::CircuitError;

/// A quantum gate (or measurement) from the compiler's gate set.
///
/// The set covers the gates appearing in the paper's circuits (`H`, `RX`,
/// the commuting cost-layer gate, `SWAP`, measurement), the IBM basis gates
/// (`U1`, `U2`, `U3`, `CNOT`) the transpiler lowers to, and common Pauli /
/// phase gates used by the noise model and tests.
///
/// Angles are [`Angle`] values: concrete radians, or symbolic uses of a
/// circuit parameter (see [`crate::param`]). Numeric accessors
/// ([`Gate::matrix2`], [`Gate::matrix4`], [`Gate::kernel`]) require bound
/// angles. `Rzz(θ)` is `exp(-i θ/2 Z⊗Z)` — the gate the paper calls CPHASE
/// in its QAOA cost layers (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum Gate {
    /// Identity.
    Id,
    /// Hadamard.
    H,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// Inverse phase gate.
    Sdg,
    /// `T = diag(1, e^{iπ/4})`.
    T,
    /// Inverse T gate.
    Tdg,
    /// Rotation about X: `exp(-i θ/2 X)`.
    Rx(Angle),
    /// Rotation about Y: `exp(-i θ/2 Y)`.
    Ry(Angle),
    /// Rotation about Z: `exp(-i θ/2 Z)`.
    Rz(Angle),
    /// IBM virtual-Z basis gate: `diag(1, e^{iλ})` (equals `Rz(λ)` up to
    /// global phase).
    U1(Angle),
    /// IBM basis gate `U2(φ, λ)` — a single √X-duration pulse.
    U2(Angle, Angle),
    /// IBM basis gate `U3(θ, φ, λ)` — the general single-qubit unitary.
    U3(Angle, Angle, Angle),
    /// Controlled-NOT (control is the first operand).
    Cnot,
    /// Controlled-Z.
    Cz,
    /// Controlled-phase `diag(1, 1, 1, e^{iλ})`.
    CPhase(Angle),
    /// ZZ interaction `exp(-i θ/2 Z⊗Z)` — the paper's commuting "CPHASE"
    /// cost gate.
    Rzz(Angle),
    /// SWAP gate.
    Swap,
    /// Computational-basis measurement of one qubit.
    Measure,
}

impl Gate {
    /// Number of qubit operands the gate takes (1 or 2).
    pub fn arity(&self) -> usize {
        match self {
            Gate::Id
            | Gate::H
            | Gate::X
            | Gate::Y
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::Rx(_)
            | Gate::Ry(_)
            | Gate::Rz(_)
            | Gate::U1(_)
            | Gate::U2(..)
            | Gate::U3(..)
            | Gate::Measure => 1,
            Gate::Cnot | Gate::Cz | Gate::CPhase(_) | Gate::Rzz(_) | Gate::Swap => 2,
        }
    }

    /// Lower-case mnemonic, matching OpenQASM 2 where the gate exists there.
    pub fn name(&self) -> &'static str {
        match self {
            Gate::Id => "id",
            Gate::H => "h",
            Gate::X => "x",
            Gate::Y => "y",
            Gate::Z => "z",
            Gate::S => "s",
            Gate::Sdg => "sdg",
            Gate::T => "t",
            Gate::Tdg => "tdg",
            Gate::Rx(_) => "rx",
            Gate::Ry(_) => "ry",
            Gate::Rz(_) => "rz",
            Gate::U1(_) => "u1",
            Gate::U2(..) => "u2",
            Gate::U3(..) => "u3",
            Gate::Cnot => "cx",
            Gate::Cz => "cz",
            Gate::CPhase(_) => "cp",
            Gate::Rzz(_) => "rzz",
            Gate::Swap => "swap",
            Gate::Measure => "measure",
        }
    }

    /// Whether this is a unitary gate (everything except [`Gate::Measure`]).
    pub fn is_unitary(&self) -> bool {
        !matches!(self, Gate::Measure)
    }

    /// Whether the gate is diagonal in the computational (Z) basis.
    ///
    /// Diagonal gates all commute with one another — the property the
    /// paper's IP/IC/VIC methodologies exploit for the QAOA cost layer.
    /// The classification is structural: it holds for symbolic angles too
    /// (Rzz/CPhase commute regardless of binding).
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            Gate::Id
                | Gate::Z
                | Gate::S
                | Gate::Sdg
                | Gate::T
                | Gate::Tdg
                | Gate::Rz(_)
                | Gate::U1(_)
                | Gate::Cz
                | Gate::CPhase(_)
                | Gate::Rzz(_)
        )
    }

    /// The gate's rotation/phase parameters, in declaration order.
    pub fn params(&self) -> Vec<Angle> {
        match *self {
            Gate::Rx(t)
            | Gate::Ry(t)
            | Gate::Rz(t)
            | Gate::U1(t)
            | Gate::CPhase(t)
            | Gate::Rzz(t) => vec![t],
            Gate::U2(p, l) => vec![p, l],
            Gate::U3(t, p, l) => vec![t, p, l],
            _ => vec![],
        }
    }

    /// Whether any angle of the gate is symbolic (unbound).
    ///
    /// Allocation-free (unlike [`Gate::params`]): rebind hot paths call
    /// this once per instruction.
    pub fn is_parametric(&self) -> bool {
        match *self {
            Gate::Rx(t)
            | Gate::Ry(t)
            | Gate::Rz(t)
            | Gate::U1(t)
            | Gate::CPhase(t)
            | Gate::Rzz(t) => t.is_sym(),
            Gate::U2(p, l) => p.is_sym() || l.is_sym(),
            Gate::U3(t, p, l) => t.is_sym() || p.is_sym() || l.is_sym(),
            _ => false,
        }
    }

    /// The gate with every symbolic angle substituted from `values`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::UnboundParameter`] if a referenced parameter
    /// is not covered by `values`.
    pub fn bound(&self, values: &ParamValues) -> Result<Gate, CircuitError> {
        Ok(match *self {
            Gate::Rx(t) => Gate::Rx(t.bind(values)?),
            Gate::Ry(t) => Gate::Ry(t.bind(values)?),
            Gate::Rz(t) => Gate::Rz(t.bind(values)?),
            Gate::U1(t) => Gate::U1(t.bind(values)?),
            Gate::U2(p, l) => Gate::U2(p.bind(values)?, l.bind(values)?),
            Gate::U3(t, p, l) => Gate::U3(t.bind(values)?, p.bind(values)?, l.bind(values)?),
            Gate::CPhase(t) => Gate::CPhase(t.bind(values)?),
            Gate::Rzz(t) => Gate::Rzz(t.bind(values)?),
            g => g,
        })
    }

    /// The 2×2 unitary of a single-qubit gate.
    ///
    /// # Panics
    ///
    /// Panics for two-qubit gates, for [`Gate::Measure`], and for
    /// parametric gates (bind first).
    pub fn matrix2(&self) -> Matrix2 {
        let half = |t: f64| t / 2.0;
        match *self {
            Gate::Id => math::identity2(),
            Gate::H => {
                let s = Complex::real(1.0 / 2.0_f64.sqrt());
                [[s, s], [s, -s]]
            }
            Gate::X => [[ZERO, ONE], [ONE, ZERO]],
            Gate::Y => [[ZERO, -math::I], [math::I, ZERO]],
            Gate::Z => [[ONE, ZERO], [ZERO, -ONE]],
            Gate::S => [[ONE, ZERO], [ZERO, math::I]],
            Gate::Sdg => [[ONE, ZERO], [ZERO, -math::I]],
            Gate::T => [[ONE, ZERO], [ZERO, Complex::cis(PI / 4.0)]],
            Gate::Tdg => [[ONE, ZERO], [ZERO, Complex::cis(-PI / 4.0)]],
            Gate::Rx(t) => {
                let t = t.value();
                let (c, s) = (half(t).cos(), half(t).sin());
                [
                    [Complex::real(c), Complex::new(0.0, -s)],
                    [Complex::new(0.0, -s), Complex::real(c)],
                ]
            }
            Gate::Ry(t) => {
                let t = t.value();
                let (c, s) = (half(t).cos(), half(t).sin());
                [
                    [Complex::real(c), Complex::real(-s)],
                    [Complex::real(s), Complex::real(c)],
                ]
            }
            Gate::Rz(t) => {
                let t = t.value();
                [
                    [Complex::cis(-half(t)), ZERO],
                    [ZERO, Complex::cis(half(t))],
                ]
            }
            Gate::U1(l) => [[ONE, ZERO], [ZERO, Complex::cis(l.value())]],
            Gate::U2(phi, lam) => {
                let (phi, lam) = (phi.value(), lam.value());
                let s = 1.0 / 2.0_f64.sqrt();
                [
                    [Complex::real(s), Complex::cis(lam).scale(-s)],
                    [Complex::cis(phi).scale(s), Complex::cis(phi + lam).scale(s)],
                ]
            }
            Gate::U3(t, phi, lam) => {
                let (t, phi, lam) = (t.value(), phi.value(), lam.value());
                let (c, s) = (half(t).cos(), half(t).sin());
                [
                    [Complex::real(c), Complex::cis(lam).scale(-s)],
                    [Complex::cis(phi).scale(s), Complex::cis(phi + lam).scale(c)],
                ]
            }
            _ => panic!("matrix2 called on {} (arity {})", self.name(), self.arity()),
        }
    }

    /// The 4×4 unitary of a two-qubit gate, with the **first operand as the
    /// more-significant basis index** (row/column index `2*a + b` for
    /// operands `(a, b)`).
    ///
    /// # Panics
    ///
    /// Panics for single-qubit gates and for parametric gates (bind first).
    pub fn matrix4(&self) -> Matrix4 {
        match *self {
            Gate::Cnot => {
                // control = first operand (high bit): |10> -> |11>, |11> -> |10>
                let mut m = [[ZERO; 4]; 4];
                m[0][0] = ONE;
                m[1][1] = ONE;
                m[2][3] = ONE;
                m[3][2] = ONE;
                m
            }
            Gate::Cz => {
                let mut m = math::identity4();
                m[3][3] = -ONE;
                m
            }
            Gate::CPhase(l) => {
                let mut m = math::identity4();
                m[3][3] = Complex::cis(l.value());
                m
            }
            Gate::Rzz(t) => {
                let t = t.value();
                let minus = Complex::cis(-t / 2.0);
                let plus = Complex::cis(t / 2.0);
                let mut m = [[ZERO; 4]; 4];
                m[0][0] = minus;
                m[1][1] = plus;
                m[2][2] = plus;
                m[3][3] = minus;
                m
            }
            Gate::Swap => {
                let mut m = [[ZERO; 4]; 4];
                m[0][0] = ONE;
                m[1][2] = ONE;
                m[2][1] = ONE;
                m[3][3] = ONE;
                m
            }
            _ => panic!("matrix4 called on {} (arity {})", self.name(), self.arity()),
        }
    }

    /// The hermitian conjugate (inverse) of a unitary gate. Symbolic angles
    /// invert symbolically (negated scale).
    ///
    /// # Panics
    ///
    /// Panics for [`Gate::Measure`], which has no inverse.
    pub fn inverse(&self) -> Gate {
        match *self {
            Gate::Id => Gate::Id,
            Gate::H => Gate::H,
            Gate::X => Gate::X,
            Gate::Y => Gate::Y,
            Gate::Z => Gate::Z,
            Gate::S => Gate::Sdg,
            Gate::Sdg => Gate::S,
            Gate::T => Gate::Tdg,
            Gate::Tdg => Gate::T,
            Gate::Rx(t) => Gate::Rx(t.neg()),
            Gate::Ry(t) => Gate::Ry(t.neg()),
            Gate::Rz(t) => Gate::Rz(t.neg()),
            Gate::U1(l) => Gate::U1(l.neg()),
            Gate::U2(phi, lam) => Gate::U3(Angle::Const(-FRAC_PI_2), lam.neg(), phi.neg()),
            Gate::U3(t, phi, lam) => Gate::U3(t.neg(), lam.neg(), phi.neg()),
            Gate::Cnot => Gate::Cnot,
            Gate::Cz => Gate::Cz,
            Gate::CPhase(l) => Gate::CPhase(l.neg()),
            Gate::Rzz(t) => Gate::Rzz(t.neg()),
            Gate::Swap => Gate::Swap,
            Gate::Measure => panic!("measurement has no inverse"),
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let params = self.params();
        if params.is_empty() {
            write!(f, "{}", self.name())
        } else {
            let rendered: Vec<String> = params.iter().map(|p| format!("{p:.4}")).collect();
            write!(f, "{}({})", self.name(), rendered.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::math::{equal_up_to_phase4, identity2, identity4, kron, matmul2, matmul4};
    use crate::param::ParamId;

    fn a(v: f64) -> Angle {
        Angle::Const(v)
    }

    fn all_1q() -> Vec<Gate> {
        vec![
            Gate::Id,
            Gate::H,
            Gate::X,
            Gate::Y,
            Gate::Z,
            Gate::S,
            Gate::Sdg,
            Gate::T,
            Gate::Tdg,
            Gate::Rx(a(0.37)),
            Gate::Ry(a(1.2)),
            Gate::Rz(a(-0.8)),
            Gate::U1(a(0.55)),
            Gate::U2(a(0.4), a(-0.9)),
            Gate::U3(a(1.0), a(0.2), a(0.3)),
        ]
    }

    fn all_2q() -> Vec<Gate> {
        vec![
            Gate::Cnot,
            Gate::Cz,
            Gate::CPhase(a(0.73)),
            Gate::Rzz(a(-1.1)),
            Gate::Swap,
        ]
    }

    fn is_unitary2(m: &Matrix2) -> bool {
        let mut dagger = [[ZERO; 2]; 2];
        for i in 0..2 {
            for j in 0..2 {
                dagger[i][j] = m[j][i].conj();
            }
        }
        let prod = matmul2(&dagger, m);
        let id = identity2();
        (0..2).all(|i| (0..2).all(|j| prod[i][j].approx_eq(id[i][j], 1e-12)))
    }

    fn is_unitary4(m: &Matrix4) -> bool {
        let mut dagger = [[ZERO; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                dagger[i][j] = m[j][i].conj();
            }
        }
        let prod = matmul4(&dagger, m);
        let id = identity4();
        (0..4).all(|i| (0..4).all(|j| prod[i][j].approx_eq(id[i][j], 1e-12)))
    }

    #[test]
    fn all_single_qubit_matrices_are_unitary() {
        for g in all_1q() {
            assert!(is_unitary2(&g.matrix2()), "{g} not unitary");
            assert_eq!(g.arity(), 1);
        }
    }

    #[test]
    fn all_two_qubit_matrices_are_unitary() {
        for g in all_2q() {
            assert!(is_unitary4(&g.matrix4()), "{g} not unitary");
            assert_eq!(g.arity(), 2);
        }
    }

    #[test]
    fn inverses_cancel() {
        for g in all_1q() {
            let prod = matmul2(&g.inverse().matrix2(), &g.matrix2());
            let a4 = kron(&prod, &identity2());
            assert!(
                equal_up_to_phase4(&a4, &identity4(), 1e-9),
                "{g} inverse does not cancel"
            );
        }
        for g in all_2q() {
            let prod = matmul4(&g.inverse().matrix4(), &g.matrix4());
            assert!(equal_up_to_phase4(&prod, &identity4(), 1e-9), "{g} inverse");
        }
    }

    #[test]
    fn u_gates_match_rotation_gates_up_to_phase() {
        // U1(λ) == Rz(λ) up to phase
        let u = kron(&Gate::U1(a(0.9)).matrix2(), &identity2());
        let r = kron(&Gate::Rz(a(0.9)).matrix2(), &identity2());
        assert!(equal_up_to_phase4(&u, &r, 1e-9));
        // H == U2(0, π)
        let u = kron(&Gate::H.matrix2(), &identity2());
        let r = kron(&Gate::U2(a(0.0), a(PI)).matrix2(), &identity2());
        assert!(equal_up_to_phase4(&u, &r, 1e-9));
        // Rx(θ) == U3(θ, -π/2, π/2)
        let u = kron(&Gate::Rx(a(0.77)).matrix2(), &identity2());
        let r = kron(
            &Gate::U3(a(0.77), a(-FRAC_PI_2), a(FRAC_PI_2)).matrix2(),
            &identity2(),
        );
        assert!(equal_up_to_phase4(&u, &r, 1e-9));
    }

    #[test]
    fn rzz_is_cnot_rz_cnot() {
        // Figure 1(d): CPHASE(γ) = CNOT · RZ(γ)_target · CNOT.
        let theta = 0.61;
        let cnot = Gate::Cnot.matrix4();
        let rz_target = kron(&identity2(), &Gate::Rz(a(theta)).matrix2());
        let composed = matmul4(&cnot, &matmul4(&rz_target, &cnot));
        assert!(equal_up_to_phase4(
            &composed,
            &Gate::Rzz(a(theta)).matrix4(),
            1e-9
        ));
    }

    #[test]
    fn cphase_from_rzz_and_u1() {
        // CP(λ) = e^{iλ/4} · U1(λ/2)⊗U1(λ/2) · Rzz(-λ/2)
        let lam = 1.3;
        let u1s = kron(
            &Gate::U1(a(lam / 2.0)).matrix2(),
            &Gate::U1(a(lam / 2.0)).matrix2(),
        );
        let composed = matmul4(&u1s, &Gate::Rzz(a(-lam / 2.0)).matrix4());
        assert!(equal_up_to_phase4(
            &composed,
            &Gate::CPhase(a(lam)).matrix4(),
            1e-9
        ));
    }

    #[test]
    fn diagonal_classification() {
        assert!(Gate::Rzz(a(0.3)).is_diagonal());
        assert!(Gate::CPhase(a(0.3)).is_diagonal());
        assert!(Gate::Rz(a(0.3)).is_diagonal());
        assert!(!Gate::Rx(a(0.3)).is_diagonal());
        assert!(!Gate::Cnot.is_diagonal());
        assert!(!Gate::H.is_diagonal());
        // classification is structural: symbolic angles classify identically
        assert!(Gate::Rzz(Angle::sym(ParamId(0))).is_diagonal());
        assert!(Gate::CPhase(Angle::sym(ParamId(0))).is_diagonal());
    }

    #[test]
    fn display_includes_parameters() {
        assert_eq!(Gate::H.to_string(), "h");
        assert_eq!(Gate::Rzz(a(0.5)).to_string(), "rzz(0.5000)");
        assert_eq!(
            Gate::U3(a(1.0), a(2.0), a(3.0)).to_string(),
            "u3(1.0000, 2.0000, 3.0000)"
        );
        assert_eq!(Gate::Rzz(Angle::sym(ParamId(0))).to_string(), "rzz(p0)");
        assert_eq!(
            Gate::Rx(Angle::sym(ParamId(1)).scaled(2.0)).to_string(),
            "rx(2.0000*p1)"
        );
    }

    #[test]
    fn parametric_queries_and_binding() {
        let g = Gate::Rzz(Angle::sym(ParamId(0)).neg());
        assert!(g.is_parametric());
        assert!(!Gate::Rzz(a(0.4)).is_parametric());
        assert!(!Gate::Cnot.is_parametric());
        let vals = ParamValues::new(vec![0.4]);
        assert_eq!(g.bound(&vals).unwrap(), Gate::Rzz(a(-0.4)));
        // symbolic inverse stays symbolic with negated scale
        assert_eq!(
            g.inverse().bound(&vals).unwrap(),
            Gate::Rzz(a(0.4)),
            "inverse of bound == bound of inverse"
        );
    }

    #[test]
    #[should_panic(expected = "symbolic")]
    fn matrix_of_parametric_gate_panics() {
        let _ = Gate::Rzz(Angle::sym(ParamId(0))).matrix4();
    }

    #[test]
    fn swap_matrix_swaps() {
        let m = Gate::Swap.matrix4();
        // |01> (index 1) -> |10> (index 2)
        assert_eq!(m[2][1], ONE);
        assert_eq!(m[1][2], ONE);
    }
}
