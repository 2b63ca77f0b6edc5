use qcircuit::{Angle, Circuit, ParamId, ParamTable, ParamValues};
use qsim::StateVector;

use crate::MaxCut;

/// The `(γ, β)` parameters of a level-`p` QAOA ansatz.
///
/// Each level contributes one cost angle `γ` and one mixer angle `β`
/// (§I: "each level adds additional two parameters (γ, β)").
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaParams {
    levels: Vec<(f64, f64)>,
}

impl QaoaParams {
    /// Builds parameters from `(γ_k, β_k)` pairs, one per level.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn new(levels: Vec<(f64, f64)>) -> Self {
        assert!(!levels.is_empty(), "QAOA needs at least one level");
        QaoaParams { levels }
    }

    /// Single-level parameters.
    pub fn p1(gamma: f64, beta: f64) -> Self {
        QaoaParams::new(vec![(gamma, beta)])
    }

    /// The number of levels `p`.
    pub fn p(&self) -> usize {
        self.levels.len()
    }

    /// The `(γ, β)` pairs in level order.
    pub fn levels(&self) -> &[(f64, f64)] {
        &self.levels
    }

    /// Flattens to `[γ_1, β_1, γ_2, β_2, ...]` for generic optimizers.
    pub fn to_flat(&self) -> Vec<f64> {
        self.levels.iter().flat_map(|&(g, b)| [g, b]).collect()
    }

    /// Rebuilds from the flat `[γ_1, β_1, ...]` encoding.
    ///
    /// # Panics
    ///
    /// Panics if `flat` is empty or has odd length.
    pub fn from_flat(flat: &[f64]) -> Self {
        assert!(
            !flat.is_empty() && flat.len() % 2 == 0,
            "flat params must pair up"
        );
        QaoaParams::new(flat.chunks_exact(2).map(|c| (c[0], c[1])).collect())
    }

    /// The flat encoding as binding values for a parametric ansatz built
    /// by [`qaoa_circuit_parametric`] (or a parametric `QaoaSpec`): the
    /// value of `ParamId(2k)` is `γ_k` and of `ParamId(2k + 1)` is `β_k`.
    pub fn to_values(&self) -> ParamValues {
        ParamValues::new(self.to_flat())
    }
}

/// The shared parameter table of a level-`p` parametric QAOA ansatz:
/// `gamma0, beta0, gamma1, beta1, …` — `2p` entries, level `k`'s cost
/// parameter at `ParamId(2k)` and mixer parameter at `ParamId(2k + 1)`,
/// matching the flat `[γ_1, β_1, …]` layout of [`QaoaParams::to_flat`].
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn qaoa_param_table(p: usize) -> ParamTable {
    assert!(p > 0, "QAOA needs at least one level");
    let mut table = ParamTable::new();
    for k in 0..p {
        table.declare(format!("gamma{k}"));
        table.declare(format!("beta{k}"));
    }
    table
}

/// Builds the *parametric* logical QAOA-MaxCut circuit at level `p`: the
/// Figure 1(b) structure with symbolic angles — per level `k`, one
/// `Rzz(-γ_k)` per problem edge and one `Rx(2β_k)` per qubit, where
/// `γ_k`/`β_k` are the `2p` shared parameters of [`qaoa_param_table`].
///
/// This is the compile-once half of the compile-once/rebind-many flow:
/// the circuit's structure never changes across parameter points, so one
/// build (or one compilation) serves every optimizer iteration; bind with
/// [`QaoaParams::to_values`] (see [`qcircuit::Circuit::bind`]).
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn qaoa_circuit_parametric(problem: &MaxCut, p: usize, measure: bool) -> Circuit {
    let n = problem.num_vars();
    let mut c = Circuit::new(n);
    c.set_param_table(qaoa_param_table(p));
    for q in 0..n {
        c.h(q);
    }
    for k in 0..p {
        let gamma = Angle::sym(ParamId(2 * k as u32));
        let beta = Angle::sym(ParamId(2 * k as u32 + 1));
        for e in problem.graph().edges() {
            // e^{-iγ C_uv} = global phase · Rzz(-γ) for C_uv = (1 - Z_u Z_v)/2.
            c.rzz(gamma.scaled(-1.0), e.a(), e.b());
        }
        for q in 0..n {
            c.rx(beta.scaled(2.0), q);
        }
    }
    if measure {
        c.measure_all();
    }
    c
}

/// Builds the logical QAOA-MaxCut circuit for `problem` with `params`
/// (Figure 1(b)): Hadamards, then per level one `Rzz(-γ)` per problem edge
/// (the commuting "CPHASE" cost layer, edges in canonical order) and one
/// `Rx(2β)` per qubit. Appends measurements when `measure` is set.
pub fn qaoa_circuit(problem: &MaxCut, params: &QaoaParams, measure: bool) -> Circuit {
    // One structural builder serves both forms: the bound circuit is the
    // parametric template with the values substituted, by construction.
    qaoa_circuit_parametric(problem, params.p(), measure)
        .bind(&params.to_values())
        .expect("table and values come from the same QaoaParams")
}

/// The exact (noiseless) expectation `⟨γ,β|C|γ,β⟩` of the cut value,
/// evaluated by statevector simulation.
///
/// # Panics
///
/// Panics if the problem exceeds the simulator's qubit limit.
pub fn expectation(problem: &MaxCut, params: &QaoaParams) -> f64 {
    let circuit = qaoa_circuit(problem, params, false);
    let state = StateVector::from_circuit(&circuit);
    state.expectation_diagonal(|bits| problem.cut_value(bits) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qgraph::generators;

    #[test]
    fn params_round_trip_flat() {
        let p = QaoaParams::new(vec![(0.1, 0.2), (0.3, 0.4)]);
        assert_eq!(p.p(), 2);
        let flat = p.to_flat();
        assert_eq!(flat, vec![0.1, 0.2, 0.3, 0.4]);
        assert_eq!(QaoaParams::from_flat(&flat), p);
    }

    #[test]
    #[should_panic]
    fn empty_params_panic() {
        let _ = QaoaParams::new(vec![]);
    }

    #[test]
    fn parametric_circuit_binds_to_the_bound_form() {
        let problem = MaxCut::new(generators::complete(4));
        let params = QaoaParams::new(vec![(0.4, 0.3), (0.9, 0.1)]);
        let template = qaoa_circuit_parametric(&problem, 2, true);
        assert!(template.is_parametric());
        assert_eq!(template.num_params(), 4);
        assert_eq!(
            template.bind(&params.to_values()).unwrap(),
            qaoa_circuit(&problem, &params, true)
        );
    }

    #[test]
    fn param_table_names_follow_flat_order() {
        let table = qaoa_param_table(2);
        assert_eq!(table.len(), 4);
        assert_eq!(table.name(qcircuit::ParamId(0)), Some("gamma0"));
        assert_eq!(table.name(qcircuit::ParamId(1)), Some("beta0"));
        assert_eq!(table.name(qcircuit::ParamId(3)), Some("beta1"));
    }

    #[test]
    fn circuit_structure_matches_figure_1b() {
        let problem = MaxCut::new(generators::complete(4));
        let c = qaoa_circuit(&problem, &QaoaParams::p1(0.4, 0.3), true);
        assert_eq!(c.count_gate("h"), 4);
        assert_eq!(c.count_gate("rzz"), 6);
        assert_eq!(c.count_gate("rx"), 4);
        assert_eq!(c.count_gate("measure"), 4);
    }

    #[test]
    fn multi_level_repeats_layers() {
        let problem = MaxCut::new(generators::cycle(5));
        let params = QaoaParams::new(vec![(0.1, 0.2), (0.3, 0.4), (0.5, 0.6)]);
        let c = qaoa_circuit(&problem, &params, false);
        assert_eq!(c.count_gate("rzz"), 3 * 5);
        assert_eq!(c.count_gate("rx"), 3 * 5);
    }

    #[test]
    fn zero_angles_give_uniform_superposition() {
        // γ = β = 0 leaves |+...+>; expectation = E/2.
        let problem = MaxCut::new(generators::complete(4));
        let e = expectation(&problem, &QaoaParams::p1(0.0, 0.0));
        assert!((e - 3.0).abs() < 1e-10, "got {e}");
    }

    #[test]
    fn optimal_p1_on_single_edge() {
        // For a single edge the p=1 optimum reaches cut expectation
        // (1 + 1)/2... exactly: max over (γ, β) of 1/2 + 1/4 sin(4β) sin(γ)·2
        // = 1 at γ = π/2, β = π/8.
        let problem = MaxCut::new(generators::path(2));
        let e = expectation(
            &problem,
            &QaoaParams::p1(std::f64::consts::FRAC_PI_2, std::f64::consts::PI / 8.0),
        );
        assert!((e - 1.0).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn expectation_is_symmetric_in_beta_period() {
        // β and β + π give identical expectations (Rx(2β) has period 2π up
        // to sign, and the cost is parity-symmetric).
        let problem = MaxCut::new(generators::cycle(5));
        let a = expectation(&problem, &QaoaParams::p1(0.7, 0.3));
        let b = expectation(&problem, &QaoaParams::p1(0.7, 0.3 + std::f64::consts::PI));
        assert!((a - b).abs() < 1e-9);
    }
}
