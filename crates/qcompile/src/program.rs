use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qaoa::{MaxCut, QaoaParams};
use qcircuit::{Angle, CircuitError, ParamId, ParamTable, ParamValues};
use qgraph::Graph;

use crate::error::CompileError;
use crate::pipeline::CompiledCircuit;

/// One commuting cost-layer gate: the paper's "CPHASE" between logical
/// qubits `a` and `b` with angle `angle` (implemented as
/// [`qcircuit::Gate::Rzz`]).
///
/// The angle is an [`Angle`], so a spec can carry either concrete values
/// or symbolic parameters (`Sym { param, scale }`) that are bound after
/// compilation — the mapping/ordering/routing passes never read it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CphaseOp {
    /// First logical operand (the figure's control).
    pub a: usize,
    /// Second logical operand (the figure's target).
    pub b: usize,
    /// Rotation angle, concrete or symbolic.
    pub angle: Angle,
}

impl CphaseOp {
    /// Creates a cost gate.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(a: usize, b: usize, angle: impl Into<Angle>) -> Self {
        assert_ne!(a, b, "CPHASE on duplicate operand {a}");
        CphaseOp {
            a,
            b,
            angle: angle.into(),
        }
    }
}

/// The compiler's view of a QAOA program: qubit count, one commuting
/// CPHASE list plus mixer angle per level, and whether to measure.
///
/// The structure mirrors what the paper's methodologies actually permute:
/// only the *order* of each level's CPHASE list is a degree of freedom;
/// the surrounding Hadamard, mixer and measurement layers are fixed.
///
/// A spec may be **parametric**: angles refer to entries of its
/// [`ParamTable`] instead of carrying numbers (see
/// [`QaoaSpec::from_maxcut_parametric`]). The compile flow is angle-blind,
/// so a parametric spec compiles exactly like a bound one and the result
/// can be rebound per optimizer iteration ([`CompiledArtifact`]).
///
/// A spec is a handle to one immutable body: `clone` bumps a refcount,
/// and the body's [`QaoaSpec::fingerprint`] is computed once, when the
/// spec is built. A program's identity is its bits: equality compares
/// every angle via `f64::to_bits`, the bits the fingerprint hashes, so
/// it is reflexive for NaN angles, tells `+0.0` from `-0.0`, and equal
/// specs always have equal fingerprints.
#[derive(Debug, Clone)]
pub struct QaoaSpec {
    body: Arc<SpecBody>,
}

#[derive(Debug, Clone)]
struct SpecBody {
    num_qubits: usize,
    levels: Vec<(Vec<CphaseOp>, Angle)>,
    /// Per-level longitudinal-field rotations `(qubit, angle)`: diagonal
    /// single-qubit `Rz` gates that commute with the cost layer and need
    /// no routing (general Ising problems, §VI).
    fields: Vec<Vec<(usize, Angle)>>,
    params: ParamTable,
    measure: bool,
    /// The structural hash of everything above ([`QaoaSpec::fingerprint`]).
    fingerprint: u64,
}

impl SpecBody {
    /// SipHash over qubit count, measurement flag, every level's CPHASE
    /// list and mixer angle, every field term and the parameter-table
    /// names, angles bit-exact. This byte stream is frozen: the value
    /// names qserve's spill files, quarantine entries and journal lines.
    fn structural_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.num_qubits.hash(&mut h);
        self.measure.hash(&mut h);
        self.levels.len().hash(&mut h);
        for ((ops, mixer), fields) in self.levels.iter().zip(&self.fields) {
            ops.len().hash(&mut h);
            for op in ops {
                op.a.hash(&mut h);
                op.b.hash(&mut h);
                hash_angle(&op.angle, &mut h);
            }
            hash_angle(mixer, &mut h);
            fields.len().hash(&mut h);
            for (q, angle) in fields {
                q.hash(&mut h);
                hash_angle(angle, &mut h);
            }
        }
        self.params.len().hash(&mut h);
        for (_, name) in self.params.iter() {
            name.hash(&mut h);
        }
        h.finish()
    }

    /// Bit-exact equality of the hashed parts.
    fn same_bits(&self, other: &SpecBody) -> bool {
        self.fingerprint == other.fingerprint
            && self.num_qubits == other.num_qubits
            && self.measure == other.measure
            && self.params == other.params
            && pairwise(
                &self.levels,
                &other.levels,
                |(ops, mixer), (ops2, mixer2)| {
                    same_angle(mixer, mixer2)
                        && pairwise(ops, ops2, |x, y| {
                            x.a == y.a && x.b == y.b && same_angle(&x.angle, &y.angle)
                        })
                },
            )
            && pairwise(&self.fields, &other.fields, |level, level2| {
                pairwise(level, level2, |(q, x), (r, y)| q == r && same_angle(x, y))
            })
    }
}

fn hash_angle<H: Hasher>(angle: &Angle, h: &mut H) {
    match angle {
        Angle::Const(v) => {
            0u8.hash(h);
            v.to_bits().hash(h);
        }
        Angle::Sym { param, scale } => {
            1u8.hash(h);
            param.0.hash(h);
            scale.to_bits().hash(h);
        }
    }
}

fn same_angle(x: &Angle, y: &Angle) -> bool {
    match (*x, *y) {
        (Angle::Const(v), Angle::Const(w)) => v.to_bits() == w.to_bits(),
        (Angle::Sym { param, scale }, Angle::Sym { param: p, scale: s }) => {
            param == p && scale.to_bits() == s.to_bits()
        }
        _ => false,
    }
}

fn pairwise<T>(xs: &[T], ys: &[T], eq: impl Fn(&T, &T) -> bool) -> bool {
    xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| eq(x, y))
}

impl PartialEq for QaoaSpec {
    /// Bit-exact structural equality; O(1) for two clones of one spec.
    fn eq(&self, other: &QaoaSpec) -> bool {
        Arc::ptr_eq(&self.body, &other.body) || self.body.same_bits(&other.body)
    }
}

impl QaoaSpec {
    /// Builds a spec from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or an operand is out of range.
    pub fn new<B: Into<Angle>>(
        num_qubits: usize,
        levels: Vec<(Vec<CphaseOp>, B)>,
        measure: bool,
    ) -> Self {
        let levels: Vec<(Vec<CphaseOp>, Angle)> = levels
            .into_iter()
            .map(|(ops, beta)| (ops, beta.into()))
            .collect();
        let fields = vec![Vec::new(); levels.len()];
        QaoaSpec::from_parts(num_qubits, levels, fields, ParamTable::new(), measure)
    }

    /// The constructor every other one routes through: validates the
    /// parts, then hashes them once into a fresh shared body.
    fn from_parts(
        num_qubits: usize,
        levels: Vec<(Vec<CphaseOp>, Angle)>,
        fields: Vec<Vec<(usize, Angle)>>,
        params: ParamTable,
        measure: bool,
    ) -> Self {
        assert!(!levels.is_empty(), "QAOA spec needs at least one level");
        for (ops, _) in &levels {
            for op in ops {
                assert!(
                    op.a < num_qubits && op.b < num_qubits,
                    "operand out of range in ({}, {})",
                    op.a,
                    op.b
                );
            }
        }
        assert_eq!(fields.len(), levels.len(), "one field list per level");
        for level in &fields {
            for &(q, _) in level {
                assert!(q < num_qubits, "field qubit {q} out of range");
            }
        }
        let mut body = SpecBody {
            num_qubits,
            levels,
            fields,
            params,
            measure,
            fingerprint: 0,
        };
        body.fingerprint = body.structural_hash();
        QaoaSpec {
            body: Arc::new(body),
        }
    }

    /// Takes the body out of the handle, copying it only when shared.
    fn into_body(self) -> SpecBody {
        Arc::try_unwrap(self.body).unwrap_or_else(|shared| SpecBody::clone(&shared))
    }

    /// Attaches per-level longitudinal-field rotations (see
    /// [`QaoaSpec::field_terms`]); one list per level.
    ///
    /// # Panics
    ///
    /// Panics if the list count differs from the level count or a field
    /// qubit is out of range.
    pub fn with_fields<B: Into<Angle>>(self, fields: Vec<Vec<(usize, B)>>) -> Self {
        let fields = fields
            .into_iter()
            .map(|level| level.into_iter().map(|(q, a)| (q, a.into())).collect())
            .collect();
        let body = self.into_body();
        QaoaSpec::from_parts(
            body.num_qubits,
            body.levels,
            fields,
            body.params,
            body.measure,
        )
    }

    /// Attaches a parameter table describing the symbolic angles the spec
    /// refers to. Circuits built from the spec inherit this table.
    pub fn with_params(self, params: ParamTable) -> Self {
        let body = self.into_body();
        QaoaSpec::from_parts(
            body.num_qubits,
            body.levels,
            body.fields,
            params,
            body.measure,
        )
    }

    /// The shared `2p` parameter table of a level-`p` parametric QAOA
    /// spec: `gamma0, beta0, gamma1, beta1, …` — level `k`'s cost angle is
    /// `ParamId(2k)` and its mixer angle `ParamId(2k + 1)`, matching the
    /// flat `[γ1, β1, γ2, β2, …]` layout of [`QaoaParams::to_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn parametric_table(p: usize) -> ParamTable {
        assert!(p > 0, "QAOA needs at least one level");
        let mut table = ParamTable::new();
        for k in 0..p {
            table.declare(format!("gamma{k}"));
            table.declare(format!("beta{k}"));
        }
        table
    }

    /// Builds the spec of a general Ising instance (§VI): one weighted
    /// CPHASE per coupling (`Rzz(2γJ)`) and one field rotation
    /// (`Rz(2γh)`) per nonzero field, per level.
    pub fn from_ising(
        problem: &qaoa::ising::IsingProblem,
        params: &qaoa::QaoaParams,
        measure: bool,
    ) -> Self {
        let levels = params
            .levels()
            .iter()
            .map(|&(gamma, beta)| {
                let ops = problem
                    .couplings()
                    .iter()
                    .map(|&(u, v, j)| CphaseOp::new(u, v, 2.0 * gamma * j))
                    .collect();
                (ops, Angle::Const(beta))
            })
            .collect();
        let fields = params
            .levels()
            .iter()
            .map(|&(gamma, _)| {
                problem
                    .fields()
                    .iter()
                    .enumerate()
                    .filter(|(_, &h)| h != 0.0)
                    .map(|(q, &h)| (q, Angle::Const(2.0 * gamma * h)))
                    .collect()
            })
            .collect();
        QaoaSpec::from_parts(
            problem.num_spins(),
            levels,
            fields,
            ParamTable::new(),
            measure,
        )
    }

    /// The parametric form of [`QaoaSpec::from_ising`]: one spec with `2p`
    /// shared symbolic parameters instead of one spec per `(γ, β)` point.
    /// Level `k` uses `Rzz(2J·γ_k)` couplings and `Rz(2h·γ_k)` fields with
    /// `γ_k = ParamId(2k)` and mixer parameter `β_k = ParamId(2k + 1)`
    /// (see [`QaoaSpec::parametric_table`]). Bind with the flat
    /// `[γ1, β1, …]` values of [`QaoaParams::to_flat`].
    pub fn from_ising_parametric(
        problem: &qaoa::ising::IsingProblem,
        p: usize,
        measure: bool,
    ) -> Self {
        let levels = (0..p)
            .map(|k| {
                let gamma = Angle::sym(ParamId(2 * k as u32));
                let ops = problem
                    .couplings()
                    .iter()
                    .map(|&(u, v, j)| CphaseOp::new(u, v, gamma.scaled(2.0 * j)))
                    .collect();
                (ops, Angle::sym(ParamId(2 * k as u32 + 1)))
            })
            .collect();
        let fields = (0..p)
            .map(|k| {
                let gamma = Angle::sym(ParamId(2 * k as u32));
                problem
                    .fields()
                    .iter()
                    .enumerate()
                    .filter(|(_, &h)| h != 0.0)
                    .map(|(q, &h)| (q, gamma.scaled(2.0 * h)))
                    .collect()
            })
            .collect();
        QaoaSpec::from_parts(
            problem.num_spins(),
            levels,
            fields,
            QaoaSpec::parametric_table(p),
            measure,
        )
    }

    /// Builds the spec of a QAOA-MaxCut instance: one CPHASE per problem
    /// edge per level, with the conventions of [`qaoa::qaoa_circuit`].
    pub fn from_maxcut(problem: &MaxCut, params: &QaoaParams, measure: bool) -> Self {
        let levels: Vec<(Vec<CphaseOp>, f64)> = params
            .levels()
            .iter()
            .map(|&(gamma, beta)| {
                let ops = problem
                    .graph()
                    .edges()
                    .map(|e| CphaseOp::new(e.a(), e.b(), -gamma))
                    .collect();
                (ops, beta)
            })
            .collect();
        QaoaSpec::new(problem.num_vars(), levels, measure)
    }

    /// The parametric form of [`QaoaSpec::from_maxcut`]: one spec with
    /// `2p` shared symbolic parameters. Level `k`'s cost gates are
    /// `Rzz(-γ_k)` with `γ_k = ParamId(2k)` and its mixer parameter is
    /// `β_k = ParamId(2k + 1)` (see [`QaoaSpec::parametric_table`]). Bind
    /// with the flat `[γ1, β1, …]` values of [`QaoaParams::to_flat`].
    ///
    /// # Panics
    ///
    /// Panics if `p == 0`.
    pub fn from_maxcut_parametric(problem: &MaxCut, p: usize, measure: bool) -> Self {
        let levels = (0..p)
            .map(|k| {
                let gamma = Angle::sym(ParamId(2 * k as u32));
                let ops = problem
                    .graph()
                    .edges()
                    .map(|e| CphaseOp::new(e.a(), e.b(), gamma.scaled(-1.0)))
                    .collect();
                (ops, Angle::sym(ParamId(2 * k as u32 + 1)))
            })
            .collect();
        QaoaSpec::from_parts(
            problem.num_vars(),
            levels,
            vec![Vec::new(); p],
            QaoaSpec::parametric_table(p),
            measure,
        )
    }

    /// The spec's 64-bit structural fingerprint: a hash of the qubit
    /// count, measurement flag, every level's CPHASE list and mixer
    /// angle, every field term and the parameter table, angles
    /// bit-exact via `f64::to_bits`. Computed once when the spec is built
    /// and shared by its clones, so reading it is free. Equal specs have
    /// equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        self.body.fingerprint
    }

    /// Number of logical qubits.
    pub fn num_qubits(&self) -> usize {
        self.body.num_qubits
    }

    /// The levels: `(cost gate list, mixer angle β)` per level.
    pub fn levels(&self) -> &[(Vec<CphaseOp>, Angle)] {
        &self.body.levels
    }

    /// The per-level field rotations `(qubit, angle)`.
    pub fn field_terms(&self, level: usize) -> &[(usize, Angle)] {
        &self.body.fields[level]
    }

    /// Whether the compiled circuit ends with measurements.
    pub fn measure(&self) -> bool {
        self.body.measure
    }

    /// The spec's parameter table (empty for fully bound specs).
    pub fn param_table(&self) -> &ParamTable {
        &self.body.params
    }

    /// Number of declared symbolic parameters.
    pub fn num_params(&self) -> usize {
        self.body.params.len()
    }

    /// Whether any angle in the spec is symbolic.
    pub fn is_parametric(&self) -> bool {
        self.body
            .levels
            .iter()
            .any(|(ops, beta)| beta.is_sym() || ops.iter().any(|op| op.angle.is_sym()))
            || self
                .body
                .fields
                .iter()
                .any(|level| level.iter().any(|(_, a)| a.is_sym()))
    }

    /// Substitutes `values` into every symbolic angle, producing a fully
    /// bound spec (empty parameter table) with identical structure.
    ///
    /// # Errors
    ///
    /// Fails when `values` does not cover the declared parameters.
    pub fn bind(&self, values: &ParamValues) -> Result<QaoaSpec, CircuitError> {
        let body = &*self.body;
        if !body.params.is_empty() && values.len() != body.params.len() {
            return Err(CircuitError::ParamCountMismatch {
                expected: body.params.len(),
                found: values.len(),
            });
        }
        let levels = body
            .levels
            .iter()
            .map(|(ops, beta)| {
                let ops = ops
                    .iter()
                    .map(|op| {
                        Ok(CphaseOp {
                            a: op.a,
                            b: op.b,
                            angle: op.angle.bind(values)?,
                        })
                    })
                    .collect::<Result<Vec<_>, CircuitError>>()?;
                Ok((ops, beta.bind(values)?))
            })
            .collect::<Result<Vec<_>, CircuitError>>()?;
        let fields = body
            .fields
            .iter()
            .map(|level| {
                level
                    .iter()
                    .map(|&(q, a)| Ok((q, a.bind(values)?)))
                    .collect::<Result<Vec<_>, CircuitError>>()
            })
            .collect::<Result<Vec<_>, CircuitError>>()?;
        Ok(QaoaSpec::from_parts(
            body.num_qubits,
            levels,
            fields,
            ParamTable::new(),
            body.measure,
        ))
    }

    /// Total number of cost gates across all levels.
    pub fn total_cphase_count(&self) -> usize {
        self.body.levels.iter().map(|(ops, _)| ops.len()).sum()
    }

    /// The *logical interaction graph*: nodes are logical qubits, edges the
    /// qubit pairs sharing a CPHASE in any level. QAIM's "logical
    /// neighbors" come from here.
    pub fn interaction_graph(&self) -> Graph {
        let mut g = Graph::new(self.body.num_qubits);
        for (ops, _) in &self.body.levels {
            for op in ops {
                g.add_edge(op.a, op.b)
                    .expect("operands validated at construction");
            }
        }
        g
    }

    /// The program profile over all levels.
    pub fn profile(&self) -> ProgramProfile {
        let mut ops_per_qubit = vec![0usize; self.body.num_qubits];
        for (ops, _) in &self.body.levels {
            for op in ops {
                ops_per_qubit[op.a] += 1;
                ops_per_qubit[op.b] += 1;
            }
        }
        ProgramProfile { ops_per_qubit }
    }
}

/// A compile-once/rebind-many artifact: the full [`CompiledCircuit`] of a
/// *parametric* spec, reusable across parameter points.
///
/// The compile flow (QAIM/GreedyV mapping, IP/IC/VIC ordering, routing,
/// basis lowering) depends only on the interaction graph and the device —
/// never on the angles — so one compilation of a parametric spec yields a
/// template whose [`CompiledArtifact::bind`] is pure per-gate angle
/// substitution: zero mapping, ordering or routing work, with layouts,
/// pass trace and explain report carried over verbatim. Each rebind bumps
/// the `qcompile/rebind` and `qcompile/rebind_gates` qtrace counters so
/// the compile-vs-rebind economics show up in run manifests.
///
/// Build one with [`crate::try_compile_artifact_with_context`]; a bound
/// spec's artifact is just its compiled circuit, read through
/// [`CompiledArtifact::template`].
#[derive(Debug, Clone)]
pub struct CompiledArtifact {
    template: CompiledCircuit,
    num_params: usize,
}

impl CompiledArtifact {
    pub(crate) fn new(template: CompiledCircuit, num_params: usize) -> Self {
        CompiledArtifact {
            template,
            num_params,
        }
    }

    /// Rebuilds an artifact around a template recovered from persistent
    /// storage (see [`CompiledCircuit::from_recovered_parts`]).
    /// `num_params` must match the spec the template was compiled from;
    /// [`CompiledArtifact::bind`] enforces it against the supplied
    /// values exactly as for a freshly compiled artifact.
    pub fn from_recovered_template(template: CompiledCircuit, num_params: usize) -> Self {
        CompiledArtifact {
            template,
            num_params,
        }
    }

    /// The parametric compiled template (symbolic angles intact).
    pub fn template(&self) -> &CompiledCircuit {
        &self.template
    }

    /// Number of parameters a [`CompiledArtifact::bind`] call must supply.
    pub fn num_params(&self) -> usize {
        self.num_params
    }

    /// Whether the template still carries symbolic angles. (False for
    /// artifacts compiled from bound specs; binding is then a clone.)
    pub fn is_parametric(&self) -> bool {
        self.template.physical().is_parametric()
    }

    /// Substitutes `values` into the template, returning a fully bound
    /// [`CompiledCircuit`] with **bit-identical** structure: same gate
    /// order, SWAP count, depth, layouts, pass trace and explain report
    /// as the template — only the angles change. No mapping, ordering or
    /// routing work happens here, which is the whole point of compiling
    /// a parametric spec once. Counted as one `qcompile/rebind` (plus the
    /// substituted gate count under `qcompile/rebind_gates`) in qtrace.
    ///
    /// # Errors
    ///
    /// [`CompileError::UnboundParameters`] when `values` does not cover
    /// the template's parameters.
    pub fn bind(&self, values: &ParamValues) -> Result<CompiledCircuit, CompileError> {
        self.template.bind(values)
    }
}

/// The program profile of §IV-A: CPHASE operations per logical qubit
/// (Figure 3(c)), shared by QAIM (placement order) and IP (gate ranking).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramProfile {
    ops_per_qubit: Vec<usize>,
}

impl ProgramProfile {
    /// Builds a profile directly from a CPHASE list.
    pub fn from_ops(num_qubits: usize, ops: &[CphaseOp]) -> Self {
        let mut ops_per_qubit = vec![0usize; num_qubits];
        for op in ops {
            ops_per_qubit[op.a] += 1;
            ops_per_qubit[op.b] += 1;
        }
        ProgramProfile { ops_per_qubit }
    }

    /// CPHASE count on logical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn ops_on(&self, q: usize) -> usize {
        self.ops_per_qubit[q]
    }

    /// Number of profiled logical qubits.
    pub fn num_qubits(&self) -> usize {
        self.ops_per_qubit.len()
    }

    /// The paper's MOQ: maximum operations on any qubit — the lower bound
    /// on (and initial allocation of) IP's layer count.
    pub fn moq(&self) -> usize {
        self.ops_per_qubit.iter().copied().max().unwrap_or(0)
    }

    /// Logical qubits in descending-ops order (ascending index on ties) —
    /// QAIM's placement order (§IV-A Step 1).
    pub fn ranked_qubits(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.ops_per_qubit.len()).collect();
        order.sort_by(|&x, &y| {
            self.ops_per_qubit[y]
                .cmp(&self.ops_per_qubit[x])
                .then(x.cmp(&y))
        });
        order
    }

    /// The cumulative rank of a CPHASE op: ops on its first operand plus
    /// ops on its second (Figure 4(c)).
    pub fn op_rank(&self, op: &CphaseOp) -> usize {
        self.ops_per_qubit[op.a] + self.ops_per_qubit[op.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_spec() -> QaoaSpec {
        // Figure 4(a): CPHASE list {(1,5), (2,3), (1,4), (2,4)} (1-based in
        // the paper; kept 1-based here on 6 logical qubits with qubit 0
        // unused, so the figure's numbers read off directly).
        let ops = vec![
            CphaseOp::new(1, 5, 0.3),
            CphaseOp::new(2, 3, 0.3),
            CphaseOp::new(1, 4, 0.3),
            CphaseOp::new(2, 4, 0.3),
        ];
        QaoaSpec::new(6, vec![(ops, 0.2)], false)
    }

    #[test]
    fn profile_matches_figure_4b() {
        let profile = toy_spec().profile();
        assert_eq!(profile.ops_on(1), 2);
        assert_eq!(profile.ops_on(2), 2);
        assert_eq!(profile.ops_on(3), 1);
        assert_eq!(profile.ops_on(4), 2);
        assert_eq!(profile.ops_on(5), 1);
        assert_eq!(profile.moq(), 2);
    }

    #[test]
    fn op_ranks_match_figure_4c() {
        let spec = toy_spec();
        let profile = spec.profile();
        let ops = &spec.levels()[0].0;
        assert_eq!(profile.op_rank(&ops[0]), 3); // (1,5)
        assert_eq!(profile.op_rank(&ops[1]), 3); // (2,3)
        assert_eq!(profile.op_rank(&ops[2]), 4); // (1,4)
        assert_eq!(profile.op_rank(&ops[3]), 4); // (2,4)
    }

    #[test]
    fn ranked_qubits_descending_with_index_ties() {
        let profile = toy_spec().profile();
        assert_eq!(profile.ranked_qubits(), vec![1, 2, 4, 3, 5, 0]);
    }

    #[test]
    fn from_maxcut_builds_one_op_per_edge() {
        let problem = MaxCut::new(qgraph::generators::complete(4));
        let spec = QaoaSpec::from_maxcut(&problem, &QaoaParams::p1(0.7, 0.2), true);
        assert_eq!(spec.num_qubits(), 4);
        assert_eq!(spec.total_cphase_count(), 6);
        assert!(spec.measure());
        assert!(!spec.is_parametric());
        assert_eq!(spec.levels()[0].1, Angle::Const(0.2));
        assert!(spec.levels()[0]
            .0
            .iter()
            .all(|op| (op.angle.value() + 0.7).abs() < 1e-12));
        assert_eq!(spec.interaction_graph(), *problem.graph());
    }

    #[test]
    fn parametric_maxcut_shares_two_params_per_level() {
        let problem = MaxCut::new(qgraph::generators::complete(4));
        let spec = QaoaSpec::from_maxcut_parametric(&problem, 2, true);
        assert!(spec.is_parametric());
        assert_eq!(spec.num_params(), 4);
        assert_eq!(spec.param_table().name(ParamId(0)), Some("gamma0"));
        assert_eq!(spec.param_table().name(ParamId(3)), Some("beta1"));
        for (k, (ops, beta)) in spec.levels().iter().enumerate() {
            assert_eq!(beta.param(), Some(ParamId(2 * k as u32 + 1)));
            for op in ops {
                assert_eq!(op.angle.param(), Some(ParamId(2 * k as u32)));
            }
        }
        // The interaction structure matches the bound form: same graph,
        // same profile, same op count.
        let bound = QaoaSpec::from_maxcut(&problem, &QaoaParams::new(vec![(0.1, 0.2); 2]), true);
        assert_eq!(spec.interaction_graph(), bound.interaction_graph());
        assert_eq!(spec.profile(), bound.profile());
    }

    #[test]
    fn binding_a_parametric_spec_matches_the_direct_construction() {
        let problem = MaxCut::new(qgraph::generators::cycle(5));
        let params = QaoaParams::new(vec![(0.7, 0.2), (0.4, 0.9)]);
        let spec = QaoaSpec::from_maxcut_parametric(&problem, 2, true);
        let values = ParamValues::new(params.to_flat());
        let bound = spec.bind(&values).unwrap();
        assert!(!bound.is_parametric());
        assert_eq!(bound.num_params(), 0);
        assert_eq!(bound, QaoaSpec::from_maxcut(&problem, &params, true));
    }

    #[test]
    fn binding_validates_value_count() {
        let problem = MaxCut::new(qgraph::generators::cycle(4));
        let spec = QaoaSpec::from_maxcut_parametric(&problem, 2, false);
        let err = spec.bind(&ParamValues::new(vec![0.1, 0.2])).unwrap_err();
        assert!(matches!(
            err,
            CircuitError::ParamCountMismatch {
                expected: 4,
                found: 2
            }
        ));
    }

    #[test]
    fn parametric_ising_scales_by_coupling_and_field() {
        let problem = qaoa::ising::IsingProblem::new(
            3,
            vec![(0, 1, 0.5), (1, 2, -0.75)],
            vec![0.3, 0.0, -0.8],
        );
        let spec = QaoaSpec::from_ising_parametric(&problem, 1, false);
        assert!(spec.is_parametric());
        assert_eq!(spec.field_terms(0).len(), 2); // zero fields compile away
        let params = QaoaParams::p1(0.6, 0.3);
        let bound = spec.bind(&ParamValues::new(params.to_flat())).unwrap();
        assert_eq!(bound, QaoaSpec::from_ising(&problem, &params, false));
    }

    #[test]
    fn multi_level_profile_accumulates() {
        let problem = MaxCut::new(qgraph::generators::path(3));
        let params = QaoaParams::new(vec![(0.1, 0.2), (0.3, 0.4)]);
        let spec = QaoaSpec::from_maxcut(&problem, &params, false);
        let profile = spec.profile();
        assert_eq!(profile.ops_on(1), 4); // middle qubit: 2 edges x 2 levels
        assert_eq!(profile.moq(), 4);
    }

    /// Equality never trusts the fingerprint alone: a body forged to
    /// collide with another still compares by its bits.
    #[test]
    fn equality_compares_bits_when_fingerprints_collide() {
        let spec = toy_spec();
        let other = QaoaSpec::new(6, vec![(vec![CphaseOp::new(1, 5, 0.3)], 0.2)], false);
        let mut forged = SpecBody::clone(&other.body);
        forged.fingerprint = spec.fingerprint();
        let forged = QaoaSpec {
            body: Arc::new(forged),
        };
        assert_ne!(spec, forged);
        assert_eq!(spec, toy_spec());
    }

    #[test]
    #[should_panic]
    fn out_of_range_operand_panics() {
        let _ = QaoaSpec::new(2, vec![(vec![CphaseOp::new(0, 2, 0.1)], 0.0)], false);
    }

    #[test]
    #[should_panic]
    fn self_cphase_panics() {
        let _ = CphaseOp::new(3, 3, 0.1);
    }
}
