//! Output checks whose reference does not come from the compiler under
//! test: the program a compiled circuit implements is rebuilt from the
//! circuit alone, and MaxCut expectations are read from a simulated state
//! through the circuit's final layout.

use qaoa::MaxCut;
use qcircuit::{Angle, Gate};
use qcompile::{CompiledCircuit, CphaseOp, QaoaSpec};
use qsim::{SimOptions, StateVector};

/// Rebuilds the MaxCut QAOA spec that `compiled` implements by walking
/// its physical circuit: SWAPs move logical qubits, each `Rzz` becomes a
/// cost gate of the level its qubits' mixer count says it belongs to, and
/// each `Rx` is one qubit's mixer. Cost gates come out in canonical edge
/// order, so for a correct compile `qserve::spec_fingerprint` of the
/// result equals that of the spec the circuit was compiled from.
///
/// # Errors
///
/// Describes the first structural violation: a gate on an unoccupied
/// qubit, a cost gate straddling two levels, an unexpected gate, a qubit
/// with a wrong mixer count, or a final mapping that disagrees with the
/// reported final layout.
pub fn recover_spec(compiled: &CompiledCircuit, num_logical: usize) -> Result<QaoaSpec, String> {
    let physical = compiled.physical();
    let mut occupant: Vec<Option<usize>> = (0..physical.num_qubits())
        .map(|p| compiled.initial_layout().logical_at(p))
        .collect();
    let mut mixers = vec![0usize; num_logical];
    let mut levels: Vec<(Vec<CphaseOp>, Option<Angle>)> = Vec::new();
    let mut measure = false;
    let logical = |occupant: &[Option<usize>], p: usize| {
        occupant
            .get(p)
            .copied()
            .flatten()
            .ok_or_else(|| format!("gate on unoccupied physical qubit {p}"))
    };
    for instr in physical.iter() {
        match instr.gate() {
            Gate::Swap => occupant.swap(instr.q0(), instr.q1()),
            Gate::Rzz(angle) => {
                let a = logical(&occupant, instr.q0())?;
                let b = logical(&occupant, instr.q1())?;
                let level = mixers[a];
                if mixers[b] != level {
                    return Err(format!("cost gate ({a},{b}) straddles levels"));
                }
                if levels.len() <= level {
                    levels.resize_with(level + 1, || (Vec::new(), None));
                }
                levels[level]
                    .0
                    .push(CphaseOp::new(a.min(b), a.max(b), angle));
            }
            Gate::Rx(angle) => {
                let q = logical(&occupant, instr.q0())?;
                let level = mixers[q];
                if levels.len() <= level {
                    levels.resize_with(level + 1, || (Vec::new(), None));
                }
                let beta = angle.scaled(0.5);
                match levels[level].1 {
                    None => levels[level].1 = Some(beta),
                    Some(seen) if seen == beta => {}
                    Some(_) => return Err(format!("mixers of level {level} disagree")),
                }
                mixers[q] += 1;
            }
            Gate::H => {}
            Gate::Measure => measure = true,
            other => return Err(format!("unexpected gate {}", other.name())),
        }
    }
    let p = levels.len();
    if let Some(q) = (0..num_logical).find(|&q| mixers[q] != p) {
        return Err(format!("qubit {q} has {} mixers, expected {p}", mixers[q]));
    }
    let final_layout = compiled.final_layout();
    for (phys, l) in occupant.iter().enumerate() {
        if let Some(l) = *l {
            if final_layout.phys(l) != phys {
                return Err(format!(
                    "logical {l} ends on {phys}, final layout says {}",
                    final_layout.phys(l)
                ));
            }
        }
    }
    let mut spec_levels = Vec::with_capacity(p);
    for (mut ops, beta) in levels {
        ops.sort_by_key(|op| (op.a, op.b));
        spec_levels.push((ops, beta.expect("every level has mixers once counts match")));
    }
    let parametric = spec_levels
        .iter()
        .any(|(ops, beta)| beta.is_sym() || ops.iter().any(|op| op.angle.is_sym()));
    let spec = QaoaSpec::new(num_logical, spec_levels, measure);
    Ok(if parametric {
        spec.with_params(QaoaSpec::parametric_table(p))
    } else {
        spec
    })
}

/// `⟨C⟩` of `problem` on the state a bound compiled circuit prepares,
/// reading each physical basis state's cut value through the circuit's
/// final layout.
pub fn compiled_expectation(compiled: &CompiledCircuit, problem: &MaxCut, sim: &SimOptions) -> f64 {
    let state = StateVector::from_circuit_with(compiled.physical(), sim);
    let table = cut_table(problem, compiled);
    state.expectation_diagonal(|bits| table[bits])
}

/// The cut value of every physical basis state of `compiled`'s register,
/// read through its final layout.
pub fn cut_table(problem: &MaxCut, compiled: &CompiledCircuit) -> Vec<f64> {
    let n_phys = compiled.physical().num_qubits();
    let layout = compiled.final_layout();
    let homes: Vec<usize> = (0..problem.num_vars()).map(|l| layout.phys(l)).collect();
    (0..1usize << n_phys)
        .map(|bits| {
            let logical = homes
                .iter()
                .enumerate()
                .fold(0usize, |acc, (l, &p)| acc | (((bits >> p) & 1) << l));
            problem.cut_value(logical) as f64
        })
        .collect()
}
