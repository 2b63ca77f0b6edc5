//! Stochastic-Pauli trajectory noise — the stand-in for real-hardware
//! execution (see the crate docs and DESIGN.md §4 for the substitution
//! rationale).

use rand::Rng;

use qcircuit::layers::asap_layers;
use qcircuit::{Circuit, Gate, Instruction};
use qhw::Calibration;

use crate::kernels::FusedApplier;
use crate::sampler::{apply_readout_error, Counts, Sampler};
use crate::{SimOptions, StateVector};

/// Error parameters for trajectory simulation of a *physical* circuit
/// (i.e. one whose qubit indices are hardware qubits so calibration data
/// applies directly).
///
/// Per trajectory:
/// * each two-qubit gate on coupling `(u, v)` is followed, with probability
///   equal to the calibrated CNOT error, by a uniformly random non-identity
///   two-qubit Pauli on its operands;
/// * each single-qubit gate is followed, with the calibrated single-qubit
///   error probability, by a uniformly random Pauli on its qubit;
/// * after each concurrency layer, every *idle* qubit depolarizes with
///   probability [`NoiseModel::idle_error_per_layer`] — this is how circuit
///   depth (decoherence time) degrades fidelity independent of gate count;
/// * measured bits flip with the calibrated readout error.
#[derive(Debug, Clone)]
pub struct NoiseModel {
    calibration: Calibration,
    idle_error_per_layer: f64,
}

impl NoiseModel {
    /// Builds a noise model from device calibration with the default idle
    /// (decoherence) error of 0.1% per layer per qubit.
    pub fn new(calibration: Calibration) -> Self {
        NoiseModel {
            calibration,
            idle_error_per_layer: 1e-3,
        }
    }

    /// Sets the per-layer idle depolarization probability.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn with_idle_error(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "idle error must be a probability, got {p}"
        );
        self.idle_error_per_layer = p;
        self
    }

    /// The per-layer idle depolarization probability.
    pub fn idle_error_per_layer(&self) -> f64 {
        self.idle_error_per_layer
    }

    /// The underlying calibration data.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The gate-error probability for one instruction.
    fn gate_error(&self, instr: &Instruction) -> f64 {
        match instr.gate() {
            Gate::Measure | Gate::Id => 0.0,
            g if g.arity() == 2 => self.calibration.cnot_error(instr.q0(), instr.q1()),
            _ => self.calibration.single_qubit_error(instr.q0()),
        }
    }
}

/// Monte-Carlo trajectory simulator over a noise model.
///
/// Running `t` trajectories and drawing `shots / t` samples from each
/// approximates sampling the true noisy density matrix with `t`-resolution
/// on the error-pattern mixture; `t = 100`–`300` reproduces hardware-like
/// behaviour for the paper's 12–15 qubit ARG instances at a small fraction
/// of the cost of per-shot trajectories.
#[derive(Debug, Clone)]
pub struct TrajectorySimulator {
    model: NoiseModel,
}

impl TrajectorySimulator {
    /// Creates a simulator over `model`; its statevector updates use
    /// [`SimOptions::default`].
    pub fn new(model: NoiseModel) -> Self {
        TrajectorySimulator { model }
    }

    /// The noise model in use.
    pub fn model(&self) -> &NoiseModel {
        &self.model
    }

    /// Runs one noisy trajectory of `circuit`, returning the (pure) final
    /// state of that trajectory.
    ///
    /// # Panics
    ///
    /// Panics if the circuit uses qubits outside the calibration, or
    /// applies a two-qubit gate across an uncalibrated (uncoupled) pair —
    /// routed circuits never do.
    pub fn run_trajectory<R: Rng + ?Sized>(&self, circuit: &Circuit, rng: &mut R) -> StateVector {
        let mut sv = StateVector::new(circuit.num_qubits());
        let mut busy = vec![false; circuit.num_qubits()];
        self.run_layers(&asap_layers(circuit), &mut busy, &mut sv, rng);
        sv
    }

    /// The trajectory inner loop over precomputed concurrency layers, with
    /// all buffers (state, busy flags) owned by the caller so repeated
    /// trajectories allocate nothing.
    fn run_layers<R: Rng + ?Sized>(
        &self,
        layers: &[Vec<Instruction>],
        busy: &mut [bool],
        sv: &mut StateVector,
        rng: &mut R,
    ) {
        sv.reset();
        let mut fused = FusedApplier::new(&SimOptions::default(), sv.num_qubits());
        for layer in layers {
            busy.fill(false);
            for instr in layer {
                for q in instr.qubit_vec() {
                    busy[q] = true;
                }
                if instr.gate().is_unitary() {
                    fused.apply(sv.amps_mut(), instr);
                }
                let p_err = self.model.gate_error(instr);
                if p_err > 0.0 && rng.gen_bool(p_err) {
                    fused.flush(sv.amps_mut());
                    inject_pauli(sv, instr, rng);
                }
            }
            let p_idle = self.model.idle_error_per_layer;
            if p_idle > 0.0 {
                for (q, &b) in busy.iter().enumerate() {
                    if !b && rng.gen_bool(p_idle) {
                        fused.flush(sv.amps_mut());
                        apply_random_pauli(sv, q, rng);
                    }
                }
            }
        }
        fused.flush(sv.amps_mut());
    }

    /// Samples `shots` noisy measurement outcomes using `trajectories`
    /// independent trajectories (shots are split evenly; the remainder goes
    /// to the first trajectories). Readout error is applied to every shot.
    ///
    /// One statevector, one sampler table and one layer schedule are reused
    /// across all trajectories — per-trajectory work allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories == 0` or on the conditions of
    /// [`TrajectorySimulator::run_trajectory`].
    pub fn sample<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        shots: u64,
        trajectories: u32,
        rng: &mut R,
    ) -> Counts {
        assert!(trajectories > 0, "at least one trajectory is required");
        let n = circuit.num_qubits();
        let base = shots / u64::from(trajectories);
        let remainder = shots % u64::from(trajectories);
        let layers = asap_layers(circuit);
        let mut busy = vec![false; n];
        let mut sv = StateVector::new(n);
        let mut sampler = Sampler::new(&sv);
        let mut counts = Counts::new();
        for t in 0..u64::from(trajectories) {
            let this_shots = base + u64::from(t < remainder);
            if this_shots == 0 {
                continue;
            }
            self.run_layers(&layers, &mut busy, &mut sv, rng);
            sampler.rebuild(&sv);
            for _ in 0..this_shots {
                *counts.entry(sampler.sample(rng)).or_insert(0) += 1;
            }
        }
        apply_readout_error(&counts, n, |q| self.model.calibration.readout_error(q), rng)
    }

    /// Mean trajectory fidelity `E[|⟨ψ_traj|ideal⟩|²]` over `trajectories`
    /// runs — the measured counterpart of the estimated success
    /// probability (ESP) reported by the compilation metrics.
    ///
    /// # Panics
    ///
    /// Panics if `trajectories == 0`, the qubit counts differ, or on the
    /// conditions of [`TrajectorySimulator::run_trajectory`].
    pub fn mean_fidelity<R: Rng + ?Sized>(
        &self,
        circuit: &Circuit,
        ideal: &StateVector,
        trajectories: u32,
        rng: &mut R,
    ) -> f64 {
        assert!(trajectories > 0, "at least one trajectory is required");
        let n = circuit.num_qubits();
        let layers = asap_layers(circuit);
        let mut busy = vec![false; n];
        let mut sv = StateVector::new(n);
        let mut total = 0.0;
        for _ in 0..trajectories {
            self.run_layers(&layers, &mut busy, &mut sv, rng);
            total += sv.fidelity(ideal);
        }
        total / f64::from(trajectories)
    }
}

fn inject_pauli<R: Rng + ?Sized>(sv: &mut StateVector, instr: &Instruction, rng: &mut R) {
    if instr.gate().arity() == 2 {
        // uniformly random non-identity two-qubit Pauli: 15 options
        let choice = rng.gen_range(1..16u8);
        let (pa, pb) = (choice / 4, choice % 4);
        apply_pauli_index(sv, instr.q0(), pa);
        apply_pauli_index(sv, instr.q1(), pb);
    } else {
        apply_random_pauli(sv, instr.q0(), rng);
    }
}

fn apply_random_pauli<R: Rng + ?Sized>(sv: &mut StateVector, q: usize, rng: &mut R) {
    apply_pauli_index(sv, q, rng.gen_range(1..4u8));
}

fn apply_pauli_index(sv: &mut StateVector, q: usize, which: u8) {
    let gate = match which {
        0 => return,
        1 => Gate::X,
        2 => Gate::Y,
        _ => Gate::Z,
    };
    sv.apply(&Instruction::one(gate, q));
}

#[cfg(test)]
mod tests {
    use super::*;
    use qhw::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell_on(topology: &Topology) -> Circuit {
        let mut c = Circuit::new(topology.num_qubits());
        c.h(0);
        c.cx(0, 1);
        c.measure(0);
        c.measure(1);
        c
    }

    #[test]
    fn zero_noise_reproduces_ideal_distribution() {
        let topo = Topology::linear(2);
        let cal = Calibration::uniform(&topo, 0.0, 0.0, 0.0);
        // Calibration clamps to MIN_ERROR=1e-6 — effectively noiseless.
        let sim = TrajectorySimulator::new(NoiseModel::new(cal).with_idle_error(0.0));
        let mut rng = StdRng::seed_from_u64(4);
        let counts = sim.sample(&bell_on(&topo), 4000, 10, &mut rng);
        let p00 = counts.get(&0b00).copied().unwrap_or(0) as f64 / 4000.0;
        let p11 = counts.get(&0b11).copied().unwrap_or(0) as f64 / 4000.0;
        assert!(p00 + p11 > 0.99, "p00+p11 = {}", p00 + p11);
        assert!((p00 - 0.5).abs() < 0.05);
    }

    #[test]
    fn heavy_noise_degrades_fidelity() {
        let topo = Topology::linear(2);
        let cal = Calibration::uniform(&topo, 0.4, 0.2, 0.1);
        let sim = TrajectorySimulator::new(NoiseModel::new(cal));
        let mut rng = StdRng::seed_from_u64(4);
        let counts = sim.sample(&bell_on(&topo), 4000, 50, &mut rng);
        let good = (counts.get(&0b00).copied().unwrap_or(0)
            + counts.get(&0b11).copied().unwrap_or(0)) as f64
            / 4000.0;
        assert!(good < 0.95, "noise had no effect: {good}");
    }

    #[test]
    fn deeper_circuits_lose_more_fidelity() {
        // Same gate count per layer, increasing idle time: a circuit with
        // long idle stretches must degrade more than a compact one.
        let topo = Topology::linear(4);
        let cal = Calibration::uniform(&topo, 1e-6, 1e-6, 1e-6);
        let sim = TrajectorySimulator::new(NoiseModel::new(cal).with_idle_error(0.05));
        let mut shallow = Circuit::new(4);
        for q in 0..4 {
            shallow.h(q); // depth 1, nobody idle
        }
        // `deep` applies the same Hadamards plus a serial chain of
        // self-cancelling CNOTs, leaving qubits 2 and 3 idle for many
        // layers.
        let mut deep = Circuit::new(4);
        deep.h(0);
        deep.h(1);
        deep.h(2);
        deep.h(3);
        for _ in 0..5 {
            deep.cx(0, 1);
            deep.cx(0, 1);
        }
        let ideal_shallow = StateVector::from_circuit(&shallow);
        let ideal_deep = StateVector::from_circuit(&deep);
        let mut rng = StdRng::seed_from_u64(11);
        let runs = 200;
        let mut fid_shallow = 0.0;
        let mut fid_deep = 0.0;
        for _ in 0..runs {
            fid_shallow += sim
                .run_trajectory(&shallow, &mut rng)
                .fidelity(&ideal_shallow);
            fid_deep += sim.run_trajectory(&deep, &mut rng).fidelity(&ideal_deep);
        }
        assert!(
            fid_deep < fid_shallow,
            "deep {fid_deep} should be below shallow {fid_shallow}"
        );
    }

    #[test]
    fn error_rate_scales_with_gate_count() {
        let topo = Topology::linear(2);
        let cal = Calibration::uniform(&topo, 0.05, 1e-6, 1e-6);
        let sim = TrajectorySimulator::new(NoiseModel::new(cal).with_idle_error(0.0));
        let fidelity_after = |n_pairs: usize| {
            let mut c = Circuit::new(2);
            for _ in 0..n_pairs {
                c.cx(0, 1);
                c.cx(0, 1);
            }
            let ideal = StateVector::from_circuit(&c);
            let mut rng = StdRng::seed_from_u64(2);
            let mut fid = 0.0;
            let runs = 300;
            for _ in 0..runs {
                fid += sim.run_trajectory(&c, &mut rng).fidelity(&ideal);
            }
            fid / runs as f64
        };
        let f2 = fidelity_after(1);
        let f20 = fidelity_after(10);
        assert!(
            f20 < f2,
            "more gates must mean lower fidelity: {f20} vs {f2}"
        );
        // Rough success-probability prediction: 0.95^2 vs 0.95^20.
        assert!(f2 > 0.8 && f20 < 0.55, "f2={f2}, f20={f20}");
    }

    #[test]
    #[should_panic]
    fn zero_trajectories_panics() {
        let topo = Topology::linear(2);
        let cal = Calibration::uniform(&topo, 0.01, 0.001, 0.01);
        let sim = TrajectorySimulator::new(NoiseModel::new(cal));
        let mut rng = StdRng::seed_from_u64(0);
        let _ = sim.sample(&bell_on(&topo), 10, 0, &mut rng);
    }

    #[test]
    fn with_idle_error_validates() {
        let topo = Topology::linear(2);
        let cal = Calibration::uniform(&topo, 0.01, 0.001, 0.01);
        let m = NoiseModel::new(cal).with_idle_error(0.2);
        assert_eq!(m.idle_error_per_layer(), 0.2);
    }
}
