//! Shot sampling from statevectors.
//!
//! QAOA evaluates its cost function over a finite number of samples
//! ("shots") from the circuit output (§II "QAOA Optimization Flow"); the
//! hardware experiments of §V-G use 40960 shots per circuit. This module
//! provides an efficient multi-shot sampler (cumulative distribution +
//! binary search) and the counts container shared by the noiseless and
//! noisy paths.

use std::collections::BTreeMap;

use rand::Rng;

use crate::StateVector;

/// Measurement outcome counts: basis state → number of shots.
pub type Counts = BTreeMap<usize, u64>;

/// Samples computational-basis measurement outcomes from a statevector.
///
/// Construction is `O(2^n)`; each shot is `O(n)` (binary search), so
/// sampling the paper's 40960 shots from a 15-qubit state is effectively
/// instant.
#[derive(Debug, Clone)]
pub struct Sampler {
    cumulative: Vec<f64>,
}

impl Sampler {
    /// Builds a sampler over the Born-rule distribution of `state`.
    pub fn new(state: &StateVector) -> Self {
        let mut sampler = Sampler {
            cumulative: Vec::with_capacity(state.amplitudes().len()),
        };
        sampler.rebuild(state);
        sampler
    }

    /// Rebuilds the sampler over a new state, reusing the table
    /// allocation — the resampling counterpart of [`Sampler::new`] for
    /// trajectory loops.
    pub fn rebuild(&mut self, state: &StateVector) {
        state.probabilities_into(&mut self.cumulative);
        let mut acc = 0.0;
        for c in &mut self.cumulative {
            acc += *c;
            *c = acc;
        }
    }

    /// Draws one basis state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty state");
        let x: f64 = rng.gen_range(0.0..total);
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }

    /// Draws `shots` basis states and tallies them.
    pub fn sample_counts<R: Rng + ?Sized>(&self, shots: u64, rng: &mut R) -> Counts {
        let mut counts = Counts::new();
        for _ in 0..shots {
            *counts.entry(self.sample(rng)).or_insert(0) += 1;
        }
        counts
    }
}

/// Applies independent per-qubit readout bit-flips to sampled counts.
///
/// `flip_probability(q)` is the readout error rate of physical qubit `q`.
/// This models the measurement errors of real devices on top of either
/// noiseless or trajectory sampling.
pub fn apply_readout_error<R, F>(
    counts: &Counts,
    num_qubits: usize,
    mut flip_probability: F,
    rng: &mut R,
) -> Counts
where
    R: Rng + ?Sized,
    F: FnMut(usize) -> f64,
{
    let flip_p: Vec<f64> = (0..num_qubits).map(&mut flip_probability).collect();
    let mut out = Counts::new();
    for (&state, &n) in counts {
        for _ in 0..n {
            let mut s = state;
            for (q, &p) in flip_p.iter().enumerate() {
                if p > 0.0 && rng.gen_bool(p) {
                    s ^= 1usize << q;
                }
            }
            *out.entry(s).or_insert(0) += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcircuit::Circuit;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn deterministic_state_always_samples_itself() {
        let mut c = Circuit::new(3);
        c.x(1);
        let sv = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(0);
        let counts = Sampler::new(&sv).sample_counts(100, &mut rng);
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[&0b010], 100);
    }

    #[test]
    fn bell_state_sampling_is_balanced() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let sv = StateVector::from_circuit(&c);
        let mut rng = StdRng::seed_from_u64(3);
        let counts = Sampler::new(&sv).sample_counts(10_000, &mut rng);
        let n00 = counts.get(&0b00).copied().unwrap_or(0) as f64;
        let n11 = counts.get(&0b11).copied().unwrap_or(0) as f64;
        assert_eq!(n00 + n11, 10_000.0);
        assert!((n00 / 10_000.0 - 0.5).abs() < 0.03);
    }

    #[test]
    fn readout_error_zero_is_identity() {
        let counts = Counts::from([(5, 10), (2, 3)]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = apply_readout_error(&counts, 3, |_| 0.0, &mut rng);
        assert_eq!(out, counts);
    }

    #[test]
    fn readout_error_one_flips_everything() {
        let counts = Counts::from([(0b000, 10)]);
        let mut rng = StdRng::seed_from_u64(1);
        let out = apply_readout_error(&counts, 3, |_| 1.0, &mut rng);
        assert_eq!(out, Counts::from([(0b111, 10)]));
    }

    #[test]
    fn readout_error_rate_statistics() {
        let counts = Counts::from([(0b0, 20_000)]);
        let mut rng = StdRng::seed_from_u64(9);
        let out = apply_readout_error(&counts, 1, |_| 0.25, &mut rng);
        let flipped = out.get(&1).copied().unwrap_or(0) as f64 / 20_000.0;
        assert!((flipped - 0.25).abs() < 0.02, "flip rate {flipped}");
    }

    #[test]
    fn sampler_matches_probabilities() {
        let mut c = Circuit::new(2);
        c.rx(1.0, 0);
        c.ry(0.7, 1);
        let sv = StateVector::from_circuit(&c);
        let probs = sv.probabilities();
        let mut rng = StdRng::seed_from_u64(17);
        let counts = Sampler::new(&sv).sample_counts(50_000, &mut rng);
        for (state, &p) in probs.iter().enumerate() {
            let freq = counts.get(&state).copied().unwrap_or(0) as f64 / 50_000.0;
            assert!((freq - p).abs() < 0.02, "state {state}: {freq} vs {p}");
        }
    }
}
