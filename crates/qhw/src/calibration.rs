use std::collections::BTreeMap;
use std::fmt;

use qgraph::Edge;
use rand::Rng;

use crate::Topology;

/// Per-device calibration data: gate and readout error rates.
///
/// The paper's reliability model (§II "Success Probability") treats the
/// success probability of a gate as `1 - error_rate` and the success
/// probability of a circuit as the product over its gates. CPHASE success
/// is the product of its two CNOTs' successes (§IV-D), which is why only
/// CNOT errors are tracked per edge.
///
/// Error rates are probabilities in `(0, 1)`; construction clamps values
/// into `[MIN_ERROR, MAX_ERROR]` to keep `1 / success` edge weights finite.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    cnot_error: BTreeMap<Edge, f64>,
    single_qubit_error: Vec<f64>,
    readout_error: Vec<f64>,
}

/// Smallest representable error rate after clamping.
pub const MIN_ERROR: f64 = 1e-6;
/// Largest representable error rate after clamping.
pub const MAX_ERROR: f64 = 0.5;

/// Clamps a rate into `[MIN_ERROR, MAX_ERROR]`, mapping every non-finite
/// input (NaN, ±∞) to the pessimistic `MAX_ERROR`.
///
/// `f64::clamp` forwards NaN unchanged, which used to let a NaN error rate
/// poison the `1 / success` reliability weights downstream; an unknown rate
/// is instead treated as a maximally unreliable link.
fn clamp(e: f64) -> f64 {
    if e.is_finite() {
        e.clamp(MIN_ERROR, MAX_ERROR)
    } else {
        MAX_ERROR
    }
}

/// Why a calibration table is unusable for a given [`Topology`].
///
/// Produced by [`Calibration::try_from_cnot_errors`] (structural problems
/// in the input table) and [`Calibration::validate`] (any corruption in an
/// already-built table, e.g. one deserialized from an external source or
/// injected by [`crate::fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CalibrationError {
    /// An entry names a qubit pair that is not a coupling of the topology.
    NotACoupling {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A coupling of the topology has no CNOT error entry.
    MissingCoupling {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A CNOT error rate is NaN or infinite.
    NonFiniteCnotRate {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A CNOT error rate lies outside `[MIN_ERROR, MAX_ERROR]` — e.g. a
    /// dead link reported with error rate 1.0, whose success rate of zero
    /// would make the `1 / success` edge weight infinite.
    CnotRateOutOfRange {
        /// One endpoint.
        u: usize,
        /// The other endpoint.
        v: usize,
    },
    /// A single-qubit or readout rate is NaN, infinite or out of range.
    QubitRateOutOfRange {
        /// The physical qubit.
        q: usize,
    },
    /// The table covers a different number of qubits than the topology.
    WrongQubitCount {
        /// Qubits the calibration covers.
        calibrated: usize,
        /// Qubits the topology has.
        physical: usize,
    },
}

impl fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibrationError::NotACoupling { u, v } => {
                write!(f, "({u}, {v}) is not a coupling of the topology")
            }
            CalibrationError::MissingCoupling { u, v } => {
                write!(f, "missing CNOT error for coupling ({u}, {v})")
            }
            CalibrationError::NonFiniteCnotRate { u, v } => {
                write!(f, "CNOT error rate on ({u}, {v}) is not finite")
            }
            CalibrationError::CnotRateOutOfRange { u, v } => write!(
                f,
                "CNOT error rate on ({u}, {v}) is outside [{MIN_ERROR}, {MAX_ERROR}]"
            ),
            CalibrationError::QubitRateOutOfRange { q } => {
                write!(f, "single-qubit/readout rate on qubit {q} is invalid")
            }
            CalibrationError::WrongQubitCount {
                calibrated,
                physical,
            } => write!(
                f,
                "calibration covers {calibrated} qubits but the topology has {physical}"
            ),
        }
    }
}

impl std::error::Error for CalibrationError {}

impl Calibration {
    /// Builds calibration data from explicit per-edge CNOT errors plus
    /// uniform single-qubit and readout errors.
    ///
    /// Thin panicking wrapper around
    /// [`Calibration::try_from_cnot_errors`]; prefer the fallible form
    /// when the error table comes from an external source (a calibration
    /// service, a file) rather than from code you control.
    ///
    /// # Panics
    ///
    /// Panics if an edge in `cnot_errors` is not a coupling of `topology`,
    /// if any coupling lacks an entry, or if any rate is non-finite.
    pub fn from_cnot_errors(
        topology: &Topology,
        cnot_errors: &[((usize, usize), f64)],
        single_qubit_error: f64,
        readout_error: f64,
    ) -> Self {
        match Calibration::try_from_cnot_errors(
            topology,
            cnot_errors,
            single_qubit_error,
            readout_error,
        ) {
            Ok(cal) => cal,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Calibration::from_cnot_errors`]: a structured
    /// [`CalibrationError`] instead of a panic for unknown or missing
    /// couplings and non-finite rates. Finite rates are clamped into
    /// `[MIN_ERROR, MAX_ERROR]` as the panicking constructor always did.
    pub fn try_from_cnot_errors(
        topology: &Topology,
        cnot_errors: &[((usize, usize), f64)],
        single_qubit_error: f64,
        readout_error: f64,
    ) -> Result<Self, CalibrationError> {
        let mut map = BTreeMap::new();
        for &((u, v), e) in cnot_errors {
            if !topology.are_coupled(u, v) {
                return Err(CalibrationError::NotACoupling { u, v });
            }
            if !e.is_finite() {
                return Err(CalibrationError::NonFiniteCnotRate { u, v });
            }
            map.insert(Edge::new(u, v), clamp(e));
        }
        for edge in topology.graph().edges() {
            if !map.contains_key(&edge) {
                return Err(CalibrationError::MissingCoupling {
                    u: edge.a(),
                    v: edge.b(),
                });
            }
        }
        if !single_qubit_error.is_finite() || !readout_error.is_finite() {
            return Err(CalibrationError::QubitRateOutOfRange { q: 0 });
        }
        let n = topology.num_qubits();
        Ok(Calibration {
            cnot_error: map,
            single_qubit_error: vec![clamp(single_qubit_error); n],
            readout_error: vec![clamp(readout_error); n],
        })
    }

    /// Builds a calibration from raw, **unsanitized** parts — rates are
    /// stored verbatim, including NaN, infinities and out-of-range values.
    ///
    /// This is the [`crate::fault`] injector's backdoor for modeling
    /// corrupted calibration feeds; everything downstream must survive
    /// such a table via [`Calibration::validate`].
    pub(crate) fn from_raw_parts(
        cnot_error: BTreeMap<Edge, f64>,
        single_qubit_error: Vec<f64>,
        readout_error: Vec<f64>,
    ) -> Self {
        Calibration {
            cnot_error,
            single_qubit_error,
            readout_error,
        }
    }

    /// Checks this table is usable for `topology`: every coupling is
    /// calibrated (and nothing else is), and every rate is finite and
    /// inside `[MIN_ERROR, MAX_ERROR]`.
    ///
    /// Tables built by this module's constructors always validate; a table
    /// from an external feed (or the [`crate::fault`] injector) may not.
    /// The compile stack calls this before trusting `1 / success`
    /// reliability weights.
    pub fn validate(&self, topology: &Topology) -> Result<(), CalibrationError> {
        let n = topology.num_qubits();
        if self.single_qubit_error.len() != n || self.readout_error.len() != n {
            return Err(CalibrationError::WrongQubitCount {
                calibrated: self.num_qubits(),
                physical: n,
            });
        }
        for (&edge, &e) in &self.cnot_error {
            let (u, v) = (edge.a(), edge.b());
            if !topology.are_coupled(u, v) {
                return Err(CalibrationError::NotACoupling { u, v });
            }
            if !e.is_finite() {
                return Err(CalibrationError::NonFiniteCnotRate { u, v });
            }
            if !(MIN_ERROR..=MAX_ERROR).contains(&e) {
                return Err(CalibrationError::CnotRateOutOfRange { u, v });
            }
        }
        for edge in topology.graph().edges() {
            if !self.cnot_error.contains_key(&edge) {
                return Err(CalibrationError::MissingCoupling {
                    u: edge.a(),
                    v: edge.b(),
                });
            }
        }
        for q in 0..n {
            let s = self.single_qubit_error[q];
            let r = self.readout_error[q];
            if !s.is_finite()
                || !r.is_finite()
                || !(0.0..=1.0).contains(&s)
                || !(0.0..=1.0).contains(&r)
            {
                return Err(CalibrationError::QubitRateOutOfRange { q });
            }
        }
        Ok(())
    }

    /// Uniform calibration: every coupling shares `cnot_error`, every qubit
    /// shares `single_qubit_error` and `readout_error`. With uniform
    /// calibration VIC degenerates to IC (all paths equally reliable).
    pub fn uniform(
        topology: &Topology,
        cnot_error: f64,
        single_qubit_error: f64,
        readout_error: f64,
    ) -> Self {
        let cnot = clamp(cnot_error);
        Calibration {
            cnot_error: topology.graph().edges().map(|e| (e, cnot)).collect(),
            single_qubit_error: vec![clamp(single_qubit_error); topology.num_qubits()],
            readout_error: vec![clamp(readout_error); topology.num_qubits()],
        }
    }

    /// Random calibration with CNOT errors drawn from a normal distribution
    /// `N(mu, sigma)` (clamped), matching the paper's §V-F setup
    /// (`μ = 1.0e-2, σ = 0.5e-2`). Uses Box–Muller so only `rand`'s uniform
    /// sampler is required.
    pub fn random_normal<R: Rng + ?Sized>(
        topology: &Topology,
        mu: f64,
        sigma: f64,
        rng: &mut R,
    ) -> Self {
        let mut sample = || -> f64 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            clamp(mu + sigma * z)
        };
        let cnot_error = topology.graph().edges().map(|e| (e, sample())).collect();
        let n = topology.num_qubits();
        let single: Vec<f64> = (0..n).map(|_| clamp(sample() / 10.0)).collect();
        let readout: Vec<f64> = (0..n).map(|_| clamp(sample() * 2.0)).collect();
        Calibration {
            cnot_error,
            single_qubit_error: single,
            readout_error: readout,
        }
    }

    /// The `ibmq_16_melbourne` CNOT error rates reported in Figure 10(a)
    /// (calibration of 2020-04-08), with typical single-qubit and readout
    /// errors for that device generation.
    ///
    /// The figure's edge→value pairing is partially ambiguous in the
    /// paper's text; the assignment below preserves the exact multiset of
    /// published error rates and the qualitative layout (reliable links
    /// near qubits 0–3, noisy links around 13–14 and 8–9), which is what
    /// the VIC experiments depend on.
    pub fn melbourne_2020_04_08() -> (Topology, Calibration) {
        let topo = Topology::ibmq_16_melbourne();
        let errors = [
            ((0, 1), 1.87e-2),
            ((1, 2), 1.54e-2),
            ((2, 3), 2.26e-2),
            ((3, 4), 2.96e-2),
            ((4, 5), 3.68e-2),
            ((5, 6), 4.11e-2),
            ((14, 13), 8.29e-2),
            ((13, 12), 5.03e-2),
            ((12, 11), 7.63e-2),
            ((11, 10), 5.80e-2),
            ((10, 9), 4.70e-2),
            ((9, 8), 3.46e-2),
            ((0, 14), 7.63e-2),
            ((1, 13), 2.85e-2),
            ((2, 12), 8.60e-2),
            ((3, 11), 4.16e-2),
            ((4, 10), 7.78e-2),
            ((5, 9), 3.89e-2),
            ((6, 8), 1.77e-2),
            ((7, 8), 2.87e-2),
        ];
        let cal = Calibration::from_cnot_errors(&topo, &errors, 1e-3, 3e-2);
        (topo, cal)
    }

    /// A temporally drifted copy of this calibration: each CNOT error is
    /// multiplied by a log-normal factor `exp(sigma * z)`, `z ~ N(0, 1)`.
    ///
    /// Models the day-to-day variation of qubit quality metrics (\[69\],
    /// cited by §VII): compiling against yesterday's calibration and
    /// executing under today's is exactly the mismatch the
    /// `ext_stale_calibration` experiment measures for VIC.
    pub fn drifted<R: Rng + ?Sized>(&self, sigma: f64, rng: &mut R) -> Calibration {
        let mut lognormal = |e: f64| -> f64 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            clamp(e * (sigma * z).exp())
        };
        Calibration {
            cnot_error: self
                .cnot_error
                .iter()
                .map(|(&edge, &e)| (edge, lognormal(e)))
                .collect(),
            single_qubit_error: self
                .single_qubit_error
                .iter()
                .map(|&e| lognormal(e))
                .collect(),
            readout_error: self.readout_error.iter().map(|&e| lognormal(e)).collect(),
        }
    }

    /// CNOT error rate on the coupling `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `(u, v)` is not a calibrated coupling.
    pub fn cnot_error(&self, u: usize, v: usize) -> f64 {
        *self
            .cnot_error
            .get(&Edge::new(u, v))
            .unwrap_or_else(|| panic!("({u}, {v}) is not a calibrated coupling"))
    }

    /// CNOT success rate `1 - error` on the coupling `(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `(u, v)` is not a calibrated coupling.
    pub fn cnot_success(&self, u: usize, v: usize) -> f64 {
        1.0 - self.cnot_error(u, v)
    }

    /// Single-qubit gate error rate on physical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn single_qubit_error(&self, q: usize) -> f64 {
        self.single_qubit_error[q]
    }

    /// Readout (measurement) error rate on physical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error[q]
    }

    /// Number of calibrated qubits.
    pub fn num_qubits(&self) -> usize {
        self.single_qubit_error.len()
    }

    /// Iterates over `(edge, cnot_error)` pairs in canonical edge order.
    pub fn cnot_errors(&self) -> impl Iterator<Item = (Edge, f64)> + '_ {
        self.cnot_error.iter().map(|(&e, &err)| (e, err))
    }

    /// The best (lowest-error) coupling, or `None` for a device with no
    /// couplings.
    pub fn best_coupling(&self) -> Option<(Edge, f64)> {
        self.cnot_errors().min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// The worst (highest-error) coupling.
    pub fn worst_coupling(&self) -> Option<(Edge, f64)> {
        self.cnot_errors().max_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Stable fingerprint of this calibration epoch: every CNOT,
    /// single-qubit and readout error rate hashed bit-exactly (via
    /// `f64::to_bits`, so even a one-ULP drift reads as a new epoch).
    /// Combined with [`crate::Topology::fingerprint`] this keys the
    /// shared-context and compiled-artifact caches.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.num_qubits().hash(&mut h);
        for (e, rate) in self.cnot_errors() {
            (e.a(), e.b(), rate.to_bits()).hash(&mut h);
        }
        for q in 0..self.num_qubits() {
            self.single_qubit_error(q).to_bits().hash(&mut h);
            self.readout_error(q).to_bits().hash(&mut h);
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_every_coupling() {
        let t = Topology::ibmq_20_tokyo();
        let c = Calibration::uniform(&t, 0.01, 0.001, 0.02);
        for e in t.graph().edges() {
            assert_eq!(c.cnot_error(e.a(), e.b()), 0.01);
            assert_eq!(c.cnot_success(e.a(), e.b()), 0.99);
        }
        assert_eq!(c.num_qubits(), 20);
    }

    #[test]
    #[should_panic]
    fn uncoupled_pair_panics() {
        let t = Topology::linear(3);
        let c = Calibration::uniform(&t, 0.01, 0.001, 0.02);
        let _ = c.cnot_error(0, 2);
    }

    #[test]
    fn melbourne_calibration_matches_figure() {
        let (topo, cal) = Calibration::melbourne_2020_04_08();
        assert_eq!(cal.num_qubits(), 15);
        // Every coupling in the topology is calibrated.
        for e in topo.graph().edges() {
            assert!(cal.cnot_error(e.a(), e.b()) > 0.0);
        }
        // Spot values from Figure 10(a).
        assert!((cal.cnot_error(0, 1) - 1.87e-2).abs() < 1e-12);
        assert!((cal.cnot_error(2, 12) - 8.60e-2).abs() < 1e-12);
        assert!((cal.cnot_error(7, 8) - 2.87e-2).abs() < 1e-12);
        // Published best/worst links.
        assert_eq!(cal.best_coupling().unwrap().1, 1.54e-2);
        assert_eq!(cal.worst_coupling().unwrap().1, 8.60e-2);
    }

    #[test]
    fn random_normal_is_clamped_and_seeded() {
        let t = Topology::grid(6, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let c1 = Calibration::random_normal(&t, 1.0e-2, 0.5e-2, &mut rng);
        for (_, e) in c1.cnot_errors() {
            assert!((MIN_ERROR..=MAX_ERROR).contains(&e));
        }
        let mut rng2 = StdRng::seed_from_u64(7);
        let c2 = Calibration::random_normal(&t, 1.0e-2, 0.5e-2, &mut rng2);
        assert_eq!(c1, c2);
    }

    #[test]
    fn random_normal_mean_is_close_to_mu() {
        let t = Topology::grid(10, 10);
        let mut rng = StdRng::seed_from_u64(21);
        let c = Calibration::random_normal(&t, 1.0e-2, 0.5e-2, &mut rng);
        let errs: Vec<f64> = c.cnot_errors().map(|(_, e)| e).collect();
        let mean = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!((mean - 1.0e-2).abs() < 2.0e-3, "mean = {mean}");
    }

    #[test]
    fn from_cnot_errors_clamps() {
        let t = Topology::linear(2);
        let c = Calibration::from_cnot_errors(&t, &[((0, 1), 2.0)], 0.0, -1.0);
        assert_eq!(c.cnot_error(0, 1), MAX_ERROR);
        assert_eq!(c.single_qubit_error(0), MIN_ERROR);
        assert_eq!(c.readout_error(1), MIN_ERROR);
    }

    #[test]
    #[should_panic]
    fn missing_coupling_entry_panics() {
        let t = Topology::linear(3);
        let _ = Calibration::from_cnot_errors(&t, &[((0, 1), 0.01)], 0.001, 0.02);
    }

    #[test]
    fn clamp_maps_non_finite_rates_to_max_error() {
        // `f64::clamp` forwards NaN; ours must not (NaN would otherwise
        // poison every `1 / success` reliability weight downstream).
        assert_eq!(clamp(f64::NAN), MAX_ERROR);
        assert_eq!(clamp(f64::INFINITY), MAX_ERROR);
        assert_eq!(clamp(f64::NEG_INFINITY), MAX_ERROR);
        assert_eq!(clamp(0.25), 0.25);
        assert_eq!(clamp(-3.0), MIN_ERROR);
        assert_eq!(clamp(7.0), MAX_ERROR);
        // Constructors that sanitize inherit the mapping.
        let t = Topology::linear(2);
        let c = Calibration::uniform(&t, f64::NAN, f64::INFINITY, f64::NAN);
        assert!(c.validate(&t).is_ok());
        assert_eq!(c.cnot_error(0, 1), MAX_ERROR);
        assert_eq!(c.single_qubit_error(0), MAX_ERROR);
    }

    #[test]
    fn try_from_cnot_errors_reports_structured_errors() {
        let t = Topology::linear(3);
        // Unknown coupling.
        let err = Calibration::try_from_cnot_errors(
            &t,
            &[((0, 1), 0.01), ((1, 2), 0.01), ((0, 2), 0.01)],
            0.001,
            0.02,
        )
        .unwrap_err();
        assert_eq!(err, CalibrationError::NotACoupling { u: 0, v: 2 });
        // Missing coupling.
        let err =
            Calibration::try_from_cnot_errors(&t, &[((0, 1), 0.01)], 0.001, 0.02).unwrap_err();
        assert_eq!(err, CalibrationError::MissingCoupling { u: 1, v: 2 });
        // Non-finite rate.
        let err = Calibration::try_from_cnot_errors(
            &t,
            &[((0, 1), f64::NAN), ((1, 2), 0.01)],
            0.001,
            0.02,
        )
        .unwrap_err();
        assert_eq!(err, CalibrationError::NonFiniteCnotRate { u: 0, v: 1 });
        // A good table round-trips and matches the panicking constructor.
        let table = [((0, 1), 0.01), ((1, 2), 0.03)];
        let a = Calibration::try_from_cnot_errors(&t, &table, 0.001, 0.02).unwrap();
        let b = Calibration::from_cnot_errors(&t, &table, 0.001, 0.02);
        assert_eq!(a, b);
        assert!(a.validate(&t).is_ok());
    }

    #[test]
    fn validate_rejects_raw_corruption() {
        let t = Topology::linear(3);
        let good = Calibration::uniform(&t, 0.02, 0.001, 0.02);
        assert!(good.validate(&t).is_ok());
        // Wrong device entirely.
        assert_eq!(
            good.validate(&Topology::linear(4)).unwrap_err(),
            CalibrationError::WrongQubitCount {
                calibrated: 3,
                physical: 4
            }
        );
        // Raw NaN smuggled in.
        let mut map: BTreeMap<Edge, f64> = good.cnot_errors().collect();
        map.insert(Edge::new(0, 1), f64::NAN);
        let bad = Calibration::from_raw_parts(map, vec![0.001; 3], vec![0.02; 3]);
        assert_eq!(
            bad.validate(&t).unwrap_err(),
            CalibrationError::NonFiniteCnotRate { u: 0, v: 1 }
        );
        // Dead link: error rate 1.0 ⇒ success 0 ⇒ infinite edge weight.
        let mut map: BTreeMap<Edge, f64> = good.cnot_errors().collect();
        map.insert(Edge::new(1, 2), 1.0);
        let dead = Calibration::from_raw_parts(map, vec![0.001; 3], vec![0.02; 3]);
        assert_eq!(
            dead.validate(&t).unwrap_err(),
            CalibrationError::CnotRateOutOfRange { u: 1, v: 2 }
        );
        // Missing edge entry.
        let mut map: BTreeMap<Edge, f64> = good.cnot_errors().collect();
        map.remove(&Edge::new(1, 2));
        let sparse = Calibration::from_raw_parts(map, vec![0.001; 3], vec![0.02; 3]);
        assert_eq!(
            sparse.validate(&t).unwrap_err(),
            CalibrationError::MissingCoupling { u: 1, v: 2 }
        );
    }
}

#[cfg(test)]
mod drift_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn drift_preserves_structure_and_clamps() {
        let (topo, cal) = Calibration::melbourne_2020_04_08();
        let mut rng = StdRng::seed_from_u64(7);
        let drifted = cal.drifted(0.4, &mut rng);
        assert_eq!(drifted.num_qubits(), cal.num_qubits());
        for e in topo.graph().edges() {
            let d = drifted.cnot_error(e.a(), e.b());
            assert!((MIN_ERROR..=MAX_ERROR).contains(&d));
        }
        // Drift changes values but not wildly in expectation.
        let mean_orig: f64 = cal.cnot_errors().map(|(_, e)| e).sum::<f64>() / 20.0;
        let mean_drift: f64 = drifted.cnot_errors().map(|(_, e)| e).sum::<f64>() / 20.0;
        assert!((mean_drift / mean_orig) > 0.5 && (mean_drift / mean_orig) < 2.5);
    }

    #[test]
    fn zero_sigma_is_identity() {
        let (_, cal) = Calibration::melbourne_2020_04_08();
        let mut rng = StdRng::seed_from_u64(7);
        let same = cal.drifted(0.0, &mut rng);
        assert_eq!(same, cal);
    }
}
