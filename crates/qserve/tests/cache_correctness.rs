//! Cache-correctness suite: structural hashing over generated programs,
//! bit-exact program identity, and calibration-epoch invalidation.
//!
//! The service trusts [`qserve::spec_fingerprint`] only as a bucket
//! locator — full key equality is verified on every hit (see the
//! forced-collision unit test inside `qserve::cache`) — but the
//! fingerprint should still separate distinct programs essentially
//! always, and must be a pure function of program structure. Its values
//! also name spill files, quarantine entries and journal records, so
//! they are pinned against a frozen copy of the original piecewise hash.
//! Equality and the fingerprint agree bit for bit: a NaN-angle program
//! hits like any other, and `+0.0` and `-0.0` angles are two programs.
//! The epoch tests pin the invalidation contract: a calibration reload
//! never lets a VIC artifact compiled under the old epoch be served
//! again, and never touches calibration-independent entries.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use proptest::prelude::*;
use qaoa::ising::IsingProblem;
use qaoa::{MaxCut, QaoaParams};
use qcircuit::{Angle, ParamId, ParamValues};
use qcompile::{CompileOptions, CphaseOp, QaoaSpec};
use qhw::{Calibration, Topology};
use qserve::{spec_fingerprint, CacheKey, Outcome, Request, Service, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The fingerprint as it was first defined, hashed piece by piece from
/// the accessors. Frozen: the stored fingerprint must reproduce it
/// exactly, because persisted spill names and journals carry it.
fn oracle_fingerprint(spec: &QaoaSpec) -> u64 {
    let mut h = DefaultHasher::new();
    spec.num_qubits().hash(&mut h);
    spec.measure().hash(&mut h);
    spec.levels().len().hash(&mut h);
    for (level, (ops, mixer)) in spec.levels().iter().enumerate() {
        ops.len().hash(&mut h);
        for op in ops {
            op.a.hash(&mut h);
            op.b.hash(&mut h);
            hash_angle(&op.angle, &mut h);
        }
        hash_angle(mixer, &mut h);
        let fields = spec.field_terms(level);
        fields.len().hash(&mut h);
        for (q, angle) in fields {
            q.hash(&mut h);
            hash_angle(angle, &mut h);
        }
    }
    spec.param_table().len().hash(&mut h);
    for (_, name) in spec.param_table().iter() {
        name.hash(&mut h);
    }
    h.finish()
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

fn spec_from(n: usize, edges: &[(usize, usize)], levels: usize, angle: f64) -> QaoaSpec {
    let per_level: Vec<(Vec<CphaseOp>, f64)> = (0..levels)
        .map(|k| {
            let ops = edges
                .iter()
                .map(|&(a, b)| CphaseOp::new(a, b, angle + k as f64))
                .collect();
            (ops, 0.3 + k as f64 * 0.1)
        })
        .collect();
    QaoaSpec::new(n, per_level, true)
}

fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect()
}

/// Strategy: a qubit count and a non-empty edge subset of its complete
/// graph.
fn arb_program() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (4usize..=8).prop_flat_map(|n| {
        let universe = all_pairs(n);
        let edges = proptest::sample::subsequence(universe.clone(), 1..=universe.len());
        (Just(n), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural hashing: rebuilding a spec from the same parts gives
    /// the same fingerprint, and any structural difference — edge set,
    /// level count, angle bits, qubit count — moves it.
    #[test]
    fn fingerprint_is_structural(
        problem in arb_program(),
        levels in 1usize..=2,
    ) {
        let (n, edges) = problem;
        let spec = spec_from(n, &edges, levels, 0.5);

        // Pure function of structure.
        prop_assert_eq!(spec_fingerprint(&spec), spec_fingerprint(&spec_from(n, &edges, levels, 0.5)));

        // Distinct structures hash apart (64-bit hash over tiny
        // generated sets: a collision here means the hash ignores the
        // mutated component, not bad luck).
        let mut fewer = edges.clone();
        if fewer.len() > 1 {
            fewer.pop();
            prop_assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&spec_from(n, &fewer, levels, 0.5)));
        }
        prop_assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&spec_from(n, &edges, levels + 1, 0.5)));
        prop_assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&spec_from(n, &edges, levels, 0.5000001)));
        prop_assert_ne!(spec_fingerprint(&spec), spec_fingerprint(&spec_from(n + 1, &edges, levels, 0.5)));

        // Key fingerprints additionally separate options, topology and
        // (for VIC only) the calibration epoch.
        let base = CacheKey::new(spec.clone(), CompileOptions::ic(), 7, 0);
        prop_assert_ne!(
            base.fingerprint(),
            CacheKey::new(spec.clone(), CompileOptions::ip(), 7, 0).fingerprint()
        );
        prop_assert_ne!(
            base.fingerprint(),
            CacheKey::new(spec.clone(), CompileOptions::ic(), 8, 0).fingerprint()
        );
        // IC ignores the epoch; VIC bakes it in.
        prop_assert_eq!(
            base.fingerprint(),
            CacheKey::new(spec.clone(), CompileOptions::ic(), 7, 5).fingerprint()
        );
        prop_assert_ne!(
            CacheKey::new(spec.clone(), CompileOptions::vic(), 7, 0).fingerprint(),
            CacheKey::new(spec, CompileOptions::vic(), 7, 5).fingerprint()
        );
    }
}

/// Angles the fingerprint must hash bit-exactly, special values included.
fn arb_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        -4.0f64..4.0,
        Just(f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

fn arb_angle() -> impl Strategy<Value = Angle> {
    prop_oneof![
        arb_value().prop_map(Angle::Const),
        (0u32..2, arb_value()).prop_map(|(p, scale)| Angle::Sym {
            param: ParamId(p),
            scale,
        }),
    ]
}

/// Every way a spec comes to exist: each public constructor and
/// builder, a bind, and clones taken before a builder consumed the
/// original. Angles are drawn from `pool`, values from `values`.
fn specs_from_every_constructor(
    n: usize,
    edges: &[(usize, usize)],
    p: usize,
    pool: &[Angle],
    values: &[f64],
) -> Vec<(&'static str, QaoaSpec)> {
    let angle = |k: usize| pool[k % pool.len()];
    let levels: Vec<(Vec<CphaseOp>, Angle)> = (0..p)
        .map(|l| {
            let ops = edges
                .iter()
                .enumerate()
                .map(|(i, &(a, b))| CphaseOp::new(a, b, angle(l * edges.len() + i)))
                .collect();
            (ops, angle(l + 5))
        })
        .collect();
    let fields: Vec<Vec<(usize, Angle)>> = (0..p)
        .map(|l| {
            (0..n)
                .step_by(l + 1)
                .map(|q| (q, angle(q + 3 * l + 1)))
                .collect()
        })
        .collect();
    let table = QaoaSpec::parametric_table(p);
    let flat = ParamValues::new(values[..2 * p].to_vec());

    let base = QaoaSpec::new(n, levels, true);
    let fielded = base.clone().with_fields(fields.clone());
    let tabled = fielded.clone().with_params(table.clone());
    let reordered = base.clone().with_params(table).with_fields(fields);

    let graph = qgraph::Graph::from_edges(n, edges.iter().copied()).unwrap();
    let maxcut = MaxCut::without_optimum(graph);
    let params = QaoaParams::new((0..p).map(|l| (values[2 * l], values[2 * l + 1])).collect());
    let couplings = edges
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| (a, b, i as f64 * 0.5 - 1.0))
        .collect();
    let ising = IsingProblem::new(n, couplings, (0..n).map(|q| (q % 3) as f64 - 1.0).collect());
    let maxcut_parametric = QaoaSpec::from_maxcut_parametric(&maxcut, p, false);
    let ising_parametric = QaoaSpec::from_ising_parametric(&ising, p, true);

    vec![
        ("new", base.clone()),
        ("with_fields", fielded.clone()),
        ("with_params", tabled.clone()),
        ("with_params then with_fields", reordered),
        ("bind", tabled.bind(&flat).unwrap()),
        ("bind without a table", fielded.bind(&flat).unwrap()),
        ("from_maxcut", QaoaSpec::from_maxcut(&maxcut, &params, true)),
        ("from_maxcut_parametric", maxcut_parametric.clone()),
        (
            "bound from_maxcut_parametric",
            maxcut_parametric.bind(&flat).unwrap(),
        ),
        ("from_ising", QaoaSpec::from_ising(&ising, &params, false)),
        ("from_ising_parametric", ising_parametric.clone()),
        (
            "bound from_ising_parametric",
            ising_parametric.bind(&flat).unwrap(),
        ),
        ("clone kept across with_fields", base),
        ("clone kept across with_params", fielded),
        ("clone kept across bind", tabled),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The stored fingerprint is the frozen piecewise hash for every
    /// constructor, builder and bind, and no clone carries a stale
    /// value. Equality agrees with it: each spec equals its clone and a
    /// bit-identical rebuild, NaN angles included.
    #[test]
    fn stored_fingerprint_matches_the_frozen_oracle(
        problem in arb_program(),
        p in 1usize..=3,
        pool in proptest::collection::vec(arb_angle(), 1..12),
        values in proptest::collection::vec(arb_value(), 6..=6),
    ) {
        let (n, edges) = problem;
        let specs = specs_from_every_constructor(n, &edges, p, &pool, &values);
        let rebuilt = specs_from_every_constructor(n, &edges, p, &pool, &values);
        for ((name, spec), (_, twin)) in specs.iter().zip(&rebuilt) {
            let oracle = oracle_fingerprint(spec);
            prop_assert_eq!(spec.fingerprint(), oracle, "{}", name);
            prop_assert_eq!(spec_fingerprint(spec), oracle, "{}", name);
            prop_assert_eq!(spec.clone().fingerprint(), oracle, "{}", name);
            prop_assert!(*spec == spec.clone(), "{} differs from its clone", name);
            prop_assert!(spec == twin, "{} differs from its rebuild", name);
            prop_assert_eq!(twin.fingerprint(), oracle, "{}", name);
        }
    }
}

/// Literal fingerprints, computed before the fingerprint was stored:
/// changing one orphans every spill file and journal record that
/// carries it.
#[test]
fn fingerprint_literals_are_pinned() {
    let ops = vec![
        CphaseOp::new(0, 1, 0.5),
        CphaseOp::new(1, 2, 0.5),
        CphaseOp::new(2, 3, 0.5),
    ];
    let crate_doc = QaoaSpec::new(4, vec![(ops, 0.3)], true);
    let one_op = || QaoaSpec::new(4, vec![(vec![CphaseOp::new(0, 1, 0.5)], 0.3)], true);
    let fielded = one_op().with_fields(vec![vec![(2, 0.7)]]);
    let tabled = one_op().with_params(QaoaSpec::parametric_table(1));
    for (spec, pinned) in [
        (crate_doc, 0x6309e8651d6c9208),
        (fielded, 0x1e1f87b93d9d93d7),
        (tabled, 0x4004aa97ff6302b9),
    ] {
        assert_eq!(spec_fingerprint(&spec), pinned);
        assert_eq!(spec.fingerprint(), pinned);
        assert_eq!(oracle_fingerprint(&spec), pinned);
    }
}

fn spec_with_mixer(mixer: f64) -> QaoaSpec {
    let ops = vec![
        CphaseOp::new(0, 1, 0.5),
        CphaseOp::new(1, 2, 0.5),
        CphaseOp::new(2, 3, 0.5),
    ];
    QaoaSpec::new(4, vec![(ops, mixer)], true)
}

/// A program with a NaN angle is one program: resubmitting it hits the
/// entry its first submit reserved instead of compiling (and caching)
/// a fresh copy per request, which would let one bad program flush the
/// whole cache.
#[test]
fn nan_angle_program_hits_instead_of_flooding_the_cache() {
    let service = Service::new(
        Topology::grid(3, 3),
        None,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    // Each submit builds the spec afresh, so no two share a body.
    let tickets: Vec<_> = (0..5)
        .map(|_| {
            let spec = spec_with_mixer(f64::NAN);
            service.submit(Request::new(0, spec, CompileOptions::ic(), 7))
        })
        .collect();
    let outcomes: Vec<Outcome> = tickets.iter().map(|t| t.outcome()).collect();
    assert_eq!(outcomes[0], Outcome::Miss);
    assert!(
        outcomes[1..].iter().all(|&o| o == Outcome::Hit),
        "{outcomes:?}"
    );
    let mut compiles = 0;
    while service.drain_one() {
        compiles += 1;
    }
    assert_eq!(compiles, 1, "one compile serves every resubmission");
    let results: Vec<_> = tickets.into_iter().map(|t| t.wait().result).collect();
    let first = results[0].as_ref().expect("NaN angles compile");
    for result in &results[1..] {
        assert!(Arc::ptr_eq(first, result.as_ref().unwrap()));
    }
    let stats = service.stats();
    assert_eq!((stats.misses, stats.hits), (1, 4));
    assert_eq!(stats.cached_entries, 1);
}

/// `+0.0` and `-0.0` have different bits, so they are two programs: the
/// fingerprints differ, equality agrees, and each compiles once.
#[test]
fn signed_zero_angles_are_distinct_programs() {
    let (pos, neg) = (spec_with_mixer(0.0), spec_with_mixer(-0.0));
    assert_ne!(pos.fingerprint(), neg.fingerprint());
    assert_ne!(pos, neg);
    assert_eq!(pos, spec_with_mixer(0.0));
    assert_eq!(neg, spec_with_mixer(-0.0));

    let service = Service::new(
        Topology::grid(3, 3),
        None,
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let outcomes: Vec<Outcome> = [&pos, &neg, &pos, &neg]
        .into_iter()
        .map(|spec| {
            let request = Request::new(0, spec.clone(), CompileOptions::ic(), 7);
            service.warm(request).outcome
        })
        .collect();
    assert_eq!(
        outcomes,
        [Outcome::Miss, Outcome::Miss, Outcome::Hit, Outcome::Hit]
    );
    assert_eq!(service.stats().cached_entries, 2);
}

/// A calibration hot-reload must never serve a VIC artifact compiled
/// under the previous epoch, and must leave hop-metric artifacts alone.
#[test]
fn epoch_bump_never_serves_stale_vic() {
    let topo = Topology::ibmq_20_tokyo();
    let cal_a = Calibration::random_normal(&topo, 2e-2, 8e-3, &mut StdRng::seed_from_u64(11));
    let cal_b = Calibration::random_normal(&topo, 2e-2, 8e-3, &mut StdRng::seed_from_u64(99));
    assert_ne!(cal_a.fingerprint(), cal_b.fingerprint());

    let service = Service::new(
        topo.clone(),
        Some(cal_a),
        ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let g = qgraph::generators::connected_erdos_renyi(12, 0.3, 1000, &mut rng).unwrap();
    let problem = qaoa::MaxCut::without_optimum(g);
    let spec = QaoaSpec::from_maxcut_parametric(&problem, 1, true);

    let vic = Request::new(0, spec.clone(), CompileOptions::vic(), 7);
    let ic = Request::new(0, spec.clone(), CompileOptions::ic(), 7);
    let vic_before = service.warm(vic.clone());
    let ic_before = service.warm(ic.clone());
    assert_eq!(vic_before.outcome, Outcome::Miss);
    assert_eq!(service.warm(vic.clone()).outcome, Outcome::Hit);

    let invalidated = service.reload_calibration(Some(cal_b.clone()));
    assert_eq!(invalidated, 1, "exactly the VIC entry drops");
    assert_eq!(service.epoch(), 1);

    // The VIC key re-misses and recompiles against the new epoch…
    let vic_after = service.warm(vic);
    assert_eq!(vic_after.outcome, Outcome::Miss);
    let (old, new) = (
        vic_before.result.as_ref().unwrap(),
        vic_after.result.as_ref().unwrap(),
    );
    assert!(!Arc::ptr_eq(old, new), "stale artifact must not be served");
    // …and the recompile matches a fresh compile under the new tables.
    let fresh_context = qhw::HardwareContext::with_calibration(topo, cal_b);
    let fresh = qcompile::try_compile_artifact_with_context(
        &spec,
        &fresh_context,
        &CompileOptions::vic(),
        &mut StdRng::seed_from_u64(7),
    )
    .unwrap();
    assert_eq!(new.template().physical(), fresh.template().physical());

    // The IC entry survived: same Arc, no recompile.
    let ic_after = service.warm(ic);
    assert_eq!(ic_after.outcome, Outcome::Hit);
    assert!(Arc::ptr_eq(
        ic_before.result.as_ref().unwrap(),
        ic_after.result.as_ref().unwrap(),
    ));

    let stats = service.stats();
    assert_eq!(stats.invalidated, 1);
    assert_eq!(stats.epoch_bumps, 1);
    assert_eq!(stats.hits, 2);
    assert_eq!(stats.misses, 3);
}
