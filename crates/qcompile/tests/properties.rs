//! Property-based tests for the compilation methodologies.

use proptest::prelude::*;
use qcompile::ip::{flatten, pack_layers};
use qcompile::mapping::{greedy_v, qaim, qaim_variant, QaimVariant};
use qcompile::{try_compile_artifact_with_context, CompileOptions, CphaseOp, QaoaSpec};
use qhw::Topology;
use qroute::satisfies_coupling;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Strategy: a CPHASE list over `n` logical qubits (a random subset of
/// edges of the complete graph).
fn arb_ops(n: usize) -> impl Strategy<Value = Vec<CphaseOp>> {
    let all: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
        .collect();
    proptest::sample::subsequence(all.clone(), 0..=all.len()).prop_map(|edges| {
        edges
            .into_iter()
            .map(|(a, b)| CphaseOp::new(a, b, 0.4))
            .collect()
    })
}

fn canonical(ops: &[CphaseOp]) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = ops.iter().map(|o| (o.a.min(o.b), o.a.max(o.b))).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packing_preserves_ops_and_respects_bins(
        ops in arb_ops(10),
        seed in 0u64..200,
        limit in proptest::option::of(1usize..6),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = pack_layers(10, &ops, limit, &mut rng);
        // multiset preserved
        prop_assert_eq!(canonical(&flatten(&layers)), canonical(&ops));
        for layer in &layers {
            if let Some(lim) = limit {
                prop_assert!(layer.len() <= lim);
            }
            let mut used = std::collections::HashSet::new();
            for op in layer {
                prop_assert!(used.insert(op.a));
                prop_assert!(used.insert(op.b));
            }
        }
        // Layer count is at least the MOQ bound.
        if !ops.is_empty() {
            let profile = qcompile::ProgramProfile::from_ops(10, &ops);
            prop_assert!(layers.len() >= profile.moq());
        }
    }

    #[test]
    fn mappings_are_injective_and_in_range(ops in arb_ops(10), variant_idx in 0usize..4) {
        prop_assume!(!ops.is_empty());
        let spec = QaoaSpec::new(10, vec![(ops, 0.3)], false);
        let topo = Topology::ibmq_20_tokyo();
        let variant = [
            QaimVariant::Full,
            QaimVariant::DegreeStrength,
            QaimVariant::NoDistance,
            QaimVariant::NoStrength,
        ][variant_idx];
        for layout in [qaim_variant(&spec, &topo, variant), greedy_v(&spec, &topo)] {
            let mut seen = std::collections::HashSet::new();
            for (_, p) in layout.iter() {
                prop_assert!(p < 20);
                prop_assert!(seen.insert(p));
            }
            prop_assert_eq!(layout.num_logical(), 10);
        }
    }

    #[test]
    fn every_pipeline_is_compliant(
        ops in arb_ops(9),
        seed in 0u64..100,
        strategy_idx in 0usize..5,
    ) {
        prop_assume!(!ops.is_empty());
        let spec = QaoaSpec::new(9, vec![(ops.clone(), 0.3)], true);
        let topo = Topology::ibmq_16_melbourne();
        let (topo_m, cal) = qhw::Calibration::melbourne_2020_04_08();
        prop_assert_eq!(topo.graph(), topo_m.graph());
        let options = [
            CompileOptions::naive(),
            CompileOptions::qaim_only(),
            CompileOptions::ip(),
            CompileOptions::ic(),
            CompileOptions::vic(),
        ][strategy_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let context = qhw::HardwareContext::shared(&topo_m, Some(&cal));
        let artifact =
            try_compile_artifact_with_context(&spec, &context, &options, &mut rng).unwrap();
        let compiled = artifact.template();
        prop_assert!(satisfies_coupling(compiled.physical(), &topo_m));
        prop_assert_eq!(compiled.physical().count_gate("rzz"), ops.len());
        prop_assert_eq!(compiled.physical().count_gate("measure"), 9);
        // basis metrics are consistent
        prop_assert!(compiled.depth() <= compiled.gate_count() + 9);
        prop_assert!(compiled.cx_count() >= 2 * ops.len());
        let sp = compiled.success_probability(&cal);
        prop_assert!((0.0..=1.0).contains(&sp));
    }

    #[test]
    fn qaim_first_placement_is_strongest_qubit(ops in arb_ops(8)) {
        prop_assume!(!ops.is_empty());
        let spec = QaoaSpec::new(8, vec![(ops, 0.3)], false);
        let topo = Topology::ibmq_20_tokyo();
        let layout = qaim(&spec, &topo);
        let heaviest = spec.profile().ranked_qubits()[0];
        prop_assert_eq!(layout.phys(heaviest), topo.profile().strongest());
    }

    #[test]
    fn packing_limit_one_is_fully_serial(ops in arb_ops(8), seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = pack_layers(8, &ops, Some(1), &mut rng);
        prop_assert_eq!(layers.len(), ops.len());
        prop_assert!(layers.iter().all(|l| l.len() == 1));
    }
}
