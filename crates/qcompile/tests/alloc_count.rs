//! Counts the heap allocations of a steady-state compile.
//!
//! The engines keep every per-layer buffer in thread-local scratch, so
//! once a thread has compiled a job, compiling it again allocates only
//! what the result owns: the physical and basis circuits, the layouts,
//! the pass trace and the explain report with one gate list per formed
//! layer (DESIGN §5.7). A counting global allocator pins each paper
//! configuration's count from above at its measured value and checks that
//! repeated compiles of one job allocate equally: scratch that regrew, or
//! a buffer rebuilt per call, would show as a higher or drifting count.
//!
//! The counter is per thread, so the harness's other threads never add to
//! a measurement.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;

use qcompile::{try_compile_artifact_with_context, CompileOptions, QaoaSpec};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Forwards to the system allocator, counting every allocation and
/// reallocation made on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A parametric MaxCut program over a seeded connected ER graph, as the
/// serving layer and the repository benchmark compile it.
fn er_spec(n: usize, p: f64, seed: u64) -> QaoaSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = qgraph::generators::connected_erdos_renyi(n, p, 1000, &mut rng).unwrap();
    QaoaSpec::from_maxcut_parametric(&qaoa::MaxCut::without_optimum(g), 1, true)
}

/// A calibration of fixed constants, so VIC takes weighted decisions and
/// the counts do not depend on a libm random draw.
fn fixed_calibration(topology: &Topology) -> Calibration {
    let errors: Vec<((usize, usize), f64)> = topology
        .graph()
        .edges()
        .enumerate()
        .map(|(i, e)| ((e.a(), e.b()), 0.01 + 0.002 * (i % 7) as f64))
        .collect();
    Calibration::from_cnot_errors(topology, &errors, 1e-3, 2e-2)
}

/// Allocations of each of `repeats` compiles of one job, made after two
/// warm-up compiles of it on this thread. It takes two: the incremental
/// compiler's op lists trade roles by swapping buffers, so a compile can
/// start with the smaller one where the previous compile started with the
/// larger.
fn allocations_per_compile(
    spec: &QaoaSpec,
    context: &HardwareContext,
    options: &CompileOptions,
    repeats: usize,
) -> Vec<u64> {
    let compile = || {
        let mut rng = StdRng::seed_from_u64(0xA110C);
        try_compile_artifact_with_context(spec, context, options, &mut rng).unwrap()
    };
    drop(compile());
    drop(compile());
    (0..repeats)
        .map(|_| {
            let before = ALLOCATIONS.with(Cell::get);
            let artifact = compile();
            let count = ALLOCATIONS.with(Cell::get) - before;
            drop(artifact);
            count
        })
        .collect()
}

#[test]
fn steady_state_compiles_allocate_a_pinned_count() {
    let tokyo_topo = Topology::ibmq_20_tokyo();
    let tokyo_cal = fixed_calibration(&tokyo_topo);
    let tokyo = HardwareContext::with_calibration(tokyo_topo, tokyo_cal);
    let hh_topo = Topology::heavy_hex(6, 7);
    let hh_cal = fixed_calibration(&hh_topo);
    let heavy_hex = HardwareContext::with_calibration(hh_topo, hh_cal);
    let tokyo_spec = er_spec(20, 0.3, 7);
    let hh_spec = er_spec(40, 0.1, 41);

    // (configuration, options, measured count): each bound is the count
    // measured when it was pinned, so a change that allocates more fails
    // here and one that allocates less should lower it.
    let tokyo_cases = [
        ("QAIM", CompileOptions::qaim_only(), 61),
        ("IP", CompileOptions::ip(), 78),
        ("IC", CompileOptions::ic(), 45),
        ("VIC", CompileOptions::vic(), 45),
    ];
    let hh_cases = [
        ("IC", CompileOptions::ic(), 46),
        ("VIC", CompileOptions::vic(), 46),
    ];
    for (device, spec, context, cases) in [
        ("tokyo", &tokyo_spec, &tokyo, &tokyo_cases[..]),
        ("heavy_hex", &hh_spec, &heavy_hex, &hh_cases[..]),
    ] {
        for (config, options, bound) in cases {
            let counts = allocations_per_compile(spec, context, options, 3);
            println!("{config} on {device}: {counts:?} allocations per compile");
            assert!(
                counts.iter().all(|&c| c == counts[0]),
                "{config} on {device}: repeated compiles allocated differently: {counts:?}"
            );
            assert!(
                counts[0] <= *bound,
                "{config} on {device}: {} allocations per compile, pinned at most {bound}",
                counts[0]
            );
        }
    }
}
