use std::cell::RefCell;

use qcircuit::layers::{asap_layers_into, LayerBuffer};
use qcircuit::{Circuit, Instruction};
use qhw::Topology;

use crate::{Layout, RouteError, RoutingMetric};

/// The output of [`route`]: a hardware-compliant physical circuit plus the
/// mapping state after the inserted SWAPs.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// The physical circuit: every two-qubit gate acts on a coupled pair.
    pub circuit: Circuit,
    /// The logical→physical layout after routing — IC/VIC feed this into
    /// the next incremental compilation step (paper §IV-C Step 2).
    pub final_layout: Layout,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
    /// Per-ASAP-layer routing stats, one entry per layer that contained
    /// at least one two-qubit gate, in execution order. The compile
    /// explain report attributes SWAP cost to individual layers with
    /// these.
    pub layer_stats: Vec<RouteLayerStat>,
}

/// Routing stats for one ASAP concurrency layer of two-qubit gates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteLayerStat {
    /// The layer's two-qubit gates as `(logical_a, logical_b)` pairs, in
    /// emission order.
    pub gates: Vec<(usize, usize)>,
    /// SWAPs inserted to make this layer executable.
    pub swaps: usize,
}

/// Reusable per-thread routing scratch: the ASAP layer partition, the
/// per-layer two-qubit staging buffer, every buffer the layer router and
/// its path walks need, and the telemetry staging vectors. One routing call
/// in steady state allocates nothing — the pre-rewrite router allocated
/// `O(layers · descent-steps)` vectors per call, which dominated the
/// compile hot path's allocator traffic.
#[derive(Default)]
struct RouteScratch {
    layers: LayerBuffer,
    two_qubit: Vec<Instruction>,
    bufs: LayerRouteBufs,
    layer_swaps: Vec<u64>,
    layer_marks: Vec<u64>,
    depth_frontier: Vec<usize>,
}

/// Buffers for one layer-routing descent, reused across layers and calls.
#[derive(Default)]
struct LayerRouteBufs {
    /// Physical qubit → index of the layer gate with an endpoint there
    /// (`usize::MAX` when none). Gates within one ASAP layer act on
    /// pairwise-disjoint qubits and the layout is injective, so each
    /// physical qubit hosts at most one endpoint — the flat array replaces
    /// the old `Vec<Vec<usize>>` gates-on table.
    gate_at: Vec<usize>,
    /// Physical qubit → the other endpoint of its gate, or the qubit
    /// itself when it hosts none.
    partner: Vec<usize>,
    /// Physical qubit → its gate's current hop distance, or 1 when it
    /// hosts none. With `partner`, a candidate SWAP's hop delta is two
    /// table reads: the empty-qubit defaults make an empty neighbor's
    /// term `hop(e, w) - 1 = 0` without a branch.
    hops_at: Vec<i64>,
    /// Per-gate current physical endpoints, refreshed each descent step.
    pairs: Vec<(usize, usize)>,
    /// Per-gate current weighted distances, refreshed with `pairs`:
    /// candidate deltas subtract these instead of looking the unchanged
    /// "before" distance up again per candidate.
    cur_dist: Vec<f64>,
    /// Indices of the gates whose endpoints are not coupled, ascending —
    /// the layer order every scan and tie rule iterates in. A SWAP moves
    /// at most two gates, so only their entries change per step.
    unsat: Vec<usize>,
    path: Vec<usize>,
    serial: Vec<Instruction>,
}

thread_local! {
    static SCRATCH: RefCell<RouteScratch> = RefCell::new(RouteScratch::default());
}

/// Routes a logical circuit onto `topology`, inserting SWAPs so every
/// two-qubit gate meets the coupling constraint.
///
/// The algorithm follows the layer-by-layer scheme of the paper's backend
/// references (\[47\], \[48\]): the circuit is partitioned into ASAP
/// concurrency layers, and each layer is routed as a unit — already
/// adjacent gates are emitted immediately, then the closest unsatisfied
/// gate is walked to adjacency one coupling edge at a time, with each step
/// chosen to also minimize the remaining gates' total distance (the
/// "considering many operations at the same time" rationale of §III).
/// SWAPs on disjoint qubits parallelize in the emitted stream via ASAP
/// scheduling. Single-qubit gates and measurements are emitted on their
/// mapped physical qubit directly.
///
/// Deterministic: all ties break toward the lowest qubit index.
///
/// # Panics
///
/// Panics if the circuit needs more qubits than the topology provides, the
/// layout is smaller than the circuit, or the coupling graph leaves some
/// required pair disconnected. Use [`try_route`] to receive these as
/// [`RouteError`] values instead.
pub fn route(
    circuit: &Circuit,
    topology: &Topology,
    initial_layout: Layout,
    metric: &RoutingMetric,
) -> RouteResult {
    match try_route(circuit, topology, initial_layout, metric) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// [`route`] returning structural failures as [`RouteError`] values
/// instead of panicking — the form the `qcompile` pipeline and batch
/// drivers consume.
///
/// # Errors
///
/// Returns [`RouteError::CircuitTooLarge`], [`RouteError::LayoutTooSmall`]
/// or [`RouteError::LayoutMismatch`] when the inputs disagree on qubit
/// counts, and [`RouteError::Disconnected`] when the coupling graph leaves
/// a required pair unreachable.
pub fn try_route(
    circuit: &Circuit,
    topology: &Topology,
    initial_layout: Layout,
    metric: &RoutingMetric,
) -> Result<RouteResult, RouteError> {
    if circuit.num_qubits() > topology.num_qubits() {
        return Err(RouteError::CircuitTooLarge {
            needed: circuit.num_qubits(),
            available: topology.num_qubits(),
            topology: topology.name().to_owned(),
        });
    }
    if initial_layout.num_logical() < circuit.num_qubits() {
        return Err(RouteError::LayoutTooSmall {
            covers: initial_layout.num_logical(),
            needed: circuit.num_qubits(),
        });
    }
    check_layout(&initial_layout, topology)?;

    let mut out = Circuit::new(topology.num_qubits());
    // Routing only permutes qubits; symbolic angles (and the table that
    // names them) pass through untouched. Every input gate is emitted
    // exactly once; SWAPs come on top, so the reserve is a floor, not an
    // exact fit.
    out.set_param_table(circuit.param_table().clone());
    out.reserve(circuit.len());
    let mut layout = initial_layout;
    let mut swap_count = 0usize;
    let mut layer_stats: Vec<RouteLayerStat> = Vec::new();

    let q = qtrace::global();
    // Nothing reads this span's elapsed time when the recorder is off, so
    // skip even its two clock reads.
    let span = q.is_enabled().then(|| q.span("qroute/route"));
    SCRATCH.with(|cell| -> Result<(), RouteError> {
        let mut scratch = cell.borrow_mut();
        let RouteScratch {
            layers,
            two_qubit,
            bufs,
            layer_swaps,
            layer_marks,
            depth_frontier,
        } = &mut *scratch;
        layer_swaps.clear();
        layer_marks.clear();
        asap_layers_into(circuit, 0, layers);
        for layer in layers.built() {
            // Single-qubit work never constrains routing: emit it first.
            two_qubit.clear();
            for instr in layer {
                if instr.gate().arity() == 1 {
                    emit(&mut out, instr.remap(|l| layout.phys(l)));
                } else {
                    two_qubit.push(*instr);
                }
            }
            let swaps = route_layer(two_qubit, topology, metric, &mut layout, &mut out, bufs)?;
            if !two_qubit.is_empty() {
                // One timeline marker per routed layer lets a trace show
                // where inside a route call the SWAP cost accrued. Only the
                // timestamp is captured here; the events flush in one batch
                // below so the loop stays off the recorder lock.
                if q.events_enabled() {
                    layer_marks.push(qtrace::event::now_ns());
                }
                layer_swaps.push(swaps as u64);
                layer_stats.push(RouteLayerStat {
                    gates: two_qubit.iter().map(|i| (i.q0(), i.q1())).collect(),
                    swaps,
                });
            }
            swap_count += swaps;
        }
        let routed_depth = out.depth_from_with(0, depth_frontier);
        record_route(layer_swaps, swap_count, routed_depth, layer_marks);
        Ok(())
    })?;
    if let Some(span) = span {
        span.finish();
    }
    Ok(RouteResult {
        circuit: out,
        final_layout: layout,
        swap_count,
        layer_stats,
    })
}

/// Routes one layer of two-qubit gates on pairwise-disjoint logical
/// qubits — an incrementally formed CPHASE layer — straight into `out`,
/// advancing `layout` past its SWAPs. Returns the SWAP count and the depth
/// of the emitted fragment taken as a circuit of its own.
///
/// The instructions, the `qroute/route` span and the `qroute/*` counters
/// are what [`try_route`] gives for a circuit of just these gates (one
/// ASAP layer), without building that circuit. `out` must have
/// `topology.num_qubits()` qubits; its parameter table is left untouched.
///
/// # Errors
///
/// [`RouteError::LayoutMismatch`] or [`RouteError::LayoutTooSmall`] when
/// `layout` does not fit `topology` or the gates, and
/// [`RouteError::Disconnected`] when a pair is unreachable; after that
/// one, `out` and `layout` keep the SWAPs emitted before it (the compile
/// pipeline treats every [`RouteError`] as fatal for the attempt).
///
/// # Panics
///
/// Panics if a gate is not a two-qubit gate, or if two gates share a
/// qubit and the layer needs SWAPs.
pub fn try_route_layer(
    gates: &[Instruction],
    topology: &Topology,
    layout: &mut Layout,
    metric: &RoutingMetric,
    out: &mut Circuit,
) -> Result<(usize, usize), RouteError> {
    check_layout(layout, topology)?;
    let needed = gates.iter().map(|g| g.q0().max(g.q1()) + 1).max();
    if let Some(needed) = needed.filter(|&needed| needed > layout.num_logical()) {
        return Err(RouteError::LayoutTooSmall {
            covers: layout.num_logical(),
            needed,
        });
    }
    debug_assert_eq!(out.num_qubits(), topology.num_qubits());
    let start = out.len();
    out.reserve(gates.len());
    let q = qtrace::global();
    let span = q.is_enabled().then(|| q.span("qroute/route"));
    let routed = SCRATCH.with(|cell| -> Result<(usize, usize), RouteError> {
        let mut scratch = cell.borrow_mut();
        let RouteScratch {
            bufs,
            depth_frontier,
            ..
        } = &mut *scratch;
        let swaps = route_layer(gates, topology, metric, layout, out, bufs)?;
        let mark = (!gates.is_empty() && q.events_enabled()).then(qtrace::event::now_ns);
        let routed_depth = out.depth_from_with(start, depth_frontier);
        // As in `try_route`, an empty layer records no routed layer.
        let layer_swaps = [swaps as u64];
        record_route(
            &layer_swaps[..usize::from(!gates.is_empty())],
            swaps,
            routed_depth,
            mark.as_slice(),
        );
        Ok((swaps, routed_depth))
    })?;
    if let Some(span) = span {
        span.finish();
    }
    Ok(routed)
}

/// Checks that `layout` places its qubits on `topology`'s physical qubits.
fn check_layout(layout: &Layout, topology: &Topology) -> Result<(), RouteError> {
    if layout.num_physical() != topology.num_qubits() {
        return Err(RouteError::LayoutMismatch {
            layout_physical: layout.num_physical(),
            topology_physical: topology.num_qubits(),
        });
    }
    Ok(())
}

/// Flushes one routing call's telemetry: the per-layer SWAP counts and
/// timeline marks go in one batch, because taking the recorder lock inside
/// a layer loop shows up in the tracing-overhead budget.
fn record_route(layer_swaps: &[u64], swaps: usize, routed_depth: usize, layer_marks: &[u64]) {
    let q = qtrace::global();
    if q.is_enabled() {
        q.add("qroute/layers", layer_swaps.len() as u64);
        q.observe_many("qroute/layer_swaps", layer_swaps);
        q.add("qroute/swaps", swaps as u64);
        q.gauge_max("qroute/routed_depth", routed_depth as u64);
        q.instants_at("qroute/layer", layer_marks);
    }
}

/// Routes one layer of two-qubit gates (disjoint qubits), emitting both
/// the SWAPs and the gates themselves. Returns the number of SWAPs
/// inserted.
///
/// Matches the backend semantics the paper builds on (\[47\], \[48\]): the
/// SWAPs synthesized before a layer bring **all** of the layer's gates
/// adjacent simultaneously, so the layer executes as one parallel block
/// ("SWAP gates are added between two layers to meet the hardware
/// constraints"). This makes the number of gate layers the dominant depth
/// factor - the property IP and IC exploit.
///
/// Strategy: greedy descent on the potential "total distance over all of
/// the layer's gates". Each step applies the candidate SWAP (an edge
/// touching an unsatisfied gate's endpoint) with the most negative
/// potential delta; on a plateau the farthest unsatisfied gate moves one
/// step closer instead (strictly decreasing its own distance). Plateau
/// moves are budgeted; if the budget runs out the layer finishes with a
/// serial emit-on-adjacency walk, which terminates unconditionally.
fn route_layer(
    layer: &[Instruction],
    topology: &Topology,
    metric: &RoutingMetric,
    layout: &mut Layout,
    out: &mut Circuit,
    bufs: &mut LayerRouteBufs,
) -> Result<usize, RouteError> {
    let mut swap_count = 0usize;
    if layer.is_empty() {
        return Ok(0);
    }
    let n = topology.num_qubits();
    // Hoisted dense distance tables: the candidate loop below is lookup
    // bound, and a flat slice read per lookup is what keeps it so.
    let hops_flat = metric.hops_flat();
    let dist_flat = metric.dist_flat();
    debug_assert_eq!(metric.num_physical(), n);
    // Plateau moves are forced swaps that the next improving step can
    // undo; a small budget keeps descent from thrashing on sparse devices
    // where simultaneous adjacency of a dense layer is very expensive —
    // past it, the serial emit-on-adjacency fallback is cheaper.
    let mut stalls_left = 4;
    // First pass: current operand homes plus the initially unsatisfied
    // gates, both in layer order. Layers that are already simultaneously
    // adjacent — common late in IC's distance-ordered packing — emit
    // without touching the rest of the descent state.
    bufs.pairs.clear();
    bufs.unsat.clear();
    // A SWAP can unsatisfy a gate as well as satisfy one; with room for
    // every gate, the list never reallocates mid-descent.
    bufs.unsat.reserve(layer.len());
    for (gi, i) in layer.iter().enumerate() {
        let (pa, pb) = (layout.phys(i.q0()), layout.phys(i.q1()));
        bufs.pairs.push((pa, pb));
        if !topology.are_coupled(pa, pb) {
            bufs.unsat.push(gi);
        }
    }
    if bufs.unsat.is_empty() {
        emit_block(layer, &bufs.pairs, out);
        return Ok(0);
    }
    seat_layer(bufs, hops_flat, dist_flat, n);
    // The descent potential is measured in hops: each improving swap
    // decreases the summed hop distance by at least 1, so the descent
    // terminates within the initial total hop distance. Weighted distances
    // only break ties, steering equal-hop choices toward reliable
    // couplings for the variation-aware metric.
    let unit_metric = !metric.is_variation_aware();
    loop {
        let best = if unit_metric {
            best_unit_swap(bufs, topology, hops_flat, n)
        } else {
            best_weighted_swap(bufs, topology, hops_flat, dist_flat, n)
        };
        let (e, w) = match best {
            Some((delta_hops, e, w)) if delta_hops < 0 => (e, w),
            _ if stalls_left > 0 => {
                stalls_left -= 1;
                // Plateau: walk the farthest unsatisfied gate one step
                // closer along its cheapest path.
                let (pa, pb) = bufs
                    .unsat
                    .iter()
                    .map(|&gi| bufs.pairs[gi])
                    .max_by(|x, y| dist_flat[x.0 * n + x.1].total_cmp(&dist_flat[y.0 * n + y.1]))
                    .expect("unsat is non-empty");
                if !metric.shortest_paths().path_into(pa, pb, &mut bufs.path) {
                    return Err(RouteError::Disconnected {
                        a: pa,
                        b: pb,
                        topology: topology.name().to_owned(),
                    });
                }
                (bufs.path[0], bufs.path[1])
            }
            _ => break, // plateau budget exhausted: go serial
        };
        emit(out, Instruction::two(qcircuit::Gate::Swap, e, w));
        layout.swap_physical(e, w);
        apply_swap_to_gates(bufs, topology, hops_flat, dist_flat, n, e, w);
        swap_count += 1;
        // Iterators, not a collected list: debug and release builds
        // allocate alike.
        debug_assert!(
            bufs.unsat.iter().copied().eq(layer
                .iter()
                .enumerate()
                .filter(|(_, i)| !topology.are_coupled(layout.phys(i.q0()), layout.phys(i.q1())))
                .map(|(gi, _)| gi)),
            "incremental unsatisfied list diverged from the layer"
        );
        if bufs.unsat.is_empty() {
            // Simultaneously adjacent: emit the parallel block.
            emit_block(layer, &bufs.pairs, out);
            return Ok(swap_count);
        }
    }
    // Serial fallback: emit each gate as soon as it becomes adjacent
    // (abandoning simultaneity for this pathological layer).
    bufs.serial.clear();
    bufs.serial.extend_from_slice(layer);
    while !bufs.serial.is_empty() {
        bufs.serial.retain(|gate| {
            let pa = layout.phys(gate.q0());
            let pb = layout.phys(gate.q1());
            if topology.are_coupled(pa, pb) {
                emit(out, Instruction::two(gate.gate(), pa, pb));
                false
            } else {
                true
            }
        });
        let Some(&gate) = bufs.serial.first() else {
            break;
        };
        let pa = layout.phys(gate.q0());
        let pb = layout.phys(gate.q1());
        if !metric.shortest_paths().path_into(pa, pb, &mut bufs.path) {
            return Err(RouteError::Disconnected {
                a: pa,
                b: pb,
                topology: topology.name().to_owned(),
            });
        }
        swap_count += walk_path(&bufs.path, layout, out);
    }
    Ok(swap_count)
}

/// Emits every gate of `layer` on its current physical pair, in layer
/// order: the layer's parallel block.
fn emit_block(layer: &[Instruction], pairs: &[(usize, usize)], out: &mut Circuit) {
    for (gate, &(pa, pb)) in layer.iter().zip(pairs) {
        emit(out, Instruction::two(gate.gate(), pa, pb));
    }
}

/// Width of one qubit field in a packed candidate key. A hop table over
/// 2^24 qubits would hold 2^48 cells, so every routable device fits.
const KEY_QUBIT_BITS: u32 = 24;
/// Offset that makes a hop delta non-negative in its 16-bit key field.
/// One SWAP moves each of at most two gates by at most one hop, so
/// deltas lie in `-2..=2`.
const KEY_DELTA_BIAS: i64 = 1 << 15;

/// Packs a unit-metric candidate so that `u64` order is the
/// lexicographic order of `(delta_hops, endpoint, w)`.
fn candidate_key(delta_hops: i64, endpoint: usize, w: usize) -> u64 {
    debug_assert!(delta_hops.abs() < KEY_DELTA_BIAS);
    debug_assert!(endpoint >> KEY_QUBIT_BITS == 0 && w >> KEY_QUBIT_BITS == 0);
    ((delta_hops + KEY_DELTA_BIAS) as u64) << (2 * KEY_QUBIT_BITS)
        | (endpoint as u64) << KEY_QUBIT_BITS
        | w as u64
}

/// The hop delta of swapping an unsatisfied gate's `endpoint` with its
/// neighbor `w`, from two table reads. The endpoint's partner is never
/// `w` (an unsatisfied pair is not coupled), so the SWAP moves the
/// endpoint's gate onto `(w, partner)` and `w`'s gate, if any, onto
/// `(endpoint, partner[w])`. An empty `w` reads as its own partner at
/// distance 1, so its term is `hop(endpoint, w) - 1 = 0` without a
/// branch.
fn unit_delta(
    bufs: &LayerRouteBufs,
    hops_flat: &[usize],
    n: usize,
    endpoint: usize,
    w: usize,
) -> i64 {
    let partner = bufs.partner[endpoint];
    debug_assert_ne!(w, partner);
    hops_flat[w * n + partner] as i64 - bufs.hops_at[endpoint]
        + hops_flat[endpoint * n + bufs.partner[w]] as i64
        - bufs.hops_at[w]
}

/// The unit metric's best candidate SWAP as `(delta_hops, endpoint, w)`:
/// the lexicographic minimum over every SWAP of an unsatisfied gate's
/// endpoint with one of its neighbors, taken as one minimum over packed
/// keys. `None` when no endpoint has a neighbor.
///
/// For the unit metric `dist` IS the hop count as `f64`: every weighted
/// delta is an exact small integer, so the reference comparison
/// (`dw' < dw - 1e-12`, `|dw' - dw| <= 1e-12`) is *exactly* the integer
/// comparison on `delta_hops`, and its sequential strictly-better scan
/// keeps the lexicographic minimum.
fn best_unit_swap(
    bufs: &LayerRouteBufs,
    topology: &Topology,
    hops_flat: &[usize],
    n: usize,
) -> Option<(i64, usize, usize)> {
    let mut best = u64::MAX;
    for &gi in &bufs.unsat {
        let (pa, pb) = bufs.pairs[gi];
        for endpoint in [pa, pb] {
            for &w in topology.neighbors(endpoint) {
                let delta_hops = unit_delta(bufs, hops_flat, n, endpoint, w);
                best = best.min(candidate_key(delta_hops, endpoint, w));
            }
        }
    }
    let mask = (1u64 << KEY_QUBIT_BITS) - 1;
    (best != u64::MAX).then(|| {
        (
            (best >> (2 * KEY_QUBIT_BITS)) as i64 - KEY_DELTA_BIAS,
            ((best >> KEY_QUBIT_BITS) & mask) as usize,
            (best & mask) as usize,
        )
    })
}

/// The variation-aware metric's best candidate SWAP as
/// `(delta_hops, endpoint, w)`: least hop delta, then least weighted
/// delta beyond a 1e-12 tolerance, then least `(endpoint, w)` — decided
/// candidate by candidate in the reference's order, because the
/// tolerance makes the rule order-dependent. `None` when no endpoint has
/// a neighbor.
///
/// Hop deltas decide first, so a candidate whose hop delta exceeds the
/// running best's can never win: it is priced with [`unit_delta`] and
/// skipped before its weighted sum. The hop table is symmetric, so that
/// delta is the sum the weighted form's cells would give.
fn best_weighted_swap(
    bufs: &LayerRouteBufs,
    topology: &Topology,
    hops_flat: &[usize],
    dist_flat: &[f64],
    n: usize,
) -> Option<(i64, usize, usize)> {
    let mut best: Option<(i64, f64, usize, usize)> = None;
    for &gi in &bufs.unsat {
        let (pa, pb) = bufs.pairs[gi];
        for endpoint in [pa, pb] {
            for &w in topology.neighbors(endpoint) {
                let delta_hops = unit_delta(bufs, hops_flat, n, endpoint, w);
                if best.is_some_and(|(dh, ..)| delta_hops > dh) {
                    continue;
                }
                let delta_weighted = weighted_delta(bufs, dist_flat, n, gi, endpoint, w);
                let better = match best {
                    Some((dh, dw, be, bw)) => {
                        delta_hops < dh
                            || (delta_hops == dh
                                && (delta_weighted < dw - 1e-12
                                    || ((delta_weighted - dw).abs() <= 1e-12
                                        && (endpoint, w) < (be, bw))))
                    }
                    None => true,
                };
                if better {
                    best = Some((delta_hops, delta_weighted, endpoint, w));
                }
            }
        }
    }
    best.map(|(delta_hops, _, e, w)| (delta_hops, e, w))
}

/// The weighted-distance delta of swapping `endpoint`, an operand of the
/// unsatisfied gate `g0`, with its neighbor `w`. The accumulation order
/// (the endpoint's gate, then `w`'s) and the matrix cell each term reads
/// are the reference's operand-relocation form, so the float sums — and
/// therefore VIC's tie-breaks — are bit-identical to it. The "before"
/// distances are the maintained per-gate values: the same table reads
/// the reference repeats per candidate.
fn weighted_delta(
    bufs: &LayerRouteBufs,
    dist_flat: &[f64],
    n: usize,
    g0: usize,
    endpoint: usize,
    w: usize,
) -> f64 {
    // `w` is not the endpoint's partner (the gate is unsatisfied), so
    // only the endpoint operand relocates.
    let (a0, b0) = bufs.pairs[g0];
    let cell = if a0 == endpoint {
        w * n + b0
    } else {
        a0 * n + w
    };
    let mut delta = dist_flat[cell] - bufs.cur_dist[g0];
    let g1 = bufs.gate_at[w];
    if g1 != usize::MAX {
        // `w`'s gate: its other operand is neither endpoint nor `w`
        // (distinct disjoint gates), so only the `w` operand relocates.
        let (a1, b1) = bufs.pairs[g1];
        let cell = if a1 == w {
            endpoint * n + b1
        } else {
            a1 * n + endpoint
        };
        delta += dist_flat[cell] - bufs.cur_dist[g1];
    }
    delta
}

/// Seats every gate of `bufs.pairs` in the per-qubit descent state, which
/// is maintained incrementally from here on: a swap moves exactly two
/// physical qubits, so only the (at most two) gates with an operand on
/// them change — the disjointness invariant means at most one gate per
/// endpoint. `pairs`/`cur_dist` (per gate) and `gate_at`/`partner`/
/// `hops_at` (per physical qubit) hold each gate's current operand homes
/// and their table distances (the same table reads a full per-step
/// rebuild would perform, so the values — including the VIC floats — are
/// bit-identical to recomputing).
///
/// # Panics
///
/// Panics if two gates share a physical qubit.
fn seat_layer(bufs: &mut LayerRouteBufs, hops_flat: &[usize], dist_flat: &[f64], n: usize) {
    bufs.gate_at.clear();
    bufs.gate_at.resize(n, usize::MAX);
    bufs.partner.clear();
    bufs.partner.extend(0..n);
    bufs.hops_at.clear();
    bufs.hops_at.resize(n, 1);
    bufs.cur_dist.clear();
    for gi in 0..bufs.pairs.len() {
        let (pa, pb) = bufs.pairs[gi];
        assert!(
            bufs.gate_at[pa] == usize::MAX && bufs.gate_at[pb] == usize::MAX,
            "layer gates must act on disjoint qubits"
        );
        bufs.gate_at[pa] = gi;
        bufs.gate_at[pb] = gi;
        seat_gate(bufs, hops_flat, n, pa, pb);
        bufs.cur_dist.push(dist_flat[pa * n + pb]);
    }
}

/// Records the gate on physical qubits `(a, b)` in the per-qubit
/// descent state: each endpoint's partner and the gate's hop distance.
fn seat_gate(bufs: &mut LayerRouteBufs, hops_flat: &[usize], n: usize, a: usize, b: usize) {
    let hops = hops_flat[a * n + b] as i64;
    bufs.partner[a] = b;
    bufs.partner[b] = a;
    bufs.hops_at[a] = hops;
    bufs.hops_at[b] = hops;
}

/// Applies the physical swap `(e, w)` to [`route_layer`]'s descent
/// state: rewrites the operand pairs of the (at most two) gates touching
/// `e` or `w`, refreshes their cached distances with the same table reads
/// a full per-step rebuild would perform, swaps the occupancy entries and
/// moves each of those gates into or out of the unsatisfied list. Every
/// other gate's state is untouched — a swap moves exactly two physical
/// qubits.
fn apply_swap_to_gates(
    bufs: &mut LayerRouteBufs,
    topology: &Topology,
    hops_flat: &[usize],
    dist_flat: &[f64],
    n: usize,
    e: usize,
    w: usize,
) {
    let g0 = bufs.gate_at[e];
    let g1 = bufs.gate_at[w];
    bufs.gate_at.swap(e, w);
    // Both qubits read as empty until a moved gate is re-seated on them.
    for q in [e, w] {
        bufs.partner[q] = q;
        bufs.hops_at[q] = 1;
    }
    let mut update = |gi: usize| {
        let (a0, b0) = bufs.pairs[gi];
        let reloc = |p: usize| {
            if p == e {
                w
            } else if p == w {
                e
            } else {
                p
            }
        };
        let (a1, b1) = (reloc(a0), reloc(b0));
        bufs.pairs[gi] = (a1, b1);
        bufs.cur_dist[gi] = dist_flat[a1 * n + b1];
        seat_gate(bufs, hops_flat, n, a1, b1);
        // Ascending order keeps every scan in layer order.
        match (bufs.unsat.binary_search(&gi), topology.are_coupled(a1, b1)) {
            (Ok(at), true) => {
                bufs.unsat.remove(at);
            }
            (Err(at), false) => bufs.unsat.insert(at, gi),
            _ => {}
        }
    };
    if g0 != usize::MAX {
        update(g0);
    }
    if g1 != usize::MAX && g1 != g0 {
        update(g1);
    }
}

/// Walks the occupant of `path\[0\]` along `path`, stopping one hop short of
/// `path.last()` (so the pair ends adjacent). Emits the SWAPs and updates
/// the layout; returns the number of SWAPs.
fn walk_path(path: &[usize], layout: &mut Layout, out: &mut Circuit) -> usize {
    let mut current = path[0];
    let mut swaps = 0;
    for &next in &path[1..path.len() - 1] {
        emit(out, Instruction::two(qcircuit::Gate::Swap, current, next));
        layout.swap_physical(current, next);
        current = next;
        swaps += 1;
    }
    swaps
}

fn emit(out: &mut Circuit, instr: Instruction) {
    out.push(instr).expect("router emits in-range instructions");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{routed_equivalent, satisfies_coupling};
    use qcircuit::Gate;
    use qhw::Calibration;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let topo = Topology::linear(3);
        let mut c = Circuit::new(3);
        c.cx(0, 1);
        c.cx(1, 2);
        let r = route(
            &c,
            &topo,
            Layout::trivial(3, 3),
            &RoutingMetric::hops(&topo),
        );
        assert_eq!(r.swap_count, 0);
        assert_eq!(r.circuit.two_qubit_count(), 2);
    }

    #[test]
    fn distant_gate_inserts_minimal_swaps() {
        let topo = Topology::linear(4);
        let mut c = Circuit::new(4);
        c.cx(0, 3); // distance 3 -> 2 swaps
        let r = route(
            &c,
            &topo,
            Layout::trivial(4, 4),
            &RoutingMetric::hops(&topo),
        );
        assert_eq!(r.swap_count, 2);
        assert!(satisfies_coupling(&r.circuit, &topo));
    }

    #[test]
    fn single_qubit_gates_map_through_layout() {
        let topo = Topology::linear(3);
        let mut c = Circuit::new(2);
        c.h(0);
        c.measure(1);
        let layout = Layout::from_mapping(vec![2, 0], 3);
        let r = route(&c, &topo, layout, &RoutingMetric::hops(&topo));
        let instrs = r.circuit.instructions();
        assert_eq!(instrs[0].q0(), 2); // h on physical 2
        assert_eq!(instrs[1].q0(), 0); // measure physical 0
    }

    #[test]
    fn routed_circuit_is_functionally_equivalent() {
        // Random logical circuits must produce routed circuits that
        // compute the same state (up to the final permutation). A 10-qubit
        // ring keeps the verification statevectors small.
        let topo = Topology::ring(10);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let g = qgraph::generators::connected_erdos_renyi(6, 0.5, 100, &mut rng).unwrap();
            let mut c = Circuit::new(6);
            for q in 0..6 {
                c.h(q);
            }
            for e in g.edges() {
                c.rzz(0.37, e.a(), e.b());
            }
            for q in 0..6 {
                c.rx(0.9, q);
            }
            let layout = Layout::random(6, 10, &mut rng);
            let r = route(&c, &topo, layout.clone(), &RoutingMetric::hops(&topo));
            assert!(satisfies_coupling(&r.circuit, &topo));
            assert!(routed_equivalent(&c, &r.circuit, &layout, &r.final_layout));
        }
    }

    #[test]
    fn routing_terminates_on_dense_layers() {
        // A fully-packed layer on a sparse device exercises the
        // walk-and-emit loop heavily; must terminate with a compliant
        // result.
        let topo = Topology::ibmq_20_tokyo();
        let mut rng = StdRng::seed_from_u64(5);
        let g = qgraph::generators::connected_erdos_renyi(20, 0.5, 100, &mut rng).unwrap();
        let mut c = Circuit::new(20);
        for e in g.edges() {
            c.rzz(0.2, e.a(), e.b());
        }
        let r = route(
            &c,
            &topo,
            Layout::random(20, 20, &mut rng),
            &RoutingMetric::hops(&topo),
        );
        assert!(satisfies_coupling(&r.circuit, &topo));
        assert_eq!(r.circuit.count_gate("rzz"), g.edge_count());
    }

    #[test]
    fn variation_aware_routing_prefers_reliable_paths() {
        // Square: 0-1, 1-2, 2-3, 3-0. Gate between 0 and 2 (distance 2
        // both ways). Make path through 1 terrible, through 3 great.
        let g = qgraph::Graph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).unwrap();
        let topo = Topology::from_graph("square", g);
        let cal = Calibration::from_cnot_errors(
            &topo,
            &[
                ((0, 1), 0.40),
                ((1, 2), 0.40),
                ((2, 3), 0.01),
                ((3, 0), 0.01),
            ],
            1e-3,
            1e-2,
        );
        let mut c = Circuit::new(4);
        c.cx(0, 2);
        let reliable = RoutingMetric::reliability(&topo, &cal);
        let r = route(&c, &topo, Layout::trivial(4, 4), &reliable);
        assert_eq!(r.swap_count, 1);
        // The SWAP must go through qubit 3, not 1.
        let first = r.circuit.instructions()[0];
        assert_eq!(first.gate(), Gate::Swap);
        assert!(
            first.acts_on(3),
            "expected SWAP via reliable qubit 3: {first}"
        );

        // The hop metric breaks the tie toward the lowest-index move.
        let hops = RoutingMetric::hops(&topo);
        let r2 = route(&c, &topo, Layout::trivial(4, 4), &hops);
        assert!(r2.circuit.instructions()[0].acts_on(1));
    }

    #[test]
    fn final_layout_feeds_incremental_compilation() {
        let topo = Topology::linear(4);
        let metric = RoutingMetric::hops(&topo);
        let mut part1 = Circuit::new(4);
        part1.cx(0, 2);
        let r1 = route(&part1, &topo, Layout::trivial(4, 4), &metric);
        // Continue with the updated layout; a gate that is now adjacent
        // must need no SWAPs.
        let l0 = r1.final_layout.phys(0);
        let neighbor_logical = r1
            .final_layout
            .logical_at(if l0 > 0 { l0 - 1 } else { l0 + 1 })
            .unwrap();
        let mut part2 = Circuit::new(4);
        part2
            .push(Instruction::two(Gate::Cnot, 0, neighbor_logical))
            .unwrap();
        let r2 = route(&part2, &topo, r1.final_layout.clone(), &metric);
        assert_eq!(r2.swap_count, 0);
    }

    /// A random matching of `k` of `qubits`' pairs, in shuffled order.
    fn random_pairs(qubits: usize, k: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
        let mut order: Vec<usize> = (0..qubits).collect();
        order.shuffle(rng);
        order
            .chunks_exact(2)
            .take(k)
            .map(|p| (p[0], p[1]))
            .collect()
    }

    #[test]
    fn layer_entry_point_matches_try_route_stitching() {
        // Routing IC's packed layers one at a time into one output must
        // produce the byte stream that try_route + append of each
        // one-layer circuit would have: same instructions, same layout,
        // same counts, same fragment depth.
        let topo = Topology::ibmq_20_tokyo();
        let metric = RoutingMetric::hops(&topo);
        let mut rng = StdRng::seed_from_u64(11);
        let mut layout = Layout::random(12, 20, &mut rng);
        let mut direct_layout = layout.clone();
        let mut stitched = Circuit::new(20);
        let mut direct = Circuit::new(20);
        for round in 0..8 {
            let mut frag = Circuit::new(12);
            for (a, b) in random_pairs(12, 1 + round % 6, &mut rng) {
                frag.rzz(0.1 + round as f64, a, b);
            }
            let r = try_route(&frag, &topo, layout.clone(), &metric).unwrap();
            stitched.append(&r.circuit).unwrap();
            let (swaps, depth) = try_route_layer(
                frag.instructions(),
                &topo,
                &mut direct_layout,
                &metric,
                &mut direct,
            )
            .unwrap();
            assert_eq!(direct_layout, r.final_layout);
            assert_eq!(swaps, r.swap_count);
            assert_eq!(depth, r.circuit.depth());
            layout = r.final_layout;
        }
        assert_eq!(stitched.instructions(), direct.instructions());
    }

    #[test]
    fn layer_entry_point_rejects_mismatched_inputs() {
        let topo = Topology::linear(4);
        let metric = RoutingMetric::hops(&topo);
        let gates = [Instruction::two(Gate::Rzz(0.3.into()), 0, 3)];
        let mut out = Circuit::new(4);
        let mut small = Layout::trivial(2, 4);
        assert!(matches!(
            try_route_layer(&gates, &topo, &mut small, &metric, &mut out),
            Err(RouteError::LayoutTooSmall {
                covers: 2,
                needed: 4
            })
        ));
        let mut wide = Layout::trivial(4, 5);
        assert!(matches!(
            try_route_layer(&gates, &topo, &mut wide, &metric, &mut out),
            Err(RouteError::LayoutMismatch { .. })
        ));
        assert!(out.is_empty());
    }

    /// The variation-aware candidate scan without the hop-delta prune:
    /// every candidate's weighted sum, decided by the sequential rule.
    fn unpruned_weighted_swap(
        bufs: &LayerRouteBufs,
        topology: &Topology,
        hops_flat: &[usize],
        dist_flat: &[f64],
        n: usize,
    ) -> Option<(i64, usize, usize)> {
        let mut best: Option<(i64, f64, usize, usize)> = None;
        for &gi in &bufs.unsat {
            let (pa, pb) = bufs.pairs[gi];
            for endpoint in [pa, pb] {
                for &w in topology.neighbors(endpoint) {
                    let mut delta_hops: i64 = 0;
                    let mut delta_weighted = 0.0;
                    let g0 = bufs.gate_at[endpoint];
                    let g1 = bufs.gate_at[w];
                    if g0 != usize::MAX {
                        let (a0, b0) = bufs.pairs[g0];
                        let cell = if a0 == endpoint {
                            if b0 == w {
                                usize::MAX
                            } else {
                                w * n + b0
                            }
                        } else if a0 == w {
                            usize::MAX
                        } else {
                            a0 * n + w
                        };
                        if cell != usize::MAX {
                            delta_hops += hops_flat[cell] as i64 - bufs.hops_at[endpoint];
                            delta_weighted += dist_flat[cell] - bufs.cur_dist[g0];
                        }
                    }
                    if g1 != usize::MAX && g1 != g0 {
                        let (a1, b1) = bufs.pairs[g1];
                        let cell = if a1 == w {
                            endpoint * n + b1
                        } else {
                            a1 * n + endpoint
                        };
                        delta_hops += hops_flat[cell] as i64 - bufs.hops_at[w];
                        delta_weighted += dist_flat[cell] - bufs.cur_dist[g1];
                    }
                    let better = match best {
                        Some((dh, dw, be, bw)) => {
                            delta_hops < dh
                                || (delta_hops == dh
                                    && (delta_weighted < dw - 1e-12
                                        || ((delta_weighted - dw).abs() <= 1e-12
                                            && (endpoint, w) < (be, bw))))
                        }
                        None => true,
                    };
                    if better {
                        best = Some((delta_hops, delta_weighted, endpoint, w));
                    }
                }
            }
        }
        best.map(|(delta_hops, _, e, w)| (delta_hops, e, w))
    }

    #[test]
    fn pruned_weighted_scan_matches_unpruned_scan() {
        // Random descent states: a random layer of disjoint physical
        // pairs, then mostly improving SWAPs with random ones mixed in,
        // so plateaus and uphill states are visited too. A uniform
        // calibration makes every equal-hop candidate tie on weight, so
        // only the (endpoint, w) rule decides; a random one makes the
        // weighted sums decide.
        let mut rng = StdRng::seed_from_u64(0x9E7);
        let mut bufs = LayerRouteBufs::default();
        let mut compared = 0;
        for topo in [Topology::ibmq_20_tokyo(), Topology::heavy_hex(6, 7)] {
            let n = topo.num_qubits();
            let random = Calibration::random_normal(&topo, 1e-2, 0.5e-2, &mut rng);
            let uniform = Calibration::uniform(&topo, 0.02, 0.001, 0.02);
            for cal in [random, uniform] {
                let metric = RoutingMetric::reliability(&topo, &cal);
                let (hops, dist) = (metric.hops_flat(), metric.dist_flat());
                for _ in 0..150 {
                    let k = rng.gen_range(1..=10);
                    bufs.pairs = random_pairs(n, k, &mut rng);
                    seat_layer(&mut bufs, hops, dist, n);
                    bufs.unsat.clear();
                    bufs.unsat.extend(
                        (0..k).filter(|&g| !topo.are_coupled(bufs.pairs[g].0, bufs.pairs[g].1)),
                    );
                    for _ in 0..10 {
                        if bufs.unsat.is_empty() {
                            break;
                        }
                        let pruned = best_weighted_swap(&bufs, &topo, hops, dist, n);
                        let unpruned = unpruned_weighted_swap(&bufs, &topo, hops, dist, n);
                        assert_eq!(pruned, unpruned, "{} descent state diverged", topo.name());
                        compared += 1;
                        let (e, w) = match pruned {
                            Some((delta, e, w)) if delta < 0 && rng.gen_bool(0.75) => (e, w),
                            _ => {
                                let gi = bufs.unsat[rng.gen_range(0..bufs.unsat.len())];
                                let e = bufs.pairs[gi].0;
                                let neighbors = topo.neighbors(e);
                                (e, neighbors[rng.gen_range(0..neighbors.len())])
                            }
                        };
                        apply_swap_to_gates(&mut bufs, &topo, hops, dist, n, e, w);
                    }
                }
            }
        }
        assert!(compared > 1000, "only {compared} states compared");
    }

    #[test]
    #[should_panic]
    fn oversized_circuit_panics() {
        let topo = Topology::linear(2);
        let c = Circuit::new(3);
        let _ = route(
            &c,
            &topo,
            Layout::trivial(2, 2),
            &RoutingMetric::hops(&topo),
        );
    }

    #[test]
    fn fig1d_linear_hardware_example() {
        // Figure 1(d): 4 linearly coupled qubits; compiling circ-2 with
        // layer orders 1|2|3 versus 1|3|2 yields 4 vs 3 SWAPs in the paper
        // (using its own backend). Our router's absolute counts differ,
        // but the reordered variant must never be worse.
        let topo = Topology::linear(4);
        let metric = RoutingMetric::hops(&topo);
        let build = |orders: &[(usize, usize)]| {
            let mut c = Circuit::new(4);
            for q in 0..4 {
                c.h(q);
            }
            for &(a, b) in orders {
                c.rzz(0.4, a, b);
            }
            c
        };
        // layer-1: (0,1),(2,3); layer-2: (0,2),(1,3); layer-3: (0,3),(1,2)
        let order_123 = build(&[(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]);
        let order_132 = build(&[(0, 1), (2, 3), (0, 3), (1, 2), (0, 2), (1, 3)]);
        let r123 = route(&order_123, &topo, Layout::trivial(4, 4), &metric);
        let r132 = route(&order_132, &topo, Layout::trivial(4, 4), &metric);
        // The paper's backend inserts 4 vs 3 SWAPs for these orders; the
        // absolute numbers are backend-specific, but both orders must
        // compile within a small SWAP budget and stay compliant.
        assert!(
            r123.swap_count <= 5,
            "order 1|2|3 used {} swaps",
            r123.swap_count
        );
        assert!(
            r132.swap_count <= 5,
            "order 1|3|2 used {} swaps",
            r132.swap_count
        );
        assert!(satisfies_coupling(&r123.circuit, &topo));
        assert!(satisfies_coupling(&r132.circuit, &topo));
    }
}
