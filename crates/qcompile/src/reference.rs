//! Frozen pre-optimization reference engines.
//!
//! This module is a verbatim copy (telemetry stripped) of the compile hot
//! path as it stood **before** the allocation-disciplined engine rewrite:
//! the per-layer-allocating router, the clone-per-restart incremental
//! compiler and the `Vec<Vec<bool>>` bin-packer. It exists for exactly two
//! consumers and must never gain callers beyond them:
//!
//! 1. the `compile_equivalence` property suite, which pins the live
//!    engines **bit-for-bit identical** to these references across seeds,
//!    topologies and metrics (the optimization is pure mechanism — same
//!    decisions, same instruction streams, fewer allocations);
//! 2. the `compile_throughput` benchmark, which measures the live/reference
//!    ratio and asserts the engine-level speedup floor in-process.
//!
//! Do not "fix" or modernize this code: its value is that it does not
//! move. If the live engine's observable behavior must change, the change
//! lands here too, in the same commit, with the equivalence suite
//! re-derived.

#![allow(missing_docs)]

use qcircuit::layers::asap_layers;
use qcircuit::{Circuit, Instruction};
use qhw::Topology;
use qroute::{Layout, RouteError, RouteLayerStat, RouteResult, RoutingMetric};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::error::CompileError;
use crate::ic::{IncrementalResult, LayerRecord};
use crate::{CphaseOp, ProgramProfile, QaoaSpec};

/// The pre-rewrite [`qroute::try_route`], minus telemetry.
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
    if initial_layout.num_physical() != topology.num_qubits() {
        return Err(RouteError::LayoutMismatch {
            layout_physical: initial_layout.num_physical(),
            topology_physical: topology.num_qubits(),
        });
    }

    let mut layout = initial_layout;
    let mut out = Circuit::new(topology.num_qubits());
    out.set_param_table(circuit.param_table().clone());
    let mut swap_count = 0usize;
    let mut layer_stats: Vec<RouteLayerStat> = Vec::new();

    for layer in asap_layers(circuit) {
        let mut two_qubit: Vec<&Instruction> = Vec::new();
        for instr in &layer {
            if instr.gate().arity() == 1 {
                emit(&mut out, instr.remap(|l| layout.phys(l)));
            } else {
                two_qubit.push(instr);
            }
        }
        let layer_swaps = route_layer(&two_qubit, topology, metric, &mut layout, &mut out)?;
        if !two_qubit.is_empty() {
            layer_stats.push(RouteLayerStat {
                gates: two_qubit.iter().map(|i| (i.q0(), i.q1())).collect(),
                swaps: layer_swaps,
            });
        }
        swap_count += layer_swaps;
    }

    Ok(RouteResult {
        circuit: out,
        final_layout: layout,
        swap_count,
        layer_stats,
    })
}

/// The pre-rewrite `route_layer`: allocates `unsat`, `gates_on` and `seen`
/// afresh on every descent iteration.
fn route_layer(
    layer: &[&Instruction],
    topology: &Topology,
    metric: &RoutingMetric,
    layout: &mut Layout,
    out: &mut Circuit,
) -> Result<usize, RouteError> {
    let mut swap_count = 0usize;
    if layer.is_empty() {
        return Ok(0);
    }
    let n = topology.num_qubits();
    let mut stalls_left = 4;
    let _ = n;
    loop {
        let unsat: Vec<(usize, usize)> = layer
            .iter()
            .map(|i| (layout.phys(i.q0()), layout.phys(i.q1())))
            .filter(|&(pa, pb)| !topology.are_coupled(pa, pb))
            .collect();
        if unsat.is_empty() {
            for gate in layer {
                let pa = layout.phys(gate.q0());
                let pb = layout.phys(gate.q1());
                emit(out, Instruction::two(gate.gate(), pa, pb));
            }
            return Ok(swap_count);
        }
        let mut gates_on: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (gi, i) in layer.iter().enumerate() {
            gates_on[layout.phys(i.q0())].push(gi);
            gates_on[layout.phys(i.q1())].push(gi);
        }
        let mut best: Option<(i64, f64, usize, usize)> = None;
        let mut seen = vec![false; n];
        for &(pa, pb) in &unsat {
            for endpoint in [pa, pb] {
                if seen[endpoint] {
                    continue;
                }
                seen[endpoint] = true;
                for w in topology.graph().neighbors(endpoint) {
                    let reloc = |p: usize| -> usize {
                        if p == endpoint {
                            w
                        } else if p == w {
                            endpoint
                        } else {
                            p
                        }
                    };
                    let mut delta_hops: i64 = 0;
                    let mut delta_weighted = 0.0;
                    let mut counted = [usize::MAX; 8];
                    let mut ncounted = 0;
                    for &gi in gates_on[endpoint].iter().chain(&gates_on[w]) {
                        if counted[..ncounted].contains(&gi) {
                            continue;
                        }
                        if ncounted < counted.len() {
                            counted[ncounted] = gi;
                            ncounted += 1;
                        }
                        let i = layer[gi];
                        let (a0, b0) = (layout.phys(i.q0()), layout.phys(i.q1()));
                        let (a1, b1) = (reloc(a0), reloc(b0));
                        delta_hops +=
                            metric.hop_dist(a1, b1) as i64 - metric.hop_dist(a0, b0) as i64;
                        delta_weighted += metric.dist(a1, b1) - metric.dist(a0, b0);
                    }
                    let candidate = (delta_hops, delta_weighted, endpoint, w);
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
                        best = Some(candidate);
                    }
                }
            }
        }
        match best {
            Some((delta_hops, _, e, w)) if delta_hops < 0 => {
                emit(out, Instruction::two(qcircuit::Gate::Swap, e, w));
                layout.swap_physical(e, w);
                swap_count += 1;
            }
            _ if stalls_left > 0 => {
                stalls_left -= 1;
                let &(pa, pb) = unsat
                    .iter()
                    .max_by(|x, y| metric.dist(x.0, x.1).total_cmp(&metric.dist(y.0, y.1)))
                    .expect("unsat is non-empty");
                let path = cheapest_path(topology, metric, pa, pb, None).ok_or_else(|| {
                    RouteError::Disconnected {
                        a: pa,
                        b: pb,
                        topology: topology.name().to_owned(),
                    }
                })?;
                emit(
                    out,
                    Instruction::two(qcircuit::Gate::Swap, path[0], path[1]),
                );
                layout.swap_physical(path[0], path[1]);
                swap_count += 1;
            }
            _ => break,
        }
    }
    let mut remaining: Vec<&&Instruction> = layer.iter().collect();
    while !remaining.is_empty() {
        remaining.retain(|gate| {
            let pa = layout.phys(gate.q0());
            let pb = layout.phys(gate.q1());
            if topology.are_coupled(pa, pb) {
                emit(out, Instruction::two(gate.gate(), pa, pb));
                false
            } else {
                true
            }
        });
        let Some(gate) = remaining.first().copied() else {
            break;
        };
        let pa = layout.phys(gate.q0());
        let pb = layout.phys(gate.q1());
        let path = cheapest_path(topology, metric, pa, pb, None).ok_or_else(|| {
            RouteError::Disconnected {
                a: pa,
                b: pb,
                topology: topology.name().to_owned(),
            }
        })?;
        swap_count += walk_path(&path, layout, out);
    }
    Ok(swap_count)
}

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

fn cheapest_path(
    topology: &Topology,
    metric: &RoutingMetric,
    from: usize,
    to: usize,
    frozen: Option<&[bool]>,
) -> Option<Vec<usize>> {
    let n = topology.num_qubits();
    let blocked =
        |p: usize| -> bool { p != from && p != to && frozen.map(|f| f[p]).unwrap_or(false) };
    let mut dist = vec![f64::INFINITY; n];
    let mut prev = vec![usize::MAX; n];
    let mut visited = vec![false; n];
    dist[from] = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&u| !visited[u] && dist[u].is_finite())
            .min_by(|&a, &b| dist[a].total_cmp(&dist[b]))?;
        if u == to {
            break;
        }
        visited[u] = true;
        for w in topology.graph().neighbors(u) {
            if visited[w] || blocked(w) {
                continue;
            }
            let cost = dist[u] + metric.swap_cost(u, w);
            if cost < dist[w] - 1e-9 {
                dist[w] = cost;
                prev[w] = u;
            }
        }
    }
    if !dist[to].is_finite() {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur];
        if cur == usize::MAX {
            return None;
        }
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

fn emit(out: &mut Circuit, instr: Instruction) {
    out.push(instr).expect("router emits in-range instructions");
}

/// The pre-rewrite `try_compile_incremental_with`: clones the op list per
/// restart and routes each packed layer through a freshly allocated
/// partial circuit.
pub fn try_compile_incremental_with<R: Rng + ?Sized>(
    spec: &QaoaSpec,
    topology: &Topology,
    initial_layout: Layout,
    metric: &RoutingMetric,
    packing_limit: Option<usize>,
    resort: bool,
    rng: &mut R,
) -> Result<IncrementalResult, CompileError> {
    if packing_limit == Some(0) {
        return Err(CompileError::ZeroPackingLimit);
    }
    let n_logical = spec.num_qubits();
    let n_physical = topology.num_qubits();
    let mut layout = initial_layout;
    let mut out = Circuit::new(n_physical);
    out.set_param_table(spec.param_table().clone());
    let mut swap_count = 0usize;
    let mut cphase_layers = 0usize;
    let mut layers: Vec<LayerRecord> = Vec::new();

    for q in 0..n_logical {
        out.h(layout.phys(q));
    }

    for (level, (ops, beta)) in spec.levels().iter().enumerate() {
        let mut remaining: Vec<CphaseOp> = ops.clone();
        while !remaining.is_empty() {
            remaining.shuffle(rng);
            if resort {
                remaining.sort_by(|x, y| {
                    let dx = metric.dist(layout.phys(x.a), layout.phys(x.b));
                    let dy = metric.dist(layout.phys(y.a), layout.phys(y.b));
                    dx.total_cmp(&dy)
                });
            }
            let mut occupied = vec![false; n_logical];
            let mut layer = Vec::new();
            let mut spill = Vec::new();
            for op in remaining.drain(..) {
                let fits = !occupied[op.a]
                    && !occupied[op.b]
                    && packing_limit.map_or(true, |lim| layer.len() < lim);
                if fits {
                    occupied[op.a] = true;
                    occupied[op.b] = true;
                    layer.push(op);
                } else {
                    spill.push(op);
                }
            }
            remaining = spill;
            cphase_layers += 1;
            let mut partial = Circuit::new(n_logical);
            for op in &layer {
                partial.rzz(op.angle, op.a, op.b);
            }
            let routed = try_route(&partial, topology, layout, metric)?;
            layers.push(LayerRecord {
                level,
                gates: layer.iter().map(|op| (op.a, op.b)).collect(),
                swaps: routed.swap_count,
                routed_depth: routed.circuit.depth(),
            });
            out.append(&routed.circuit).expect("same physical width");
            layout = routed.final_layout;
            swap_count += routed.swap_count;
        }
        for &(q, angle) in spec.field_terms(level) {
            out.rz(angle, layout.phys(q));
        }
        for q in 0..n_logical {
            out.rx(beta.scaled(2.0), layout.phys(q));
        }
    }

    if spec.measure() {
        for q in 0..n_logical {
            out.measure(layout.phys(q));
        }
    }

    Ok(IncrementalResult {
        circuit: out,
        final_layout: layout,
        swap_count,
        cphase_layers,
        layers,
    })
}

/// The pre-rewrite `pack_layers`: `Vec<Vec<bool>>` occupancy bins.
pub fn pack_layers<R: Rng + ?Sized>(
    num_qubits: usize,
    ops: &[CphaseOp],
    packing_limit: Option<usize>,
    rng: &mut R,
) -> Vec<Vec<CphaseOp>> {
    if let Some(limit) = packing_limit {
        assert!(limit > 0, "packing limit must be positive");
    }
    let mut layers: Vec<Vec<CphaseOp>> = Vec::new();
    let mut remaining: Vec<CphaseOp> = ops.to_vec();
    while !remaining.is_empty() {
        let profile = ProgramProfile::from_ops(num_qubits, &remaining);
        remaining.shuffle(rng);
        remaining.sort_by_key(|op| std::cmp::Reverse(profile.op_rank(op)));
        let moq = profile.moq();
        let base = layers.len();
        layers.extend(std::iter::repeat_with(Vec::new).take(moq));
        let mut occupied: Vec<Vec<bool>> = vec![vec![false; num_qubits]; moq];
        let mut spill = Vec::new();
        for op in remaining.drain(..) {
            let slot = (0..moq).find(|&l| {
                !occupied[l][op.a]
                    && !occupied[l][op.b]
                    && packing_limit.map_or(true, |lim| layers[base + l].len() < lim)
            });
            match slot {
                Some(l) => {
                    occupied[l][op.a] = true;
                    occupied[l][op.b] = true;
                    layers[base + l].push(op);
                }
                None => spill.push(op),
            }
        }
        remaining = spill;
        layers.retain(|l| !l.is_empty());
    }
    layers
}
