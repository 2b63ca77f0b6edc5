//! `qaoac` — command-line QAOA-MaxCut compiler.
//!
//! Compiles a MaxCut problem graph into a hardware-compliant circuit with
//! one of the paper's methodologies and emits OpenQASM 2.0 plus quality
//! metrics.
//!
//! ```text
//! USAGE:
//!   qaoac [OPTIONS]
//!
//! OPTIONS:
//!   --edges FILE       problem graph as "u v" pairs, one edge per line
//!                      (default: a random 12-node 3-regular graph)
//!   --nodes N          nodes for the generated graph (default 12)
//!   --degree K         degree for the generated graph (default 3)
//!   --device NAME      tokyo | melbourne | grid6x6 | linear<N> | ring<N>
//!                      (default tokyo)
//!   --strategy NAME    naive | greedyv | dense | qaim | ip | ic | vic (default ic)
//!   --packing N        layer packing limit (default: unlimited)
//!   --p N              QAOA levels (default 1)
//!   --optimize         find (γ, β) by grid search + Nelder–Mead
//!                      (needs <= 24 nodes; default: fixed representative
//!                      angles)
//!   --seed N           RNG seed (default 7)
//!   --out FILE         write OpenQASM here (default: stdout)
//!   --draw             also print an ASCII drawing of the compiled circuit
//! ```

use std::io::Write as _;

use qaoa::{MaxCut, QaoaParams};
use qcompile::{
    try_compile_artifact_with_context, Compilation, CompileOptions, InitialMapping, QaoaSpec,
};
use qhw::{Calibration, HardwareContext, Topology};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Args {
    edges: Option<String>,
    nodes: usize,
    degree: usize,
    device: String,
    strategy: String,
    packing: Option<usize>,
    p: usize,
    optimize: bool,
    seed: u64,
    out: Option<String>,
    draw: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        edges: None,
        nodes: 12,
        degree: 3,
        device: "tokyo".into(),
        strategy: "ic".into(),
        packing: None,
        p: 1,
        optimize: false,
        seed: 7,
        out: None,
        draw: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--edges" => args.edges = Some(value("--edges")?),
            "--nodes" => args.nodes = value("--nodes")?.parse().map_err(|e| format!("{e}"))?,
            "--degree" => args.degree = value("--degree")?.parse().map_err(|e| format!("{e}"))?,
            "--device" => args.device = value("--device")?,
            "--strategy" => args.strategy = value("--strategy")?,
            "--packing" => {
                args.packing = Some(value("--packing")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--p" => args.p = value("--p")?.parse().map_err(|e| format!("{e}"))?,
            "--optimize" => args.optimize = true,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--out" => args.out = Some(value("--out")?),
            "--draw" => args.draw = true,
            "--help" | "-h" => {
                eprintln!("see the module docs at the top of src/bin/qaoac.rs");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn load_graph(args: &Args, rng: &mut StdRng) -> Result<qgraph::Graph, String> {
    match &args.edges {
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let mut edges = Vec::new();
            let mut max_node = 0usize;
            for (lineno, line) in text.lines().enumerate() {
                let line = line.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                let mut parts = line.split_whitespace();
                let parse = |p: Option<&str>| -> Result<usize, String> {
                    p.ok_or_else(|| format!("line {}: expected 'u v'", lineno + 1))?
                        .parse()
                        .map_err(|e| format!("line {}: {e}", lineno + 1))
                };
                let u = parse(parts.next())?;
                let v = parse(parts.next())?;
                max_node = max_node.max(u).max(v);
                edges.push((u, v));
            }
            qgraph::Graph::from_edges(max_node + 1, edges).map_err(|e| format!("{e}"))
        }
        None => qgraph::generators::connected_random_regular(args.nodes, args.degree, 10_000, rng)
            .map_err(|e| format!("{e}")),
    }
}

fn device(name: &str) -> Result<Topology, String> {
    if let Some(n) = name.strip_prefix("linear") {
        return Ok(Topology::linear(n.parse().map_err(|e| format!("{e}"))?));
    }
    if let Some(n) = name.strip_prefix("ring") {
        return Ok(Topology::ring(n.parse().map_err(|e| format!("{e}"))?));
    }
    match name {
        "tokyo" => Ok(Topology::ibmq_20_tokyo()),
        "melbourne" => Ok(Topology::ibmq_16_melbourne()),
        "grid6x6" => Ok(Topology::grid(6, 6)),
        other => Err(format!("unknown device {other}")),
    }
}

fn strategy(name: &str) -> Result<CompileOptions, String> {
    match name {
        "naive" => Ok(CompileOptions::naive()),
        "greedyv" => Ok(CompileOptions::new(
            InitialMapping::GreedyV,
            Compilation::RandomOrder,
        )),
        "dense" => Ok(CompileOptions::new(
            InitialMapping::Dense,
            Compilation::RandomOrder,
        )),
        "qaim" => Ok(CompileOptions::qaim_only()),
        "ip" => Ok(CompileOptions::ip()),
        "ic" => Ok(CompileOptions::ic()),
        "vic" => Ok(CompileOptions::vic()),
        other => Err(format!("unknown strategy {other}")),
    }
}

fn main() {
    if let Err(msg) = run() {
        eprintln!("qaoac: {msg}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let graph = load_graph(&args, &mut rng)?;
    let topo = device(&args.device)?;
    let mut options = strategy(&args.strategy)?;
    if let Some(limit) = args.packing {
        options = options.with_packing_limit(limit);
    }

    eprintln!(
        "problem: {} nodes, {} edges; device: {}; strategy: {}",
        graph.node_count(),
        graph.edge_count(),
        topo.name(),
        args.strategy
    );

    let params = if args.optimize {
        if graph.node_count() > 24 {
            return Err("--optimize needs <= 24 nodes (exact simulation)".into());
        }
        let problem = MaxCut::new(graph.clone());
        let (params, expectation) = qaoa::optimize::grid_then_nelder_mead(&problem, args.p, 24);
        eprintln!(
            "optimized parameters: {:?} (expectation {:.3}, ratio {:.3})",
            params.levels(),
            expectation,
            expectation / problem.max_value()
        );
        params
    } else {
        QaoaParams::new(vec![(0.9, 0.35); args.p])
    };

    let problem = MaxCut::without_optimum(graph);
    let spec = QaoaSpec::from_maxcut(&problem, &params, true);
    // VIC needs calibration; synthesize a seeded one for devices we have
    // no published table for.
    let calibration = if args.device == "melbourne" {
        Calibration::melbourne_2020_04_08().1
    } else {
        Calibration::random_normal(&topo, 1.0e-2, 0.5e-2, &mut rng)
    };
    let context = HardwareContext::shared(&topo, Some(&calibration));
    let artifact = try_compile_artifact_with_context(&spec, &context, &options, &mut rng)
        .map_err(|e| e.to_string())?;
    let compiled = artifact.template();

    eprintln!(
        "compiled: depth {}, {} gates ({} CNOTs), {} SWAPs, success probability {:.3e}, {:?}",
        compiled.depth(),
        compiled.gate_count(),
        compiled.cx_count(),
        compiled.swap_count(),
        compiled.success_probability(&calibration),
        compiled.elapsed()
    );
    if args.draw {
        eprintln!("{}", qcircuit::draw::draw(compiled.physical()));
    }

    let qasm = qcircuit::qasm::to_qasm(compiled.basis_circuit())
        .map_err(|e| format!("exporting QASM: {e}"))?;
    match &args.out {
        Some(path) => {
            std::fs::write(path, qasm).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        None => {
            std::io::stdout()
                .write_all(qasm.as_bytes())
                .map_err(|e| format!("writing stdout: {e}"))?;
        }
    }
    Ok(())
}
