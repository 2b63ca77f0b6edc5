//! The compile **explain report**: a structured, deterministic account of
//! what one compilation run decided and what it cost.
//!
//! Aggregate telemetry (qtrace manifests) answers "how much"; the explain
//! report answers "why": which initial layout the mapper chose, which
//! CPHASE gates each IC/IP layer contained, how many SWAPs each layer's
//! routing inserted and at what routed depth, and — when the
//! graceful-degradation ladder was involved — the narrative of which rung
//! failed for which reason.
//!
//! The report deliberately excludes every wall-clock quantity, so for a
//! fixed seed the JSON rendering is **byte-reproducible across runs and
//! worker-thread counts** (compilation itself is deterministic per seed;
//! see `compile_batch`). It renders two ways: canonical JSON
//! ([`Explain::to_json`], parseable by `qtrace::json`) and human-readable
//! text ([`Explain::render_text`] / [`fmt::Display`]).

use std::fmt;

use qcircuit::Census;
use qtrace::json::escape;

use crate::trace::{FallbackRecord, PassTrace};

/// Schema version of the explain JSON document.
pub const EXPLAIN_VERSION: u64 = 1;

/// One formed gate layer, as seen by the routing backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainLayer {
    /// QAOA level the layer belongs to; `None` for full-circuit routing
    /// (IP / random order), where ASAP layers may span levels.
    pub level: Option<usize>,
    /// The layer's two-qubit gates as `(logical_a, logical_b)` pairs.
    pub gates: Vec<(usize, usize)>,
    /// SWAPs inserted to route this layer.
    pub swaps: usize,
    /// Depth of the routed partial circuit; `None` for full-circuit
    /// routing, where per-layer depth is not separable.
    pub routed_depth: Option<usize>,
}

/// One pass's non-timing contribution (timing lives in [`PassTrace`] and
/// the qtrace manifest; it is excluded here for reproducibility).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainPass {
    /// Pass name (`"qaim"`, `"route"`, `"incremental-hops"`, …).
    pub name: &'static str,
    /// SWAPs the pass inserted.
    pub swaps_added: usize,
    /// Circuit depth after the pass, when it produces a circuit.
    pub depth_after: Option<usize>,
}

/// The structured explain report for one compilation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explain {
    /// The paper configuration name actually used for the final circuit
    /// (`"IC"`, `"VIC"`, … — after any ladder steps).
    pub config: String,
    /// Logical qubits in the program.
    pub num_logical: usize,
    /// Physical qubits on the target.
    pub num_physical: usize,
    /// Initial logical→physical mapping (`initial_layout[q]` is the
    /// physical qubit logical `q` starts on).
    pub initial_layout: Vec<usize>,
    /// The mapping after all SWAP insertion.
    pub final_layout: Vec<usize>,
    /// Pass sequence in execution order.
    pub passes: Vec<ExplainPass>,
    /// Formed gate layers in execution order.
    pub layers: Vec<ExplainLayer>,
    /// Degradation-ladder narrative; empty when the run compiled on its
    /// requested configuration.
    pub fallbacks: Vec<FallbackRecord>,
    /// Total SWAPs inserted.
    pub swap_count: usize,
    /// Depth of the basis-lowered circuit (the paper's depth metric).
    pub basis_depth: usize,
    /// Gate count of the basis-lowered circuit.
    pub gate_count: usize,
    /// CNOT count of the basis-lowered circuit.
    pub cx_count: usize,
}

impl Explain {
    // One argument per report field; a builder would be ceremony for a
    // single crate-internal call site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: String,
        num_logical: usize,
        num_physical: usize,
        initial_layout: Vec<usize>,
        final_layout: Vec<usize>,
        trace: &PassTrace,
        layers: Vec<ExplainLayer>,
        swap_count: usize,
        basis: Census,
    ) -> Explain {
        Explain {
            config,
            num_logical,
            num_physical,
            initial_layout,
            final_layout,
            passes: trace
                .records()
                .iter()
                .map(|r| ExplainPass {
                    name: r.name,
                    swaps_added: r.swaps_added,
                    depth_after: r.depth_after,
                })
                .collect(),
            layers,
            fallbacks: trace.fallbacks().to_vec(),
            swap_count,
            basis_depth: basis.depth,
            gate_count: basis.gates,
            cx_count: basis.cx,
        }
    }

    /// Serializes the report as canonical JSON: fixed field order, one
    /// layer/pass per line, no wall-clock data. Byte-reproducible for a
    /// fixed seed; parseable by `qtrace::json::parse`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"explain_version\": {EXPLAIN_VERSION},\n"));
        out.push_str(&format!("  \"config\": \"{}\",\n", escape(&self.config)));
        out.push_str(&format!(
            "  \"qubits\": {{\"logical\": {}, \"physical\": {}}},\n",
            self.num_logical, self.num_physical
        ));
        out.push_str(&format!(
            "  \"initial_layout\": {},\n",
            usize_array(&self.initial_layout)
        ));
        out.push_str(&format!(
            "  \"final_layout\": {},\n",
            usize_array(&self.final_layout)
        ));
        list(&mut out, "passes", &self.passes, |p| {
            format!(
                "{{\"name\": \"{}\", \"swaps_added\": {}, \"depth_after\": {}}}",
                escape(p.name),
                p.swaps_added,
                opt_num(p.depth_after),
            )
        });
        list(&mut out, "layers", &self.layers, |l| {
            let gates: Vec<String> = l.gates.iter().map(|(a, b)| format!("[{a}, {b}]")).collect();
            format!(
                "{{\"level\": {}, \"gates\": [{}], \"swaps\": {}, \"routed_depth\": {}}}",
                opt_num(l.level),
                gates.join(", "),
                l.swaps,
                opt_num(l.routed_depth),
            )
        });
        list(&mut out, "fallbacks", &self.fallbacks, |f| {
            format!(
                "{{\"from\": \"{}\", \"to\": \"{}\", \"reason\": \"{}\"}}",
                escape(&f.from),
                escape(&f.to),
                f.reason.slug(),
            )
        });
        out.push_str(&format!(
            "  \"totals\": {{\"swaps\": {}, \"basis_depth\": {}, \"gates\": {}, \"cx\": {}}}\n",
            self.swap_count, self.basis_depth, self.gate_count, self.cx_count
        ));
        out.push_str("}\n");
        out
    }

    /// Renders the report as human-readable text (also available via
    /// `Display`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("compile explain: {}\n", self.config));
        out.push_str(&format!(
            "  qubits: {} logical on {} physical\n",
            self.num_logical, self.num_physical
        ));
        out.push_str("  initial layout:");
        for (q, p) in self.initial_layout.iter().enumerate() {
            out.push_str(&format!(" q{q}->{p}"));
        }
        out.push('\n');
        out.push_str("  final layout:  ");
        for (q, p) in self.final_layout.iter().enumerate() {
            out.push_str(&format!(" q{q}->{p}"));
        }
        out.push('\n');
        if self.fallbacks.is_empty() {
            out.push_str("  fallbacks: none\n");
        } else {
            out.push_str("  fallbacks:\n");
            for f in &self.fallbacks {
                out.push_str(&format!(
                    "    {} -> {} ({})\n",
                    f.from,
                    f.to,
                    f.reason.slug()
                ));
            }
        }
        out.push_str("  passes:\n");
        for p in &self.passes {
            out.push_str(&format!("    {}", p.name));
            if p.swaps_added > 0 {
                out.push_str(&format!("  +{} swaps", p.swaps_added));
            }
            if let Some(d) = p.depth_after {
                out.push_str(&format!("  depth {d}"));
            }
            out.push('\n');
        }
        out.push_str(&format!("  layers: {} formed\n", self.layers.len()));
        for (i, l) in self.layers.iter().enumerate() {
            out.push_str(&format!("    #{i}"));
            if let Some(level) = l.level {
                out.push_str(&format!(" level {level}"));
            }
            out.push_str(&format!(
                ": {} gate{}, {} swap{}",
                l.gates.len(),
                if l.gates.len() == 1 { "" } else { "s" },
                l.swaps,
                if l.swaps == 1 { "" } else { "s" },
            ));
            if let Some(d) = l.routed_depth {
                out.push_str(&format!(", routed depth {d}"));
            }
            let pairs: Vec<String> = l.gates.iter().map(|(a, b)| format!("({a},{b})")).collect();
            out.push_str(&format!("  [{}]\n", pairs.join(" ")));
        }
        out.push_str(&format!(
            "  totals: {} swaps, basis depth {}, {} gates ({} cx)\n",
            self.swap_count, self.basis_depth, self.gate_count, self.cx_count
        ));
        out
    }

    /// Writes the JSON rendering to `path`.
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_text())
    }
}

/// Renders one `"key": [entries…]` array section followed by `,\n`.
fn list<T>(out: &mut String, key: &str, entries: &[T], render: impl Fn(&T) -> String) {
    if entries.is_empty() {
        out.push_str(&format!("  \"{key}\": [],\n"));
        return;
    }
    out.push_str(&format!("  \"{key}\": [\n"));
    for (i, entry) in entries.iter().enumerate() {
        out.push_str("    ");
        out.push_str(&render(entry));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
}

fn usize_array(values: &[usize]) -> String {
    let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn opt_num(v: Option<usize>) -> String {
    match v {
        Some(v) => v.to_string(),
        None => "null".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::FallbackReason;
    use qtrace::json::Json;

    fn sample() -> Explain {
        let mut trace = PassTrace::new();
        trace.push("qaim", std::time::Duration::from_millis(1), 0, None);
        trace.push(
            "incremental-hops",
            std::time::Duration::from_millis(2),
            3,
            Some(17),
        );
        trace.push_fallback("VIC", "IC", FallbackReason::MissingCalibration);
        Explain::from_parts(
            "IC".into(),
            3,
            5,
            vec![4, 0, 2],
            vec![0, 4, 2],
            &trace,
            vec![
                ExplainLayer {
                    level: Some(0),
                    gates: vec![(0, 1), (1, 2)],
                    swaps: 2,
                    routed_depth: Some(4),
                },
                ExplainLayer {
                    level: None,
                    gates: vec![(0, 2)],
                    swaps: 0,
                    routed_depth: None,
                },
            ],
            2,
            Census {
                depth: 17,
                gates: 40,
                cx: 12,
                parametric: 0,
            },
        )
    }

    #[test]
    fn json_is_valid_and_complete() {
        let e = sample();
        let doc = Json::parse(&e.to_json()).expect("explain JSON parses");
        assert_eq!(
            doc.get("explain_version").and_then(Json::as_u64),
            Some(EXPLAIN_VERSION)
        );
        assert_eq!(doc.get("config").and_then(Json::as_str), Some("IC"));
        let layers = doc.get("layers").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), 2);
        assert_eq!(layers[0].get("swaps").and_then(Json::as_u64), Some(2));
        assert_eq!(layers[1].get("level"), Some(&Json::Null));
        let fallbacks = doc.get("fallbacks").and_then(Json::as_arr).unwrap();
        assert_eq!(
            fallbacks[0].get("reason").and_then(Json::as_str),
            Some("missing-calibration")
        );
        let totals = doc.get("totals").unwrap();
        assert_eq!(totals.get("swaps").and_then(Json::as_u64), Some(2));
        assert_eq!(totals.get("cx").and_then(Json::as_u64), Some(12));
    }

    #[test]
    fn json_excludes_wall_clock_fields() {
        // Reproducibility depends on no timing data leaking in.
        let json = sample().to_json();
        for needle in ["_ns", "_ms", "elapsed", "time"] {
            assert!(!json.contains(needle), "found '{needle}' in explain JSON");
        }
    }

    #[test]
    fn text_narrates_the_run() {
        let text = sample().render_text();
        assert!(text.contains("compile explain: IC"));
        assert!(text.contains("VIC -> IC (missing-calibration)"));
        assert!(text.contains("#0 level 0: 2 gates, 2 swaps, routed depth 4"));
        assert!(text.contains("[(0,1) (1,2)]"));
        assert!(text.contains("totals: 2 swaps, basis depth 17, 40 gates (12 cx)"));
        assert_eq!(text, sample().to_string());
    }
}
