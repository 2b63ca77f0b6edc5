//! Result collection and the one-line JSON summary the benchmark ends
//! with.

use std::fmt::Write as _;

/// Output-check bookkeeping shared by every workload.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks evaluated.
    pub run: u64,
    /// Checks that failed.
    pub failed: u64,
    /// The first few failure descriptions.
    pub messages: Vec<String>,
}

impl Checks {
    /// Records one check; `what` is only rendered when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Folds another set of checks into this one.
    pub fn merge(&mut self, other: Checks) {
        self.run += other.run;
        self.failed += other.failed;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

/// What one benchmark run measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, String)>,
    /// Operations attempted in the measured part.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a check.
    pub failed: u64,
    /// Output checks.
    pub checks: Checks,
}

impl Report {
    /// Adds (or replaces) a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit.to_owned();
            }
            None => self.metrics.push((name, value, unit.to_owned())),
        }
    }

    /// The value of a metric, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks.failed == 0
    }

    /// Human-readable metric lines.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "  {name:<34} {value:>16.6} {unit}");
        }
        out
    }

    /// The final JSON line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 rendered as a JSON number with every digit Rust keeps.
fn json_number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_four_summary_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("p50_us", 12.5, "us");
        r.metric("cx_sum", 40.0, "count");
        let line = r.json_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"cx_sum\": {\"value\": 40.0, \"unit\": \"count\"}}}"
        );
    }
}
