//! The metric catalogue and the one-line JSON result.

use crate::kernel::Tally;

/// End-to-end metrics `(name, unit)`, reported by every `--trace 0` run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("warm_mflops", "Mflop/s"),
    ("cold_mflops", "Mflop/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rps", "1/s"),
    ("multiply_ms_p50", "ms"),
    ("store_ms_p50", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by every `--trace 1` run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.generate_s", "s"),
    ("sparse.to_csc_ms", "ms"),
    ("sparse.reference_mflops", "Mflop/s"),
    ("core.engine_ms", "ms"),
    ("core.symbolic_ms", "ms"),
    ("core.expand_ms", "ms"),
    ("core.sort_ms", "ms"),
    ("core.compress_ms", "ms"),
    ("core.assemble_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("model.stream_beta_gbps", "GB/s"),
    ("core.expand_pct_beta", "%"),
    ("core.sort_pct_beta", "%"),
    ("core.compress_pct_beta", "%"),
    ("core.pct_eq4", "%"),
    ("workspace.first_touch_ms", "ms"),
    ("workspace.warm_bytes_allocated", "count"),
    ("core.warm_mflops_nproc", "Mflop/s"),
    ("core.speedup_nproc", "x"),
    ("core.bin_skew", "x"),
    ("core.bit_exact_share_nproc", "share"),
    ("baseline.hash_mflops", "Mflop/s"),
    ("core.pb_over_hash", "x"),
    ("planner.decide_us", "us"),
    ("planner.pb_share", "share"),
    ("serve.parse_ms", "ms"),
    ("serve.catalog_store_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.multiply_ms_p90", "ms"),
    ("serve.batched_share", "share"),
    ("env.steal_pct", "%"),
];

/// A run's result: the outcome tally plus named metrics.
#[derive(Debug)]
pub struct Report {
    pub tally: Tally,
    catalogue: &'static [(&'static str, &'static str)],
    values: Vec<(&'static str, f64)>,
}

impl Report {
    /// An empty report whose metrics must come from `catalogue`.
    pub fn new(catalogue: &'static [(&'static str, &'static str)]) -> Report {
        Report {
            tally: Tally::default(),
            catalogue,
            values: Vec::new(),
        }
    }

    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// The result line: every catalogue metric exactly once, each finite,
    /// in catalogue order.  A missing, unknown, repeated or non-finite
    /// metric is an error, not a line.
    pub fn json(&self) -> Result<String, String> {
        for (name, _) in &self.values {
            if !self.catalogue.iter().any(|(n, _)| n == name) {
                return Err(format!("metric {name} is not in the catalogue"));
            }
        }
        let mut metrics = Vec::new();
        for (name, unit) in self.catalogue {
            let mut found = self.values.iter().filter(|(n, _)| n == name);
            let value = match (found.next(), found.next()) {
                (Some(&(_, v)), None) if v.is_finite() => v,
                (Some(&(_, v)), None) => return Err(format!("metric {name} is {v}")),
                (None, _) => return Err(format!("metric {name} was not measured")),
                (Some(_), Some(_)) => return Err(format!("metric {name} was set twice")),
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.tally.failed == 0 && self.tally.attempted > 0;
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue is the one `BENCHMARK.json` publishes, name for name
    /// and unit for unit.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    #[test]
    fn every_metric_prints_with_its_unit() {
        let mut r = Report::new(END_TO_END);
        r.tally.record(true);
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.0 + i as f64 / 3.0);
        }
        let line = r.json().expect("complete report");
        let v = serde_json::from_str(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        for (name, unit) in END_TO_END {
            let m = v.get("metrics").and_then(|m| m.get(name)).expect(name);
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
            assert!(m.get("value").and_then(|x| x.as_f64()).is_some());
        }
    }

    #[test]
    fn incomplete_or_failed_reports_are_flagged() {
        let mut r = Report::new(END_TO_END);
        r.set("warm_mflops", 1.0);
        assert!(r.json().is_err(), "missing metrics");
        let mut r = Report::new(END_TO_END);
        for (name, _) in END_TO_END {
            r.set(name, 2.0);
        }
        r.tally.record(true);
        r.tally.record(false);
        let line = r.json().expect("complete");
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        r.set("bogus", 1.0);
        assert!(r.json().is_err(), "unknown metric");
    }
}
