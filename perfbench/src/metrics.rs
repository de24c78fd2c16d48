//! Metric names, units and the one-line JSON summary every run prints.

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("trace.build_s", "s"),
    ("sched.compile_s", "s"),
    ("trace.record_s", "s"),
    ("trace.record_ns_per_inst", "ns/inst"),
    ("trace.decode_s", "s"),
    ("trace.tape_mib", "MiB"),
    ("core.tag_ns_per_access", "ns/access"),
    ("core.tag_hit_frac", "fraction"),
    ("mem.access_ns", "ns/access"),
    ("mem.fills", "count"),
    ("mem.merged_frac", "fraction"),
    ("cpu.fused_ns_per_inst_cfg", "ns/inst"),
    ("cpu.unfused_ns_per_inst", "ns/inst"),
    ("cpu.fusion_gain", "ratio"),
    ("cpu.row_p50_ms", "ms"),
    ("cpu.row_p90_ms", "ms"),
    ("sim.pool_busy_frac", "fraction"),
    ("sim.store_result_write_s", "s"),
    ("sim.report_s", "s"),
    ("oracle.analyze_ns_per_access", "ns/access"),
    ("oracle.probe_s", "s"),
    ("oracle.check_s", "s"),
    ("oracle.classified_frac", "fraction"),
    ("trace_overhead_frac", "fraction"),
    ("span_coverage_frac", "fraction"),
];

/// One reported value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A value of the metric `name`, with the unit listed for it.
    ///
    /// # Panics
    ///
    /// If `name` is not in [`END_TO_END`] or [`PER_LAYER`].
    pub fn new(name: &'static str, value: f64) -> Metric {
        let (name, unit) = *END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("metric {name} is not listed"));
        Metric { name, unit, value }
    }
}

/// A run's summary: cells attempted, cells failed, metrics.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Cells simulated or checked.
    pub attempted: u64,
    /// Cells that failed: an error, a digest or identity mismatch, an
    /// oracle violation, or a store corruption or I/O error.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// `true` when the metrics are exactly `expected`, in order.
    pub fn reports(&self, expected: &[(&str, &str)]) -> bool {
        self.metrics
            .iter()
            .map(|m| (m.name, m.unit))
            .eq(expected.iter().copied())
    }

    /// The summary line. A non-finite value is printed as `null` and
    /// makes the run incorrect.
    pub fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".into()
                };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && finite && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            body.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `"name": "…"` values of one section of `BENCHMARK.json`.
    fn names_in(section: &str) -> Vec<(String, String)> {
        section
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| {
                let name = rest.split('"').next().unwrap().to_string();
                let unit = rest
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split('"').next())
                    .unwrap_or("")
                    .to_string();
                (name, unit)
            })
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_are_valid_unique_and_match_benchmark_json() {
        let all: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert_eq!(
                all.iter().filter(|n| *n == name).count(),
                1,
                "{name} used once"
            );
        }
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let (head, per_layer) = json.split_once("\"per_layer\"").unwrap();
        let (workloads, end_to_end) = head.split_once("\"end_to_end\"").unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_in(end_to_end), own(&END_TO_END));
        assert_eq!(names_in(per_layer), own(&PER_LAYER));
        let workload_names: Vec<String> = names_in(workloads).into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workload_names, ours);
    }

    #[test]
    fn summary_line_has_the_contract_keys() {
        let out = Outcome {
            attempted: 3,
            failed: 0,
            metrics: vec![Metric::new("setup_s", 0.25)],
        };
        assert_eq!(
            out.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        let bad = Outcome {
            metrics: vec![Metric::new("setup_s", f64::NAN)],
            ..out
        };
        assert!(bad.to_json().starts_with("{\"correct\": false"));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }
}
