//! Metric names, units and the one-line JSON result.

use std::collections::BTreeMap;

use flashmem_graph::ModelZoo;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_host_s", "1/s"),
    ("host_peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run. A layer the workload
/// bypasses reads 0. `compile.<abbr>_ms` rows follow, one per evaluated
/// model (see [`per_layer`]).
const PER_LAYER_FIXED: &[(&str, &str)] = &[
    ("compile_total_s", "s"),
    ("compile_geomean_ms", "ms"),
    ("graph.build_ms", "ms"),
    ("fusion.default_ms", "ms"),
    ("fusion.adaptive_ms", "ms"),
    ("fusion.kernels", "count"),
    ("profiler.capacity_ms", "ms"),
    ("lc_opg.plan_ms", "ms"),
    ("lc_opg.build_ms", "ms"),
    ("lc_opg.solve_ms", "ms"),
    ("lc_opg.windows", "count"),
    ("lc_opg.fallback_soft", "count"),
    ("lc_opg.fallback_greedy", "count"),
    ("lc_opg.fallback_preload", "count"),
    ("lc_opg.streamed_weights", "count"),
    ("lc_opg.optimal_models", "count"),
    ("compile.residual_ms", "ms"),
    ("executor.lower_ms", "ms"),
    ("executor.commands", "count"),
    ("gpu_sim.execute_ms", "ms"),
    ("server.run_ms", "ms"),
    ("server.lower_ms", "ms"),
    ("server.lowerings", "count"),
    ("gpu_sim.step_ms", "ms"),
    ("gpu_sim.commands", "count"),
    ("server.residual_ms", "ms"),
    ("decode.run_ms", "ms"),
    ("decode.tokens", "count"),
    ("decode.lower_ms", "ms"),
    ("recovery.retries", "count"),
    ("recovery.failovers", "count"),
    ("recovery.quarantines", "count"),
    ("recovery.probes", "count"),
    ("server.stolen", "count"),
    ("server.rejected", "count"),
    ("cache.hit_rate", "ratio"),
    ("server.completed", "count"),
    ("server.failed", "count"),
    ("server.preemptions", "count"),
    ("server.queue_high_water", "count"),
    ("gpu_sim.clamped_samples", "count"),
    ("sim.latency_p50_ms", "ms"),
    ("sim.latency_p99_ms", "ms"),
    ("sim.peak_memory_mib", "MiB"),
    ("sim.compute_busy", "ratio"),
    ("sim.ttft_p50_ms", "ms"),
    ("sim.ttft_p99_ms", "ms"),
    ("sim.itl_p50_ms", "ms"),
    ("sim.itl_p99_ms", "ms"),
    ("sim.tokens_per_s", "1/s"),
    ("sim.latency_ms_geomean", "ms"),
    ("sim.peak_mib_geomean", "MiB"),
    ("serve_req_per_host_s", "1/s"),
    ("chaos_req_per_host_s", "1/s"),
    ("decode_tokens_per_host_s", "1/s"),
    ("failed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// `compile.<abbr>_ms`, with the abbreviation reduced to name characters.
pub fn compile_metric(abbr: &str) -> String {
    let abbr: String = abbr
        .chars()
        .map(|c| if is_name_char(c) { c } else { '_' })
        .collect();
    format!("compile.{abbr}_ms")
}

/// Every per-layer metric with its unit.
pub fn per_layer() -> Vec<(String, &'static str)> {
    PER_LAYER_FIXED
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(
            ModelZoo::all_evaluated()
                .iter()
                .map(|m| (compile_metric(&m.abbr), "ms")),
        )
        .collect()
}

fn is_name_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')
}

/// True for a name of `[A-Za-z0-9_.-]+` that starts with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(is_name_char)
}

/// The result of one run.
#[derive(Debug, Default)]
pub struct Output {
    /// Benchmark operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed a correctness check.
    pub failed: u64,
    /// Why each failed operation failed (written to stderr).
    pub failures: Vec<String>,
    values: BTreeMap<String, f64>,
}

impl Output {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Count `ops` attempted operations, `failed` of them failed because
    /// of `why` (ignored when `failed` is 0).
    pub fn ops(&mut self, ops: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += ops;
        if failed > 0 {
            self.failed += failed;
            self.failures.push(why());
        }
    }

    /// Count one operation, failed when `result` is an error.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// The JSON line: the end-to-end metrics when `traced` is false, the
    /// per-layer ones otherwise. A metric the run did not set reads 0.
    ///
    /// # Panics
    ///
    /// Panics if a value was set under an undeclared name.
    pub fn to_json(&self, traced: bool) -> String {
        let end_to_end: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|&(name, unit)| (name.to_string(), unit))
            .collect();
        let per_layer = per_layer();
        for name in self.values.keys() {
            assert!(
                end_to_end.iter().chain(&per_layer).any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        let declared: Vec<(String, &str)> = if traced { per_layer } else { end_to_end };
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in &declared {
            assert!(
                valid_name(name),
                "metric name {name} is not [A-Za-z0-9_.-]+"
            );
            let value = self.get(name);
            let value = if value.is_finite() { value } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean of positive `values` (0 for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The process's resident-memory high-water mark in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        for name in &names {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "duplicate metric names");
    }

    #[test]
    fn name_check_rejects_bad_names() {
        assert!(valid_name("compile.GPTN-2.7B_ms"));
        assert!(!valid_name("compile.GPTN 2.7B_ms"));
        assert!(!valid_name("_leading"));
        assert!(!valid_name(""));
        assert_eq!(compile_metric("SD U/Net"), "compile.SD_U_Net_ms");
    }

    /// The declared lists are the ones `BENCHMARK.json` promises.
    #[test]
    fn benchmark_json_declares_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let quoted = |name: &str| format!("\"name\": \"{name}\"");
        for (name, unit) in END_TO_END {
            assert!(json.contains(&quoted(name)), "{name} missing");
            assert!(json.contains(&format!("{}, \"unit\": \"{unit}\"", quoted(name))));
        }
        for (name, unit) in per_layer() {
            assert!(json.contains(&quoted(&name)), "{name} missing");
            assert!(json.contains(&format!("{}, \"unit\": \"{unit}\"", quoted(&name))));
        }
        assert_eq!(
            json.matches("\"unit\"").count(),
            END_TO_END.len() + per_layer().len(),
            "BENCHMARK.json declares a metric the benchmark does not print"
        );
    }

    #[test]
    fn json_line_lists_every_declared_metric() {
        let mut out = Output::default();
        out.ops(3, 0, String::new);
        out.set("setup_s", 1.25);
        let line = out.to_json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        assert_eq!(
            out.to_json(true).matches("\"value\"").count(),
            per_layer().len()
        );
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
