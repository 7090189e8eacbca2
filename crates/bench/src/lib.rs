//! # flashmem-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! FlashMem paper's evaluation (Section 5) on the simulated mobile GPU.
//!
//! Comparison experiments assemble an
//! [`EngineRegistry`](flashmem_core::EngineRegistry) and sweep it through
//! [`harness::run_matrix`]; each experiment module in [`experiments`] exposes
//! `run(quick) -> <Result>` plus a `Display` implementation that prints the
//! same rows/series the paper reports. The `src/bin/` binaries print the full
//! tables; the `benches/` binaries exercise reduced (`quick = true`) variants
//! so `cargo bench` finishes in reasonable time.
//!
//! Absolute numbers come from a simulator, not the authors' phones; the
//! claim being reproduced is the *shape* of each result (who wins, by roughly
//! what factor, where crossovers and out-of-memory cases appear).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::too_many_lines)]

pub mod experiments;
pub mod harness;
pub mod json;
pub mod table;
pub mod timing;

pub use harness::{
    comparison_registry, matrix_to_json, plan_cache, plan_cache_stats, run_matrix, run_matrix_on,
    BenchMatrix, MatrixCell,
};
pub use json::{json_path_from_args, write_json, Json};

use flashmem_core::pool::{self, ThreadPool};

/// Parse a `--threads N` or `--threads=N` flag from a binary's argument
/// list. `--threads 1` pins every sweep to the exact serial code path (for
/// bisection); without the flag the pool width falls back to the
/// `FLASHMEM_THREADS` environment variable, then to the machine's available
/// parallelism.
///
/// A present-but-invalid value (`--threads 0`, `--threads=1x`, a missing
/// argument) exits with an error rather than silently falling back to full
/// machine width — a typo must never turn a "serial" bisection run into a
/// parallel one.
pub fn threads_from_args(args: &[String]) -> Option<usize> {
    fn invalid(value: &str) -> ! {
        eprintln!("error: --threads requires a positive integer, got `{value}`");
        std::process::exit(2);
    }
    for (i, arg) in args.iter().enumerate() {
        if let Some(value) = arg.strip_prefix("--threads=") {
            return Some(
                value
                    .trim()
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| invalid(value)),
            );
        }
        if arg == "--threads" {
            let value = args
                .get(i + 1)
                .unwrap_or_else(|| invalid("nothing"))
                .as_str();
            return Some(
                value
                    .trim()
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| invalid(value)),
            );
        }
    }
    None
}

/// Resolve the pool every sweep in this process fans out on: `--threads N`
/// when present (pinned into [`pool::configure_global`] before any sweep
/// touches the pool), else the [`pool::global`] default
/// (`FLASHMEM_THREADS` / available parallelism).
pub fn configure_pool_from_args(args: &[String]) -> &'static ThreadPool {
    match threads_from_args(args) {
        Some(threads) => pool::configure_global(threads),
        None => pool::global(),
    }
}

/// Append the wall-clock / pool-width telemetry fields every bench JSON
/// emitter carries: `elapsed_ms` (how long the experiment took on the wall)
/// and `threads` (the pool width that produced it). These are the only
/// schedule-dependent fields in the output — CI's serial-vs-parallel diff
/// strips exactly these two before requiring byte-identical trees.
pub fn with_timing(json: Json, elapsed_ms: f64, threads: usize) -> Json {
    json.field("elapsed_ms", elapsed_ms)
        .field("threads", threads)
}

/// Shared main body for the experiment binaries: parse `--quick` and
/// `--threads N`, run the experiment (its sweeps fan out on the global
/// pool), print its text table plus a wall-clock line, and honour
/// `--json PATH` / `--json=PATH` by writing the experiment's
/// machine-readable form with `elapsed_ms`/`threads` appended. Keeps the
/// per-table binaries to one line so flag handling cannot drift between
/// them.
pub fn run_bin_with_json<T: std::fmt::Display>(
    run: impl FnOnce(bool) -> T,
    to_json: impl FnOnce(&T) -> Json,
) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let pool = configure_pool_from_args(&args);
    let start = std::time::Instant::now();
    let result = run(quick);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    println!("{result}");
    println!(
        "\n({elapsed_ms:.0} ms wall clock on {} pool thread{})",
        pool.threads(),
        if pool.threads() == 1 { "" } else { "s" }
    );
    if let Some(path) = json_path_from_args(&args) {
        let doc = with_timing(to_json(&result), elapsed_ms, pool.threads());
        write_json(&path, &doc).expect("write bench JSON");
        println!("wrote {}", path.display());
    }
}

/// Parse a `--trace-out PATH` or `--trace-out=PATH` flag from a binary's
/// argument list: where to write the Chrome trace-event JSON of the
/// experiment's traced showcase run (open the file in Perfetto or
/// `chrome://tracing`). Absent flag means no trace is recorded at all —
/// tracing stays disabled and the showcase run never happens.
pub fn trace_out_from_args(args: &[String]) -> Option<std::path::PathBuf> {
    for (i, arg) in args.iter().enumerate() {
        if let Some(path) = arg.strip_prefix("--trace-out=") {
            return Some(path.into());
        }
        if arg == "--trace-out" {
            return Some(
                args.get(i + 1)
                    .unwrap_or_else(|| {
                        eprintln!("error: --trace-out requires a path");
                        std::process::exit(2);
                    })
                    .into(),
            );
        }
    }
    None
}

/// [`run_bin_with_json`] for experiments that can also export a
/// deterministic fleet trace: when `--trace-out PATH` is present, `traced`
/// re-runs the experiment's showcase cell with recording enabled and the
/// merged [`FleetTrace`](flashmem_serve::FleetTrace) is written to `PATH`
/// as Chrome trace-event JSON. The trace is a pure function of the
/// workload, so the file is byte-identical at every `--threads` width —
/// CI's trace-smoke step relies on that.
pub fn run_bin_with_json_and_trace<T: std::fmt::Display>(
    run: impl FnOnce(bool) -> T,
    to_json: impl FnOnce(&T) -> Json,
    traced: impl FnOnce(bool) -> flashmem_serve::FleetTrace,
) {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let pool = configure_pool_from_args(&args);
    let start = std::time::Instant::now();
    let result = run(quick);
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    println!("{result}");
    println!(
        "\n({elapsed_ms:.0} ms wall clock on {} pool thread{})",
        pool.threads(),
        if pool.threads() == 1 { "" } else { "s" }
    );
    if let Some(path) = json_path_from_args(&args) {
        let doc = with_timing(to_json(&result), elapsed_ms, pool.threads());
        write_json(&path, &doc).expect("write bench JSON");
        println!("wrote {}", path.display());
    }
    if let Some(path) = trace_out_from_args(&args) {
        let trace = traced(quick);
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).expect("create trace output directory");
            }
        }
        std::fs::write(&path, flashmem_serve::chrome_trace(&trace)).expect("write trace JSON");
        println!(
            "wrote {} ({} events across {} devices, {} dropped)",
            path.display(),
            trace.total_events(),
            trace.processes.len(),
            trace.dropped_events()
        );
    }
}

use flashmem_graph::{ModelSpec, ModelZoo};

/// The models used by a sweep.
///
/// `quick = true` restricts sweeps to three small models so unit tests and
/// the bench binaries stay fast; `quick = false` uses the full Table 6 zoo.
pub fn evaluated_models(quick: bool) -> Vec<ModelSpec> {
    if quick {
        vec![
            ModelZoo::gptneo_small(),
            ModelZoo::resnet50(),
            ModelZoo::vit(),
        ]
    } else {
        ModelZoo::all_evaluated()
    }
}

/// Format an optional millisecond figure, rendering `None` as the paper's "–".
pub fn fmt_ms(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.0}"),
        None => "–".to_string(),
    }
}

/// Format an optional ratio like `8.4×`, rendering `None` as "–".
pub fn fmt_ratio(value: Option<f64>) -> String {
    match value {
        Some(v) if v.is_finite() => format!("{v:.1}×"),
        _ => "–".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_gpu_sim::DeviceSpec;

    #[test]
    fn quick_model_set_is_small_and_full_set_is_table_6() {
        assert_eq!(evaluated_models(true).len(), 3);
        assert_eq!(evaluated_models(false).len(), 11);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ms(Some(1234.4)), "1234");
        assert_eq!(fmt_ms(None), "–");
        assert_eq!(fmt_ratio(Some(8.44)), "8.4×");
        assert_eq!(fmt_ratio(Some(f64::INFINITY)), "–");
        assert_eq!(fmt_ratio(None), "–");
    }

    #[test]
    fn comparison_registry_produces_reports_for_a_small_model() {
        let device = DeviceSpec::oneplus_12();
        let model = ModelZoo::resnet50();
        let matrix = run_matrix(&comparison_registry(), &[model], &[device]);
        // Six baselines + FlashMem, and every one of them supports ResNet-50.
        assert_eq!(matrix.cells.len(), 7);
        assert!(matrix.cells.iter().all(|c| c.report.is_some()));
        let ours = matrix
            .report("FlashMem", "ResNet")
            .expect("flashmem runs resnet");
        assert!(ours.integrated_latency_ms > 0.0);
    }
}
