//! compile-cold: cold `FlashMem::compile` of the 11 evaluated models on a
//! OnePlus 12 with the memory-priority configuration (the Table 4 setting).
//!
//! Timed passes call the public `FlashMem::compile`. Outside the timed
//! part, every plan is validated, lowered and executed on the simulator,
//! and its digest must repeat in every pass. The traced pass re-runs the
//! same pipeline call by call (default fusion, adaptive fusion, capacity
//! profiling, LC-OPG) under spans, and must reproduce the same digests.

use std::time::{Duration, Instant};

use flashmem_core::cache::Fnv1a;
use flashmem_core::{AdaptiveFusion, CompiledModel, FlashMem, FlashMemConfig, LcOpgReport};
use flashmem_core::{LcOpgSolver, PlannerMode, StreamingExecutor};
use flashmem_gpu_sim::engine::ExecutionOutcome;
use flashmem_gpu_sim::{DeviceSpec, GpuSimulator, SimConfig};
use flashmem_graph::{FusionPlan, ModelSpec, ModelZoo, WeightInventory};
use flashmem_profiler::CapacityProfiler;
use flashmem_solver::SolveStatus;

use crate::digest::DigestLog;
use crate::metrics::{compile_metric, geomean, median, Output};
use crate::spans::{ms, Spans};
use crate::{gen, Args, Workload};

/// Set-up: build the model zoo (every evaluated graph). Returns the models
/// of the last build and its duration per repetition.
fn setup(spans: Option<&mut Spans>) -> (Vec<ModelSpec>, Vec<f64>) {
    let reps = Workload::CompileCold.setup_reps();
    let mut times = Vec::with_capacity(reps);
    let mut models = Vec::new();
    for _ in 0..reps {
        let start = Instant::now();
        models = ModelZoo::all_evaluated();
        times.push(start.elapsed().as_secs_f64());
    }
    if let Some(spans) = spans {
        spans.time("graph.build", None, ModelZoo::all_evaluated);
    }
    (models, times)
}

fn lower_and_execute(
    device: &DeviceSpec,
    config: &FlashMemConfig,
    model: &ModelSpec,
    compiled: &CompiledModel,
    mut spans: Option<&mut Spans>,
) -> Result<(usize, ExecutionOutcome), String> {
    let runtime = FlashMem::new(device.clone()).with_config(config.clone());
    let executor = StreamingExecutor::new(device.clone(), runtime.rewriter().lowering_options())
        .with_embedded_transforms(config.enable_kernel_rewriting);
    let lower = || executor.compile(model.graph(), &compiled.fusion, &compiled.plan);
    let stream = match spans.as_deref_mut() {
        Some(spans) => spans.time("executor.lower", None, lower).0,
        None => lower(),
    };
    let mut sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let outcome = match spans {
        Some(spans) => {
            spans
                .time("gpu_sim.execute", None, || sim.execute(&stream))
                .0
        }
        None => sim.execute(&stream),
    };
    outcome
        .map(|outcome| (stream.len(), outcome))
        .map_err(|e| format!("{}: execution failed: {e}", model.abbr))
}

/// Digest of a compiled plan and its simulated result. The LC-OPG status
/// and timings are left out: they follow the host's wall clock.
fn digest(compiled: &CompiledModel, commands: usize, outcome: &ExecutionOutcome) -> u64 {
    let mut h = Fnv1a::new().write_u64(compiled.fusion.len() as u64);
    for group in compiled.fusion.groups() {
        h = h
            .write_u64(group.first().0 as u64)
            .write_u64(group.last().0 as u64);
    }
    for w in compiled.plan.weights() {
        h = h
            .write_u64(w.weight.0 as u64)
            .write_u64(w.consumer_kernel as u64)
            .write_u64(w.disk_load_kernel as u64)
            .write_u64(u64::from(w.preloaded))
            .write_u64(w.bytes);
    }
    for kernel in 0..compiled.plan.num_kernels() {
        for a in compiled.plan.assignments_at(kernel) {
            h = h
                .write_u64(a.weight.0 as u64)
                .write_u64(a.chunks)
                .write_u64(a.bytes);
        }
    }
    h.write_u64(commands as u64)
        .write_f64(outcome.total_time_ms)
        .write_u64(outcome.peak_memory_bytes)
        .write_f64(outcome.average_memory_bytes)
        .finish()
}

/// Validate, execute and digest one compiled model.
fn check(
    device: &DeviceSpec,
    config: &FlashMemConfig,
    model: &ModelSpec,
    compiled: &CompiledModel,
    spans: Option<&mut Spans>,
) -> Result<(u64, usize, ExecutionOutcome), String> {
    let inventory = WeightInventory::with_chunk_size(model.graph(), config.chunk_bytes);
    compiled
        .plan
        .validate(&inventory, Some(config.m_peak_bytes + config.chunk_bytes))
        .map_err(|e| format!("{}: invalid plan: {e}", model.abbr))?;
    let (commands, outcome) = lower_and_execute(device, config, model, compiled, spans)?;
    Ok((digest(compiled, commands, &outcome), commands, outcome))
}

/// `FlashMem::compile`, one public call at a time, each under a span.
fn traced_compile(
    device: &DeviceSpec,
    config: &FlashMemConfig,
    model: &ModelSpec,
    spans: &mut Spans,
) -> CompiledModel {
    let graph = model.graph();
    let runtime = FlashMem::new(device.clone()).with_config(config.clone());
    let root = spans.record("compile.model", None, Duration::ZERO);
    let start = Instant::now();
    let (mut fusion, _) = spans.time("fusion.default", Some(root), || {
        FusionPlan::default_fusion(graph)
    });
    let mut fusion_report = None;
    if config.enable_adaptive_fusion {
        let ((refined, report), _) = spans.time("fusion.adaptive", Some(root), || {
            AdaptiveFusion::new(device.clone(), config.clone()).refine(graph, &fusion)
        });
        fusion = refined;
        fusion_report = Some(report);
    }
    let mode = if config.enable_opg {
        PlannerMode::Hybrid
    } else {
        PlannerMode::FullPreload
    };
    let (capacities, _) = spans.time("profiler.capacity", Some(root), || {
        CapacityProfiler::new(device.clone())
            .with_options(runtime.rewriter().lowering_options())
            .capacities(graph, &fusion)
    });
    let ((plan, planner_report), plan_span) = spans.time("lc_opg.plan", Some(root), || {
        LcOpgSolver::new(device.clone(), config.clone())
            .with_mode(mode)
            .plan_with(graph, &fusion, &capacities)
    });
    spans.record("lc_opg.build", Some(plan_span), planner_report.build_model);
    spans.record("lc_opg.solve", Some(plan_span), planner_report.solve_model);
    spans.set_duration(root, start.elapsed());
    CompiledModel {
        model_name: graph.name().to_string(),
        fusion,
        plan,
        planner_report,
        fusion_report,
    }
}

/// LC-OPG work counts, summed over compiles.
pub fn add_planner_counts(out: &mut Output, report: &LcOpgReport) {
    out.add("lc_opg.windows", report.windows as f64);
    out.add("lc_opg.fallback_soft", report.fallback_soft as f64);
    out.add("lc_opg.fallback_greedy", report.fallback_greedy as f64);
    out.add("lc_opg.fallback_preload", report.fallback_preload as f64);
    out.add("lc_opg.streamed_weights", report.streamed_weights as f64);
    out.add(
        "lc_opg.optimal_models",
        f64::from(u8::from(report.status == SolveStatus::Optimal)),
    );
}

pub fn run(args: &Args, out: &mut Output) {
    let device = DeviceSpec::oneplus_12();
    let config = FlashMemConfig::memory_priority();
    let mut spans = Spans::new();
    let (models, setup_s) = setup(args.trace.then_some(&mut spans));
    out.set("setup_s", median(&setup_s));
    let models = gen::compile_order(models, args.seed);
    let runtime = FlashMem::new(device.clone()).with_config(config.clone());

    // Timed passes: at least two, so every digest is checked once.
    let mut log = DigestLog::default();
    let mut per_model_ms: Vec<Vec<f64>> = vec![Vec::new(); models.len()];
    let mut pass_s = Vec::new();
    let mut outcomes: Vec<ExecutionOutcome> = Vec::new();
    let measure = Instant::now();
    while pass_s.len() < 2 || measure.elapsed().as_secs_f64() < args.seconds {
        let mut total = Duration::ZERO;
        for (i, model) in models.iter().enumerate() {
            let start = Instant::now();
            let compiled = std::hint::black_box(runtime.compile(model.graph()));
            let elapsed = start.elapsed();
            total += elapsed;
            per_model_ms[i].push(ms(elapsed));
            let result =
                check(&device, &config, model, &compiled, None).and_then(|(digest, _, outcome)| {
                    if outcomes.len() < models.len() {
                        outcomes.push(outcome);
                    }
                    log.record(&model.abbr, digest)
                });
            out.check(result);
        }
        pass_s.push(total.as_secs_f64());
    }
    let compile_s = median(&pass_s);
    out.set("compile_total_s", compile_s);
    let model_medians: Vec<f64> = per_model_ms.iter().map(|t| median(t)).collect();
    out.set("compile_geomean_ms", geomean(&model_medians));
    out.set("work_per_host_s", models.len() as f64 / compile_s);
    eprintln!("perfbench: compile pass seconds {pass_s:.3?}");
    if !args.trace {
        return;
    }

    for (model, t) in models.iter().zip(&model_medians) {
        out.set(&compile_metric(&model.abbr), *t);
    }
    let latencies: Vec<f64> = outcomes.iter().map(|o| o.total_time_ms).collect();
    let peaks: Vec<f64> = outcomes.iter().map(|o| o.peak_memory_mib()).collect();
    out.set("sim.latency_ms_geomean", geomean(&latencies));
    out.set("sim.peak_mib_geomean", geomean(&peaks));
    let clamped: u64 = outcomes.iter().map(|o| o.memory_trace.clamped()).sum();
    out.set("gpu_sim.clamped_samples", clamped as f64);

    // The traced pass.
    for model in &models {
        let compiled = traced_compile(&device, &config, model, &mut spans);
        add_planner_counts(out, &compiled.planner_report);
        out.add("fusion.kernels", compiled.fusion.len() as f64);
        let result = check(&device, &config, model, &compiled, Some(&mut spans)).and_then(
            |(digest, commands, _)| {
                out.add("executor.commands", commands as f64);
                log.record(&model.abbr, digest)
            },
        );
        out.check(result.map_err(|why| format!("traced pass: {why}")));
    }
    let self_ms = spans.self_ms();
    for (name, metric) in [
        ("graph.build", "graph.build_ms"),
        ("fusion.default", "fusion.default_ms"),
        ("fusion.adaptive", "fusion.adaptive_ms"),
        ("profiler.capacity", "profiler.capacity_ms"),
        ("lc_opg.plan", "lc_opg.plan_ms"),
        ("lc_opg.build", "lc_opg.build_ms"),
        ("lc_opg.solve", "lc_opg.solve_ms"),
        ("compile.model", "compile.residual_ms"),
        ("executor.lower", "executor.lower_ms"),
        ("gpu_sim.execute", "gpu_sim.execute_ms"),
    ] {
        out.set(metric, self_ms.get(name).copied().unwrap_or(0.0));
    }
    out.set(
        "trace.overhead_ms",
        spans.total_ms("compile.model") - compile_s * 1e3,
    );
    eprint!("{}", spans.summary());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_digest_catches_an_injected_mismatch() {
        let device = DeviceSpec::oneplus_12();
        let config = FlashMemConfig::memory_priority();
        let model = ModelZoo::resnet50();
        let compiled = FlashMem::new(device.clone())
            .with_config(config.clone())
            .compile(model.graph());
        let (first, commands, mut outcome) =
            check(&device, &config, &model, &compiled, None).expect("a valid plan");
        let mut log = DigestLog::default();
        assert_eq!(log.record(&model.abbr, first), Ok(()));
        let mut spans = Spans::new();
        let traced = traced_compile(&device, &config, &model, &mut spans);
        let (again, _, _) = check(&device, &config, &model, &traced, None).expect("a valid plan");
        assert_eq!(log.record(&model.abbr, again), Ok(()));
        outcome.peak_memory_bytes += 1;
        let changed = digest(&compiled, commands, &outcome);
        assert!(log.record(&model.abbr, changed).is_err());
    }
}
