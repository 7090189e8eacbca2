//! The three warm-cache serving workloads: serve-steady, serve-chaos and
//! decode-batched.
//!
//! Set-up builds the workload's models and fills a fresh `ArtifactCache`
//! with every (model × device) compile on the calling thread, several times
//! over. Each timed repetition is one batch call of the engine on a
//! width-2 pool over the same generated request list. Outside the timed
//! part the benchmark checks each report's disposition partition, that its
//! digest repeats in every repetition and at pool width 1, and that the
//! cache was hit on every lookup.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use flashmem_core::ThreadPool;
use flashmem_core::{ArtifactCache, CacheStats, CompiledArtifact, FlashMem, FlashMemConfig};
use flashmem_gpu_sim::engine::{CommandStream, QueueClocks, StreamStepper};
use flashmem_gpu_sim::{DeviceSpec, GpuSimulator, MemoryTracker, SimConfig, SimResult};
use flashmem_graph::ModelSpec;
use flashmem_serve::server::lower_artifact;
use flashmem_serve::{
    BatchConfig, DecodeEngine, EdfPolicy, OverloadControl, PriorityPolicy, RecoveryControl,
    ServeEngine, ServeReport, ServeRequest,
};

use crate::compile::add_planner_counts;
use crate::digest::{self, DigestLog};
use crate::metrics::{geomean, median, Output};
use crate::spans::{ms, Spans};
use crate::{gen, Args, Workload, POOL_WIDTH};

enum Engine {
    Serve(ServeEngine),
    Decode(DecodeEngine),
}

impl Engine {
    fn run_on(&self, pool: &ThreadPool, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        match self {
            Engine::Serve(engine) => engine.run_on(pool, requests),
            Engine::Decode(engine) => engine.run_on(pool, requests),
        }
    }
}

fn engine(
    workload: Workload,
    fleet: Vec<DeviceSpec>,
    config: FlashMemConfig,
    cache: Arc<ArtifactCache>,
    requests: &[ServeRequest],
    seed: u64,
) -> Engine {
    match workload {
        Workload::ServeSteady => Engine::Serve(
            ServeEngine::new(fleet, config)
                .with_cache(cache)
                .with_policy(Box::new(PriorityPolicy::with_max_in_flight(2))),
        ),
        Workload::ServeChaos => {
            let faults = gen::chaos_faults(requests, seed);
            Engine::Serve(
                ServeEngine::new(fleet, config)
                    .with_cache(cache)
                    .with_policy(Box::new(EdfPolicy::with_max_in_flight(2)))
                    .with_fault_plan(faults)
                    .with_recovery_control(
                        RecoveryControl::disabled()
                            .with_retry_budget(2)
                            .with_backoff_ms(25.0)
                            .with_failover()
                            .with_quarantine(3, 500.0),
                    )
                    .with_overload_control(
                        OverloadControl::disabled()
                            .with_queue_bound(16)
                            .with_admission_control()
                            .with_steal(),
                    ),
            )
        }
        Workload::DecodeBatched => Engine::Decode(
            DecodeEngine::new(fleet, config)
                .with_cache(cache)
                .with_batching(BatchConfig {
                    max_batch: 4,
                    ..BatchConfig::default()
                }),
        ),
        Workload::CompileCold => unreachable!("compile-cold is not a serving workload"),
    }
}

fn workload_models(workload: Workload) -> Vec<ModelSpec> {
    match workload {
        Workload::DecodeBatched => gen::decode_models(),
        _ => gen::serve_models(),
    }
}

/// Every model the engine compiles: the workload's models plus, for the
/// decode engine, their decode-step models.
fn compile_set(workload: Workload, models: &[ModelSpec]) -> Vec<ModelSpec> {
    let steps = models
        .iter()
        .filter(|_| workload == Workload::DecodeBatched)
        .filter_map(|m| m.decode().map(|d| d.step.clone()));
    models.iter().cloned().chain(steps).collect()
}

struct Setup {
    models: Vec<ModelSpec>,
    cache: Arc<ArtifactCache>,
    total_s: Vec<f64>,
    compile_s: Vec<f64>,
    /// Per-compile times, one vector per (model, device) of the compile set.
    compile_ms: Vec<Vec<f64>>,
}

/// Build the models and fill a fresh cache with every compile, once per
/// set-up repetition; the last repetition's models and cache are kept.
fn setup(workload: Workload, fleet: &[DeviceSpec], config: &FlashMemConfig) -> Setup {
    let mut setup = Setup {
        models: Vec::new(),
        cache: Arc::new(ArtifactCache::new()),
        total_s: Vec::new(),
        compile_s: Vec::new(),
        compile_ms: Vec::new(),
    };
    for _ in 0..workload.setup_reps() {
        let start = Instant::now();
        let models = workload_models(workload);
        let cache = Arc::new(ArtifactCache::new());
        let fill = Instant::now();
        let mut compile_ms = Vec::new();
        for model in compile_set(workload, &models) {
            for device in fleet {
                let engine = FlashMem::new(device.clone()).with_config(config.clone());
                let one = Instant::now();
                // A compile error is not cached; the timed runs meet it
                // again and record it as a failed request.
                let _ = cache.compile(&engine, &model, device);
                compile_ms.push(ms(one.elapsed()));
            }
        }
        setup.compile_s.push(fill.elapsed().as_secs_f64());
        setup.total_s.push(start.elapsed().as_secs_f64());
        setup.compile_ms.resize(compile_ms.len(), Vec::new());
        for (all, one) in setup.compile_ms.iter_mut().zip(compile_ms) {
            all.push(one);
        }
        setup.models = models;
        setup.cache = cache;
    }
    setup
}

/// Disposition check of one report: every outcome is exactly one of
/// completed, rejected or failed, with its typed cause, in submission
/// order, and the report's counts partition the submitted requests.
/// Returns the number of offending requests.
fn partition_errors(report: &ServeReport, submitted: usize) -> usize {
    let mut bad = 0;
    let (mut completed, mut rejected, mut failed) = (0, 0, 0);
    for (seq, o) in report.outcomes.iter().enumerate() {
        let is_completed = o.error.is_none() && o.failure.is_none() && o.rejected.is_none();
        let is_rejected = o.rejected.is_some() && o.error.is_none() && o.failure.is_none();
        let is_failed = o.error.is_some() && o.failure.is_some() && o.rejected.is_none();
        let ok = o.seq == seq
            && usize::from(is_completed) + usize::from(is_rejected) + usize::from(is_failed) == 1
            && (!is_completed || o.completion_ms >= o.arrival_ms);
        bad += usize::from(!ok);
        completed += usize::from(is_completed);
        rejected += usize::from(is_rejected);
        failed += usize::from(is_failed);
    }
    let counts_ok = report.outcomes.len() == submitted
        && report.completed() == completed
        && report.rejected() == rejected
        && report.failed() == failed
        && completed + rejected + failed == submitted;
    if counts_ok {
        bad
    } else {
        submitted
    }
}

fn hit_rate(before: CacheStats, after: CacheStats) -> f64 {
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);
    if lookups == 0 {
        1.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// Work one repetition did, in the workload's unit: requests served,
/// requests disposed, or decode tokens generated.
fn work(workload: Workload, report: &ServeReport) -> f64 {
    match workload {
        Workload::DecodeBatched => report.decode_tokens as f64,
        _ => report.outcomes.len() as f64,
    }
}

/// The modelled outputs and work counts of a report.
fn record_report(out: &mut Output, report: &ServeReport) {
    out.set("server.completed", report.completed() as f64);
    out.set("server.failed", report.failed() as f64);
    out.set("server.rejected", report.rejected() as f64);
    out.set("server.stolen", report.stolen() as f64);
    out.set("server.preemptions", report.preemptions as f64);
    out.set("recovery.retries", report.recovery.retries as f64);
    out.set("recovery.failovers", report.recovery.failovers as f64);
    out.set("recovery.quarantines", report.recovery.quarantines as f64);
    out.set("recovery.probes", report.recovery.probes as f64);
    let devices = &report.devices;
    out.set(
        "server.queue_high_water",
        devices
            .iter()
            .map(|d| d.queue_depth_high_water)
            .max()
            .unwrap_or(0) as f64,
    );
    out.set(
        "gpu_sim.clamped_samples",
        devices
            .iter()
            .map(|d| d.memory_trace.clamped())
            .sum::<u64>() as f64,
    );
    out.set(
        "sim.peak_memory_mib",
        devices.iter().map(|d| d.peak_memory_mb).fold(0.0, f64::max),
    );
    out.set(
        "sim.compute_busy",
        devices.iter().map(|d| d.compute_busy_fraction).sum::<f64>() / devices.len() as f64,
    );
    out.set(
        "sim.latency_p50_ms",
        report.latency.map_or(0.0, |l| l.p50_ms),
    );
    out.set(
        "sim.latency_p99_ms",
        report.latency.map_or(0.0, |l| l.p99_ms),
    );
    out.set("sim.ttft_p50_ms", report.ttft.map_or(0.0, |l| l.p50_ms));
    out.set("sim.ttft_p99_ms", report.ttft.map_or(0.0, |l| l.p99_ms));
    out.set("sim.itl_p50_ms", report.itl.map_or(0.0, |l| l.p50_ms));
    out.set("sim.itl_p99_ms", report.itl.map_or(0.0, |l| l.p99_ms));
    out.set("sim.tokens_per_s", report.tokens_per_s);
}

pub fn run(args: &Args, out: &mut Output) {
    let workload = args.workload;
    let fleet = gen::fleet();
    let config = FlashMemConfig::memory_priority();
    let mut spans = Spans::new();
    let setup = setup(workload, &fleet, &config);
    out.set("setup_s", median(&setup.total_s));

    let requests = match workload {
        Workload::ServeSteady => gen::serve_requests(&setup.models, args.seed),
        Workload::ServeChaos => gen::chaos_requests(&setup.models, args.seed),
        _ => gen::decode_requests(&setup.models, args.seed),
    };
    let engine = engine(
        workload,
        fleet.clone(),
        config.clone(),
        Arc::clone(&setup.cache),
        &requests,
        args.seed,
    );
    let pool = ThreadPool::with_threads(POOL_WIDTH);
    let submitted = requests.len();

    // Timed repetitions, then the checks of each report outside the timer.
    let mut log = DigestLog::default();
    let mut rate = Vec::new();
    let mut first: Option<ServeReport> = None;
    let measure = Instant::now();
    let mut reps = 0;
    while reps < 3 || measure.elapsed().as_secs_f64() < args.seconds {
        reps += 1;
        let before = setup.cache.stats();
        let start = Instant::now();
        let result = engine.run_on(&pool, &requests);
        let elapsed = start.elapsed();
        let after = setup.cache.stats();
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                out.ops(submitted as u64, submitted as u64, || {
                    format!("run failed: {e}")
                });
                continue;
            }
        };
        rate.push(work(workload, &report) / elapsed.as_secs_f64());
        let bad = partition_errors(&report, submitted);
        let repeat = log.record("report", digest::report(&report));
        let warm = hit_rate(before, after);
        let failed = if repeat.is_err() || warm < 1.0 {
            submitted
        } else {
            bad
        };
        out.ops(submitted as u64, failed as u64, || {
            format!("{bad} requests break the partition; digest {repeat:?}; cache hit rate {warm}")
        });
        first.get_or_insert(report);
    }
    out.set("work_per_host_s", median(&rate));
    eprintln!(
        "perfbench: set-up {:.3?} s; work per host-second by repetition {:.0?}",
        setup.total_s, rate
    );

    // The same inputs at pool width 1 must give the same modelled outputs.
    let serial_pool = ThreadPool::with_threads(1);
    let start = Instant::now();
    let serial = engine.run_on(&serial_pool, &requests);
    let serial_ms = ms(start.elapsed());
    out.check(
        serial
            .map_err(|e| e.to_string())
            .and_then(|serial| log.record("report", digest::report(&serial)))
            .map_err(|why| format!("width-1 run: {why}")),
    );
    if !args.trace {
        return;
    }

    let throughput = match workload {
        Workload::ServeSteady => "serve_req_per_host_s",
        Workload::ServeChaos => "chaos_req_per_host_s",
        _ => "decode_tokens_per_host_s",
    };
    out.set(throughput, median(&rate));
    out.set("compile_total_s", median(&setup.compile_s));
    let compile_medians: Vec<f64> = setup.compile_ms.iter().map(|t| median(t)).collect();
    out.set("compile_geomean_ms", geomean(&compile_medians));
    if let Some(report) = &first {
        record_report(out, report);
    }
    spans.time("graph.build", None, || workload_models(workload));
    record_planner(workload, out, &setup, &fleet, &config);

    // The traced repetition runs at width 1, so that the layer times it is
    // split into add up to its wall time.
    let run_name = if workload == Workload::DecodeBatched {
        "decode.run"
    } else {
        "server.run"
    };
    let before = setup.cache.stats();
    let (result, _) = spans.time(run_name, None, || engine.run_on(&serial_pool, &requests));
    let after = setup.cache.stats();
    out.set("cache.hit_rate", hit_rate(before, after));
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            out.ops(submitted as u64, submitted as u64, || {
                format!("traced run failed: {e}")
            });
            return;
        }
    };
    out.check(
        log.record("report", digest::report(&report))
            .map_err(|why| format!("traced run: {why}")),
    );
    let run_ms = spans.total_ms(run_name);
    out.set("trace.overhead_ms", run_ms - serial_ms);
    replay(workload, out, &mut spans, &report, &setup, &fleet, &config);
    if workload == Workload::DecodeBatched {
        out.set("decode.run_ms", run_ms);
        out.set("decode.tokens", report.decode_tokens as f64);
    } else {
        out.set("server.run_ms", run_ms);
        out.set(
            "server.residual_ms",
            run_ms - out.get("server.lower_ms") - out.get("gpu_sim.step_ms"),
        );
    }
    eprint!("{}", spans.summary());
}

/// LC-OPG phase times and work counts of the set-up compiles, as the
/// planner reports them about itself.
fn record_planner(
    workload: Workload,
    out: &mut Output,
    setup: &Setup,
    fleet: &[DeviceSpec],
    config: &FlashMemConfig,
) {
    for model in compile_set(workload, &setup.models) {
        for device in fleet {
            let engine = FlashMem::new(device.clone()).with_config(config.clone());
            let Ok((CompiledArtifact::Streaming(compiled), _)) =
                setup.cache.compile(&engine, &model, device)
            else {
                continue;
            };
            let r = &compiled.planner_report;
            out.add("lc_opg.plan_ms", ms(r.process_nodes));
            out.add("lc_opg.build_ms", ms(r.build_model));
            out.add("lc_opg.solve_ms", ms(r.solve_model));
            add_planner_counts(out, r);
            out.add("fusion.kernels", compiled.fusion.len() as f64);
        }
    }
}

/// Replay, under spans, the lowering of the traced report's admitted
/// requests and, for the serve engine, their uncontended stepping. The
/// serve engine lowers per admission; the decode engine lowers the prefill
/// and decode-step streams once per (device, model) and batches its steps,
/// so only its lowering is replayed.
fn replay(
    workload: Workload,
    out: &mut Output,
    spans: &mut Spans,
    report: &ServeReport,
    setup: &Setup,
    fleet: &[DeviceSpec],
    config: &FlashMemConfig,
) {
    let decode = workload == Workload::DecodeBatched;
    let mut seen = BTreeSet::new();
    for o in report.outcomes.iter().filter(|o| o.rejected.is_none()) {
        if decode && !seen.insert((o.device_index, o.model.as_str())) {
            continue;
        }
        let model = setup
            .models
            .iter()
            .find(|m| m.abbr == o.model)
            .expect("a workload model");
        let device = &fleet[o.device_index];
        let engine = FlashMem::new(device.clone()).with_config(config.clone());
        let lower = |spans: &mut Spans, name, model: &ModelSpec| {
            let (artifact, _) = setup
                .cache
                .compile(&engine, model, device)
                .expect("compiled in set-up");
            spans
                .time(name, None, || {
                    lower_artifact(&artifact, model, device, config)
                })
                .0
        };
        if decode {
            lower(spans, "decode.lower", model);
            let step = &model.decode().expect("a generative model").step;
            lower(spans, "decode.lower", step);
        } else {
            let stream = lower(spans, "server.lower", model);
            out.add("gpu_sim.commands", stream.len() as f64);
            spans.time("gpu_sim.step", None, || step_uncontended(stream, device));
        }
    }
    out.set("decode.lower_ms", spans.total_ms("decode.lower"));
    out.set("server.lower_ms", spans.total_ms("server.lower"));
    out.set("server.lowerings", spans.count("server.lower") as f64);
    out.set("gpu_sim.step_ms", spans.total_ms("gpu_sim.step"));
}

fn step_uncontended(stream: CommandStream, device: &DeviceSpec) {
    let sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let mut tracker = MemoryTracker::for_device(device);
    let mut clocks = QueueClocks::new();
    let Ok(mut stepper) = StreamStepper::new(stream) else {
        return;
    };
    while !stepper.is_done() {
        if stepper.step(&sim, &mut clocks, &mut tracker, 0.0).is_err() {
            break;
        }
    }
}

/// A four-request fault-free report, for tests.
#[cfg(test)]
pub fn small_report() -> ServeReport {
    let requests: Vec<ServeRequest> = (0..4)
        .map(|i| {
            ServeRequest::new(flashmem_graph::ModelZoo::resnet50(), "t")
                .with_arrival_ms(10.0 * i as f64)
        })
        .collect();
    ServeEngine::new(
        vec![DeviceSpec::pixel_8()],
        FlashMemConfig::memory_priority(),
    )
    .run_on(&ThreadPool::with_threads(1), &requests)
    .expect("a fault-free run")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_serve::RejectCause;

    #[test]
    fn partition_check_catches_a_double_disposition() {
        let report = small_report();
        assert_eq!(partition_errors(&report, 4), 0);
        assert_eq!(partition_errors(&report, 5), 5, "a lost request");
        let mut early = report.clone();
        early.outcomes[1].completion_ms = early.outcomes[1].arrival_ms - 1.0;
        assert_eq!(partition_errors(&early, 4), 1, "completed before arrival");
        let mut both = report.clone();
        both.outcomes[1].rejected = Some(RejectCause::QueueFull);
        both.outcomes[1].error = Some(flashmem_gpu_sim::SimError::InvalidParameter {
            message: "injected".into(),
        });
        assert_eq!(partition_errors(&both, 4), 4, "rejected and failed at once");
    }
}
