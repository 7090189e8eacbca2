//! Golden digests of whole serving reports.
//!
//! Each case runs one `ServeEngine` or `DecodeEngine` configuration with
//! tracing on, at pool widths 1 and 4, and pins an FNV-1a digest of the
//! report's `Debug` rendering (outcomes, device reports, recovery tallies,
//! cache counters and the full event trace). The digests are the
//! cross-commit oracle for refactors of the fleet driver: a change that
//! claims to keep behaviour must reproduce every digest exactly.
//!
//! Every run gets a fresh private plan cache, so the cache counters in the
//! report do not depend on test order. A digest may only change together
//! with a documented behaviour change; never regenerate one to make a
//! failing refactor pass.

use flashmem_core::cache::Fnv1a;
use flashmem_core::pool::ThreadPool;
use flashmem_core::FlashMemConfig;
use flashmem_gpu_sim::{DeviceSpec, FaultPlan, SimError};
use flashmem_graph::ModelZoo;
use flashmem_serve::{
    ArrivalPattern, BatchConfig, DeadlinePreemptivePolicy, DecodeEngine, DecodeWorkloadSpec,
    EdfPolicy, FailureCause, FifoPolicy, OverloadControl, PreemptivePriorityPolicy, PriorityPolicy,
    RecoveryControl, ServeEngine, ServeReport, ServeRequest, TraceConfig, WorkloadSpec,
};

const MIB: u64 = 1024 * 1024;

/// The bursty two-model workload of the fleet-parallel oracles.
fn serve_workload(requests: usize, seed: u64) -> Vec<ServeRequest> {
    WorkloadSpec {
        pattern: ArrivalPattern::Bursty {
            burst_size: 8,
            gap_ms: 900.0,
        },
        requests,
        tenants: 4,
        priority_levels: 3,
        seed,
    }
    .generate(&[ModelZoo::gptneo_small(), ModelZoo::vit()])
}

fn decode_workload(seed: u64) -> Vec<ServeRequest> {
    DecodeWorkloadSpec {
        pattern: ArrivalPattern::Steady { interval_ms: 60.0 },
        requests: 6,
        tenants: 2,
        prompt_tokens: (8, 24),
        output_tokens: (4, 12),
        seed,
    }
    .generate(&[ModelZoo::gptneo_small()])
}

fn two_device_fleet() -> Vec<DeviceSpec> {
    vec![DeviceSpec::oneplus_12(), DeviceSpec::pixel_8()]
}

fn digest(report: &ServeReport) -> u64 {
    Fnv1a::new().write_str(&format!("{report:?}")).finish()
}

/// Run `run` at pool widths 1 and 4, check both reports are identical and
/// return the first for case-specific coverage checks.
fn check(case: &str, expected: u64, run: impl Fn(&ThreadPool) -> ServeReport) -> ServeReport {
    let serial = run(&ThreadPool::with_threads(1));
    let parallel = run(&ThreadPool::with_threads(4));
    assert!(serial.trace.is_some(), "{case}: golden runs are traced");
    let (serial_digest, parallel_digest) = (digest(&serial), digest(&parallel));
    assert_eq!(
        serial_digest, parallel_digest,
        "{case}: width 1 and width 4 reports differ"
    );
    assert_eq!(
        serial_digest, expected,
        "{case}: report digest {serial_digest:#018x} differs from the pinned {expected:#018x}\n{serial}"
    );
    serial
}

#[test]
fn serve_fifo_report_is_pinned() {
    let requests = serve_workload(8, 0x601D_0001);
    let report = check("serve fifo", 0xe2cc_2663_5b97_5bbb, |pool| {
        ServeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_policy(Box::new(FifoPolicy))
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("fifo run succeeds")
    });
    assert_eq!(report.completed(), requests.len());
}

#[test]
fn serve_preemptive_report_is_pinned() {
    // Staggered arrivals of rising priority, so each arrival outranks the
    // work already running on its device.
    let requests: Vec<ServeRequest> = serve_workload(8, 0x601D_0002)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.with_arrival_ms(25.0 * i as f64)
                .with_priority((i / 2) as u8)
        })
        .collect();
    let report = check("serve preemptive", 0x7e94_c09c_28b5_8392, |pool| {
        ServeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_policy(Box::new(PreemptivePriorityPolicy::new()))
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("preemptive run succeeds")
    });
    assert!(report.preemptions > 0, "the case must preempt\n{report}");
}

#[test]
fn serve_overload_report_is_pinned() {
    let requests: Vec<ServeRequest> = serve_workload(12, 0x601D_0003)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.with_deadline_ms(if i % 3 == 0 { 5.0 } else { 4_000.0 }))
        .collect();
    let report = check("serve overload", 0x396a_a9df_d4bd_aa55, |pool| {
        ServeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_policy(Box::new(EdfPolicy::new()))
            .with_overload_control(
                OverloadControl::disabled()
                    .with_queue_bound(2)
                    .with_admission_control()
                    .with_steal(),
            )
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("overload run succeeds")
    });
    assert!(report.rejected() > 0, "the case must shed\n{report}");
    assert!(report.stolen() > 0, "the case must steal\n{report}");
}

#[test]
fn serve_preemptive_bounded_report_is_pinned() {
    // Rising priorities on a bounded queue: the preemption phase ranks only
    // arrivals that already passed the shed check.
    let requests: Vec<ServeRequest> = serve_workload(12, 0x601D_0008)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            r.with_arrival_ms(10.0 * i as f64)
                .with_priority((i / 3) as u8)
        })
        .collect();
    let report = check("serve preemptive bounded", 0xfbc6_7c31_c094_2846, |pool| {
        ServeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_policy(Box::new(PreemptivePriorityPolicy::new()))
            .with_overload_control(OverloadControl::disabled().with_queue_bound(2))
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("bounded preemptive run succeeds")
    });
    assert!(report.preemptions > 0, "the case must preempt\n{report}");
    assert!(report.rejected() > 0, "the case must shed\n{report}");
}

#[test]
fn serve_deadline_preemptive_report_is_pinned() {
    // Every other arrival carries a deadline that waiting out the running
    // deadline-less work would miss, under a policy that ranks by predicted
    // service time.
    let requests: Vec<ServeRequest> = serve_workload(12, 0x601D_0009)
        .into_iter()
        .enumerate()
        .map(|(i, r)| {
            let r = r.with_arrival_ms(40.0 * i as f64);
            if i % 2 == 1 {
                r.with_deadline_ms(600.0)
            } else {
                r
            }
        })
        .collect();
    let report = check("serve deadline preemptive", 0xac6b_787a_954c_deeb, |pool| {
        ServeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_policy(Box::new(DeadlinePreemptivePolicy::new()))
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("deadline preemptive run succeeds")
    });
    assert!(report.preemptions > 0, "the case must preempt\n{report}");
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| o.admission_laxity_ms.is_some()),
        "the case must use service estimates\n{report}"
    );
}

#[test]
fn serve_chaos_report_is_pinned() {
    let requests = serve_workload(12, 0x601D_0004);
    let fleet = vec![
        DeviceSpec::oneplus_12(),
        DeviceSpec::oneplus_12(),
        DeviceSpec::pixel_8(),
    ];
    let report = check("serve chaos", 0x34ae_0916_1e78_7ce4, |pool| {
        ServeEngine::new(fleet.clone(), FlashMemConfig::memory_priority())
            .with_policy(Box::new(PriorityPolicy::with_max_in_flight(2)))
            .with_fault_plan(
                FaultPlan::seeded(0x601D)
                    .with_device_loss(0, 900.0)
                    .with_flaky_device(2, 0.0004)
                    .with_oom_spikes(1, 0.0002),
            )
            .with_recovery_control(
                RecoveryControl::disabled()
                    .with_retry_budget(2)
                    .with_backoff_ms(20.0)
                    .with_failover()
                    .with_quarantine(3, 200.0),
            )
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("chaos run succeeds")
    });
    let recovery = report.recovery;
    assert!(recovery.retries > 0, "the case must retry\n{report}");
    assert!(recovery.failovers > 0, "the case must fail over\n{report}");
    assert!(
        recovery.quarantines > 0,
        "the case must quarantine\n{report}"
    );
    assert!(recovery.probes > 0, "the case must probe\n{report}");
}

#[test]
fn serve_fifo_chaos_report_is_pinned() {
    // Exclusive FIFO under injected faults: the device loss and the flaky
    // kernels retire attempts through the exclusive-mode fault path, and
    // the tenant cap defers work behind its own in-flight request.
    let requests = serve_workload(12, 0x601D_000A);
    let report = check("serve fifo chaos", 0x0fbb_b8df_8c54_f4d5, |pool| {
        ServeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_policy(Box::new(FifoPolicy))
            .with_tenant_cap("tenant-0", 1_600 * MIB)
            .with_fault_plan(
                FaultPlan::seeded(0x601D)
                    .with_device_loss(0, 600.0)
                    .with_flaky_device(1, 0.001),
            )
            .with_recovery_control(
                RecoveryControl::disabled()
                    .with_retry_budget(2)
                    .with_backoff_ms(20.0),
            )
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("fifo chaos run succeeds")
    });
    assert!(report.recovery.retries > 0, "the case must retry\n{report}");
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| o.failure == Some(FailureCause::DeviceLost)),
        "the case must lose work with its device\n{report}"
    );
}

#[test]
fn serve_midrun_oom_report_is_pinned() {
    // Four large models in flight at once on one phone: a request whose
    // working set no longer fits fails mid-run while the rest keep going.
    let requests = WorkloadSpec {
        pattern: ArrivalPattern::Bursty {
            burst_size: 8,
            gap_ms: 900.0,
        },
        requests: 8,
        tenants: 2,
        priority_levels: 2,
        seed: 0x601D_000B,
    }
    .generate(&[ModelZoo::gptneo_2_7b(), ModelZoo::sd_unet()]);
    let report = check("serve mid-run oom", 0x7618_020f_8efd_651e, |pool| {
        ServeEngine::new(
            vec![DeviceSpec::pixel_8()],
            FlashMemConfig::memory_priority(),
        )
        .with_policy(Box::new(PriorityPolicy::with_max_in_flight(4)))
        .with_trace(TraceConfig::enabled())
        .run_on(pool, &requests)
        .expect("mid-run oom run succeeds")
    });
    assert!(
        report
            .outcomes
            .iter()
            .any(|o| o.failure == Some(FailureCause::OutOfMemory)),
        "the case must fail a request mid-run\n{report}"
    );
}

#[test]
fn decode_one_shot_report_is_pinned() {
    let requests = decode_workload(0x601D_0005);
    let report = check("decode one-shot", 0xf7c3_ca0b_a9e9_60e0, |pool| {
        DecodeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_batching(BatchConfig::one_shot())
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("one-shot decode run succeeds")
    });
    assert_eq!(report.completed(), requests.len());
}

#[test]
fn decode_continuous_report_is_pinned() {
    let requests = decode_workload(0x601D_0006);
    let report = check("decode continuous", 0xf8de_e564_5313_e36c, |pool| {
        DecodeEngine::new(two_device_fleet(), FlashMemConfig::memory_priority())
            .with_batching(BatchConfig::default())
            .with_trace(TraceConfig::enabled())
            .run_on(pool, &requests)
            .expect("continuous decode run succeeds")
    });
    assert_eq!(report.completed(), requests.len());
}

#[test]
fn decode_chaos_report_is_pinned() {
    let requests = decode_workload(0x601D_0007);
    let report = check("decode chaos", 0x554c_d31c_e663_dc7e, |pool| {
        DecodeEngine::new(
            vec![DeviceSpec::oneplus_12(), DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_fault_plan(
            FaultPlan::seeded(0x601D)
                .with_device_loss(0, 400.0)
                .with_flaky_device(1, 0.05),
        )
        .with_recovery_control(
            RecoveryControl::disabled()
                .with_retry_budget(2)
                .with_backoff_ms(15.0)
                .with_failover(),
        )
        .with_trace(TraceConfig::enabled())
        .run_on(pool, &requests)
        .expect("decode chaos run succeeds")
    });
    let recovery = report.recovery;
    assert!(recovery.retries > 0, "the case must retry\n{report}");
    assert!(recovery.failovers > 0, "the case must fail over\n{report}");
}

#[test]
fn decode_midrun_oom_report_is_pinned() {
    // Long prompts, longest first, on a phone with a 330 MiB app budget:
    // the first batch's KV leaves no room for a decode step's transients,
    // so that step's replay fails out of memory, and the later, shorter
    // batches complete.
    let requests: Vec<ServeRequest> = (0..8)
        .map(|i| {
            ServeRequest::new(ModelZoo::gptneo_small(), format!("tenant-{}", i % 2))
                .with_decode_tokens(550 - 50 * i, 64)
        })
        .collect();
    let report = check("decode mid-run oom", 0x7695_4821_c909_9b0e, |pool| {
        DecodeEngine::new(
            vec![DeviceSpec::pixel_8().with_app_budget_bytes(330 * MIB)],
            FlashMemConfig::memory_priority(),
        )
        .with_batching(BatchConfig {
            token_budget: 1200,
            ..BatchConfig::default()
        })
        .with_trace(TraceConfig::enabled())
        .run_on(pool, &requests)
        .expect("mid-run oom decode run succeeds")
    });
    // A KV allocation requests exactly one token's stride; a replay's
    // transients request anything else.
    let stride = ModelZoo::gptneo_small()
        .decode()
        .expect("GPTN-S decodes")
        .kv_bytes_per_token;
    assert!(
        report.outcomes.iter().any(|o| {
            o.failure == Some(FailureCause::OutOfMemory)
                && matches!(
                    o.error,
                    Some(SimError::OutOfMemory { requested, .. }) if requested != stride
                )
        }),
        "the case must fail a prefill or step replay out of memory\n{report}"
    );
    assert!(report.completed() > 0, "later batches complete\n{report}");
}
