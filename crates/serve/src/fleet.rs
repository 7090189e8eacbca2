//! The fleet driver shared by [`ServeEngine`](crate::ServeEngine) and
//! [`DecodeEngine`](crate::DecodeEngine).
//!
//! A run is a sequence of **rounds**. Each round fans the devices that have
//! work out as parallel pool jobs (one [`DeviceLoop::run_device`] call per
//! device, panics caught and surfaced as [`SimError::WorkerPanic`]), merges
//! their results at an ordered commit point (outcomes, device reports,
//! trace buffers and device-loss marking, all in fleet order), then hands
//! the attempts injected faults knocked out of the round to the engine's
//! sequential planner ([`DeviceLoop::plan`]), which decides the next
//! round's work. A fault-free run leaves no orphans, so it is exactly one
//! round. Every decision between rounds is taken on the caller thread in
//! submission order, which is what keeps reports byte-identical at every
//! pool width.

use std::borrow::Cow;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::ThreadPool;
use flashmem_core::telemetry::{FleetTrace, TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::{FlashMem, FlashMemConfig};
use flashmem_gpu_sim::engine::{GpuSimulator, SimConfig};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::{DeviceSpec, FaultKind, SimError};
use flashmem_graph::ModelSpec;

use crate::metrics::{
    DeviceReport, LatencySummary, PriorityLatency, RecoveryTallies, RequestOutcome, ServeReport,
    SloSummary, TokenMetrics,
};
use crate::policy::RecoveryControl;
use crate::request::ServeRequest;

pub(crate) const MIB: f64 = 1024.0 * 1024.0;

/// One device of the fleet: its runtime and simulator are built once per
/// run and lent to every round's device job.
pub(crate) struct Device<'a> {
    /// Index of the device in the fleet (also its report and trace slot).
    pub(crate) index: usize,
    pub(crate) spec: &'a DeviceSpec,
    /// The FlashMem runtime the device's compiles go through.
    pub(crate) engine: FlashMem,
    /// The cost model the device's command streams are stepped against.
    pub(crate) sim: GpuSimulator,
}

/// One dispatch of a request to a device. Round-0 attempts borrow the
/// caller's request; a re-dispatched attempt owns a copy whose arrival is
/// the recovery planner's ready floor, plus the recovery state it carries.
pub(crate) struct Attempt<'a, C> {
    pub(crate) seq: usize,
    pub(crate) request: Cow<'a, ServeRequest>,
    /// `None` on a first attempt.
    pub(crate) carry: Option<C>,
}

impl<'a, C> Attempt<'a, C> {
    /// The first attempt of `request`, borrowing it.
    pub(crate) fn first(seq: usize, request: &'a ServeRequest) -> Self {
        Attempt {
            seq,
            request: Cow::Borrowed(request),
            carry: None,
        }
    }
}

/// An attempt an injected fault knocked out of a round, awaiting the
/// planner's decision (retry, failover or final typed failure).
pub(crate) struct Orphan<R> {
    /// The typed-failure outcome of this attempt: final if the planner
    /// gives up, discarded if the request is re-dispatched.
    pub(crate) outcome: RequestOutcome,
    pub(crate) kind: FaultKind,
    /// Recovery counters *before* this round's decision.
    pub(crate) retries: u32,
    pub(crate) hops: u32,
    /// Engine-specific state a re-dispatch resumes from.
    pub(crate) resume: R,
}

/// Everything one device job hands back to the round's merge.
pub(crate) struct DeviceRound<R> {
    pub(crate) outcomes: Vec<RequestOutcome>,
    pub(crate) report: DeviceReport,
    pub(crate) trace: TraceRecorder,
    pub(crate) orphans: Vec<Orphan<R>>,
    /// The fault plan's device loss fired this round: the device is gone
    /// for every later round.
    pub(crate) lost: bool,
}

/// What a device run accumulates over its round, whichever engine drives
/// it: the requests that have left the device, and the usage its
/// [`DeviceReport`] reads.
#[derive(Default)]
pub(crate) struct DeviceLedger<R> {
    pub(crate) outcomes: Vec<RequestOutcome>,
    pub(crate) orphans: Vec<Orphan<R>>,
    pub(crate) transfer_busy_ms: f64,
    pub(crate) compute_busy_ms: f64,
    pub(crate) makespan_ms: f64,
    pub(crate) queue_high_water: usize,
}

impl<R> DeviceLedger<R> {
    /// File the outcome of a request that left the device: an attempt an
    /// injected fault knocked out goes to the recovery planner, with the
    /// recovery counters it brought into this round and what a re-dispatch
    /// resumes from; anything else is final.
    pub(crate) fn route(&mut self, outcome: RequestOutcome, retries: u32, hops: u32, resume: R) {
        let Some(SimError::Fault { kind, .. }) = outcome.error else {
            self.outcomes.push(outcome);
            return;
        };
        self.orphans.push(Orphan {
            outcome,
            kind,
            retries,
            hops,
            resume,
        });
    }

    /// The round's result for the fleet driver. Every way off a device
    /// hands back the memory its request held, so a finished run holds
    /// none: this asserts that `tracker` is empty. The report reads the
    /// device's peak from `memory_trace`, its timeline.
    pub(crate) fn close(
        self,
        dev: &Device<'_>,
        requests: usize,
        tracker: &MemoryTracker,
        memory_trace: MemoryTrace,
        trace: TraceRecorder,
        lost: bool,
    ) -> DeviceRound<R> {
        let name = &dev.spec.name;
        assert_eq!(
            tracker.total_in_use(),
            0,
            "{name}: device run ended with memory still allocated"
        );
        let makespan = self.makespan_ms;
        let report = DeviceReport {
            device: name.clone(),
            requests,
            completed: self.outcomes.iter().filter(|o| o.succeeded()).count(),
            makespan_ms: makespan,
            transfer_busy_ms: self.transfer_busy_ms,
            compute_busy_ms: self.compute_busy_ms,
            transfer_busy_fraction: DeviceReport::busy_fraction(self.transfer_busy_ms, makespan),
            compute_busy_fraction: DeviceReport::busy_fraction(self.compute_busy_ms, makespan),
            peak_memory_mb: memory_trace.peak_bytes() as f64 / MIB,
            queue_depth_high_water: self.queue_high_water,
            memory_trace,
        };
        DeviceRound {
            outcomes: self.outcomes,
            report,
            trace,
            orphans: self.orphans,
            lost,
        }
    }
}

/// Per-device health as tracked by the sequential planner.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Health {
    Healthy,
    /// Device loss fired: permanent.
    Lost,
    /// Circuit breaker open since `since_ms`; `probing` marks the round a
    /// probe placement is in flight.
    Quarantined {
        since_ms: f64,
        probing: bool,
    },
}

/// Where the planner sends a re-dispatched attempt.
pub(crate) struct Redispatch {
    pub(crate) dest: usize,
    /// Backoff floor: the earliest global time the attempt may start.
    pub(crate) ready_ms: f64,
    /// Recovery counters *after* this decision.
    pub(crate) retries: u32,
    pub(crate) hops: u32,
    pub(crate) failed_over: bool,
}

/// An engine's per-device loop and between-round planner.
pub(crate) trait DeviceLoop: Sync {
    /// One device's share of a round.
    type Work: Send;
    /// What a re-dispatch of an orphan resumes from.
    type Resume: Send;

    /// True when `work` gives its device nothing to do this round.
    fn is_idle(work: &Self::Work) -> bool;

    /// The models `work` compiles, for the round's warmth snapshot.
    fn models(work: &Self::Work) -> impl Iterator<Item = &ModelSpec>;

    /// Run one device's timeline for one round. `warm` holds the plan-cache
    /// keys that were compiled when the round began.
    fn run_device(
        &self,
        device: &Device<'_>,
        warm: &HashSet<u64>,
        work: Self::Work,
    ) -> SimResult<DeviceRound<Self::Resume>>;

    /// Decide every orphan's fate (they arrive sorted by submission `seq`)
    /// and return the next round's work, one entry per device.
    fn plan(
        &self,
        fleet: &mut Fleet<'_>,
        included: &[usize],
        orphans: Vec<Orphan<Self::Resume>>,
    ) -> Vec<Self::Work>;
}

/// The fleet and everything the rounds of one run accumulate.
pub(crate) struct Fleet<'a> {
    pub(crate) devices: Vec<Device<'a>>,
    cache: &'a ArtifactCache,
    trace: TraceConfig,
    recovery: RecoveryControl,
    pub(crate) health: Vec<Health>,
    /// Transient injected faults per device since its breaker last closed.
    pub(crate) faults: Vec<u32>,
    /// Per-device makespan accumulated over the rounds so far.
    pub(crate) makespan: Vec<f64>,
    /// Per-device trace buffers accumulated over the rounds so far.
    pub(crate) traces: Vec<TraceRecorder>,
    pub(crate) tallies: RecoveryTallies,
    outcomes: Vec<RequestOutcome>,
    reports: Vec<DeviceReport>,
}

impl<'a> Fleet<'a> {
    pub(crate) fn new(
        fleet: &'a [DeviceSpec],
        config: &FlashMemConfig,
        cache: &'a ArtifactCache,
        trace: TraceConfig,
        recovery: RecoveryControl,
    ) -> Self {
        let len = fleet.len();
        Fleet {
            devices: fleet
                .iter()
                .enumerate()
                .map(|(index, spec)| Device {
                    index,
                    spec,
                    engine: FlashMem::new(spec.clone()).with_config(config.clone()),
                    sim: GpuSimulator::new(spec.clone(), SimConfig::default()),
                })
                .collect(),
            cache,
            trace,
            recovery,
            health: vec![Health::Healthy; len],
            faults: vec![0; len],
            makespan: vec![0.0; len],
            traces: Vec::with_capacity(len),
            tallies: RecoveryTallies::default(),
            outcomes: Vec::new(),
            reports: Vec::with_capacity(len),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.devices.len()
    }

    /// The plan-cache keys of `models` that are already compiled on
    /// `device`.
    fn warm_keys<'m>(
        &self,
        device: &Device<'_>,
        models: impl Iterator<Item = &'m ModelSpec>,
    ) -> HashSet<u64> {
        models
            .map(|model| ArtifactCache::key_for(&device.engine, model, device.spec))
            .filter(|&key| self.cache.is_warm(key))
            .collect()
    }

    /// Per device, the plan-cache keys of `requests`' models that are
    /// already compiled. Taken before a run compiles anything, so each
    /// outcome's `cache_hit` reports warmth at run start instead of which
    /// worker won an intra-run compile race.
    pub(crate) fn warmth(&self, requests: &[ServeRequest]) -> Vec<HashSet<u64>> {
        // One probe per distinct model per device. Models are told apart by
        // their key on the first device: a key hashes the model's identity
        // next to the device's, so two models share a key on one device
        // exactly when they share it on every device.
        let first = &self.devices[0];
        let mut seen = HashSet::new();
        let models: Vec<&ModelSpec> = requests
            .iter()
            .map(|request| &request.model)
            .filter(|model| seen.insert(ArtifactCache::key_for(&first.engine, model, first.spec)))
            .collect();
        self.devices
            .iter()
            .map(|device| self.warm_keys(device, models.iter().copied()))
            .collect()
    }

    /// Drive the rounds of one run to completion and assemble its report.
    /// Round 0 runs every device on `work` with the prologue's `warm`
    /// snapshot; every later round runs only the devices the planner gave
    /// work, with warmth re-snapshotted when the round starts.
    pub(crate) fn run<L: DeviceLoop>(
        mut self,
        pool: &ThreadPool,
        device_loop: &L,
        mut work: Vec<L::Work>,
        warm: Vec<HashSet<u64>>,
        policy: String,
    ) -> SimResult<ServeReport> {
        let mut prologue_warmth = Some(warm);
        loop {
            let first_round = prologue_warmth.is_some();
            let mut included = Vec::new();
            let mut jobs = Vec::new();
            for (index, work) in work.into_iter().enumerate() {
                let device = &self.devices[index];
                let warm = match &mut prologue_warmth {
                    Some(sets) => std::mem::take(&mut sets[index]),
                    None if L::is_idle(&work) => continue,
                    None => self.warm_keys(device, L::models(&work)),
                };
                included.push(index);
                jobs.push((device, warm, work));
            }
            prologue_warmth = None;
            if jobs.is_empty() {
                break;
            }
            let rounds = pool.try_parallel_map(jobs, |(device, warm, work)| {
                catch_unwind(AssertUnwindSafe(|| {
                    device_loop.run_device(device, &warm, work)
                }))
                .unwrap_or_else(|payload| {
                    Err(SimError::WorkerPanic {
                        message: panic_message(payload),
                    })
                })
            })?;
            let orphans = self.merge(first_round, &included, rounds);
            work = device_loop.plan(&mut self, &included, orphans);
        }
        Ok(self.into_report(policy))
    }

    /// The round's commit point: fold each device's results in fleet order
    /// and return the round's orphans sorted by submission `seq`.
    fn merge<R>(
        &mut self,
        first_round: bool,
        included: &[usize],
        rounds: Vec<DeviceRound<R>>,
    ) -> Vec<Orphan<R>> {
        let mut orphans = Vec::new();
        for (&index, round) in included.iter().zip(rounds) {
            let DeviceRound {
                outcomes: mut device_outcomes,
                report,
                trace,
                orphans: mut device_orphans,
                lost,
            } = round;
            self.outcomes.append(&mut device_outcomes);
            self.makespan[index] = self.makespan[index].max(report.makespan_ms);
            // Round 0 includes every device, in fleet order.
            if first_round {
                self.reports.push(report);
                self.traces.push(trace);
            } else {
                self.reports[index].absorb_round(report);
                self.traces[index].absorb(trace);
            }
            self.faults[index] += device_orphans
                .iter()
                .filter(|o| o.kind != FaultKind::DeviceLoss)
                .count() as u32;
            if lost && self.health[index] != Health::Lost {
                // A lost device is permanently quarantined, but the tally
                // records recovery *decisions*, so an unprotected run
                // (fault plan only, recovery off) reports all zeros.
                self.health[index] = Health::Lost;
                if self.recovery.any_enabled() {
                    self.tallies.quarantines += 1;
                }
            }
            orphans.append(&mut device_orphans);
        }
        orphans.sort_by_key(|o| o.outcome.seq);
        orphans
    }

    /// Decide where `orphan` runs next: a same-device retry while its retry
    /// budget lasts (the least-loaded usable survivor when its own device is
    /// unusable), else a failover onto the least-loaded usable survivor when
    /// failover is armed. Device loss always skips the retry. A device is
    /// usable when it is healthy and `usable(device, ready_ms)` holds, where
    /// `ready_ms` is when the attempt would be ready there.
    ///
    /// A decision is tallied and traced on its destination and returned
    /// with the orphan; otherwise the attempt's typed failure becomes its
    /// final outcome and `None` is returned.
    pub(crate) fn redispatch<R>(
        &mut self,
        orphan: Orphan<R>,
        usable: impl Fn(usize, f64) -> bool,
    ) -> Option<(Redispatch, Orphan<R>)> {
        let from = orphan.outcome.device_index;
        let retry =
            orphan.kind != FaultKind::DeviceLoss && orphan.retries < self.recovery.retry_budget;
        let backoff = self.recovery.backoff_ms * f64::from(orphan.retries + orphan.hops + 1);
        let floor = orphan.outcome.completion_ms + backoff;
        let decision = {
            let available = |d: usize| {
                self.health[d] == Health::Healthy && usable(d, floor.max(self.makespan[d]))
            };
            let survivor = (0..self.len())
                .filter(|&d| d != from && available(d))
                .min_by(|&a, &b| {
                    self.makespan[a]
                        .partial_cmp(&self.makespan[b])
                        .expect("makespans are finite")
                        .then(a.cmp(&b))
                });
            if retry {
                let dest = if available(from) {
                    Some(from)
                } else {
                    survivor
                };
                dest.map(|dest| (dest, orphan.retries + 1, orphan.hops))
            } else if self.recovery.failover && orphan.hops < self.len() as u32 {
                survivor.map(|dest| (dest, orphan.retries, orphan.hops + 1))
            } else {
                None
            }
        };
        let Some((dest, retries, hops)) = decision else {
            self.outcomes.push(orphan.outcome);
            return None;
        };
        let ready_ms = floor.max(self.makespan[dest]);
        if self.traces[dest].enabled() {
            let (kind, verb) = if retry {
                (TraceKind::Retry, "retry")
            } else {
                (TraceKind::Failover, "failover")
            };
            self.traces[dest].instant(
                kind,
                TraceLane::Request(orphan.outcome.seq),
                &format!(
                    "{verb} {} attempt {} from device #{from}",
                    orphan.outcome.model,
                    retries + hops + 1
                ),
                ready_ms,
            );
        }
        if retry {
            self.tallies.retries += 1;
        } else {
            self.tallies.failovers += 1;
        }
        let failed_over = orphan.outcome.failed_over || dest != from;
        Some((
            Redispatch {
                dest,
                ready_ms,
                retries,
                hops,
                failed_over,
            },
            orphan,
        ))
    }

    /// Assemble the final [`ServeReport`]: outcomes sorted by submission
    /// `seq`, device reports and trace buffers in fleet order.
    fn into_report(self, policy: String) -> ServeReport {
        let Fleet {
            devices,
            cache,
            trace,
            tallies,
            mut outcomes,
            reports,
            traces,
            ..
        } = self;
        outcomes.sort_by_key(|o| o.seq);
        let trace = trace.enabled.then(|| FleetTrace {
            processes: devices
                .iter()
                .zip(traces)
                .map(|(device, recorder)| {
                    recorder.into_process_trace(&format!("{} #{}", device.spec.name, device.index))
                })
                .collect(),
        });
        let latencies: Vec<f64> = outcomes
            .iter()
            .filter(|o| o.succeeded())
            .map(|o| o.latency_ms)
            .collect();
        let makespan = reports
            .iter()
            .map(|d| d.makespan_ms)
            .fold(0.0_f64, f64::max);
        let throughput_rps = if makespan > 0.0 {
            latencies.len() as f64 * 1000.0 / makespan
        } else {
            0.0
        };
        let tokens = TokenMetrics::from_outcomes(&outcomes, makespan);
        let report = ServeReport {
            policy,
            latency: LatencySummary::from_latencies(&latencies),
            per_priority: PriorityLatency::from_outcomes(&outcomes),
            slo: SloSummary::from_outcomes(&outcomes),
            preemptions: outcomes.iter().map(|o| o.preemptions).sum(),
            outcomes,
            devices: reports,
            throughput_rps,
            ttft: tokens.ttft,
            itl: tokens.itl,
            decode_tokens: tokens.decode_tokens,
            tokens_per_s: tokens.tokens_per_s,
            recovery: tallies,
            cache: cache.stats(),
            trace,
        };
        report.assert_disposition();
        report
    }
}

/// Sort `items` into the order a device sees requests in: by arrival, ties
/// by submission `seq`. `key` gives an item's `(arrival_ms, seq)`.
pub(crate) fn sort_by_arrival<T>(items: &mut [T], key: impl Fn(&T) -> (f64, usize)) {
    items.sort_by(|a, b| {
        let ((a_ms, a_seq), (b_ms, b_seq)) = (key(a), key(b));
        a_ms.partial_cmp(&b_ms)
            .expect("arrival times are finite")
            .then(a_seq.cmp(&b_seq))
    });
}

/// Render a caught panic payload for [`SimError::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
