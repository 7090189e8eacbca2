//! Continuous batching for generative decode.
//!
//! Where [`ServeEngine`](crate::ServeEngine) replays each request as one
//! lowered command stream, the [`DecodeEngine`] models autoregressive
//! generation as a *step loop*: every request runs one full-graph **prefill**
//! pass (the prompt, emitting the first token), then joins a per-device
//! decode batch in which every in-flight request emits one token per
//! **decode step** while its KV cache grows in the device's
//! [`MemoryTracker`]. At sequence length 1 a decode step is dominated by
//! weight traffic, which a batch shares: the step's weights are loaded once
//! and serve every sequence in it (see
//! [`DecodeStepPlan::batched`](flashmem_gpu_sim::DecodeStepPlan::batched)),
//! so batched decode throughput rises far faster than step latency — the
//! continuous-batching win on an IO-bound hierarchy.
//!
//! ## The step loop
//!
//! Each device repeats, on its own timeline:
//!
//! 1. **Join** — at the step boundary, arrived waiting requests join the
//!    batch when the batch is empty or when
//!    `arrived ≥ waiting_served_ratio × active` ([`BatchConfig`]), so a
//!    steady trickle of prefills cannot starve in-flight decodes: the
//!    scheduler only pays a prefill stall once enough work has queued up to
//!    amortize it. Joins respect `max_batch` and the `token_budget` — a
//!    request reserves its *maximum* context (`prompt + output − 1` tokens)
//!    up front, so a joined request can never blow the budget mid-decode.
//!    Each joiner's prefill replays sequentially (a prefill owns the device,
//!    as in production continuous-batching servers).
//! 2. **Step** — the active batch is grouped per model (deterministically,
//!    in abbreviation order) and each group replays its batched step stream;
//!    every member's KV cache grows by one token and emits one token at the
//!    step's end.
//! 3. **Leave** — requests that have emitted their last token, or failed,
//!    leave at the boundary through `retire`, the one way every request
//!    takes off the device, which releases their KV residency in one sweep.
//!    A device run therefore ends drained: it asserts that no KV or
//!    transient bytes are still allocated.
//!
//! ## Determinism
//!
//! Placement is decided in the sequential prologue (round-robin over
//! arrival order); after that each device's step loop is a pure function of
//! its assigned request list, stepped single-threaded inside one pool job.
//! Outcomes merge sorted by submission `seq` and trace buffers merge in
//! fleet order through the same fleet driver as
//! [`ServeEngine::run_on`](crate::ServeEngine::run_on), so the report is
//! byte-identical at every pool width.
//!
//! ## Cost memoization
//!
//! Replaying a command stream per token would cost millions of simulator
//! events for long generations. Instead each device replays every distinct
//! (model, batch-size) step stream **once** against its tracker (charging
//! and releasing the step's transients, which establishes the transient
//! peak) and memoizes the [`StepCost`]; subsequent steps advance sessions
//! through [`DecodeSession::advance_step`], which grows KV and timestamps
//! the token without re-stepping the stream. Prefill costs are memoized per
//! model the same way.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use flashmem_core::cache::ArtifactCache;
use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::telemetry::{PhaseBreakdown, TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::FlashMemConfig;
use flashmem_gpu_sim::decode::replay_stream;
use flashmem_gpu_sim::engine::CommandStream;
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::{DecodeSession, DecodeStepPlan, DeviceSpec, SimError, StepCost};
use flashmem_graph::ModelSpec;

use crate::fleet::{
    sort_by_arrival, Attempt, Device, DeviceLedger, DeviceLoop, DeviceRound, Fleet, Orphan, MIB,
};
use crate::metrics::{DecodeOutcome, RequestOutcome, ServeReport};
use crate::policy::RecoveryControl;
use crate::request::{DecodeParams, FailureCause, ServeRequest};
use crate::server::lower_artifact;
use flashmem_gpu_sim::{FaultKind, FaultPlan};

/// Continuous-batching knobs. The defaults are deliberately conservative:
/// a batch of 8 and a 2048-token KV budget fit every autoregressive model in
/// the zoo on every device spec without starving one-shot traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchConfig {
    /// Largest number of requests decoding together on one device
    /// (clamped to at least 1; 1 means one-shot serving — each request
    /// prefills and decodes alone).
    pub max_batch: usize,
    /// Fleet-wide KV-cache budget per device, in *context tokens*. A
    /// request reserves its maximum context (`prompt + output − 1`) at
    /// join, so the resident KV of a device's batch never exceeds the
    /// budget.
    pub token_budget: u64,
    /// Join threshold: waiting prefills are admitted at a step boundary
    /// only when the batch is empty or `arrived ≥ ratio × active`. Higher
    /// values protect in-flight decode latency (ITL) at the cost of
    /// time-to-first-token for waiting requests.
    pub waiting_served_ratio: f64,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch: 8,
            token_budget: 2048,
            waiting_served_ratio: 1.2,
        }
    }
}

impl BatchConfig {
    /// One-shot serving: every request prefills and decodes alone, in
    /// arrival order. The baseline the continuous-batching sweep compares
    /// against.
    pub fn one_shot() -> Self {
        BatchConfig {
            max_batch: 1,
            ..BatchConfig::default()
        }
    }
}

/// Compiled per-model state one device keeps across its whole run.
struct ModelPlans {
    /// Lowered full-graph stream (the prefill pass).
    prefill_stream: CommandStream,
    /// The single-token step plan the batch replays.
    step_plan: DecodeStepPlan,
    /// KV bytes appended per context token.
    kv_bytes_per_token: u64,
    /// Memoized prefill cost, and step cost per batch size (module docs).
    prefill_cost: Option<StepCost>,
    step_costs: HashMap<usize, StepCost>,
}

/// One in-flight generative request on a device.
struct ActiveDecode<'r> {
    seq: usize,
    request: &'r ServeRequest,
    /// Prefill start (admission) time.
    start_ms: f64,
    cache_hit: bool,
    session: DecodeSession,
    /// Largest per-model sub-batch this request shared a step with.
    max_batch_seen: usize,
    /// Transfer-queue busy intervals attributed to this request (absolute
    /// time), for phase attribution.
    transfer_intervals: Vec<(f64, f64)>,
    /// Compute-queue busy intervals attributed to this request.
    compute_intervals: Vec<(f64, f64)>,
    /// Step failure, if one of this request's steps could not complete.
    error: Option<SimError>,
    /// The recovery state this attempt brought into the round.
    carry: DecodeCarry,
}

impl ActiveDecode<'_> {
    /// Fail this attempt with the injected fault `kind` at `at_ms`, traced
    /// on its lane (`pass` names the pass that took it).
    fn fault(&mut self, trace: &mut TraceRecorder, kind: FaultKind, at_ms: f64, pass: &str) {
        self.error = Some(SimError::Fault { kind, at_ms });
        if trace.enabled() {
            let abbr = &self.request.model.abbr;
            let name = format!("fault {kind} {abbr}{pass}");
            trace.instant(TraceKind::Fault, TraceLane::Request(self.seq), &name, at_ms);
        }
    }

    /// Build the outcome row at `completion_ms`, consuming the entry. The
    /// session's KV must already be released.
    fn into_outcome(
        self,
        device: &Device<'_>,
        completion_ms: f64,
        peak_memory_mb: f64,
    ) -> RequestOutcome {
        let arrival_ms = self.carry.original_arrival_ms;
        let queue_wait_ms = (self.start_ms - arrival_ms).max(0.0);
        let latency_ms = (completion_ms - arrival_ms).max(0.0);
        let phases = PhaseBreakdown::attribute(
            latency_ms,
            queue_wait_ms,
            0.0,
            0.0,
            &self.transfer_intervals,
            &self.compute_intervals,
        );
        let session = &self.session;
        let kv_peak_bytes = session.max_context_tokens() * session.kv().bytes_per_token();
        let resumed_tokens = self.carry.resumed_tokens;
        let times = session.token_times_ms();
        // A re-prefilled attempt's session holds `original prompt + resumed`
        // context and emits only the remaining tokens; the outcome reports
        // the submission's cumulative view.
        let decode = self.error.is_none().then(|| DecodeOutcome {
            prompt_tokens: session.prompt_tokens() - resumed_tokens,
            output_tokens: resumed_tokens + session.emitted_tokens(),
            ttft_ms: times.first().map_or(0.0, |t| t - arrival_ms),
            itl_ms: times.windows(2).map(|w| w[1] - w[0]).collect(),
            kv_peak_bytes,
            max_batch: self.max_batch_seen,
        });
        RequestOutcome {
            start_ms: self.start_ms,
            queue_wait_ms,
            latency_ms,
            resident_estimate_bytes: kv_peak_bytes,
            cache_hit: self.cache_hit,
            peak_memory_mb,
            phases,
            failure: self.error.as_ref().map(FailureCause::from_error),
            retries: self.carry.retries,
            failed_over: self.carry.failed_over,
            error: self.error,
            decode,
            ..RequestOutcome::unstarted(
                self.seq,
                self.request,
                device,
                arrival_ms,
                completion_ms,
                None,
            )
        }
    }
}

/// Attempt state a decode request carries between rounds (on a first
/// attempt: its arrival and zero counters).
#[derive(Debug, Clone, Copy, Default)]
struct DecodeCarry {
    /// The submission's true arrival (the re-dispatched copy's `arrival_ms`
    /// is the ready floor, not the arrival).
    original_arrival_ms: f64,
    /// Tokens emitted by earlier attempts: the re-prefill resume position.
    resumed_tokens: u32,
    /// Same-fault retry redispatches consumed.
    retries: u32,
    /// Device-loss failover hops consumed.
    hops: u32,
    /// Whether any earlier attempt ran on a different device.
    failed_over: bool,
}

/// A request placed on the device that has not joined its batch yet.
#[derive(Clone, Copy)]
struct Waiting<'r> {
    seq: usize,
    request: &'r ServeRequest,
    /// The recovery state this attempt brings into the round.
    carry: DecodeCarry,
}

/// How a request leaves its decode device.
enum Exit {
    /// It leaves the batch at the current step boundary: its last token is
    /// out, or a step error or an injected fault recorded on the entry
    /// ended it.
    Leave,
    /// Joining failed at the current boundary: a compile, prefill-replay
    /// or KV error.
    Refused(SimError),
    /// Its maximum context alone exceeds the token budget, so it can never
    /// join a batch: it fails unstarted at its arrival.
    OverBudget,
    /// The device was lost; the request's work there ends at `at_ms`, no
    /// earlier than the loss.
    Lost { at_ms: f64 },
}

/// One device's share of a decode round.
type DecodeWork<'a> = Vec<Attempt<'a, DecodeCarry>>;

/// What a decode orphan resumes from: the cumulative tokens emitted across
/// all attempts, its re-prefill position.
type DecodeResume = u32;

/// One [`DecodeEngine`] run over a request list, as the fleet driver steps
/// it.
struct DecodeLoop<'a> {
    engine: &'a DecodeEngine,
    requests: &'a [ServeRequest],
}

impl<'a> DeviceLoop for DecodeLoop<'a> {
    type Work = DecodeWork<'a>;
    type Resume = DecodeResume;

    fn is_idle(work: &DecodeWork<'a>) -> bool {
        work.is_empty()
    }

    fn models<'w>(work: &'w DecodeWork<'a>) -> impl Iterator<Item = &'w ModelSpec> {
        work.iter().map(|a| &a.request.model)
    }

    fn run_device(
        &self,
        device: &Device<'_>,
        warm: &HashSet<u64>,
        work: DecodeWork<'a>,
    ) -> SimResult<DeviceRound<DecodeResume>> {
        let mut run = DecodeDeviceRun::new(self.engine, device, warm, &work);
        run.run()?;
        Ok(run.finish(work.len()))
    }

    /// Re-dispatch every orphan through [`Fleet::redispatch`] (retry with
    /// backoff on the same device, or failover onto a surviving one),
    /// re-prefilling from the orphan's token position.
    fn plan(
        &self,
        fleet: &mut Fleet<'_>,
        _included: &[usize],
        orphans: Vec<Orphan<DecodeResume>>,
    ) -> Vec<DecodeWork<'a>> {
        let mut work: Vec<DecodeWork<'a>> = (0..fleet.len()).map(|_| Vec::new()).collect();
        for orphan in orphans {
            let Some((to, orphan)) = fleet.redispatch(orphan, |_, _| true) else {
                continue;
            };
            let seq = orphan.outcome.seq;
            let resumed_tokens = orphan.resume;
            let mut request = self.requests[seq].clone();
            let params = request.decode.expect("validated in the prologue");
            request.decode = Some(DecodeParams {
                prompt_tokens: params.prompt_tokens + resumed_tokens,
                output_tokens: params.output_tokens - resumed_tokens,
            });
            request.arrival_ms = to.ready_ms;
            work[to.dest].push(Attempt {
                seq,
                request: Cow::Owned(request),
                carry: Some(DecodeCarry {
                    original_arrival_ms: orphan.outcome.arrival_ms,
                    resumed_tokens,
                    retries: to.retries,
                    hops: to.hops,
                    failed_over: to.failed_over,
                }),
            });
        }
        work
    }
}

/// The continuous-batching engine for generative (decode) requests.
///
/// Every request must carry decode token counts
/// ([`ServeRequest::with_decode_tokens`]) and reference a model with a
/// [`DecodeSpec`](flashmem_graph::models::DecodeSpec); mixing in one-shot requests
/// is an [`SimError::InvalidParameter`] — serve those through
/// [`ServeEngine`](crate::ServeEngine).
pub struct DecodeEngine {
    fleet: Vec<DeviceSpec>,
    config: FlashMemConfig,
    batch: BatchConfig,
    cache: Arc<ArtifactCache>,
    trace: TraceConfig,
    fault_plan: FaultPlan,
    recovery: RecoveryControl,
}

impl DecodeEngine {
    /// A continuous-batching engine over `fleet` with default
    /// [`BatchConfig`] knobs.
    pub fn new(fleet: Vec<DeviceSpec>, config: FlashMemConfig) -> Self {
        DecodeEngine {
            fleet,
            config,
            batch: BatchConfig::default(),
            cache: Arc::new(ArtifactCache::new()),
            trace: TraceConfig::disabled(),
            fault_plan: FaultPlan::default(),
            recovery: RecoveryControl::disabled(),
        }
    }

    /// Arm a deterministic [`FaultPlan`] (builder style). Empty by default;
    /// with an empty plan a run is a single round of the fleet driver
    /// (`crates/serve/src/fleet.rs`), and faults that fire make the driver
    /// plan further rounds of re-dispatched work.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Configure failure recovery (builder style). The decode path supports
    /// retry budgets, simulated-time backoff and device-loss failover; a
    /// redispatched request **re-prefills from its token position** (tokens
    /// already streamed to the client are not re-generated: the retry's
    /// prompt absorbs them, preserving the `prompt + output − 1` context
    /// invariant). Quarantine/probe knobs are ignored here — the decode
    /// placement has no policy hook to confine, so the circuit breaker lives
    /// only in [`ServeEngine`](crate::ServeEngine). A retried request's
    /// [`DecodeOutcome`] reports the *final* attempt's token telemetry.
    pub fn with_recovery_control(mut self, recovery: RecoveryControl) -> Self {
        self.recovery = recovery;
        self
    }

    /// Replace the batching knobs (builder style). Values are clamped to
    /// sane minima: `max_batch ≥ 1`, `token_budget ≥ 1`,
    /// `waiting_served_ratio ≥ 0`.
    pub fn with_batching(mut self, batch: BatchConfig) -> Self {
        self.batch = BatchConfig {
            max_batch: batch.max_batch.max(1),
            token_budget: batch.token_budget.max(1),
            waiting_served_ratio: batch.waiting_served_ratio.max(0.0),
        };
        self
    }

    /// Share an existing plan cache instead of a private one.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Configure event tracing (builder style). Off by default; when
    /// enabled the report's trace carries [`TraceKind::Prefill`] spans and
    /// [`TraceKind::BatchJoin`]/[`TraceKind::BatchLeave`] instants on each
    /// request's lane, plus [`TraceKind::DecodeStep`] spans on the compute
    /// lane.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// The fleet being served.
    pub fn fleet(&self) -> &[DeviceSpec] {
        &self.fleet
    }

    /// The shared plan cache.
    pub fn cache(&self) -> &ArtifactCache {
        &self.cache
    }

    /// The active batching knobs.
    pub fn batch_config(&self) -> BatchConfig {
        self.batch
    }

    /// Serve `requests` on the process-wide pool. See [`run_on`](Self::run_on).
    ///
    /// # Errors
    ///
    /// As [`run_on`](Self::run_on).
    pub fn run(&self, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        self.run_on(pool::global(), requests)
    }

    /// Serve `requests` (any order) and report per-request outcomes with
    /// token-level decode results, plus the usual fleet utilization, latency
    /// and SLO metrics. Device timelines fan out on `pool`; the report is
    /// byte-identical at every pool width.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty fleet, a request
    /// without decode token counts, a model without a decode spec, or a
    /// request whose maximum context exceeds its model's context window.
    /// Worker panics surface as [`SimError::WorkerPanic`]; per-request
    /// failures (out-of-memory) are recorded in the outcomes instead.
    pub fn run_on(&self, pool: &ThreadPool, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        let fleet_len = self.fleet.len();
        if fleet_len == 0 {
            return Err(SimError::InvalidParameter {
                message: "cannot serve on an empty fleet: DecodeEngine needs at least one device"
                    .to_string(),
            });
        }

        // ---- validation + placement: the sequential prologue ----
        for request in requests {
            let Some(params) = request.decode else {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "request for {} has no decode token counts; DecodeEngine only serves \
                         generative requests (use ServeRequest::with_decode_tokens)",
                        request.model.abbr
                    ),
                });
            };
            let Some(spec) = request.model.decode() else {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "model {} has no decode spec; only autoregressive models can be served \
                         through the decode path",
                        request.model.abbr
                    ),
                });
            };
            if params.max_context_tokens() > spec.max_context {
                return Err(SimError::InvalidParameter {
                    message: format!(
                        "request for {} needs {} context tokens but the model's window is {}",
                        request.model.abbr,
                        params.max_context_tokens(),
                        spec.max_context
                    ),
                });
            }
        }

        // Round-robin placement over (arrival, seq) order: the decode path
        // has no policy hook yet, and round-robin keeps per-device batches
        // balanced, which is what batching throughput wants.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        sort_by_arrival(&mut order, |&seq| (requests[seq].arrival_ms, seq));
        let fleet = Fleet::new(
            &self.fleet,
            &self.config,
            &self.cache,
            self.trace,
            self.recovery,
        );
        let warm = fleet.warmth(requests);
        let mut work: Vec<DecodeWork<'_>> = (0..fleet_len).map(|_| Vec::new()).collect();
        for (i, &seq) in order.iter().enumerate() {
            work[i % fleet_len].push(Attempt::first(seq, &requests[seq]));
        }
        let policy = if self.batch.max_batch == 1 {
            "decode-one-shot".to_string()
        } else {
            format!("decode-continuous(b={})", self.batch.max_batch)
        };
        let device_loop = DecodeLoop {
            engine: self,
            requests,
        };
        fleet.run(pool, &device_loop, work, warm, policy)
    }
}

/// One device's step loop for one round of the fleet driver: everything the
/// loop carries between step boundaries. Single-threaded per device and a
/// pure function of the round's work (the requests placed here plus the
/// recovery state re-dispatched attempts carry), so the result is identical
/// at every pool width. The loop is a sequence of phases on it — the idle
/// jump, device loss, join (one prefill at a time), the batched step and
/// leave — and every request leaves the device through one door,
/// [`retire`](Self::retire).
struct DecodeDeviceRun<'r> {
    engine: &'r DecodeEngine,
    dev: &'r Device<'r>,
    /// Plan-cache keys compiled when the round began.
    warm: &'r HashSet<u64>,
    draws_faults: bool,
    lost_at_ms: Option<f64>,
    lost: bool,
    trace: TraceRecorder,
    tracker: MemoryTracker,
    /// Requests not yet joined, sorted by `(arrival_ms, seq)`.
    waiting: VecDeque<Waiting<'r>>,
    active: Vec<ActiveDecode<'r>>,
    plans: HashMap<String, ModelPlans>,
    /// The current step boundary on the device clock.
    now: f64,
    ledger: DeviceLedger<DecodeResume>,
}

impl<'r> DecodeDeviceRun<'r> {
    fn new(
        engine: &'r DecodeEngine,
        dev: &'r Device<'r>,
        warm: &'r HashSet<u64>,
        work: &'r [Attempt<'_, DecodeCarry>],
    ) -> Self {
        let mut waiting: Vec<Waiting<'r>> = work
            .iter()
            .map(|a| Waiting {
                seq: a.seq,
                request: a.request.as_ref(),
                carry: a.carry.unwrap_or(DecodeCarry {
                    original_arrival_ms: a.request.arrival_ms,
                    ..DecodeCarry::default()
                }),
            })
            .collect();
        sort_by_arrival(&mut waiting, |w| (w.request.arrival_ms, w.seq));
        DecodeDeviceRun {
            engine,
            dev,
            warm,
            draws_faults: !engine.fault_plan.is_empty(),
            lost_at_ms: engine.fault_plan.device_loss_ms(dev.index),
            lost: false,
            trace: TraceRecorder::new(engine.trace),
            tracker: MemoryTracker::for_device(dev.spec),
            waiting: waiting.into(),
            active: Vec::new(),
            plans: HashMap::new(),
            now: 0.0,
            ledger: DeviceLedger::default(),
        }
    }

    fn run(&mut self) -> SimResult<()> {
        while !self.waiting.is_empty() || !self.active.is_empty() {
            // An idle device jumps to the next arrival, or to its loss.
            if self.active.is_empty() {
                if let Some(next) = self.waiting.front() {
                    let arrival = next.request.arrival_ms;
                    let until = self.lost_at_ms.map_or(arrival, |t| t.min(arrival));
                    self.now = self.now.max(until);
                }
            }
            if self.loss_due() {
                return self.lose_device();
            }
            let now = self.now;
            let arrived = self
                .waiting
                .iter()
                .take_while(|w| w.request.arrival_ms <= now + 1e-9)
                .count();
            self.ledger.queue_high_water = self.ledger.queue_high_water.max(arrived);
            // The waiting → served heuristic (module docs).
            let active = self.active.len() as f64;
            if arrived > 0
                && (self.active.is_empty()
                    || arrived as f64 >= self.engine.batch.waiting_served_ratio * active)
            {
                self.join()?;
            }
            // Covers output_tokens == 1 requests, done at prefill.
            self.leave()?;
            if !self.active.is_empty() {
                self.step();
                self.leave()?;
            }
        }
        Ok(())
    }

    /// Whether the fault plan's device loss has happened by `now`: from
    /// then on no prefill and no sub-batch step may start.
    fn loss_due(&self) -> bool {
        self.lost_at_ms.is_some_and(|t| self.now + 1e-9 >= t)
    }

    /// The device is lost: work that started before the loss instant has
    /// drained (a dispatched kernel cannot be aborted), so the batch dies at
    /// `max(loss, now)` and every waiting request at `max(loss, arrival)`,
    /// with the device's memory.
    fn lose_device(&mut self) -> SimResult<()> {
        let lost_at = self.lost_at_ms.expect("the loss is due");
        self.now = self.now.max(lost_at);
        self.lost = true;
        if self.trace.enabled() {
            self.trace.instant(
                TraceKind::Fault,
                TraceLane::Host,
                &format!("fault device-loss {}", self.dev.spec.name),
                lost_at,
            );
        }
        for entry in std::mem::take(&mut self.active) {
            self.retire(entry, Exit::Lost { at_ms: self.now })?;
        }
        for waiting in std::mem::take(&mut self.waiting) {
            let at_ms = lost_at.max(waiting.request.arrival_ms);
            let entry = self.entry(&waiting, at_ms, 0);
            self.retire(entry, Exit::Lost { at_ms })?;
        }
        Ok(())
    }

    /// Join arrived requests in arrival order while the batch has room.
    /// Joins respect `max_batch` and the token budget: a head-of-line
    /// request that does not fit next to the batch waits for leavers, and
    /// one that could never fit fails.
    fn join(&mut self) -> SimResult<()> {
        let batch = self.engine.batch;
        while self.active.len() < batch.max_batch && !self.loss_due() {
            let Some(&next) = self.waiting.front() else {
                break;
            };
            if next.request.arrival_ms > self.now + 1e-9 {
                break;
            }
            let params = next.request.decode.expect("validated in the prologue");
            let committed: u64 = self
                .active
                .iter()
                .map(|a| a.session.max_context_tokens())
                .sum();
            let fits = committed + params.max_context_tokens() <= batch.token_budget;
            if !fits && !self.active.is_empty() {
                break;
            }
            self.waiting.pop_front();
            if fits {
                self.prefill(&next)?;
                continue;
            }
            let entry = self.entry(&next, next.request.arrival_ms, 0);
            self.retire(entry, Exit::OverBudget)?;
        }
        Ok(())
    }

    /// Prefill `waiting` alone on the device (a prefill owns the device, as
    /// in production continuous-batching servers), moving `now` to its end,
    /// and add it to the batch. The pass may take an injected fault, which
    /// adds the entry already failed so it leaves at the boundary.
    fn prefill(&mut self, waiting: &Waiting<'r>) -> SimResult<()> {
        let (seq, request) = (waiting.seq, waiting.request);
        let start = self.now;
        let cost = match self.prefill_cost(request) {
            Ok(cost) => cost,
            Err(error) => {
                let entry = self.entry(waiting, start, 0);
                return self.retire(entry, Exit::Refused(error));
            }
        };
        let end = start + cost.makespan_ms;
        self.ledger.transfer_busy_ms += cost.transfer_busy_ms;
        self.ledger.compute_busy_ms += cost.compute_busy_ms;
        self.now = end;
        let abbr = &request.model.abbr;
        let kv_bytes_per_token = self.plans[abbr].kv_bytes_per_token;
        let mut entry = self.entry(waiting, start, kv_bytes_per_token);
        if let Some(kind) = self.injected_fault(&entry) {
            entry.fault(&mut self.trace, kind, end, " prefill");
            self.active.push(entry);
            return Ok(());
        }
        let label = format!("kv seq{seq} {abbr}");
        if let Err(error) = entry.session.finish_prefill(&mut self.tracker, &label, end) {
            return self.retire(entry, Exit::Refused(error));
        }
        entry
            .transfer_intervals
            .push((start, start + cost.transfer_busy_ms));
        entry
            .compute_intervals
            .push((end - cost.compute_busy_ms, end));
        if self.trace.enabled() {
            let prompt = entry.session.prompt_tokens();
            self.trace.span_bytes(
                TraceKind::Prefill,
                TraceLane::Request(seq),
                &format!("prefill {abbr} ({prompt} tok)"),
                start,
                end,
                u64::from(prompt) * kv_bytes_per_token,
            );
            self.trace.instant(
                TraceKind::BatchJoin,
                TraceLane::Request(seq),
                &format!("join {abbr}"),
                end,
            );
        }
        self.active.push(entry);
        Ok(())
    }

    /// The cost of `request`'s prefill pass. The first request of a model
    /// replays the full stream through the tracker (establishing the
    /// transient peak); later ones reuse the cost.
    fn prefill_cost(&mut self, request: &ServeRequest) -> SimResult<StepCost> {
        self.ensure_plans(request)?;
        let plans = self
            .plans
            .get_mut(&request.model.abbr)
            .expect("just ensured");
        if let Some(cost) = plans.prefill_cost {
            return Ok(cost);
        }
        let stream = &plans.prefill_stream;
        let cost = replay_stream(stream, &self.dev.sim, &mut self.tracker, self.now)?;
        plans.prefill_cost = Some(cost);
        Ok(cost)
    }

    /// Compile (through the shared cache) and lower the prefill and step
    /// streams of `request`'s model, if this device has not seen it yet.
    fn ensure_plans(&mut self, request: &ServeRequest) -> SimResult<()> {
        let abbr = &request.model.abbr;
        if self.plans.contains_key(abbr) {
            return Ok(());
        }
        let (cache, config, dev) = (&self.engine.cache, &self.engine.config, self.dev);
        let spec = request.model.decode().expect("validated in the prologue");
        let (full, _) = cache.compile(&dev.engine, &request.model, dev.spec)?;
        let prefill_stream = lower_artifact(&full, &request.model, dev.spec, config);
        let (step, _) = cache.compile(&dev.engine, &spec.step, dev.spec)?;
        let step_stream = lower_artifact(&step, &spec.step, dev.spec, config);
        self.plans.insert(
            abbr.clone(),
            ModelPlans {
                prefill_stream,
                step_plan: DecodeStepPlan::new(step_stream)?,
                kv_bytes_per_token: spec.kv_bytes_per_token,
                prefill_cost: None,
                step_costs: HashMap::new(),
            },
        );
        Ok(())
    }

    /// A batch entry for `waiting`, started at `start_ms`, whose KV grows by
    /// `kv_bytes_per_token` per context token.
    fn entry(
        &self,
        waiting: &Waiting<'r>,
        start_ms: f64,
        kv_bytes_per_token: u64,
    ) -> ActiveDecode<'r> {
        let request = waiting.request;
        let params = request.decode.expect("validated in the prologue");
        let key = ArtifactCache::key_for(&self.dev.engine, &request.model, self.dev.spec);
        ActiveDecode {
            seq: waiting.seq,
            request,
            start_ms,
            cache_hit: self.warm.contains(&key),
            session: DecodeSession::new(
                params.prompt_tokens,
                params.output_tokens,
                kv_bytes_per_token,
            ),
            max_batch_seen: 1,
            transfer_intervals: Vec::new(),
            compute_intervals: Vec::new(),
            error: None,
            carry: waiting.carry,
        }
    }

    /// The fault plan's draw for `entry`'s next pass, keyed by its global
    /// token position so firing is schedule- and batch-independent and a
    /// retry redraws.
    fn injected_fault(&self, entry: &ActiveDecode<'_>) -> Option<FaultKind> {
        if !self.draws_faults {
            return None;
        }
        let carry = entry.carry;
        let position = carry.resumed_tokens + entry.session.emitted_tokens();
        self.engine.fault_plan.command_fault(
            self.dev.index,
            entry.seq,
            position as usize,
            carry.retries + carry.hops,
        )
    }

    /// One batched decode step: the batch splits into per-model
    /// sub-batches, in abbreviation order for determinism, that replay back
    /// to back on the device's queues.
    fn step(&mut self) {
        let mut groups: BTreeMap<&'r str, Vec<usize>> = BTreeMap::new();
        for (i, entry) in self.active.iter().enumerate() {
            let request: &'r ServeRequest = entry.request;
            groups.entry(&request.model.abbr).or_default().push(i);
        }
        for (abbr, members) in groups {
            if self.loss_due() {
                break;
            }
            self.step_group(abbr, &members);
        }
    }

    /// Step the sub-batch of `abbr`'s requests (`members` index the batch)
    /// from `now`, moving `now` to the step's end. Every member's KV grows
    /// by one token and emits one token there. A failed replay fails the
    /// whole sub-batch; a member may also take an injected fault.
    fn step_group(&mut self, abbr: &str, members: &[usize]) {
        let batch_size = members.len();
        let plans = self.plans.get_mut(abbr).expect("active implies compiled");
        let cost = match plans.step_costs.get(&batch_size) {
            Some(&cost) => cost,
            None => {
                let plan = &plans.step_plan;
                match plan.replay(&self.dev.sim, &mut self.tracker, batch_size, self.now) {
                    Ok(cost) => *plans.step_costs.entry(batch_size).or_insert(cost),
                    Err(error) => {
                        for &i in members {
                            self.active[i].error = Some(error.clone());
                        }
                        return;
                    }
                }
            }
        };
        let kv_bytes_per_token = plans.kv_bytes_per_token;
        let (start, end) = (self.now, self.now + cost.makespan_ms);
        self.ledger.transfer_busy_ms += cost.transfer_busy_ms;
        self.ledger.compute_busy_ms += cost.compute_busy_ms;
        if self.trace.enabled() {
            self.trace.span_bytes(
                TraceKind::DecodeStep,
                TraceLane::ComputeQueue,
                &format!("step {abbr} ×{batch_size}"),
                start,
                end,
                batch_size as u64 * kv_bytes_per_token,
            );
        }
        let share = 1.0 / batch_size as f64;
        for &i in members {
            let fault = self.injected_fault(&self.active[i]);
            let entry = &mut self.active[i];
            if let Some(kind) = fault {
                entry.fault(&mut self.trace, kind, end, "");
                continue;
            }
            let label = format!("kv seq{} {abbr}", entry.seq);
            if let Err(error) = entry.session.advance_step(&mut self.tracker, &label, end) {
                entry.error = Some(error);
                continue;
            }
            entry.max_batch_seen = entry.max_batch_seen.max(batch_size);
            entry
                .transfer_intervals
                .push((start, start + cost.transfer_busy_ms * share));
            entry
                .compute_intervals
                .push((end - cost.compute_busy_ms * share, end));
        }
        self.now = end;
    }

    /// Retire, in batch order, every entry that is done or failed at this
    /// boundary.
    fn leave(&mut self) -> SimResult<()> {
        let leaving: Vec<ActiveDecode<'r>> = self
            .active
            .extract_if(.., |e| e.session.is_done() || e.error.is_some())
            .collect();
        for entry in leaving {
            self.retire(entry, Exit::Leave)?;
        }
        Ok(())
    }

    /// Take `entry` off the device — the one way every request leaves it.
    /// It releases the entry's KV (a lost device's too), traces the batch
    /// leave of an entry that was in the batch, and routes the outcome to
    /// the final outcomes or, for an injected fault, to the recovery
    /// planner.
    fn retire(&mut self, mut entry: ActiveDecode<'r>, exit: Exit) -> SimResult<()> {
        let at_ms = match exit {
            Exit::Leave | Exit::Refused(_) => self.now,
            Exit::OverBudget => entry.start_ms,
            Exit::Lost { at_ms } => at_ms,
        };
        entry.session.release(&mut self.tracker, at_ms)?;
        let mut peak_memory_mb = self.tracker.peak_bytes() as f64 / MIB;
        match exit {
            Exit::Leave => {
                if self.trace.enabled() {
                    let tokens = entry.session.emitted_tokens();
                    self.trace.instant(
                        TraceKind::BatchLeave,
                        TraceLane::Request(entry.seq),
                        &format!("leave {} ({tokens} tok)", entry.request.model.abbr),
                        at_ms,
                    );
                }
            }
            Exit::Refused(error) => entry.error = Some(error),
            Exit::OverBudget => {
                let context = entry.request.decode.expect("validated in the prologue");
                let budget = self.engine.batch.token_budget;
                entry.error = Some(SimError::InvalidParameter {
                    message: format!(
                        "request needs {} context tokens but the engine's token budget is \
                         {budget}",
                        context.max_context_tokens()
                    ),
                });
                // It never reached the device.
                entry.cache_hit = false;
                peak_memory_mb = 0.0;
            }
            Exit::Lost { .. } => {
                entry.error = Some(SimError::Fault {
                    kind: FaultKind::DeviceLoss,
                    at_ms: self.lost_at_ms.expect("only a lost device loses work"),
                });
            }
        }
        let carry = entry.carry;
        let resume = carry.resumed_tokens + entry.session.emitted_tokens();
        let outcome = entry.into_outcome(self.dev, at_ms, peak_memory_mb);
        self.ledger
            .route(outcome, carry.retries, carry.hops, resume);
        Ok(())
    }

    /// The round's result for the fleet driver. Every request left through
    /// [`retire`](Self::retire), which releases its KV, so the batch is
    /// empty and the device holds no memory.
    fn finish(mut self, requests: usize) -> DeviceRound<DecodeResume> {
        assert!(
            self.active.is_empty(),
            "{}: decode run ended with requests still in the batch",
            self.dev.spec.name
        );
        self.ledger.makespan_ms = self.now;
        let memory_trace = self.tracker.trace().clone();
        self.ledger.close(
            self.dev,
            requests,
            &self.tracker,
            memory_trace,
            self.trace,
            self.lost,
        )
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use flashmem_graph::ModelZoo;

    fn engine(batch: BatchConfig) -> DecodeEngine {
        DecodeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_batching(batch)
    }

    fn burst(n: usize, prompt: u32, output: u32) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                ServeRequest::new(ModelZoo::gptneo_small(), format!("tenant-{}", i % 2))
                    .with_decode_tokens(prompt, output)
            })
            .collect()
    }

    #[test]
    fn continuous_batching_beats_one_shot_on_the_same_workload() {
        let requests = burst(6, 16, 8);
        let pool = ThreadPool::with_threads(1);
        let one_shot = engine(BatchConfig::one_shot())
            .run_on(&pool, &requests)
            .unwrap();
        let continuous = engine(BatchConfig::default())
            .run_on(&pool, &requests)
            .unwrap();
        assert_eq!(one_shot.completed(), 6);
        assert_eq!(continuous.completed(), 6);
        // Same tokens either way; batching amortizes the per-step weight
        // traffic, so the continuous run finishes sooner and its token
        // throughput is strictly higher.
        assert_eq!(one_shot.decode_tokens, 6 * 8);
        assert_eq!(continuous.decode_tokens, 6 * 8);
        assert!(continuous.makespan_ms() < one_shot.makespan_ms());
        assert!(
            continuous.tokens_per_s > one_shot.tokens_per_s,
            "continuous {} tok/s vs one-shot {} tok/s",
            continuous.tokens_per_s,
            one_shot.tokens_per_s
        );
        // The batch actually formed.
        assert!(continuous
            .outcomes
            .iter()
            .any(|o| o.decode.as_ref().unwrap().max_batch > 1));
        assert!(one_shot
            .outcomes
            .iter()
            .all(|o| o.decode.as_ref().unwrap().max_batch == 1));
    }

    #[test]
    fn token_accounting_is_exact() {
        let requests = burst(4, 12, 5);
        let report = engine(BatchConfig::default()).run(&requests).unwrap();
        assert!(report.ttft.is_some());
        assert!(report.itl.is_some());
        for outcome in &report.outcomes {
            let decode = outcome
                .decode
                .as_ref()
                .expect("all requests are generative");
            assert_eq!(decode.output_tokens, 5);
            assert_eq!(decode.itl_ms.len(), 4);
            assert!(decode.ttft_ms > 0.0);
            assert!(decode.itl_ms.iter().all(|&gap| gap > 0.0));
            // Peak KV = (prompt + output - 1) tokens at the model's stride.
            let spec = ModelZoo::gptneo_small();
            let stride = spec.decode().unwrap().kv_bytes_per_token;
            assert_eq!(decode.kv_peak_bytes, (12 + 5 - 1) * stride);
        }
    }

    #[test]
    fn reports_are_byte_identical_across_pool_widths() {
        let mut requests = burst(8, 16, 6);
        for (i, r) in requests.iter_mut().enumerate() {
            r.arrival_ms = 5.0 * i as f64;
        }
        let serial = engine(BatchConfig::default())
            .run_on(&ThreadPool::with_threads(1), &requests)
            .unwrap();
        let parallel = engine(BatchConfig::default())
            .run_on(&ThreadPool::with_threads(4), &requests)
            .unwrap();
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }

    #[test]
    fn one_shot_requests_are_rejected_with_a_clear_error() {
        let requests = vec![ServeRequest::new(ModelZoo::gptneo_small(), "a")];
        let err = engine(BatchConfig::default()).run(&requests).unwrap_err();
        assert!(err.to_string().contains("no decode token counts"), "{err}");
        let requests = vec![ServeRequest::new(ModelZoo::vit(), "a").with_decode_tokens(8, 4)];
        let err = engine(BatchConfig::default()).run(&requests).unwrap_err();
        assert!(err.to_string().contains("no decode spec"), "{err}");
    }

    #[test]
    fn oversized_context_fails_fast() {
        let requests =
            vec![ServeRequest::new(ModelZoo::gptneo_small(), "a").with_decode_tokens(4000, 100)];
        let err = engine(BatchConfig::default()).run(&requests).unwrap_err();
        assert!(err.to_string().contains("context tokens"), "{err}");
    }

    #[test]
    fn token_budget_gates_joins_and_oversized_requests_fail() {
        // Budget fits one 16+4-1=19-token request but not two at once.
        let tight = BatchConfig {
            max_batch: 8,
            token_budget: 30,
            waiting_served_ratio: 0.0,
        };
        let report = engine(tight).run(&burst(3, 16, 4)).unwrap();
        assert_eq!(report.completed(), 3);
        // Nobody ever shared a step: the budget serialized them.
        assert!(report
            .outcomes
            .iter()
            .all(|o| o.decode.as_ref().unwrap().max_batch == 1));
        // A request whose own context exceeds the budget fails outright.
        let report = engine(BatchConfig {
            token_budget: 10,
            ..tight
        })
        .run(&burst(1, 16, 4))
        .unwrap();
        assert_eq!(report.completed(), 0);
        assert_eq!(report.failed(), 1);
        assert!(report.outcomes[0]
            .error
            .as_ref()
            .unwrap()
            .to_string()
            .contains("token budget"));
    }

    #[test]
    fn device_loss_stops_new_work_at_the_loss_instant() {
        let report = DecodeEngine::new(
            vec![DeviceSpec::oneplus_12(), DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_fault_plan(FaultPlan::seeded(7).with_device_loss(0, 50.0))
        .with_trace(TraceConfig::enabled())
        .run_on(&ThreadPool::with_threads(1), &burst(16, 16, 8))
        .unwrap();
        let events = &report
            .trace
            .as_ref()
            .expect("tracing was enabled")
            .processes[0]
            .events;
        let late: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, TraceKind::Prefill | TraceKind::DecodeStep))
            .filter(|e| e.start_ms >= 50.0)
            .collect();
        assert!(late.is_empty(), "work started on a lost device: {late:?}");
        assert!(events
            .iter()
            .any(|e| e.kind == TraceKind::Fault && e.start_ms == 50.0));
        // Device 0's eight requests die with it; the prefill already running
        // at the loss drains first, the waiting ones fail at the loss.
        let lost: Vec<_> = report
            .outcomes
            .iter()
            .filter(|o| o.failure == Some(FailureCause::DeviceLost))
            .collect();
        assert_eq!(lost.len(), 8);
        assert!(lost.iter().all(|o| o.completion_ms >= 50.0));
        assert!(lost.iter().any(|o| o.completion_ms == 50.0));
        assert_eq!(report.completed(), 8);
    }

    #[test]
    fn trace_records_the_decode_lifecycle() {
        let report = engine(BatchConfig::default())
            .with_trace(TraceConfig::enabled())
            .run(&burst(3, 8, 4))
            .unwrap();
        let trace = report.trace.as_ref().expect("tracing was enabled");
        let kinds: Vec<TraceKind> = trace.processes[0].events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&TraceKind::Prefill));
        assert!(kinds.contains(&TraceKind::DecodeStep));
        assert!(kinds.contains(&TraceKind::BatchJoin));
        assert!(kinds.contains(&TraceKind::BatchLeave));
        // Tracing never perturbs the simulation.
        let untraced = engine(BatchConfig::default()).run(&burst(3, 8, 4)).unwrap();
        assert_eq!(report.decode_tokens, untraced.decode_tokens);
        assert_eq!(report.makespan_ms(), untraced.makespan_ms());
    }
}
