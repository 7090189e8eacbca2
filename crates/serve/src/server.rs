//! The multi-tenant serving engine: a hand-rolled (tokio-free) discrete
//! event loop that time-shares each device's dual command queues across many
//! in-flight inferences.
//!
//! ## How time advances
//!
//! Every admitted request owns a [`StreamStepper`] over its model's lowered
//! command stream. A device run lowers each (model, device) plan once, the
//! first time it needs it, and every later admission of that model steps the
//! same shared `Arc<CommandStream>`: a lowering depends only on the plan,
//! the device and the config, and a stepper keeps all of its progress
//! outside the stream.
//!
//! Devices are independent timelines. One device's share of a fleet round
//! is a `ServeDeviceRun`: its memory tracker, [`QueueClocks`] and epoch,
//! its pending queue, in-flight and suspended work, tenant ledger and
//! outcomes. Its loop repeatedly (1) preempts in-flight work if the policy
//! allows and a waiting request outranks it, (2) resumes or admits arrived
//! requests into free slots in policy order, then (3) advances whichever
//! in-flight stepper can start its next command earliest on the shared
//! clocks. One inference's disk loads therefore fill transfer-queue gaps
//! left by another inference's kernels — per-layer interleaving, not
//! back-to-back replay.
//!
//! Every in-flight request leaves its device through one retirement path,
//! `ServeDeviceRun::retire`, whether it completed, failed mid-run, took an
//! injected fault or was stranded by device loss. It frees the stream's
//! memory (or freezes it for failover), ends an exclusive-mode trace
//! segment, returns the tenant reservation and extends the makespan. Every
//! outcome, including that of a request that failed before it ran, is
//! then traced and filed as final or, for an injected fault, handed to the
//! recovery planner. A run that ends holding memory, or (unless its device
//! was lost) a tenant reservation, panics.
//!
//! ## How the fleet advances
//!
//! Device timelines share nothing but the plan cache, so
//! [`ServeEngine::run`] fans them out on the process-wide work-stealing
//! [`ThreadPool`] through the fleet driver (`crates/serve/src/fleet.rs`),
//! in strictly ordered stages:
//!
//! 1. **Placement prologue (sequential).** [`SchedulePolicy::place`] assigns
//!    every request to a device on the caller thread, in submission order —
//!    placement may depend on global request order, so it never races.
//!    Each device's runtime ([`FlashMem`](flashmem_core::FlashMem)) and simulator
//!    ([`GpuSimulator`]) are constructed once per run, not once per request.
//! 2. **Parallel device stepping.** Each device with work runs `run_device`
//!    as one pool job. Workers share the engine's [`ArtifactCache`], whose
//!    in-flight compile dedup guarantees N devices serving one tenant config
//!    solve LC-OPG exactly once with schedule-independent hit/miss counters.
//!    A job that panics (a buggy policy) is caught on its worker and
//!    surfaced as [`SimError::WorkerPanic`]; errors propagate by device
//!    index, so failure behaviour matches `--threads 1` exactly.
//! 3. **Ordered merge (the commit point).** Device reports land in
//!    fleet-index slots and per-request outcomes are re-sorted by submission
//!    `seq`, so the merged [`ServeReport`] is byte-identical to the serial
//!    loop's no matter how the workers interleaved.
//! 4. **Recovery planning (sequential).** Attempts injected faults knocked
//!    out are retried, failed over or finalized on the caller thread, and
//!    the re-dispatched work runs as the next round of stages 2–4. A
//!    fault-free run has nothing to re-dispatch, so it is exactly one round.
//!
//! `run` uses [`pool::global`] (width from `--threads N` /
//! `FLASHMEM_THREADS`); [`ServeEngine::run_on`] takes an explicit pool for
//! tests and `--threads 1` bisection. A nested call — a serve run already
//! inside a pool worker, e.g. one sweep cell of the bench — steps its fleet
//! inline on that worker, by the pool's no-nested-fan-out rule.
//!
//! ## Preemption
//!
//! Under a preemptive policy (one whose
//! [`SchedulePolicy::preemption`] returns a cost), a running inference can be
//! suspended at any command boundary: its [`StreamStepper`] is frozen into a
//! [`Suspension`] snapshot (queue clocks, in-flight command finish times,
//! resident-memory state) and its allocations are evicted so the
//! higher-priority request has the device to itself. Commands that were
//! already issued still drain — a dispatched kernel cannot be aborted, the
//! stream just stops issuing new work. When a slot frees up the suspended
//! request competes for admission again (at its original priority and
//! arrival, so FIFO tie-breaking favours it over younger work) and, on
//! resume, re-acquires the identical residency and pays the policy's
//! [`PreemptionCost`] before issuing its next command. The suspended
//! request's tenant-cap reservation is kept while suspended, so a tenant
//! cannot starve its own preempted work by submitting more requests.
//!
//! ## Exclusive mode and legacy equivalence
//!
//! When the policy allows a single in-flight inference and is not preemptive
//! (`max_in_flight() == 1`, e.g. [`FifoPolicy`]), each
//! request runs in run-local time against freshly reset queue clocks, its
//! memory-trace segment is stitched onto the device timeline, and its weights
//! are evicted before the next admission — the *identical* float arithmetic
//! of the legacy `MultiModelRunner::run_fifo`, which is why the FIFO policy
//! reproduces Figure 6 traces byte for byte (see `tests/scheduler.rs`).
//!
//! Under concurrent (and all preemptive) policies the device keeps one global
//! timeline (re-based only across idle gaps) and a shared memory tracker, and
//! a finished request's remaining allocations are released individually. The
//! tracker applies memory effects in event order, which the earliest-start
//! stepping rule keeps near time order; tiny reorderings across concurrent
//! streams are an accepted modelling artifact.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use flashmem_core::cache::{ArtifactCache, Fnv1a};
use flashmem_core::engine::CompiledArtifact;
use flashmem_core::executor::RUNTIME_OVERHEAD_BYTES;
use flashmem_core::pool::{self, ThreadPool};
use flashmem_core::telemetry::{PhaseBreakdown, TraceConfig, TraceKind, TraceLane, TraceRecorder};
use flashmem_core::{ExecutionReport, FlashMemConfig, KernelRewriter, StreamingExecutor};
use flashmem_gpu_sim::engine::{
    CommandStream, GpuSimulator, PreemptionCost, QueueClocks, QueueKind, SimConfig, StreamStepper,
    Suspension,
};
use flashmem_gpu_sim::error::SimResult;
use flashmem_gpu_sim::memory::MemoryTracker;
use flashmem_gpu_sim::trace::MemoryTrace;
use flashmem_gpu_sim::{DeviceSpec, FaultKind, FaultPlan, SimError};
use flashmem_graph::ModelSpec;
use flashmem_profiler::LoweringOptions;

use crate::fleet::{
    sort_by_arrival, Attempt, Device, DeviceLedger, DeviceLoop, DeviceRound, Fleet, Health, Orphan,
    MIB,
};
use crate::metrics::{RequestOutcome, ServeReport};
use crate::policy::{
    FifoPolicy, InFlightEntry, OverloadControl, PendingEntry, PolicyContext, RecoveryControl,
    SchedulePolicy,
};
use crate::request::{FailureCause, RejectCause, ServeRequest};

/// Lower a compiled artifact to the command stream the event loop steps.
///
/// Streaming artifacts reuse the [`StreamingExecutor`] lowering the one-shot
/// runtime uses; preload artifacts *are* command streams; naive plans lower
/// through the executor without kernel rewriting, as in the Figure 9 strawmen.
pub fn lower_artifact(
    artifact: &CompiledArtifact,
    model: &ModelSpec,
    device: &DeviceSpec,
    config: &FlashMemConfig,
) -> CommandStream {
    match artifact {
        CompiledArtifact::Streaming(compiled) => {
            let rewriter = if config.enable_kernel_rewriting {
                KernelRewriter::pipelined()
            } else {
                KernelRewriter::naive()
            };
            StreamingExecutor::new(device.clone(), rewriter.lowering_options())
                .with_embedded_transforms(config.enable_kernel_rewriting)
                .compile(model.graph(), &compiled.fusion, &compiled.plan)
        }
        CompiledArtifact::Preload(stream) => stream.clone(),
        CompiledArtifact::NaivePlan { fusion, plan } => {
            StreamingExecutor::new(device.clone(), LoweringOptions::texture_framework())
                .with_embedded_transforms(false)
                .compile(model.graph(), fusion, plan)
        }
    }
}

/// Estimated resident bytes of one in-flight request — the admission-control
/// quantity behind per-tenant memory caps. Runtime overhead + double-buffered
/// activations + everything the plan keeps resident, plus the largest
/// streamed weight as staging headroom.
pub fn estimate_resident_bytes(artifact: &CompiledArtifact, model: &ModelSpec) -> u64 {
    let base = RUNTIME_OVERHEAD_BYTES + (2 * model.graph().max_activation_bytes()).max(1);
    match artifact {
        CompiledArtifact::Streaming(compiled) => {
            base + plan_resident_bytes(compiled.plan.weights())
        }
        CompiledArtifact::NaivePlan { plan, .. } => base + plan_resident_bytes(plan.weights()),
        CompiledArtifact::Preload(stream) => {
            // No plan to consult: every allocation in the stream is an upper
            // bound on what can be live at once.
            base + stream
                .commands()
                .iter()
                .filter_map(|c| match &c.kind {
                    flashmem_gpu_sim::engine::CommandKind::Alloc { bytes, .. } => Some(*bytes),
                    _ => None,
                })
                .sum::<u64>()
        }
    }
}

/// Predicted uncontended service time of a compiled artifact on `device`:
/// the makespan of stepping its lowered command stream alone against idle
/// queues and an empty tracker. This is what laxity-driven policies
/// ([`LeastLaxityPolicy`](crate::LeastLaxityPolicy),
/// [`DeadlinePreemptivePolicy`](crate::DeadlinePreemptivePolicy)) use as the
/// estimated remaining service time of a request that has not started yet;
/// the engine computes it once per distinct model per device and scales it
/// by the remaining command fraction for partially executed streams.
///
/// Returns 0.0 for a stream that fails validation, and the makespan reached
/// so far if stepping fails mid-stream (e.g. the model alone exceeds the
/// device budget — admission will surface that as its own failure).
pub fn predicted_service_ms(
    artifact: &CompiledArtifact,
    model: &ModelSpec,
    device: &DeviceSpec,
    config: &FlashMemConfig,
) -> f64 {
    uncontended_makespan_ms(lower_artifact(artifact, model, device, config), device)
}

/// [`predicted_service_ms`] of an already lowered stream.
fn uncontended_makespan_ms(stream: impl Into<Arc<CommandStream>>, device: &DeviceSpec) -> f64 {
    let sim = GpuSimulator::new(device.clone(), SimConfig::default());
    let mut tracker = MemoryTracker::for_device(device);
    let mut clocks = QueueClocks::new();
    let Ok(mut stepper) = StreamStepper::new(stream) else {
        return 0.0;
    };
    while !stepper.is_done() {
        if stepper.step(&sim, &mut clocks, &mut tracker, 0.0).is_err() {
            break;
        }
    }
    stepper.makespan_ms()
}

fn plan_resident_bytes(weights: &[flashmem_core::WeightSchedule]) -> u64 {
    let preloaded: u64 = weights
        .iter()
        .filter(|w| w.preloaded)
        .map(|w| w.bytes)
        .sum();
    let largest_streamed = weights
        .iter()
        .filter(|w| !w.preloaded)
        .map(|w| w.bytes)
        .max()
        .unwrap_or(0);
    preloaded + largest_streamed
}

/// The scheduler-visible view of everything that could be admitted at `now`:
/// pending requests that have arrived, plus every suspended request (a
/// suspended request arrived before it was first admitted, by construction).
/// Both the admission phase and the preemption phase rank exactly this list,
/// so a preemption can only fire for a candidate admission would pick.
///
/// `gate`, when present, restricts pending candidates to requests that have
/// already passed the bounded-queue shed check (`Some` only when a queue
/// bound is configured): an arrival the loop has not yet observed might be
/// about to be shed, and must not trigger a preemption first.
///
/// `pending` is sorted by `(arrival_ms, seq)` and only ever shrinks, so the
/// arrived requests are a prefix of it: the scan stops at the first future
/// arrival instead of walking the whole list.
fn arrived_candidates(
    pending: &[Waiting<'_>],
    suspended: &[Suspended],
    now: f64,
    gate: Option<&HashSet<usize>>,
) -> Vec<PendingEntry> {
    debug_assert!(
        pending.windows(2).all(|w| {
            (w[0].request.arrival_ms, w[0].seq) <= (w[1].request.arrival_ms, w[1].seq)
        }),
        "pending must stay sorted by (arrival_ms, seq)"
    );
    let mut candidates: Vec<PendingEntry> = pending
        .iter()
        .take_while(|w| w.request.arrival_ms <= now)
        .filter(|w| gate.is_none_or(|g| g.contains(&w.seq)))
        .map(|w| PendingEntry {
            seq: w.seq,
            priority: w.request.priority,
            arrival_ms: w.request.arrival_ms,
            deadline_ms: w.deadline_ms,
            estimated_remaining_ms: w.estimate_ms,
        })
        .collect();
    // A suspended request competes at its original priority and arrival,
    // with the predicted service time its stream has left.
    candidates.extend(
        suspended
            .iter()
            .filter(|s| s.ready_ms <= now)
            .map(|s| PendingEntry {
                seq: s.meta.seq,
                priority: s.meta.priority,
                arrival_ms: s.meta.arrival_ms,
                deadline_ms: s.meta.absolute_deadline_ms(),
                estimated_remaining_ms: s.meta.estimated_remaining_ms(s.suspension.remaining()),
            }),
    );
    candidates
}

/// A request waiting on a device for admission, with the static scheduling
/// inputs the policy ranks it by.
#[derive(Clone, Copy)]
struct Waiting<'r> {
    seq: usize,
    request: &'r ServeRequest,
    /// The recovery state this attempt brings into the round.
    carry: ServeCarry,
    /// Absolute deadline on the device clock, counted from true submission.
    deadline_ms: Option<f64>,
    /// Predicted uncontended service time (0.0 unless the policy
    /// [uses estimates](SchedulePolicy::uses_estimates)).
    estimate_ms: f64,
}

/// Everything the loop knows about an admitted request except its execution
/// state — shared between the in-flight and suspended representations.
/// `Clone` exists for device loss, which snapshots the meta of stranded work
/// so the recovery planner can either resume it elsewhere or finalize its
/// typed-failure outcome.
#[derive(Clone, Default)]
struct FlightMeta {
    seq: usize,
    abbr: String,
    tenant: String,
    priority: u8,
    arrival_ms: f64,
    deadline_ms: Option<f64>,
    start_ms: f64,
    cache_hit: bool,
    streamed_fraction: f64,
    estimate_bytes: u64,
    /// Predicted uncontended service time of the whole stream (0.0 when the
    /// policy does not use estimates).
    predicted_ms: f64,
    /// Command count of the lowered stream, for scaling `predicted_ms` to
    /// a partially executed remainder.
    total_commands: usize,
    /// Laxity at admission: absolute deadline − start − predicted service.
    admission_laxity_ms: Option<f64>,
    /// Home device index when the steal planner re-placed this request.
    stolen_from: Option<usize>,
    /// Injected-fault retries this request has already consumed (carried
    /// across recovery rounds; 0 on a first attempt).
    retries: u32,
    /// True when the recovery planner re-placed this request off a lost or
    /// quarantined device.
    failed_over: bool,
    /// Attempt ordinal fed into the fault plan's per-command draw key, so a
    /// retried command is re-drawn instead of deterministically re-faulting.
    attempt: u32,
    trace_start: usize,
    order: usize,
    preemptions: usize,
    suspended_ms: f64,
    penalty_ms: f64,
    /// Global time at which the current running segment began (admission or
    /// last resume, after any reload penalty) — the open edge of the event
    /// trace's `Running` span.
    run_start_ms: f64,
    /// This request's own transfer-queue command intervals, in stream-local
    /// (epoch-relative) time. Per-queue commands never overlap, so phase
    /// attribution can union them directly.
    transfer_intervals: Vec<(f64, f64)>,
    /// This request's own compute-queue command intervals, stream-local.
    compute_intervals: Vec<(f64, f64)>,
}

impl FlightMeta {
    /// Absolute deadline on the device clock, if the request carries one.
    fn absolute_deadline_ms(&self) -> Option<f64> {
        self.deadline_ms.map(|d| self.arrival_ms + d)
    }

    /// Predicted service time still ahead of a stream with `remaining`
    /// commands left: the whole-stream prediction scaled by the unexecuted
    /// command fraction.
    fn estimated_remaining_ms(&self, remaining: usize) -> f64 {
        if self.total_commands == 0 {
            0.0
        } else {
            self.predicted_ms * remaining as f64 / self.total_commands as f64
        }
    }
    /// Build the outcome row for this request, completing (or failing) at
    /// `completion_ms`.
    fn into_outcome(
        self,
        device: &Device<'_>,
        completion_ms: f64,
        peak_memory_mb: f64,
        error: Option<SimError>,
        report: Option<ExecutionReport>,
    ) -> RequestOutcome {
        let queue_wait_ms = (self.start_ms - self.arrival_ms).max(0.0);
        let latency_ms = (completion_ms - self.arrival_ms).max(0.0);
        // Compile time is 0.0 on the simulated clock (LC-OPG solves are
        // charged to host wall time, not device time); suspension includes
        // the re-residency penalties; the residual stall term makes the
        // phases sum to the latency exactly.
        let phases = PhaseBreakdown::attribute(
            latency_ms,
            queue_wait_ms,
            0.0,
            self.suspended_ms + self.penalty_ms,
            &self.transfer_intervals,
            &self.compute_intervals,
        );
        RequestOutcome {
            seq: self.seq,
            model: self.abbr,
            tenant: self.tenant,
            priority: self.priority,
            device: device.spec.name.clone(),
            device_index: device.index,
            arrival_ms: self.arrival_ms,
            start_ms: self.start_ms,
            completion_ms,
            queue_wait_ms,
            latency_ms,
            deadline_ms: self.deadline_ms,
            admission_laxity_ms: self.admission_laxity_ms,
            resident_estimate_bytes: self.estimate_bytes,
            preemptions: self.preemptions,
            suspended_ms: self.suspended_ms,
            resume_penalty_ms: self.penalty_ms,
            cache_hit: self.cache_hit,
            peak_memory_mb,
            phases,
            rejected: None,
            stolen_from: self.stolen_from,
            failure: error.as_ref().map(FailureCause::from_error),
            retries: self.retries,
            failed_over: self.failed_over,
            error,
            report,
            decode: None,
        }
    }
}

/// One admitted, in-flight request on a device.
struct InFlight {
    meta: FlightMeta,
    stepper: StreamStepper,
}

/// A preempted request waiting for a slot (and its residency) to come back.
struct Suspended {
    meta: FlightMeta,
    /// Global (device-timeline) time at which the request was suspended.
    suspended_at_ms: f64,
    suspension: Suspension,
    /// Earliest global time this suspension may resume. `NEG_INFINITY`
    /// (always ready) for ordinary preemptions; the recovery planner's
    /// backoff floor for suspensions failed over from a lost device.
    ready_ms: f64,
}

/// Per-request state a re-dispatched attempt carries across recovery rounds.
/// Re-dispatched requests are cloned with their arrival bumped to the
/// recovery planner's ready floor; the carry remembers the *original*
/// arrival (so latency and SLO accounting measure from true submission) and
/// the recovery counters consumed so far.
#[derive(Clone, Copy, Default)]
struct ServeCarry {
    original_arrival_ms: f64,
    retries: u32,
    hops: u32,
    failed_over: bool,
    stolen_from: Option<usize>,
}

/// One device's share of a serve round.
#[derive(Default)]
struct ServeWork<'a> {
    /// Requests placed on this device, in submission order.
    assigned: Vec<Attempt<'a, ServeCarry>>,
    /// Requests admission control rejected in the run prologue, with their
    /// (provably negative) best-case laxity. Their outcomes and trace
    /// instants are emitted by this device so the ordered merge stays the
    /// only commit point.
    prerejected: Vec<(usize, &'a ServeRequest, f64)>,
    /// Suspensions the recovery planner failed over onto this device, each
    /// suspended at the device-loss instant that stranded it and ready at
    /// its backoff floor. They seed the device loop's suspended list, so the
    /// ordinary resume path re-acquires their residency (and pays the
    /// reload penalty).
    seeds: Vec<Suspended>,
}

/// What a device-loss orphan resumes from: its in-flight state, when
/// failover is armed, resumable on a same-spec sibling.
type ServeResume = Option<(FlightMeta, Suspension)>;

/// One [`ServeEngine`] run over a request list, as the fleet driver steps
/// it.
struct ServeLoop<'a> {
    engine: &'a ServeEngine,
    requests: &'a [ServeRequest],
    /// For requests the steal planner re-placed: `seq → home device`.
    stolen_from: HashMap<usize, usize>,
}

/// A fleet-wide tenant cap: `bytes` of estimated resident memory across the
/// whole fleet, enforced without cross-device shared state by confining the
/// tenant to `shards` devices that each apply a `bytes / shards` sub-cap.
#[derive(Debug, Clone, Copy)]
struct FleetTenantCap {
    bytes: u64,
    shards: usize,
}

/// The multi-tenant serving engine over a fleet of simulated devices.
pub struct ServeEngine {
    fleet: Vec<DeviceSpec>,
    config: FlashMemConfig,
    policy: Box<dyn SchedulePolicy>,
    cache: Arc<ArtifactCache>,
    tenant_caps: HashMap<String, u64>,
    fleet_tenant_caps: HashMap<String, FleetTenantCap>,
    tenant_slos: HashMap<String, f64>,
    overload: OverloadControl,
    recovery: RecoveryControl,
    fault_plan: FaultPlan,
    trace: TraceConfig,
}

impl ServeEngine {
    /// A FIFO engine over `fleet` running FlashMem under `config`.
    ///
    /// An empty fleet is accepted here but rejected by [`run`](Self::run):
    /// silently substituting a default device would hide a configuration bug
    /// (and historically let `place(..).min(fleet_len - 1)` underflow).
    pub fn new(fleet: Vec<DeviceSpec>, config: FlashMemConfig) -> Self {
        ServeEngine {
            fleet,
            config,
            policy: Box::new(FifoPolicy),
            cache: Arc::new(ArtifactCache::new()),
            tenant_caps: HashMap::new(),
            fleet_tenant_caps: HashMap::new(),
            tenant_slos: HashMap::new(),
            overload: OverloadControl::disabled(),
            recovery: RecoveryControl::disabled(),
            fault_plan: FaultPlan::default(),
            trace: TraceConfig::disabled(),
        }
    }

    /// Inject deterministic faults from a seeded [`FaultPlan`] (builder
    /// style). The plan keys every per-command draw by `(device, seq,
    /// command, attempt)`, so which commands fault is independent of the
    /// scheduling policy, pool width and retry timing. With an empty plan
    /// (the default) and recovery off, a run is a single fault-free round of
    /// the fleet driver, byte-identical to a build without fault injection.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Configure failure recovery (builder style): per-request retry budgets
    /// with simulated-time backoff, failover re-placement of work stranded
    /// by a device loss onto surviving devices (in-flight work is carried
    /// over as a [`Suspension`] and resumed on a same-spec sibling when one
    /// exists, paying the re-residency penalty; otherwise it restarts from
    /// scratch), and circuit-breaker quarantine with probe-based
    /// reinstatement. Everything is off by default
    /// ([`RecoveryControl::disabled`]), in which case the engine's behaviour
    /// is bit-identical to one without recovery.
    ///
    /// All recovery decisions are planned sequentially between the rounds
    /// of the fleet driver (`crates/serve/src/fleet.rs`), so reports stay
    /// byte-identical at any pool width — including which requests retried,
    /// where failovers landed and when devices were quarantined or probed.
    /// A run in which no fault fires is still a single round.
    pub fn with_recovery_control(mut self, recovery: RecoveryControl) -> Self {
        self.recovery = recovery;
        self
    }

    /// Configure event tracing (builder style). Off by default; when
    /// enabled, each device fills a ring-buffered [`TraceRecorder`] inside
    /// its `run_device` job and the ordered merge seals them into
    /// [`ServeReport::trace`]. Recording never perturbs the simulation: a
    /// traced report minus its `trace` field is byte-identical to an
    /// untraced run.
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Replace the scheduling policy (builder style).
    pub fn with_policy(mut self, policy: Box<dyn SchedulePolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Share an existing plan cache (e.g. the benchmark harness's) instead of
    /// a private one.
    pub fn with_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Cap `tenant`'s estimated resident bytes per device. Requests that
    /// would exceed the cap wait for the tenant's in-flight work to finish;
    /// a request whose own working set exceeds the cap fails outright.
    pub fn with_tenant_cap(mut self, tenant: impl Into<String>, bytes: u64) -> Self {
        self.tenant_caps.insert(tenant.into(), bytes);
        self
    }

    /// Configure overload survival (builder style): bounded per-device
    /// queues, deadline admission control and the steal phase that re-places
    /// queued requests from backed-up shards onto idle ones. Everything is
    /// off by default ([`OverloadControl::disabled`]), in which case the
    /// engine's behaviour is bit-identical to one without overload control.
    pub fn with_overload_control(mut self, overload: OverloadControl) -> Self {
        self.overload = overload;
        self
    }

    /// Cap `tenant`'s estimated resident bytes across the **whole fleet**.
    /// The tenant is confined to `shards` devices (a stable hash of the
    /// tenant name picks which; clamped to the fleet size) and each shard
    /// enforces a `bytes / shards` sub-cap with the same real-state
    /// accounting as [`with_tenant_cap`](Self::with_tenant_cap) — so the
    /// tenant's summed resident reservations never exceed `bytes` at any
    /// instant, by construction, without any cross-device shared state
    /// (which is what keeps parallel device stepping deterministic). The
    /// steal planner respects the confinement: a fleet-capped tenant's
    /// requests are only ever re-placed within its shard set.
    pub fn with_fleet_tenant_cap(
        mut self,
        tenant: impl Into<String>,
        bytes: u64,
        shards: usize,
    ) -> Self {
        self.fleet_tenant_caps.insert(
            tenant.into(),
            FleetTenantCap {
                bytes,
                shards: shards.max(1),
            },
        );
        self
    }

    /// Give every request of `tenant` a default SLO deadline: a relative
    /// latency budget in milliseconds, used when the request does not carry
    /// its own [`deadline_ms`](ServeRequest::deadline_ms). Deadline-carrying
    /// requests feed the report's [`SloSummary`](crate::SloSummary).
    pub fn with_tenant_slo(mut self, tenant: impl Into<String>, deadline_ms: f64) -> Self {
        self.tenant_slos.insert(tenant.into(), deadline_ms.max(0.0));
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

    /// The deadline a request must meet, if any: its own, else its tenant's
    /// default.
    fn effective_deadline(&self, request: &ServeRequest) -> Option<f64> {
        request
            .deadline_ms
            .or_else(|| self.tenant_slos.get(&request.tenant).copied())
    }

    /// The device indices a fleet-capped tenant may run on: `shards`
    /// consecutive fleet slots starting at a stable hash of the tenant name.
    /// `None` for tenants without a fleet cap (any device).
    fn shard_set(&self, tenant: &str) -> Option<Vec<usize>> {
        let fleet_len = self.fleet.len();
        self.fleet_tenant_caps.get(tenant).map(|cap| {
            let k = cap.shards.clamp(1, fleet_len);
            let start = (Fnv1a::new().write_str(tenant).finish() % fleet_len as u64) as usize;
            (0..k).map(|i| (start + i) % fleet_len).collect()
        })
    }

    /// The devices `tenant` may run on: its shard set, or the whole fleet.
    fn allowed_devices(&self, tenant: &str) -> Vec<usize> {
        self.shard_set(tenant)
            .unwrap_or_else(|| (0..self.fleet.len()).collect())
    }

    /// The per-device resident-byte cap admission charges `tenant` against:
    /// the tighter of the per-device cap and the fleet cap's per-shard
    /// slice.
    fn effective_tenant_cap(&self, tenant: &str) -> Option<u64> {
        let per_device = self.tenant_caps.get(tenant).copied();
        let fleet_len = self.fleet.len().max(1);
        let per_shard = self.fleet_tenant_caps.get(tenant).map(|cap| {
            let k = cap.shards.clamp(1, fleet_len) as u64;
            cap.bytes / k
        });
        match (per_device, per_shard) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Serve `requests` (any order; arrival times need not be sorted) and
    /// report per-request outcomes, per-device utilization, latency
    /// percentiles (overall and per priority), SLO attainment and preemption
    /// counts.
    ///
    /// Independent device timelines advance **concurrently** on the
    /// process-wide [`pool::global`] thread pool (see the
    /// [module docs](self) for the placement → parallel stepping → ordered
    /// merge structure); the report is byte-identical to a serial run.
    ///
    /// Per-request failures (out-of-memory, tenant caps) are recorded in the
    /// outcomes, not propagated.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty fleet, for malformed command streams
    /// (an internal invariant violation, not a modelled outcome), and for a
    /// panic inside a device worker ([`SimError::WorkerPanic`]).
    pub fn run(&self, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        self.run_on(pool::global(), requests)
    }

    /// [`run`](Self::run) on an explicit pool. `ThreadPool::with_threads(1)`
    /// steps the fleet inline on the caller thread in fleet order — the
    /// exact serial loop, kept as the byte-identity oracle and the
    /// `--threads 1` bisection path.
    pub fn run_on(&self, pool: &ThreadPool, requests: &[ServeRequest]) -> SimResult<ServeReport> {
        let fleet_len = self.fleet.len();
        if fleet_len == 0 {
            return Err(SimError::InvalidParameter {
                message: "cannot serve on an empty fleet: ServeEngine needs at least one device"
                    .to_string(),
            });
        }

        let fleet = Fleet::new(
            &self.fleet,
            &self.config,
            &self.cache,
            self.trace,
            self.recovery,
        );

        // ---- placement: the sequential prologue ----
        let mut placement: Vec<usize> = Vec::with_capacity(requests.len());
        for (seq, request) in requests.iter().enumerate() {
            let placed = self
                .policy
                .place(request, seq, fleet_len)
                .min(fleet_len - 1);
            // A fleet-capped tenant is confined to its shard set, so the
            // per-shard sub-caps bound its fleet-wide footprint by
            // construction (see `with_fleet_tenant_cap`).
            let device = match self.shard_set(&request.tenant) {
                Some(allowed) => allowed[placed % allowed.len()],
                None => placed,
            };
            placement.push(device);
        }
        // Warmth is snapshotted *before* the overload prologue compiles
        // anything, so `cache_hit` keeps meaning "warm when the run began"
        // even when admission control / steal planning populate the cache.
        let warm = fleet.warmth(requests);

        let mut work: Vec<ServeWork<'_>> = (0..fleet_len).map(|_| ServeWork::default()).collect();
        let (rejected, stolen_from) = if self.overload.uses_estimates() {
            self.plan_overload(&fleet, requests, &mut placement, &mut work)
        } else {
            (HashSet::new(), HashMap::new())
        };
        for (seq, request) in requests.iter().enumerate() {
            if !rejected.contains(&seq) {
                work[placement[seq]]
                    .assigned
                    .push(Attempt::first(seq, request));
            }
        }
        let device_loop = ServeLoop {
            engine: self,
            requests,
            stolen_from,
        };
        fleet.run(
            pool,
            &device_loop,
            work,
            warm,
            self.policy.name().to_string(),
        )
    }

    /// The overload pipeline: admission control, then steal planning. Both
    /// stages run on the caller thread in submission order — the same
    /// commit-point discipline as placement, which is what keeps every
    /// shed/steal decision byte-identical at any pool width. Service-time
    /// predictions are memoized per (plan-cache key, device index) and
    /// compile through the shared cache, sequentially, so the cache hit/miss
    /// counters stay schedule-independent too. Same-spec devices share a
    /// plan-cache key, so the device index stays in the memo key: each
    /// device probes the cache once.
    ///
    /// Rejected requests are filed on their placed device's `prerejected`
    /// list; stolen ones are re-placed in `placement`. Returns the rejected
    /// seqs and, for each stolen request, its home device.
    fn plan_overload<'q>(
        &self,
        fleet: &Fleet<'_>,
        requests: &'q [ServeRequest],
        placement: &mut [usize],
        work: &mut [ServeWork<'q>],
    ) -> (HashSet<usize>, HashMap<usize, usize>) {
        let fleet_len = self.fleet.len();
        let mut rejected: HashSet<usize> = HashSet::new();
        let mut stolen_from: HashMap<usize, usize> = HashMap::new();
        let mut memo: HashMap<(u64, usize), f64> = HashMap::new();
        let mut predict = |model: &ModelSpec, d: usize| -> f64 {
            let engine = &fleet.devices[d].engine;
            let key = ArtifactCache::key_for(engine, model, &self.fleet[d]);
            *memo.entry((key, d)).or_insert_with(|| {
                match self.cache.compile(engine, model, &self.fleet[d]) {
                    Ok((artifact, _)) => {
                        predicted_service_ms(&artifact, model, &self.fleet[d], &self.config)
                    }
                    // Compilation failures surface at admission.
                    Err(_) => 0.0,
                }
            })
        };

        if self.overload.admission_control {
            for (seq, request) in requests.iter().enumerate() {
                let Some(budget) = self.effective_deadline(request) else {
                    continue;
                };
                let allowed = self.allowed_devices(&request.tenant);
                let best = allowed
                    .iter()
                    .map(|&d| predict(&request.model, d))
                    .fold(f64::INFINITY, f64::min);
                // Provably unmeetable: the *uncontended* service time on
                // the best device this request may run on already
                // exceeds its latency budget, so its laxity is negative
                // on every shard before any queueing.
                if best.is_finite() && best > budget + 1e-9 {
                    rejected.insert(seq);
                    work[placement[seq]]
                        .prerejected
                        .push((seq, request, budget - best));
                }
            }
        }

        if self.overload.steal {
            // Discrete-event plan over the accepted requests in arrival
            // order: each device is `max_in_flight` slots that free up
            // after the predicted service time. A request that would
            // queue at its home shard is re-placed onto the device that
            // starts it strictly earliest (ties to the lowest fleet
            // index); in-flight work is never moved — by the time a
            // later arrival is planned, everything planned before it is
            // already committed.
            let slots = self.policy.max_in_flight().max(1);
            let mut free: Vec<Vec<f64>> = vec![vec![0.0_f64; slots]; fleet_len];
            let start_at = |free: &[Vec<f64>], d: usize, arrival: f64| -> f64 {
                arrival.max(free[d].iter().copied().fold(f64::INFINITY, f64::min))
            };
            let mut order: Vec<usize> = (0..requests.len())
                .filter(|seq| !rejected.contains(seq))
                .collect();
            sort_by_arrival(&mut order, |&seq| (requests[seq].arrival_ms, seq));
            for seq in order {
                let request = &requests[seq];
                let home = placement[seq];
                let mut dest = home;
                if start_at(&free, home, request.arrival_ms) > request.arrival_ms + 1e-9 {
                    // The request would queue at home — it is stealable.
                    let allowed = self.allowed_devices(&request.tenant);
                    for d in allowed {
                        if start_at(&free, d, request.arrival_ms) + 1e-9
                            < start_at(&free, dest, request.arrival_ms)
                        {
                            dest = d;
                        }
                    }
                }
                if dest != home {
                    stolen_from.insert(seq, home);
                    placement[seq] = dest;
                }
                let start = start_at(&free, dest, request.arrival_ms);
                let service = predict(&request.model, dest);
                // Into the earliest-free slot (the first of equals).
                let frees = &mut free[dest];
                let slot = (0..frees.len()).fold(0, |s, i| if frees[i] < frees[s] { i } else { s });
                frees[slot] = start + service;
            }
        }
        (rejected, stolen_from)
    }
}

/// How an in-flight request leaves its device.
enum Exit {
    /// Its stream ran to the last command.
    Done,
    /// A modelled error (e.g. out of memory) failed it mid-run.
    Failed(SimError),
    /// An injected transient fault hit the command that would have started
    /// at stream-local `at_ms`.
    Faulted { kind: FaultKind, at_ms: f64 },
    /// The device was lost at global `at_ms`.
    Lost { at_ms: f64 },
}

/// One device's timeline for one round of the fleet driver: everything the
/// device loop carries between scheduling boundaries. The loop is a
/// sequence of phases on it — observe arrivals, preempt, resume/admit, step
/// — and every request leaves through one of two doors: [`retire`] for an
/// in-flight stream, which frees its memory, closes its exclusive-mode
/// trace segment, returns its tenant reservation and extends the makespan;
/// and [`settle`], which traces the outcome and routes it to the final
/// outcomes or, for an injected fault, to the recovery planner.
///
/// [`retire`]: ServeDeviceRun::retire
/// [`settle`]: ServeDeviceRun::settle
struct ServeDeviceRun<'r> {
    engine: &'r ServeEngine,
    dev: &'r Device<'r>,
    /// Plan-cache keys compiled when the round began.
    warm: &'r HashSet<u64>,
    /// Requests the steal planner re-placed: `seq → home device`.
    stolen: &'r HashMap<usize, usize>,
    /// Recovery state of re-dispatched attempts; empty in round 0.
    carries: HashMap<usize, ServeCarry>,
    slots: usize,
    /// One non-preemptive slot: each request runs in run-local time and its
    /// memory-trace segment is stitched onto `stitched` (module docs).
    exclusive: bool,
    bounded: bool,
    draws_faults: bool,
    lost_at_ms: Option<f64>,
    lost: bool,
    trace: TraceRecorder,
    tracker: MemoryTracker,
    clocks: QueueClocks,
    /// Global time of the queue clocks' origin.
    epoch: f64,
    stitched: MemoryTrace,
    /// Requests not yet admitted, sorted by `(arrival_ms, seq)`.
    pending: Vec<Waiting<'r>>,
    /// Bounded-queue bookkeeping: the pending requests the loop has observed
    /// arriving (and not shed): the live queue.
    enqueued: HashSet<usize>,
    in_flight: Vec<InFlight>,
    suspended: Vec<Suspended>,
    /// Admission counter: the step phase's tie-break between equal starts.
    admit_order: usize,
    /// Estimated resident bytes each tenant holds here, in flight or
    /// suspended — the ledger tenant caps are checked against.
    tenant_bytes: HashMap<String, u64>,
    /// Lowered command streams, one per plan-cache key: a lowering is a pure
    /// function of (plan, device, config), and plan, device and config are
    /// fixed within one device run, so every admission of a model steps the
    /// same shared stream.
    lowered: HashMap<u64, Arc<CommandStream>>,
    /// Resident-byte estimates computed by the preemption phase's
    /// feasibility checks, memoized per request seq.
    estimate_memo: HashMap<usize, u64>,
    ledger: DeviceLedger<ServeResume>,
}

impl<'r> ServeDeviceRun<'r> {
    fn new(
        engine: &'r ServeEngine,
        dev: &'r Device<'r>,
        warm: &'r HashSet<u64>,
        stolen: &'r HashMap<usize, usize>,
        assigned: &'r [Attempt<'_, ServeCarry>],
    ) -> Self {
        let slots = engine.policy.max_in_flight().max(1);
        let mut pending: Vec<Waiting<'r>> = assigned
            .iter()
            .map(|a| {
                let request = a.request.as_ref();
                let mut carry = a.carry.unwrap_or(ServeCarry {
                    original_arrival_ms: request.arrival_ms,
                    ..ServeCarry::default()
                });
                carry.stolen_from = carry.stolen_from.or_else(|| stolen.get(&a.seq).copied());
                // Re-dispatched requests arrive at the recovery planner's
                // ready floor, but their deadline clock started at true
                // submission.
                let deadline_ms = engine.effective_deadline(request);
                Waiting {
                    seq: a.seq,
                    request,
                    carry,
                    deadline_ms: deadline_ms.map(|d| carry.original_arrival_ms + d),
                    estimate_ms: 0.0,
                }
            })
            .collect();
        sort_by_arrival(&mut pending, |w| (w.request.arrival_ms, w.seq));
        let mut run = ServeDeviceRun {
            engine,
            dev,
            warm,
            stolen,
            carries: assigned
                .iter()
                .filter_map(|a| a.carry.map(|carry| (a.seq, carry)))
                .collect(),
            slots,
            exclusive: slots == 1 && engine.policy.preemption().is_none(),
            bounded: engine.overload.queue_bound.is_some(),
            draws_faults: !engine.fault_plan.is_empty(),
            lost_at_ms: engine.fault_plan.device_loss_ms(dev.index),
            lost: false,
            trace: TraceRecorder::new(engine.trace),
            tracker: MemoryTracker::for_device(dev.spec),
            clocks: QueueClocks::new(),
            epoch: 0.0,
            stitched: MemoryTrace::new(),
            pending,
            enqueued: HashSet::new(),
            in_flight: Vec::new(),
            suspended: Vec::new(),
            admit_order: 0,
            tenant_bytes: HashMap::new(),
            lowered: HashMap::new(),
            estimate_memo: HashMap::new(),
            ledger: DeviceLedger::default(),
        };
        if engine.policy.uses_estimates() {
            run.predict_service();
        }
        run
    }

    /// Predict each pending request's service time. A prediction costs one
    /// uncontended stream replay per distinct model, so predictions are only
    /// made when the policy asks ([`SchedulePolicy::uses_estimates`]) and
    /// are memoized by plan-cache key. Prediction compiles through the
    /// shared plan cache on purpose: the artifact is needed again at
    /// admission, and solving LC-OPG twice to keep the hit counters pristine
    /// would double the expensive part. Under estimate-using policies the
    /// admission-time compile of each model is therefore always a cache hit
    /// (the precompute paid the miss), and its lowering is already memoized.
    fn predict_service(&mut self) {
        let (engine, dev) = (self.engine, self.dev);
        let mut service_memo: HashMap<u64, f64> = HashMap::new();
        for i in 0..self.pending.len() {
            let model = &self.pending[i].request.model;
            let key = ArtifactCache::key_for(&dev.engine, model, dev.spec);
            self.pending[i].estimate_ms = *service_memo.entry(key).or_insert_with(|| {
                match engine.cache.compile(&dev.engine, model, dev.spec) {
                    Ok((artifact, _)) => {
                        let stream = self.lowered(key, &artifact, model);
                        uncontended_makespan_ms(stream, dev.spec)
                    }
                    // Compilation failures surface at admission.
                    Err(_) => 0.0,
                }
            });
        }
    }

    /// Failed-over suspensions seed the suspended list: the ordinary resume
    /// path re-acquires their residency (charging the reload penalty) once
    /// their backoff floor passes. Their tenant reservation is held while
    /// suspended, exactly like a preemption's.
    fn seed(&mut self, seeds: Vec<Suspended>) {
        for mut seed in seeds {
            let meta = &mut seed.meta;
            *self.tenant_bytes.entry(meta.tenant.clone()).or_insert(0) += meta.estimate_bytes;
            meta.trace_start = self.tracker.trace().len();
            meta.order = self.admit_order;
            self.admit_order += 1;
            self.suspended.push(seed);
        }
    }

    /// Mark each request the steal planner re-placed onto this device.
    fn trace_steals(&mut self) {
        if !self.trace.enabled() {
            return;
        }
        for Waiting { seq, request, .. } in &self.pending {
            if let Some(home) = self.stolen.get(seq) {
                self.trace.instant(
                    TraceKind::Steal,
                    TraceLane::Request(*seq),
                    &format!("steal {} from device #{home}", request.model.abbr),
                    request.arrival_ms,
                );
            }
        }
    }

    /// The lowered command stream of `artifact` (compiled under plan-cache
    /// `key`), lowering it only the first time this device run sees `key`.
    fn lowered(
        &mut self,
        key: u64,
        artifact: &CompiledArtifact,
        model: &ModelSpec,
    ) -> Arc<CommandStream> {
        let (config, device) = (&self.engine.config, self.dev.spec);
        Arc::clone(
            self.lowered
                .entry(key)
                .or_insert_with(|| Arc::new(lower_artifact(artifact, model, device, config))),
        )
    }

    /// Global time at which the earliest in-flight command can start
    /// (infinite when none can).
    fn next_start_ms(&self) -> f64 {
        self.epoch
            + self
                .in_flight
                .iter()
                .filter_map(|f| f.stepper.peek_start_ms(&self.clocks))
                .fold(f64::INFINITY, f64::min)
    }

    /// Run the device loop until nothing is left or the device is lost.
    fn run(&mut self) -> SimResult<()> {
        loop {
            if self.engine.policy.preemption().is_some() {
                if self.bounded && !self.in_flight.is_empty() {
                    // Observe (and shed past the bound) every arrival the
                    // preemption phase is about to see, so a request that is
                    // about to be shed can never trigger a preemption first.
                    let now = self.next_start_ms();
                    if now.is_finite() {
                        self.observe_arrivals(now);
                    }
                }
                self.preempt_outranked()?;
            }
            self.admit()?;
            if self.in_flight.is_empty() {
                if self.pending.is_empty() && self.suspended.is_empty() {
                    return Ok(());
                }
                // Nothing admissible right now (all candidates deferred on
                // tenant caps with no in-flight work — prevented by the
                // `used == 0` fail path and the unrecoverable-resume path,
                // but keep the loop safe).
                continue;
            }
            if !self.step()? {
                return Ok(());
            }
        }
    }

    /// Observe every arrival up to `now` (pending is sorted by arrival, so
    /// this walks a prefix), shedding past the queue bound and tracking the
    /// queue-depth high-water mark. Runs at each scheduling boundary of the
    /// device loop; depth can only shrink at those same boundaries
    /// (admissions), so processing the arrivals of a busy interval in
    /// arrival order here reproduces the depth evolution exactly. A shed
    /// request is rejected *at its own arrival instant* with
    /// [`RejectCause::QueueFull`].
    fn observe_arrivals(&mut self, now: f64) {
        let bound = self.engine.overload.queue_bound;
        let mut i = 0;
        while i < self.pending.len() {
            let Waiting { seq, request, .. } = self.pending[i];
            if request.arrival_ms > now {
                break;
            }
            if self.enqueued.contains(&seq) {
                i += 1;
                continue;
            }
            if bound.is_some_and(|bound| self.enqueued.len() >= bound) {
                self.pending.remove(i);
                let home = self.stolen.get(&seq).copied();
                self.reject(seq, request, RejectCause::QueueFull, None, home);
                continue;
            }
            self.enqueued.insert(seq);
            self.ledger.queue_high_water = self.ledger.queue_high_water.max(self.enqueued.len());
            i += 1;
        }
    }

    /// Take the pending request at `position` off the queue.
    fn dequeue(&mut self, position: usize) {
        let seq = self.pending.remove(position).seq;
        self.enqueued.remove(&seq);
    }

    /// Preemption phase: while every slot is busy and an arrived (or
    /// previously suspended) request [`outranks`](SchedulePolicy::outranks)
    /// the policy's chosen [`victim`](SchedulePolicy::victim) among the
    /// in-flight inferences, suspend that victim at its next command
    /// boundary and evict its residency. Under the priority policies a
    /// candidate outranks by strictly higher priority; under the
    /// deadline-triggered policy it outranks when its laxity would go
    /// negative waiting for the victim while the victim stays slack.
    fn preempt_outranked(&mut self) -> SimResult<()> {
        while self.in_flight.len() >= self.slots {
            let now = self.next_start_ms();
            if !now.is_finite() {
                return Ok(());
            }
            let ctx = PolicyContext::at(now);
            let flights: Vec<InFlightEntry> = self
                .in_flight
                .iter()
                .map(|f| InFlightEntry {
                    seq: f.meta.seq,
                    priority: f.meta.priority,
                    order: f.meta.order,
                    deadline_ms: f.meta.absolute_deadline_ms(),
                    estimated_remaining_ms: f.meta.estimated_remaining_ms(f.stepper.remaining()),
                })
                .collect();
            let victim = self
                .engine
                .policy
                .victim(&flights, &ctx)
                .min(flights.len() - 1);
            if !self.outranked(victim, &flights[victim], now, &ctx) {
                return Ok(());
            }
            self.suspend(victim, now)?;
        }
        Ok(())
    }

    /// Whether some candidate outranks in-flight `victim` (described by
    /// `entry`) and could actually use its slot. Candidates that could not —
    /// a suspended request whose residency would still not fit, or a pending
    /// request its tenant cap would defer — never trigger a preemption, so
    /// the loop cannot thrash.
    fn outranked(
        &mut self,
        victim: usize,
        entry: &InFlightEntry,
        now: f64,
        ctx: &PolicyContext,
    ) -> bool {
        let engine = self.engine;
        let policy = &engine.policy;
        let (victim_unified, victim_texture) =
            self.in_flight[victim].stepper.resident_split(&self.tracker);
        let gate = self.bounded.then_some(&self.enqueued);
        let mut candidates = arrived_candidates(&self.pending, &self.suspended, now, gate);
        while !candidates.is_empty() {
            let choice = policy.pick(&candidates, ctx).min(candidates.len() - 1);
            let cand = candidates[choice];
            // Keep scanning in the policy's preference order: pick order
            // need not be monotone with outranking (under the
            // deadline-triggered policy the least-laxity candidate can be too
            // *long* to rescue while a shorter, slightly slacker one
            // qualifies).
            let usable = policy.outranks(&cand, entry, ctx)
                && match self.suspended.iter().position(|s| s.meta.seq == cand.seq) {
                    // Only for a suspended request whose residency fits once
                    // the victim is evicted.
                    Some(pos) => {
                        let (need_unified, need_texture) =
                            self.suspended[pos].suspension.evicted_split();
                        let tracker = &self.tracker;
                        let headroom = tracker.budget().saturating_sub(tracker.total_in_use());
                        need_unified <= tracker.unified().available() + victim_unified
                            && need_texture <= tracker.texture().available() + victim_texture
                            && need_unified + need_texture
                                <= headroom + victim_unified + victim_texture
                    }
                    None => self.tenant_cap_admits(cand.seq),
                };
            if usable {
                return true;
            }
            candidates.remove(choice);
        }
        false
    }

    /// Whether pending `seq`'s tenant cap would let it in now. Estimates are
    /// memoized per request: the preemption phase runs at every command
    /// boundary, and repeated cache probes would inflate the plan-cache hit
    /// counters.
    fn tenant_cap_admits(&mut self, seq: usize) -> bool {
        let waiting = self.pending.iter().find(|w| w.seq == seq);
        let request = waiting.expect("candidate is pending").request;
        let Some(cap) = self.engine.effective_tenant_cap(&request.tenant) else {
            return true;
        };
        let estimate = match self.estimate_memo.get(&seq) {
            Some(&estimate) => estimate,
            None => match self
                .engine
                .cache
                .compile(&self.dev.engine, &request.model, self.dev.spec)
            {
                Ok((artifact, _)) => {
                    let estimate = estimate_resident_bytes(&artifact, &request.model);
                    self.estimate_memo.insert(seq, estimate);
                    estimate
                }
                // Compilation failures surface at admission.
                Err(_) => return false,
            },
        };
        let used = self.tenant_bytes.get(&request.tenant).copied().unwrap_or(0);
        used.saturating_add(estimate) <= cap
    }

    /// Suspend in-flight `index` at its current command boundary: commands
    /// it already issued drain, no new ones are issued, and its resident
    /// memory is evicted for the higher-priority work.
    fn suspend(&mut self, index: usize, now: f64) -> SimResult<()> {
        let InFlight { mut meta, stepper } = self.in_flight.remove(index);
        let local_now = (now - self.epoch).max(stepper.makespan_ms());
        meta.preemptions += 1;
        if self.trace.enabled() {
            self.trace.span(
                TraceKind::Running,
                TraceLane::Request(meta.seq),
                &format!("run {}", meta.abbr),
                meta.run_start_ms,
                self.epoch + local_now,
            );
        }
        let suspension = stepper.suspend_evicting_traced(
            &self.clocks,
            &mut self.tracker,
            local_now,
            self.epoch,
            &mut self.trace,
            TraceLane::Request(meta.seq),
            &meta.abbr,
        )?;
        self.suspended.push(Suspended {
            meta,
            suspended_at_ms: self.epoch + local_now,
            suspension,
            ready_ms: f64::NEG_INFINITY,
        });
        Ok(())
    }

    /// Close a suspension's `Suspended` span at global `at` and charge the
    /// wait to its request.
    fn end_suspension(&mut self, suspended: Suspended, at: f64) -> (FlightMeta, Suspension) {
        let Suspended {
            mut meta,
            suspended_at_ms,
            suspension,
            ..
        } = suspended;
        if self.trace.enabled() {
            self.trace.span(
                TraceKind::Suspended,
                TraceLane::Request(meta.seq),
                &format!("suspended {}", meta.abbr),
                suspended_at_ms,
                at,
            );
        }
        meta.suspended_ms += (at - suspended_at_ms).max(0.0);
        (meta, suspension)
    }

    /// The admission phase's "now". An idle device re-bases its timeline
    /// onto a fresh epoch at the later of "now" and the earliest pending
    /// arrival (never while work is suspended — suspension snapshots
    /// reference the current epoch's local times); suspended work resumes as
    /// soon as the queues drain.
    fn admission_now(&mut self) -> f64 {
        if !self.in_flight.is_empty() {
            return self.next_start_ms();
        }
        let earliest_arrival = self
            .pending
            .first()
            .map_or(f64::INFINITY, |w| w.request.arrival_ms);
        if self.suspended.is_empty() {
            self.epoch = (self.epoch + self.clocks.horizon_ms()).max(earliest_arrival);
            self.clocks.reset();
            return self.epoch;
        }
        // A failed-over suspension carries a backoff floor; with nothing
        // running, jump to the earliest floor so the loop cannot spin on a
        // queue whose every candidate is still backing off. Ordinary
        // suspensions have a `NEG_INFINITY` floor and never move `now`.
        let now = self.epoch + self.clocks.horizon_ms();
        let earliest = self
            .suspended
            .iter()
            .map(|s| s.ready_ms)
            .fold(earliest_arrival, f64::min);
        if earliest.is_finite() {
            now.max(earliest)
        } else {
            now
        }
    }

    /// Admission phase: while a slot is free, resume or admit the policy's
    /// pick among everything that has arrived. A pick that cannot start yet
    /// (its residency or tenant cap must wait for in-flight work) is
    /// deferred and the next pick tried.
    fn admit(&mut self) -> SimResult<()> {
        'admit: while self.in_flight.len() < self.slots
            && !(self.pending.is_empty() && self.suspended.is_empty())
        {
            let now = self.admission_now();
            self.observe_arrivals(now);
            let mut candidates = arrived_candidates(&self.pending, &self.suspended, now, None);
            let ctx = PolicyContext::at(now);
            while !candidates.is_empty() {
                let choice = self
                    .engine
                    .policy
                    .pick(&candidates, &ctx)
                    .min(candidates.len() - 1);
                let seq = candidates[choice].seq;
                let decided = match self.suspended.iter().position(|s| s.meta.seq == seq) {
                    Some(pos) => self.resume(pos, now)?,
                    None => self.admit_pending(seq, now)?,
                };
                if decided {
                    continue 'admit;
                }
                candidates.remove(choice);
            }
            break;
        }
        Ok(())
    }

    /// Resume suspended `pos` at `now`: re-acquire its residency and pay the
    /// policy's reload penalty before its next command. Returns `false` to
    /// defer while in-flight work may still free the memory; with nothing
    /// running, the residency is unrecoverable and the request fails.
    fn resume(&mut self, pos: usize, now: f64) -> SimResult<bool> {
        if !self.suspended[pos].suspension.can_resume(&self.tracker) {
            if !self.in_flight.is_empty() {
                return Ok(false);
            }
            let suspended = self.suspended.remove(pos);
            let requested = suspended.suspension.evicted_bytes();
            self.ledger.makespan_ms = self.ledger.makespan_ms.max(now);
            let meta = &suspended.meta;
            decrement(&mut self.tenant_bytes, &meta.tenant, meta.estimate_bytes);
            let (meta, _) = self.end_suspension(suspended, now);
            let capacity = self.tracker.budget();
            let error = SimError::OutOfMemory {
                pool: "resume residency".to_string(),
                requested,
                available: capacity.saturating_sub(self.tracker.total_in_use()),
                capacity,
            };
            let outcome = meta.into_outcome(self.dev, now, 0.0, Some(error), None);
            self.settle(outcome, None, None);
            return Ok(true);
        }
        let suspended = self.suspended.remove(pos);
        let cost = self
            .engine
            .policy
            .preemption()
            .unwrap_or_else(PreemptionCost::free);
        let resume_local = (now - self.epoch).max(0.0);
        let (mut meta, suspension) = self.end_suspension(suspended, now);
        let (stepper, penalty) = suspension.resume_into_traced(
            &self.dev.sim,
            &mut self.tracker,
            resume_local,
            self.epoch,
            &cost,
            &mut self.trace,
            TraceLane::Request(meta.seq),
            &meta.abbr,
        )?;
        meta.penalty_ms += penalty;
        meta.run_start_ms = self.epoch + resume_local + penalty;
        self.in_flight.push(InFlight { meta, stepper });
        Ok(true)
    }

    /// Admit pending `seq` at `now`: compile (through the shared cache),
    /// charge its tenant's cap and start stepping its lowered stream.
    /// Returns `false` to defer while the tenant's in-flight work drains; a
    /// compile error or a cap that cannot fit the model at all fails it.
    fn admit_pending(&mut self, seq: usize, now: f64) -> SimResult<bool> {
        let (engine, dev) = (self.engine, self.dev);
        let position = self
            .pending
            .iter()
            .position(|w| w.seq == seq)
            .expect("candidate is pending");
        let waiting = self.pending[position];
        let request = waiting.request;
        // Report warmth-at-run-start (the prologue snapshot), not
        // `compile`'s racy mid-run flag: at pool width > 1 that flag records
        // which device won the compile race.
        let key = ArtifactCache::key_for(&dev.engine, &request.model, dev.spec);
        let cache_hit = self.warm.contains(&key);
        let compiled = engine.cache.compile_traced(
            &dev.engine,
            &request.model,
            dev.spec,
            now,
            cache_hit,
            TraceLane::Host,
            &mut self.trace,
        );
        let artifact = match compiled {
            Ok((artifact, _)) => artifact,
            Err(error) => {
                self.dequeue(position);
                self.fail_waiting(waiting, now, error);
                return Ok(true);
            }
        };
        let estimate = estimate_resident_bytes(&artifact, &request.model);
        if let Some(cap) = engine.effective_tenant_cap(&request.tenant) {
            let used = self.tenant_bytes.get(&request.tenant).copied().unwrap_or(0);
            if used.saturating_add(estimate) > cap {
                if used > 0 {
                    return Ok(false);
                }
                // The cap cannot fit this model at all.
                self.dequeue(position);
                let error = SimError::OutOfMemory {
                    pool: format!("tenant `{}` cap", request.tenant),
                    requested: estimate,
                    available: cap,
                    capacity: cap,
                };
                self.fail_waiting(waiting, now, error);
                return Ok(true);
            }
        }

        self.dequeue(position);
        let stream = self.lowered(key, &artifact, &request.model);
        let total_commands = stream.len();
        let floor = (request.arrival_ms - self.epoch).max(0.0);
        let stepper = StreamStepper::new(stream)?.with_floor_ms(floor);
        if self.exclusive {
            self.tracker.reset_trace();
        }
        *self.tenant_bytes.entry(request.tenant.clone()).or_insert(0) += estimate;
        let predicted_ms = waiting.estimate_ms;
        let start_ms = now.max(request.arrival_ms);
        let admission_laxity_ms = waiting
            .deadline_ms
            .map(|deadline| deadline - start_ms - predicted_ms);
        self.trace_admission(&waiting, start_ms, admission_laxity_ms);
        let carry = waiting.carry;
        let meta = FlightMeta {
            seq,
            abbr: request.model.abbr.clone(),
            tenant: request.tenant.clone(),
            priority: request.priority,
            // Metrics measure from true submission, not from the recovery
            // planner's re-dispatch floor.
            arrival_ms: carry.original_arrival_ms,
            deadline_ms: engine.effective_deadline(request),
            start_ms,
            cache_hit,
            streamed_fraction: artifact.streamed_fraction(),
            estimate_bytes: estimate,
            predicted_ms,
            total_commands,
            admission_laxity_ms,
            stolen_from: carry.stolen_from,
            retries: carry.retries,
            failed_over: carry.failed_over,
            attempt: carry.retries + carry.hops,
            trace_start: self.tracker.trace().len(),
            order: self.admit_order,
            run_start_ms: start_ms,
            ..FlightMeta::default()
        };
        self.in_flight.push(InFlight { meta, stepper });
        self.admit_order += 1;
        Ok(true)
    }

    /// Close an admitted request's queue-wait span and mark its admission,
    /// with its laxity when it carries a deadline.
    fn trace_admission(&mut self, waiting: &Waiting<'_>, start_ms: f64, laxity_ms: Option<f64>) {
        if !self.trace.enabled() {
            return;
        }
        let (lane, arrival_ms) = (TraceLane::Request(waiting.seq), waiting.request.arrival_ms);
        let abbr = &waiting.request.model.abbr;
        let label = format!("queue {abbr}");
        self.trace
            .span(TraceKind::QueueWait, lane, &label, arrival_ms, start_ms);
        let label = match laxity_ms {
            Some(laxity) => format!("admit {abbr} laxity {laxity:.3} ms"),
            None => format!("admit {abbr}"),
        };
        self.trace.instant(TraceKind::Admit, lane, &label, start_ms);
    }

    /// Step phase: issue the next command of the in-flight stream that can
    /// start earliest (ties to the earliest admitted), unless the fault
    /// plan's device loss or a per-command fault fires first. Returns
    /// `false` once the device is lost.
    fn step(&mut self) -> SimResult<bool> {
        let (chosen, chosen_start, _) = self
            .in_flight
            .iter()
            .enumerate()
            .map(|(i, flight)| {
                let start = flight.stepper.peek_start_ms(&self.clocks);
                (i, start.unwrap_or(f64::INFINITY), flight.meta.order)
            })
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("start times are not NaN")
                    .then(a.2.cmp(&b.2))
            })
            .expect("the step phase runs with work in flight");

        if chosen_start.is_finite() {
            if let Some(loss_ms) = self
                .lost_at_ms
                .filter(|&t| self.epoch + chosen_start + 1e-9 >= t)
            {
                self.lose_device(loss_ms)?;
                return Ok(false);
            }
            if let Some(kind) = self.injected_fault(chosen) {
                // A transient injected fault: fail this attempt exactly like
                // a modelled mid-run error, but channel it to the recovery
                // planner instead of the final outcome list.
                let flight = self.in_flight.remove(chosen);
                let at_ms = chosen_start;
                self.retire(flight, Exit::Faulted { kind, at_ms })?;
                return Ok(true);
            }
        }

        let base = if self.exclusive { 0.0 } else { self.epoch };
        let flight = &mut self.in_flight[chosen];
        let stepped = flight.stepper.step_traced(
            &self.dev.sim,
            &mut self.clocks,
            &mut self.tracker,
            base,
            self.epoch,
            &mut self.trace,
        );
        match stepped {
            Ok(Some(event)) => {
                let meta = &mut flight.meta;
                let queue = match event.queue {
                    QueueKind::Transfer => Some((
                        &mut self.ledger.transfer_busy_ms,
                        &mut meta.transfer_intervals,
                    )),
                    QueueKind::Compute => Some((
                        &mut self.ledger.compute_busy_ms,
                        &mut meta.compute_intervals,
                    )),
                    QueueKind::Host => None,
                };
                if let Some((busy, intervals)) = queue {
                    *busy += event.duration_ms();
                    if event.end_ms > event.start_ms {
                        intervals.push((event.start_ms, event.end_ms));
                    }
                }
            }
            Ok(None) => {}
            Err(error) => {
                // The request failed mid-run (modelled OOM): release what it
                // held and keep serving everyone else.
                let flight = self.in_flight.remove(chosen);
                self.retire(flight, Exit::Failed(error))?;
                return Ok(true);
            }
        }
        if self.in_flight[chosen].stepper.is_done() {
            let flight = self.in_flight.remove(chosen);
            self.retire(flight, Exit::Done)?;
        }
        Ok(true)
    }

    /// The fault plan's draw for the next command of in-flight `index`.
    fn injected_fault(&self, index: usize) -> Option<FaultKind> {
        if !self.draws_faults {
            return None;
        }
        let InFlight { meta, stepper } = &self.in_flight[index];
        let executed = meta.total_commands.saturating_sub(stepper.remaining());
        let plan = &self.engine.fault_plan;
        plan.command_fault(self.dev.index, meta.seq, executed, meta.attempt)
    }

    /// The device dies at `loss_ms`, before its next command starts:
    /// everything on it — running, suspended, queued — is stranded and
    /// handed to the recovery planner as orphans, and the timeline stops.
    fn lose_device(&mut self, loss_ms: f64) -> SimResult<()> {
        self.lost = true;
        self.ledger.makespan_ms = self.ledger.makespan_ms.max(loss_ms);
        if self.trace.enabled() {
            self.trace.instant(
                TraceKind::Fault,
                TraceLane::Host,
                &format!("fault device-loss {}", self.dev.spec.name),
                loss_ms,
            );
        }
        for flight in std::mem::take(&mut self.in_flight) {
            self.retire(flight, Exit::Lost { at_ms: loss_ms })?;
        }
        let loss = SimError::Fault {
            kind: FaultKind::DeviceLoss,
            at_ms: loss_ms,
        };
        let failover = self.engine.recovery.failover;
        for suspended in std::mem::take(&mut self.suspended) {
            let at = loss_ms.max(suspended.suspended_at_ms);
            let (meta, suspension) = self.end_suspension(suspended, at);
            let resume = failover.then(|| (meta.clone(), suspension));
            let outcome = meta.into_outcome(self.dev, at, 0.0, Some(loss.clone()), None);
            self.settle(outcome, None, resume);
        }
        for waiting in std::mem::take(&mut self.pending) {
            let at = loss_ms.max(waiting.request.arrival_ms);
            self.fail_waiting(waiting, at, loss.clone());
        }
        if self.exclusive {
            self.stitched
                .append_shifted(self.tracker.trace(), self.epoch);
        }
        Ok(())
    }

    /// Take `flight` off the device — the one exit of every in-flight
    /// request. It frees the stream's memory, or freezes it for a same-spec
    /// sibling when the device is lost with failover armed; in exclusive
    /// mode it stitches the request's trace segment and starts the next
    /// epoch; it returns the tenant reservation, extends the makespan and
    /// settles the outcome. A lost device keeps its ledger and makespan:
    /// its timeline ends at the loss instant.
    fn retire(&mut self, flight: InFlight, exit: Exit) -> SimResult<()> {
        let InFlight { meta, mut stepper } = flight;
        let run_start = Some(meta.run_start_ms);
        let ran_ms = stepper.makespan_ms();
        // Exclusive mode frees memory on the stream's run-local clock.
        let base = if self.exclusive { 0.0 } else { self.epoch };
        let (local, error) = match exit {
            Exit::Done => (ran_ms, None),
            Exit::Failed(error) => (ran_ms, Some(error)),
            Exit::Faulted { kind, at_ms } => {
                let local = at_ms.max(ran_ms);
                let at_ms = self.epoch + local;
                (local, Some(SimError::Fault { kind, at_ms }))
            }
            Exit::Lost { at_ms } => {
                let local = (at_ms - self.epoch).max(0.0).max(ran_ms);
                let error = SimError::Fault {
                    kind: FaultKind::DeviceLoss,
                    at_ms,
                };
                let outcome =
                    meta.clone()
                        .into_outcome(self.dev, self.epoch + local, 0.0, Some(error), None);
                // Close the lane before freezing the stream: the freeze is
                // traced too.
                trace_outcome(&mut self.trace, &outcome, run_start);
                let resume = if self.engine.recovery.failover {
                    let suspension = stepper.suspend_evicting_traced(
                        &self.clocks,
                        &mut self.tracker,
                        local,
                        self.epoch,
                        &mut self.trace,
                        TraceLane::Request(meta.seq),
                        &meta.abbr,
                    )?;
                    Some((meta, suspension))
                } else {
                    stepper.release_remaining(&mut self.tracker, base + local)?;
                    None
                };
                self.route(outcome, resume);
                return Ok(());
            }
        };

        let mut completion = self.epoch + local;
        let mut peak_memory_mb = 0.0;
        let mut report = None;
        if self.exclusive && error.is_none() {
            // The request ran in run-local time against a freshly reset
            // trace: finalize exactly like the one-shot executor, stitch,
            // then evict the whole model.
            let executed = stepper.finish(&self.dev.sim, &mut self.tracker);
            let finished = ExecutionReport::from_outcome(
                "FlashMem",
                &meta.abbr,
                &executed,
                meta.streamed_fraction,
            );
            let total = finished.integrated_latency_ms;
            completion = self.epoch + total;
            peak_memory_mb = finished.peak_memory_mb;
            self.end_exclusive_segment(Some(&finished.memory_trace), total);
            report = Some(finished);
        } else {
            if error.is_none() {
                self.tracker.sample(completion);
            }
            stepper.release_remaining(&mut self.tracker, base + local)?;
            if error.is_none() {
                let peak_bytes = self.tracker.trace().samples()[meta.trace_start..]
                    .iter()
                    .map(|s| s.bytes)
                    .max()
                    .unwrap_or(0);
                peak_memory_mb = peak_bytes as f64 / MIB;
            }
            if self.exclusive {
                self.end_exclusive_segment(None, local);
            }
        }
        decrement(&mut self.tenant_bytes, &meta.tenant, meta.estimate_bytes);
        self.ledger.makespan_ms = self.ledger.makespan_ms.max(completion);
        let outcome = meta.into_outcome(self.dev, completion, peak_memory_mb, error, report);
        self.settle(outcome, run_start, None);
        Ok(())
    }

    /// Exclusive mode: stitch a finished request's memory-trace `segment`
    /// (the tracker's own when `None`) onto the device timeline at the
    /// current epoch, evict the whole model, and start the next epoch
    /// `local_ms` later on fresh queues.
    fn end_exclusive_segment(&mut self, segment: Option<&MemoryTrace>, local_ms: f64) {
        let segment = segment.unwrap_or(self.tracker.trace());
        self.stitched.append_shifted(segment, self.epoch);
        self.epoch += local_ms;
        self.tracker.evict_all(self.epoch);
        self.stitched.record(self.epoch, 0);
        self.clocks.reset();
    }

    /// Fail a request that never executed (compile error, hopeless tenant
    /// cap, device loss while still queued) with a wait-only outcome.
    fn fail_waiting(&mut self, waiting: Waiting<'_>, now: f64, error: SimError) {
        let Waiting {
            seq,
            request,
            carry,
            ..
        } = waiting;
        let outcome = RequestOutcome {
            deadline_ms: self.engine.effective_deadline(request),
            stolen_from: carry.stolen_from,
            retries: carry.retries,
            failed_over: carry.failed_over,
            ..RequestOutcome::unstarted(
                seq,
                request,
                self.dev,
                carry.original_arrival_ms,
                now,
                Some(error),
            )
        };
        self.settle(outcome, None, None);
    }

    /// Record `request` as shed by overload control: zero latency and queue
    /// wait (it never occupied the device), no error — the typed
    /// [`RejectCause`] is the whole story, and the metrics layer excludes
    /// rejected requests from SLO accounting.
    fn reject(
        &mut self,
        seq: usize,
        request: &ServeRequest,
        cause: RejectCause,
        admission_laxity_ms: Option<f64>,
        stolen_from: Option<usize>,
    ) {
        let at_ms = request.arrival_ms;
        self.ledger.outcomes.push(RequestOutcome {
            deadline_ms: self.engine.effective_deadline(request),
            admission_laxity_ms,
            rejected: Some(cause),
            stolen_from,
            ..RequestOutcome::unstarted(seq, request, self.dev, at_ms, at_ms, None)
        });
        if self.trace.enabled() {
            self.trace.instant(
                TraceKind::Reject,
                TraceLane::Request(seq),
                &format!("reject {} ({cause})", request.model.abbr),
                at_ms,
            );
        }
    }

    /// Trace how a request ended and [`route`](Self::route) its outcome.
    /// `run_start_ms` is `Some` when it was executing, to close its
    /// `Running` span.
    fn settle(&mut self, outcome: RequestOutcome, run_start_ms: Option<f64>, resume: ServeResume) {
        trace_outcome(&mut self.trace, &outcome, run_start_ms);
        self.route(outcome, resume);
    }

    /// File an outcome through the ledger, with the recovery counters the
    /// attempt brought into this round.
    fn route(&mut self, outcome: RequestOutcome, resume: ServeResume) {
        let carry = self.carries.get(&outcome.seq);
        let (retries, hops) = carry.map_or((0, 0), |c| (c.retries, c.hops));
        self.ledger.route(outcome, retries, hops, resume);
    }

    /// The round's result for the fleet driver. Every exit path hands back
    /// what it held, so a drained device holds no memory and — unless it was
    /// lost mid-run — no tenant reservation.
    fn finish(self, requests: usize) -> DeviceRound<ServeResume> {
        assert!(
            self.lost || self.tenant_bytes.values().all(|&bytes| bytes == 0),
            "{}: device run ended with tenant reservations held: {:?}",
            self.dev.spec.name,
            self.tenant_bytes
        );
        let memory_trace = if self.exclusive {
            self.stitched
        } else {
            self.tracker.trace().clone()
        };
        let (dev, tracker) = (self.dev, &self.tracker);
        self.ledger
            .close(dev, requests, tracker, memory_trace, self.trace, self.lost)
    }
}

impl ServeLoop<'_> {
    /// Probe dispatch: a quarantined (not lost) device past its probe delay
    /// gets exactly one queued restart re-routed to it.
    fn dispatch_probes(&self, fleet: &mut Fleet<'_>, work: &mut [ServeWork<'_>]) {
        let fleet_len = fleet.len();
        let horizon = fleet.makespan.iter().copied().fold(0.0_f64, f64::max);
        for probe_dev in 0..fleet_len {
            let Health::Quarantined {
                since_ms,
                probing: false,
            } = fleet.health[probe_dev]
            else {
                continue;
            };
            if horizon - since_ms < self.engine.recovery.probe_after_ms {
                continue;
            }
            let candidate = (0..fleet_len)
                .filter(|&d| d != probe_dev)
                .flat_map(|d| work[d].assigned.iter().map(move |a| (a.seq, d)))
                .filter(|&(seq, _)| {
                    self.engine
                        .shard_set(&self.requests[seq].tenant)
                        .is_none_or(|allowed| allowed.contains(&probe_dev))
                })
                .min();
            let Some((seq, d)) = candidate else { continue };
            let pos = work[d]
                .assigned
                .iter()
                .position(|a| a.seq == seq)
                .expect("candidate was just found in this queue");
            let mut probe = work[d].assigned.remove(pos);
            let arrival_ms = probe.request.arrival_ms.max(fleet.makespan[probe_dev]);
            probe.request.to_mut().arrival_ms = arrival_ms;
            fleet.tallies.probes += 1;
            fleet.health[probe_dev] = Health::Quarantined {
                since_ms,
                probing: true,
            };
            if fleet.traces[probe_dev].enabled() {
                fleet.traces[probe_dev].instant(
                    TraceKind::Probe,
                    TraceLane::Request(seq),
                    &format!(
                        "probe {} with {}",
                        fleet.devices[probe_dev].spec.name, probe.request.model.abbr
                    ),
                    arrival_ms,
                );
            }
            work[probe_dev].assigned.push(probe);
        }
    }
}

impl<'a> DeviceLoop for ServeLoop<'a> {
    type Work = ServeWork<'a>;
    type Resume = ServeResume;

    fn is_idle(work: &ServeWork<'a>) -> bool {
        work.assigned.is_empty() && work.seeds.is_empty()
    }

    fn models<'w>(work: &'w ServeWork<'a>) -> impl Iterator<Item = &'w ModelSpec> {
        work.assigned.iter().map(|a| &a.request.model)
    }

    /// Run one device's timeline for one round, usually on a pool worker:
    /// everything it touches is either owned by `work`, local to this call,
    /// or a thread-safe shared structure (the plan cache). The returned
    /// [`TraceRecorder`] is this device's private event buffer, merged
    /// (deterministically, in fleet order) at the round's commit point.
    /// Attempts an injected fault knocks out come back as orphans for the
    /// recovery planner instead of final outcomes.
    fn run_device(
        &self,
        device: &Device<'_>,
        warm: &HashSet<u64>,
        work: ServeWork<'a>,
    ) -> SimResult<DeviceRound<ServeResume>> {
        let requests = work.assigned.len() + work.prerejected.len() + work.seeds.len();
        let stolen = &self.stolen_from;
        let mut run = ServeDeviceRun::new(self.engine, device, warm, stolen, &work.assigned);
        run.seed(work.seeds);
        // Admission-control rejects were decided in the run prologue; their
        // outcomes and trace instants are emitted here so each lands on its
        // placed device's private buffers and flows through the ordered
        // merge like everything else.
        for (seq, request, laxity) in work.prerejected {
            let cause = RejectCause::DeadlineUnmeetable;
            run.reject(seq, request, cause, Some(laxity), None);
        }
        run.trace_steals();
        run.run()?;
        Ok(run.finish(requests))
    }

    /// The sequential recovery planner. It first drives the circuit breaker:
    /// a clean probe reinstates its device, a faulting one re-quarantines
    /// it, and devices crossing the fault threshold are **quarantined** (no
    /// placements). Then, in submission order, it decides each orphan's
    /// fate through [`Fleet::redispatch`]; a failed-over
    /// [`Suspension`] resumes on a same-spec sibling, anything else
    /// restarts from scratch. Last, a quarantined device past the probe
    /// delay gets one queued restart as its **probe**.
    ///
    /// Termination is structural: retries are bounded per request by the
    /// budget, failovers by the fleet size, and probes only move work that
    /// already exists.
    fn plan(
        &self,
        fleet: &mut Fleet<'_>,
        included: &[usize],
        orphans: Vec<Orphan<ServeResume>>,
    ) -> Vec<ServeWork<'a>> {
        let engine = self.engine;
        let fleet_len = fleet.len();
        let quarantine = |fleet: &mut Fleet<'_>, index: usize, why: String| {
            fleet.health[index] = Health::Quarantined {
                since_ms: fleet.makespan[index],
                probing: false,
            };
            fleet.tallies.quarantines += 1;
            if fleet.traces[index].enabled() {
                let at = fleet.makespan[index];
                fleet.traces[index].instant(
                    TraceKind::Quarantine,
                    TraceLane::Host,
                    &format!("quarantine {} {why}", fleet.devices[index].spec.name),
                    at,
                );
            }
        };
        // Probe verdicts first: a clean probe closes the breaker, a faulting
        // one re-opens it.
        for &index in included {
            if let Health::Quarantined { probing: true, .. } = fleet.health[index] {
                let faulted = orphans
                    .iter()
                    .any(|o| o.outcome.device_index == index && o.kind != FaultKind::DeviceLoss);
                if faulted {
                    quarantine(fleet, index, "(probe failed)".to_string());
                } else {
                    fleet.health[index] = Health::Healthy;
                    fleet.faults[index] = 0;
                }
            }
        }
        // Trip the breaker on devices crossing the fault threshold.
        if let Some(threshold) = engine.recovery.quarantine_threshold {
            for &index in included {
                if fleet.health[index] == Health::Healthy && fleet.faults[index] >= threshold {
                    let why = format!("after {} faults", fleet.faults[index]);
                    quarantine(fleet, index, why);
                }
            }
        }

        let mut work: Vec<ServeWork<'a>> = (0..fleet_len).map(|_| ServeWork::default()).collect();
        for orphan in orphans {
            let seq = orphan.outcome.seq;
            let allowed = engine.allowed_devices(&self.requests[seq].tenant);
            // A destination must be inside the tenant's shard set and must
            // not itself be lost before the re-dispatch could start.
            let usable = |d: usize, ready_ms: f64| {
                allowed.contains(&d)
                    && engine
                        .fault_plan
                        .device_loss_ms(d)
                        .is_none_or(|t| ready_ms < t)
            };
            let Some((to, orphan)) = fleet.redispatch(orphan, usable) else {
                continue;
            };
            let from = orphan.outcome.device_index;
            match orphan.resume {
                // In-flight state resumes only on a same-spec sibling — the
                // suspension snapshot is meaningful against the same cost
                // model. Anywhere else restarts from scratch.
                Some((mut meta, suspension))
                    if fleet.devices[to.dest].spec.name == fleet.devices[from].spec.name =>
                {
                    meta.retries = to.retries;
                    meta.failed_over = to.failed_over;
                    // A resumed suspension draws its faults as a first
                    // attempt on its new device.
                    meta.attempt = 0;
                    work[to.dest].seeds.push(Suspended {
                        meta,
                        suspended_at_ms: orphan.outcome.completion_ms,
                        suspension,
                        ready_ms: to.ready_ms,
                    });
                }
                _ => {
                    let mut request = self.requests[seq].clone();
                    request.arrival_ms = to.ready_ms;
                    work[to.dest].assigned.push(Attempt {
                        seq,
                        request: Cow::Owned(request),
                        carry: Some(ServeCarry {
                            original_arrival_ms: orphan.outcome.arrival_ms,
                            retries: to.retries,
                            hops: to.hops,
                            failed_over: to.failed_over,
                            stolen_from: orphan.outcome.stolen_from,
                        }),
                    });
                }
            }
        }

        self.dispatch_probes(fleet, &mut work);
        work
    }
}

fn decrement(tenant_bytes: &mut HashMap<String, u64>, tenant: &str, bytes: u64) {
    if let Some(used) = tenant_bytes.get_mut(tenant) {
        *used = used.saturating_sub(bytes);
    }
}

/// Close a request's lifecycle on its trace lane: the final `Running` span
/// when it was executing (`run_start_ms`), then how it ended — a completion
/// instant (plus a [`TraceKind::SloMiss`] instant tagged with the miss cause
/// when the deadline was missed), an injected-fault instant, or a failure
/// instant.
fn trace_outcome(trace: &mut TraceRecorder, outcome: &RequestOutcome, run_start_ms: Option<f64>) {
    if !trace.enabled() {
        return;
    }
    let lane = TraceLane::Request(outcome.seq);
    let (model, at) = (&outcome.model, outcome.completion_ms);
    if let Some(run_start) = run_start_ms {
        trace.span(
            TraceKind::Running,
            lane,
            &format!("run {model}"),
            run_start,
            at,
        );
    }
    match &outcome.error {
        None => {
            trace.instant(TraceKind::Complete, lane, &format!("complete {model}"), at);
            if let Some(cause) = outcome.miss_cause() {
                let label = format!("slo miss {model} ({cause:?})");
                trace.instant(TraceKind::SloMiss, lane, &label, at);
            }
        }
        Some(SimError::Fault { kind, .. }) => {
            trace.instant(TraceKind::Fault, lane, &format!("fault {kind} {model}"), at);
        }
        Some(_) => trace.instant(TraceKind::Fail, lane, &format!("fail {model}"), at),
    }
}

impl std::fmt::Debug for ServeEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeEngine")
            .field(
                "fleet",
                &self.fleet.iter().map(|d| &d.name).collect::<Vec<_>>(),
            )
            .field("policy", &self.policy.name())
            .field("tenant_caps", &self.tenant_caps)
            .field("fleet_tenant_caps", &self.fleet_tenant_caps)
            .field("tenant_slos", &self.tenant_slos)
            .field("overload", &self.overload)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{PreemptivePriorityPolicy, PriorityPolicy};
    use flashmem_graph::ModelZoo;

    fn requests(n: usize) -> Vec<ServeRequest> {
        (0..n)
            .map(|i| {
                ServeRequest::new(
                    if i % 2 == 0 {
                        ModelZoo::gptneo_small()
                    } else {
                        ModelZoo::vit()
                    },
                    format!("tenant-{}", i % 2),
                )
            })
            .collect()
    }

    #[test]
    fn bounded_scan_matches_the_full_filter() {
        // Reference scan that needs no ordering: filter the whole pending
        // list, then append the ready suspensions.
        fn full_filter(
            pending: &[Waiting<'_>],
            suspended: &[Suspended],
            now: f64,
            gate: Option<&HashSet<usize>>,
        ) -> Vec<PendingEntry> {
            let mut candidates: Vec<PendingEntry> = pending
                .iter()
                .filter(|w| w.request.arrival_ms <= now && gate.is_none_or(|g| g.contains(&w.seq)))
                .map(|w| PendingEntry {
                    seq: w.seq,
                    priority: w.request.priority,
                    arrival_ms: w.request.arrival_ms,
                    deadline_ms: w.deadline_ms,
                    estimated_remaining_ms: w.estimate_ms,
                })
                .collect();
            candidates.extend(suspended.iter().filter(|s| s.ready_ms <= now).map(|s| {
                PendingEntry {
                    seq: s.meta.seq,
                    priority: s.meta.priority,
                    arrival_ms: s.meta.arrival_ms,
                    deadline_ms: s.meta.absolute_deadline_ms(),
                    estimated_remaining_ms: s.meta.estimated_remaining_ms(s.suspension.remaining()),
                }
            }));
            candidates
        }

        // Tied arrivals at 10 and 30 ms, with seq breaking the ties.
        let model = ModelZoo::vit();
        let arrivals = [0.0, 10.0, 10.0, 10.0, 20.0, 30.0, 30.0, 45.0];
        let requests: Vec<ServeRequest> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &arrival)| {
                ServeRequest::new(model.clone(), "t")
                    .with_arrival_ms(arrival)
                    .with_priority((i % 3) as u8)
            })
            .collect();
        let mut pending: Vec<Waiting<'_>> = requests
            .iter()
            .enumerate()
            .map(|(seq, request)| Waiting {
                seq,
                request,
                carry: ServeCarry::default(),
                deadline_ms: Some(100.0 + seq as f64),
                estimate_ms: 5.0 * seq as f64,
            })
            .collect();
        pending.remove(2);
        let gate: HashSet<usize> = [0, 1, 3, 6].into_iter().collect();

        // One suspension always ready, one backing off until 25 ms.
        let mut stream = CommandStream::new();
        stream.push(flashmem_gpu_sim::engine::Command::barrier("b", &[]));
        let suspension = || {
            StreamStepper::new(stream.clone())
                .unwrap()
                .suspend(&QueueClocks::new(), 0.0)
        };
        let suspended_at = |seq: usize, ready_ms: f64| Suspended {
            meta: FlightMeta {
                seq,
                priority: 2,
                arrival_ms: 1.0,
                deadline_ms: Some(50.0),
                predicted_ms: 8.0,
                total_commands: 2,
                ..FlightMeta::default()
            },
            suspended_at_ms: 1.0,
            suspension: suspension(),
            ready_ms,
        };
        let suspended = vec![
            suspended_at(100, f64::NEG_INFINITY),
            suspended_at(101, 25.0),
        ];

        let mut checked = 0;
        for now in [-1.0, 0.0, 5.0, 10.0, 20.0, 25.0, 30.0, 44.9, 45.0, 1e9] {
            for gate in [None, Some(&gate)] {
                let bounded = arrived_candidates(&pending, &suspended, now, gate);
                let full = full_filter(&pending, &suspended, now, gate);
                assert_eq!(bounded, full, "now {now}, gated {}", gate.is_some());
                checked += bounded.len();
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn fifo_run_completes_every_request_in_order() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        );
        let report = engine.run(&requests(4)).unwrap();
        assert_eq!(report.completed(), 4);
        assert_eq!(report.policy, "fifo");
        // Exclusive FIFO on one device: completions are strictly ordered.
        for pair in report.outcomes.windows(2) {
            assert!(pair[1].completion_ms > pair[0].completion_ms);
            assert!(pair[1].start_ms >= pair[0].completion_ms - 1e-9);
        }
        // Repeated models hit the plan cache.
        assert!(report.cache.hits >= 2, "{}", report.cache);
        assert!(report.throughput_rps > 0.0);
        assert!(report.devices[0].compute_busy_fraction > 0.0);
        assert!(report.devices[0].transfer_busy_fraction > 0.0);
        // Non-preemptive: nothing was suspended, SLOs vacuously attained.
        assert_eq!(report.preemptions, 0);
        assert_eq!(report.slo.tracked, 0);
        assert_eq!(report.slo.attainment(), 1.0);
    }

    #[test]
    fn concurrent_slots_interleave_and_beat_exclusive_makespan() {
        let device = DeviceSpec::oneplus_12();
        let reqs = requests(4);
        let exclusive = ServeEngine::new(vec![device.clone()], FlashMemConfig::memory_priority())
            .with_policy(Box::new(PriorityPolicy::new()))
            .run(&reqs)
            .unwrap();
        let concurrent = ServeEngine::new(vec![device], FlashMemConfig::memory_priority())
            .with_policy(Box::new(PriorityPolicy::with_max_in_flight(2)))
            .run(&reqs)
            .unwrap();
        assert_eq!(concurrent.completed(), 4);
        assert!(
            concurrent.makespan_ms() < exclusive.makespan_ms(),
            "interleaving {} vs exclusive {}",
            concurrent.makespan_ms(),
            exclusive.makespan_ms()
        );
        // Sharing the queues cannot beat the sum of pure compute/load time:
        // utilization goes up instead.
        assert!(
            concurrent.devices[0].transfer_busy_fraction
                > exclusive.devices[0].transfer_busy_fraction - 1e-9
        );
    }

    #[test]
    fn arrivals_gate_execution() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        );
        let reqs = vec![ServeRequest::new(ModelZoo::gptneo_small(), "a").with_arrival_ms(10_000.0)];
        let report = engine.run(&reqs).unwrap();
        let outcome = &report.outcomes[0];
        assert!(outcome.start_ms >= 10_000.0);
        assert_eq!(outcome.queue_wait_ms, 0.0);
        assert!(outcome.completion_ms > 10_000.0);
    }

    #[test]
    fn tenant_cap_smaller_than_model_fails_fast() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_tenant_cap("tiny", 1024);
        let reqs = vec![ServeRequest::new(ModelZoo::gptneo_small(), "tiny")];
        let report = engine.run(&reqs).unwrap();
        assert_eq!(report.failed(), 1);
        assert!(matches!(
            report.outcomes[0].error,
            Some(SimError::OutOfMemory { .. })
        ));
    }

    #[test]
    fn empty_fleet_is_rejected_instead_of_underflowing_placement() {
        // Regression: placement used to compute `place(..).min(fleet_len - 1)`
        // which underflows at fleet_len == 0 (hidden by a silent
        // default-device fallback in `new`). An empty fleet is now a proper
        // error — even with zero requests, and before any placement runs.
        let engine = ServeEngine::new(Vec::new(), FlashMemConfig::memory_priority());
        assert!(engine.fleet().is_empty());
        for requests in [Vec::new(), requests(2)] {
            match engine.run(&requests) {
                Err(SimError::InvalidParameter { message }) => {
                    assert!(message.contains("empty fleet"), "{message}");
                }
                other => panic!("expected an empty-fleet error, got {other:?}"),
            }
        }
    }

    #[test]
    fn engine_is_shareable_across_pool_workers() {
        // The fleet fan-out hands `&self` to pool workers: the engine (and
        // everything a policy factory produces) must stay `Send + Sync`.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeEngine>();
        assert_send_sync::<Box<dyn SchedulePolicy>>();
    }

    #[test]
    fn tenant_slo_sets_effective_deadlines() {
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_tenant_slo("tenant-0", 1e9);
        let report = engine.run(&requests(2)).unwrap();
        // tenant-0's request inherits the tenant default; tenant-1's has none.
        let t0 = report.outcomes.iter().find(|o| o.tenant == "tenant-0");
        let t1 = report.outcomes.iter().find(|o| o.tenant == "tenant-1");
        assert_eq!(t0.unwrap().deadline_ms, Some(1e9));
        assert_eq!(t1.unwrap().deadline_ms, None);
        assert_eq!(report.slo.tracked, 1);
        assert_eq!(report.slo.met, 1);
        // A request-level deadline overrides the tenant default.
        let reqs = vec![ServeRequest::new(ModelZoo::vit(), "tenant-0").with_deadline_ms(0.5)];
        let engine = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_tenant_slo("tenant-0", 1e9);
        let report = engine.run(&reqs).unwrap();
        assert_eq!(report.outcomes[0].deadline_ms, Some(0.5));
        assert_eq!(report.slo.missed(), 1);
    }

    #[test]
    fn preemptive_policy_suspends_low_priority_work() {
        // A long low-priority inference arrives first; a high-priority one
        // arrives while it runs. Under the preemptive policy the later
        // arrival must preempt (preemption count > 0) and every request must
        // still complete.
        let reqs = vec![
            ServeRequest::new(ModelZoo::gptneo_small(), "background").with_priority(0),
            ServeRequest::new(ModelZoo::vit(), "camera")
                .with_priority(5)
                .with_arrival_ms(50.0),
        ];
        let report = ServeEngine::new(
            vec![DeviceSpec::oneplus_12()],
            FlashMemConfig::memory_priority(),
        )
        .with_policy(Box::new(PreemptivePriorityPolicy::new()))
        .run(&reqs)
        .unwrap();
        assert_eq!(report.completed(), 2, "{report}");
        assert!(report.preemptions > 0, "{report}");
        let background = &report.outcomes[0];
        assert!(background.preemptions > 0);
        assert!(background.suspended_ms > 0.0);
        // The preempted request pays for re-residency.
        assert!(background.resume_penalty_ms > 0.0);
    }
}
