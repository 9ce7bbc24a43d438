//! The MPI world: ranks as simulation processes, point-to-point messaging
//! with `(source, tag)` matching.

use std::future::Future;
use std::sync::Arc;

use parking_lot::Mutex;

use maia_sim::channel::SimChannel;
use maia_sim::partition::process::{replay_probe, wire, RecordingProbe};
use maia_sim::partition::{
    drive_wheel, finalize_partitioned, local_bus, register_global_process, ExchangeOutcome, Outbox,
    PartitionProbe, PartitionRunStats, ProbeBundle, ProcessCommunicator, RemoteMsg,
    SimCommunicator, Wheel, WorkerEndpoint, WorkerLoss,
};
use maia_sim::{Engine, InjectCtx, Probe, SimCtx, SimDuration, SimError, SimTime};

use crate::partition::{lookahead, node_domains, PartitionPlan};
use crate::placement::{RankPlacement, WorldSpec};
use crate::replay::{Op, OpLog};
use crate::transport::TransportModel;

/// An in-flight simulated message. Timing is always driven by `bytes`;
/// `data` optionally carries a *real* payload so distributed algorithms
/// can compute genuine results while the engine accounts virtual time.
#[derive(Debug, Clone)]
pub struct Msg {
    pub src: usize,
    pub tag: i32,
    pub bytes: u64,
    /// Real payload (f64 words), if the sender used [`Rank::send_data`].
    pub data: Option<Vec<f64>>,
    /// Virtual instant at which the payload is fully on the receiver's
    /// side: the sender's post-transfer time. Every send blocks until
    /// then, so a receiver never holds a message before it is ready; the
    /// partition layer delivers a cross-domain message at this instant.
    pub ready: SimTime,
}

/// Per-rank time accounting, split the way the paper discusses symmetric
/// mode ("communication time and overhead due to load imbalance ...
/// outweigh the speedup").
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RankStats {
    /// Virtual seconds spent in sends. A receiver's blocking time is
    /// idle, not charged.
    pub comm_s: f64,
    /// Virtual seconds spent in injected compute and reduction operators.
    pub compute_s: f64,
}

/// Outcome of a completed world run.
#[derive(Debug, Clone)]
pub struct WorldResult {
    /// Virtual time at which the last event fired.
    pub end_time: SimTime,
    /// Per-rank program completion times, seconds.
    pub rank_finish_s: Vec<f64>,
    /// Per-rank communication/compute split.
    pub rank_stats: Vec<RankStats>,
}

/// Entry point: build and run SPMD rank programs over the simulated
/// fabrics.
pub struct MpiWorld;

impl MpiWorld {
    /// Run `program` on every rank of `spec`'s world. The program is an
    /// `async` SPMD function: it takes the [`Rank`] handle by value,
    /// advances virtual time through its sends, receives, collectives and
    /// [`Rank::compute`] calls, and returns the handle when done. Every
    /// rank runs as an inline state machine on the engine's scheduler
    /// thread — no OS thread per rank.
    pub fn run<F, Fut>(spec: &WorldSpec, program: F) -> Result<WorldResult, SimError>
    where
        F: Fn(Rank) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Rank> + Send + 'static,
    {
        Ok(run_live(spec, &Arc::new(program), false)?.0)
    }

    /// Run `program` on every layout in `specs`, all of one size: live on
    /// `specs[0]`, recording every rank's operations, then each other
    /// layout evaluated from those operations, a per-rank clock
    /// recurrence with no payloads, numerics or engine (see
    /// [`crate::replay`]), so the program's body runs `size` times, not
    /// once per layout. While a probe could observe engines, every layout
    /// runs live instead, its body included. Either way the results, in
    /// `specs` order, are bit-identical to running each layout live. One
    /// layout is exactly [`MpiWorld::run`], with no log.
    ///
    /// Every program can be evaluated: a [`Rank`] offers no clock, no
    /// placement and no call whose outcome depends on the layout's timing
    /// (every receive names its source and tag, every send blocks).
    ///
    /// # Panics
    /// Panics if `specs` is empty or its worlds differ in size.
    pub fn run_layouts<F, Fut>(
        specs: &[WorldSpec],
        program: F,
    ) -> Result<Vec<WorldResult>, SimError>
    where
        F: Fn(Rank) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Rank> + Send + 'static,
    {
        let program = Arc::new(program);
        crate::replay::run_layouts(specs, &|spec, record| run_live(spec, &program, record))
    }

    /// Run `program` on every rank of `spec`'s world, sharded across
    /// `plan.partitions` event wheels per `plan` (see
    /// [`crate::partition`]). Ranks of one *domain* share a wheel and
    /// exchange messages directly; cross-domain messages — at every
    /// partition count, including one — go through the conservative
    /// window-barrier protocol of `maia_sim::partition`, so the simulated
    /// timeline, the `WorldResult`, and the virtual-side telemetry are
    /// bit-identical no matter how many wheels carry the world.
    pub fn run_partitioned<F, Fut>(
        spec: &WorldSpec,
        plan: &PartitionPlan,
        program: F,
    ) -> Result<(WorldResult, PartitionRunStats), SimError>
    where
        F: Fn(Rank) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Rank> + Send + 'static,
    {
        let setup = PartitionSetup::new(spec, plan, program);
        let n = setup.partitions;
        // One experiment probe shared by every wheel; rank names are
        // registered in global order up front so probe-side tables match
        // a single-wheel run (per-wheel spawn notifications are
        // suppressed by the PartitionProbe wrapper).
        let probe = maia_sim::probe::probe_for_current_thread();
        if let Some(p) = &probe {
            setup.register_global_names(&**p);
        }
        let mut wheels: Vec<Wheel<Msg>> = Vec::with_capacity(n);
        let mut wheel_probes = Vec::new();
        for w in 0..n {
            let pp = probe.as_ref().map(|p| {
                Arc::new(PartitionProbe::new(Arc::clone(p), setup.local_ranks(w)))
            });
            if let Some(pp) = &pp {
                wheel_probes.push(Arc::clone(pp));
            }
            wheels.push(setup.build_wheel(w, pp.map(|p| p as Arc<dyn Probe>)));
        }
        let bundle = probe.map(|p| ProbeBundle { inner: p, wheel_probes });
        let (end_time, run_stats) = maia_sim::partition::run_partitioned(
            wheels,
            local_bus::<Msg>(n),
            setup.window,
            bundle,
        )?;
        Ok((setup.ranks.world_result(end_time), run_stats))
    }

    /// Hub side of the multi-process backend: host wheel 0 on the
    /// calling thread, route every window exchange of wheels `1..n`
    /// through `hub`, a session whose workers already hold this run's
    /// job, and merge the workers' reports. `probe` is the caller's
    /// telemetry probe, fetched once (the one whose presence the job
    /// payloads announce). Produces the same `WorldResult`, partition
    /// statistics and virtual-side telemetry as
    /// [`MpiWorld::run_partitioned`] over the same plan, bit for bit —
    /// the window protocol is identical, only the transport differs.
    ///
    /// Worker crashes and heartbeat-deadline hangs come back as
    /// [`ProcessWorldError::Lost`]; deterministic simulation failures
    /// (deadlock, rank panic) as [`ProcessWorldError::Sim`], exactly as
    /// the in-process backend reports them. Retry/backoff policy is the
    /// caller's (the supervisor's) job.
    pub fn run_partitioned_hub<F, Fut>(
        spec: &WorldSpec,
        plan: &PartitionPlan,
        program: F,
        hub: &mut ProcessCommunicator<Msg>,
        probe: Option<Arc<dyn Probe>>,
    ) -> Result<(WorldResult, PartitionRunStats, u64), ProcessWorldError>
    where
        F: Fn(Rank) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Rank> + Send + 'static,
    {
        let setup = PartitionSetup::new(spec, plan, program);
        let n = setup.partitions;
        assert_eq!(hub.partitions(), n, "the hub's session spans the plan's wheels");
        if let Some(p) = &probe {
            setup.register_global_names(&**p);
        }
        // One remapping wrapper per wheel, wheel 0's feeding live off the
        // hub engine, the others replay targets for worker probe streams.
        let pps: Vec<Option<Arc<PartitionProbe>>> = (0..n)
            .map(|w| {
                probe.as_ref().map(|p| {
                    Arc::new(PartitionProbe::new(Arc::clone(p), setup.local_ranks(w)))
                })
            })
            .collect();
        let wheel0 = setup.build_wheel(0, pps[0].clone().map(|p| p as Arc<dyn Probe>));
        let report0 = drive_wheel(wheel0, &mut *hub, setup.window);
        let collected = hub.collect_reports();
        let missed = hub.missed_heartbeats();
        let worker_reports =
            collected.map_err(|loss| ProcessWorldError::Lost { loss, missed })?;
        let mut reports = vec![report0];
        for (i, (report, extra)) in worker_reports.into_iter().enumerate() {
            let wheel = i + 1;
            if setup.apply_worker_extra(&extra, pps[wheel].as_deref()).is_none() {
                return Err(ProcessWorldError::Lost {
                    loss: WorkerLoss {
                        wheel,
                        window: hub.window(),
                        at_ps: report.end.as_ps(),
                        detail: "malformed worker result payload".to_string(),
                    },
                    missed,
                });
            }
            reports.push(report);
        }
        let bundle = probe.map(|p| ProbeBundle {
            inner: p,
            wheel_probes: pps.into_iter().flatten().collect(),
        });
        let (end_time, stats) =
            finalize_partitioned(reports, bundle).map_err(ProcessWorldError::Sim)?;
        Ok((setup.ranks.world_result(end_time), stats, missed))
    }

    /// Worker side of the multi-process backend: build wheel `wheel` of
    /// the world, drive it against the hub through `endpoint`, then ship
    /// the wheel report plus this process's rank results (and, when
    /// `record_probe` is set, the wheel's recorded probe stream) back in
    /// the report frame. Returns the exchange windows it drove.
    /// `kill_at_window` is the chaos-drill hook: the process aborts (as
    /// if SIGKILLed) right before that exchange of this run.
    pub fn run_partitioned_worker<F, Fut>(
        spec: &WorldSpec,
        plan: &PartitionPlan,
        program: F,
        wheel: usize,
        endpoint: &mut WorkerEndpoint<Msg>,
        record_probe: bool,
        kill_at_window: Option<u64>,
    ) -> std::io::Result<u64>
    where
        F: Fn(Rank) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Rank> + Send + 'static,
    {
        let setup = PartitionSetup::new(spec, plan, program);
        assert!(
            wheel >= 1 && wheel < setup.partitions,
            "worker wheel {wheel} out of 1..{}",
            setup.partitions
        );
        let rec = record_probe.then(|| Arc::new(RecordingProbe::new()));
        let wheel_obj = setup.build_wheel(wheel, rec.clone().map(|r| r as Arc<dyn Probe>));
        let report = match kill_at_window {
            Some(at) => {
                let mut chaos = KillAtWindow {
                    inner: &mut *endpoint,
                    at,
                    window: 0,
                };
                drive_wheel(wheel_obj, &mut chaos, setup.window)
            }
            None => drive_wheel(wheel_obj, &mut *endpoint, setup.window),
        };
        let probe_bytes = rec.map(|r| r.take()).unwrap_or_default();
        let extra = setup.encode_worker_extra(wheel, &probe_bytes);
        endpoint.report(&report, &extra)?;
        Ok(report.windows)
    }
}

/// Why a hub-side partitioned run failed.
#[derive(Debug)]
pub enum ProcessWorldError {
    /// The simulation itself failed — deterministic, identical to what
    /// the in-process backend would report.
    Sim(SimError),
    /// A worker process crashed or went silent; the run is incomplete
    /// and a supervisor may retry it. Carries the heartbeat intervals
    /// the hub saw missed before declaring the loss, so a supervisor
    /// can account for them even though the attempt failed.
    Lost { loss: WorkerLoss, missed: u64 },
}

impl std::fmt::Display for ProcessWorldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessWorldError::Sim(e) => write!(f, "{e}"),
            ProcessWorldError::Lost { loss, .. } => write!(f, "{loss}"),
        }
    }
}

/// Chaos adapter for the kill drill: behaves exactly like the wrapped
/// endpoint until exchange number `at`, then dies without ceremony —
/// no abort frame, no report — like a SIGKILL mid-window.
struct KillAtWindow<'a> {
    inner: &'a mut WorkerEndpoint<Msg>,
    at: u64,
    window: u64,
}

impl SimCommunicator<Msg> for KillAtWindow<'_> {
    fn partition(&self) -> usize {
        self.inner.partition()
    }
    fn partitions(&self) -> usize {
        self.inner.partitions()
    }
    fn exchange(
        &mut self,
        outbound: Vec<Vec<RemoteMsg<Msg>>>,
        floor: Option<u64>,
    ) -> ExchangeOutcome<Msg> {
        if self.window >= self.at {
            // Stop heartbeating too: a killed process emits nothing.
            self.inner.stop_heartbeats();
            std::process::abort();
        }
        self.window += 1;
        self.inner.exchange(outbound, floor)
    }
    fn abort(&mut self) {
        self.inner.abort()
    }
}

/// A live world's result, and its ranks' op logs if it recorded them.
pub(crate) type LiveRun = Result<(WorldResult, Vec<OpLog>), SimError>;

/// The one unpartitioned DES run, behind [`MpiWorld::run`] and every
/// live layout of [`MpiWorld::run_layouts`]: all ranks of `spec` on one
/// engine. The DES runs only live programs; an op log is only evaluated.
/// With `record` set, also returns each rank's op log. Only the spawn
/// loop depends on the program's type, and both callers share the
/// program as one `Arc`, so each program instantiates this once.
pub(crate) fn run_live<F, Fut>(
    spec: &WorldSpec,
    program: &Arc<F>,
    record: bool,
) -> LiveRun
where
    F: Fn(Rank) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = Rank> + Send + 'static,
{
    let ranks = RankPlumbing::new(spec, record);
    let mut engine = Engine::new();
    for rank_id in 0..ranks.size {
        ranks.spawn(&mut engine, rank_id, None, program);
    }
    ranks.outcome(engine.run())
}

/// The per-rank plumbing every world shares: the transport and
/// placements its ranks price messages with, their mailboxes, and the
/// tables their results (and, when recording, their op logs) land in.
/// All of it is a pure function of the spec. Not generic over the
/// program, so every program shares one copy of the code that builds a
/// rank and files its results.
struct RankPlumbing {
    size: usize,
    transport: Arc<TransportModel>,
    placements: Arc<Vec<RankPlacement>>,
    mailboxes: Arc<Vec<SimChannel<Msg>>>,
    finishes: Mutex<Vec<f64>>,
    stats: Mutex<Vec<RankStats>>,
    logs: Option<Mutex<Vec<OpLog>>>,
}

impl RankPlumbing {
    fn new(spec: &WorldSpec, record: bool) -> Arc<Self> {
        spec.validate();
        let size = spec.size();
        Arc::new(RankPlumbing {
            size,
            transport: Arc::new(TransportModel::for_world(spec)),
            placements: Arc::new(spec.placements.clone()),
            mailboxes: Arc::new(
                (0..size)
                    .map(|r| SimChannel::new(format!("mbox-{r}")))
                    .collect(),
            ),
            finishes: Mutex::new(vec![0.0f64; size]),
            stats: Mutex::new(vec![RankStats::default(); size]),
            logs: record.then(|| Mutex::new((0..size).map(|_| OpLog::default()).collect())),
        })
    }

    /// Spawn rank `rank_id` on `engine` as the inline process
    /// `rank-{rank_id}`: it runs `program` (staging cross-domain sends
    /// through `partition`, if any), then files its results.
    fn spawn<F, Fut>(
        self: &Arc<Self>,
        engine: &mut Engine,
        rank_id: usize,
        partition: Option<PartitionIo>,
        program: &Arc<F>,
    ) where
        F: Fn(Rank) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Rank> + Send + 'static,
    {
        let ranks = Arc::clone(self);
        let program = Arc::clone(program);
        engine.spawn_inline(format!("rank-{rank_id}"), move |ctx| async move {
            let started = ctx.now();
            let rank = program(ranks.rank(&ctx, rank_id, partition)).await;
            ranks.finish(rank, &ctx, started);
        });
    }

    /// The handle rank `rank_id`'s program starts with.
    fn rank(&self, ctx: &SimCtx, rank_id: usize, partition: Option<PartitionIo>) -> Rank {
        Rank {
            ctx: ctx.clone(),
            rank: rank_id,
            size: self.size,
            placements: Arc::clone(&self.placements),
            transport: Arc::clone(&self.transport),
            mailboxes: Arc::clone(&self.mailboxes),
            unexpected: Vec::new(),
            stats: RankStats::default(),
            partition,
            log: self.logs.is_some().then(OpLog::default),
        }
    }

    /// File a finished rank's finish time, stats and op log, and report
    /// its whole program as a virtual-time span (a no-op, name
    /// unformatted, unless a probe is attached).
    fn finish(&self, rank: Rank, ctx: &SimCtx, started: SimTime) {
        let rank_id = rank.rank;
        self.finishes.lock()[rank_id] = ctx.now().as_secs_f64();
        self.stats.lock()[rank_id] = rank.stats;
        if let (Some(logs), Some(log)) = (&self.logs, rank.log) {
            logs.lock()[rank_id] = log;
        }
        ctx.emit_span(format_args!("rank-{rank_id}"), started);
    }

    /// The world's result once its engine has run, and its op logs (none
    /// unless recording).
    fn outcome(&self, run: Result<SimTime, SimError>) -> LiveRun {
        let end_time = run?;
        let logs = self.logs.as_ref().map(|l| std::mem::take(&mut *l.lock()));
        Ok((self.world_result(end_time), logs.unwrap_or_default()))
    }

    fn world_result(&self, end_time: SimTime) -> WorldResult {
        WorldResult {
            end_time,
            rank_finish_s: self.finishes.lock().clone(),
            rank_stats: self.stats.lock().clone(),
        }
    }
}

/// The layout of one partitioned world over its rank plumbing, shared by
/// the in-process backend (which builds every wheel) and the process
/// backend (hub builds wheel 0, each worker builds its own). All of it
/// is a pure function of `(spec, plan, program)`, so every participant
/// reconstructs the identical world from the job description.
struct PartitionSetup<F> {
    ranks: Arc<RankPlumbing>,
    program: Arc<F>,
    partitions: usize,
    window: SimDuration,
    domain_of: Arc<Vec<usize>>,
    wheel_of_rank: Arc<Vec<usize>>,
}

impl<F, Fut> PartitionSetup<F>
where
    F: Fn(Rank) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = Rank> + Send + 'static,
{
    fn new(spec: &WorldSpec, plan: &PartitionPlan, program: F) -> Self {
        let ranks = RankPlumbing::new(spec, false);
        let domain_of = Arc::new(node_domains(spec));
        let ndomains = domain_of.iter().copied().max().unwrap_or(0) + 1;
        let fold = plan.resolve_fold(ndomains);
        let wheel_of_rank: Arc<Vec<usize>> =
            Arc::new(domain_of.iter().map(|&d| fold[d]).collect());
        let window = lookahead(spec, &ranks.transport, &domain_of);
        PartitionSetup {
            ranks,
            program: Arc::new(program),
            partitions: plan.partitions,
            window,
            domain_of,
            wheel_of_rank,
        }
    }

    /// Global ranks living on wheel `w`, ascending.
    fn local_ranks(&self, w: usize) -> Vec<usize> {
        (0..self.ranks.size).filter(|&r| self.wheel_of_rank[r] == w).collect()
    }

    fn register_global_names(&self, probe: &dyn Probe) {
        for r in 0..self.ranks.size {
            register_global_process(probe, r, &format!("rank-{r}"));
        }
    }

    /// Build one wheel: an engine carrying this wheel's ranks as inline
    /// processes, the shared outbox, and the mailbox delivery hook.
    fn build_wheel(&self, w: usize, engine_probe: Option<Arc<dyn Probe>>) -> Wheel<Msg> {
        let mut engine = Engine::with_probe(engine_probe);
        let outbox = Outbox::<Msg>::new(self.partitions);
        for rank_id in self.local_ranks(w) {
            let io = PartitionIo {
                domain_of: Arc::clone(&self.domain_of),
                wheel_of_rank: Arc::clone(&self.wheel_of_rank),
                my_domain: self.domain_of[rank_id],
                outbox: outbox.clone(),
                seq: 0,
            };
            self.ranks.spawn(&mut engine, rank_id, Some(io), &self.program);
        }
        let mailboxes = Arc::clone(&self.ranks.mailboxes);
        Wheel {
            engine,
            outbox,
            deliver: Box::new(move |ictx: &InjectCtx, slot: usize, msg: Msg| {
                mailboxes[slot].send_injected(ictx, msg);
            }),
        }
    }

    /// Worker→hub result payload: `(rank, finish_s, comm_s, compute_s)`
    /// for every local rank, the model time the wheel's faults injected
    /// (signed picoseconds), then the recorded probe stream.
    fn encode_worker_extra(&self, wheel: usize, probe_bytes: &[u8]) -> Vec<u8> {
        let locals = self.local_ranks(wheel);
        let finishes = self.ranks.finishes.lock();
        let stats = self.ranks.stats.lock();
        let mut out = Vec::new();
        wire::put_u32(&mut out, locals.len() as u32);
        for &r in &locals {
            wire::put_u32(&mut out, r as u32);
            wire::put_f64(&mut out, finishes[r]);
            wire::put_f64(&mut out, stats[r].comm_s);
            wire::put_f64(&mut out, stats[r].compute_s);
        }
        wire::put_u64(&mut out, self.ranks.transport.faults.injected_ps() as u64);
        wire::put_bytes(&mut out, probe_bytes);
        out
    }

    /// Merge one worker's result payload into the hub's tables and
    /// faults tally, and replay its probe stream through the wheel's
    /// remapping wrapper. `None` on a malformed payload.
    fn apply_worker_extra(&self, extra: &[u8], pp: Option<&PartitionProbe>) -> Option<()> {
        let mut r = wire::Reader::new(extra);
        let n = r.take_u32()? as usize;
        {
            let mut finishes = self.ranks.finishes.lock();
            let mut stats = self.ranks.stats.lock();
            for _ in 0..n {
                let rank = r.take_u32()? as usize;
                if rank >= self.ranks.size {
                    return None;
                }
                finishes[rank] = r.take_f64()?;
                stats[rank] = RankStats {
                    comm_s: r.take_f64()?,
                    compute_s: r.take_f64()?,
                };
            }
        }
        self.ranks.transport.faults.add_injected_ps(r.take_u64()? as i64);
        let probe_bytes = r.take_bytes()?;
        if let Some(pp) = pp {
            if !replay_probe(&probe_bytes, pp) {
                return None;
            }
        }
        Some(())
    }
}

/// Handle given to each rank's program: MPI-like operations in virtual
/// time. Owned by the program future for the lifetime of the rank, and
/// handed back to the world when the program returns.
pub struct Rank {
    pub(crate) ctx: SimCtx,
    rank: usize,
    size: usize,
    placements: Arc<Vec<RankPlacement>>,
    pub(crate) transport: Arc<TransportModel>,
    mailboxes: Arc<Vec<SimChannel<Msg>>>,
    /// Messages received but not yet matched (out-of-order arrivals).
    unexpected: Vec<Msg>,
    stats: RankStats,
    /// Cross-domain routing state; `None` in unpartitioned worlds.
    partition: Option<PartitionIo>,
    /// This rank's operations, while [`MpiWorld::run_layouts`] records;
    /// otherwise `None`, and each op pays one check of this field.
    log: Option<OpLog>,
}

/// Per-rank handle into the partition layer: decides whether a message
/// crosses domains and, if so, stages it for the window-barrier exchange.
struct PartitionIo {
    /// Global rank → domain.
    domain_of: Arc<Vec<usize>>,
    /// Global rank → wheel (domain folded by the plan).
    wheel_of_rank: Arc<Vec<usize>>,
    my_domain: usize,
    outbox: Outbox<Msg>,
    /// Per-sender sequence for the layout-independent ordering key.
    seq: u64,
}

impl Rank {
    /// This rank's index (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Append `op` to the log, if this rank is recording, and price it
    /// at this rank's clock ([`Op::price`], which the evaluator calls
    /// too), charging its stats.
    #[inline(always)]
    fn charge(&mut self, op: Op) -> SimDuration {
        if let Some(log) = &mut self.log {
            log.push(op);
        }
        let ctx = &self.ctx;
        op.price(
            &self.transport,
            &self.placements,
            self.rank,
            || ctx.now(),
            &mut self.stats,
        )
    }

    /// Consume `dur` of virtual compute time. A straggler fault in the
    /// world's [`WorldSpec::faults`] stretches this rank's phases once
    /// virtual time passes the fault's onset.
    pub async fn compute(&mut self, dur: SimDuration) {
        let dur = self.charge(Op::Compute(dur));
        self.ctx.advance(dur).await;
    }

    /// Consume the virtual time `flops` floating-point operations take on
    /// `threads` cores of this rank's device, at
    /// [`crate::transport::core_gflops`] per core; stretched by a
    /// straggler like [`Rank::compute`].
    pub async fn compute_flops(&mut self, flops: f64, threads: usize) {
        let dur = self.charge(Op::Flops { flops, threads });
        self.ctx.advance(dur).await;
    }

    /// Whether a message to `dest` crosses a partition-domain boundary
    /// (always false in unpartitioned worlds).
    fn is_cross_domain(&self, dest: usize) -> bool {
        self.partition
            .as_ref()
            .is_some_and(|io| io.domain_of[dest] != io.my_domain)
    }

    /// Stage a cross-domain message for the window-barrier exchange.
    /// Recorded at send *start*: `msg.ready` already carries the fully
    /// costed arrival, which is at least one lookahead in the future.
    fn route_remote(&mut self, dest: usize, msg: Msg) {
        let io = self
            .partition
            .as_mut()
            .expect("cross-domain send without partition state");
        let order = (self.rank as u64, io.seq);
        io.seq += 1;
        io.outbox.send(
            io.wheel_of_rank[dest],
            RemoteMsg {
                arrival: msg.ready,
                dest_slot: dest,
                order,
                payload: msg,
            },
        );
    }

    /// The synchronous prologue of every blocking send: check `dest`,
    /// record and price the send (charged as communication), and build
    /// the message.
    /// A cross-domain message is staged for the window exchange here, at
    /// send start; the receiver still sees it only at `ready`, exactly as
    /// on the direct path. Returns the cost the sender pays and the
    /// same-domain message to deliver once it has.
    ///
    /// Inlined into each send: called instead, it cost ~3% CPU on
    /// `crosscheck --jobs 1` (2-vCPU host, 100 alternating pairs).
    #[inline(always)]
    fn post(
        &mut self,
        dest: usize,
        tag: i32,
        bytes: u64,
        data: Option<&[f64]>,
        incast: bool,
    ) -> (SimDuration, Option<Msg>) {
        assert!(dest < self.size, "send to rank {dest} out of 0..{}", self.size);
        assert_ne!(dest, self.rank, "blocking self-send would deadlock");
        let cost = self.charge(Op::Send {
            dest,
            tag,
            bytes,
            incast,
        });
        let msg = Msg {
            src: self.rank,
            tag,
            bytes,
            data: data.map(<[f64]>::to_vec),
            ready: self.ctx.now() + cost,
        };
        if self.is_cross_domain(dest) {
            self.route_remote(dest, msg);
            (cost, None)
        } else {
            (cost, Some(msg))
        }
    }

    /// Blocking send (`MPI_Send`): pays the full transport cost, then the
    /// message becomes available to the receiver.
    ///
    /// # Panics
    /// Panics when `dest` is out of range or equal to the sender — MPI
    /// self-sends deadlock a blocking implementation and indicate a bug in
    /// the caller's algorithm.
    pub async fn send(&mut self, dest: usize, tag: i32, bytes: u64) {
        let (cost, local) = self.post(dest, tag, bytes, None, false);
        self.ctx.advance(cost).await;
        if let Some(msg) = local {
            self.mailboxes[dest].send_inline(&self.ctx, msg);
        }
    }

    /// Blocking send carrying a real payload: transport timing uses the
    /// payload's byte size; the receiver gets the actual values.
    pub async fn send_data(&mut self, dest: usize, tag: i32, data: &[f64]) {
        let bytes = (data.len() * 8) as u64;
        let (cost, local) = self.post(dest, tag, bytes, Some(data), false);
        self.ctx.advance(cost).await;
        if let Some(msg) = local {
            self.mailboxes[dest].send_inline(&self.ctx, msg);
        }
    }

    /// Like [`Rank::send`] but paying the alltoall incast of this rank's
    /// device ([`crate::transport::alltoall_incast`]).
    pub(crate) async fn send_incast(&mut self, dest: usize, tag: i32, bytes: u64) {
        let (cost, local) = self.post(dest, tag, bytes, None, true);
        self.ctx.advance(cost).await;
        if let Some(msg) = local {
            self.mailboxes[dest].send_inline(&self.ctx, msg);
        }
    }

    /// Blocking receive (`MPI_Recv`) of the message from `src` with
    /// `tag`. Messages from other sources or with other tags wait,
    /// in arrival order, for the receive that names them.
    ///
    /// # Panics
    /// Panics when `src` is out of range or equal to the receiver: no
    /// send could ever match it.
    pub async fn recv(&mut self, src: usize, tag: i32) {
        self.matched(src, tag).await;
    }

    /// Blocking receive of a payload-carrying message from `src` with
    /// `tag`; returns the payload.
    ///
    /// # Panics
    /// Panics like [`Rank::recv`], and if the matched message carries no
    /// payload — mixing the timing-only and data-carrying APIs on one
    /// (source, tag) stream is a caller bug.
    pub async fn recv_data(&mut self, src: usize, tag: i32) -> Vec<f64> {
        self.matched(src, tag)
            .await
            .data
            .expect("recv_data matched a message without a payload")
    }

    /// The one matcher behind both receives: check `src`, record the
    /// receive (it costs nothing), and take the first message from `src` with `tag`, first
    /// from the out-of-order arrivals, then from the mailbox.
    async fn matched(&mut self, src: usize, tag: i32) -> Msg {
        assert!(src < self.size, "recv from rank {src} out of 0..{}", self.size);
        assert_ne!(src, self.rank, "recv from itself would never match");
        self.charge(Op::Recv { src, tag });
        let matches = |m: &Msg| m.src == src && m.tag == tag;
        let m = if let Some(pos) = self.unexpected.iter().position(matches) {
            self.unexpected.remove(pos)
        } else {
            loop {
                let m = self.mailboxes[self.rank].recv_inline(&self.ctx).await;
                if matches(&m) {
                    break m;
                }
                self.unexpected.push(m);
            }
        };
        // Every send blocks until its message is ready, so none arrives
        // early.
        debug_assert!(m.ready <= self.ctx.now(), "message delivered before it was ready");
        m
    }

    /// Combined exchange (`MPI_Sendrecv`): send to `dest`, receive from
    /// `src`, overlapping as the transport allows.
    pub async fn sendrecv(&mut self, dest: usize, src: usize, tag: i32, bytes: u64) {
        self.send(dest, tag, bytes).await;
        self.recv(src, tag).await;
    }

    /// Apply the reduction-operator cost for `bytes` on this rank's
    /// device.
    pub async fn reduce_op(&mut self, bytes: u64) {
        let t = self.charge(Op::Reduce(bytes));
        self.ctx.advance(t).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_arch::Device;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn two_ranks_ping_pong() {
        let spec = WorldSpec::all_on(Device::Host, 2);
        let res = MpiWorld::run(&spec, |mut rank| async move {
            // 128 f64 words: 1 KB each way, echoed back.
            if rank.rank() == 0 {
                rank.send_data(1, 7, &[1.0; 128]).await;
                let echo = rank.recv_data(1, 7).await;
                assert_eq!(echo.len() * 8, 1024);
            } else {
                let m = rank.recv_data(0, 7).await;
                rank.send_data(0, 7, &m).await;
            }
            rank
        })
        .unwrap();
        // Two host-internal 1 KB messages: 2 x (0.5 us + 1024/2 GB/s).
        let expected = 2.0 * (0.5e-6 + 1024.0 / 2e9);
        assert!((res.end_time.as_secs_f64() - expected).abs() < 1e-9);
    }

    #[test]
    fn tag_matching_reorders_messages() {
        let spec = WorldSpec::all_on(Device::Host, 2);
        MpiWorld::run(&spec, |mut rank| async move {
            if rank.rank() == 0 {
                rank.send_data(1, 1, &[10.0]).await;
                rank.send_data(1, 2, &[20.0, 20.0]).await;
            } else {
                // Receive in reverse tag order.
                assert_eq!(rank.recv_data(0, 2).await, vec![20.0, 20.0]);
                assert_eq!(rank.recv_data(0, 1).await, vec![10.0]);
            }
            rank
        })
        .unwrap();
    }

    #[test]
    fn ring_exchange_runs_in_parallel() {
        // A ring of p ranks exchanging m bytes takes ~one message time per
        // iteration, not p message times.
        let p = 8;
        let spec = WorldSpec::all_on(Device::Host, p);
        let m = 1 << 20;
        let res = MpiWorld::run(&spec, move |mut rank| async move {
            let right = (rank.rank() + 1) % rank.size();
            let left = (rank.rank() + rank.size() - 1) % rank.size();
            for it in 0..4 {
                rank.sendrecv(right, left, it, m).await;
            }
            rank
        })
        .unwrap();
        let one_msg = 0.5e-6 + (1 << 20) as f64 / 2e9;
        let total = res.end_time.as_secs_f64();
        assert!(
            total < 4.0 * one_msg * 1.5,
            "ring serialized: {total} vs {one_msg}/iter"
        );
    }

    #[test]
    fn finish_times_recorded_for_every_rank() {
        let spec = WorldSpec::all_on(Device::Host, 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        let res = MpiWorld::run(&spec, move |mut rank| {
            let c2 = Arc::clone(&c2);
            async move {
                c2.fetch_add(1, Ordering::SeqCst);
                rank.compute(SimDuration::from_us(rank.rank() as f64)).await;
                rank
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 4);
        assert_eq!(res.rank_finish_s.len(), 4);
        assert!((res.rank_finish_s[3] - 3e-6).abs() < 1e-12);
    }

    #[test]
    fn mismatched_recv_deadlocks_cleanly() {
        let spec = WorldSpec::all_on(Device::Host, 2);
        let err = MpiWorld::run(&spec, |mut rank| async move {
            if rank.rank() == 1 {
                rank.recv(0, 99).await; // never sent
            }
            rank
        })
        .unwrap_err();
        match err {
            SimError::Deadlock { blocked, .. } => assert_eq!(blocked, vec!["rank-1".to_string()]),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn recv_that_can_never_match_panics() {
        // Like a send, a receive from itself or from outside the world
        // fails the call instead of deadlocking the world.
        let spec = WorldSpec::all_on(Device::Host, 2);
        for (src, named) in [(1, "recv from itself"), (7, "recv from rank 7 out of 0..2")] {
            let err = MpiWorld::run(&spec, move |mut rank| async move {
                if rank.rank() == 1 {
                    rank.recv(src, 0).await;
                }
                rank
            })
            .unwrap_err();
            match err {
                SimError::ProcessPanicked { name, message, .. } => {
                    assert_eq!(name, "rank-1");
                    assert!(message.contains(named), "{message}");
                }
                other => panic!("expected a panic, got {other}"),
            }
        }
    }
}

#[cfg(test)]
mod stats_tests {
    use super::*;
    use maia_arch::Device;

    #[test]
    fn stats_split_comm_from_compute() {
        let spec = WorldSpec::all_on(Device::Host, 2);
        let res = MpiWorld::run(&spec, |mut rank| async move {
            rank.compute(SimDuration::from_us(10.0)).await;
            if rank.rank() == 0 {
                rank.send(1, 0, 1 << 20).await;
            } else {
                rank.recv(0, 0).await;
            }
            rank
        })
        .unwrap();
        let s0 = res.rank_stats[0];
        assert!((s0.compute_s - 10e-6).abs() < 1e-12);
        // 1 MB at 2 GB/s + 0.5 us latency ~ 525 us of comm.
        assert!(s0.comm_s > 400e-6 && s0.comm_s < 700e-6, "{}", s0.comm_s);
        // The receiver's blocking time is not charged as wire comm (it
        // idles in the mailbox); its comm_s is zero here.
        assert_eq!(res.rank_stats[1].comm_s, 0.0);
    }

    #[test]
    fn symmetric_world_is_comm_dominated() {
        use maia_interconnect::SoftwareStack;
        let spec = WorldSpec::symmetric(2, 1, SoftwareStack::PostUpdate);
        let res = MpiWorld::run(&spec, |mut rank| async move {
            rank.compute(SimDuration::from_us(5.0)).await;
            // Just under the SCIF switch: the message stays on the slow
            // CCL-direct band, which is what dominates phi-side comm.
            rank.allreduce(255 * 1024).await;
            rank
        })
        .unwrap();
        // Ranks crossing PCIe accumulate far more communication time
        // than the host-resident ranks.
        let phi_stats = res.rank_stats.last().unwrap();
        let host_stats = res.rank_stats[0];
        assert!(
            phi_stats.comm_s > 3.0 * host_stats.comm_s,
            "phi comm {} vs host comm {}",
            phi_stats.comm_s,
            host_stats.comm_s
        );
    }
}

#[cfg(test)]
mod partitioned_tests {
    use super::*;
    use crate::partition::PartitionPlan;

    fn run_cluster(
        nodes: usize,
        partitions: usize,
        fold: Option<Vec<usize>>,
    ) -> (WorldResult, maia_sim::partition::PartitionRunStats) {
        let spec = WorldSpec::node_leaders(nodes);
        let plan = PartitionPlan { partitions, fold };
        MpiWorld::run_partitioned(&spec, &plan, |mut rank| async move {
            rank.compute(SimDuration::from_us(3.0 + rank.rank() as f64)).await;
            rank.allreduce(64 * 1024).await;
            rank
        })
        .unwrap()
    }

    #[test]
    fn cluster_allreduce_is_partition_count_invariant() {
        let (r1, s1) = run_cluster(8, 1, None);
        assert!(r1.end_time.as_ps() > 0);
        assert_eq!(s1.partitions, 1);
        for p in [2, 4, 8] {
            let (rp, sp) = run_cluster(8, p, None);
            assert_eq!(r1.end_time, rp.end_time, "{p} partitions");
            assert_eq!(r1.rank_finish_s, rp.rank_finish_s, "{p} partitions");
            assert_eq!(r1.rank_stats, rp.rank_stats, "{p} partitions");
            assert_eq!(sp.partitions, p);
        }
    }

    #[test]
    fn shuffled_domain_fold_is_invariant() {
        let (base, _) = run_cluster(8, 4, None);
        // An adversarial fold: reverse the default round-robin placement.
        let (shuffled, _) = run_cluster(8, 4, Some(vec![3, 1, 0, 2, 2, 0, 1, 3]));
        assert_eq!(base.end_time, shuffled.end_time);
        assert_eq!(base.rank_finish_s, shuffled.rank_finish_s);
        assert_eq!(base.rank_stats, shuffled.rank_stats);
    }

    #[test]
    fn cross_domain_payloads_survive_the_barrier() {
        let spec = WorldSpec::node_leaders(2);
        let plan = PartitionPlan::by_node(2);
        let (res, stats) = MpiWorld::run_partitioned(&spec, &plan, |mut rank| async move {
            if rank.rank() == 0 {
                rank.send_data(1, 7, &[1.5, 2.5, 3.0]).await;
            } else {
                let data = rank.recv_data(0, 7).await;
                assert_eq!(data, vec![1.5, 2.5, 3.0]);
            }
            rank
        })
        .unwrap();
        assert!(res.end_time.as_ps() > 0);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn partitioned_matches_plain_run_on_one_domain_free_world() {
        // A single-node world has one domain: the partition layer must
        // reproduce MpiWorld::run bit-for-bit (nothing ever crosses).
        let spec = WorldSpec::all_on(maia_arch::Device::Host, 4);
        let program = |mut rank: Rank| async move {
            rank.compute(SimDuration::from_us(2.0)).await;
            rank.allreduce(4096).await;
            rank
        };
        let plain = MpiWorld::run(&spec, program).unwrap();
        let (part, stats) =
            MpiWorld::run_partitioned(&spec, &PartitionPlan::by_node(1), program).unwrap();
        assert_eq!(plain.end_time, part.end_time);
        assert_eq!(plain.rank_finish_s, part.rank_finish_s);
        assert_eq!(plain.rank_stats, part.rank_stats);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn partitioned_deadlock_is_reported() {
        let spec = WorldSpec::node_leaders(2);
        let err = MpiWorld::run_partitioned(&spec, &PartitionPlan::by_node(2), |mut rank| async move {
            if rank.rank() == 1 {
                rank.recv(0, 99).await; // never sent
            }
            rank
        })
        .unwrap_err();
        match err {
            SimError::Deadlock { blocked, .. } => {
                assert_eq!(blocked, vec!["rank-1".to_string()])
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }
}
