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
    /// side: the sender's clock plus the send's cost. Every send blocks
    /// until then, so a receive takes the receiver's clock to the later
    /// of its own and this; the partition layer delivers a cross-domain
    /// message at this instant.
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
    /// once per layout. The recording run is timeless: each rank keeps
    /// its own clock and never advances the engine, which only orders
    /// sends and receives, and `specs[0]`'s result comes from those
    /// clocks. While a probe could observe engines, and after a
    /// recording run fails, every layout runs live and timed instead, its
    /// body included, so a failure is the engine's own [`SimError`].
    /// Either way the results, in `specs` order, are bit-identical to
    /// running each layout live. One layout is exactly [`MpiWorld::run`],
    /// with no log.
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
        let world = RankPlumbing::new(spec, false, Some(plan));
        let program = Arc::new(program);
        let bundle = world.probe_bundle(maia_sim::probe::probe_for_current_thread());
        let wheels = (0..plan.partitions)
            .map(|w| world.build_wheel(w, wheel_probe(&bundle, w), &program))
            .collect();
        let (end_time, run_stats) = maia_sim::partition::run_partitioned(
            wheels,
            local_bus::<Msg>(plan.partitions),
            world.maps().window,
            bundle,
        )?;
        Ok((world.world_result(end_time), run_stats))
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
    /// [`ProcessWorldError::Lost`], and so does a worker whose result
    /// does not name exactly its wheel's ranks; deterministic simulation
    /// failures (deadlock, rank panic) as [`ProcessWorldError::Sim`],
    /// exactly as the in-process backend reports them. Retry/backoff
    /// policy is the caller's (the supervisor's) job.
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
        let world = RankPlumbing::new(spec, false, Some(plan));
        assert_eq!(
            hub.partitions(),
            plan.partitions,
            "the hub's session spans the plan's wheels"
        );
        let bundle = world.probe_bundle(probe);
        let wheel0 = world.build_wheel(0, wheel_probe(&bundle, 0), &Arc::new(program));
        let report0 = drive_wheel(wheel0, &mut *hub, world.maps().window);
        let collected = hub.collect_reports();
        let missed = hub.missed_heartbeats();
        let worker_reports = collected.map_err(|loss| ProcessWorldError::Lost { loss, missed })?;
        let mut reports = vec![report0];
        for (wheel, (report, extra)) in (1..).zip(worker_reports) {
            let pp = bundle.as_ref().map(|b| &*b.wheel_probes[wheel]);
            if world.apply_worker_extra(wheel, &extra, pp).is_none() {
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
        let (end_time, stats) =
            finalize_partitioned(reports, bundle).map_err(ProcessWorldError::Sim)?;
        Ok((world.world_result(end_time), stats, missed))
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
        let world = RankPlumbing::new(spec, false, Some(plan));
        assert!(
            wheel >= 1 && wheel < plan.partitions,
            "worker wheel {wheel} out of 1..{}",
            plan.partitions
        );
        let rec = record_probe.then(|| Arc::new(RecordingProbe::new()));
        let engine_probe = rec.clone().map(|r| r as Arc<dyn Probe>);
        let wheel_obj = world.build_wheel(wheel, engine_probe, &Arc::new(program));
        let window = world.maps().window;
        let report = match kill_at_window {
            Some(at) => {
                let mut chaos = KillAtWindow {
                    inner: &mut *endpoint,
                    at,
                    window: 0,
                };
                drive_wheel(wheel_obj, &mut chaos, window)
            }
            None => drive_wheel(wheel_obj, &mut *endpoint, window),
        };
        let probe_bytes = rec.map(|r| r.take()).unwrap_or_default();
        endpoint.report(&report, &world.encode_worker_extra(wheel, &probe_bytes))?;
        Ok(report.windows)
    }
}

/// Why a hub-side partitioned run failed.
#[derive(Debug)]
pub enum ProcessWorldError {
    /// The simulation itself failed — deterministic, identical to what
    /// the in-process backend would report.
    Sim(SimError),
    /// A worker process crashed, went silent or sent a malformed result;
    /// the run is incomplete and a supervisor may retry it. Carries the
    /// heartbeat intervals the hub saw missed before declaring the loss,
    /// so a supervisor can account for them even though the attempt
    /// failed.
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
/// Timed unless `record` is set; a recording run is timeless (its ranks
/// keep their own clocks and never advance the engine, so its result
/// comes from those clocks, and a failure says instant zero) and also
/// returns each rank's op log. Only the spawn loop depends on the
/// program's type, and both callers share the program as one `Arc`, so
/// each program instantiates this once.
pub(crate) fn run_live<F, Fut>(spec: &WorldSpec, program: &Arc<F>, record: bool) -> LiveRun
where
    F: Fn(Rank) -> Fut + Send + Sync + 'static,
    Fut: Future<Output = Rank> + Send + 'static,
{
    let world = RankPlumbing::new(spec, record, None);
    let mut engine = Engine::new();
    for rank_id in 0..world.placements.len() {
        world.spawn(&mut engine, rank_id, None, program);
    }
    world.outcome(engine.run())
}

/// One world, the single value every [`Rank`] of it shares through one
/// `Arc`: the transport and placements its ranks price messages with,
/// their mailboxes, a partitioned world's maps, and the one lock its
/// finishing ranks file their results under. All of it but the filed
/// results is a pure function of the spec (and plan), so every wheel and
/// every worker process rebuilds the identical world. Not generic over
/// the program, so every program shares one copy of the code that
/// builds, partitions and probes a world and files its results.
struct RankPlumbing {
    transport: TransportModel,
    placements: Vec<RankPlacement>,
    /// One per rank; a receive takes its matching message straight out
    /// of its own.
    mailboxes: Vec<SimChannel<Msg>>,
    /// A partitioned world's maps; `None` in unpartitioned worlds.
    partition: Option<Partitioning>,
    /// Whether the ranks record op logs: the timeless recording run of
    /// [`MpiWorld::run_layouts`].
    record: bool,
    filed: Mutex<Filed>,
}

/// How a partitioned world is sharded, a pure function of the spec and
/// the plan.
struct Partitioning {
    /// Global rank → domain.
    domain_of: Vec<usize>,
    /// Global rank → wheel (domain folded by the plan).
    wheel_of_rank: Vec<usize>,
    partitions: usize,
    /// The window-barrier lookahead.
    window: SimDuration,
}

/// What a world's finishing ranks file: each rank's finish clock and
/// stats, and, while recording, its op log and the latest finish clock,
/// where the world ends (it is timeless, so its engine never leaves
/// instant zero).
struct Filed {
    finishes: Vec<f64>,
    stats: Vec<RankStats>,
    /// Empty unless recording.
    logs: Vec<OpLog>,
    end: SimTime,
}

/// Wheel `w`'s remapping view of a partitioned run's probe, if observed.
fn wheel_probe(bundle: &Option<ProbeBundle>, w: usize) -> Option<Arc<dyn Probe>> {
    bundle
        .as_ref()
        .map(|b| Arc::clone(&b.wheel_probes[w]) as Arc<dyn Probe>)
}

impl RankPlumbing {
    /// `spec`'s world, recording op logs if `record`, sharded per `plan`
    /// if one is given.
    fn new(spec: &WorldSpec, record: bool, plan: Option<&PartitionPlan>) -> Arc<Self> {
        spec.validate();
        let size = spec.size();
        let transport = TransportModel::for_world(spec);
        let partition = plan.map(|plan| {
            let domain_of = node_domains(spec);
            let ndomains = domain_of.iter().copied().max().unwrap_or(0) + 1;
            let fold = plan.resolve_fold(ndomains);
            Partitioning {
                wheel_of_rank: domain_of.iter().map(|&d| fold[d]).collect(),
                window: lookahead(spec, &transport, &domain_of),
                partitions: plan.partitions,
                domain_of,
            }
        });
        Arc::new(RankPlumbing {
            transport,
            placements: spec.placements.clone(),
            mailboxes: (0..size)
                .map(|r| SimChannel::new(format!("mbox-{r}")))
                .collect(),
            partition,
            record,
            filed: Mutex::new(Filed {
                finishes: vec![0.0; size],
                stats: vec![RankStats::default(); size],
                logs: if record {
                    (0..size).map(|_| OpLog::default()).collect()
                } else {
                    Vec::new()
                },
                end: SimTime::ZERO,
            }),
        })
    }

    /// The maps of a partitioned world.
    fn maps(&self) -> &Partitioning {
        self.partition.as_ref().expect("a partitioned world")
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
        let world = Arc::clone(self);
        let program = Arc::clone(program);
        engine.spawn_inline(format!("rank-{rank_id}"), move |ctx| async move {
            let started = ctx.now();
            let rank = Rank {
                ctx,
                rank: rank_id,
                stats: RankStats::default(),
                clock: SimTime::ZERO,
                partition,
                log: world.record.then(OpLog::default),
                world,
            };
            program(rank).await.finish(started);
        });
    }

    /// The world's result once its engine has run, and its op logs (none
    /// unless recording). A timed world ends when its engine does; a
    /// recording one is timeless and ends at its latest finish clock.
    fn outcome(&self, run: Result<SimTime, SimError>) -> LiveRun {
        let engine_end = run?;
        let mut filed = self.filed.lock();
        let end = if self.record { filed.end } else { engine_end };
        let logs = std::mem::take(&mut filed.logs);
        drop(filed);
        Ok((self.world_result(end), logs))
    }

    fn world_result(&self, end_time: SimTime) -> WorldResult {
        let filed = self.filed.lock();
        WorldResult {
            end_time,
            rank_finish_s: filed.finishes.clone(),
            rank_stats: filed.stats.clone(),
        }
    }

    /// Global ranks living on wheel `w` of a partitioned world,
    /// ascending.
    fn local_ranks(&self, w: usize) -> Vec<usize> {
        let wheel_of_rank = &self.maps().wheel_of_rank;
        (0..wheel_of_rank.len())
            .filter(|&r| wheel_of_rank[r] == w)
            .collect()
    }

    /// The probe setup of a partitioned run `probe` observes: every
    /// rank's name registered in global order up front, so probe-side
    /// tables match a single-wheel run, and one remapping wrapper per
    /// wheel, which suppresses the wheel's own spawn notifications.
    fn probe_bundle(&self, probe: Option<Arc<dyn Probe>>) -> Option<ProbeBundle> {
        let inner = probe?;
        for r in 0..self.placements.len() {
            register_global_process(&*inner, r, &format!("rank-{r}"));
        }
        let wheel_probes = (0..self.maps().partitions)
            .map(|w| Arc::new(PartitionProbe::new(Arc::clone(&inner), self.local_ranks(w))))
            .collect();
        Some(ProbeBundle {
            inner,
            wheel_probes,
        })
    }

    /// Build wheel `w` of a partitioned world: an engine carrying the
    /// wheel's ranks as inline processes, the outbox they stage
    /// cross-domain sends in, and the hook that delivers inbound ones to
    /// their mailboxes.
    fn build_wheel<F, Fut>(
        self: &Arc<Self>,
        w: usize,
        engine_probe: Option<Arc<dyn Probe>>,
        program: &Arc<F>,
    ) -> Wheel<Msg>
    where
        F: Fn(Rank) -> Fut + Send + Sync + 'static,
        Fut: Future<Output = Rank> + Send + 'static,
    {
        let mut engine = Engine::with_probe(engine_probe);
        let outbox = Outbox::<Msg>::new(self.maps().partitions);
        for rank_id in self.local_ranks(w) {
            let io = PartitionIo {
                outbox: outbox.clone(),
                seq: 0,
            };
            self.spawn(&mut engine, rank_id, Some(io), program);
        }
        let world = Arc::clone(self);
        Wheel {
            engine,
            outbox,
            deliver: Box::new(move |ictx: &InjectCtx, slot: usize, msg: Msg| {
                world.mailboxes[slot].send_injected(ictx, msg);
            }),
        }
    }

    /// Worker→hub result payload: `(rank, finish_s, comm_s, compute_s)`
    /// for every rank of `wheel`, in [`RankPlumbing::local_ranks`] order,
    /// the model time the wheel's faults injected (signed picoseconds),
    /// then the recorded probe stream.
    fn encode_worker_extra(&self, wheel: usize, probe_bytes: &[u8]) -> Vec<u8> {
        let locals = self.local_ranks(wheel);
        let filed = self.filed.lock();
        let mut out = Vec::new();
        wire::put_u32(&mut out, locals.len() as u32);
        for &r in &locals {
            wire::put_u32(&mut out, r as u32);
            wire::put_f64(&mut out, filed.finishes[r]);
            wire::put_f64(&mut out, filed.stats[r].comm_s);
            wire::put_f64(&mut out, filed.stats[r].compute_s);
        }
        wire::put_u64(&mut out, self.transport.faults.injected_ps() as u64);
        wire::put_bytes(&mut out, probe_bytes);
        out
    }

    /// Merge wheel `wheel`'s result payload into the filed results and
    /// the faults tally, and replay its probe stream through the wheel's
    /// remapping wrapper. `None` on a malformed payload, one that names
    /// anything but exactly the wheel's ranks in
    /// [`RankPlumbing::local_ranks`] order included.
    fn apply_worker_extra(
        &self,
        wheel: usize,
        extra: &[u8],
        pp: Option<&PartitionProbe>,
    ) -> Option<()> {
        let locals = self.local_ranks(wheel);
        let mut r = wire::Reader::new(extra);
        if r.take_u32()? as usize != locals.len() {
            return None;
        }
        {
            let mut filed = self.filed.lock();
            for rank in locals {
                if r.take_u32()? as usize != rank {
                    return None;
                }
                filed.finishes[rank] = r.take_f64()?;
                filed.stats[rank] = RankStats {
                    comm_s: r.take_f64()?,
                    compute_s: r.take_f64()?,
                };
            }
        }
        self.transport.faults.add_injected_ps(r.take_u64()? as i64);
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
/// time, on the rank's own clock, each implemented once. A timed rank
/// (every world but the recording run of [`MpiWorld::run_layouts`])
/// mirrors that clock onto the engine's; a timeless one never advances
/// the engine. Everything a rank shares with the rest of its world
/// (transport, placements, mailboxes, partition maps, filed results) is
/// one `Arc`. Owned by the program future for the lifetime of the rank,
/// and handed back to the world when the program returns.
pub struct Rank {
    ctx: SimCtx,
    rank: usize,
    world: Arc<RankPlumbing>,
    stats: RankStats,
    /// This rank's virtual clock: every priced op adds its cost, and a
    /// receive takes it to the matched message's `ready` if that is
    /// later. A timed rank mirrors it onto the engine's clock.
    clock: SimTime,
    /// Cross-domain staging state; `None` in unpartitioned worlds.
    partition: Option<PartitionIo>,
    /// This rank's operations, while [`MpiWorld::run_layouts`] records;
    /// otherwise `None`, and each op pays one check of this field. A
    /// recording rank is timeless: it never advances the engine
    /// ([`Rank::timed`]).
    log: Option<OpLog>,
}

/// Per-rank handle into the partition layer: where this rank's wheel
/// stages cross-domain messages for the window-barrier exchange.
struct PartitionIo {
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
        self.world.placements.len()
    }

    /// Whether this rank mirrors its clock onto the engine, waiting out
    /// each priced op in virtual time; a recording rank is timeless and
    /// runs straight on.
    #[inline(always)]
    fn timed(&self) -> bool {
        self.log.is_none()
    }

    /// Append `op` to the log, if this rank is recording, price it at
    /// this rank's clock ([`Op::price`], which the evaluator calls too),
    /// charging its stats, and move the clock past it.
    #[inline(always)]
    fn charge(&mut self, op: Op) -> SimDuration {
        if let Some(log) = &mut self.log {
            log.push(op);
        }
        let dur = op.price(
            &self.world.transport,
            &self.world.placements,
            self.rank,
            self.clock,
            &mut self.stats,
        );
        self.clock += dur;
        dur
    }

    /// The one wait every priced op awaits once [`Rank::charge`] has
    /// moved the clock `dur` past it: a timed rank advances the engine
    /// by `dur`, a timeless one runs straight on. A timed rank's engine
    /// stands at the clock the op started from: it wakes from a receive
    /// when the message is ready, never earlier (every send blocks until
    /// then).
    async fn wait(&self, dur: SimDuration) {
        if self.timed() {
            debug_assert!(
                self.ctx.now() + dur == self.clock,
                "a timed rank's clock left the engine's"
            );
            self.ctx.advance(dur).await;
        }
    }

    /// Consume `dur` of virtual compute time. A straggler fault in the
    /// world's [`WorldSpec::faults`] stretches this rank's phases once
    /// its clock passes the fault's onset.
    pub async fn compute(&mut self, dur: SimDuration) {
        let dur = self.charge(Op::Compute(dur));
        self.wait(dur).await;
    }

    /// Consume the virtual time `flops` floating-point operations take on
    /// `threads` cores of this rank's device, at
    /// [`crate::transport::core_gflops`] per core; stretched by a
    /// straggler like [`Rank::compute`].
    pub async fn compute_flops(&mut self, flops: f64, threads: usize) {
        let dur = self.charge(Op::Flops { flops, threads });
        self.wait(dur).await;
    }

    /// Stage `msg` for the window-barrier exchange if `dest` lies in
    /// another partition domain; hand it back for direct delivery
    /// otherwise (always, in unpartitioned worlds).
    #[inline(always)]
    fn route(&mut self, dest: usize, msg: Msg) -> Option<Msg> {
        let (Some(io), Some(maps)) = (&mut self.partition, &self.world.partition) else {
            return Some(msg);
        };
        if maps.domain_of[dest] == maps.domain_of[self.rank] {
            return Some(msg);
        }
        let order = (self.rank as u64, io.seq);
        io.seq += 1;
        io.outbox.send(
            maps.wheel_of_rank[dest],
            RemoteMsg {
                arrival: msg.ready,
                dest_slot: dest,
                order,
                payload: msg,
            },
        );
        None
    }

    /// The one body behind every blocking send, up to its wait: check
    /// `dest`, record and price the send (charged as communication), and
    /// build the message; stage a cross-domain message for the window
    /// exchange here, at send start (`ready` already carries the fully
    /// costed arrival, at least one lookahead ahead, and the receiver sees
    /// it only then, exactly as on the direct path). Returns the cost the
    /// sender waits out and the same-domain message it then delivers.
    ///
    /// Inlined into each send: called instead, it cost ~3% CPU on
    /// `crosscheck --jobs 1` (2-vCPU host, 100 alternating pairs). Each
    /// send then awaits the wait and delivers itself: an `async fn`'s
    /// inline attribute reaches only the function that builds its
    /// future, not its body, and one future shared by the three sends
    /// for those two steps cost ~3% CPU on the same run (300 alternating
    /// runs per side).
    #[inline(always)]
    fn transmit(
        &mut self,
        dest: usize,
        tag: i32,
        bytes: u64,
        data: Option<&[f64]>,
        incast: bool,
    ) -> (SimDuration, Option<Msg>) {
        let size = self.size();
        assert!(dest < size, "send to rank {dest} out of 0..{size}");
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
            ready: self.clock,
        };
        (cost, self.route(dest, msg))
    }

    /// Hand a same-domain message to `dest`'s mailbox once the send's
    /// cost is waited out.
    #[inline(always)]
    fn deliver(&self, dest: usize, local: Option<Msg>) {
        if let Some(msg) = local {
            self.world.mailboxes[dest].send_inline(&self.ctx, msg);
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
        let (cost, local) = self.transmit(dest, tag, bytes, None, false);
        self.wait(cost).await;
        self.deliver(dest, local);
    }

    /// Blocking send carrying a real payload: transport timing uses the
    /// payload's byte size; the receiver gets a copy of the values.
    pub async fn send_data(&mut self, dest: usize, tag: i32, data: &[f64]) {
        let bytes = (data.len() * 8) as u64;
        let (cost, local) = self.transmit(dest, tag, bytes, Some(data), false);
        self.wait(cost).await;
        self.deliver(dest, local);
    }

    /// Like [`Rank::send`] but paying the alltoall incast of this rank's
    /// device ([`crate::transport::alltoall_incast`]).
    pub(crate) async fn send_incast(&mut self, dest: usize, tag: i32, bytes: u64) {
        let (cost, local) = self.transmit(dest, tag, bytes, None, true);
        self.wait(cost).await;
        self.deliver(dest, local);
    }

    /// Blocking receive (`MPI_Recv`) of the message from `src` with
    /// `tag`. Messages from other sources or with other tags stay in the
    /// mailbox, in arrival order, for the receive that names them.
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
    /// receive (it costs nothing), take the first message from `src` with
    /// `tag` out of this rank's mailbox, parking until one arrives, and
    /// take the clock to its `ready` if that is later.
    async fn matched(&mut self, src: usize, tag: i32) -> Msg {
        let size = self.size();
        assert!(src < size, "recv from rank {src} out of 0..{size}");
        assert_ne!(src, self.rank, "recv from itself would never match");
        self.charge(Op::Recv { src, tag });
        let m = self.world.mailboxes[self.rank]
            .recv_matching(&self.ctx, |m| m.src == src && m.tag == tag)
            .await;
        self.clock = self.clock.max(m.ready);
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
        let dur = self.charge(Op::Reduce(bytes));
        self.wait(dur).await;
    }

    /// File this finished rank's finish clock, stats and op log with its
    /// world, under the world's one lock, and report its whole program as
    /// a virtual-time span (a no-op, name unformatted, unless a probe is
    /// attached).
    fn finish(self, started: SimTime) {
        let mut filed = self.world.filed.lock();
        filed.finishes[self.rank] = self.clock.as_secs_f64();
        filed.stats[self.rank] = self.stats;
        filed.end = filed.end.max(self.clock);
        if let Some(log) = self.log {
            filed.logs[self.rank] = log;
        }
        drop(filed);
        self.ctx
            .emit_span(format_args!("rank-{}", self.rank), started);
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
        // Rank 1 takes rank 0's messages in reverse tag order, and rank
        // 2's, under another tag, in between, payloads checked: in the
        // timeless recording world of a two-layout call, and in a timed
        // world of each layout, which the call's results must equal.
        async fn reordered(mut rank: Rank) -> Rank {
            match rank.rank() {
                0 => {
                    rank.send_data(1, 1, &[10.0]).await;
                    rank.send_data(1, 2, &[20.0, 20.0]).await;
                }
                1 => {
                    assert_eq!(rank.recv_data(0, 2).await, vec![20.0, 20.0]);
                    assert_eq!(rank.recv_data(2, 3).await, vec![30.0; 3]);
                    assert_eq!(rank.recv_data(0, 1).await, vec![10.0]);
                }
                _ => rank.send_data(1, 3, &[30.0; 3]).await,
            }
            rank
        }
        let specs = [
            WorldSpec::all_on(Device::Host, 3),
            WorldSpec::all_on(Device::Phi0, 3),
        ];
        let worlds = MpiWorld::run_layouts(&specs, reordered).unwrap();
        for (spec, world) in specs.iter().zip(&worlds) {
            let timed = MpiWorld::run(spec, reordered).unwrap();
            assert_eq!(timed.end_time, world.end_time);
            assert_eq!(timed.rank_finish_s, world.rank_finish_s);
            assert_eq!(timed.rank_stats, world.rank_stats);
        }
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
            rank.compute(SimDuration::from_us(3.0 + rank.rank() as f64))
                .await;
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
        let err =
            MpiWorld::run_partitioned(&spec, &PartitionPlan::by_node(2), |mut rank| async move {
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
