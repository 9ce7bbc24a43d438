//! Partitioned (sharded) execution of a simulated world.
//!
//! One [`Engine`] — one *event wheel* — per partition, each driven by its
//! own OS thread, synchronized by conservative lookahead windows:
//! no wheel processes an event at or past the current window boundary
//! until every cross-partition message generated in the previous window
//! has been exchanged and scheduled for delivery. The window width is the
//! *lookahead* `L`, the minimum virtual-time cost of any cross-domain
//! message in the cost model: a message handed to the communicator at
//! send time `s` arrives no earlier than `s + L`, so a window `[T, T+L)`
//! can never produce a delivery inside itself or inside any window that
//! has already run.
//!
//! Between windows the wheels perform a barrier exchange through a
//! [`SimCommunicator`]: each partition ships its outbound messages plus a
//! *floor* — the earliest virtual time at which it could next act (its
//! local queue head, or the earliest arrival among messages it just
//! sent). Every partition computes the identical global minimum floor, so
//! all wheels agree on the next window `[next, next+L)` without a
//! coordinator, idle stretches are skipped in one hop, and the run
//! terminates when the global floor is infinite. Two backends implement
//! the exchange: [`LocalChannelCommunicator`] connects wheels over
//! in-process channels, and [`process`] carries wheels `1..n` in worker
//! processes over pipes.
//!
//! Determinism: within a wheel the engine's `(time, push order)` total order
//! applies as ever; ingested messages are sorted by
//! `(arrival, order, dest_slot)` — where `order` is a partition-layout-
//! independent key chosen by the caller (e.g. `(global sender rank,
//! per-sender sequence)`) — before being scheduled, so the injected event
//! order does not depend on how domains are folded onto wheels. Runs are
//! therefore bit-for-bit identical across partition counts *and* across
//! repeated runs.

pub mod process;

use std::sync::Arc;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;

use crate::engine::{Engine, InjectCtx, ProcessId, SimError};
use crate::probe::Probe;
use crate::time::{SimDuration, SimTime};

pub use process::{ProcessCommunicator, ProcessConfig, WorkerEndpoint, WorkerLoss};

/// A cross-partition simulated message in flight.
#[derive(Debug)]
pub struct RemoteMsg<T> {
    /// Virtual arrival time at the destination (stamped by the sender:
    /// send-start time plus full transfer cost, hence ≥ send time + the
    /// lookahead).
    pub arrival: SimTime,
    /// Destination inbox slot, interpreted by the wheel's deliver hook
    /// (the MPI layer uses the destination's global rank).
    pub dest_slot: usize,
    /// Partition-layout-independent ordering key — e.g. `(global sender
    /// rank, per-sender sequence)` — used to sort same-instant deliveries
    /// identically regardless of the domain→wheel folding.
    pub order: (u64, u64),
    /// The message itself.
    pub payload: T,
}

/// What a window-barrier exchange produced.
pub enum ExchangeOutcome<T> {
    /// At least one partition still has work: `inbound` holds every
    /// message destined for this partition, and `next` is the global
    /// minimum floor — the start of the next window, identical on every
    /// partition.
    Continue {
        inbound: Vec<RemoteMsg<T>>,
        next: SimTime,
    },
    /// Every partition's floor is infinite: the world has no pending
    /// events and no in-flight messages.
    Done,
    /// A peer aborted (its wheel failed); this partition should stop
    /// without reporting its own error.
    Aborted,
}

/// Transport between partitions for the window-barrier exchange.
///
/// `LocalChannelCommunicator` is the in-process backend, and
/// [`process::ProcessCommunicator`] and [`process::WorkerEndpoint`] the
/// two ends of the cross-process one.
pub trait SimCommunicator<T>: Send {
    /// This partition's index.
    fn partition(&self) -> usize;
    /// Total number of partitions.
    fn partitions(&self) -> usize;
    /// Barrier exchange: ship `outbound[j]` to partition `j` together
    /// with this partition's `floor` (earliest possible next action, in
    /// picoseconds; `None` = infinity), collect every peer's batch, and
    /// return the union of inbound messages plus the global minimum
    /// floor. `outbound[self.partition()]` holds cross-*domain* messages
    /// whose sender and receiver were folded onto the same wheel; they
    /// are returned in `inbound` untouched so routing is identical for
    /// every partition count.
    fn exchange(&mut self, outbound: Vec<Vec<RemoteMsg<T>>>, floor: Option<u64>)
        -> ExchangeOutcome<T>;
    /// Tell every peer this partition died, so their blocking exchanges
    /// return [`ExchangeOutcome::Aborted`] instead of hanging.
    fn abort(&mut self);
}

/// A mutable borrow drives the protocol exactly like the owned value —
/// lets callers keep the communicator (e.g. to collect worker reports)
/// after [`drive_wheel`] returns.
impl<T, C: SimCommunicator<T>> SimCommunicator<T> for &mut C {
    fn partition(&self) -> usize {
        (**self).partition()
    }
    fn partitions(&self) -> usize {
        (**self).partitions()
    }
    fn exchange(&mut self, outbound: Vec<Vec<RemoteMsg<T>>>, floor: Option<u64>)
        -> ExchangeOutcome<T> {
        (**self).exchange(outbound, floor)
    }
    fn abort(&mut self) {
        (**self).abort()
    }
}

enum Packet<T> {
    Batch {
        floor: Option<u64>,
        msgs: Vec<RemoteMsg<T>>,
    },
    Abort,
}

/// In-process [`SimCommunicator`] backend: one dedicated channel per
/// ordered partition pair, so batches from different windows can never
/// interleave and each barrier consumes exactly one batch per peer.
pub struct LocalChannelCommunicator<T> {
    idx: usize,
    /// `to_peers[j]` sends to partition `j` (`None` at `j == idx`).
    to_peers: Vec<Option<Sender<Packet<T>>>>,
    /// `from_peers[j]` receives from partition `j` (`None` at `j == idx`).
    from_peers: Vec<Option<Receiver<Packet<T>>>>,
    aborted: bool,
}

/// Build a fully-connected bus of `n` local communicators.
pub fn local_bus<T: Send>(n: usize) -> Vec<LocalChannelCommunicator<T>> {
    assert!(n >= 1, "a partitioned world needs at least one partition");
    let mut to: Vec<Vec<Option<Sender<Packet<T>>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    let mut from: Vec<Vec<Option<Receiver<Packet<T>>>>> =
        (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let (tx, rx) = unbounded();
                to[i][j] = Some(tx);
                from[j][i] = Some(rx);
            }
        }
    }
    to.into_iter()
        .zip(from)
        .enumerate()
        .map(|(idx, (to_peers, from_peers))| LocalChannelCommunicator {
            idx,
            to_peers,
            from_peers,
            aborted: false,
        })
        .collect()
}

impl<T> LocalChannelCommunicator<T> {
    fn send_abort_to_peers(&self) {
        for tx in self.to_peers.iter().flatten() {
            let _ = tx.send(Packet::Abort);
        }
    }
}

impl<T: Send> SimCommunicator<T> for LocalChannelCommunicator<T> {
    fn partition(&self) -> usize {
        self.idx
    }

    fn partitions(&self) -> usize {
        self.to_peers.len()
    }

    fn exchange(
        &mut self,
        mut outbound: Vec<Vec<RemoteMsg<T>>>,
        floor: Option<u64>,
    ) -> ExchangeOutcome<T> {
        let n = self.to_peers.len();
        debug_assert_eq!(outbound.len(), n, "one outbound bucket per partition");
        if self.aborted {
            return ExchangeOutcome::Aborted;
        }
        // Same-wheel cross-domain messages skip the wire entirely.
        let mut inbound: Vec<RemoteMsg<T>> = std::mem::take(&mut outbound[self.idx]);
        let mut global = floor;
        for (j, bucket) in outbound.into_iter().enumerate() {
            if j == self.idx {
                continue;
            }
            let tx = self.to_peers[j].as_ref().expect("peer sender exists");
            if tx.send(Packet::Batch { floor, msgs: bucket }).is_err() {
                // A peer vanished without an explicit abort packet.
                self.abort();
                return ExchangeOutcome::Aborted;
            }
        }
        for j in 0..n {
            if j == self.idx {
                continue;
            }
            let rx = self.from_peers[j].as_ref().expect("peer receiver exists");
            match rx.recv() {
                Ok(Packet::Batch { floor: f, msgs }) => {
                    global = match (global, f) {
                        (Some(a), Some(b)) => Some(a.min(b)),
                        (a, b) => a.or(b),
                    };
                    inbound.extend(msgs);
                }
                Ok(Packet::Abort) | Err(_) => {
                    self.abort();
                    return ExchangeOutcome::Aborted;
                }
            }
        }
        match global {
            None => ExchangeOutcome::Done,
            Some(next_ps) => ExchangeOutcome::Continue {
                inbound,
                next: SimTime(next_ps),
            },
        }
    }

    fn abort(&mut self) {
        if !self.aborted {
            self.aborted = true;
            self.send_abort_to_peers();
        }
    }
}

struct OutboxInner<T> {
    per_peer: Vec<Vec<RemoteMsg<T>>>,
}

/// Per-wheel staging area for outbound cross-domain messages. Simulated
/// code records a message here at send *start* (with the fully-costed
/// arrival stamp); the wheel driver drains it at each window barrier.
pub struct Outbox<T> {
    inner: Arc<Mutex<OutboxInner<T>>>,
}

impl<T> Clone for Outbox<T> {
    fn clone(&self) -> Self {
        Outbox {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Outbox<T> {
    /// An empty outbox with one bucket per partition.
    pub fn new(partitions: usize) -> Self {
        Outbox {
            inner: Arc::new(Mutex::new(OutboxInner {
                per_peer: (0..partitions).map(|_| Vec::new()).collect(),
            })),
        }
    }

    /// Record a message for the window-barrier exchange.
    pub fn send(&self, dest_partition: usize, msg: RemoteMsg<T>) {
        self.inner.lock().per_peer[dest_partition].push(msg);
    }

    /// Drain all buckets, returning them and the earliest outbound
    /// arrival (the outbox's contribution to the partition floor).
    fn drain(&self) -> (Vec<Vec<RemoteMsg<T>>>, Option<u64>) {
        let mut inner = self.inner.lock();
        let n = inner.per_peer.len();
        let buckets = std::mem::replace(
            &mut inner.per_peer,
            (0..n).map(|_| Vec::new()).collect(),
        );
        let min_arrival = buckets
            .iter()
            .flatten()
            .map(|m| m.arrival.as_ps())
            .min();
        (buckets, min_arrival)
    }
}

/// Pid-remapping probe wrapper for one wheel of a partitioned run.
///
/// A partitioned world shares ONE underlying experiment probe across all
/// wheels so the virtual-side telemetry is identical to a single-wheel
/// run of the same world, for every partition count:
///
/// * local pids are remapped to the caller's global process indices
///   (the caller pre-registers every process name in global order via
///   [`register_global_process`]; per-wheel `process_spawned` calls are
///   suppressed);
/// * `event_fired` reports queue depth 0 — per-wheel queue depths depend
///   on the partition layout, so the only layout-invariant depth is none;
/// * `run_complete` is suppressed; [`run_partitioned`] reports the global
///   end once;
/// * spans are buffered and flushed globally sorted after the run, since
///   concurrent wheels would otherwise interleave them
///   nondeterministically.
pub struct PartitionProbe {
    inner: Arc<dyn Probe>,
    /// Local pid index → global process index.
    map: Vec<usize>,
    spans: Mutex<Vec<BufferedSpan>>,
}

struct BufferedSpan {
    name: String,
    start_ps: u64,
    end_ps: u64,
    global: usize,
}

impl PartitionProbe {
    /// Wrap `inner` for a wheel whose local pid `k` is global process
    /// `map[k]`. `map` must cover every process spawned on the wheel, in
    /// spawn order.
    pub fn new(inner: Arc<dyn Probe>, map: Vec<usize>) -> Self {
        PartitionProbe {
            inner,
            map,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn global(&self, pid: ProcessId) -> ProcessId {
        ProcessId::from_index(
            *self
                .map
                .get(pid.index())
                .expect("PartitionProbe map must cover every spawned process"),
        )
    }

    fn take_spans(&self) -> Vec<BufferedSpan> {
        std::mem::take(&mut *self.spans.lock())
    }
}

impl Probe for PartitionProbe {
    fn process_spawned(&self, _pid: ProcessId, _name: &str) {
        // Suppressed: the caller registers names in global order up front.
    }

    fn event_scheduled(&self, at_ps: u64, pid: ProcessId) {
        self.inner.event_scheduled(at_ps, self.global(pid));
    }

    fn event_fired(&self, now_ps: u64, pid: ProcessId, _queue_depth: usize) {
        self.inner.event_fired(now_ps, self.global(pid), 0);
    }

    fn advanced(&self, now_ps: u64, pid: ProcessId, dur_ps: u64) {
        self.inner.advanced(now_ps, self.global(pid), dur_ps);
    }

    fn blocked(&self, now_ps: u64, pid: ProcessId) {
        self.inner.blocked(now_ps, self.global(pid));
    }

    fn finished(&self, now_ps: u64, pid: ProcessId) {
        self.inner.finished(now_ps, self.global(pid));
    }

    fn run_complete(&self, _end_ps: u64) {
        // Suppressed: the orchestrator reports the global end once.
    }

    fn span(&self, name: &str, start_ps: u64, end_ps: u64, pid: ProcessId) {
        self.spans.lock().push(BufferedSpan {
            name: name.to_string(),
            start_ps,
            end_ps,
            global: self.global(pid).index(),
        });
    }
}

/// Register a process name with a probe under an explicit *global* index,
/// before the partitioned run begins. Pair with [`PartitionProbe`]: the
/// per-wheel spawn notifications are suppressed, so global registration
/// keeps `process_spawned` order — and any probe-side pid→name table —
/// identical to a single-wheel run.
pub fn register_global_process(probe: &dyn Probe, index: usize, name: &str) {
    probe.process_spawned(ProcessId::from_index(index), name);
}

/// Delivery hook of a [`Wheel`]: place a payload into an inbox slot
/// (waking a blocked receiver through the [`InjectCtx`]).
pub type DeliverFn<T> = Box<dyn Fn(&InjectCtx, usize, T) + Send>;

/// One partition of a sharded world, ready to drive.
pub struct Wheel<T> {
    /// The wheel's engine, with every local process already spawned.
    pub engine: Engine,
    /// Staging area the wheel's processes record cross-domain sends into.
    pub outbox: Outbox<T>,
    /// Delivery hook for inbound cross-domain payloads.
    pub deliver: DeliverFn<T>,
}

/// Shared-probe bookkeeping for a partitioned run (absent when the run is
/// unprobed).
pub struct ProbeBundle {
    /// The single underlying experiment probe.
    pub inner: Arc<dyn Probe>,
    /// One remapping wrapper per wheel, in wheel order.
    pub wheel_probes: Vec<Arc<PartitionProbe>>,
}

/// Per-wheel statistics of a partitioned run (wall-side telemetry; these
/// legitimately vary with the partition count and machine load).
#[derive(Debug, Clone, Default)]
pub struct WheelStats {
    /// Final virtual time reached by this wheel.
    pub end_ps: u64,
    /// Cross-domain messages this wheel sent.
    pub messages_out: u64,
    /// Wall-clock nanoseconds this wheel spent stalled in window-barrier
    /// exchanges.
    pub stall_wall_ns: u64,
}

/// Statistics of a whole partitioned run.
#[derive(Debug, Clone, Default)]
pub struct PartitionRunStats {
    /// Number of wheels.
    pub partitions: usize,
    /// Lookahead windows executed (identical on every wheel).
    pub windows: u64,
    /// Total cross-domain messages exchanged.
    pub messages: u64,
    /// Per-wheel buckets, in wheel order.
    pub wheels: Vec<WheelStats>,
}

/// How one wheel's drive loop ended.
#[derive(Debug)]
pub enum DriveStatus {
    /// The global floor went infinite: the world completed.
    Completed,
    /// This wheel's engine failed.
    Error(SimError),
    /// A peer aborted; this wheel stopped without an error of its own.
    PeerAborted,
}

/// Everything [`finalize_partitioned`] needs to know about one wheel's
/// run — produced locally by [`drive_wheel`], or decoded from a worker
/// process's report frame.
pub struct WheelReport {
    /// How the drive loop ended.
    pub status: DriveStatus,
    /// Processes still blocked when the wheel stopped.
    pub blocked: Vec<String>,
    /// The wheel's final virtual time.
    pub end: SimTime,
    /// Lookahead windows executed.
    pub windows: u64,
    /// Wall-side statistics.
    pub stats: WheelStats,
}

/// Inbound cross-domain deliveries of one wheel that have not fired yet,
/// indexed by the token their injection event carries. A token returns to
/// the free list once its event has fired, so the slab never holds more
/// entries than deliveries were in flight at once.
struct Deliveries<T> {
    /// `(dest_slot, payload)` per token; `None` once delivered.
    slots: Vec<Option<(usize, T)>>,
    free: Vec<usize>,
}

impl<T> Deliveries<T> {
    fn insert(&mut self, dest_slot: usize, payload: T) -> usize {
        let entry = Some((dest_slot, payload));
        match self.free.pop() {
            Some(token) => {
                self.slots[token] = entry;
                token
            }
            None => {
                self.slots.push(entry);
                self.slots.len() - 1
            }
        }
    }

    fn take(&mut self, token: usize) -> (usize, T) {
        let entry = self.slots[token].take().expect("delivery fired twice");
        self.free.push(token);
        entry
    }
}

/// Drive one wheel of a sharded world to completion through `comm` —
/// the per-wheel loop [`run_partitioned`] runs on each wheel thread,
/// public so a *worker process* can drive its single wheel against a
/// [`WorkerEndpoint`].
pub fn drive_wheel<T, C>(wheel: Wheel<T>, mut comm: C, lookahead: SimDuration) -> WheelReport
where
    T: Send + 'static,
    C: SimCommunicator<T>,
{
    assert!(
        lookahead.as_ps() > 0,
        "partition lookahead must be positive: a zero-latency cross-domain link \
         admits no conservative window"
    );
    let Wheel {
        mut engine,
        outbox,
        deliver,
    } = wheel;
    let mut pending = Deliveries {
        slots: Vec::new(),
        free: Vec::new(),
    };
    let mut windows = 0u64;
    let mut messages_out = 0u64;
    let mut stall_wall_ns = 0u64;
    let mut limit = SimTime::ZERO + lookahead;
    let status = loop {
        let ran = engine.run_window_delivering(limit, &mut |ictx, token| {
            let (slot, payload) = pending.take(token);
            deliver(ictx, slot, payload);
        });
        if let Err(e) = ran {
            comm.abort();
            break DriveStatus::Error(e);
        }
        windows += 1;
        let (outbound, out_floor) = outbox.drain();
        messages_out += outbound.iter().map(Vec::len).sum::<usize>() as u64;
        let local_next = engine.next_event_time().map(SimTime::as_ps);
        let floor = match (local_next, out_floor) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let barrier = Instant::now();
        match comm.exchange(outbound, floor) {
            ExchangeOutcome::Continue { mut inbound, next } => {
                stall_wall_ns += barrier.elapsed().as_nanos() as u64;
                // Sort by a partition-layout-independent key so injected
                // event order — and thus the engine's push order — is
                // identical for every domain→wheel folding.
                inbound.sort_by(|a, b| {
                    (a.arrival, a.order, a.dest_slot).cmp(&(b.arrival, b.order, b.dest_slot))
                });
                for m in inbound {
                    let token = pending.insert(m.dest_slot, m.payload);
                    engine.schedule_injection(m.arrival, token);
                }
                limit = next + lookahead;
            }
            ExchangeOutcome::Done => {
                stall_wall_ns += barrier.elapsed().as_nanos() as u64;
                break DriveStatus::Completed;
            }
            ExchangeOutcome::Aborted => break DriveStatus::PeerAborted,
        }
    };
    let blocked = engine.blocked_processes();
    let end = engine.now();
    WheelReport {
        status,
        blocked,
        end,
        windows,
        stats: WheelStats {
            end_ps: end.as_ps(),
            messages_out,
            stall_wall_ns,
        },
    }
}

/// Run a sharded world to completion: one scoped OS thread per wheel
/// (wheel 0 drives on the calling thread), window-synchronized through
/// the given communicators. Every wheel thread has been joined — and its
/// wheel dropped — by the time this returns.
///
/// Returns the global end time — the maximum over wheels, equal to the
/// single-wheel end time of the same world — and the run statistics.
///
/// # Panics
/// Panics if `lookahead` is zero (a zero-latency cross-domain link would
/// livelock the window protocol: windows could never contain an event)
/// or if `wheels` and `comms` disagree about the partition layout.
pub fn run_partitioned<T, C>(
    wheels: Vec<Wheel<T>>,
    comms: Vec<C>,
    lookahead: SimDuration,
    probes: Option<ProbeBundle>,
) -> Result<(SimTime, PartitionRunStats), SimError>
where
    T: Send + 'static,
    C: SimCommunicator<T>,
{
    assert!(
        lookahead.as_ps() > 0,
        "partition lookahead must be positive: a zero-latency cross-domain link \
         admits no conservative window"
    );
    let n = wheels.len();
    assert_eq!(n, comms.len(), "one communicator per wheel");
    for (i, c) in comms.iter().enumerate() {
        assert_eq!(c.partition(), i, "communicator order must match wheel order");
        assert_eq!(c.partitions(), n, "communicator bus size must match wheel count");
    }

    let mut pairs = wheels.into_iter().zip(comms);
    let (head_wheel, head_comm) = pairs
        .next()
        .expect("a partitioned world needs at least one wheel");
    let reports: Vec<WheelReport> = std::thread::scope(|s| {
        let drivers: Vec<_> = pairs
            .map(|(wheel, comm)| s.spawn(move || drive_wheel(wheel, comm, lookahead)))
            .collect();
        let mut reports = vec![drive_wheel(head_wheel, head_comm, lookahead)];
        reports.extend(drivers.into_iter().map(|d| {
            d.join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
        }));
        reports
    });
    finalize_partitioned(reports, probes)
}

/// Merge per-wheel reports into the run result: earliest real error
/// wins (by virtual time, then wheel index), leftover blocked processes
/// merge into one deadlock, buffered probe spans flush globally sorted.
/// Shared by [`run_partitioned`] and the process backend, whose worker
/// reports arrive over the wire instead of from wheel threads.
pub fn finalize_partitioned(
    reports: Vec<WheelReport>,
    probes: Option<ProbeBundle>,
) -> Result<(SimTime, PartitionRunStats), SimError> {
    let n = reports.len();
    // A wheel that saw PeerAborted stopped because of someone else's
    // failure; surface the earliest real error (by virtual time, then
    // wheel index) so the reported failure is deterministic.
    let mut first_error: Option<SimError> = None;
    for r in &reports {
        if let DriveStatus::Error(e) = &r.status {
            let key = |err: &SimError| match err {
                SimError::Deadlock { at, .. } | SimError::ProcessPanicked { at, .. } => *at,
            };
            if first_error.as_ref().is_none_or(|best| key(e) < key(best)) {
                first_error = Some(e.clone());
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    if reports
        .iter()
        .any(|r| matches!(r.status, DriveStatus::PeerAborted))
    {
        // Should be unreachable: an abort implies a real error somewhere.
        return Err(SimError::ProcessPanicked {
            name: "partition-exchange".to_string(),
            message: "a partition aborted without reporting an error".to_string(),
            at: SimTime::ZERO,
        });
    }

    let end = reports.iter().map(|r| r.end).max().unwrap_or(SimTime::ZERO);
    let blocked: Vec<String> = reports.iter().flat_map(|r| r.blocked.clone()).collect();
    if !blocked.is_empty() {
        return Err(SimError::Deadlock { blocked, at: end });
    }

    if let Some(bundle) = probes {
        // Flush buffered spans in one globally-sorted pass, then report
        // the single global run completion.
        let mut spans: Vec<BufferedSpan> = bundle
            .wheel_probes
            .iter()
            .flat_map(|p| p.take_spans())
            .collect();
        spans.sort_by(|a, b| {
            (a.start_ps, a.end_ps, a.global, &a.name).cmp(&(b.start_ps, b.end_ps, b.global, &b.name))
        });
        for s in spans {
            bundle
                .inner
                .span(&s.name, s.start_ps, s.end_ps, ProcessId::from_index(s.global));
        }
        bundle.inner.run_complete(end.as_ps());
    }

    let stats = PartitionRunStats {
        partitions: n,
        windows: reports.first().map_or(0, |r| r.windows),
        messages: reports.iter().map(|r| r.stats.messages_out).sum(),
        wheels: reports.into_iter().map(|r| r.stats).collect(),
    };
    Ok((end, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::SimChannel;
    use parking_lot::Mutex as PlMutex;

    /// Two wheels, one rank each, ping-pong over the communicator: the
    /// end time must equal the single-wheel rendezvous timing.
    #[test]
    fn cross_partition_ping_pong_matches_single_wheel_timing() {
        let lookahead = SimDuration::from_us(1.0);
        let cost = SimDuration::from_us(3.0); // per message, >= lookahead

        // Partitioned: rank 0 on wheel 0 sends at t=0 (arrival 3us);
        // rank 1 on wheel 1 receives, replies (arrival 6us).
        let mut wheels = Vec::new();
        let got = Arc::new(PlMutex::new(None::<u64>));
        for w in 0..2usize {
            let inbox = SimChannel::<u32>::new(format!("inbox-{w}"));
            let outbox = Outbox::<u32>::new(2);
            let mut engine = Engine::new();
            {
                let inbox = inbox.clone();
                let outbox = outbox.clone();
                let got = Arc::clone(&got);
                engine.spawn_inline(format!("rank-{w}"), move |ctx| async move {
                    if w == 0 {
                        outbox.send(
                            1,
                            RemoteMsg {
                                arrival: ctx.now() + cost,
                                dest_slot: 1,
                                order: (0, 0),
                                payload: 7,
                            },
                        );
                        ctx.advance(cost).await;
                        let x = inbox.recv_inline(&ctx).await;
                        assert_eq!(x, 8);
                        *got.lock() = Some(ctx.now().as_ps());
                    } else {
                        let x = inbox.recv_inline(&ctx).await;
                        outbox.send(
                            0,
                            RemoteMsg {
                                arrival: ctx.now() + cost,
                                dest_slot: 0,
                                order: (1, 0),
                                payload: x + 1,
                            },
                        );
                        ctx.advance(cost).await;
                    }
                });
            }
            let deliver_inbox = inbox.clone();
            wheels.push(Wheel {
                engine,
                outbox,
                deliver: Box::new(move |ictx: &InjectCtx, _slot, v| {
                    deliver_inbox.send_injected(ictx, v);
                }),
            });
        }
        let comms = local_bus::<u32>(2);
        let (end, stats) = run_partitioned(wheels, comms, lookahead, None).unwrap();
        assert_eq!(end.as_us(), 6.0);
        assert_eq!(*got.lock(), Some(6_000_000));
        assert_eq!(stats.partitions, 2);
        assert_eq!(stats.messages, 2);
        assert!(stats.windows >= 2);
    }

    /// The same-wheel bucket of the exchange loops back untouched, so a
    /// single-partition run still works through the full protocol.
    #[test]
    fn single_partition_loopback_delivers() {
        let lookahead = SimDuration::from_us(1.0);
        let inbox = SimChannel::<u32>::new("inbox");
        let outbox = Outbox::<u32>::new(1);
        let mut engine = Engine::new();
        let got = Arc::new(PlMutex::new(None::<(u32, u64)>));
        {
            let outbox = outbox.clone();
            engine.spawn_inline("tx", move |ctx| async move {
                outbox.send(
                    0,
                    RemoteMsg {
                        arrival: ctx.now() + SimDuration::from_us(2.0),
                        dest_slot: 0,
                        order: (0, 0),
                        payload: 41,
                    },
                );
                ctx.advance(SimDuration::from_us(2.0)).await;
            });
        }
        {
            let inbox_rx = inbox.clone();
            let got = Arc::clone(&got);
            engine.spawn_inline("rx", move |ctx| async move {
                let v = inbox_rx.recv_inline(&ctx).await;
                *got.lock() = Some((v, ctx.now().as_ps()));
            });
        }
        let deliver_inbox = inbox.clone();
        let wheels = vec![Wheel {
            engine,
            outbox,
            deliver: Box::new(move |ictx: &InjectCtx, _slot, v| {
                deliver_inbox.send_injected(ictx, v);
            }),
        }];
        let (end, _) = run_partitioned(wheels, local_bus::<u32>(1), lookahead, None).unwrap();
        assert_eq!(end.as_us(), 2.0);
        assert_eq!(*got.lock(), Some((41, 2_000_000)));
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_is_rejected_at_construction() {
        let engine = Engine::new();
        let wheels = vec![Wheel {
            engine,
            outbox: Outbox::<u8>::new(1),
            deliver: Box::new(|_ictx: &InjectCtx, _slot, _v: u8| {}),
        }];
        let _ = run_partitioned(wheels, local_bus::<u8>(1), SimDuration::ZERO, None);
    }

    /// A panic on one wheel must surface as that wheel's error while the
    /// other wheels unblock via the abort protocol instead of hanging.
    #[test]
    fn panic_on_one_wheel_aborts_the_others() {
        let lookahead = SimDuration::from_us(1.0);
        let mut wheels = Vec::new();
        for w in 0..2usize {
            let inbox = SimChannel::<u8>::new(format!("inbox-{w}"));
            let outbox = Outbox::<u8>::new(2);
            let mut engine = Engine::new();
            {
                let inbox = inbox.clone();
                engine.spawn_inline(format!("rank-{w}"), move |ctx| async move {
                    if w == 0 {
                        ctx.advance(SimDuration::from_us(0.5)).await;
                        panic!("wheel zero dies");
                    } else {
                        // Waits forever for a message wheel 0 never sends.
                        let _ = inbox.recv_inline(&ctx).await;
                    }
                });
            }
            let deliver_inbox = inbox.clone();
            wheels.push(Wheel {
                engine,
                outbox,
                deliver: Box::new(move |ictx: &InjectCtx, _slot, v| {
                    deliver_inbox.send_injected(ictx, v);
                }),
            });
        }
        match run_partitioned(wheels, local_bus::<u8>(2), lookahead, None) {
            Err(SimError::ProcessPanicked { name, message, .. }) => {
                assert_eq!(name, "rank-0");
                assert!(message.contains("wheel zero dies"));
            }
            other => panic!("expected the panicking wheel's error, got {other:?}"),
        }
    }

    /// Deadlocked-but-otherwise-complete worlds report a merged deadlock.
    #[test]
    fn blocked_processes_merge_into_one_deadlock() {
        let lookahead = SimDuration::from_us(1.0);
        let mut wheels = Vec::new();
        for w in 0..2usize {
            let inbox = SimChannel::<u8>::new(format!("inbox-{w}"));
            let mut engine = Engine::new();
            {
                let inbox = inbox.clone();
                engine.spawn_inline(format!("stuck-{w}"), move |ctx| async move {
                    let _ = inbox.recv_inline(&ctx).await;
                });
            }
            let deliver_inbox = inbox.clone();
            wheels.push(Wheel {
                engine,
                outbox: Outbox::<u8>::new(2),
                deliver: Box::new(move |ictx: &InjectCtx, _slot, v| {
                    deliver_inbox.send_injected(ictx, v);
                }),
            });
        }
        match run_partitioned(wheels, local_bus::<u8>(2), lookahead, None) {
            Err(SimError::Deadlock { blocked, at }) => {
                assert_eq!(blocked, vec!["stuck-0".to_string(), "stuck-1".to_string()]);
                assert_eq!(at, SimTime::ZERO);
            }
            other => panic!("expected a merged deadlock, got {other:?}"),
        }
    }
}
