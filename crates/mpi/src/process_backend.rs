//! The multi-process cluster backend: run the partitioned cluster
//! collectives with wheels `1..n` hosted in child worker processes,
//! wheel 0 and the window router in the calling (hub) process.
//!
//! The hub and every worker rebuild the identical world from a tiny
//! [`ClusterJob`] description — the simulation is a pure function of
//! `(nodes, bytes, op, partitions)` plus the fault plan's stragglers and
//! the intra-node phases the hub priced — so the only state on the wire
//! is the window-barrier exchange itself plus one final report per
//! worker, which carries the model time the wheel's faults injected.
//! That is what makes the backend byte-identical to the in-process
//! channel backend at every partition count: same domains, same fold,
//! same lookahead, same message ordering keys.
//!
//! Worker processes are spawned by the caller (normally the supervisor
//! in `maia-core`); this module provides the hub entry point
//! ([`cluster_collective_run_process`]), the worker entry point
//! ([`worker_main`], called by the `maia-bench partition-worker`
//! subcommand), the process-default backend selector, and the
//! [`ChaosSpec`] fault injection the chaos battery drives.

use std::io::{self, Read, Write};
use std::sync::{Mutex, PoisonError};

use maia_arch::faults::Straggler;
use maia_arch::Faults;
use maia_sim::partition::process::{wire, WireItem};
use maia_sim::partition::{PartitionRunStats, ProcessConfig, WorkerEndpoint};
use maia_sim::{SimDuration, SimTime};

use crate::bench::CollectiveOp;
use crate::partition::PartitionPlan;
use crate::placement::WorldSpec;
use crate::world::{MpiWorld, Msg, ProcessWorldError, Rank};

/// Which transport carries the window-barrier exchanges of a
/// partitioned cluster run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-process: every wheel on its own thread, exchanges over
    /// channels. The default.
    Channel,
    /// Multi-process: wheels `1..n` in supervised child processes,
    /// exchanges over pipes.
    Process,
}

impl Backend {
    /// Parse a CLI spelling: `channel` or `process`.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "channel" => Some(Backend::Channel),
            "process" => Some(Backend::Process),
            _ => None,
        }
    }

    /// CLI spelling of this backend.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Channel => "channel",
            Backend::Process => "process",
        }
    }
}

/// Process-default backend selector, set from the CLI (`--backend`) and
/// read once per run by `maia_core::RunConfig::current`. Defaults to
/// `Channel`.
static BACKEND: Mutex<Backend> = Mutex::new(Backend::Channel);

/// Select the exchange backend partitioned cluster runs should use.
pub fn set_backend(b: Backend) {
    *BACKEND.lock().unwrap_or_else(PoisonError::into_inner) = b;
}

/// The currently selected exchange backend.
pub fn backend() -> Backend {
    *BACKEND.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wheel count a cluster run actually uses: more wheels than domains
/// would idle, so `--partitions 8` on a 4-node world clamps to 4.
pub fn effective_partitions(nodes: usize, partitions: usize) -> usize {
    partitions.min(nodes).max(1)
}

impl WireItem for Msg {
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, self.src as u32);
        wire::put_u32(out, self.tag as u32);
        wire::put_u64(out, self.bytes);
        match &self.data {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                wire::put_u32(out, v.len() as u32);
                for &x in v {
                    wire::put_f64(out, x);
                }
            }
        }
        wire::put_u64(out, self.ready.as_ps());
    }

    fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
        let src = r.take_u32()? as usize;
        let tag = r.take_u32()? as i32;
        let bytes = r.take_u64()?;
        let data = match r.take_u8()? {
            0 => None,
            1 => {
                let n = r.take_u32()? as usize;
                let mut v = Vec::with_capacity(n.min(1 << 20));
                for _ in 0..n {
                    v.push(r.take_f64()?);
                }
                Some(v)
            }
            _ => return None,
        };
        let ready = SimTime::ZERO + SimDuration::from_ps(r.take_u64()?);
        Some(Msg {
            src,
            tag,
            bytes,
            data,
            ready,
        })
    }
}

/// Everything a worker needs to rebuild its share of a cluster
/// collective run. Sent as the opaque job payload of the handshake.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterJob {
    /// Cluster size (one leader rank per node).
    pub nodes: usize,
    /// Collective payload bytes.
    pub bytes: u64,
    /// Which collective.
    pub op: CollectiveOp,
    /// Effective wheel count (already clamped to `nodes`).
    pub partitions: usize,
    /// The wheel this worker hosts (`1..partitions`).
    pub wheel: usize,
    /// Whether the hub carries a telemetry probe — when set, the worker
    /// records its wheel's probe stream and ships it home in the report.
    pub probe: bool,
    /// The intra-node (pre, post) phases as the hub priced them under the
    /// run's faults: the worker charges them as given, re-deriving
    /// nothing that injects model time.
    pub phases: (SimDuration, SimDuration),
    /// The fault plan's straggling ranks.
    pub stragglers: Vec<Straggler>,
}

/// Encoded size of one straggler (`u32` rank, two `f64`s): bounds how
/// many a job payload can hold.
const STRAGGLER_BYTES: usize = 20;

fn op_code(op: CollectiveOp) -> u8 {
    match op {
        CollectiveOp::Bcast => 0,
        CollectiveOp::Allreduce => 1,
        CollectiveOp::Allgather => 2,
        CollectiveOp::Alltoall => 3,
    }
}

fn op_from(code: u8) -> Option<CollectiveOp> {
    match code {
        0 => Some(CollectiveOp::Bcast),
        1 => Some(CollectiveOp::Allreduce),
        2 => Some(CollectiveOp::Allgather),
        3 => Some(CollectiveOp::Alltoall),
        _ => None,
    }
}

impl ClusterJob {
    /// Serialize for the handshake's job frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_u32(&mut out, self.nodes as u32);
        wire::put_u64(&mut out, self.bytes);
        out.push(op_code(self.op));
        wire::put_u32(&mut out, self.partitions as u32);
        wire::put_u32(&mut out, self.wheel as u32);
        out.push(self.probe as u8);
        wire::put_u64(&mut out, self.phases.0.as_ps());
        wire::put_u64(&mut out, self.phases.1.as_ps());
        wire::put_u32(&mut out, self.stragglers.len() as u32);
        for s in &self.stragglers {
            wire::put_u32(&mut out, s.rank);
            wire::put_f64(&mut out, s.slowdown);
            wire::put_f64(&mut out, s.from_s);
        }
        out
    }

    /// Inverse of [`ClusterJob::encode`]; `None` on malformed input,
    /// including a straggler with a non-finite slowdown or onset.
    pub fn decode(bytes: &[u8]) -> Option<ClusterJob> {
        let mut r = wire::Reader::new(bytes);
        let mut job = ClusterJob {
            nodes: r.take_u32()? as usize,
            bytes: r.take_u64()?,
            op: op_from(r.take_u8()?)?,
            partitions: r.take_u32()? as usize,
            wheel: r.take_u32()? as usize,
            probe: r.take_u8()? != 0,
            phases: (SimDuration::from_ps(r.take_u64()?), SimDuration::from_ps(r.take_u64()?)),
            stragglers: Vec::new(),
        };
        let count = r.take_u32()? as usize;
        job.stragglers.reserve(count.min(r.remaining() / STRAGGLER_BYTES));
        let finite = |x: f64| x.is_finite().then_some(x);
        for _ in 0..count {
            job.stragglers.push(Straggler {
                rank: r.take_u32()?,
                slowdown: finite(r.take_f64()?)?,
                from_s: finite(r.take_f64()?)?,
            });
        }
        (r.remaining() == 0).then_some(job)
    }
}

/// The rank program of a cluster collective, shared by the in-process
/// channel backend ([`crate::bench::cluster_collective_run_plan`]), the
/// hub and every worker: intra-node phase, inter-node collective,
/// intra-node phase, with the `(pre, post)` phase durations of
/// [`crate::fastpath::cluster_intra_phases`].
pub(crate) fn cluster_program(
    bytes: u64,
    op: CollectiveOp,
    (pre, post): (SimDuration, SimDuration),
) -> impl Fn(Rank) -> std::pin::Pin<Box<dyn std::future::Future<Output = Rank> + Send>>
       + Send
       + Sync
       + 'static {
    move |mut rank| {
        Box::pin(async move {
            rank.compute(pre).await;
            match op {
                CollectiveOp::Allreduce => rank.allreduce(bytes).await,
                CollectiveOp::Alltoall => rank.alltoall(bytes).await,
                other => panic!("cluster collectives cover allreduce and alltoall, not {other:?}"),
            }
            rank.compute(post).await;
            rank
        })
    }
}

/// Hub entry point: run one cluster collective on the machine `faults`
/// describes across already-spawned worker processes (`workers[i]`
/// hosts wheel `i + 1`). Returns the completion time in seconds, the
/// partition-run statistics, and the number of heartbeat intervals that
/// passed without a worker frame (wall-side health telemetry — never
/// part of the deterministic result). All but the last are bit-identical
/// to [`crate::bench::cluster_collective_run_under`], and so is the time
/// tallied on `faults`.
pub fn cluster_collective_run_process(
    faults: &Faults,
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
    partitions: usize,
    workers: Vec<(Box<dyn Read + Send>, Box<dyn Write + Send>)>,
    cfg: ProcessConfig,
) -> Result<(f64, PartitionRunStats, u64), ProcessWorldError> {
    let eff = effective_partitions(nodes, partitions);
    let plan = PartitionPlan::by_node(eff);
    // The attempt tallies on its own, added to `faults` only once every
    // wheel has reported: a lost attempt injects nothing.
    let attempt = Faults {
        tally: Faults::armed("attempt", None).tally,
        ..faults.clone()
    };
    let spec = WorldSpec::node_leaders(nodes).with_faults(&attempt);
    let phases = crate::fastpath::cluster_intra_phases(bytes, op, &attempt);
    // Fetched once: each fetch runs the telemetry factory, which counts
    // an engine.
    let probe = maia_sim::probe::probe_for_current_thread();
    let jobs: Vec<Vec<u8>> = (1..eff)
        .map(|wheel| {
            ClusterJob {
                nodes,
                bytes,
                op,
                partitions: eff,
                wheel,
                probe: probe.is_some(),
                phases,
                stragglers: faults.stragglers.clone(),
            }
            .encode()
        })
        .collect();
    let (res, stats, missed) = MpiWorld::run_partitioned_hub(
        &spec,
        &plan,
        cluster_program(bytes, op, phases),
        workers,
        jobs,
        probe,
        cfg,
    )?;
    faults.add_injected_ps(attempt.injected_ps());
    Ok((res.end_time.as_secs_f64(), stats, missed))
}

/// Fault injection for the chaos battery, selected by a worker's
/// `MAIA_WORKER_CHAOS` spec:
///
/// * `panic-on-connect` — die before the handshake (startup crash),
/// * `stall` — handshake, then go silent forever (hang; the hub's
///   heartbeat deadline converts it into a loss),
/// * `kill:<window>` — abort without ceremony right before exchange
///   `<window>` (SIGKILL mid-run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chaos {
    PanicOnConnect,
    Stall,
    KillAtWindow(u64),
}

/// A parsed `MAIA_WORKER_CHAOS` spec. A trailing `:once` arms the fault
/// only on the first spawn attempt, so a supervised respawn heals it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosSpec {
    pub chaos: Chaos,
    /// Whether only spawn attempt 0 injects the fault.
    pub once: bool,
}

impl ChaosSpec {
    /// Parse one of the spellings above, optionally followed by `:once`.
    pub fn parse(spec: &str) -> Option<ChaosSpec> {
        let (base, once) = match spec.strip_suffix(":once") {
            Some(base) => (base, true),
            None => (spec, false),
        };
        let chaos = match base {
            "panic-on-connect" => Chaos::PanicOnConnect,
            "stall" => Chaos::Stall,
            _ => Chaos::KillAtWindow(base.strip_prefix("kill:")?.parse().ok()?),
        };
        Some(ChaosSpec { chaos, once })
    }

    /// The fault a worker on spawn attempt `attempt` injects.
    pub fn armed(self, attempt: u32) -> Option<Chaos> {
        (!self.once || attempt == 0).then_some(self.chaos)
    }
}

impl std::fmt::Display for ChaosSpec {
    /// The spelling [`ChaosSpec::parse`] reads back.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.chaos {
            Chaos::PanicOnConnect => f.write_str("panic-on-connect")?,
            Chaos::Stall => f.write_str("stall")?,
            Chaos::KillAtWindow(w) => write!(f, "kill:{w}")?,
        }
        f.write_str(if self.once { ":once" } else { "" })
    }
}

/// Worker entry point, called by the `maia-bench partition-worker`
/// subcommand with the process's stdin/stdout as the pipe pair. Performs
/// the handshake, rebuilds the world described by the job payload,
/// drives its wheel to completion and ships the report, injecting
/// `chaos` on the way. Nothing in the worker may print to the stdout
/// side — it *is* the protocol channel.
pub fn worker_main(
    wheel: usize,
    partitions: usize,
    reader: Box<dyn Read + Send>,
    writer: Box<dyn Write + Send>,
    cfg: ProcessConfig,
    chaos: Option<Chaos>,
) -> io::Result<()> {
    if chaos == Some(Chaos::PanicOnConnect) {
        // Crash during startup, before the hub ever hears from us.
        std::process::exit(101);
    }
    let (endpoint, job) = WorkerEndpoint::<Msg>::connect(wheel, partitions, reader, writer, cfg)?;
    let job = ClusterJob::decode(&job).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, "malformed cluster job payload")
    })?;
    if job.wheel != wheel || job.partitions != partitions {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "job is for wheel {}/{} but this worker is {wheel}/{partitions}",
                job.wheel, job.partitions
            ),
        ));
    }
    if chaos == Some(Chaos::Stall) {
        // Handshake succeeded; now go silent. The hub's heartbeat
        // deadline turns this into a WorkerLoss; the supervisor kills us.
        endpoint.stop_heartbeats();
        loop {
            std::thread::sleep(std::time::Duration::from_secs(3600));
        }
    }
    let kill_at = match chaos {
        Some(Chaos::KillAtWindow(w)) => Some(w),
        _ => None,
    };
    // The report frame carries this wheel's tally home.
    let faults = Faults {
        stragglers: job.stragglers,
        ..Faults::armed(&format!("wheel {wheel}"), None)
    };
    let spec = WorldSpec::node_leaders(job.nodes).with_faults(&faults);
    let plan = PartitionPlan::by_node(job.partitions);
    MpiWorld::run_partitioned_worker(
        &spec,
        &plan,
        cluster_program(job.bytes, job.op, job.phases),
        wheel,
        endpoint,
        job.probe,
        kill_at,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    fn fast_cfg() -> ProcessConfig {
        ProcessConfig {
            heartbeat_interval: std::time::Duration::from_millis(20),
            heartbeat_deadline: std::time::Duration::from_millis(2000),
            handshake_deadline: std::time::Duration::from_secs(10),
        }
    }

    #[test]
    fn cluster_job_roundtrips() {
        let job = ClusterJob {
            nodes: 32,
            bytes: 65536,
            op: CollectiveOp::Alltoall,
            partitions: 4,
            wheel: 3,
            probe: true,
            phases: (SimDuration::from_ps(7), SimDuration::from_ps(11)),
            stragglers: Vec::new(),
        };
        assert_eq!(ClusterJob::decode(&job.encode()), Some(job.clone()));
        assert_eq!(ClusterJob::decode(&[1, 2, 3]), None);

        let slow = ClusterJob {
            stragglers: vec![
                Straggler { rank: 3, slowdown: 4.0, from_s: 0.0 },
                Straggler { rank: 17, slowdown: 1.5, from_s: 2.5e-4 },
            ],
            ..job.clone()
        };
        let bytes = slow.encode();
        assert_eq!(ClusterJob::decode(&bytes), Some(slow));
        // Truncated anywhere: malformed, never a partial job.
        for cut in [bytes.len() - 1, bytes.len() - STRAGGLER_BYTES, 30] {
            assert_eq!(ClusterJob::decode(&bytes[..cut]), None, "cut at {cut}");
        }

        // A count claiming u32::MAX stragglers over an empty tail is
        // malformed, and preallocates nothing for them.
        let mut lying = job.encode();
        let at = lying.len() - 4;
        lying[at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(ClusterJob::decode(&lying), None);

        let nan = ClusterJob {
            stragglers: vec![Straggler { rank: 0, slowdown: f64::NAN, from_s: 0.0 }],
            ..job
        };
        assert_eq!(ClusterJob::decode(&nan.encode()), None);
    }

    #[test]
    fn chaos_specs_roundtrip_and_heal_on_respawn() {
        for spec in ["panic-on-connect", "stall", "stall:once", "kill:1", "kill:1:once"] {
            let parsed = ChaosSpec::parse(spec).expect(spec);
            assert_eq!(parsed.to_string(), spec);
        }
        for bad in ["", "bogus", "kill:", "kill:x", "kill:-1", "kill:once", "stall:twice", "once"] {
            assert_eq!(ChaosSpec::parse(bad), None, "{bad:?}");
        }
        let once = ChaosSpec::parse("kill:1:once").expect("spec");
        assert_eq!(once.armed(0), Some(Chaos::KillAtWindow(1)));
        assert_eq!(once.armed(1), None);
        let always = ChaosSpec::parse("stall").expect("spec");
        assert_eq!(always.armed(2), Some(Chaos::Stall));
    }

    #[test]
    fn msg_roundtrips_through_the_wire() {
        let msgs = [
            Msg {
                src: 7,
                tag: -3,
                bytes: 4096,
                data: Some(vec![1.5, -2.25, 0.0]),
                ready: SimTime::ZERO + SimDuration::from_ps(123_456_789),
            },
            Msg {
                src: 0,
                tag: 0,
                bytes: 0,
                data: None,
                ready: SimTime::ZERO,
            },
        ];
        for m in msgs {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            let mut r = wire::Reader::new(&buf);
            let back = Msg::decode(&mut r).expect("decodes");
            assert_eq!(back.src, m.src);
            assert_eq!(back.tag, m.tag);
            assert_eq!(back.bytes, m.bytes);
            assert_eq!(back.data, m.data);
            assert_eq!(back.ready, m.ready);
            assert_eq!(r.remaining(), 0);
        }
    }

    /// The full hub/worker protocol, with `worker_main` running on
    /// threads over socket pairs instead of child processes, lands on
    /// the exact end time of the in-process channel backend.
    #[test]
    fn process_protocol_matches_channel_backend() {
        for &(nodes, partitions) in &[(8usize, 2usize), (8, 4)] {
            let (want, want_stats) =
                crate::bench::cluster_collective_run_with(nodes, 4096, CollectiveOp::Allreduce, partitions);

            let eff = effective_partitions(nodes, partitions);
            let mut workers: Vec<(Box<dyn Read + Send>, Box<dyn Write + Send>)> = Vec::new();
            let mut threads = Vec::new();
            for wheel in 1..eff {
                let (hub_side, worker_side) = UnixStream::pair().expect("socketpair");
                workers.push((
                    Box::new(hub_side.try_clone().expect("clone")),
                    Box::new(hub_side),
                ));
                threads.push(std::thread::spawn(move || {
                    let r: Box<dyn Read + Send> =
                        Box::new(worker_side.try_clone().expect("clone"));
                    let w: Box<dyn Write + Send> = Box::new(worker_side);
                    worker_main(wheel, eff, r, w, fast_cfg(), None)
                }));
            }
            let (got, got_stats, _missed) = cluster_collective_run_process(
                &Faults::default(),
                nodes,
                4096,
                CollectiveOp::Allreduce,
                partitions,
                workers,
                fast_cfg(),
            )
            .expect("process run completes");
            for t in threads {
                t.join().expect("worker thread").expect("worker io");
            }
            assert_eq!(got.to_bits(), want.to_bits(), "p={partitions}");
            assert_eq!(got_stats.windows, want_stats.windows, "p={partitions}");
            assert_eq!(got_stats.messages, want_stats.messages, "p={partitions}");
        }
    }

    /// A live worker that breaks the protocol is a lost worker, which the
    /// supervisor may retry, not a simulation failure: here it sends a
    /// Batch claiming `u32::MAX` messages, or a Report mid-window, then a
    /// well-formed `PeerAborted` Report once the hub has aborted the run.
    #[test]
    fn protocol_violation_by_a_live_worker_is_a_loss() {
        use maia_sim::partition::process::{encode_report, WIRE_VERSION};
        use maia_sim::partition::{DriveStatus, WheelReport, WheelStats};

        fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
            let mut out = (payload.len() as u32 + 1).to_le_bytes().to_vec();
            out.push(tag);
            out.extend_from_slice(payload);
            out
        }
        fn read_tag(r: &mut UnixStream) -> u8 {
            let mut len = [0u8; 4];
            r.read_exact(&mut len).expect("frame length");
            let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
            r.read_exact(&mut body).expect("frame body");
            body[0]
        }
        let report = WheelReport {
            status: DriveStatus::PeerAborted,
            blocked: Vec::new(),
            end: SimTime::ZERO,
            windows: 0,
            stats: WheelStats::default(),
        };
        // A well-formed result: no ranks, nothing injected, no probe.
        let mut extra = Vec::new();
        wire::put_u32(&mut extra, 0);
        wire::put_u64(&mut extra, 0);
        wire::put_bytes(&mut extra, &[]);
        let report = frame(8, &encode_report(&report, &extra));
        let mut batch = vec![1u8];
        wire::put_u64(&mut batch, 100);
        wire::put_u32(&mut batch, 0);
        wire::put_u32(&mut batch, u32::MAX);

        for (violation, detail) in [
            (frame(3, &batch), "malformed batch frame"),
            (report.clone(), "report frame arrived mid-window"),
        ] {
            let (hub_side, mut worker) = UnixStream::pair().expect("socketpair");
            let report = report.clone();
            let fake = std::thread::spawn(move || {
                let mut hello = Vec::new();
                for v in [WIRE_VERSION, 1, 2] {
                    wire::put_u32(&mut hello, v);
                }
                worker.write_all(&frame(1, &hello)).expect("hello");
                assert_eq!(read_tag(&mut worker), 2, "the hub sends the job");
                worker.write_all(&violation).expect("violation");
                assert_eq!(read_tag(&mut worker), 6, "the hub aborts the run");
                worker.write_all(&report).expect("report");
            });
            let phases = (SimDuration::ZERO, SimDuration::ZERO);
            let result = MpiWorld::run_partitioned_hub(
                &WorldSpec::node_leaders(2),
                &PartitionPlan::by_node(2),
                cluster_program(64, CollectiveOp::Allreduce, phases),
                vec![(
                    Box::new(hub_side.try_clone().expect("clone")),
                    Box::new(hub_side),
                )],
                vec![Vec::new()],
                None,
                fast_cfg(),
            );
            fake.join().expect("fake worker");
            match result {
                Err(ProcessWorldError::Lost { loss, .. }) => {
                    assert_eq!((loss.wheel, loss.detail.as_str()), (1, detail));
                }
                Err(other) => panic!("{detail}: expected a lost worker, got {other}"),
                Ok(_) => panic!("{detail}: expected a lost worker, the run completed"),
            }
        }
    }
}
