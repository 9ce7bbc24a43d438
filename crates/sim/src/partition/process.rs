//! Cross-process [`SimCommunicator`] backend: domain wheels sharded
//! across child OS processes over a length-prefixed pipe protocol.
//!
//! The paper's rack gets its fault isolation from separate OS images;
//! this backend gives the partitioned DES the same property. One
//! *hub* process hosts wheel 0 and routes every window-barrier
//! exchange; each remaining wheel lives in a worker process connected
//! to the hub by a byte pipe pair (conventionally the child's
//! stdin/stdout). The virtual-time protocol is exactly the one
//! [`super::LocalChannelCommunicator`] runs over in-process channels —
//! same floors, same windows, same message routing — so figures and
//! virtual telemetry are bit-identical across backends.
//!
//! # Wire protocol
//!
//! Every frame is `[u32 len (LE)] [u8 tag] [len-1 bytes payload]`.
//! Integers are little-endian; `f64` travels as `to_bits`; strings are
//! `u32` length + UTF-8. Tags:
//!
//! | tag | name      | direction | payload |
//! |-----|-----------|-----------|---------|
//! | 1   | Hello     | worker→hub | `u32 version`, `u32 wheel`, `u32 partitions` |
//! | 2   | Job       | hub→worker | opaque bytes (the caller's job spec) |
//! | 3   | Batch     | worker→hub | `u8 has_floor`, `u64 floor`, non-empty non-self buckets as `u32 dest`, `u32 count`, messages |
//! | 4   | Window    | hub→worker | `u64 next_ps`, `u32 count`, messages routed to this wheel |
//! | 5   | Done      | hub→worker | empty — global floor is infinite |
//! | 6   | Abort     | both      | empty — sender's side failed |
//! | 7   | Heartbeat | worker→hub | empty, sent every `heartbeat_interval` |
//! | 8   | Report    | worker→hub | encoded [`WheelReport`] + opaque extra bytes |
//!
//! A message is `u64 arrival_ps`, `u32 dest_slot`, `u64 order.0`,
//! `u64 order.1`, then the payload via [`WireItem`].
//!
//! A session is one Hello, then any number of jobs, each a Job frame
//! answered by Batch/Window exchanges until Done (or Abort) and one
//! Report; the hub closing its pipe between jobs ends the worker. So a
//! worker process serves every job of its hub, and only a job that
//! completed without an abort leaves the session ready for the next.
//!
//! # Failure semantics
//!
//! The hub watches each worker two ways: a broken/EOF pipe is a
//! *crash*, and a quiet pipe past `heartbeat_deadline` is a *hang*
//! (workers heartbeat from a dedicated thread even while their wheel
//! computes, so a live-but-slow window never trips the deadline — only
//! a frozen or stopped process does). Either one aborts the run and is
//! reported as a [`WorkerLoss`] naming the wheel, the window, and the
//! last global floor (the virtual time the world had reached). Retry,
//! backoff and degradation policy live a layer up, in the supervisor.

use std::io::{self, Read, Write};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};

use parking_lot::{Mutex, MutexGuard};

use super::{
    DriveStatus, ExchangeOutcome, RemoteMsg, SimCommunicator, WheelReport, WheelStats,
};
use crate::engine::{ProcessId, SimError};
use crate::probe::Probe;
use crate::time::SimTime;

/// Protocol version carried in the Hello frame; both sides must match.
pub const WIRE_VERSION: u32 = 5;

/// Frames above this size indicate a desynchronized stream, not data.
const MAX_FRAME: u32 = 1 << 30;

/// Most payload bytes [`read_frame`] reserves before they arrive; larger
/// frames grow with the bytes actually read, so a lying length header
/// costs a read error rather than a gigabyte allocation.
const FRAME_PREALLOC: usize = 64 << 10;

/// Encoded size of a message before its payload (`u64` arrival, `u32`
/// slot, two `u64` order keys): the floor of every message's encoding,
/// which bounds how many messages `n` frame bytes can hold.
const MSG_HEADER_BYTES: usize = 28;

const TAG_HELLO: u8 = 1;
const TAG_JOB: u8 = 2;
const TAG_BATCH: u8 = 3;
const TAG_WINDOW: u8 = 4;
const TAG_DONE: u8 = 5;
const TAG_ABORT: u8 = 6;
const TAG_HEARTBEAT: u8 = 7;
const TAG_REPORT: u8 = 8;

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

/// Byte-level encoding helpers shared by every frame (and by payload
/// codecs in higher crates).
pub mod wire {
    /// Append a `u32`, little-endian.
    pub fn put_u32(out: &mut Vec<u8>, v: u32) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its bit pattern (lossless round-trip).
    pub fn put_f64(out: &mut Vec<u8>, v: f64) {
        put_u64(out, v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(out: &mut Vec<u8>, s: &str) {
        put_u32(out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }

    /// Append length-prefixed opaque bytes.
    pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
        put_u32(out, b.len() as u32);
        out.extend_from_slice(b);
    }

    /// Sequential decoder over a byte slice; every `take_*` returns
    /// `None` on underrun instead of panicking, so a truncated frame is
    /// a protocol error, not a crash.
    pub struct Reader<'a> {
        buf: &'a [u8],
    }

    impl<'a> Reader<'a> {
        /// Start decoding `buf`.
        pub fn new(buf: &'a [u8]) -> Self {
            Reader { buf }
        }

        /// Bytes not yet consumed.
        pub fn remaining(&self) -> usize {
            self.buf.len()
        }

        fn take(&mut self, n: usize) -> Option<&'a [u8]> {
            if self.buf.len() < n {
                return None;
            }
            let (head, tail) = self.buf.split_at(n);
            self.buf = tail;
            Some(head)
        }

        /// Decode a `u8`.
        pub fn take_u8(&mut self) -> Option<u8> {
            self.take(1).map(|b| b[0])
        }

        /// Decode a little-endian `u32`.
        pub fn take_u32(&mut self) -> Option<u32> {
            self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
        }

        /// Decode a little-endian `u64`.
        pub fn take_u64(&mut self) -> Option<u64> {
            self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
        }

        /// Decode an `f64` from its bit pattern.
        pub fn take_f64(&mut self) -> Option<f64> {
            self.take_u64().map(f64::from_bits)
        }

        /// Decode a length-prefixed UTF-8 string.
        pub fn take_str(&mut self) -> Option<String> {
            let n = self.take_u32()? as usize;
            let b = self.take(n)?;
            String::from_utf8(b.to_vec()).ok()
        }

        /// Decode length-prefixed opaque bytes.
        pub fn take_bytes(&mut self) -> Option<Vec<u8>> {
            let n = self.take_u32()? as usize;
            self.take(n).map(<[u8]>::to_vec)
        }
    }
}

/// A payload type that can cross the process boundary. Implemented by
/// the layer that owns the message type (e.g. `maia_mpi` for its
/// `Msg`); encoding must be lossless so figures stay bit-identical.
pub trait WireItem: Sized + Send {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decode one value, or `None` on malformed input.
    fn decode(r: &mut wire::Reader<'_>) -> Option<Self>;
}

fn encode_msg<T: WireItem>(m: &RemoteMsg<T>, out: &mut Vec<u8>) {
    wire::put_u64(out, m.arrival.as_ps());
    wire::put_u32(out, m.dest_slot as u32);
    wire::put_u64(out, m.order.0);
    wire::put_u64(out, m.order.1);
    m.payload.encode(out);
}

fn decode_msg<T: WireItem>(r: &mut wire::Reader<'_>) -> Option<RemoteMsg<T>> {
    let arrival = SimTime(r.take_u64()?);
    let dest_slot = r.take_u32()? as usize;
    let order = (r.take_u64()?, r.take_u64()?);
    let payload = T::decode(r)?;
    Some(RemoteMsg {
        arrival,
        dest_slot,
        order,
        payload,
    })
}

/// Decode `count` messages. The count comes off the wire, so the
/// preallocation is capped by what the remaining bytes could hold: a
/// corrupt count fails on underrun instead of reserving room for
/// billions of messages.
fn decode_msgs<T: WireItem>(r: &mut wire::Reader<'_>, count: usize) -> Option<Vec<RemoteMsg<T>>> {
    let mut msgs = Vec::with_capacity(count.min(r.remaining() / MSG_HEADER_BYTES));
    for _ in 0..count {
        msgs.push(decode_msg::<T>(r)?);
    }
    Some(msgs)
}

fn write_frame(w: &mut dyn Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    let len = payload.len() as u32 + 1;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&[tag])?;
    w.write_all(payload)?;
    w.flush()
}

fn read_frame(r: &mut dyn Read) -> io::Result<(u8, Vec<u8>)> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    read_frame_body(r, len_buf)
}

/// [`read_frame`], or `None` when the stream ends before the frame's
/// first byte: the peer closed its end between frames.
fn read_frame_or_eof(r: &mut dyn Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    loop {
        match r.read(&mut len_buf[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut len_buf[1..])?;
    read_frame_body(r, len_buf).map(Some)
}

fn read_frame_body(r: &mut dyn Read, len_buf: [u8; 4]) -> io::Result<(u8, Vec<u8>)> {
    let len = u32::from_le_bytes(len_buf);
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} out of range"),
        ));
    }
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    let want = len as usize - 1;
    let mut payload = Vec::with_capacity(want.min(FRAME_PREALLOC));
    r.take(want as u64).read_to_end(&mut payload)?;
    if payload.len() != want {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!(
                "frame truncated after {} of {want} payload bytes",
                payload.len()
            ),
        ));
    }
    Ok((tag[0], payload))
}

// ---------------------------------------------------------------------------
// Report codec
// ---------------------------------------------------------------------------

/// Encode a [`WheelReport`] plus caller-defined `extra` bytes (rank
/// results, recorded probe activity, ...) for the Report frame.
pub fn encode_report(report: &WheelReport, extra: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    match &report.status {
        DriveStatus::Completed => out.push(0),
        DriveStatus::PeerAborted => out.push(1),
        DriveStatus::Error(SimError::Deadlock { blocked, at }) => {
            out.push(2);
            wire::put_u32(&mut out, blocked.len() as u32);
            for b in blocked {
                wire::put_str(&mut out, b);
            }
            wire::put_u64(&mut out, at.as_ps());
        }
        DriveStatus::Error(SimError::ProcessPanicked { name, message, at }) => {
            out.push(3);
            wire::put_str(&mut out, name);
            wire::put_str(&mut out, message);
            wire::put_u64(&mut out, at.as_ps());
        }
    }
    wire::put_u32(&mut out, report.blocked.len() as u32);
    for b in &report.blocked {
        wire::put_str(&mut out, b);
    }
    wire::put_u64(&mut out, report.end.as_ps());
    wire::put_u64(&mut out, report.windows);
    wire::put_u64(&mut out, report.stats.end_ps);
    wire::put_u64(&mut out, report.stats.messages_out);
    wire::put_u64(&mut out, report.stats.stall_wall_ns);
    wire::put_bytes(&mut out, extra);
    out
}

/// Decode a Report frame back into the report and its extra bytes.
pub fn decode_report(bytes: &[u8]) -> Option<(WheelReport, Vec<u8>)> {
    let mut r = wire::Reader::new(bytes);
    let status = match r.take_u8()? {
        0 => DriveStatus::Completed,
        1 => DriveStatus::PeerAborted,
        2 => {
            let n = r.take_u32()? as usize;
            let blocked = (0..n).map(|_| r.take_str()).collect::<Option<Vec<_>>>()?;
            DriveStatus::Error(SimError::Deadlock {
                blocked,
                at: SimTime(r.take_u64()?),
            })
        }
        3 => DriveStatus::Error(SimError::ProcessPanicked {
            name: r.take_str()?,
            message: r.take_str()?,
            at: SimTime(r.take_u64()?),
        }),
        _ => return None,
    };
    let n = r.take_u32()? as usize;
    let blocked = (0..n).map(|_| r.take_str()).collect::<Option<Vec<_>>>()?;
    let end = SimTime(r.take_u64()?);
    let windows = r.take_u64()?;
    let stats = WheelStats {
        end_ps: r.take_u64()?,
        messages_out: r.take_u64()?,
        stall_wall_ns: r.take_u64()?,
    };
    let extra = r.take_bytes()?;
    Some((
        WheelReport {
            status,
            blocked,
            end,
            windows,
            stats,
        },
        extra,
    ))
}

// ---------------------------------------------------------------------------
// Configuration and failure descriptions
// ---------------------------------------------------------------------------

/// Timing knobs of the process backend.
#[derive(Debug, Clone, Copy)]
pub struct ProcessConfig {
    /// How often a worker's heartbeat thread writes a Heartbeat frame.
    pub heartbeat_interval: Duration,
    /// How long the hub tolerates a silent worker (no frame of any
    /// kind) before declaring it hung.
    pub heartbeat_deadline: Duration,
    /// How long the hub waits for a worker's Hello at connect.
    pub handshake_deadline: Duration,
}

impl Default for ProcessConfig {
    fn default() -> Self {
        ProcessConfig {
            heartbeat_interval: Duration::from_millis(100),
            heartbeat_deadline: Duration::from_millis(2_000),
            handshake_deadline: Duration::from_secs(20),
        }
    }
}

/// A worker the hub gave up on: which wheel, at which exchange window,
/// and the last global floor — the virtual time the world had reached
/// when the loss was declared.
#[derive(Debug, Clone)]
pub struct WorkerLoss {
    /// The lost worker's wheel index.
    pub wheel: usize,
    /// Exchange windows completed before the loss (0 = lost during
    /// handshake).
    pub window: u64,
    /// Last agreed global floor, picoseconds of virtual time.
    pub at_ps: u64,
    /// What happened (`connection closed`, `heartbeat deadline ...`).
    pub detail: String,
}

impl std::fmt::Display for WorkerLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker for wheel {} lost at window {} (virtual time {} ps): {}",
            self.wheel, self.window, self.at_ps, self.detail
        )
    }
}

// ---------------------------------------------------------------------------
// Hub side
// ---------------------------------------------------------------------------

struct Link {
    wheel: usize,
    writer: Box<dyn Write + Send>,
    frames: Receiver<(u8, Vec<u8>)>,
    last_seen: Arc<Mutex<Instant>>,
}

enum LinkRecv {
    Frame(u8, Vec<u8>),
    /// The worker is gone: its pipe closed, or it stayed silent past the
    /// deadline. Carries the loss detail.
    Lost(String),
}

impl Link {
    fn spawn(wheel: usize, mut reader: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> Link {
        let (tx, frames) = channel();
        let last_seen = Arc::new(Mutex::new(Instant::now()));
        let seen = Arc::clone(&last_seen);
        std::thread::Builder::new()
            .name(format!("maia-hub-rx-{wheel}"))
            .spawn(move || {
                while let Ok(frame) = read_frame(&mut *reader) {
                    *seen.lock() = Instant::now();
                    if tx.send(frame).is_err() {
                        break;
                    }
                }
                // EOF/error: dropping `tx` disconnects the channel, which
                // the hub reads as a crash.
            })
            .expect("failed to spawn hub reader thread");
        Link {
            wheel,
            writer,
            frames,
            last_seen,
        }
    }

    /// Block for the next frame, enforcing the heartbeat deadline.
    /// `missed` counts polls that found the worker silent for at least
    /// one heartbeat interval.
    fn recv(&self, cfg: &ProcessConfig, deadline: Duration, missed: &mut u64) -> LinkRecv {
        let poll = cfg.heartbeat_interval.max(Duration::from_millis(10));
        loop {
            match self.frames.recv_timeout(poll) {
                Ok((tag, payload)) => return LinkRecv::Frame(tag, payload),
                Err(RecvTimeoutError::Timeout) => {
                    let idle = self.last_seen.lock().elapsed();
                    if idle >= cfg.heartbeat_interval {
                        *missed += 1;
                    }
                    if idle >= deadline {
                        return LinkRecv::Lost(format!(
                            "heartbeat deadline exceeded ({} ms silent)",
                            idle.as_millis()
                        ));
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return LinkRecv::Lost("connection closed".to_string());
                }
            }
        }
    }
}

/// Hub-side [`SimCommunicator`]: wheel 0's communicator *and* the
/// router every worker exchange flows through. Construct with
/// [`ProcessCommunicator::connect`] (or [`ProcessCommunicator::handshake`]
/// then [`ProcessCommunicator::start_job`]), drive wheel 0 against it (by
/// `&mut`, so it survives the drive), then call
/// [`ProcessCommunicator::collect_reports`]; a job that completed without
/// an abort leaves the session ready for the next `start_job`.
pub struct ProcessCommunicator<T> {
    links: Vec<Link>,
    partitions: usize,
    cfg: ProcessConfig,
    /// Whether the workers wait for a job: after the handshake, and after
    /// a job whose reports came home with no abort on either side.
    idle: bool,
    aborted: bool,
    loss: Option<WorkerLoss>,
    missed_heartbeats: u64,
    window: u64,
    last_floor_ps: u64,
    _t: PhantomData<fn() -> T>,
}

impl<T: WireItem> ProcessCommunicator<T> {
    /// Handshake with `workers` — pipe pairs in wheel order, wheel
    /// `i + 1` for `workers[i]` — and ship each its job payload.
    /// `jobs[i]` is delivered verbatim to wheel `i + 1`.
    pub fn connect(
        partitions: usize,
        workers: Vec<(Box<dyn Read + Send>, Box<dyn Write + Send>)>,
        jobs: Vec<Vec<u8>>,
        cfg: ProcessConfig,
    ) -> Result<Self, WorkerLoss> {
        let mut hub = Self::handshake(partitions, workers, cfg)?;
        hub.start_job(&jobs)?;
        Ok(hub)
    }

    /// Take each worker's Hello — `workers[i]` must claim wheel `i + 1`
    /// of `partitions` at [`WIRE_VERSION`] — and return the session idle,
    /// its workers waiting for their first job.
    pub fn handshake(
        partitions: usize,
        workers: Vec<(Box<dyn Read + Send>, Box<dyn Write + Send>)>,
        cfg: ProcessConfig,
    ) -> Result<Self, WorkerLoss> {
        assert!(partitions >= 1);
        assert_eq!(workers.len(), partitions - 1, "one worker per non-hub wheel");
        let links: Vec<Link> = workers
            .into_iter()
            .enumerate()
            .map(|(i, (r, w))| Link::spawn(i + 1, r, w))
            .collect();
        let mut missed = 0u64;
        for link in &links {
            let wheel = link.wheel;
            let fail = |detail: String| WorkerLoss {
                wheel,
                window: 0,
                at_ps: 0,
                detail,
            };
            match link.recv(&cfg, cfg.handshake_deadline, &mut missed) {
                LinkRecv::Frame(TAG_HELLO, payload) => {
                    let mut r = wire::Reader::new(&payload);
                    let (version, w, n) = match (r.take_u32(), r.take_u32(), r.take_u32()) {
                        (Some(v), Some(w), Some(n)) => (v, w, n),
                        _ => return Err(fail("malformed hello".to_string())),
                    };
                    if version != WIRE_VERSION {
                        return Err(fail(format!(
                            "wire version mismatch: hub {WIRE_VERSION}, worker {version}"
                        )));
                    }
                    if w as usize != wheel || n as usize != partitions {
                        return Err(fail(format!(
                            "layout mismatch: worker claims wheel {w} of {n}, expected \
                             wheel {wheel} of {partitions}"
                        )));
                    }
                }
                LinkRecv::Frame(tag, _) => {
                    return Err(fail(format!("expected hello, got frame tag {tag}")));
                }
                LinkRecv::Lost(detail) => {
                    return Err(fail(format!("no hello: {detail}")));
                }
            }
        }
        Ok(ProcessCommunicator {
            links,
            partitions,
            cfg,
            idle: true,
            aborted: false,
            loss: None,
            missed_heartbeats: missed,
            window: 0,
            last_floor_ps: 0,
            _t: PhantomData,
        })
    }

    /// Ship the next job, `jobs[i]` to wheel `i + 1`, and count windows,
    /// the floor and missed heartbeats from zero again. Valid only while
    /// the session is idle: after the handshake, or after
    /// [`ProcessCommunicator::collect_reports`] returned `Ok` for a job
    /// neither side aborted.
    pub fn start_job(&mut self, jobs: &[Vec<u8>]) -> Result<(), WorkerLoss> {
        assert!(
            self.idle,
            "start_job on a session whose last job is unfinished or aborted"
        );
        assert_eq!(jobs.len(), self.links.len(), "one job per worker");
        self.idle = false;
        self.window = 0;
        self.last_floor_ps = 0;
        self.missed_heartbeats = 0;
        let sent = self.links.iter_mut().zip(jobs).try_for_each(|(link, job)| {
            write_frame(&mut *link.writer, TAG_JOB, job).map_err(|e| (link.wheel, e))
        });
        sent.map_err(|(wheel, e)| self.lose(wheel, format!("sending job failed: {e}")))
    }

    /// The loss that aborted the run, if one did.
    pub fn loss(&self) -> Option<&WorkerLoss> {
        self.loss.as_ref()
    }

    /// Polls that found a worker silent for at least one heartbeat
    /// interval — the `supervise.missed-heartbeats` raw material.
    pub fn missed_heartbeats(&self) -> u64 {
        self.missed_heartbeats
    }

    /// Exchange windows completed so far.
    pub fn window(&self) -> u64 {
        self.window
    }

    fn send_abort_all(&mut self) {
        for link in &mut self.links {
            let _ = write_frame(&mut *link.writer, TAG_ABORT, &[]);
        }
    }

    fn declare_loss(&mut self, wheel: usize, detail: String) {
        if self.loss.is_none() {
            self.loss = Some(WorkerLoss {
                wheel,
                window: self.window,
                at_ps: self.last_floor_ps,
                detail,
            });
        }
        self.aborted = true;
        self.send_abort_all();
    }

    /// [`Self::declare_loss`], returning the loss the session now holds.
    fn lose(&mut self, wheel: usize, detail: String) -> WorkerLoss {
        self.declare_loss(wheel, detail);
        self.loss.clone().expect("a loss was just declared")
    }

    /// After the wheel-0 drive returns, pull every worker's Report
    /// frame: `(report, extra)` in wheel order `1..partitions`. After a
    /// declared loss, that loss instead: reports cannot redeem a run the
    /// hub aborted on a worker's account.
    pub fn collect_reports(&mut self) -> Result<Vec<(WheelReport, Vec<u8>)>, WorkerLoss> {
        if let Some(loss) = &self.loss {
            return Err(loss.clone());
        }
        let mut out = Vec::with_capacity(self.links.len());
        for i in 0..self.links.len() {
            let wheel = self.links[i].wheel;
            loop {
                let deadline = self.cfg.heartbeat_deadline;
                let recv = {
                    let mut missed = 0u64;
                    let r = self.links[i].recv(&self.cfg, deadline, &mut missed);
                    self.missed_heartbeats += missed;
                    r
                };
                match recv {
                    LinkRecv::Frame(TAG_REPORT, payload) => match decode_report(&payload) {
                        Some(pair) => {
                            out.push(pair);
                            break;
                        }
                        None => return Err(self.lose(wheel, "malformed report frame".to_string())),
                    },
                    // Stale window traffic and heartbeats racing the
                    // shutdown are expected; skip to the report.
                    LinkRecv::Frame(TAG_HEARTBEAT | TAG_BATCH | TAG_ABORT, _) => {}
                    LinkRecv::Frame(tag, _) => {
                        return Err(
                            self.lose(wheel, format!("unexpected frame tag {tag} before report"))
                        );
                    }
                    LinkRecv::Lost(detail) => {
                        return Err(self.lose(wheel, format!("no report: {detail}")));
                    }
                }
            }
        }
        // An abort leaves frames in flight both ways, so only a clean job
        // hands the workers back idle.
        self.idle = !self.aborted;
        Ok(out)
    }
}

impl<T: WireItem> SimCommunicator<T> for ProcessCommunicator<T> {
    fn partition(&self) -> usize {
        0
    }

    fn partitions(&self) -> usize {
        self.partitions
    }

    fn exchange(
        &mut self,
        mut outbound: Vec<Vec<RemoteMsg<T>>>,
        floor: Option<u64>,
    ) -> ExchangeOutcome<T> {
        let n = self.partitions;
        debug_assert_eq!(outbound.len(), n, "one outbound bucket per partition");
        if self.aborted {
            return ExchangeOutcome::Aborted;
        }
        // Wheel 0's own loopback bucket plus its contributions to each
        // worker wheel.
        let mut inbound: Vec<RemoteMsg<T>> = std::mem::take(&mut outbound[0]);
        let mut per_wheel: Vec<Vec<RemoteMsg<T>>> = outbound;
        let mut global = floor;

        // Collect one Batch per worker; route its buckets.
        for i in 0..self.links.len() {
            let wheel = self.links[i].wheel;
            loop {
                let recv = {
                    let mut missed = 0u64;
                    let r = self.links[i].recv(&self.cfg, self.cfg.heartbeat_deadline, &mut missed);
                    self.missed_heartbeats += missed;
                    r
                };
                match recv {
                    LinkRecv::Frame(TAG_BATCH, payload) => {
                        let mut r = wire::Reader::new(&payload);
                        let decoded = (|| {
                            let has_floor = r.take_u8()?;
                            let f = r.take_u64()?;
                            let wfloor = (has_floor != 0).then_some(f);
                            let mut buckets = Vec::new();
                            while r.remaining() > 0 {
                                let dest = r.take_u32()? as usize;
                                let count = r.take_u32()? as usize;
                                buckets.push((dest, decode_msgs::<T>(&mut r, count)?));
                            }
                            Some((wfloor, buckets))
                        })();
                        let Some((wfloor, buckets)) = decoded else {
                            self.declare_loss(wheel, "malformed batch frame".to_string());
                            return ExchangeOutcome::Aborted;
                        };
                        global = match (global, wfloor) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        for (dest, msgs) in buckets {
                            if dest >= n {
                                self.declare_loss(wheel, format!("batch routes to wheel {dest} of {n}"));
                                return ExchangeOutcome::Aborted;
                            }
                            if dest == 0 {
                                inbound.extend(msgs);
                            } else {
                                per_wheel[dest].extend(msgs);
                            }
                        }
                        break;
                    }
                    LinkRecv::Frame(TAG_HEARTBEAT, _) => {}
                    LinkRecv::Frame(TAG_ABORT, _) => {
                        // The worker's wheel failed; its Report carries
                        // the error. Not a supervision loss.
                        self.aborted = true;
                        self.send_abort_all();
                        return ExchangeOutcome::Aborted;
                    }
                    LinkRecv::Frame(TAG_REPORT, _) => {
                        // A worker finishing early is a protocol violation.
                        self.declare_loss(wheel, "report frame arrived mid-window".to_string());
                        return ExchangeOutcome::Aborted;
                    }
                    LinkRecv::Frame(tag, _) => {
                        self.declare_loss(wheel, format!("unexpected frame tag {tag} mid-window"));
                        return ExchangeOutcome::Aborted;
                    }
                    LinkRecv::Lost(detail) => {
                        self.declare_loss(wheel, detail);
                        return ExchangeOutcome::Aborted;
                    }
                }
            }
        }

        self.window += 1;
        match global {
            None => {
                for link in &mut self.links {
                    if write_frame(&mut *link.writer, TAG_DONE, &[]).is_err() {
                        // The worker will be caught (if truly gone) by
                        // collect_reports; nothing to route anyway.
                    }
                }
                ExchangeOutcome::Done
            }
            Some(next_ps) => {
                self.last_floor_ps = next_ps;
                for i in 0..self.links.len() {
                    let wheel = self.links[i].wheel;
                    let mut payload = Vec::new();
                    wire::put_u64(&mut payload, next_ps);
                    let msgs = std::mem::take(&mut per_wheel[wheel]);
                    wire::put_u32(&mut payload, msgs.len() as u32);
                    for m in &msgs {
                        encode_msg(m, &mut payload);
                    }
                    if let Err(e) = write_frame(&mut *self.links[i].writer, TAG_WINDOW, &payload) {
                        self.declare_loss(wheel, format!("sending window failed: {e}"));
                        return ExchangeOutcome::Aborted;
                    }
                }
                ExchangeOutcome::Continue {
                    inbound,
                    next: SimTime(next_ps),
                }
            }
        }
    }

    fn abort(&mut self) {
        if !self.aborted {
            self.aborted = true;
            self.send_abort_all();
        }
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Worker-side [`SimCommunicator`]: one wheel in a child process,
/// talking to the hub over a pipe pair (conventionally its own
/// stdin/stdout) for as many jobs as the hub sends. A dedicated thread
/// heartbeats for the endpoint's whole life, while the wheel computes and
/// between jobs, so the hub can tell "slow window" from "dead process".
pub struct WorkerEndpoint<T> {
    wheel: usize,
    partitions: usize,
    reader: Box<dyn Read + Send>,
    writer: Arc<Mutex<Box<dyn Write + Send>>>,
    hb_stop: Arc<AtomicBool>,
    hb_thread: Option<std::thread::JoinHandle<()>>,
    aborted: bool,
    _t: PhantomData<fn() -> T>,
}

impl<T: WireItem> WorkerEndpoint<T> {
    /// Send the Hello, wait for the first Job frame, start the heartbeat
    /// thread, and return the endpoint plus the opaque job payload.
    pub fn connect(
        wheel: usize,
        partitions: usize,
        reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        cfg: ProcessConfig,
    ) -> io::Result<(Self, Vec<u8>)> {
        assert!(wheel >= 1 && wheel < partitions, "hub owns wheel 0");
        let mut endpoint = WorkerEndpoint {
            wheel,
            partitions,
            reader,
            writer: Arc::new(Mutex::new(writer)),
            hb_stop: Arc::new(AtomicBool::new(false)),
            hb_thread: None,
            aborted: false,
            _t: PhantomData,
        };
        let mut hello = Vec::new();
        wire::put_u32(&mut hello, WIRE_VERSION);
        wire::put_u32(&mut hello, wheel as u32);
        wire::put_u32(&mut hello, partitions as u32);
        write_frame(&mut **endpoint.writer.lock(), TAG_HELLO, &hello)?;
        let job = endpoint.next_job()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "hub closed the pipe before the first job",
            )
        })?;
        let writer = Arc::clone(&endpoint.writer);
        let stop = Arc::clone(&endpoint.hb_stop);
        let beat = cfg.heartbeat_interval;
        endpoint.hb_thread = Some(
            std::thread::Builder::new()
                .name(format!("maia-worker-hb-{wheel}"))
                .spawn(move || loop {
                    // Parked, not asleep: the owner unparks on stop, so a
                    // finishing worker never waits out an interval.
                    let due = Instant::now() + beat;
                    loop {
                        if stop.load(Ordering::Acquire) {
                            return;
                        }
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        std::thread::park_timeout(due - now);
                    }
                    if write_frame(&mut **writer.lock(), TAG_HEARTBEAT, &[]).is_err() {
                        return;
                    }
                })
                .expect("failed to spawn heartbeat thread"),
        );
        Ok((endpoint, job))
    }

    /// Stop emitting heartbeats without stopping the wheel — the
    /// chaos hook behind the "worker that stops heartbeating" drill.
    pub fn stop_heartbeats(&self) {
        self.hb_stop.store(true, Ordering::Release);
    }

    /// Wait for the hub's next job: its payload, or `None` when the hub
    /// closed the pipe between frames. Any other frame is `InvalidData`.
    pub fn next_job(&mut self) -> io::Result<Option<Vec<u8>>> {
        match read_frame_or_eof(&mut *self.reader)? {
            None => Ok(None),
            Some((TAG_JOB, payload)) => {
                self.aborted = false;
                Ok(Some(payload))
            }
            Some((tag, _)) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected job frame, got tag {tag}"),
            )),
        }
    }

    /// Ship the current job's wheel report (plus caller-defined extra
    /// bytes) to the hub; the session stays open for the next job.
    pub fn report(&mut self, report: &WheelReport, extra: &[u8]) -> io::Result<()> {
        let payload = encode_report(report, extra);
        write_frame(&mut **self.writer.lock(), TAG_REPORT, &payload)
    }

    /// Ship the last report and end the session: heartbeats stop when
    /// the endpoint drops.
    pub fn finish(mut self, report: &WheelReport, extra: &[u8]) -> io::Result<()> {
        self.report(report, extra)
    }
}

impl<T> Drop for WorkerEndpoint<T> {
    fn drop(&mut self) {
        self.hb_stop.store(true, Ordering::Release);
        if let Some(h) = self.hb_thread.take() {
            h.thread().unpark();
            let _ = h.join();
        }
    }
}

impl<T: WireItem> SimCommunicator<T> for WorkerEndpoint<T> {
    fn partition(&self) -> usize {
        self.wheel
    }

    fn partitions(&self) -> usize {
        self.partitions
    }

    fn exchange(
        &mut self,
        mut outbound: Vec<Vec<RemoteMsg<T>>>,
        floor: Option<u64>,
    ) -> ExchangeOutcome<T> {
        debug_assert_eq!(outbound.len(), self.partitions);
        if self.aborted {
            return ExchangeOutcome::Aborted;
        }
        // Loopback bucket stays local, exactly like the channel backend.
        let mut inbound: Vec<RemoteMsg<T>> = std::mem::take(&mut outbound[self.wheel]);
        let mut payload = Vec::new();
        payload.push(u8::from(floor.is_some()));
        wire::put_u64(&mut payload, floor.unwrap_or(0));
        for (dest, msgs) in outbound.iter().enumerate() {
            if dest == self.wheel || msgs.is_empty() {
                continue;
            }
            wire::put_u32(&mut payload, dest as u32);
            wire::put_u32(&mut payload, msgs.len() as u32);
            for m in msgs {
                encode_msg(m, &mut payload);
            }
        }
        if write_frame(&mut **self.writer.lock(), TAG_BATCH, &payload).is_err() {
            self.aborted = true;
            return ExchangeOutcome::Aborted;
        }
        match read_frame(&mut *self.reader) {
            Ok((TAG_WINDOW, payload)) => {
                let mut r = wire::Reader::new(&payload);
                let decoded = (|| {
                    let next_ps = r.take_u64()?;
                    let count = r.take_u32()? as usize;
                    Some((next_ps, decode_msgs::<T>(&mut r, count)?))
                })();
                let Some((next_ps, msgs)) = decoded else {
                    self.aborted = true;
                    return ExchangeOutcome::Aborted;
                };
                inbound.extend(msgs);
                ExchangeOutcome::Continue {
                    inbound,
                    next: SimTime(next_ps),
                }
            }
            Ok((TAG_DONE, _)) => ExchangeOutcome::Done,
            Ok((TAG_ABORT, _)) | Err(_) => {
                self.aborted = true;
                ExchangeOutcome::Aborted
            }
            Ok((_, _)) => {
                // Unknown hub frame: treat as protocol failure.
                self.aborted = true;
                ExchangeOutcome::Aborted
            }
        }
    }

    fn abort(&mut self) {
        if !self.aborted {
            self.aborted = true;
            let _ = write_frame(&mut **self.writer.lock(), TAG_ABORT, &[]);
        }
    }
}

// ---------------------------------------------------------------------------
// Probe recording / replay
// ---------------------------------------------------------------------------

const OP_SCHEDULED: u8 = 1;
const OP_FIRED: u8 = 2;
const OP_ADVANCED: u8 = 3;
const OP_BLOCKED: u8 = 4;
const OP_FINISHED: u8 = 5;
const OP_SPAN: u8 = 6;

/// A [`Probe`] that records a worker wheel's probe activity as a compact
/// byte stream, so the worker can ship it to the hub in the Report
/// frame; [`replay_probe`] re-issues the calls against the hub's
/// [`super::PartitionProbe`] for that wheel, which remaps pids and
/// buffers spans. It records only what that wrapper passes on: no spawns
/// (the hub registers every name globally), no end-of-run stats or
/// completion (a window-stepped engine emits neither), and no queue
/// depth (the wrapper reports 0). All consumers of probe data aggregate
/// order-insensitively across wheels, so replay-after-run is
/// observationally identical to the channel backend's live forwarding.
#[derive(Default)]
pub struct RecordingProbe {
    buf: Mutex<Vec<u8>>,
}

impl RecordingProbe {
    /// An empty recording.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take the recorded byte stream (resets the buffer).
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.buf.lock())
    }

    /// Append one `op` record: its virtual time, then its pid.
    fn record(&self, op: u8, at_ps: u64, pid: ProcessId) -> MutexGuard<'_, Vec<u8>> {
        let mut b = self.buf.lock();
        b.push(op);
        wire::put_u64(&mut b, at_ps);
        wire::put_u32(&mut b, pid.index() as u32);
        b
    }
}

impl Probe for RecordingProbe {
    fn event_scheduled(&self, at_ps: u64, pid: ProcessId) {
        self.record(OP_SCHEDULED, at_ps, pid);
    }
    fn event_fired(&self, now_ps: u64, pid: ProcessId, _queue_depth: usize) {
        self.record(OP_FIRED, now_ps, pid);
    }
    fn advanced(&self, now_ps: u64, pid: ProcessId, dur_ps: u64) {
        let mut b = self.record(OP_ADVANCED, now_ps, pid);
        wire::put_u64(&mut b, dur_ps);
    }
    fn blocked(&self, now_ps: u64, pid: ProcessId) {
        self.record(OP_BLOCKED, now_ps, pid);
    }
    fn finished(&self, now_ps: u64, pid: ProcessId) {
        self.record(OP_FINISHED, now_ps, pid);
    }
    fn span(&self, name: &str, start_ps: u64, end_ps: u64, pid: ProcessId) {
        let mut b = self.buf.lock();
        b.push(OP_SPAN);
        wire::put_str(&mut b, name);
        wire::put_u64(&mut b, start_ps);
        wire::put_u64(&mut b, end_ps);
        wire::put_u32(&mut b, pid.index() as u32);
    }
}

/// Re-issue a recorded probe stream against `probe`. Returns `false`
/// when the stream is malformed (remaining records are dropped).
pub fn replay_probe(bytes: &[u8], probe: &dyn Probe) -> bool {
    let mut r = wire::Reader::new(bytes);
    let pid = |r: &mut wire::Reader<'_>| r.take_u32().map(|v| ProcessId::from_index(v as usize));
    while r.remaining() > 0 {
        let ok = (|| {
            let op = r.take_u8()?;
            if op == OP_SPAN {
                let name = r.take_str()?;
                let start = r.take_u64()?;
                let end = r.take_u64()?;
                probe.span(&name, start, end, pid(&mut r)?);
                return Some(());
            }
            let at = r.take_u64()?;
            let p = pid(&mut r)?;
            match op {
                OP_SCHEDULED => probe.event_scheduled(at, p),
                OP_FIRED => probe.event_fired(at, p, 0),
                OP_ADVANCED => probe.advanced(at, p, r.take_u64()?),
                OP_BLOCKED => probe.blocked(at, p),
                OP_FINISHED => probe.finished(at, p),
                _ => return None,
            }
            Some(())
        })();
        if ok.is_none() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use std::os::unix::net::UnixStream;

    impl WireItem for u32 {
        fn encode(&self, out: &mut Vec<u8>) {
            wire::put_u32(out, *self);
        }
        fn decode(r: &mut wire::Reader<'_>) -> Option<Self> {
            r.take_u32()
        }
    }

    type PipeEnd = (Box<dyn Read + Send>, Box<dyn Write + Send>);

    fn pipe_pair() -> (PipeEnd, PipeEnd) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let a2 = a.try_clone().unwrap();
        let b2 = b.try_clone().unwrap();
        ((Box::new(a), Box::new(a2)), (Box::new(b), Box::new(b2)))
    }

    fn fast_cfg() -> ProcessConfig {
        ProcessConfig {
            heartbeat_interval: Duration::from_millis(20),
            heartbeat_deadline: Duration::from_millis(400),
            handshake_deadline: Duration::from_secs(5),
        }
    }

    /// Two participants (hub wheel 0, worker wheel 1 on a thread) run a
    /// two-window exchange; floors, routing and termination must match
    /// the channel backend's semantics.
    #[test]
    fn hub_and_worker_exchange_windows() {
        let (hub_io, worker_io) = pipe_pair();
        let worker = std::thread::spawn(move || {
            let (mut ep, job) = WorkerEndpoint::<u32>::connect(
                1,
                2,
                worker_io.0,
                worker_io.1,
                fast_cfg(),
            )
            .expect("connect");
            assert_eq!(job, b"job-bytes");
            // Window 1: send 7 to wheel 0, floor 100.
            let out = vec![
                vec![RemoteMsg {
                    arrival: SimTime(150),
                    dest_slot: 0,
                    order: (1, 0),
                    payload: 7u32,
                }],
                Vec::new(),
            ];
            match ep.exchange(out, Some(100)) {
                ExchangeOutcome::Continue { inbound, next } => {
                    assert_eq!(next, SimTime(50)); // hub's floor wins
                    assert_eq!(inbound.len(), 1);
                    assert_eq!(inbound[0].payload, 41);
                }
                _ => panic!("expected Continue"),
            }
            // Window 2: nothing left anywhere.
            match ep.exchange(vec![Vec::new(), Vec::new()], None) {
                ExchangeOutcome::Done => {}
                _ => panic!("expected Done"),
            }
            let report = WheelReport {
                status: DriveStatus::Completed,
                blocked: Vec::new(),
                end: SimTime(150),
                windows: 2,
                stats: WheelStats {
                    end_ps: 150,
                    messages_out: 1,
                    stall_wall_ns: 0,
                },
            };
            ep.finish(&report, b"extra").expect("finish");
        });

        let mut hub = ProcessCommunicator::<u32>::connect(
            2,
            vec![hub_io],
            vec![b"job-bytes".to_vec()],
            fast_cfg(),
        )
        .expect("handshake");
        // Window 1: hub sends 41 to wheel 1, floor 50.
        let out = vec![
            Vec::new(),
            vec![RemoteMsg {
                arrival: SimTime(90),
                dest_slot: 3,
                order: (0, 0),
                payload: 41u32,
            }],
        ];
        match hub.exchange(out, Some(50)) {
            ExchangeOutcome::Continue { inbound, next } => {
                assert_eq!(next, SimTime(50));
                assert_eq!(inbound.len(), 1);
                assert_eq!(inbound[0].payload, 7);
                assert_eq!(inbound[0].order, (1, 0));
            }
            _ => panic!("expected Continue"),
        }
        match hub.exchange(vec![Vec::new(), Vec::new()], None) {
            ExchangeOutcome::Done => {}
            _ => panic!("expected Done"),
        }
        let reports = hub.collect_reports().expect("reports");
        assert_eq!(reports.len(), 1);
        assert!(matches!(reports[0].0.status, DriveStatus::Completed));
        assert_eq!(reports[0].0.stats.messages_out, 1);
        assert_eq!(reports[0].1, b"extra");
        assert!(hub.loss().is_none());
        worker.join().unwrap();
    }

    /// A worker whose pipe closes mid-window is a crash: the hub
    /// reports the loss with the wheel, window and virtual floor.
    #[test]
    fn dropped_worker_is_reported_as_loss() {
        let (hub_io, worker_io) = pipe_pair();
        let worker = std::thread::spawn(move || {
            let (mut ep, _job) =
                WorkerEndpoint::<u32>::connect(1, 2, worker_io.0, worker_io.1, fast_cfg())
                    .expect("connect");
            // One clean window, then vanish (drop without report).
            match ep.exchange(vec![Vec::new(), Vec::new()], Some(100)) {
                ExchangeOutcome::Continue { next, .. } => assert_eq!(next, SimTime(100)),
                _ => panic!("expected Continue"),
            }
            drop(ep); // connection closes with no further frames
        });
        let mut hub =
            ProcessCommunicator::<u32>::connect(2, vec![hub_io], vec![Vec::new()], fast_cfg())
                .expect("handshake");
        match hub.exchange(vec![Vec::new(), Vec::new()], None) {
            ExchangeOutcome::Continue { next, .. } => assert_eq!(next, SimTime(100)),
            _ => panic!("expected Continue"),
        }
        // Next window never gets the worker's batch.
        match hub.exchange(vec![Vec::new(), Vec::new()], Some(200)) {
            ExchangeOutcome::Aborted => {}
            _ => panic!("expected Aborted"),
        }
        let loss = hub.loss().expect("loss recorded").clone();
        assert_eq!(loss.wheel, 1);
        assert_eq!(loss.window, 1);
        assert_eq!(loss.at_ps, 100);
        assert!(loss.detail.contains("connection closed"), "{}", loss.detail);
        worker.join().unwrap();
    }

    /// Handshake as wheel 1 of 2 by hand, so a test can follow up with
    /// bytes the real endpoint would never send.
    fn fake_worker_handshake(io: &mut PipeEnd) {
        let mut hello = Vec::new();
        wire::put_u32(&mut hello, WIRE_VERSION);
        wire::put_u32(&mut hello, 1);
        wire::put_u32(&mut hello, 2);
        write_frame(&mut *io.1, TAG_HELLO, &hello).unwrap();
        let (tag, _) = read_frame(&mut *io.0).unwrap();
        assert_eq!(tag, TAG_JOB);
    }

    /// A Batch whose message count promises far more than its bytes hold
    /// is malformed: the hub must fail the decode, not try to reserve
    /// room for four billion messages.
    #[test]
    fn batch_count_beyond_its_bytes_is_a_malformed_frame() {
        let (hub_io, mut worker_io) = pipe_pair();
        let worker = std::thread::spawn(move || {
            fake_worker_handshake(&mut worker_io);
            let mut batch = vec![1u8];
            wire::put_u64(&mut batch, 100);
            wire::put_u32(&mut batch, 0); // bucket for the hub's wheel...
            wire::put_u32(&mut batch, u32::MAX); // ...claiming 2^32-1 messages, carrying none
            write_frame(&mut *worker_io.1, TAG_BATCH, &batch).unwrap();
            // Answer the hub's abort with a well-formed report, as a
            // live worker would.
            let (tag, _) = read_frame(&mut *worker_io.0).unwrap();
            assert_eq!(tag, TAG_ABORT);
            let report = WheelReport {
                status: DriveStatus::PeerAborted,
                blocked: Vec::new(),
                end: SimTime(0),
                windows: 0,
                stats: WheelStats::default(),
            };
            write_frame(&mut *worker_io.1, TAG_REPORT, &encode_report(&report, &[])).unwrap();
        });
        let mut hub =
            ProcessCommunicator::<u32>::connect(2, vec![hub_io], vec![Vec::new()], fast_cfg())
                .expect("handshake");
        assert!(matches!(
            hub.exchange(vec![Vec::new(), Vec::new()], Some(50)),
            ExchangeOutcome::Aborted
        ));
        let loss = hub.loss().expect("loss recorded");
        assert_eq!(loss.wheel, 1);
        assert_eq!(loss.detail, "malformed batch frame");
        worker.join().unwrap();
        // The report that follows does not turn the loss into a result.
        let err = hub.collect_reports().err().expect("the declared loss");
        assert_eq!(err.detail, "malformed batch frame");
    }

    /// A header claiming a 1 GiB frame followed by EOF is a lost worker.
    #[test]
    fn giant_frame_header_then_eof_is_a_loss() {
        let (hub_io, mut worker_io) = pipe_pair();
        let worker = std::thread::spawn(move || {
            fake_worker_handshake(&mut worker_io);
            worker_io.1.write_all(&MAX_FRAME.to_le_bytes()).unwrap();
            worker_io.1.write_all(&[TAG_BATCH]).unwrap();
            // Hang up: the promised payload never arrives.
        });
        let mut hub =
            ProcessCommunicator::<u32>::connect(2, vec![hub_io], vec![Vec::new()], fast_cfg())
                .expect("handshake");
        worker.join().unwrap();
        assert!(matches!(
            hub.exchange(vec![Vec::new(), Vec::new()], Some(50)),
            ExchangeOutcome::Aborted
        ));
        let loss = hub.loss().expect("loss recorded");
        assert_eq!(loss.wheel, 1);
        assert!(loss.detail.contains("connection closed"), "{}", loss.detail);
    }

    /// The same truncated 1 GiB frame at the reader: the error is an
    /// EOF, and no read was ever handed a buffer larger than the bounded
    /// preallocation.
    #[test]
    fn read_frame_memory_follows_arriving_bytes() {
        struct Recorder {
            bytes: Vec<u8>,
            pos: usize,
            widest: usize,
        }
        impl Read for Recorder {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.widest = self.widest.max(buf.len());
                let n = buf.len().min(self.bytes.len() - self.pos);
                buf[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.push(TAG_WINDOW);
        bytes.extend_from_slice(&[7; 10]);
        let mut r = Recorder {
            bytes,
            pos: 0,
            widest: 0,
        };
        let err = read_frame(&mut r).expect_err("a truncated frame must not decode");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(err.to_string().contains("after 10 of"), "{err}");
        assert!(
            r.widest <= FRAME_PREALLOC,
            "a read asked for {} bytes",
            r.widest
        );

        // A well-formed frame still round-trips through the same path.
        let mut framed = Vec::new();
        write_frame(&mut framed, TAG_JOB, b"payload").unwrap();
        let mut r = Recorder {
            bytes: framed,
            pos: 0,
            widest: 0,
        };
        assert_eq!(read_frame(&mut r).unwrap(), (TAG_JOB, b"payload".to_vec()));
    }

    /// A worker that stops heartbeating (but keeps its pipe open) trips
    /// the heartbeat deadline and is declared hung.
    #[test]
    fn silent_worker_trips_heartbeat_deadline() {
        let (hub_io, worker_io) = pipe_pair();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::spawn(move || {
            let (ep, _job) =
                WorkerEndpoint::<u32>::connect(1, 2, worker_io.0, worker_io.1, fast_cfg())
                    .expect("connect");
            ep.stop_heartbeats();
            // Keep the connection open, silent, until the test ends.
            let _ = release_rx.recv();
            drop(ep);
        });
        let mut hub =
            ProcessCommunicator::<u32>::connect(2, vec![hub_io], vec![Vec::new()], fast_cfg())
                .expect("handshake");
        match hub.exchange(vec![Vec::new(), Vec::new()], Some(10)) {
            ExchangeOutcome::Aborted => {}
            _ => panic!("expected Aborted"),
        }
        let loss = hub.loss().expect("loss recorded");
        assert!(
            loss.detail.contains("heartbeat deadline"),
            "{}",
            loss.detail
        );
        assert!(hub.missed_heartbeats() > 0);
        let _ = release_tx.send(());
        worker.join().unwrap();
    }

    /// A finishing or dropped endpoint wakes its heartbeat thread instead
    /// of waiting out the interval: with a 5 s heartbeat, both return
    /// well inside one.
    #[test]
    fn ending_an_endpoint_does_not_wait_out_a_heartbeat() {
        let cfg = ProcessConfig {
            heartbeat_interval: Duration::from_secs(5),
            ..fast_cfg()
        };
        let report = WheelReport {
            status: DriveStatus::Completed,
            blocked: Vec::new(),
            end: SimTime(0),
            windows: 0,
            stats: WheelStats::default(),
        };
        for finish in [true, false] {
            let (mut hub_io, worker_io) = pipe_pair();
            // The job is waiting in the pipe before the worker asks.
            write_frame(&mut *hub_io.1, TAG_JOB, b"job").unwrap();
            let (ep, job) = WorkerEndpoint::<u32>::connect(1, 2, worker_io.0, worker_io.1, cfg)
                .expect("connect");
            assert_eq!(job, b"job");
            let started = Instant::now();
            if finish {
                ep.finish(&report, &[]).expect("finish");
            } else {
                drop(ep);
            }
            let took = started.elapsed();
            assert!(
                took < Duration::from_secs(1),
                "finish={finish}: took {took:?}"
            );
        }
    }

    /// Every Hello the hub cannot accept is a loss of wheel 1 at window 0
    /// whose detail says why, never a panic.
    #[test]
    fn a_bad_hello_is_a_named_loss() {
        let hello = |version: u32, wheel: u32, partitions: u32| {
            let mut out = Vec::new();
            for v in [version, wheel, partitions] {
                wire::put_u32(&mut out, v);
            }
            out
        };
        let cases = [
            (
                TAG_HELLO,
                hello(3, 1, 2),
                "wire version mismatch: hub 5, worker 3",
            ),
            (
                TAG_HELLO,
                hello(WIRE_VERSION, 2, 2),
                "layout mismatch: worker claims wheel 2 of 2, expected wheel 1 of 2",
            ),
            (
                TAG_HELLO,
                hello(WIRE_VERSION, 1, 3),
                "layout mismatch: worker claims wheel 1 of 3, expected wheel 1 of 2",
            ),
            (
                TAG_HELLO,
                hello(WIRE_VERSION, 1, 2)[..8].to_vec(),
                "malformed hello",
            ),
            (TAG_BATCH, vec![0; 9], "expected hello, got frame tag 3"),
        ];
        for (tag, payload, detail) in cases {
            let (hub_io, mut worker_io) = pipe_pair();
            write_frame(&mut *worker_io.1, tag, &payload).unwrap();
            let loss =
                ProcessCommunicator::<u32>::connect(2, vec![hub_io], vec![Vec::new()], fast_cfg())
                    .err()
                    .expect("the hub refuses the worker");
            assert_eq!(
                (loss.wheel, loss.window, loss.at_ps, loss.detail.as_str()),
                (1, 0, 0, detail)
            );
        }
    }

    #[test]
    fn report_roundtrips_through_the_codec() {
        let report = WheelReport {
            status: DriveStatus::Error(SimError::ProcessPanicked {
                name: "rank-3".to_string(),
                message: "boom".to_string(),
                at: SimTime(42),
            }),
            blocked: vec!["rank-9".to_string()],
            end: SimTime(77),
            windows: 5,
            stats: WheelStats {
                end_ps: 77,
                messages_out: 12,
                stall_wall_ns: 999,
            },
        };
        let bytes = encode_report(&report, b"opaque");
        let (back, extra) = decode_report(&bytes).expect("decode");
        match back.status {
            DriveStatus::Error(SimError::ProcessPanicked { name, message, at }) => {
                assert_eq!(name, "rank-3");
                assert_eq!(message, "boom");
                assert_eq!(at, SimTime(42));
            }
            _ => panic!("status lost in roundtrip"),
        }
        assert_eq!(back.blocked, vec!["rank-9".to_string()]);
        assert_eq!(back.end, SimTime(77));
        assert_eq!(back.windows, 5);
        assert_eq!(back.stats.messages_out, 12);
        assert_eq!(extra, b"opaque");
    }

    #[test]
    fn probe_recording_replays_identically() {
        use std::sync::Mutex as StdMutex;

        #[derive(Default)]
        struct Log(StdMutex<Vec<String>>);
        impl Probe for Log {
            fn process_spawned(&self, pid: ProcessId, name: &str) {
                self.0.lock().unwrap().push(format!("spawn {} {}", pid.index(), name));
            }
            fn event_fired(&self, now_ps: u64, pid: ProcessId, queue_depth: usize) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("fired {} {} {}", now_ps, pid.index(), queue_depth));
            }
            fn advanced(&self, now_ps: u64, pid: ProcessId, dur_ps: u64) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("adv {} {} {}", now_ps, pid.index(), dur_ps));
            }
            fn span(&self, name: &str, start_ps: u64, end_ps: u64, pid: ProcessId) {
                self.0
                    .lock()
                    .unwrap()
                    .push(format!("span {name} {start_ps} {end_ps} {}", pid.index()));
            }
        }

        // Spawns and queue depths stay on the worker: the hub's wrapper
        // drops both.
        let rec = RecordingProbe::new();
        rec.process_spawned(ProcessId::from_index(2), "rank-2");
        rec.event_fired(10, ProcessId::from_index(2), 7);
        rec.advanced(10, ProcessId::from_index(2), SimDuration::from_ns(1.0).as_ps());
        rec.span("rank-2", 0, 1000, ProcessId::from_index(2));
        let bytes = rec.take();

        let log = Log::default();
        assert!(replay_probe(&bytes, &log));
        assert_eq!(
            *log.0.lock().unwrap(),
            vec![
                "fired 10 2 0".to_string(),
                "adv 10 2 1000".to_string(),
                "span rank-2 0 1000 2".to_string(),
            ]
        );
    }
}
