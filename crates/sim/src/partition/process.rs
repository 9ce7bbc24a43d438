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

use parking_lot::Mutex;

use super::{
    DriveStatus, ExchangeOutcome, RemoteMsg, SimCommunicator, WheelReport, WheelStats,
};
use crate::engine::{ProcessId, SimError};
use crate::probe::{Probe, SchedStats};
use crate::time::SimTime;

/// Protocol version carried in the Hello frame; both sides must match.
pub const WIRE_VERSION: u32 = 2;

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
    /// `true` when at least one heartbeat interval passed with no frame.
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
/// [`ProcessCommunicator::connect`], drive wheel 0 against it (by
/// `&mut`, so it survives the drive), then call
/// [`ProcessCommunicator::collect_reports`].
pub struct ProcessCommunicator<T> {
    links: Vec<Link>,
    partitions: usize,
    cfg: ProcessConfig,
    aborted: bool,
    loss: Option<WorkerLoss>,
    missed_heartbeats: u64,
    window: u64,
    last_floor_ps: u64,
    /// Report frames that arrived before `collect_reports` asked.
    early_reports: Vec<Option<Vec<u8>>>,
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
        assert!(partitions >= 1);
        assert_eq!(workers.len(), partitions - 1, "one worker per non-hub wheel");
        assert_eq!(jobs.len(), workers.len(), "one job per worker");
        let mut links: Vec<Link> = workers
            .into_iter()
            .enumerate()
            .map(|(i, (r, w))| Link::spawn(i + 1, r, w))
            .collect();
        let mut hub = ProcessCommunicator {
            early_reports: (0..links.len()).map(|_| None).collect(),
            links: Vec::new(),
            partitions,
            cfg,
            aborted: false,
            loss: None,
            missed_heartbeats: 0,
            window: 0,
            last_floor_ps: 0,
            _t: PhantomData,
        };
        let mut missed = 0u64;
        for (i, link) in links.iter_mut().enumerate() {
            let wheel = i + 1;
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
            if let Err(e) = write_frame(&mut *link.writer, TAG_JOB, &jobs[i]) {
                return Err(fail(format!("sending job failed: {e}")));
            }
        }
        hub.missed_heartbeats = missed;
        hub.links = links;
        Ok(hub)
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

    /// After the wheel-0 drive returns, pull every worker's Report
    /// frame: `(report, extra)` in wheel order `1..partitions`.
    pub fn collect_reports(&mut self) -> Result<Vec<(WheelReport, Vec<u8>)>, WorkerLoss> {
        let mut out = Vec::with_capacity(self.links.len());
        for i in 0..self.links.len() {
            let wheel = self.links[i].wheel;
            if let Some(bytes) = self.early_reports[i].take() {
                match decode_report(&bytes) {
                    Some(pair) => {
                        out.push(pair);
                        continue;
                    }
                    None => {
                        self.declare_loss(wheel, "malformed report frame".to_string());
                        return Err(self.loss.clone().unwrap());
                    }
                }
            }
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
                        None => {
                            self.declare_loss(wheel, "malformed report frame".to_string());
                            return Err(self.loss.clone().unwrap());
                        }
                    },
                    // Stale window traffic and heartbeats racing the
                    // shutdown are expected; skip to the report.
                    LinkRecv::Frame(TAG_HEARTBEAT | TAG_BATCH | TAG_ABORT, _) => {}
                    LinkRecv::Frame(tag, _) => {
                        self.declare_loss(wheel, format!("unexpected frame tag {tag} before report"));
                        return Err(self.loss.clone().unwrap());
                    }
                    LinkRecv::Lost(detail) => {
                        self.declare_loss(wheel, format!("no report: {detail}"));
                        return Err(self.loss.clone().unwrap());
                    }
                }
            }
        }
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
                    LinkRecv::Frame(TAG_REPORT, payload) => {
                        // A worker finishing early would be a protocol
                        // violation mid-window, but stash it: the abort
                        // path may still want its contents.
                        self.early_reports[i] = Some(payload);
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
/// stdin/stdout). A dedicated thread heartbeats while the wheel
/// computes, so the hub can tell "slow window" from "dead process".
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
    /// Send the Hello, wait for the Job frame, start the heartbeat
    /// thread, and return the endpoint plus the opaque job payload.
    pub fn connect(
        wheel: usize,
        partitions: usize,
        mut reader: Box<dyn Read + Send>,
        writer: Box<dyn Write + Send>,
        cfg: ProcessConfig,
    ) -> io::Result<(Self, Vec<u8>)> {
        assert!(wheel >= 1 && wheel < partitions, "hub owns wheel 0");
        let writer: Arc<Mutex<Box<dyn Write + Send>>> = Arc::new(Mutex::new(writer));
        let mut hello = Vec::new();
        wire::put_u32(&mut hello, WIRE_VERSION);
        wire::put_u32(&mut hello, wheel as u32);
        wire::put_u32(&mut hello, partitions as u32);
        write_frame(&mut **writer.lock(), TAG_HELLO, &hello)?;
        let job = match read_frame(&mut *reader)? {
            (TAG_JOB, payload) => payload,
            (TAG_ABORT, _) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionAborted,
                    "hub aborted during handshake",
                ))
            }
            (tag, _) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("expected job frame, got tag {tag}"),
                ))
            }
        };
        let hb_stop = Arc::new(AtomicBool::new(false));
        let hb_thread = {
            let writer = Arc::clone(&writer);
            let stop = Arc::clone(&hb_stop);
            std::thread::Builder::new()
                .name(format!("maia-worker-hb-{wheel}"))
                .spawn(move || loop {
                    std::thread::sleep(cfg.heartbeat_interval);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    if write_frame(&mut **writer.lock(), TAG_HEARTBEAT, &[]).is_err() {
                        break;
                    }
                })
                .expect("failed to spawn heartbeat thread")
        };
        Ok((
            WorkerEndpoint {
                wheel,
                partitions,
                reader,
                writer,
                hb_stop,
                hb_thread: Some(hb_thread),
                aborted: false,
                _t: PhantomData,
            },
            job,
        ))
    }

    /// Stop emitting heartbeats without stopping the wheel — the
    /// chaos hook behind the "worker that stops heartbeating" drill.
    pub fn stop_heartbeats(&self) {
        self.hb_stop.store(true, Ordering::Release);
    }

    /// Finish the session: stop heartbeats and ship the wheel's report
    /// (plus caller-defined extra bytes) to the hub.
    pub fn finish(mut self, report: &WheelReport, extra: &[u8]) -> io::Result<()> {
        self.join_heartbeat();
        let payload = encode_report(report, extra);
        write_frame(&mut **self.writer.lock(), TAG_REPORT, &payload)
    }

    fn join_heartbeat(&mut self) {
        self.hb_stop.store(true, Ordering::Release);
        if let Some(h) = self.hb_thread.take() {
            let _ = h.join();
        }
    }
}

impl<T> Drop for WorkerEndpoint<T> {
    fn drop(&mut self) {
        self.hb_stop.store(true, Ordering::Release);
        if let Some(h) = self.hb_thread.take() {
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

const OP_SPAWNED: u8 = 1;
const OP_SCHEDULED: u8 = 2;
const OP_FIRED: u8 = 3;
const OP_ADVANCED: u8 = 4;
const OP_BLOCKED: u8 = 5;
const OP_FINISHED: u8 = 6;
const OP_RUN_COMPLETE: u8 = 7;
const OP_SPAN: u8 = 8;
const OP_SCHED_STATS: u8 = 9;

/// A [`Probe`] that records every callback as a compact byte stream, so
/// a worker process can ship its wheel's probe activity to the hub in
/// the Report frame; [`replay_probe`] re-issues the calls against the
/// hub's real probe (typically the wheel's [`super::PartitionProbe`],
/// which remaps pids and buffers spans). All consumers of probe data
/// aggregate order-insensitively across wheels, so replay-after-run is
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
}

impl Probe for RecordingProbe {
    fn process_spawned(&self, pid: ProcessId, name: &str) {
        let mut b = self.buf.lock();
        b.push(OP_SPAWNED);
        wire::put_u32(&mut b, pid.index() as u32);
        wire::put_str(&mut b, name);
    }
    fn event_scheduled(&self, at_ps: u64, pid: ProcessId) {
        let mut b = self.buf.lock();
        b.push(OP_SCHEDULED);
        wire::put_u64(&mut b, at_ps);
        wire::put_u32(&mut b, pid.index() as u32);
    }
    fn event_fired(&self, now_ps: u64, pid: ProcessId, queue_depth: usize) {
        let mut b = self.buf.lock();
        b.push(OP_FIRED);
        wire::put_u64(&mut b, now_ps);
        wire::put_u32(&mut b, pid.index() as u32);
        wire::put_u64(&mut b, queue_depth as u64);
    }
    fn advanced(&self, now_ps: u64, pid: ProcessId, dur_ps: u64) {
        let mut b = self.buf.lock();
        b.push(OP_ADVANCED);
        wire::put_u64(&mut b, now_ps);
        wire::put_u32(&mut b, pid.index() as u32);
        wire::put_u64(&mut b, dur_ps);
    }
    fn blocked(&self, now_ps: u64, pid: ProcessId) {
        let mut b = self.buf.lock();
        b.push(OP_BLOCKED);
        wire::put_u64(&mut b, now_ps);
        wire::put_u32(&mut b, pid.index() as u32);
    }
    fn finished(&self, now_ps: u64, pid: ProcessId) {
        let mut b = self.buf.lock();
        b.push(OP_FINISHED);
        wire::put_u64(&mut b, now_ps);
        wire::put_u32(&mut b, pid.index() as u32);
    }
    fn sched_stats(&self, stats: &SchedStats) {
        let mut b = self.buf.lock();
        b.push(OP_SCHED_STATS);
        wire::put_u64(&mut b, stats.events_pushed);
        wire::put_u64(&mut b, stats.events_popped);
        for lvl in stats.wheel_level_pushes {
            wire::put_u64(&mut b, lvl);
        }
        wire::put_u64(&mut b, stats.procs_inline);
    }
    fn run_complete(&self, end_ps: u64) {
        let mut b = self.buf.lock();
        b.push(OP_RUN_COMPLETE);
        wire::put_u64(&mut b, end_ps);
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
            match r.take_u8()? {
                OP_SPAWNED => {
                    let p = pid(&mut r)?;
                    let name = r.take_str()?;
                    probe.process_spawned(p, &name);
                }
                OP_SCHEDULED => {
                    let at = r.take_u64()?;
                    probe.event_scheduled(at, pid(&mut r)?);
                }
                OP_FIRED => {
                    let now = r.take_u64()?;
                    let p = pid(&mut r)?;
                    let depth = r.take_u64()? as usize;
                    probe.event_fired(now, p, depth);
                }
                OP_ADVANCED => {
                    let now = r.take_u64()?;
                    let p = pid(&mut r)?;
                    let dur = r.take_u64()?;
                    probe.advanced(now, p, dur);
                }
                OP_BLOCKED => {
                    let now = r.take_u64()?;
                    probe.blocked(now, pid(&mut r)?);
                }
                OP_FINISHED => {
                    let now = r.take_u64()?;
                    probe.finished(now, pid(&mut r)?);
                }
                OP_SCHED_STATS => {
                    let mut stats = SchedStats {
                        events_pushed: r.take_u64()?,
                        events_popped: r.take_u64()?,
                        ..SchedStats::default()
                    };
                    for lvl in &mut stats.wheel_level_pushes {
                        *lvl = r.take_u64()?;
                    }
                    stats.procs_inline = r.take_u64()?;
                    probe.sched_stats(&stats);
                }
                OP_RUN_COMPLETE => probe.run_complete(r.take_u64()?),
                OP_SPAN => {
                    let name = r.take_str()?;
                    let start = r.take_u64()?;
                    let end = r.take_u64()?;
                    probe.span(&name, start, end, pid(&mut r)?);
                }
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
            // Hold the pipe open until the hub answers with its abort.
            let (tag, _) = read_frame(&mut *worker_io.0).unwrap();
            assert_eq!(tag, TAG_ABORT);
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

        let rec = RecordingProbe::new();
        rec.process_spawned(ProcessId::from_index(2), "rank-2");
        rec.advanced(10, ProcessId::from_index(2), SimDuration::from_ns(1.0).as_ps());
        rec.span("rank-2", 0, 1000, ProcessId::from_index(2));
        let bytes = rec.take();

        let log = Log::default();
        assert!(replay_probe(&bytes, &log));
        assert_eq!(
            *log.0.lock().unwrap(),
            vec![
                "spawn 2 rank-2".to_string(),
                "adv 10 2 1000".to_string(),
                "span rank-2 0 1000 2".to_string(),
            ]
        );
    }
}
