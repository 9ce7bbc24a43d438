//! Record one live world, replay it on other layouts.
//!
//! A rank program cannot ask where it runs: compute is priced by
//! [`Rank::compute_flops`] from the rank's device, an alltoall's incast
//! from the sender's, and a message's cost by the transport. So its
//! operations — sends, receives, compute and reduction operators — are a
//! function of its rank, the world size and its numerics alone.
//! [`crate::MpiWorld::run_layouts`] runs the program live on the first
//! layout while every rank appends its operations to an op log, then
//! replays each rank's log on every other layout: no payloads, no
//! numerics. A replayed op is the live op with the same arguments, so a
//! replay issues exactly the awaits the live program would issue on that
//! layout, and each layout's virtual time is still its own DES run. This
//! is the shape of LogGOPSim's trace-driven replay (Hoefler, Schneider
//! and Lumsdaine, HPDC 2010), which prices one MPI trace under many
//! network models.
//!
//! No call a rank program can make depends on the layout's timing: every
//! receive names its source and tag, so which message it matches is fixed
//! by the program, and every send blocks until its message is ready. So
//! every program that compiles can be recorded and replayed.

use std::sync::Arc;

use maia_sim::{SimDuration, SimError};

use crate::placement::WorldSpec;
use crate::world::{run_live, Rank, WorldResult};

/// One recorded rank operation, with the arguments a replay needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// A blocking send; `incast` marks an alltoall's.
    Send {
        dest: usize,
        tag: i32,
        bytes: u64,
        incast: bool,
    },
    Recv {
        src: usize,
        tag: i32,
    },
    /// [`Rank::compute`] of an explicit duration.
    Compute(SimDuration),
    /// [`Rank::compute_flops`], priced on the replaying rank's device.
    Flops {
        flops: f64,
        threads: usize,
    },
    /// [`Rank::reduce_op`] over `bytes`.
    Reduce(u64),
}

const SEND: u8 = 0;
const SEND_INCAST: u8 = 1;
const RECV: u8 = 2;
const COMPUTE: u8 = 3;
const FLOPS: u8 = 4;
const REDUCE: u8 = 5;

/// One rank's operations, LEB128-packed: an opcode byte, then its
/// arguments as unsigned varints (tags zigzagged, flops as raw f64 bits).
/// A01's CG world logs 98 KB over its 8 ranks.
#[derive(Debug, Default)]
pub(crate) struct OpLog {
    bytes: Vec<u8>,
}

impl OpLog {
    pub(crate) fn push(&mut self, op: Op) {
        let b = &mut self.bytes;
        match op {
            Op::Send {
                dest,
                tag,
                bytes,
                incast,
            } => {
                b.push(if incast { SEND_INCAST } else { SEND });
                put(b, dest as u64);
                put(b, zigzag(tag));
                put(b, bytes);
            }
            Op::Recv { src, tag } => {
                b.push(RECV);
                put(b, src as u64);
                put(b, zigzag(tag));
            }
            Op::Compute(dur) => {
                b.push(COMPUTE);
                put(b, dur.as_ps());
            }
            Op::Flops { flops, threads } => {
                b.push(FLOPS);
                b.extend_from_slice(&flops.to_bits().to_le_bytes());
                put(b, threads as u64);
            }
            Op::Reduce(bytes) => {
                b.push(REDUCE);
                put(b, bytes);
            }
        }
    }
}

fn put(b: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        b.push(v as u8 | 0x80);
        v >>= 7;
    }
    b.push(v as u8);
}

fn zigzag(v: i32) -> u64 {
    ((v << 1) ^ (v >> 31)) as u32 as u64
}

fn unzigzag(v: u64) -> i32 {
    let v = v as u32;
    ((v >> 1) as i32) ^ -((v & 1) as i32)
}

/// Decodes an [`OpLog`]'s bytes. Logs are written by this process, so a
/// malformed one is a bug, not an input error.
struct Ops<'a> {
    bytes: &'a [u8],
}

impl Ops<'_> {
    fn take(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let (&byte, rest) = self.bytes.split_first().expect("truncated op log");
            self.bytes = rest;
            v |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return v;
            }
            shift += 7;
        }
    }
}

impl Iterator for Ops<'_> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let (&code, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        Some(match code {
            SEND | SEND_INCAST => Op::Send {
                dest: self.take() as usize,
                tag: unzigzag(self.take()),
                bytes: self.take(),
                incast: code == SEND_INCAST,
            },
            RECV => Op::Recv {
                src: self.take() as usize,
                tag: unzigzag(self.take()),
            },
            COMPUTE => Op::Compute(SimDuration::from_ps(self.take())),
            FLOPS => {
                let (bits, rest) = self.bytes.split_at(8);
                self.bytes = rest;
                Op::Flops {
                    flops: f64::from_bits(u64::from_le_bytes(bits.try_into().expect("8 bytes"))),
                    threads: self.take() as usize,
                }
            }
            REDUCE => Op::Reduce(self.take()),
            other => panic!("unknown opcode {other} in op log"),
        })
    }
}

impl Rank {
    /// Run the recorded operations `log` on this rank, payload-free,
    /// through the same calls the live program made.
    async fn replay(mut self, log: &[u8]) -> Rank {
        for op in (Ops { bytes: log }) {
            match op {
                Op::Send {
                    dest,
                    tag,
                    bytes,
                    incast: false,
                } => self.send(dest, tag, bytes).await,
                Op::Send {
                    dest,
                    tag,
                    bytes,
                    incast: true,
                } => self.send_incast(dest, tag, bytes).await,
                Op::Recv { src, tag } => self.recv(src, tag).await,
                Op::Compute(dur) => self.compute(dur).await,
                Op::Flops { flops, threads } => self.compute_flops(flops, threads).await,
                Op::Reduce(bytes) => self.reduce_op(bytes).await,
            }
        }
        self
    }
}

/// Replay the live world's per-rank `logs` on each of `specs`, after the
/// live world's own result. Not generic over the program, so every
/// kernel shares this one copy of the replay.
pub(crate) fn replay_layouts(
    live: WorldResult,
    logs: Vec<OpLog>,
    specs: &[WorldSpec],
) -> Result<Vec<WorldResult>, SimError> {
    let logs: Arc<[Box<[u8]>]> = logs.into_iter().map(|log| log.bytes.into()).collect();
    let mut worlds = Vec::with_capacity(specs.len() + 1);
    worlds.push(live);
    for spec in specs {
        let logs = Arc::clone(&logs);
        let replay = move |rank: Rank| {
            let logs = Arc::clone(&logs);
            async move {
                let me = rank.rank();
                rank.replay(&logs[me]).await
            }
        };
        worlds.push(run_live(spec, replay, false)?.0);
    }
    Ok(worlds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::MpiWorld;
    use maia_arch::faults::Straggler;
    use maia_arch::{Device, Faults};
    use maia_interconnect::SoftwareStack;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Three 4-rank layouts: one device each, and symmetric mode.
    fn layouts() -> Vec<WorldSpec> {
        vec![
            WorldSpec::all_on(Device::Host, 4),
            WorldSpec::all_on(Device::Phi0, 4),
            WorldSpec::symmetric(2, 1, SoftwareStack::PostUpdate),
        ]
    }

    fn assert_same_world(live: &WorldResult, replayed: &WorldResult, what: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(live.end_time, replayed.end_time, "{what}: end time");
        assert_eq!(
            bits(&live.rank_finish_s),
            bits(&replayed.rank_finish_s),
            "{what}: finishes"
        );
        for (l, r) in live.rank_stats.iter().zip(&replayed.rank_stats) {
            assert_eq!(l.comm_s.to_bits(), r.comm_s.to_bits(), "{what}: comm_s");
            assert_eq!(
                l.compute_s.to_bits(),
                r.compute_s.to_bits(),
                "{what}: compute_s"
            );
        }
    }

    /// A program of every op a rank can call: compute by duration and by
    /// flops, a barrier, a sendrecv ring, each timing-only collective
    /// (allgather on both sides of [`crate::coll::ALLGATHER_BRUCK_MAX`],
    /// allreduce with its reduce operators, an incast alltoall), and each
    /// data-carrying collective, whose payloads a replay drops.
    async fn collectives(mut rank: Rank) -> Rank {
        let (me, p) = (rank.rank(), rank.size());
        rank.compute(SimDuration::from_us(1.0 + me as f64)).await;
        rank.bcast(0, 64 * 1024).await;
        rank.compute_flops(2e5 * (me + 1) as f64, 2).await;
        rank.allreduce(8 * 1024).await;
        rank.alltoall(4 * 1024).await;
        rank.compute(SimDuration::from_us(3.0)).await;
        rank.allreduce(256 * 1024).await;
        rank.compute_flops(4e4, 1).await;
        rank.barrier().await;
        rank.sendrecv((me + 1) % p, (me + p - 1) % p, 7, 32 * 1024).await;
        rank.allgather(512).await;
        rank.allgather(16 * 1024).await;
        let mut sum = vec![me as f64; 300];
        rank.allreduce_sum_data(&mut sum).await;
        let displs: Vec<usize> = (0..=p).map(|r| 100 * r).collect();
        let mut gathered = vec![0.0; 100 * p];
        rank.allgather_data(&[me as f64; 100], &mut gathered, &displs).await;
        let blocks = (0..p).map(|d| vec![me as f64; 50 * (d + 1)]).collect();
        rank.alltoall_data(blocks).await;
        rank.compute(SimDuration::from_us(2.0)).await;
        rank
    }

    #[test]
    fn timing_only_program_replays_bit_exactly() {
        // Healthy, and with rank 3 straggling from mid-run on, so the
        // stretch depends on each layout's own clock at replay time.
        let healthy = MpiWorld::run(&layouts()[0], collectives).unwrap();
        let onset = healthy.end_time.as_secs_f64() / 2.0;
        let mut straggler = Faults::default();
        straggler.stragglers.push(Straggler {
            rank: 3,
            slowdown: 4.0,
            from_s: onset,
        });
        let mut ends = Vec::new();
        for faults in [Faults::default(), straggler] {
            let specs: Vec<WorldSpec> = layouts()
                .into_iter()
                .map(|s| s.with_faults(&faults))
                .collect();
            let replayed = MpiWorld::run_layouts(&specs, collectives).unwrap();
            assert_eq!(replayed.len(), specs.len());
            for (i, spec) in specs.iter().enumerate() {
                let live = MpiWorld::run(spec, collectives).unwrap();
                assert_same_world(&live, &replayed[i], &format!("layout {i}"));
            }
            ends.push(replayed.iter().map(|w| w.end_time).collect::<Vec<_>>());
        }
        for (healthy, slowed) in ends[0].iter().zip(&ends[1]) {
            assert!(slowed > healthy, "the straggler must slow every layout");
        }
    }

    #[test]
    fn program_body_runs_once_per_rank_not_per_layout() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        let worlds = MpiWorld::run_layouts(&layouts(), move |rank| {
            seen.fetch_add(1, Ordering::SeqCst);
            collectives(rank)
        })
        .unwrap();
        assert_eq!(worlds.len(), 3);
        assert_eq!(calls.load(Ordering::SeqCst), 4, "one body per rank");
    }

    #[test]
    fn ops_round_trip_through_the_log() {
        let ops = [
            Op::Send {
                dest: 7,
                tag: 6_000_003,
                bytes: 1 << 40,
                incast: true,
            },
            Op::Send {
                dest: 0,
                tag: -1,
                bytes: 0,
                incast: false,
            },
            Op::Recv {
                src: 300,
                tag: i32::MIN,
            },
            Op::Compute(SimDuration::from_ps(u64::MAX)),
            Op::Flops {
                flops: 2.5e9,
                threads: 59,
            },
            Op::Reduce(128),
        ];
        let mut log = OpLog::default();
        for op in ops {
            log.push(op);
        }
        let back: Vec<Op> = Ops { bytes: &log.bytes }.collect();
        assert_eq!(back, ops);
    }
}
