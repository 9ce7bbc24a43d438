//! Record one live world, price it on other layouts.
//!
//! A rank program cannot ask where it runs: compute is priced by
//! [`Rank::compute_flops`](crate::Rank::compute_flops) from the rank's
//! device, an alltoall's incast from the sender's, and a message's cost
//! by the transport. So its operations — sends, receives, compute and
//! reduction operators — are a function of its rank, the world size and
//! its numerics alone.
//! [`crate::MpiWorld::run_layouts`] runs the program live on the first
//! layout while every rank appends its operations to an op log, then
//! prices each rank's log on every other layout: no payloads, no
//! numerics. Every op is priced by one function, `Op::price`, which a
//! live [`Rank`](crate::Rank) calls too.
//!
//! No call a rank program can make depends on the layout's timing
//! either: every receive names its source and tag, so which message it
//! matches is fixed by the program, and every send is eager and blocks
//! until its message is ready. So every program that compiles can be
//! recorded, and on another layout each rank's clock is a recurrence
//! over its own ops: `evaluate` walks the logs once, with no engine, and
//! gives a live run's [`WorldResult`], bit for bit. The DES runs only
//! live programs, and an op log is only evaluated: while a probe could
//! observe engines (`maia_sim::factory_installed`), every layout runs
//! live instead, so the profile sees each layout's events. This is
//! LogGOPSim's trace-driven replay (Hoefler, Schneider and Lumsdaine,
//! HPDC 2010), which prices one MPI trace under many network models.

use std::collections::VecDeque;

use maia_sim::{SimDuration, SimError, SimTime};

use crate::placement::{RankPlacement, WorldSpec};
use crate::transport::{alltoall_incast, core_gflops, TransportModel};
use crate::world::{LiveRun, RankStats, WorldResult};

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
    /// [`Rank::compute`](crate::Rank::compute) of an explicit duration.
    Compute(SimDuration),
    /// [`Rank::compute_flops`](crate::Rank::compute_flops), priced on the
    /// replaying rank's device.
    Flops {
        flops: f64,
        threads: usize,
    },
    /// [`Rank::reduce_op`](crate::Rank::reduce_op) over `bytes`.
    Reduce(u64),
}

impl Op {
    /// What this op costs rank `rank` of a world placed by `placements`,
    /// starting at its clock `now()`, charged to its `stats`. A send pays
    /// its message time (times the alltoall incast of the sender's
    /// device for an incast send) as communication; compute, flops and
    /// reduction operators are compute, and compute and flops stretch
    /// under a straggler active at `now()`, the only ops that read it (a
    /// live rank's clock is a thread-local read). A receive costs
    /// nothing: its wait is idle. The one pricing a live
    /// [`Rank`](crate::Rank) and [`evaluate`] share, so the two cannot
    /// drift apart by a rounding.
    #[inline(always)]
    pub(crate) fn price(
        self,
        transport: &TransportModel,
        placements: &[RankPlacement],
        rank: usize,
        now: impl FnOnce() -> SimTime,
        stats: &mut RankStats,
    ) -> SimDuration {
        let here = || placements[rank];
        let stretched = |dur| {
            let now_s = now().as_secs_f64();
            crate::faults::stretched_compute(&transport.faults, rank as u32, now_s, dur)
        };
        let dur = match self {
            Op::Send {
                dest,
                bytes,
                incast,
                ..
            } => {
                let from = here();
                let mut cost = transport.message_time(from, placements[dest], bytes);
                if incast {
                    let factor = alltoall_incast(from.device, placements.len());
                    cost = SimDuration::from_secs_f64(cost.as_secs_f64() * factor);
                }
                stats.comm_s += cost.as_secs_f64();
                return cost;
            }
            Op::Recv { .. } => return SimDuration::ZERO,
            Op::Compute(dur) => stretched(dur),
            Op::Flops { flops, threads } => {
                let gflops = core_gflops(here().device);
                stretched(SimDuration::from_secs_f64(
                    flops / (gflops * 1e9 * threads as f64),
                ))
            }
            Op::Reduce(bytes) => transport.reduce_time(here().device, bytes),
        };
        stats.compute_s += dur.as_secs_f64();
        dur
    }
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

/// Run one program on every layout in `specs`, all of one size, given
/// `live(spec, record)`, a live run of it that returns its op logs when
/// `record` is set: `specs[0]` live while recording, then each other
/// layout evaluated from its logs; or every layout live, with no log,
/// while a probe could observe engines. Not generic over the program, so
/// every kernel shares this one copy of the loop.
///
/// # Panics
/// Panics if `specs` is empty or its worlds differ in size.
pub(crate) fn run_layouts(
    specs: &[WorldSpec],
    live: &dyn Fn(&WorldSpec, bool) -> LiveRun,
) -> Result<Vec<WorldResult>, SimError> {
    let (first, rest) = specs.split_first().expect("run_layouts needs a layout");
    assert!(
        rest.iter().all(|s| s.size() == first.size()),
        "every layout of one program has the same world size"
    );
    if maia_sim::factory_installed() {
        return specs.iter().map(|spec| Ok(live(spec, false)?.0)).collect();
    }
    let (world, logs) = live(first, !rest.is_empty())?;
    let evaluated = rest.iter().map(|spec| evaluate(spec, &logs));
    std::iter::once(Ok(world)).chain(evaluated).collect()
}

/// Evaluate `logs` on `spec` without an engine. A send advances its
/// rank's clock by the send's price and leaves the message ready at the
/// new clock; a receive takes the clock to the later of itself and the
/// ready time of the first message from its source with its tag, in send
/// order, or parks the rank until that message is sent, which then
/// completes the receive; every other op advances the clock by its
/// price. Ranks run from a worklist until each finishes or parks; one
/// still parked when the worklist empties is blocked for good, and the
/// world deadlocks as the engine reports it. The result is a live run's,
/// bit for bit: every op is priced by [`Op::price`] at the same clock,
/// and fault tallies are integer sums, so the order ranks run in changes
/// nothing.
pub(crate) fn evaluate(spec: &WorldSpec, logs: &[OpLog]) -> Result<WorldResult, SimError> {
    spec.validate();
    let n = spec.size();
    let transport = TransportModel::for_world(spec);
    let placements = &spec.placements[..];
    let mut cursors: Vec<Ops> = logs.iter().map(|log| Ops { bytes: &log.bytes }).collect();
    let mut clocks = vec![SimTime::ZERO; n];
    let mut stats = vec![RankStats::default(); n];
    // Messages sent and not yet received, `(tag, ready)` in send order,
    // per `(src, dest)`; and the `(src, tag)` each parked rank waits on.
    let mut sent: Vec<VecDeque<(i32, SimTime)>> = vec![VecDeque::new(); n * n];
    let mut parked: Vec<Option<(usize, i32)>> = vec![None; n];
    let mut runnable: Vec<usize> = (0..n).rev().collect();
    while let Some(me) = runnable.pop() {
        let mut now = clocks[me];
        for op in cursors[me].by_ref() {
            if let Op::Recv { src, tag } = op {
                let queue = &mut sent[src * n + me];
                let Some(i) = queue.iter().position(|&(t, _)| t == tag) else {
                    parked[me] = Some((src, tag));
                    break;
                };
                let (_, ready) = queue.remove(i).expect("a found message");
                now = now.max(ready);
                continue;
            }
            let at = now;
            now += op.price(&transport, placements, me, || at, &mut stats[me]);
            if let Op::Send { dest, tag, .. } = op {
                if parked[dest] == Some((me, tag)) {
                    // The first message `dest` can match: its receive
                    // completes, and `dest` runs on past it.
                    parked[dest] = None;
                    clocks[dest] = clocks[dest].max(now);
                    runnable.push(dest);
                } else {
                    sent[me * n + dest].push_back((tag, now));
                }
            }
        }
        clocks[me] = now;
    }
    let end_time = clocks.iter().copied().max().unwrap_or(SimTime::ZERO);
    let blocked: Vec<String> = (0..n)
        .filter(|&r| parked[r].is_some())
        .map(|r| format!("rank-{r}"))
        .collect();
    if !blocked.is_empty() {
        return Err(SimError::Deadlock {
            blocked,
            at: end_time,
        });
    }
    Ok(WorldResult {
        end_time,
        rank_finish_s: clocks.iter().map(|c| c.as_secs_f64()).collect(),
        rank_stats: stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{run_live, MpiWorld, Rank};
    use maia_arch::faults::Straggler;
    use maia_arch::{Device, Faults};
    use maia_interconnect::SoftwareStack;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

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

    /// A splitmix64 stream: a generated program's only randomness.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// One step of a generated program; every rank runs every step.
    #[derive(Debug)]
    enum Step {
        /// Rank `r` sends each `(tag, bytes)` to `to[r]` in order, then
        /// receives them from the rank that sends to it, last first.
        Exchange {
            to: Vec<usize>,
            msgs: Vec<(i32, u64)>,
        },
        /// Picoseconds of compute, times one more than the rank.
        Compute(u64),
        Flops {
            flops: f64,
            threads: usize,
        },
        Reduce(u64),
        Alltoall(u64),
    }

    /// A 4-rank program from `seed`, ending in an incast alltoall. Sends
    /// are eager, so every send-then-receive round completes: the
    /// program cannot deadlock.
    fn program_from(seed: u64) -> Vec<Step> {
        let mut mix = Mix(seed);
        let mut steps: Vec<Step> = (0..4 + mix.below(12))
            .map(|_| match mix.below(6) {
                0 | 1 => {
                    let mut to: Vec<usize> = (0..4).collect();
                    for i in (1..4).rev() {
                        to.swap(i, mix.below(i as u64 + 1) as usize);
                    }
                    let msgs = (0..1 + mix.below(2))
                        .map(|_| (mix.below(5) as i32 - 2, 1 + mix.below(512 * 1024)))
                        .collect();
                    Step::Exchange { to, msgs }
                }
                2 => Step::Compute(1 + mix.below(4_000_000)),
                3 => Step::Flops {
                    flops: (1 + mix.below(1_000_000)) as f64,
                    threads: 1 + mix.below(4) as usize,
                },
                4 => Step::Reduce(1 + mix.below(256 * 1024)),
                _ => Step::Alltoall(1 + mix.below(64 * 1024)),
            })
            .collect();
        steps.push(Step::Alltoall(1 + mix.below(64 * 1024)));
        steps
    }

    async fn run_steps(mut rank: Rank, steps: Arc<Vec<Step>>) -> Rank {
        let me = rank.rank();
        let scale = 1 + me as u64;
        for step in steps.iter() {
            match step {
                Step::Exchange { to, msgs } => {
                    let from = to.iter().position(|&d| d == me).expect("a permutation");
                    if from == me {
                        continue;
                    }
                    for &(tag, bytes) in msgs {
                        rank.send(to[me], tag, bytes).await;
                    }
                    for &(tag, _) in msgs.iter().rev() {
                        rank.recv(from, tag).await;
                    }
                }
                Step::Compute(ps) => rank.compute(SimDuration::from_ps(ps * scale)).await,
                Step::Flops { flops, threads } => {
                    rank.compute_flops(flops * scale as f64, *threads).await
                }
                Step::Reduce(bytes) => rank.reduce_op(bytes * scale).await,
                Step::Alltoall(bytes) => rank.alltoall(*bytes).await,
            }
        }
        rank
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any program's op log, evaluated on each layout, is a live run
        /// of the program, bit for bit, with the same injected fault
        /// time: on the healthy machine, under a straggler from mid-run
        /// on, and over a degraded DAPL link, whose retries the symmetric
        /// layout's PCIe messages pay.
        #[test]
        fn evaluated_logs_match_live_runs(seed in any::<u64>()) {
            let steps = Arc::new(program_from(seed));
            let program = Arc::new(move |rank: Rank| run_steps(rank, Arc::clone(&steps)));
            let (healthy, logs) = run_live(&layouts()[0], &program, true).unwrap();
            let machine = |kind: usize| {
                let mut faults = Faults::armed("replay-prop", None);
                match kind {
                    0 => {}
                    1 => faults.stragglers.push(Straggler {
                        rank: (seed % 4) as u32,
                        slowdown: 3.0,
                        from_s: healthy.end_time.as_secs_f64() / 2.0,
                    }),
                    _ => {
                        faults.dapl_fallback = true;
                        faults.link_timeouts_s = vec![2e-6, 4e-6];
                    }
                }
                faults
            };
            for (i, layout) in layouts().into_iter().enumerate() {
                for kind in 0..3 {
                    let what = format!("seed {seed}, layout {i}, machine {kind}");
                    let run = |live: bool| {
                        let faults = machine(kind);
                        let spec = layout.clone().with_faults(&faults);
                        let world = if live {
                            run_live(&spec, &program, false).map(|(world, _)| world)
                        } else {
                            evaluate(&spec, &logs)
                        };
                        (world.unwrap(), faults.injected_ps())
                    };
                    let (evaluated, evaluated_ps) = run(false);
                    let (live, live_ps) = run(true);
                    assert_same_world(&live, &evaluated, &what);
                    prop_assert_eq!(live_ps, evaluated_ps, "{}: injected time", what);
                    if kind == 2 && i == 2 {
                        prop_assert!(evaluated_ps > 0, "{}: no link retry priced", what);
                    }
                }
            }
        }
    }

    #[test]
    fn unmatched_receive_evaluates_to_the_engines_deadlock() {
        let mut logs = vec![OpLog::default(), OpLog::default(), OpLog::default()];
        logs[0].push(Op::Compute(SimDuration::from_us(5.0)));
        logs[0].push(Op::Send {
            dest: 1,
            tag: 1,
            bytes: 64,
            incast: false,
        });
        logs[1].push(Op::Recv { src: 0, tag: 2 });
        logs[2].push(Op::Reduce(4096));
        let spec = WorldSpec::all_on(Device::Host, 3);
        let err = evaluate(&spec, &logs).unwrap_err();
        // A live program that makes the same calls.
        let live = MpiWorld::run(&spec, |mut rank| async move {
            match rank.rank() {
                0 => {
                    rank.compute(SimDuration::from_us(5.0)).await;
                    rank.send(1, 1, 64).await;
                }
                1 => rank.recv(0, 2).await,
                _ => rank.reduce_op(4096).await,
            }
            rank
        });
        assert_eq!(err, live.unwrap_err());
        match err {
            SimError::Deadlock { blocked, at } => {
                assert_eq!(blocked, ["rank-1"]);
                assert!(at > SimTime::ZERO);
            }
            other => panic!("expected a deadlock, got {other}"),
        }
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
