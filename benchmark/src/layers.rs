//! Per-layer replays run by the traced children. Each function calls one
//! layer's public entry points the way the end-to-end workloads do, wraps
//! every call in a benchmark-side span, and reports the layer's time and
//! its deterministic work counts.
//!
//! Memo state decides which child a replay may run in. `ep`'s batch memo
//! and `cg`'s matrix cache are process-wide and survive
//! `maia_core::cache::clear()`, so the A01 rows (which warm them exactly
//! as the sweep does) and the bare kernels (which must find them cold)
//! each get a child of their own.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use maia_arch::Device;
use maia_core::crosscheck::CROSSCHECK_IDS;
use maia_core::{run_experiment, ExperimentId, FigureData};
use maia_mpi::bench::{cluster_collective_run_with, collective_time_des, CollectiveOp};
use maia_mpi::fastpath::EngineMode;
use maia_mpi::process_backend::Backend;
use maia_mpi::world::Msg;
use maia_mpi::{MpiWorld, WorldSpec};
use maia_sim::channel::SimChannel;
use maia_sim::partition::process::{wire, WireItem};
use maia_sim::partition::{
    local_bus, DriveStatus, ExchangeOutcome, ProcessCommunicator, ProcessConfig, RemoteMsg,
    SimCommunicator, WheelReport, WheelStats, WorkerEndpoint,
};
use maia_sim::{Engine, SimDuration, SimTime};

use crate::child::Report;
use crate::rng::Rng;
use crate::stats;
use crate::trace::Recorder;

/// The C01/C02 cell grid: node counts, per-pair payloads and operations.
const NODES: [usize; 4] = [2, 8, 32, 128];
const SIZES: [u64; 3] = [64, 4 * 1024, 64 * 1024];
const OPS: [CollectiveOp; 2] = [CollectiveOp::Allreduce, CollectiveOp::Alltoall];
/// Wheels of the partitioned cluster cells, as in the cluster workloads.
const WHEELS: usize = 2;

type Cell = (usize, u64, CollectiveOp);

fn cells() -> Vec<Cell> {
    OPS.iter()
        .flat_map(|&op| {
            NODES
                .iter()
                .flat_map(move |&n| SIZES.iter().map(move |&b| (n, b, op)))
        })
        .collect()
}

fn cell_name((nodes, bytes, op): Cell) -> String {
    format!("{op:?}.{nodes}n.{bytes}B")
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Duration of the span `name` just closed, in ns.
fn took(rec: &Recorder, name: &str) -> u64 {
    rec.last_ns(name).expect("span was recorded")
}

/// Everything the main replay child measures after the workload call.
/// Ordered so no layer reads a memo entry an earlier one planted: the
/// DES/closed-form pair clears the memo cache first, and the cache layer,
/// which plants its own keys, runs last.
pub fn replay(rec: &Recorder, out: &mut Report, rng: &mut Rng) {
    sim_wheel(rec, out);
    sim_dispatch(rec, out);
    des_vs_closed_form(rec, out, rng);
    mpi(rec, out);
    omp(rec, out);
    hooks_off(rec, out);
    let channel = partition(rec, out, rng);
    wire_codec(rec, out);
    pipe_window(rec, out);
    supervise(rec, out, rng, &channel);
    cache(rec, out);
}

/// 64 inline processes advancing by durations that land on wheel levels
/// 0 through 5, so pushes, pops and cascades all take part.
fn sim_wheel(rec: &Recorder, out: &mut Report) {
    const PROCS: usize = 64;
    const ADVANCES: usize = 2_000;
    let mut engine = Engine::new();
    for p in 0..PROCS {
        engine.spawn_inline(format!("wheel-{p}"), move |ctx| async move {
            for k in 0..ADVANCES {
                let shift = 3 + 6 * ((p + k) % 6) as u32;
                ctx.advance(SimDuration::from_ps(1 << shift)).await;
            }
        });
    }
    let horizon = SimTime::ZERO + SimDuration::from_ps(u64::MAX / 2);
    rec.span("sim.wheel", || engine.run_window(horizon))
        .expect("wheel replay cannot fail");
    let events = engine.sched_stats().events_popped;
    out.metric(
        "sim.wheel.ns_per_event",
        took(rec, "sim.wheel") as f64 / events as f64,
    );
    out.exact("sim.wheel.events", events);
}

/// Two inline processes ping-ponging over a pair of `SimChannel`s: every
/// hop is a send, a wake-up and a resumption.
fn sim_dispatch(rec: &Recorder, out: &mut Report) {
    const ROUND_TRIPS: u64 = 20_000;
    let ping: SimChannel<u64> = SimChannel::new("ping");
    let pong: SimChannel<u64> = SimChannel::new("pong");
    let hops = Arc::new(AtomicU64::new(0));
    let mut engine = Engine::new();
    {
        let (ping, pong, hops) = (ping.clone(), pong.clone(), Arc::clone(&hops));
        engine.spawn_inline("pinger", move |ctx| async move {
            for i in 0..ROUND_TRIPS {
                ping.send_inline(&ctx, i);
                let back = pong.recv_inline(&ctx).await;
                assert_eq!(back, i, "pong returned another value");
                hops.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    {
        let hops = Arc::clone(&hops);
        engine.spawn_inline("ponger", move |ctx| async move {
            for _ in 0..ROUND_TRIPS {
                let v = ping.recv_inline(&ctx).await;
                hops.fetch_add(1, Ordering::Relaxed);
                pong.send_inline(&ctx, v);
            }
        });
    }
    rec.span("sim.dispatch", || engine.run())
        .expect("ping-pong cannot deadlock");
    let hops = hops.load(Ordering::Relaxed);
    out.metric(
        "sim.dispatch.ns_per_hop",
        took(rec, "sim.dispatch") as f64 / hops as f64,
    );
    out.exact("sim.dispatch.hops", hops);
}

/// Every crosscheck experiment through `run_experiment`, first forced to
/// the DES, then forced to the closed forms, each over an empty memo
/// cache; the two must render the same cells.
fn des_vs_closed_form(rec: &Recorder, out: &mut Report, rng: &mut Rng) {
    maia_mpi::partition::set_partitions(1);
    maia_mpi::process_backend::set_backend(Backend::Channel);
    let mut ids = CROSSCHECK_IDS.to_vec();
    rng.shuffle(&mut ids);

    maia_core::cache::clear();
    maia_mpi::fastpath::set_engine_mode(EngineMode::Des);
    let des: Vec<FigureData> = ids
        .iter()
        .map(|&id| {
            let name = format!("xc.des.{}", id.meta().code);
            let data = rec.span(&name, || run_experiment(id));
            out.metric(&format!("{name}_ms"), ms(took(rec, &name)));
            data
        })
        .collect();
    maia_core::cache::clear();
    maia_mpi::fastpath::set_engine_mode(EngineMode::Fast);
    let fast: Vec<FigureData> = rec.span("xc.fast", || {
        ids.iter().map(|&id| run_experiment(id)).collect()
    });
    maia_mpi::fastpath::set_engine_mode(EngineMode::Auto);
    out.metric("xc.fast_ms", ms(took(rec, "xc.fast")));

    let mut cells = 0u64;
    for (d, f) in des.iter().zip(&fast) {
        cells += d.rows.iter().map(|r| r.len() as u64).sum::<u64>();
        if d.rows != f.rows || d.headers != f.headers {
            out.fail(&format!("{}: DES and closed-form tables differ", d.id));
        }
    }
    out.exact("xc.cells", cells);
}

/// Point-to-point traffic (a sendrecv ring) and each collective on the
/// DES and on its closed form, 16 host ranks, 4 KiB.
fn mpi(rec: &Recorder, out: &mut Report) {
    const RANKS: usize = 16;
    const ITERS: i32 = 50;
    const BYTES: u64 = 4096;
    let spec = WorldSpec::all_on(Device::Host, RANKS);
    rec.span("mpi.p2p", || {
        MpiWorld::run(&spec, |mut rank| async move {
            let p = rank.size();
            let (right, left) = ((rank.rank() + 1) % p, (rank.rank() + p - 1) % p);
            for i in 0..ITERS {
                rank.sendrecv(right, left, i, BYTES).await;
            }
            rank
        })
    })
    .expect("ring cannot deadlock");
    let msgs = RANKS as u64 * ITERS as u64;
    out.metric(
        "mpi.p2p.ns_per_msg",
        took(rec, "mpi.p2p") as f64 / msgs as f64,
    );
    out.exact("mpi.p2p.msgs", msgs);

    const DES_REPS: u32 = 5;
    const FAST_REPS: u32 = 20_000;
    for (label, op) in [
        ("bcast", CollectiveOp::Bcast),
        ("allreduce", CollectiveOp::Allreduce),
        ("allgather", CollectiveOp::Allgather),
        ("alltoall", CollectiveOp::Alltoall),
    ] {
        let des = format!("mpi.coll.des.{label}");
        rec.span(&des, || {
            for _ in 0..DES_REPS {
                black_box(collective_time_des(Device::Host, RANKS, BYTES, op));
            }
        });
        let fast = format!("mpi.coll.fast.{label}");
        rec.span(&fast, || {
            for _ in 0..FAST_REPS {
                black_box(maia_mpi::fastpath::collective_time(
                    black_box(Device::Host),
                    black_box(RANKS),
                    black_box(BYTES),
                    op,
                ));
            }
        });
        out.metric(
            &format!("mpi.coll.des_us.{label}"),
            took(rec, &des) as f64 / 1e3 / f64::from(DES_REPS),
        );
        out.metric(
            &format!("mpi.coll.fast_ns.{label}"),
            took(rec, &fast) as f64 / f64::from(FAST_REPS),
        );
    }
}

/// Fork/join cost of an empty two-thread region, and of one barrier.
fn omp(rec: &Recorder, out: &mut Report) {
    const REGIONS: u32 = 500;
    const BARRIERS: u32 = 5_000;
    let team = maia_omp::Team::new(2);
    rec.span("omp.region", || {
        for _ in 0..REGIONS {
            team.parallel(|ctx| {
                black_box(ctx.thread_num());
            });
        }
    });
    rec.span("omp.barrier", || {
        team.parallel(|ctx| {
            for _ in 0..BARRIERS {
                ctx.barrier();
            }
        })
    });
    out.metric(
        "omp.region_us",
        took(rec, "omp.region") as f64 / 1e3 / f64::from(REGIONS),
    );
    out.metric(
        "omp.barrier_us",
        took(rec, "omp.barrier") as f64 / 1e3 / f64::from(BARRIERS),
    );
}

/// The inactive telemetry and fault hooks: each should cost one relaxed
/// atomic load.
fn hooks_off(rec: &Recorder, out: &mut Report) {
    const CALLS: u32 = 2_000_000;
    rec.span("telemetry.off", || {
        for _ in 0..CALLS {
            maia_core::telemetry::count(black_box("bench.hook"), 1);
        }
    });
    rec.span("faults.off", || {
        for _ in 0..CALLS {
            black_box(maia_mpi::faults::any_active());
        }
    });
    out.metric(
        "telemetry.off_ns",
        took(rec, "telemetry.off") as f64 / f64::from(CALLS),
    );
    out.metric(
        "faults.off_ns",
        took(rec, "faults.off") as f64 / f64::from(CALLS),
    );
}

/// One partitioned cluster cell on the channel backend.
#[derive(Clone, Copy)]
struct CellRun {
    ms: f64,
    time_bits: u64,
    windows: u64,
    messages: u64,
}

/// All 24 C01/C02 cells on two wheels over the in-process channel
/// backend, plus the bare window-exchange loop. Returns each cell's run,
/// indexed like [`cells`], for the process-backend comparison.
fn partition(rec: &Recorder, out: &mut Report, rng: &mut Rng) -> Vec<Option<CellRun>> {
    let grid = cells();
    let mut order: Vec<usize> = (0..grid.len()).collect();
    rng.shuffle(&mut order);
    let mut runs = vec![None; grid.len()];
    let (mut stall_ns, mut wheel_ns) = (0u64, 0u64);
    rec.span("partition.cells", || {
        for &i in &order {
            let (nodes, bytes, op) = grid[i];
            let name = format!("partition.{}", cell_name(grid[i]));
            let (time_s, run) = rec.span(&name, || {
                cluster_collective_run_with(nodes, bytes, op, WHEELS)
            });
            let ns = took(rec, &name);
            stall_ns += run.wheels.iter().map(|w| w.stall_wall_ns).sum::<u64>();
            wheel_ns += ns * run.wheels.len() as u64;
            runs[i] = Some(CellRun {
                ms: ms(ns),
                time_bits: time_s.to_bits(),
                windows: run.windows,
                messages: run.messages,
            });
        }
    });
    let done: Vec<CellRun> = runs.iter().flatten().copied().collect();
    let cell_ms: Vec<f64> = done.iter().map(|r| r.ms).collect();
    out.metric(
        "partition.cell_ms.p50",
        stats::median(&cell_ms).expect("24 cells"),
    );
    out.metric(
        "partition.cell_ms.p90",
        stats::percentile(&cell_ms, 90.0).expect("24 cells"),
    );
    out.exact("partition.windows", done.iter().map(|r| r.windows).sum());
    out.exact("partition.messages", done.iter().map(|r| r.messages).sum());
    out.metric("partition.stall_frac", stall_ns as f64 / wheel_ns as f64);

    const WINDOWS: u64 = 2_000;
    let bus = local_bus::<Msg>(WHEELS);
    rec.span("partition.window.channel", || {
        std::thread::scope(|s| {
            for mut comm in bus {
                s.spawn(move || exchange_loop(&mut comm, WINDOWS));
            }
        })
    });
    out.metric(
        "partition.window_us.channel",
        took(rec, "partition.window.channel") as f64 / 1e3 / WINDOWS as f64,
    );
    runs
}

fn msg(src: usize, payload: Option<Vec<f64>>) -> Msg {
    Msg {
        src,
        tag: 7,
        bytes: 4096,
        data: payload,
        ready: SimTime::ZERO + SimDuration::from_ps(1_100_000),
    }
}

/// `windows` barrier exchanges between two partitions, one message each
/// way per window, then the terminating all-idle exchange.
fn exchange_loop<C: SimCommunicator<Msg>>(comm: &mut C, windows: u64) {
    let me = comm.partition();
    let peer = 1 - me;
    for w in 0..=windows {
        let mut outbound: Vec<Vec<RemoteMsg<Msg>>> = vec![Vec::new(), Vec::new()];
        let floor = (w < windows).then(|| {
            outbound[peer].push(RemoteMsg {
                arrival: SimTime::ZERO + SimDuration::from_ps(w + 1),
                dest_slot: peer,
                order: (me as u64, w),
                payload: msg(me, None),
            });
            w
        });
        match comm.exchange(outbound, floor) {
            ExchangeOutcome::Continue { inbound, .. } => {
                assert_eq!(inbound.len(), 1, "one message per window from the peer");
            }
            ExchangeOutcome::Done => {
                assert_eq!(w, windows, "the exchange ended early");
                return;
            }
            ExchangeOutcome::Aborted => panic!("exchange aborted at window {w}"),
        }
    }
    panic!("the exchange never terminated");
}

/// The wire codec on `world::Msg`, with and without a real payload.
fn wire_codec(rec: &Recorder, out: &mut Report) {
    const ROUNDS: usize = 200_000;
    let msgs = [msg(3, None), msg(5, Some((0..16).map(f64::from).collect()))];
    let encoded: Vec<Vec<u8>> = msgs
        .iter()
        .map(|m| {
            let mut buf = Vec::new();
            m.encode(&mut buf);
            buf
        })
        .collect();
    for (m, bytes) in msgs.iter().zip(&encoded) {
        let back = Msg::decode(&mut wire::Reader::new(bytes)).expect("a fresh encoding decodes");
        if (back.src, back.tag, back.bytes, &back.data, back.ready)
            != (m.src, m.tag, m.bytes, &m.data, m.ready)
        {
            out.fail("wire round trip changed a message");
        }
    }
    let mut buf = Vec::with_capacity(256);
    let mut total = 0usize;
    rec.span("wire.encode", || {
        for i in 0..ROUNDS {
            buf.clear();
            black_box(&msgs[i % 2]).encode(&mut buf);
            total += black_box(&buf).len();
        }
    });
    rec.span("wire.decode", || {
        for i in 0..ROUNDS {
            black_box(Msg::decode(&mut wire::Reader::new(black_box(
                &encoded[i % 2],
            ))));
        }
    });
    out.metric(
        "wire.encode_ns",
        took(rec, "wire.encode") as f64 / ROUNDS as f64,
    );
    out.metric(
        "wire.decode_ns",
        took(rec, "wire.decode") as f64 / ROUNDS as f64,
    );
    out.exact("wire.bytes_per_msg", (total / ROUNDS) as u64);
}

/// The same exchange loop as the channel window, hub against a worker
/// endpoint over a Unix socket pair: framing, pipes and the hub router.
fn pipe_window(rec: &Recorder, out: &mut Report) {
    const WINDOWS: u64 = 500;
    let cfg = ProcessConfig {
        heartbeat_interval: Duration::from_millis(5),
        heartbeat_deadline: Duration::from_secs(10),
        handshake_deadline: Duration::from_secs(10),
    };
    let (hub_side, worker_side) =
        std::os::unix::net::UnixStream::pair().expect("socketpair for the pipe window");
    std::thread::scope(|s| {
        let worker = s.spawn(move || -> std::io::Result<()> {
            let reader = Box::new(worker_side.try_clone()?);
            let (mut endpoint, _job) =
                WorkerEndpoint::<Msg>::connect(1, WHEELS, reader, Box::new(worker_side), cfg)?;
            exchange_loop(&mut endpoint, WINDOWS);
            let report = WheelReport {
                status: DriveStatus::Completed,
                blocked: Vec::new(),
                end: SimTime::ZERO,
                windows: WINDOWS,
                stats: WheelStats::default(),
            };
            endpoint.finish(&report, &[])
        });
        let reader = Box::new(hub_side.try_clone().expect("clone the hub socket"));
        let mut hub = ProcessCommunicator::<Msg>::connect(
            WHEELS,
            vec![(reader, Box::new(hub_side))],
            vec![Vec::new()],
            cfg,
        )
        .expect("pipe handshake");
        rec.span("partition.window.pipe", || exchange_loop(&mut hub, WINDOWS));
        hub.collect_reports().expect("the worker reports");
        worker
            .join()
            .expect("pipe worker thread")
            .expect("pipe worker io");
    });
    out.metric(
        "partition.window_us.pipe",
        took(rec, "partition.window.pipe") as f64 / 1e3 / WINDOWS as f64,
    );
}

/// Cells through the supervised process backend: worker spawn, handshake,
/// heartbeats and teardown on top of the pipe exchange. Every cell must
/// reproduce the channel backend's result, windows and messages exactly.
fn supervise(rec: &Recorder, out: &mut Report, rng: &mut Rng, channel: &[Option<CellRun>]) {
    crate::workload::install_self_launcher();
    let grid = cells();
    // The smallest and largest world at the smallest and largest payload:
    // each supervised cell costs a worker process and a heartbeat join.
    let mut order: Vec<usize> = (0..grid.len())
        .filter(|&i| {
            let (nodes, bytes, _) = grid[i];
            [2, 128].contains(&nodes) && [64, 64 * 1024].contains(&bytes)
        })
        .collect();
    rng.shuffle(&mut order);
    // The counters are process-wide; the workload call before this layer
    // (a `cluster_process` replay) has bumped them already.
    let before = maia_core::telemetry::supervise_counters();
    let (mut cell_ms, mut overhead_ms) = (Vec::new(), Vec::new());
    let mut gate = [0u64; 4];
    for &i in &order {
        let (nodes, bytes, op) = grid[i];
        let name = format!("supervise.{}", cell_name(grid[i]));
        let (time_s, process) = rec.span(&name, || {
            maia_core::supervise::supervised_cluster_run(nodes, bytes, op, WHEELS)
        });
        let run = channel[i].expect("every cell ran on the channel backend");
        let ms = ms(took(rec, &name));
        cell_ms.push(ms);
        overhead_ms.push(ms - run.ms);
        if time_s.to_bits() != run.time_bits {
            out.fail(&format!(
                "{name}: process backend time differs from the channel backend"
            ));
        }
        gate[0] += process.windows;
        gate[1] += run.windows;
        gate[2] += process.messages;
        gate[3] += run.messages;
    }
    out.exact("gate.process.windows", gate[0]);
    out.exact("gate.channel.windows", gate[1]);
    out.exact("gate.process.messages", gate[2]);
    out.exact("gate.channel.messages", gate[3]);
    out.metric(
        "supervise.cell_ms.p50",
        stats::median(&cell_ms).expect("supervised cells"),
    );
    out.metric(
        "supervise.cell_ms.p90",
        stats::percentile(&cell_ms, 90.0).expect("cells"),
    );
    out.metric(
        "supervise.overhead_ms.p50",
        stats::median(&overhead_ms).expect("cells"),
    );
    let after = maia_core::telemetry::supervise_counters();
    for (name, a, b) in [
        (
            "missed_heartbeats",
            after.missed_heartbeats,
            before.missed_heartbeats,
        ),
        ("workers_lost", after.workers_lost, before.workers_lost),
        ("respawns", after.respawns, before.respawns),
        ("degraded", after.degraded, before.degraded),
    ] {
        out.metric(&format!("supervise.{name}"), (a - b) as f64);
    }
}

/// Memo lookups with keys shaped like the collective sub-model keys (the
/// `Bench` device keeps them clear of every real key).
fn cache(rec: &Recorder, out: &mut Report) {
    const HITS: u32 = 200_000;
    const MISSES: usize = 20_000;
    let key = "coll/Bench/16/4096/Allreduce";
    maia_core::cache::memo(key, || 1.0f64);
    rec.span("cache.hit", || {
        for _ in 0..HITS {
            black_box(maia_core::cache::memo(black_box(key), || 0.0f64));
        }
    });
    let keys: Vec<String> = (0..MISSES)
        .map(|i| format!("coll/Bench/{i}/65536/Alltoall"))
        .collect();
    rec.span("cache.miss", || {
        for k in &keys {
            black_box(maia_core::cache::memo(k, || 1.0f64));
        }
    });
    out.metric(
        "cache.hit_ns",
        took(rec, "cache.hit") as f64 / f64::from(HITS),
    );
    out.metric(
        "cache.miss_ns",
        took(rec, "cache.miss") as f64 / MISSES as f64,
    );
}

/// A01's exact calls (`npb_figs.rs`), row by row, then A02's three
/// layouts, then every remaining sweep experiment — in a child whose
/// process-wide memos start cold, as they do in a sweep sample.
pub fn npb_mpi(rec: &Recorder, out: &mut Report) {
    use maia_apps::overflow::OverflowCase;
    use maia_apps::overflow_mpi::run_mpi;
    use maia_npb::mpi_npb::{cg_mpi, ep_mpi, ft_mpi, is_mpi};

    let host = WorldSpec::all_on(Device::Host, 8);
    let phi = WorldSpec::all_on(Device::Phi0, 8);
    let ep = rec.span("a01.ep", || (ep_mpi(18, &host), ep_mpi(18, &phi)));
    let cg = rec.span("a01.cg", || {
        (
            cg_mpi(600, 5, 3, 10.0, &host),
            cg_mpi(600, 5, 3, 10.0, &phi),
        )
    });
    let ft = rec.span("a01.ft", || {
        (ft_mpi(16, 16, 16, &host), ft_mpi(16, 16, 16, &phi))
    });
    let is = rec.span("a01.is", || (is_mpi(14, 10, &host), is_mpi(14, 10, &phi)));
    // The numerics are device-independent; only virtual time differs.
    if ep.0.result != ep.1.result
        || cg.0.result.to_bits() != cg.1.result.to_bits()
        || ft.0.result != ft.1.result
        || is.0.result != is.1.result
    {
        out.fail("A01 numerics differ between the host and Phi worlds");
    }
    for k in ["ep", "cg", "ft", "is"] {
        out.metric(&format!("a01.{k}_ms"), ms(took(rec, &format!("a01.{k}"))));
    }

    let case = OverflowCase {
        zone_n: 10,
        zones: 4,
    };
    for (label, spec) in [
        ("host4", WorldSpec::all_on(Device::Host, 4)),
        ("phi4", WorldSpec::all_on(Device::Phi0, 4)),
        (
            "sym",
            WorldSpec::symmetric(2, 1, maia_interconnect::SoftwareStack::PostUpdate),
        ),
    ] {
        let name = format!("a02.{label}");
        let r = rec.span(&name, || run_mpi(&case, 3, 1, &spec));
        if !r.final_residual.is_finite() {
            out.fail(&format!("{name}: residual is not finite"));
        }
        out.metric(&format!("{name}_ms"), ms(took(rec, &name)));
    }

    maia_mpi::fastpath::set_engine_mode(EngineMode::Auto);
    let skip: Vec<ExperimentId> = [
        ExperimentId::A1NpbMpiMeasured,
        ExperimentId::A2OverflowHybrid,
    ]
    .into_iter()
    .chain(CROSSCHECK_IDS)
    .collect();
    rec.span("sweep.models", || {
        for id in maia_core::all_experiments()
            .into_iter()
            .filter(|id| !skip.contains(id))
        {
            black_box(run_experiment(id));
        }
    });
    out.metric("sweep.models_ms", ms(took(rec, "sweep.models")));
}

/// The NPB kernels A01 distributes, bare: same sizes, one thread, no
/// simulated MPI. Then the enabled-telemetry hook cost, last because
/// enabling telemetry cannot be undone.
pub fn bare(rec: &Recorder, out: &mut Report) {
    use maia_npb::{cg, ep, ft, is};
    rec.span("npb.ep.bare", || black_box(ep::run(18, 1)));
    rec.span("npb.cg.bare", || {
        black_box(cg::run_custom(600, 5, 3, 10.0, 1))
    });
    rec.span("npb.ft.bare", || {
        let field = ft::Field::random(16, 16, 16, ep::SEED);
        black_box(field.fft3d(&maia_omp::Team::new(1), false))
    });
    rec.span("npb.is.bare", || black_box(is::run(14, 10, 1)));
    for k in ["ep", "cg", "ft", "is"] {
        let name = format!("npb.{k}.bare");
        out.metric(&format!("{name}_ms"), ms(took(rec, &name)));
    }

    const CALLS: u32 = 200_000;
    maia_core::telemetry::enable();
    rec.span("telemetry.on", || {
        maia_core::telemetry::with_experiment_scope("bench", || {
            for _ in 0..CALLS {
                maia_core::telemetry::count(black_box("bench.hook"), 1);
            }
        })
    });
    out.metric(
        "telemetry.on_ns",
        took(rec, "telemetry.on") as f64 / f64::from(CALLS),
    );
}
