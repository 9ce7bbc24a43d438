//! DES-vs-fastpath equivalence suite: the closed forms in
//! `maia_mpi::fastpath` must equal the discrete-event engine *bit for
//! bit* on every cell of Figures 10–14 (OOM rows included), the engine
//! selection must yield to the DES whenever a fault plan is armed, and
//! the degraded-stack resilience golden must survive the fast path's
//! introduction byte for byte.
//!
//! Tests that clear the memo cache or read its counters serialize on one
//! mutex; the pure grid comparisons and `RunConfig` checks don't need it.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard, PoisonError};

use maia_arch::Device;
use maia_core::experiments::coll::{cached_alltoall_time, cached_collective_time};
use maia_core::faults::{arm, run_resilience, FaultPlan};
use maia_core::{cache, run_experiments_parallel, ExperimentId, ExperimentSelection, RunConfig};
use maia_mpi::bench::{
    alltoall_time_des, collective_time_des, ring_sendrecv_des, CollectiveOp,
};
use maia_mpi::fastpath::{self, EngineMode, SelectedEngine};
use maia_mpi::process_backend::Backend;

/// Guards the process-wide memo cache: holders clear it or read its
/// counters, and a clear in the middle of an armed sweep would recompute
/// (and tally again) a degraded sub-model two figures share.
static SER: Mutex<()> = Mutex::new(());

fn serialize() -> MutexGuard<'static, ()> {
    SER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The three configurations of the collective figures (core `coll.rs`).
const CONFIGS: [(Device, usize); 3] = [
    (Device::Host, 16),
    (Device::Phi0, 59),
    (Device::Phi0, 236),
];

/// Every Figure 10–14 cell, computed both ways: exact f64 equality
/// (stronger than the formatted-output equality the goldens need) on
/// the full grid, including the 236-rank worlds on both sides of the
/// Bruck→ring Allgather switch.
#[test]
fn every_figure_cell_matches_the_des_bit_for_bit() {
    for (device, ranks) in CONFIGS {
        // F10 + F11/F12 share the three-size grid.
        for bytes in [64u64, 4 * 1024, 256 * 1024] {
            let fast = fastpath::ring_sendrecv(device, ranks, bytes);
            let des = ring_sendrecv_des(device, ranks, bytes);
            assert_eq!(fast, des, "F10 {device:?} p={ranks} b={bytes}");
            for op in [CollectiveOp::Bcast, CollectiveOp::Allreduce] {
                assert_cell_eq(device, ranks, bytes, op);
            }
        }
        // F13: the extended grid around the 2 KiB algorithm switch.
        for bytes in [64u64, 1024, 2 * 1024, 4 * 1024, 8 * 1024, 64 * 1024] {
            assert_cell_eq(device, ranks, bytes, CollectiveOp::Allgather);
        }
        // F14: alltoall with the memory gate — Ok and OOM rows both.
        for bytes in [64u64, 1024, 4 * 1024, 8 * 1024, 64 * 1024] {
            let fast = fastpath::alltoall_time(device, ranks, bytes);
            let des = alltoall_time_des(device, ranks, bytes);
            match (&fast, &des) {
                (Ok(f), Ok(d)) => assert_eq!(
                    f.to_bits(),
                    d.to_bits(),
                    "F14 {device:?} p={ranks} b={bytes}: fast {f} vs des {d}"
                ),
                _ => assert_eq!(fast, des, "F14 OOM {device:?} p={ranks} b={bytes}"),
            }
        }
    }
    // The paper's OOM rows really are exercised above.
    assert!(fastpath::alltoall_time(Device::Phi0, 236, 8 * 1024).is_err());
}

fn assert_cell_eq(device: Device, ranks: usize, bytes: u64, op: CollectiveOp) {
    let fast = fastpath::collective_time(device, ranks, bytes, op);
    let des = collective_time_des(device, ranks, bytes, op);
    assert_eq!(
        fast.to_bits(),
        des.to_bits(),
        "{op:?} {device:?} p={ranks} b={bytes}: fast {fast} vs des {des}"
    );
    // And the rendered cell the figures pin, for good measure.
    assert_eq!(format!("{:.1}", fast * 1e6), format!("{:.1}", des * 1e6));
}

/// The crosscheck oracle — the same comparison the `maia-bench
/// crosscheck` CI gate runs — reports a full-grid match. Its DES side
/// runs the cluster experiments (C01/C02) through the *partitioned*
/// engine, so a match here also pins closed form == partitioned DES.
#[test]
fn crosscheck_oracle_reports_a_match() {
    let _g = serialize();
    cache::clear();
    let report = maia_core::run_crosscheck(2);
    assert!(report.is_match(), "{}", report.to_markdown());
    assert_eq!(report.experiments.len(), 7);
    let total_cells: usize = report.experiments.iter().map(|e| e.cells).sum();
    // F10-F14: (9 + 9 + 9 + 18 + 15 rows) x 3 columns; C01/C02: 12 rows
    // x 4 columns each.
    assert_eq!(total_cells, 180 + 2 * 48);
}

/// The same oracle with the cluster DES side sharded over several event
/// wheels: the closed forms must equal the *partitioned* engine at every
/// wheel count, not just the trivial single-wheel fold.
#[test]
fn crosscheck_oracle_matches_under_partitioning() {
    let _g = serialize();
    cache::clear();
    let four_wheels = RunConfig::new(EngineMode::Auto, 4, Backend::Channel);
    let report = maia_core::run_crosscheck_under(&four_wheels, 2);
    assert!(report.is_match(), "{}", report.to_markdown());
}

/// An armed fault plan forces the DES — even one (degraded-stack) whose
/// faults partly act in crates the MPI layer cannot see — while the
/// config it was armed from keeps the fast path.
#[test]
fn armed_fault_plan_forces_the_des() {
    let cfg = RunConfig::default();
    assert_eq!(cfg.resolved_engine(), SelectedEngine::Fast);
    let plan = FaultPlan::named("degraded-stack").expect("canned plan");
    assert_eq!(arm(&cfg, &plan).resolved_engine(), SelectedEngine::Des);
    assert_eq!(cfg.resolved_engine(), SelectedEngine::Fast);
}

/// The run config's key rule: no two configs share a memo key, the
/// default config keeps the raw key, and each activation of a plan gets
/// keys of its own, grouped under the `faults` telemetry domain.
#[test]
fn run_configs_never_share_a_memo_key() {
    let key = "cluster/8/64/Allreduce";
    let mut configs = Vec::new();
    for engine in [EngineMode::Auto, EngineMode::Des, EngineMode::Fast] {
        for partitions in [1, 2, 4] {
            for backend in [Backend::Channel, Backend::Process] {
                configs.push(RunConfig::new(engine, partitions, backend));
            }
        }
    }
    let plan = FaultPlan::named("straggler").expect("canned plan");
    for _ in 0..2 {
        configs.push(arm(&RunConfig::default(), &plan));
    }
    let keys: HashSet<String> = configs
        .iter()
        .map(|c| c.memo_key(key).into_owned())
        .collect();
    assert_eq!(keys.len(), configs.len(), "{keys:?}");
    assert!(keys.contains(key), "the default config keeps the raw key");
    for k in &keys {
        let domain = k.split('/').next();
        assert!(domain == Some("cluster") || domain == Some("faults"), "{k}");
    }
}

/// The PR 5 resilience golden survives the fast path byte for byte:
/// same plan, same selection, same jobs as the ci.sh gate.
#[test]
fn degraded_stack_resilience_golden_is_byte_identical() {
    let _g = serialize();
    let plan = FaultPlan::named("degraded-stack").expect("canned plan");
    let selection = ExperimentSelection::Ids(vec![
        ExperimentId::F7PcieLatency,
        ExperimentId::F8PcieBandwidth,
        ExperimentId::F9UpdateGain,
        ExperimentId::F18OffloadBw,
    ]);
    let report = run_resilience(&RunConfig::default(), &plan, &selection, 2);
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/golden/resilience.md"
    ))
    .expect("golden file");
    assert_eq!(report.to_markdown(), golden);
}

/// Satellite regression test for the split memo-key namespaces: both
/// Alltoall entry points now share one key, so a sweep over F10–F14
/// computes every collective world exactly once — 60 world keys plus
/// the 5 per-experiment keys, no duplicates.
#[test]
fn collective_worlds_compute_once_per_sweep() {
    let _g = serialize();
    cache::clear();
    let ids = [
        ExperimentId::F10SendRecv,
        ExperimentId::F11Bcast,
        ExperimentId::F12Allreduce,
        ExperimentId::F13Allgather,
        ExperimentId::F14Alltoall,
    ];
    let cfg = RunConfig::default();
    let report = run_experiments_parallel(&cfg, &ids, 2);
    assert!(report.failures.is_empty(), "{:?}", report.failures);
    let after_sweep = cache::stats();
    // F10: 9 ring worlds. F11/F12: 9 collective worlds each.
    // F13: 18 allgather worlds. F14: 15 alltoall points (OOM included).
    // Plus one `experiment/{code}` key per figure.
    assert_eq!(after_sweep.misses, 60 + 5, "a world computed twice");

    // A second identical sweep is answered entirely from cache.
    let again = run_experiments_parallel(&cfg, &ids, 2);
    assert!(again.failures.is_empty());
    assert_eq!(cache::stats().misses, after_sweep.misses);
}

/// The bug itself: mixing the two Alltoall entry points used to split
/// across `alltoall/...` and `coll/.../Alltoall` namespaces and simulate
/// the same world twice. One key now serves both.
#[test]
fn alltoall_entry_points_share_one_memo_entry() {
    let _g = serialize();
    cache::clear();
    let cfg = RunConfig::default();
    let t1 = cached_collective_time(&cfg, Device::Phi0, 59, 1024, CollectiveOp::Alltoall);
    let t2 = cached_alltoall_time(&cfg, Device::Phi0, 59, 1024).expect("fits in memory");
    assert_eq!(t1.to_bits(), t2.to_bits());
    let stats = cache::stats();
    assert_eq!(stats.misses, 1, "the two entry points split the cache");
    assert_eq!(stats.hits, 1);
}
