//! Cross-crate integration: the real runtimes working together — NPB
//! kernels on the maia-omp runtime, MPI worlds mixing devices, and the
//! functional cache simulator agreeing with the analytic models used by
//! the figures.

use maia_arch::{presets, Device};
use maia_interconnect::SoftwareStack;
use maia_mpi::{MpiWorld, RankPlacement, WorldSpec};

/// NPB kernels running on the real thread-pool runtime give identical
/// answers at every thread count (the suite's strongest self-check).
#[test]
fn npb_suite_runs_on_the_runtime() {
    let ep1 = maia_npb::ep::run(17, 1);
    let ep8 = maia_npb::ep::run(17, 8);
    assert_eq!(ep1.q, ep8.q);

    let mg = maia_npb::mg::run_custom(16, 2, 3, true);
    assert!(mg.final_rnorm < mg.initial_rnorm);

    let ft1 = maia_npb::ft::run_custom(16, 16, 16, 1, 1);
    let ft5 = maia_npb::ft::run_custom(16, 16, 16, 1, 5);
    assert_eq!(ft1, ft5);

    let is = maia_npb::is::run(12, 9, 3);
    assert!(is.windows(2).all(|w| w[0] <= w[1]));
}

/// A symmetric-mode MPI program spanning host + both Phi cards completes,
/// and the PCIe hops dominate the time as the paper observes.
#[test]
fn symmetric_world_runs_across_devices() {
    let spec = WorldSpec::symmetric(4, 2, SoftwareStack::PostUpdate);
    // Global reduction + neighbor halo, like one OVERFLOW step.
    let program = |mut rank: maia_mpi::Rank| async move {
        rank.allreduce(8).await;
        let p = rank.size();
        let right = (rank.rank() + 1) % p;
        let left = (rank.rank() + p - 1) % p;
        rank.sendrecv(right, left, 7, 64 * 1024).await;
        rank.barrier().await;
        rank
    };
    let res = MpiWorld::run(&spec, program).expect("symmetric world deadlocked");

    // The same program on the host alone is much faster: PCIe hops of
    // tens of microseconds vs sub-microsecond shared memory.
    let host_spec = WorldSpec::all_on(Device::Host, 8);
    let host = MpiWorld::run(&host_spec, program).unwrap();
    assert!(
        res.end_time.as_secs_f64() > 5.0 * host.end_time.as_secs_f64(),
        "PCIe should dominate: {} vs {}",
        res.end_time,
        host.end_time
    );
}

/// A two-node world routes over InfiniBand, which beats the Phi0-Phi1
/// PCIe path.
#[test]
fn internode_vs_phi_to_phi() {
    let m = 1 << 20;
    let time = |placements: Vec<RankPlacement>| {
        let spec = WorldSpec {
            placements,
            stack: SoftwareStack::PostUpdate,
            faults: Default::default(),
        };
        MpiWorld::run(&spec, move |mut rank| async move {
            if rank.rank() == 0 {
                rank.send(1, 0, m).await;
            } else {
                rank.recv(0, 0).await;
            }
            rank
        })
        .unwrap()
        .end_time
        .as_secs_f64()
    };
    let ib = time(vec![
        RankPlacement { node: 0, device: Device::Host },
        RankPlacement { node: 1, device: Device::Host },
    ]);
    let p2p = time(vec![
        RankPlacement::on(Device::Phi0),
        RankPlacement::on(Device::Phi1),
    ]);
    assert!(p2p > 3.0 * ib, "phi-phi {p2p} vs IB {ib}");
}

/// The cache simulator's pointer-chase latency agrees with the analytic
/// model that generates Figure 5, on both architectures.
#[test]
fn cache_simulator_validates_latency_model() {
    // Compare deep inside each level's plateau — in the transition
    // regions a strict-LRU cyclic chase legitimately thrashes harder
    // than the capacity blend.
    let cases = [
        (presets::xeon_e5_2670(), [16 * 1024u64, 1 << 20]),
        (presets::xeon_phi_5110p(), [16 * 1024u64, 4 << 20]),
    ];
    for (proc, sizes) in cases {
        for ws in sizes {
            let sim = maia_mem::chase_latency_ns(&proc, ws, 2, 7);
            let ana = maia_mem::analytic_latency_ns(&proc, ws);
            let rel = (sim - ana).abs() / ana;
            assert!(
                rel < 0.4,
                "{}: ws {ws}: sim {sim} vs analytic {ana}",
                proc.name
            );
        }
    }
}

/// The EPCC harness measures *our* runtime and reproduces the modeled
/// construct ordering (atomic cheapest, reduction/parallel most costly).
#[test]
fn epcc_measured_ordering_roughly_matches_model() {
    use maia_omp::epcc::EpccHarness;
    use maia_omp::OmpConstruct;
    let h = EpccHarness {
        threads: 4,
        reps: 60,
        delay: 60,
    };
    // Average several measurements: wall-clock noise is real.
    let avg = |c| (0..3).map(|_| h.measure(c)).sum::<f64>() / 3.0;
    let atomic = avg(OmpConstruct::Atomic);
    let parallel = avg(OmpConstruct::Parallel);
    assert!(
        parallel > atomic,
        "parallel ({parallel} us) should cost more than atomic ({atomic} us)"
    );
}

/// The whole experiment table is reachable through the façade: every
/// artifact runs and renders under its own heading.
#[test]
fn full_report_covers_all_artifacts() {
    let report: String = maia_core::all_experiments()
        .into_iter()
        .map(|id| maia_core::run_experiment(id).to_markdown())
        .collect();
    for id in ["T1", "F4", "F10", "F19", "F23", "F27"] {
        assert!(report.contains(&format!("## {id} ")), "missing {id}");
    }
}
