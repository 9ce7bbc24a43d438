//! Cross-crate tests for the deterministic fault-injection subsystem:
//! plan generation and arming, the resilience report's bit-identity
//! at a fixed seed, the paper's own pre-update numbers falling out of a
//! forced DAPL fallback, and the degraded-mode behavior of the MPI,
//! modes and telemetry layers.

use maia_arch::Device;
use maia_core::faults::{arm, run_resilience, Fault, FaultPlan};
use maia_core::{
    run_experiments_parallel, ExperimentId, ExperimentSelection, FigureData, RunConfig,
};
use maia_modes::offload::{OffloadPlan, OffloadRegion};
use maia_modes::perf::KernelProfile;
use maia_modes::symmetric::SymmetricLayout;
use maia_mpi::{MpiWorld, WorldSpec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any generated plan is a pure function of its seed and survives a
    /// text round trip.
    #[test]
    fn generated_plans_are_seed_deterministic(seed in any::<u64>()) {
        let a = FaultPlan::generate(seed);
        let b = FaultPlan::generate(seed);
        prop_assert_eq!(&a, &b);
        prop_assert!(!a.faults.is_empty());
        let reparsed = FaultPlan::parse(&a.to_text()).expect("roundtrip parse");
        prop_assert_eq!(&a, &reparsed);
        prop_assert_eq!(&a.to_text(), &reparsed.to_text());
    }
}

/// Same plan + same seed + same jobs ⇒ bit-identical resilience report,
/// markdown and JSON both (the `faults` CLI golden rests on this).
#[test]
fn resilience_report_is_bit_identical_across_runs() {
    let plan = FaultPlan::named("degraded-stack").expect("canned plan");
    let selection = ExperimentSelection::Ids(vec![
        ExperimentId::F7PcieLatency,
        ExperimentId::F8PcieBandwidth,
        ExperimentId::F9UpdateGain,
    ]);
    let cfg = RunConfig::default();
    let a = run_resilience(&cfg, &plan, &selection, 2);
    let b = run_resilience(&cfg, &plan, &selection, 2);
    assert_eq!(a.to_markdown(), b.to_markdown());
    assert_eq!(a.to_json(), b.to_json());
    assert!(!a.has_failures());
    // The degraded stack must actually move the PCIe bandwidth numbers.
    let f8 = a.deltas.iter().find(|d| d.code == "F08").expect("F08 delta");
    assert!(f8.changed > 0, "degraded-stack left F08 untouched");
    assert!(f8.max_rel_delta > 0.0);
}

/// Figure 8 under `cfg`, without the executor's memo entry.
fn figure8(cfg: &RunConfig) -> FigureData {
    (ExperimentId::F8PcieBandwidth.meta().run)(cfg)
}

/// Acceptance criterion: forcing the pre-update DAPL fallback reproduces
/// the pre-update Figure 8 numbers that are already calibrated into
/// `maia_interconnect::dapl` — cell-for-cell, no new constants.
#[test]
fn dapl_fallback_reproduces_preupdate_figure8() {
    let cfg = RunConfig::default();
    let nominal = figure8(&cfg);

    let plan = FaultPlan {
        name: "fallback-only".into(),
        seed: 1,
        faults: vec![Fault::DaplFallback],
    };
    let degraded = figure8(&arm(&cfg, &plan));

    let pre = nominal
        .headers
        .iter()
        .position(|h| h == "pre GB/s")
        .expect("pre column");
    let post = nominal
        .headers
        .iter()
        .position(|h| h == "post GB/s")
        .expect("post column");
    assert_eq!(nominal.rows.len(), degraded.rows.len());
    for (n_row, d_row) in nominal.rows.iter().zip(degraded.rows.iter()) {
        assert_eq!(
            d_row[post], n_row[pre],
            "degraded post-update {}/{} should equal nominal pre-update",
            n_row[0], n_row[1]
        );
        // The pre-update column never had anything to fall back from.
        assert_eq!(d_row[pre], n_row[pre]);
    }

    // The armed copy leaves the nominal config's machine healthy.
    let after = figure8(&cfg);
    assert_eq!(after.rows, nominal.rows);
}

/// A straggler fault stretches exactly the lagging rank's compute and
/// therefore the whole (barrier-synchronized) world.
#[test]
fn straggler_stretches_the_lagging_rank() {
    let spec = WorldSpec::all_on(Device::Host, 4);
    let body = |mut rank: maia_mpi::Rank| async move {
        rank.compute(maia_sim::SimDuration::from_us(100.0)).await;
        rank.barrier().await;
        rank
    };
    let nominal = MpiWorld::run(&spec, body).expect("nominal world");

    let plan = FaultPlan::named("straggler").expect("canned plan");
    let armed = |plan| spec.clone().with_faults(arm(&RunConfig::default(), plan).faults());
    let slow = armed(&plan);
    let degraded = MpiWorld::run(&slow, body).expect("degraded world");
    assert!(slow.faults.injected_ps() > 0, "the stretch was not tallied");

    // Canned plan: rank 3 runs 4x slower from t=0.
    assert!(
        degraded.end_time > nominal.end_time,
        "straggler did not stretch the world: {:?} vs {:?}",
        degraded.end_time,
        nominal.end_time
    );

    // And determinism: a second activation is bit-identical.
    let again = MpiWorld::run(&armed(&plan), body).expect("second degraded world");
    assert_eq!(again.end_time, degraded.end_time);

    // The healthy world is untouched by the armed one.
    let restored = MpiWorld::run(&spec, body).expect("restored world");
    assert_eq!(restored.end_time, nominal.end_time);
}

fn mg_like_kernel() -> KernelProfile {
    KernelProfile {
        name: "mg-like".into(),
        flops: 1e9,
        dram_bytes: 3.27e9,
        vector_fraction: 0.95,
        gather_fraction: 0.0,
        parallel_fraction: 0.9995,
        parallel_extent: None,
        phi_traffic_multiplier: 1.0,
    }
}

/// A dead card degrades offload runs to host-only and symmetric runs to
/// host + one Phi, and both report the mode switch.
#[test]
fn dead_card_degrades_offload_and_symmetric_modes() {
    let offload_plan = OffloadPlan {
        name: "probe".into(),
        regions: vec![OffloadRegion {
            name: "all".into(),
            kernel: mg_like_kernel(),
            input_bytes: 1 << 20,
            output_bytes: 1 << 20,
            invocations: 4,
        }],
        host_kernel: None,
    };
    let layout = SymmetricLayout {
        host_ranks: 2,
        host_threads_per_rank: 8,
        phi_ranks: 4,
        phi_threads_per_rank: 15,
        stack: maia_interconnect::SoftwareStack::PostUpdate,
        imbalance: 0.05,
    };
    let healthy = maia_arch::Faults::default();
    let nominal_offload = offload_plan.report(Device::Phi1, 60, 16, &healthy);
    let nominal_sym = layout.step(&mg_like_kernel(), 8 << 20, &healthy);
    assert!(!nominal_offload.degraded_to_host);
    assert_eq!(nominal_sym.dead_cards, 0);

    let plan = FaultPlan::named("dead-card").expect("canned plan");
    let armed = arm(&RunConfig::default(), &plan);
    let faults = armed.faults();
    let dead_offload = offload_plan.report(Device::Phi1, 60, 16, faults);
    let alive_offload = offload_plan.report(Device::Phi0, 60, 16, faults);
    let dead_sym = layout.step(&mg_like_kernel(), 8 << 20, faults);
    let switches = faults.mode_switches();

    assert!(dead_offload.degraded_to_host, "offload should fall back to host");
    assert_eq!(dead_offload.pcie_s, 0.0);
    assert_eq!(dead_offload.bytes_transferred, 0);
    assert!(dead_offload.host_compute_s > nominal_offload.host_compute_s);
    assert!(!alive_offload.degraded_to_host, "Phi0 is still alive");
    assert_eq!(dead_sym.dead_cards, 1);
    // Losing a card shrinks the aggregate rate, so the proportional
    // split computes longer. (The *step* can go either way: the dead
    // card also removes the slow phi0-phi1 halo path.)
    assert!(
        dead_sym.compute_s > nominal_sym.compute_s,
        "losing a card should stretch the compute split"
    );
    assert!(dead_sym.comm_s <= nominal_sym.comm_s);
    assert!(
        switches.iter().any(|s| s.contains("dead")),
        "mode switches should be reported: {switches:?}"
    );
}

/// Injected model time lands in the `faults` telemetry bucket.
#[test]
fn injected_time_reaches_the_faults_telemetry_bucket() {
    maia_core::telemetry::enable();
    let plan = FaultPlan {
        name: "link-only".into(),
        seed: 2,
        faults: vec![Fault::DegradedLink { extra_retries: 2, timeout_us: 50.0 }],
    };
    let armed = arm(&RunConfig::default(), &plan);
    let sweep = run_experiments_parallel(&armed, &[ExperimentId::F8PcieBandwidth], 1);
    let profile = maia_core::telemetry::collect(&sweep);
    let injected = armed.faults().injected_ps();

    assert!(injected > 0, "link retries should inject positive model time");
    let bucketed: u64 = profile
        .experiments
        .iter()
        .map(|e| e.vt_ps.get("faults").copied().unwrap_or(0))
        .chain(
            profile
                .domains
                .iter()
                .map(|d| d.vt_ps.get("faults").copied().unwrap_or(0)),
        )
        .sum();
    assert!(bucketed > 0, "no vt landed in the 'faults' bucket");
}
