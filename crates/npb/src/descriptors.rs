//! Class C workload descriptors: the resource signatures that drive the
//! `maia-modes` performance engine to regenerate Figures 19, 20, 24 and
//! 25.
//!
//! Each benchmark gets a [`KernelProfile`] whose fields encode the
//! characteristics the paper discusses qualitatively:
//!
//! * **BT** — compute-dense 5×5 block solves, well vectorized, but
//!   blocked for the host's caches (large Phi traffic multiplier).
//! * **SP** — scalar line solves: more bandwidth-hungry than BT.
//! * **LU** — wavefront sweeps: a larger serial/pipeline fraction.
//! * **CG** — sparse matrix–vector with indirect addressing: dominated
//!   by gather/scatter ("the gather-scatter instruction is not efficient
//!   on Phi" — its vectorized sparse loop gained only 10%).
//! * **MG** — long unit-stride streams: the only kernel whose Phi rate
//!   beats the host (Figure 25: 29.9 vs 23.5 Gflop/s).
//! * **FT** — FFT passes with transposes (strided traffic).
//!
//! Memory footprints are computed from the Class C problem dimensions —
//! the FT Class C footprint (five 512³ complex arrays ≈ 10.7 GB) exceeds
//! the Phi card's 8 GB, reproducing the paper's FT-OOM in Figure 20.

use maia_modes::KernelProfile;

use crate::class::{cg_params, ft_params, mg_params, pseudo_app_params, Benchmark, Class};

/// Total floating-point operations of one Class C run (approximate NPB
/// 3.3 published operation counts; rates depend only on the ratio to
/// `dram_bytes`, but absolute run times matter for the offload studies).
fn class_c_flops(bench: Benchmark) -> f64 {
    match bench {
        Benchmark::Bt => 2.92e12,
        Benchmark::Sp => 2.47e12,
        Benchmark::Lu => 2.04e12,
        Benchmark::Cg => 1.43e11,
        Benchmark::Mg => 1.557e11,
        Benchmark::Ft => 4.66e11,
        Benchmark::Ep => 2.7e10,
        Benchmark::Is => 3.0e9,
    }
}

/// The Class C kernel profile of a benchmark.
pub fn class_c_profile(bench: Benchmark) -> KernelProfile {
    let flops = class_c_flops(bench);
    let (bpf, vf, gf, pf, extent, mult) = match bench {
        // bytes/flop, vector frac, gather frac, parallel frac, loop
        // extent, Phi traffic multiplier.
        Benchmark::Bt => (0.60, 0.96, 0.03, 0.9990, Some(162), 3.0),
        Benchmark::Sp => (1.20, 0.95, 0.05, 0.9990, Some(162), 3.0),
        Benchmark::Lu => (1.00, 0.85, 0.08, 0.9950, Some(162), 2.5),
        Benchmark::Cg => (3.00, 0.90, 0.90, 0.9950, None, 1.5),
        // The V-cycle's effective work-shared extent is well below the
        // finest grid's 512: coarse levels contribute short k loops. The
        // value 256 is calibrated to Figure 24's 25-28% collapse gain.
        Benchmark::Mg => (3.27, 0.95, 0.00, 0.9995, Some(256), 1.0),
        Benchmark::Ft => (1.60, 0.92, 0.15, 0.9990, Some(512), 1.8),
        Benchmark::Ep => (0.02, 0.40, 0.00, 0.9999, None, 1.0),
        Benchmark::Is => (8.00, 0.30, 0.50, 0.9900, None, 1.2),
    };
    KernelProfile {
        name: format!("{bench}.C"),
        flops,
        dram_bytes: flops * bpf,
        vector_fraction: vf,
        gather_fraction: gf,
        parallel_fraction: pf,
        parallel_extent: extent,
        phi_traffic_multiplier: mult,
    }
}

/// The Class C profile of the *MPI* variant. Mostly identical to the
/// OpenMP profile; BT differs: its multi-partition decomposition tiles
/// the grid per rank (better locality — lower traffic multiplier) but
/// spends more of its vector work in gather-style buffer packing and
/// wavefront exchanges, whose dependent accesses keep scaling through 4
/// ranks per core — the paper's "BT performance is best for 4 threads
/// per core" in Figure 20.
pub fn class_c_profile_mpi(bench: Benchmark) -> KernelProfile {
    let mut k = class_c_profile(bench);
    if bench == Benchmark::Bt {
        k.gather_fraction = 0.45;
        k.phi_traffic_multiplier = 2.0;
    }
    k.name = format!("{bench}.C-mpi");
    k
}

/// The MG Class C profile *without* the loop-collapse optimization:
/// identical work, but the work-shared loop extent is a single grid
/// dimension instead of the collapsed pair — the Figure 24 comparison.
pub fn mg_profile_uncollapsed() -> KernelProfile {
    class_c_profile(Benchmark::Mg)
}

/// The MG Class C profile with `collapse(2)` applied: the outer two loops
/// fuse, so the extent is effectively unbounded relative to 240 threads.
pub fn mg_profile_collapsed() -> KernelProfile {
    let mut k = class_c_profile(Benchmark::Mg);
    k.name = "MG.C+collapse".into();
    let (n, _) = mg_params(Class::C);
    // collapse(2) fuses the k and j loops: extent n².
    k.parallel_extent = Some((n * n) as u32);
    k
}

/// Total memory footprint in bytes of a benchmark at a class.
pub fn memory_required_bytes(bench: Benchmark, class: Class) -> u64 {
    match bench {
        Benchmark::Ft => {
            // Three complex state arrays plus two transpose/communication
            // buffers in the MPI version: 5 complex (16 B) grids.
            let (nx, ny, nz, _) = ft_params(class);
            5 * (nx * ny * nz) as u64 * 16
        }
        Benchmark::Mg => {
            let (n, _) = mg_params(class);
            // u, v, r over the level hierarchy (×8/7 for coarse levels).
            let fine = (n * n * n) as u64 * 8;
            3 * fine * 8 / 7
        }
        Benchmark::Cg => {
            let (n, nz, _, _) = cg_params(class);
            // CSR values + columns + five work vectors.
            let nnz = (n * (2 * nz + 1)) as u64;
            nnz * 12 + 5 * n as u64 * 8
        }
        Benchmark::Ep => 1 << 20,
        Benchmark::Is => {
            let (log2n, log2max) = crate::class::is_params(class);
            (1u64 << log2n) * 8 + (1u64 << log2max) * 4
        }
        Benchmark::Bt | Benchmark::Sp | Benchmark::Lu => {
            let (n, _) = pseudo_app_params(bench, class);
            // State, RHS, forcing (5 components) + solver workspace
            // (~15 scalar grids for BT's block storage, fewer for SP/LU).
            let grids = match bench {
                Benchmark::Bt => 30,
                Benchmark::Sp => 20,
                _ => 18,
            };
            (n * n * n) as u64 * 8 * grids
        }
    }
}

/// Communication profile of the MPI version, per whole run:
/// (point-to-point bytes per rank, messages per rank, alltoall bytes per
/// rank — zero for non-transpose codes).
pub fn mpi_comm_profile(bench: Benchmark, ranks: usize) -> (u64, u64, u64) {
    let r = ranks as u64;
    match bench {
        // Halo exchanges: surface/volume scaling.
        Benchmark::Bt | Benchmark::Sp => (6_000_000_000 / r, 4_000 * r.isqrt(), 0),
        Benchmark::Lu => (3_000_000_000 / r, 50_000, 0),
        Benchmark::Mg => (1_500_000_000 / r, 20_000, 0),
        Benchmark::Cg => (2_000_000_000 / r, 30_000, 0),
        // FT's 3D transpose is a full all-to-all of the grid per step.
        Benchmark::Ft => (500_000_000 / r, 2_000, 40_000_000_000 / r),
        Benchmark::Ep => (1_000, 10, 0),
        Benchmark::Is => (100_000_000 / r, 1_000, 10_000_000 / r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_modes::PerfModel;

    const PHI_SWEEP: [u32; 4] = [59, 118, 177, 236];

    fn host_rate(b: Benchmark) -> f64 {
        PerfModel::host().gflops(&class_c_profile(b), 16)
    }

    fn phi_best(b: Benchmark) -> (u32, f64) {
        PerfModel::phi(&maia_arch::Faults::default()).best_threads(&class_c_profile(b), &PHI_SWEEP)
    }

    #[test]
    fn figure19_host_beats_phi_except_mg() {
        for b in Benchmark::FIGURE19 {
            let h = host_rate(b);
            let (_, p) = phi_best(b);
            if b == Benchmark::Mg {
                assert!(
                    p > h,
                    "MG is the paper's exception: phi {p} should beat host {h}"
                );
            } else {
                assert!(h > p, "{b}: host {h} must beat phi {p}");
            }
        }
    }

    #[test]
    fn figure19_bt_highest_cg_lowest_on_phi() {
        let rates: Vec<(Benchmark, f64)> = Benchmark::FIGURE19
            .iter()
            .map(|&b| (b, phi_best(b).1))
            .collect();
        let bt = rates.iter().find(|(b, _)| *b == Benchmark::Bt).unwrap().1;
        let cg = rates.iter().find(|(b, _)| *b == Benchmark::Cg).unwrap().1;
        for (b, r) in &rates {
            if *b != Benchmark::Bt {
                assert!(bt >= *r, "BT ({bt}) must be highest on Phi; {b} = {r}");
            }
            if *b != Benchmark::Cg {
                assert!(cg <= *r, "CG ({cg}) must be lowest on Phi; {b} = {r}");
            }
        }
    }

    #[test]
    fn figure19_three_threads_per_core_usually_best() {
        let mut best_at_177 = 0;
        for b in Benchmark::FIGURE19 {
            if phi_best(b).0 == 177 {
                best_at_177 += 1;
            }
        }
        assert!(
            best_at_177 >= 4,
            "3 threads/core should be the sweet spot for most benchmarks, got {best_at_177}/6"
        );
    }

    #[test]
    fn figure24_collapse_gain_on_phi_not_host() {
        let phi = PerfModel::phi(&maia_arch::Faults::default());
        let host = PerfModel::host();
        let plain = mg_profile_uncollapsed();
        let coll = mg_profile_collapsed();
        for threads in [177u32, 236] {
            let gain = phi.gflops(&coll, threads) / phi.gflops(&plain, threads);
            assert!(
                (1.05..1.45).contains(&gain),
                "phi collapse gain at {threads}T: {gain}"
            );
        }
        // On the host 16 threads divide any extent evenly: no gain.
        let host_gain = host.gflops(&coll, 16) / host.gflops(&plain, 16);
        assert!((host_gain - 1.0).abs() < 0.02, "host gain {host_gain}");
    }

    #[test]
    fn ft_class_c_exceeds_phi_memory() {
        let need = memory_required_bytes(Benchmark::Ft, Class::C);
        assert!(
            need > 10 * 1_000_000_000,
            "paper says FT.C needs ~10 GB, computed {need}"
        );
        assert!(need > 8 * (1u64 << 30), "must exceed the 8 GB card");
        // Class B fits.
        assert!(memory_required_bytes(Benchmark::Ft, Class::B) < 6 * (1u64 << 30));
    }

    #[test]
    fn other_class_c_benchmarks_fit_on_the_phi() {
        for b in [
            Benchmark::Cg,
            Benchmark::Mg,
            Benchmark::Bt,
            Benchmark::Sp,
            Benchmark::Lu,
        ] {
            let need = memory_required_bytes(b, Class::C);
            assert!(
                need < 6 * (1u64 << 30),
                "{b}.C needs {need} bytes — should fit the Phi"
            );
        }
    }

    #[test]
    fn profiles_validate() {
        for b in Benchmark::ALL {
            class_c_profile(b).validate();
        }
    }

    #[test]
    fn ft_comm_is_alltoall_dominated() {
        let (p2p, _msgs, a2a) = mpi_comm_profile(Benchmark::Ft, 128);
        assert!(a2a > 10 * p2p);
        let (p2p_mg, _, a2a_mg) = mpi_comm_profile(Benchmark::Mg, 128);
        assert!(a2a_mg == 0 && p2p_mg > 0);
    }
}
