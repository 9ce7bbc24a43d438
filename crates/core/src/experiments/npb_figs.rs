//! NPB experiments: Figures 19 (OpenMP), 20 (MPI), 24 (MG collapse) and
//! 25–27 (MG offload studies).

use maia_arch::Device;
use maia_modes::{OffloadPlan, OffloadRegion, PerfModel};
use maia_mpi::transport::intra_device_params;
use maia_mpi::MemoryBudget;
use maia_npb::descriptors::{
    class_c_profile, class_c_profile_mpi, memory_required_bytes, mg_profile_collapsed,
    mg_profile_uncollapsed, mpi_comm_profile,
};
use maia_npb::{Benchmark, Class};

use crate::config::RunConfig;
use crate::figdata::FigureData;

const PHI_THREADS: [u32; 4] = [59, 118, 177, 236];

/// Figure 19: OpenMP NPB rates on host (16T) and Phi (59–236T).
pub fn fig19_npb_omp(cfg: &RunConfig) -> FigureData {
    let host = PerfModel::host();
    let phi = PerfModel::phi(cfg.faults());
    let mut f = FigureData::new(
        "F19",
        "NPB OpenMP Class C performance (Gflop/s)",
        &["benchmark", "host-16", "phi-59", "phi-118", "phi-177", "phi-236"],
    );
    for b in Benchmark::FIGURE19 {
        let k = class_c_profile(b);
        let mut row = vec![b.label().to_string(), format!("{:.1}", host.gflops(&k, 16))];
        for t in PHI_THREADS {
            row.push(format!("{:.1}", phi.gflops(&k, t)));
        }
        f.push_row(row);
    }
    f.note("Paper: host beats the best Phi for every benchmark except MG; BT highest and CG lowest on the Phi; 3 threads/core generally best.");
    f
}

/// Modeled run time of one MPI NPB configuration.
fn mpi_run_time_s(
    cfg: &RunConfig,
    bench: Benchmark,
    device: Device,
    ranks: usize,
) -> Result<f64, String> {
    // Memory gate: the whole problem must fit the device.
    let budget = MemoryBudget::for_device(device);
    let need = memory_required_bytes(bench, Class::C);
    if need > budget.capacity - budget.reserve {
        return Err(format!("OOM: needs {:.1} GB", need as f64 / 1e9));
    }
    let k = class_c_profile_mpi(bench);
    let model = match device {
        Device::Host => PerfModel::host(),
        _ => PerfModel::phi(cfg.faults()),
    };
    let compute = model.unit_time_s(&k, ranks as u32);
    let tpc = match device {
        Device::Host => 1 + (ranks > 16) as u32,
        _ => (ranks as u32).div_ceil(59).min(4),
    };
    let (lat_us, bw_gbs) = intra_device_params(device, tpc);
    let (p2p, msgs, a2a) = mpi_comm_profile(bench, ranks);
    let comm = msgs as f64 * lat_us * 1e-6
        + p2p as f64 / (bw_gbs * 1e9)
        // All-to-all sees additional incast contention.
        + a2a as f64 / (bw_gbs * 1e9 * 0.5);
    Ok(compute + comm)
}

/// Figure 20: MPI NPB rates.
pub fn fig20_npb_mpi(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F20",
        "NPB MPI Class C performance (Gflop/s)",
        &["benchmark", "config", "Gflop/s"],
    );
    for b in Benchmark::FIGURE19 {
        let flops = class_c_profile(b).flops;
        let mut cell = |label: String, device, ranks| {
            let value = match mpi_run_time_s(cfg, b, device, ranks) {
                Ok(t) => format!("{:.1}", flops / t / 1e9),
                Err(e) => e,
            };
            f.push_row(vec![b.label().to_string(), label, value]);
        };
        cell("host-16".into(), Device::Host, 16);
        let ranks: &[usize] = match b {
            Benchmark::Bt | Benchmark::Sp => &[64, 121, 169, 225],
            _ => &[64, 128],
        };
        for &r in ranks {
            cell(format!("phi-{r}"), Device::Phi0, r);
        }
    }
    f.note("Paper: FT cannot run on the Phi (needs ~10 GB of the 8 GB card); BT is best at 4 ranks/core (225), unlike the OpenMP version.");
    f
}

/// Figure 24: the MG loop-collapse study.
pub fn fig24_mg_collapse(cfg: &RunConfig) -> FigureData {
    let phi = PerfModel::phi(cfg.faults());
    let host = PerfModel::host();
    let plain = mg_profile_uncollapsed();
    let coll = mg_profile_collapsed();
    let mut f = FigureData::new(
        "F24",
        "MG: OpenMP loop collapse gain",
        &["config", "original Gflop/s", "collapsed Gflop/s", "gain %"],
    );
    let mut row = |label: String, model: &PerfModel, threads: u32| {
        let a = model.gflops(&plain, threads);
        // The host pays a ~1% index-arithmetic cost for collapse; the
        // paper measures exactly that.
        let host_cost = if matches!(model.target.proc.kind, maia_arch::ProcessorKind::SandyBridge)
        {
            0.99
        } else {
            1.0
        };
        let b = model.gflops(&coll, threads) * host_cost;
        f.push_row(vec![
            label,
            format!("{a:.1}"),
            format!("{b:.1}"),
            format!("{:.0}", (b / a - 1.0) * 100.0),
        ]);
    };
    row("host-16".into(), &host, 16);
    for t in PHI_THREADS {
        row(format!("phi-{t}"), &phi, t);
    }
    // The OS-core comparison the paper makes alongside: 60th core hurts.
    for (good, bad) in [(59u32, 60u32), (118, 120), (177, 180), (236, 240)] {
        let g = phi.gflops(&coll, good);
        let b = phi.gflops(&coll, bad);
        f.push_row(vec![
            format!("phi-{good} vs phi-{bad}"),
            format!("{g:.1}"),
            format!("{b:.1}"),
            format!("{:.0}", (b / g - 1.0) * 100.0),
        ]);
    }
    f.note("Paper: collapse gains 25-28% on the Phi, loses ~1% on the host; using the 60th (OS) core is always slower.");
    f
}

/// The three MG offload plans of Section 6.9.1.4 (granularity study).
pub fn mg_offload_plans() -> Vec<OffloadPlan> {
    let full = mg_profile_collapsed();
    let gb = |x: f64| (x * 1e9) as u64;
    // Class C fields: u, v, r at 512^3 x 8 B ≈ 1.07 GB each.
    let whole = OffloadPlan {
        name: "offload-whole".into(),
        regions: vec![OffloadRegion {
            name: "everything".into(),
            kernel: full.clone(),
            input_bytes: gb(2.15), // u and v shipped once
            output_bytes: gb(1.07),
            invocations: 1,
        }],
        host_kernel: None,
    };
    let mut per_call = full.clone();
    per_call.flops /= 160.0;
    per_call.dram_bytes /= 160.0;
    let subroutine = OffloadPlan {
        name: "offload-resid".into(),
        regions: vec![OffloadRegion {
            name: "resid".into(),
            kernel: per_call.clone(),
            input_bytes: gb(0.25),
            output_bytes: gb(0.12),
            invocations: 160,
        }],
        host_kernel: None,
    };
    let mut per_loop = full.clone();
    per_loop.flops /= 1600.0;
    per_loop.dram_bytes /= 1600.0;
    let one_loop = OffloadPlan {
        name: "offload-loop".into(),
        regions: vec![OffloadRegion {
            name: "resid-inner-loop".into(),
            kernel: per_loop,
            input_bytes: gb(0.08),
            output_bytes: gb(0.04),
            invocations: 1600,
        }],
        host_kernel: None,
    };
    vec![whole, subroutine, one_loop]
}

/// Figure 25: MG in native host, native Phi, and the three offload modes.
pub fn fig25_mg_modes(cfg: &RunConfig) -> FigureData {
    let k = mg_profile_collapsed();
    let host = PerfModel::host();
    let phi = PerfModel::phi(cfg.faults());
    let mut f = FigureData::new(
        "F25",
        "MG Class C in three modes (Gflop/s)",
        &["mode", "threads", "Gflop/s"],
    );
    f.push_row(vec![
        "native-host".into(),
        "16".into(),
        format!("{:.1}", host.gflops(&k, 16)),
    ]);
    f.push_row(vec![
        "native-host (HT)".into(),
        "32".into(),
        format!("{:.1}", host.gflops(&k, 32)),
    ]);
    for t in PHI_THREADS {
        f.push_row(vec![
            "native-phi".into(),
            t.to_string(),
            format!("{:.1}", phi.gflops(&k, t)),
        ]);
    }
    for plan in mg_offload_plans() {
        let rep = plan.report(Device::Phi0, 177, 16, cfg.faults());
        f.push_row(vec![
            plan.name.clone(),
            "177".into(),
            format!("{:.1}", k.flops / rep.total_s() / 1e9),
        ]);
    }
    f.note("Paper: native host 23.5 Gflop/s (16T; HT at 32T is 6% lower), native Phi 29.9 (177T); every offload variant is slower, whole > subroutine > loop.");
    f
}

/// Figure 26: overhead breakdown of the three offload variants.
pub fn fig26_offload_overhead(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F26",
        "Offload overhead breakdown (s)",
        &["variant", "host-side", "pcie", "phi-side", "total overhead"],
    );
    for plan in mg_offload_plans() {
        let r = plan.report(Device::Phi0, 177, 16, cfg.faults());
        f.push_row(vec![
            r.plan_name.clone(),
            format!("{:.2}", r.host_side_s),
            format!("{:.2}", r.pcie_s),
            format!("{:.2}", r.phi_side_s),
            format!("{:.2}", r.overhead_s()),
        ]);
    }
    f.note("Paper: offloading one loop has the highest overhead; offloading the whole computation the least.");
    f
}

/// Figure 27: invocation counts and data volume of the three variants.
pub fn fig27_offload_cost(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F27",
        "Offload invocations and transferred data",
        &["variant", "invocations", "GB transferred"],
    );
    for plan in mg_offload_plans() {
        let r = plan.report(Device::Phi0, 177, 16, cfg.faults());
        f.push_row(vec![
            r.plan_name.clone(),
            r.invocations.to_string(),
            format!("{:.1}", r.bytes_transferred as f64 / 1e9),
        ]);
    }
    f.note("Paper: cost is maximal when offloading one OpenMP loop and minimal for the whole computation.");
    f
}

/// A1 (beyond paper): distributed NPB kernels executed for real over the
/// simulated fabric — virtual wall times per device.
pub fn a1_npb_mpi_measured(cfg: &RunConfig) -> FigureData {
    use maia_mpi::WorldSpec;
    use maia_npb::mpi_npb;
    let mut f = FigureData::new(
        "A1",
        "Distributed NPB (small problems, real numerics) on the simulated fabric",
        &["benchmark", "ranks", "host ms", "phi0 ms", "phi/host"],
    );
    let ranks = 8usize;
    // Each kernel runs its numerics once, on the host world, and replays
    // its messages and compute phases on the Phi world.
    let layouts = [Device::Host, Device::Phi0]
        .map(|d| WorldSpec::all_on(d, ranks).with_faults(cfg.faults()));
    let mut row = |name: &str, h: f64, p: f64| {
        f.push_row(vec![
            name.into(),
            ranks.to_string(),
            format!("{:.3}", h * 1e3),
            format!("{:.3}", p * 1e3),
            format!("{:.1}", p / h),
        ]);
    };
    let ep = mpi_npb::ep_mpi_layouts(18, &layouts);
    row("EP (2^18 pairs)", ep.wall_s(0), ep.wall_s(1));
    let cg = mpi_npb::cg_mpi_layouts(600, 5, 3, 10.0, &layouts);
    row("CG (n=600)", cg.wall_s(0), cg.wall_s(1));
    let ft = mpi_npb::ft_mpi_layouts(16, 16, 16, &layouts);
    row("FT (16^3)", ft.wall_s(0), ft.wall_s(1));
    let is = mpi_npb::is_mpi_layouts(14, 10, &layouts);
    row("IS (2^14 keys)", is.wall_s(0), is.wall_s(1));
    f.note("Results are bit-verified against the shared-memory kernels; only the virtual communication time differs between devices.");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig20_ft_is_oom_on_phi_only() {
        let f = fig20_npb_mpi(&RunConfig::default());
        let ft_phi: Vec<_> = f
            .rows
            .iter()
            .filter(|r| r[0] == "FT" && r[1].starts_with("phi"))
            .collect();
        assert!(!ft_phi.is_empty());
        for r in &ft_phi {
            assert!(r[2].starts_with("OOM"), "FT on Phi must OOM: {:?}", r);
        }
        let ft_host = f
            .rows
            .iter()
            .find(|r| r[0] == "FT" && r[1] == "host-16")
            .unwrap();
        assert!(!ft_host[2].starts_with("OOM"));
    }

    #[test]
    fn fig20_bt_best_at_225_ranks() {
        let f = fig20_npb_mpi(&RunConfig::default());
        let bt: Vec<(String, f64)> = f
            .rows
            .iter()
            .filter(|r| r[0] == "BT" && r[1].starts_with("phi"))
            .map(|r| (r[1].clone(), r[2].parse().unwrap()))
            .collect();
        let best = bt
            .iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(best.0, "phi-225", "BT best config: {bt:?}");
    }

    #[test]
    fn fig20_host_beats_phi() {
        let f = fig20_npb_mpi(&RunConfig::default());
        for b in ["BT", "SP", "LU", "CG"] {
            let host: f64 = f
                .rows
                .iter()
                .find(|r| r[0] == b && r[1] == "host-16")
                .unwrap()[2]
                .parse()
                .unwrap();
            let best_phi = f
                .rows
                .iter()
                .filter(|r| r[0] == b && r[1].starts_with("phi"))
                .filter_map(|r| r[2].parse::<f64>().ok())
                .fold(0.0f64, f64::max);
            assert!(host > best_phi, "{b}: host {host} vs phi {best_phi}");
        }
    }

    #[test]
    fn fig24_collapse_gains() {
        let f = fig24_mg_collapse(&RunConfig::default());
        for t in ["phi-177", "phi-236"] {
            let row = f.rows.iter().find(|r| r[0] == t).unwrap();
            let gain: f64 = row[3].parse().unwrap();
            assert!((5.0..45.0).contains(&gain), "{t} gain {gain}%");
        }
        let host = f.rows.iter().find(|r| r[0] == "host-16").unwrap();
        let host_gain: f64 = host[3].parse().unwrap();
        assert!(host_gain <= 0.0, "host collapse gain {host_gain}%");
    }

    #[test]
    fn fig25_mode_ordering() {
        let f = fig25_mg_modes(&RunConfig::default());
        let v = |mode: &str| -> f64 {
            f.rows
                .iter()
                .filter(|r| r[0] == mode)
                .map(|r| r[2].parse::<f64>().unwrap())
                .fold(0.0f64, f64::max)
        };
        let native_phi = v("native-phi");
        let native_host = v("native-host");
        let whole = v("offload-whole");
        let sub = v("offload-resid");
        let lp = v("offload-loop");
        assert!(native_phi > native_host, "{native_phi} vs {native_host}");
        assert!(native_host > whole, "host {native_host} vs whole {whole}");
        assert!(whole > sub && sub > lp, "{whole} {sub} {lp}");
        // HT row is a few percent below the 16-thread row.
        let ht = v("native-host (HT)");
        assert!(ht < native_host && ht > 0.85 * native_host);
    }

    #[test]
    fn fig26_fig27_orderings() {
        let f26 = fig26_offload_overhead(&RunConfig::default());
        let ov = |name: &str| {
            f26.rows.iter().find(|r| r[0] == name).unwrap()[4]
                .parse::<f64>()
                .unwrap()
        };
        assert!(ov("offload-loop") > ov("offload-resid"));
        assert!(ov("offload-resid") > ov("offload-whole"));

        let f27 = fig27_offload_cost(&RunConfig::default());
        let gb = |name: &str| {
            f27.rows.iter().find(|r| r[0] == name).unwrap()[2]
                .parse::<f64>()
                .unwrap()
        };
        assert!(gb("offload-loop") > gb("offload-resid"));
        assert!(gb("offload-resid") > gb("offload-whole"));
    }
}
