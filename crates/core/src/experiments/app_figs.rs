//! Application experiments: Figures 21 (Cart3D), 22 (OVERFLOW native)
//! and 23 (OVERFLOW symmetric).

use maia_apps::cart3d::fig21_series;
use maia_apps::overflow::{fig22_series, fig23_series};

use crate::config::RunConfig;
use crate::figdata::FigureData;

/// Figure 21.
pub fn fig21_cart3d(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F21",
        "Cart3D (OneraM6-like) performance relative to host-16T",
        &["device", "threads", "relative perf"],
    );
    for p in fig21_series(cfg.faults()) {
        f.push_row(vec![
            p.device_label.into(),
            p.threads.to_string(),
            format!("{:.2}", p.relative_perf),
        ]);
    }
    f.note("Paper: host performance is 2x the best Phi result; Phi is best at 4 threads/core (236), unlike the NPBs.");
    f
}

/// Figure 22.
pub fn fig22_overflow_native(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F22",
        "OVERFLOW DLRF6-Medium: seconds/step by (ranks x threads)",
        &["device", "layout", "s/step"],
    );
    for p in fig22_series(cfg.faults()) {
        f.push_row(vec![
            p.device.label().into(),
            format!("{}x{}", p.ranks, p.threads_per_rank),
            format!("{:.2}", p.seconds_per_step),
        ]);
    }
    f.note("Paper: host best 16x1, worst 1x16; Phi best 8x28, worst 4x14; host best beats Phi best by 1.8x.");
    f
}

/// Figure 23.
pub fn fig23_overflow_symmetric(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F23",
        "OVERFLOW DLRF6-Large symmetric mode (host+Phi0+Phi1)",
        &["phi layout", "pre-update s/step", "post-update s/step", "gain %"],
    );
    for p in fig23_series(cfg.faults()) {
        f.push_row(vec![
            format!("{}x{}", p.phi_ranks, p.phi_threads),
            format!("{:.2}", p.pre_s),
            format!("{:.2}", p.post_s),
            format!("{:.1}", p.gain_percent),
        ]);
    }
    f.note("Paper: post-update gains 2-28%; best layout 8x28; symmetric mode beats native host 1.9x but loses to two hosts.");
    f
}

/// A2 (beyond paper): the hybrid OVERFLOW proxy with its zones dealt to
/// simulated MPI ranks — residuals match the shared-memory solver while
/// the fabric prices the Chimera exchanges.
pub fn a2_overflow_hybrid(cfg: &RunConfig) -> FigureData {
    use maia_apps::overflow::OverflowCase;
    use maia_apps::overflow_mpi::run_mpi_layouts;
    use maia_arch::Device;
    use maia_interconnect::SoftwareStack;
    use maia_mpi::WorldSpec;

    let case = OverflowCase {
        zone_n: 10,
        zones: 4,
    };
    let steps = 3;
    let mut f = FigureData::new(
        "A2",
        "Hybrid OVERFLOW (4 zones, real data) on the simulated fabric",
        &["layout", "wall ms", "comm fraction", "final residual"],
    );
    let (labels, specs): (Vec<&str>, Vec<WorldSpec>) = [
        ("host x4", WorldSpec::all_on(Device::Host, 4)),
        ("phi0 x4", WorldSpec::all_on(Device::Phi0, 4)),
        (
            "host x2 + phi x1 each (symmetric)",
            WorldSpec::symmetric(2, 1, SoftwareStack::PostUpdate),
        ),
    ]
    .into_iter()
    .map(|(label, spec)| (label, spec.with_faults(cfg.faults())))
    .unzip();
    // One solve, on the host layout and timed by its ranks' own clocks;
    // the other two layouts are evaluated from its exchanges.
    let runs = run_mpi_layouts(&case, steps, 1, &specs);
    for (i, label) in labels.into_iter().enumerate() {
        let r = runs.layout(i);
        f.push_row(vec![
            label.into(),
            format!("{:.3}", r.wall_s * 1e3),
            format!("{:.2}", r.comm_fraction),
            format!("{:.4e}", r.final_residual),
        ]);
    }
    f.note("The symmetric layout's Chimera planes cross PCIe: its communication fraction dwarfs the single-device layouts', the paper's core symmetric-mode observation.");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig21_ratio() {
        let f = fig21_cart3d(&RunConfig::default());
        let best_phi = f
            .rows
            .iter()
            .filter(|r| r[0] == "phi0")
            .map(|r| r[2].parse::<f64>().unwrap())
            .fold(0.0f64, f64::max);
        assert!((0.35..0.7).contains(&best_phi), "phi/host {best_phi}");
    }

    #[test]
    fn fig22_has_both_devices() {
        let f = fig22_overflow_native(&RunConfig::default());
        assert!(f.rows.iter().any(|r| r[0] == "host"));
        assert!(f.rows.iter().any(|r| r[0] == "phi0"));
    }

    #[test]
    fn fig23_gains_positive() {
        let f = fig23_overflow_symmetric(&RunConfig::default());
        for row in &f.rows {
            assert!(row[3].parse::<f64>().unwrap() > 0.0);
        }
    }
}
