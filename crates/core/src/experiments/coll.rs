//! Intra-device MPI collective experiments: Figures 10–14. Every data
//! point runs the real collective algorithm on the engine the run config
//! resolves to: the discrete-event engine or its bit-identical closed form.

use maia_arch::Device;
use maia_mpi::bench::{
    alltoall_time_des, collective_time_des, ring_sendrecv_des, CollectiveOp, P2pPoint,
};
use maia_mpi::fastpath::{self, SelectedEngine};
use maia_mpi::memory::OomError;

use crate::cache;
use crate::config::RunConfig;
use crate::figdata::{fmt_bytes, FigureData};

/// Memoized collective world run. The 236-rank worlds are the most
/// expensive sub-models in the registry; within one process each
/// (config, device, ranks, size, op) point simulates once — including
/// Alltoall, which is routed through [`cached_alltoall_time`] so both
/// entry points share one memo entry.
pub fn cached_collective_time(
    cfg: &RunConfig,
    device: Device,
    ranks: usize,
    bytes: u64,
    op: CollectiveOp,
) -> f64 {
    if op == CollectiveOp::Alltoall {
        return cached_alltoall_time(cfg, device, ranks, bytes).expect(
            "alltoall exceeds the device budget; call cached_alltoall_time for the gated variant",
        );
    }
    let key = format!("coll/{device:?}/{ranks}/{bytes}/{op:?}");
    cache::memo(&cfg.memo_key(&key), || match cfg.resolved_engine() {
        SelectedEngine::Fast => fastpath::collective_time(device, ranks, bytes, op),
        SelectedEngine::Des => collective_time_des(device, ranks, bytes, op),
    })
}

pub fn cached_ring_sendrecv(cfg: &RunConfig, device: Device, ranks: usize, bytes: u64) -> P2pPoint {
    let key = format!("ring/{device:?}/{ranks}/{bytes}");
    cache::memo(&cfg.memo_key(&key), || match cfg.resolved_engine() {
        SelectedEngine::Fast => fastpath::ring_sendrecv(device, ranks, bytes),
        SelectedEngine::Des => ring_sendrecv_des(device, ranks, bytes),
    })
}

pub fn cached_alltoall_time(
    cfg: &RunConfig,
    device: Device,
    ranks: usize,
    bytes: u64,
) -> Result<f64, OomError> {
    let key = format!("coll/{device:?}/{ranks}/{bytes}/Alltoall");
    cache::memo(&cfg.memo_key(&key), || match cfg.resolved_engine() {
        SelectedEngine::Fast => fastpath::alltoall_time(device, ranks, bytes),
        SelectedEngine::Des => alltoall_time_des(device, ranks, bytes),
    })
}

/// The three configurations the paper compares.
const CONFIGS: [(&str, Device, usize); 3] = [
    ("host-16", Device::Host, 16),
    ("phi-59 (1t/c)", Device::Phi0, 59),
    ("phi-236 (4t/c)", Device::Phi0, 236),
];

const SIZES: [u64; 3] = [64, 4 * 1024, 256 * 1024];

/// Figure 10: ring Send/Recv per-pair bandwidth.
pub fn fig10_sendrecv(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F10",
        "MPI_Send/Recv ring: per-pair bandwidth (MB/s)",
        &["config", "size", "MB/s"],
    );
    for (label, dev, ranks) in CONFIGS {
        for &size in &SIZES {
            let p = cached_ring_sendrecv(cfg, dev, ranks, size);
            f.push_row(vec![
                label.into(),
                fmt_bytes(size),
                format!("{:.1}", p.bandwidth_gbs * 1000.0),
            ]);
        }
    }
    f.note("Paper: host above Phi 1t/c by 1.3-3.5x and above Phi 4t/c by 24-54x.");
    f
}

fn collective_fig(
    cfg: &RunConfig,
    id: &'static str,
    title: &str,
    op: CollectiveOp,
    factor_note: &str,
) -> FigureData {
    let mut f = FigureData::new(id, title, &["config", "size", "time us"]);
    for (label, dev, ranks) in CONFIGS {
        for &size in &SIZES {
            let t = cached_collective_time(cfg, dev, ranks, size, op);
            f.push_row(vec![label.into(), fmt_bytes(size), format!("{:.1}", t * 1e6)]);
        }
    }
    f.note(factor_note);
    f
}

/// Figure 11.
pub fn fig11_bcast(cfg: &RunConfig) -> FigureData {
    collective_fig(
        cfg,
        "F11",
        "MPI_Bcast completion time",
        CollectiveOp::Bcast,
        "Paper: host above Phi 1t/c by 1.1-3.8x; per-core above Phi 4t/c by 20-35x.",
    )
}

/// Figure 12.
pub fn fig12_allreduce(cfg: &RunConfig) -> FigureData {
    collective_fig(
        cfg,
        "F12",
        "MPI_Allreduce completion time",
        CollectiveOp::Allreduce,
        "Paper: host above Phi 1t/c by 2.2-13.4x and above Phi 4t/c by 28-104x.",
    )
}

/// Figure 13.
pub fn fig13_allgather(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F13",
        "MPI_Allgather completion time",
        &["config", "size", "time us"],
    );
    // Extra sizes to expose the Bruck->ring switch at 2-4 KB.
    let sizes = [64u64, 1024, 2 * 1024, 4 * 1024, 8 * 1024, 64 * 1024];
    for (label, dev, ranks) in CONFIGS {
        for &size in &sizes {
            let t = cached_collective_time(cfg, dev, ranks, size, CollectiveOp::Allgather);
            f.push_row(vec![label.into(), fmt_bytes(size), format!("{:.1}", t * 1e6)]);
        }
    }
    f.note("Paper: abrupt jump at 2-4 KB from the collective-algorithm switch; host above Phi by 2.6-17.1x (1t/c) and 68-1146x (4t/c).");
    f
}

/// Figure 14 (with the 236-rank OOM gate).
pub fn fig14_alltoall(cfg: &RunConfig) -> FigureData {
    let mut f = FigureData::new(
        "F14",
        "MPI_Alltoall completion time",
        &["config", "size", "time us"],
    );
    let sizes = [64u64, 1024, 4 * 1024, 8 * 1024, 64 * 1024];
    for (label, dev, ranks) in CONFIGS {
        for &size in &sizes {
            let cell = match cached_alltoall_time(cfg, dev, ranks, size) {
                Ok(t) => format!("{:.1}", t * 1e6),
                Err(e) => format!("OOM ({:.1} GB needed)", e.required_bytes as f64 / 1e9),
            };
            f.push_row(vec![label.into(), fmt_bytes(size), cell]);
        }
    }
    f.note("Paper: the 236-rank runs fail beyond 4 KB for lack of memory; host above Phi by 8-20x (1t/c) and 1003-2603x (4t/c).");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_shows_the_jump() {
        let f = fig13_allgather(&RunConfig::default());
        let t = |cfg: &str, size: &str| {
            f.rows
                .iter()
                .find(|r| r[0] == cfg && r[1] == size)
                .unwrap()[2]
                .parse::<f64>()
                .unwrap()
        };
        // Multiplicative margin shared with the F13 conformance
        // predicate: the switch step clears the factor, the adjacent
        // smooth doubling stays under it. (The old additive form
        // `jump > smooth + 0.3` passed even for two smooth doublings
        // that merely differ by the latency term.)
        use crate::experiments::conformance::F13_JUMP_FACTOR;
        let jump = t("phi-59 (1t/c)", "4KiB") / t("phi-59 (1t/c)", "2KiB");
        let smooth = t("phi-59 (1t/c)", "8KiB") / t("phi-59 (1t/c)", "4KiB");
        assert!(
            jump > F13_JUMP_FACTOR && smooth < F13_JUMP_FACTOR,
            "jump {jump} vs smooth {smooth} (factor {F13_JUMP_FACTOR})"
        );
    }

    #[test]
    fn fig14_marks_oom() {
        let f = fig14_alltoall(&RunConfig::default());
        let oom_rows: Vec<_> = f
            .rows
            .iter()
            .filter(|r| r[2].starts_with("OOM"))
            .collect();
        assert!(!oom_rows.is_empty());
        for r in &oom_rows {
            assert_eq!(r[0], "phi-236 (4t/c)");
        }
        // 4 KiB at 236 ranks still runs.
        assert!(f
            .rows
            .iter()
            .any(|r| r[0] == "phi-236 (4t/c)" && r[1] == "4KiB" && !r[2].starts_with("OOM")));
    }
}
