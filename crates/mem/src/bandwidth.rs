//! Bandwidth models: per-core load bandwidth vs working set (paper
//! Figure 6) and aggregate STREAM triad bandwidth vs thread count (paper
//! Figure 4), including the GDDR5 open-bank saturation cliff.

use maia_arch::{Faults, MemoryKind, ProcessorKind, ProcessorSpec};

use crate::hierarchy::ModelHierarchy;

/// Direction of a bandwidth measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    Read,
    Write,
}

/// Sustained single-thread bandwidth (GB/s) for streaming accesses over a
/// working set of `ws_bytes` — the Figure 6 experiment.
///
/// The model is a capacity-weighted *harmonic* blend: the time per byte is
/// the residency-weighted sum of per-level times per byte, because a
/// streaming pass spends time at each level proportionally to the fraction
/// of the working set it serves.
pub fn per_core_bw_gbs(p: &ProcessorSpec, ws_bytes: u64, kind: AccessKind) -> f64 {
    assert!(ws_bytes > 0, "working set must be non-empty");
    let h = ModelHierarchy::from_processor(p);
    let ws = ws_bytes as f64;
    let mut covered = 0.0f64;
    let mut time_per_byte = 0.0f64; // in s/GB
    for level in &h.levels {
        let cap = if level.capacity_bytes == u64::MAX {
            f64::INFINITY
        } else {
            level.capacity_bytes as f64
        };
        let upto = cap.min(ws);
        let frac = ((upto - covered) / ws).max(0.0);
        let bw = match kind {
            AccessKind::Read => level.read_gbs,
            AccessKind::Write => level.write_gbs,
        };
        time_per_byte += frac / bw;
        covered = covered.max(upto);
        if covered >= ws {
            break;
        }
    }
    1.0 / time_per_byte
}

/// Per-thread sustained STREAM-triad bandwidth, GB/s.
///
/// This is *not* the same as the Figure 6 single-load-stream plateau:
/// STREAM issues multiple independent vectorized streams per thread and is
/// prefetch-friendly. Host: derived from the per-core plateaus with the
/// triad mix (2 reads + 1 write per 24 bytes). Phi: calibrated so that 59
/// threads reach the measured 180 GB/s aggregate (Figure 4) — in-order
/// cores extract almost no additional intra-thread concurrency, so the
/// per-thread rate is pinned by the aggregate measurement.
pub fn stream_thread_gbs(p: &ProcessorSpec) -> f64 {
    match p.kind {
        ProcessorKind::SandyBridge => {
            let r = p.memory.per_core_read_gbs;
            let w = p.memory.per_core_write_gbs;
            3.0 / (2.0 / r + 1.0 / w)
        }
        ProcessorKind::Mic => 180.0 / 59.0,
    }
}

/// Aggregate sustainable STREAM bandwidth of the whole device, GB/s.
/// For the two-socket host multiply by the socket count at the caller; this
/// function describes one package.
pub fn package_sustained_gbs(p: &ProcessorSpec) -> f64 {
    p.memory.sustained_bw_gbs()
}

/// The open-bank derating factor for `threads` concurrent access streams
/// on a card with `faults.disabled_banks` retired.
///
/// GDDR5 devices expose `banks_per_device × devices` independently open
/// rows (128 on the 5110P). When more threads than open banks stream
/// concurrently, row-buffer locality collapses and the paper measures the
/// plateau dropping from 180 GB/s to 140 GB/s (Figure 4). The factor
/// 140/180 is calibrated from that figure; the *trigger* (threads >
/// banks) is the mechanism the paper identifies.
pub fn bank_derating(p: &ProcessorSpec, threads: u32, faults: &Faults) -> f64 {
    let banks = effective_banks(p, faults);
    if p.memory.kind == MemoryKind::Gddr5 && threads > banks {
        140.0 / 180.0
    } else {
        1.0
    }
}

/// Open banks actually available: the device total minus the banks the
/// GDDR5-degradation fault retired, floored at one.
fn effective_banks(p: &ProcessorSpec, faults: &Faults) -> u32 {
    p.memory
        .total_banks()
        .saturating_sub(faults.disabled_banks)
        .max(1)
}

/// Bandwidth capacity factor of the GDDR5-degradation fault: the fraction
/// of banks still serving streams, 1.0 on a healthy (or non-GDDR5) card.
fn bank_capacity_factor(p: &ProcessorSpec, faults: &Faults) -> f64 {
    if faults.disabled_banks == 0 || p.memory.kind != MemoryKind::Gddr5 {
        return 1.0;
    }
    f64::from(effective_banks(p, faults)) / f64::from(p.memory.total_banks())
}

/// STREAM triad aggregate bandwidth for `threads` threads on one device
/// (the host value covers both sockets) — the Figure 4 model, on the
/// card `faults` describes.
pub fn stream_triad_gbs(p: &ProcessorSpec, sockets: u32, threads: u32, faults: &Faults) -> f64 {
    assert!(threads >= 1, "at least one thread required");
    let per_thread = stream_thread_gbs(p);
    let sustained =
        package_sustained_gbs(p) * sockets as f64 * bank_capacity_factor(p, faults);
    (per_thread * threads as f64).min(sustained) * bank_derating(p, threads, faults)
}

/// One point of a Figure 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamPoint {
    pub threads: u32,
    pub bandwidth_gbs: f64,
}

/// Sweep thread counts for the Figure 4 series of one healthy device.
pub fn stream_sweep(p: &ProcessorSpec, sockets: u32, thread_counts: &[u32]) -> Vec<StreamPoint> {
    let healthy = Faults::default();
    thread_counts
        .iter()
        .map(|&t| StreamPoint {
            threads: t,
            bandwidth_gbs: stream_triad_gbs(p, sockets, t, &healthy),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_arch::presets;

    #[test]
    fn figure6_plateaus_host() {
        let p = presets::xeon_e5_2670();
        // Deep in L1 the read bandwidth is the calibrated 12.6 GB/s.
        assert!((per_core_bw_gbs(&p, 16 * 1024, AccessKind::Read) - 12.6).abs() < 0.05);
        assert!((per_core_bw_gbs(&p, 16 * 1024, AccessKind::Write) - 10.4).abs() < 0.05);
        // Deep in memory it approaches 7.5 / 7.2 GB/s.
        assert!((per_core_bw_gbs(&p, 1 << 30, AccessKind::Read) - 7.5).abs() < 0.2);
        assert!((per_core_bw_gbs(&p, 1 << 30, AccessKind::Write) - 7.2).abs() < 0.2);
    }

    #[test]
    fn figure6_plateaus_phi() {
        let p = presets::xeon_phi_5110p();
        assert!((per_core_bw_gbs(&p, 16 * 1024, AccessKind::Read) - 1.68).abs() < 0.01);
        assert!((per_core_bw_gbs(&p, 256 * 1024, AccessKind::Read) - 1.02).abs() < 0.06);
        assert!((per_core_bw_gbs(&p, 1 << 28, AccessKind::Read) - 0.504).abs() < 0.01);
        assert!((per_core_bw_gbs(&p, 1 << 28, AccessKind::Write) - 0.263).abs() < 0.003);
    }

    #[test]
    fn host_read_beats_phi_by_an_order_of_magnitude() {
        let host = presets::xeon_e5_2670();
        let phi = presets::xeon_phi_5110p();
        let ratio = per_core_bw_gbs(&host, 1 << 28, AccessKind::Read)
            / per_core_bw_gbs(&phi, 1 << 28, AccessKind::Read);
        assert!(ratio > 10.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn figure4_phi_peak_and_cliff() {
        let phi = presets::xeon_phi_5110p();
        let at = |t| stream_triad_gbs(&phi, 1, t, &Faults::default());
        assert!((at(59) - 180.0).abs() < 1.0, "59T: {}", at(59));
        assert!((at(118) - 180.0).abs() < 1.0, "118T: {}", at(118));
        assert!((at(177) - 140.0).abs() < 1.0, "177T: {}", at(177));
        assert!((at(236) - 140.0).abs() < 1.0, "236T: {}", at(236));
        // Scaling region below saturation.
        assert!(at(16) < at(32));
    }

    #[test]
    fn figure4_host_saturates_around_77_gbs() {
        let host = presets::xeon_e5_2670();
        let full = stream_triad_gbs(&host, 2, 16, &Faults::default());
        assert!((full - 76.8).abs() < 0.5, "host 16T: {full}");
        // Host never triggers the bank cliff.
        assert_eq!(bank_derating(&host, 32, &Faults::default()), 1.0);
    }

    #[test]
    fn phi_sustained_beats_host_sustained() {
        // The Phi's key selling point: higher aggregate stream bandwidth.
        let host = presets::xeon_e5_2670();
        let phi = presets::xeon_phi_5110p();
        let at = |p, sockets, t| stream_triad_gbs(p, sockets, t, &Faults::default());
        assert!(at(&phi, 1, 118) > at(&host, 2, 16) * 2.0);
    }

    #[test]
    fn faults_default_inactive() {
        // The healthy card keeps its cliff past 128 threads; retired
        // banks pull it below.
        let phi = presets::xeon_phi_5110p();
        let retired = Faults { disabled_banks: 64, ..Faults::default() };
        assert_eq!(bank_derating(&phi, 118, &Faults::default()), 1.0);
        assert!(bank_derating(&phi, 118, &retired) < 1.0);
    }

    #[test]
    fn sweep_is_well_formed() {
        let phi = presets::xeon_phi_5110p();
        let pts = stream_sweep(&phi, 1, &[1, 30, 59, 118, 177, 236]);
        assert_eq!(pts.len(), 6);
        assert!(pts[0].bandwidth_gbs < pts[2].bandwidth_gbs);
    }
}
