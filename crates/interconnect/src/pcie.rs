//! PCIe transaction-layer model.
//!
//! The paper (Section 6.7) derives the offload-mode bandwidth ceiling from
//! TLP framing: every 64 or 128 bytes of payload carries 20 bytes of
//! wrapping (framing, sequence number, header, digest, LCRC), capping
//! efficiency at 76% / 86% — 6.1 / 6.9 GB/s on the Gen2 ×16 link. Measured
//! large-transfer bandwidth is ~6.4 GB/s, an effective payload of ~80 B
//! per TLP. This module computes all of that from the framing arithmetic
//! and adds a DMA ramp model for the small-transfer region of Figure 18.

use maia_arch::{Device, Faults, PcieSpec};

/// Per-TLP wrapping bytes: start/end framing (2), sequence number (2),
/// header (12), ECRC digest (4) — the "20 bytes" of the paper.
pub const TLP_OVERHEAD_BYTES: u32 = 20;

/// Transaction-layer efficiency for a given max-payload size.
pub fn tlp_efficiency(payload_bytes: u32) -> f64 {
    assert!(payload_bytes > 0, "payload must be positive");
    payload_bytes as f64 / (payload_bytes + TLP_OVERHEAD_BYTES) as f64
}

/// Model of one host↔Phi PCIe port doing offload-style DMA.
#[derive(Debug, Clone)]
pub struct PcieModel {
    /// The physical link (Gen2 ×16 on the Phi).
    pub link: PcieSpec,
    /// Effective DMA payload per TLP in bytes. Calibrated to 80 B so the
    /// large-transfer plateau lands on the measured ~6.4 GB/s (between the
    /// 6.1 GB/s 64-B and 6.9 GB/s 128-B ceilings).
    pub effective_payload_bytes: u32,
    /// Per-transfer DMA setup cost in microseconds (descriptor writes,
    /// doorbell, completion interrupt). Sets the small-transfer ramp.
    pub dma_setup_us: f64,
    /// Transfers of exactly this size trigger a buffer-scheme switch in the
    /// offload runtime and pay one extra setup. The paper observes the
    /// resulting dip at 64 KB and notes its cause was "not understood";
    /// we model the switch point explicitly.
    pub buffer_switch_bytes: u64,
    /// Relative bandwidth derate for Phi1 (~3% lower than Phi0 for large
    /// transfers, per Figure 18 — the extra QPI hop).
    pub phi1_derate: f64,
}

impl Default for PcieModel {
    fn default() -> Self {
        PcieModel {
            link: maia_arch::presets::maia_node().pcie_phi,
            effective_payload_bytes: 80,
            dma_setup_us: 10.0,
            buffer_switch_bytes: 64 * 1024,
            phi1_derate: 0.97,
        }
    }
}

impl PcieModel {
    /// Fraction of the link's lanes still alive under the lane-width
    /// fault, 1.0 nominally. PCIe bandwidth is linear in lane count, so
    /// this scales the framing-derived peak directly.
    fn lane_fraction(&self, faults: &Faults) -> f64 {
        match faults.pcie_lanes {
            Some(lanes) => f64::from(lanes.min(self.link.lanes)) / f64::from(self.link.lanes),
            None => 1.0,
        }
    }

    /// Peak payload bandwidth in GB/s after line coding and TLP framing
    /// (scaled down by the surviving-lane fraction when `faults` narrows
    /// the link).
    pub fn peak_payload_gbs(&self, faults: &Faults) -> f64 {
        self.link.link_bw_gbs() * tlp_efficiency(self.effective_payload_bytes)
            * self.lane_fraction(faults)
    }

    /// Time in seconds to DMA `bytes` to/from the given Phi over the link
    /// `faults` describes; a narrowed link tallies its extra wire time.
    ///
    /// # Panics
    /// Panics if `device` is the host — offload DMA targets a coprocessor.
    pub fn dma_time_s(&self, device: Device, bytes: u64, faults: &Faults) -> f64 {
        assert!(device.is_phi(), "offload DMA targets a Phi card");
        let derate = if device == Device::Phi1 {
            self.phi1_derate
        } else {
            1.0
        };
        let bw = self.peak_payload_gbs(faults) * derate;
        let mut setup = self.dma_setup_us * 1e-6;
        if bytes == self.buffer_switch_bytes {
            setup += self.dma_setup_us * 1e-6;
        }
        let t = setup + bytes as f64 / (bw * 1e9);
        let frac = self.lane_fraction(faults);
        if frac < 1.0 {
            // Extra wire time relative to the full-width link.
            let nominal_bw = bw / frac;
            faults.note_injected_s(t - (setup + bytes as f64 / (nominal_bw * 1e9)));
        }
        t
    }

    /// Achieved bandwidth in GB/s for a transfer of `bytes` — the
    /// Figure 18 curve.
    pub fn dma_bandwidth_gbs(&self, device: Device, bytes: u64, faults: &Faults) -> f64 {
        assert!(bytes > 0, "cannot measure a zero-byte transfer");
        bytes as f64 / self.dma_time_s(device, bytes, faults) / 1e9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_efficiency_ceilings() {
        // "a maximum efficiency of 76% and 86% respectively, or 6.1 GB/s
        // and 6.9 GB/s".
        assert!((tlp_efficiency(64) - 0.762).abs() < 0.001);
        assert!((tlp_efficiency(128) - 0.865).abs() < 0.001);
        let m = PcieModel::default();
        let raw = m.link.link_bw_gbs();
        assert!((raw * tlp_efficiency(64) - 6.1).abs() < 0.05);
        assert!((raw * tlp_efficiency(128) - 6.9).abs() < 0.05);
    }

    #[test]
    fn large_transfer_plateau_is_6_4_gbs() {
        let m = PcieModel::default();
        let bw = m.dma_bandwidth_gbs(Device::Phi0, 64 * 1024 * 1024, &Faults::default());
        assert!((bw - 6.4).abs() < 0.15, "plateau {bw}");
    }

    #[test]
    fn phi1_is_about_3_percent_slower() {
        let m = PcieModel::default();
        let b0 = m.dma_bandwidth_gbs(Device::Phi0, 64 * 1024 * 1024, &Faults::default());
        let b1 = m.dma_bandwidth_gbs(Device::Phi1, 64 * 1024 * 1024, &Faults::default());
        let ratio = b0 / b1;
        assert!(ratio > 1.02 && ratio < 1.04, "ratio {ratio}");
    }

    #[test]
    fn dip_at_64_kib() {
        let m = PcieModel::default();
        let before = m.dma_bandwidth_gbs(Device::Phi0, 60 * 1024, &Faults::default());
        let at = m.dma_bandwidth_gbs(Device::Phi0, 64 * 1024, &Faults::default());
        let after = m.dma_bandwidth_gbs(Device::Phi0, 72 * 1024, &Faults::default());
        assert!(at < before && at < after, "no dip: {before} {at} {after}");
    }

    #[test]
    fn ramp_is_monotone_away_from_the_dip() {
        let m = PcieModel::default();
        let mut prev = 0.0;
        for kb in [1u64, 4, 16, 32, 128, 512, 2048, 16384] {
            let bw = m.dma_bandwidth_gbs(Device::Phi0, kb * 1024, &Faults::default());
            assert!(bw > prev, "ramp not monotone at {kb} KB");
            prev = bw;
        }
    }

    #[test]
    fn faults_default_inactive() {
        // The healthy value keeps the full-width link; half the lanes
        // halve the peak.
        let m = PcieModel::default();
        let half = Faults { pcie_lanes: Some(m.link.lanes / 2), ..Faults::default() };
        assert_eq!(m.peak_payload_gbs(&half), m.peak_payload_gbs(&Faults::default()) * 0.5);
    }

    #[test]
    #[should_panic(expected = "targets a Phi")]
    fn dma_to_host_rejected() {
        let m = PcieModel::default();
        let _ = m.dma_time_s(Device::Host, 1024, &Faults::default());
    }
}
