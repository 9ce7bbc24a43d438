//! Offload mode: compute regions shipped to a Phi with explicit data
//! transfer, and the `OFFLOAD_REPORT`-style cost breakdown of Figures
//! 25–27.
//!
//! The paper decomposes offload cost into three parts (Section 6.9.1.4):
//! setup and data gather/scatter on the host, PCIe transfer time, and
//! setup and gather/scatter on the Phi. Those are exactly the terms of
//! [`OffloadPlan::report`]; the compute itself is priced by the
//! [`PerfModel`] roofline engine. Whether offload wins is then a pure
//! arithmetic question of invocation count × overhead vs. device speedup
//! — the paper's conclusion that MG offload always loses falls out.

use maia_arch::{Device, Faults};
use maia_interconnect::PcieModel;

use crate::perf::{KernelProfile, PerfModel};

/// Per-invocation host-side setup (offload pragma bookkeeping, pin/copy
/// descriptor), seconds.
const HOST_SETUP_S: f64 = 25e-6;
/// Per-invocation coprocessor-side setup, seconds.
const PHI_SETUP_S: f64 = 40e-6;
/// Host-side gather/scatter staging bandwidth, GB/s.
const HOST_STAGE_GBS: f64 = 5.0;
/// Phi-side gather/scatter staging bandwidth, GB/s (single core drives
/// the copy).
const PHI_STAGE_GBS: f64 = 1.0;
/// Offloaded regions address their data through COI offload buffers and
/// re-warm caches at every region entry; measured offload kernels run
/// ~20% below their native-mode rate.
const OFFLOAD_COMPUTE_DERATE: f64 = 1.2;

/// One offloaded region.
#[derive(Debug, Clone)]
pub struct OffloadRegion {
    pub name: String,
    /// The work executed on the Phi per invocation.
    pub kernel: KernelProfile,
    /// Bytes shipped host → Phi per invocation.
    pub input_bytes: u64,
    /// Bytes shipped Phi → host per invocation.
    pub output_bytes: u64,
    /// Invocations per run.
    pub invocations: u64,
}

/// A full offload execution plan: regions on the Phi plus any residual
/// host work per run.
#[derive(Debug, Clone)]
pub struct OffloadPlan {
    pub name: String,
    pub regions: Vec<OffloadRegion>,
    /// Host-resident work per run (not offloaded).
    pub host_kernel: Option<KernelProfile>,
}

/// The cost breakdown (Figures 26–27).
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadReport {
    pub plan_name: String,
    /// Total offload invocations.
    pub invocations: u64,
    /// Total bytes crossing PCIe (both directions).
    pub bytes_transferred: u64,
    /// Host setup + staging, seconds.
    pub host_side_s: f64,
    /// PCIe wire time, seconds.
    pub pcie_s: f64,
    /// Phi setup + staging, seconds.
    pub phi_side_s: f64,
    /// Phi compute time, seconds.
    pub compute_s: f64,
    /// Residual host compute, seconds.
    pub host_compute_s: f64,
    /// True when the dead-card fault forced this plan back onto the
    /// host: every region was priced at host rates and no PCIe transfer
    /// happened.
    pub degraded_to_host: bool,
}

impl OffloadReport {
    /// Pure overhead (everything except compute), seconds — the Figure 26
    /// quantity.
    pub fn overhead_s(&self) -> f64 {
        self.host_side_s + self.pcie_s + self.phi_side_s
    }

    /// Total wall time, seconds.
    pub fn total_s(&self) -> f64 {
        self.overhead_s() + self.compute_s + self.host_compute_s
    }
}

impl OffloadPlan {
    /// Price the plan on the machine `faults` describes: Phi compute at
    /// `phi_threads` on `device`, host residue at `host_threads`.
    pub fn report(
        &self,
        device: Device,
        phi_threads: u32,
        host_threads: u32,
        faults: &Faults,
    ) -> OffloadReport {
        assert!(device.is_phi(), "offload targets a Phi card");
        if faults.dead_card == Some(device) {
            return self.host_fallback_report(device, host_threads, faults);
        }
        let pcie = PcieModel::default();
        let phi = PerfModel::phi(faults);
        let host = PerfModel::host();

        let mut invocations = 0u64;
        let mut bytes = 0u64;
        let mut host_side = 0.0;
        let mut wire = 0.0;
        let mut phi_side = 0.0;
        let mut compute = 0.0;
        for r in &self.regions {
            let n = r.invocations as f64;
            invocations += r.invocations;
            let io = r.input_bytes + r.output_bytes;
            bytes += io * r.invocations;
            host_side += n * (HOST_SETUP_S + io as f64 / (HOST_STAGE_GBS * 1e9));
            wire += n * (pcie.dma_time_s(device, r.input_bytes.max(1), faults)
                + pcie.dma_time_s(device, r.output_bytes.max(1), faults));
            phi_side += n * (PHI_SETUP_S + io as f64 / (PHI_STAGE_GBS * 1e9));
            compute += n * phi.unit_time_s(&r.kernel, phi_threads) * OFFLOAD_COMPUTE_DERATE;
        }
        let host_compute = self
            .host_kernel
            .as_ref()
            .map_or(0.0, |k| host.unit_time_s(k, host_threads));

        OffloadReport {
            plan_name: self.name.clone(),
            invocations,
            bytes_transferred: bytes,
            host_side_s: host_side,
            pcie_s: wire,
            phi_side_s: phi_side,
            compute_s: compute,
            host_compute_s: host_compute,
            degraded_to_host: false,
        }
    }

    /// The graceful degradation taken when the offload target card is
    /// dead: every region runs on the host at host rates, no setup or
    /// staging or PCIe transfer is paid, and the mode switch is
    /// tallied on `faults`.
    fn host_fallback_report(
        &self,
        device: Device,
        host_threads: u32,
        faults: &Faults,
    ) -> OffloadReport {
        faults.note_mode_switch(&format!(
            "offload plan '{}': target card {device:?} is dead; running host-only",
            self.name
        ));
        let host = PerfModel::host();
        let mut host_compute = self
            .host_kernel
            .as_ref()
            .map_or(0.0, |k| host.unit_time_s(k, host_threads));
        for r in &self.regions {
            host_compute += r.invocations as f64 * host.unit_time_s(&r.kernel, host_threads);
        }
        OffloadReport {
            plan_name: self.name.clone(),
            invocations: 0,
            bytes_transferred: 0,
            host_side_s: 0.0,
            pcie_s: 0.0,
            phi_side_s: 0.0,
            compute_s: 0.0,
            host_compute_s: host_compute,
            degraded_to_host: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(flops: f64, bytes: f64) -> KernelProfile {
        KernelProfile {
            name: "k".into(),
            flops,
            dram_bytes: bytes,
            vector_fraction: 0.95,
            gather_fraction: 0.0,
            parallel_fraction: 0.999,
            parallel_extent: None,
            phi_traffic_multiplier: 1.0,
        }
    }

    /// Three plans doing the same total work with different granularity,
    /// mirroring the paper's MG offload variants.
    fn plans() -> (OffloadPlan, OffloadPlan, OffloadPlan) {
        let total_flops = 2e10;
        let total_bytes = 4e10;
        // Whole computation: input shipped once.
        let whole = OffloadPlan {
            name: "whole".into(),
            regions: vec![OffloadRegion {
                name: "all".into(),
                kernel: kernel(total_flops, total_bytes),
                input_bytes: 500 << 20,
                output_bytes: 500 << 20,
                invocations: 1,
            }],
            host_kernel: None,
        };
        // One subroutine offloaded per step: 100 invocations, data resent.
        let subroutine = OffloadPlan {
            name: "subroutine".into(),
            regions: vec![OffloadRegion {
                name: "resid".into(),
                kernel: kernel(total_flops / 100.0, total_bytes / 100.0),
                input_bytes: 120 << 20,
                output_bytes: 60 << 20,
                invocations: 100,
            }],
            host_kernel: None,
        };
        // One loop offloaded: 1000 invocations, most transfer.
        let one_loop = OffloadPlan {
            name: "loop".into(),
            regions: vec![OffloadRegion {
                name: "resid-loop".into(),
                kernel: kernel(total_flops / 1000.0, total_bytes / 1000.0),
                input_bytes: 40 << 20,
                output_bytes: 20 << 20,
                invocations: 1000,
            }],
            host_kernel: None,
        };
        (whole, subroutine, one_loop)
    }

    #[test]
    fn figure26_overhead_ordering() {
        // "performance of offloading one main OpenMP loop is the worst and
        // the best ... is offloading the whole computation".
        let (whole, sub, lp) = plans();
        let rw = whole.report(Device::Phi0, 177, 16, &Faults::default());
        let rs = sub.report(Device::Phi0, 177, 16, &Faults::default());
        let rl = lp.report(Device::Phi0, 177, 16, &Faults::default());
        assert!(rw.overhead_s() < rs.overhead_s());
        assert!(rs.overhead_s() < rl.overhead_s());
        assert!(rw.total_s() < rs.total_s() && rs.total_s() < rl.total_s());
    }

    #[test]
    fn figure27_invocations_and_volume_ordering() {
        let (whole, sub, lp) = plans();
        let rw = whole.report(Device::Phi0, 177, 16, &Faults::default());
        let rs = sub.report(Device::Phi0, 177, 16, &Faults::default());
        let rl = lp.report(Device::Phi0, 177, 16, &Faults::default());
        assert!(rw.invocations < rs.invocations && rs.invocations < rl.invocations);
        assert!(rw.bytes_transferred < rs.bytes_transferred);
        assert!(rs.bytes_transferred < rl.bytes_transferred);
    }

    #[test]
    fn offload_is_slower_than_native_for_mg_like_work() {
        // Figure 25: every offload variant loses to both native modes.
        let (whole, _, _) = plans();
        let r = whole.report(Device::Phi0, 177, 16, &Faults::default());
        let native_phi = PerfModel::phi(&Faults::default()).unit_time_s(&kernel(2e10, 4e10), 177);
        assert!(
            r.total_s() > native_phi,
            "offload {} !> native {}",
            r.total_s(),
            native_phi
        );
    }

    #[test]
    fn compute_component_is_granularity_independent() {
        let (whole, sub, lp) = plans();
        let c: Vec<f64> = [whole, sub, lp]
            .iter()
            .map(|p| p.report(Device::Phi0, 177, 16, &Faults::default()).compute_s)
            .collect();
        // Same total work: compute times agree within Amdahl noise.
        assert!((c[0] - c[1]).abs() / c[0] < 0.1, "{c:?}");
        assert!((c[0] - c[2]).abs() / c[0] < 0.15, "{c:?}");
    }

    #[test]
    fn faults_default_inactive() {
        // The healthy value prices the calibrated plan; a fault on the
        // other card leaves it alone and switches no mode.
        let (whole, _, _) = plans();
        let healthy = whole.report(Device::Phi1, 177, 16, &Faults::default());
        assert!(!healthy.degraded_to_host);
        let other_card = Faults { dead_card: Some(Device::Phi0), ..Faults::armed("t", None) };
        assert_eq!(whole.report(Device::Phi1, 177, 16, &other_card), healthy);
        assert!(other_card.mode_switches().is_empty());
    }

    #[test]
    #[should_panic(expected = "targets a Phi")]
    fn offload_to_host_rejected() {
        let (whole, _, _) = plans();
        let _ = whole.report(Device::Host, 16, 16, &Faults::default());
    }
}
