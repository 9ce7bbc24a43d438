//! Symmetric mode: one MPI job spanning host + Phi0 + Phi1.
//!
//! The challenge the paper highlights is load balance: the work must be
//! split so every device finishes a time step together, and the PCIe
//! communication (through whichever DAPL stack is installed) plus residual
//! imbalance decide whether the Phis help. OVERFLOW's Figure 23 shows
//! symmetric mode beating native host by 1.9× — but losing to *two
//! hosts*, because communication and imbalance eat the compute advantage.

use maia_arch::{Device, Faults};
use maia_interconnect::{IbLink, NodePath, SoftwareStack};

use crate::perf::{KernelProfile, PerfModel};

/// A symmetric-mode run layout.
#[derive(Debug, Clone)]
pub struct SymmetricLayout {
    /// MPI ranks on the host and OpenMP threads per host rank.
    pub host_ranks: u32,
    pub host_threads_per_rank: u32,
    /// MPI ranks per Phi card and OpenMP threads per Phi rank.
    pub phi_ranks: u32,
    pub phi_threads_per_rank: u32,
    /// Which software stack carries the PCIe MPI traffic.
    pub stack: SoftwareStack,
    /// Fraction of the ideal split lost to discrete zone granularity
    /// (OVERFLOW zones cannot be split arbitrarily).
    pub imbalance: f64,
}

/// Breakdown of one symmetric-mode time step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetricOutcome {
    /// Wall time per step, seconds.
    pub step_s: f64,
    /// Compute portion (slowest device's share), seconds.
    pub compute_s: f64,
    /// PCIe/IB communication portion, seconds.
    pub comm_s: f64,
    /// Load-imbalance waste, seconds.
    pub imbalance_s: f64,
    /// Phi cards dropped from the split by the dead-card fault
    /// (0 on a healthy node).
    pub dead_cards: u32,
}

impl SymmetricLayout {
    /// Total threads on each Phi card.
    pub fn phi_threads(&self) -> u32 {
        self.phi_ranks * self.phi_threads_per_rank
    }

    /// Total threads on the host.
    pub fn host_threads(&self) -> u32 {
        self.host_ranks * self.host_threads_per_rank
    }

    /// Execute one step of `kernel` (the whole problem's per-step work)
    /// split across host + Phi0 + Phi1 in proportion to device throughput,
    /// exchanging `halo_bytes` per device pair per step, on the machine
    /// `faults` describes.
    pub fn step(
        &self,
        kernel: &KernelProfile,
        halo_bytes: u64,
        faults: &Faults,
    ) -> SymmetricOutcome {
        let host = PerfModel::host();
        let phi = PerfModel::phi(faults);
        // A dead card drops out of the proportional split and its halo
        // paths disappear; the job degrades to host + one Phi.
        let dead = faults.dead_card;
        let phis_alive = if dead.is_some() { 1.0 } else { 2.0 };
        if let Some(card) = dead {
            faults.note_mode_switch(&format!(
                "symmetric step: card {card:?} is dead; degrading to host + 1 Phi"
            ));
        }
        // Device rates on the full kernel shape (Gflop/s).
        let host_rate = kernel.flops / host.unit_time_s(kernel, self.host_threads());
        let phi_rate = kernel.flops / phi.unit_time_s(kernel, self.phi_threads());
        let total_rate = host_rate + phis_alive * phi_rate;
        // Ideal proportional split: everyone finishes simultaneously.
        let compute_s = kernel.flops / total_rate;
        let imbalance_s = compute_s * self.imbalance;
        // Halo exchange across the surviving device pairs each step; the
        // slowest path gates the step.
        let comm_s = NodePath::ALL
            .iter()
            .filter(|&&p| !dead.is_some_and(|card| path_touches(p, card)))
            .map(|&p| self.stack.message_time_s(p, halo_bytes, faults))
            .fold(0.0f64, f64::max)
            * 2.0; // both directions
        SymmetricOutcome {
            step_s: compute_s + comm_s + imbalance_s,
            compute_s,
            comm_s,
            imbalance_s,
            dead_cards: u32::from(dead.is_some()),
        }
    }

    /// The native-host baseline for the same kernel, seconds per step.
    pub fn native_host_step(&self, kernel: &KernelProfile) -> f64 {
        PerfModel::host().unit_time_s(kernel, 16)
    }

    /// The two-host (host1 + host2 over InfiniBand) baseline, seconds per
    /// step. Two identical hosts split the zone list almost evenly, so
    /// they see only a small fraction of the heterogeneous split's
    /// imbalance.
    pub fn two_host_step(&self, kernel: &KernelProfile, halo_bytes: u64) -> f64 {
        let host = PerfModel::host();
        let rate = kernel.flops / host.unit_time_s(kernel, 16);
        let compute_s = kernel.flops / (2.0 * rate);
        let comm_s = IbLink::default().message_time_s(halo_bytes) * 2.0;
        compute_s * (1.0 + 0.2 * self.imbalance) + comm_s
    }
}

/// Does a node path have an endpoint on `card`?
fn path_touches(p: NodePath, card: Device) -> bool {
    matches!(
        (p, card),
        (NodePath::HostPhi0 | NodePath::Phi0Phi1, Device::Phi0)
            | (NodePath::HostPhi1 | NodePath::Phi0Phi1, Device::Phi1)
    )
}

/// Which device a work share landed on (for reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShareDevice {
    Host,
    Phi(Device),
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An OVERFLOW-like kernel: memory-bandwidth-bound implicit solver.
    fn overflow_like() -> KernelProfile {
        KernelProfile {
            name: "overflow-like".into(),
            flops: 2e10,
            dram_bytes: 6e10,
            vector_fraction: 0.85,
            // Overset-grid interpolation and implicit sweeps index
            // indirectly; a large share of the vector work gathers.
            gather_fraction: 0.35,
            parallel_fraction: 0.999,
            parallel_extent: None,
            phi_traffic_multiplier: 1.0,
        }
    }

    fn layout(stack: SoftwareStack) -> SymmetricLayout {
        SymmetricLayout {
            host_ranks: 16,
            host_threads_per_rank: 1,
            phi_ranks: 8,
            phi_threads_per_rank: 28,
            stack,
            imbalance: 0.25,
        }
    }

    #[test]
    fn symmetric_beats_native_host_by_about_1_9x() {
        let l = layout(SoftwareStack::PostUpdate);
        let k = overflow_like();
        let halo = 24 << 20;
        let sym = l.step(&k, halo, &Faults::default()).step_s;
        let native = l.native_host_step(&k);
        let boost = native / sym;
        assert!((1.5..2.3).contains(&boost), "symmetric boost {boost}");
    }

    #[test]
    fn post_update_stack_helps_symmetric_mode() {
        // Figure 23: 2%–28% gain from the software update.
        let k = overflow_like();
        let halo = 24 << 20;
        let pre = layout(SoftwareStack::PreUpdate).step(&k, halo, &Faults::default()).step_s;
        let post = layout(SoftwareStack::PostUpdate).step(&k, halo, &Faults::default()).step_s;
        let gain = pre / post - 1.0;
        assert!((0.02..0.35).contains(&gain), "update gain {gain}");
    }

    #[test]
    fn two_hosts_still_beat_symmetric_mode() {
        // The paper: "When compared to using two hosts ... the best
        // host+Phi0+Phi1 result is still worse."
        let l = layout(SoftwareStack::PostUpdate);
        let k = overflow_like();
        let halo = 24 << 20;
        assert!(l.two_host_step(&k, halo) < l.step(&k, halo, &Faults::default()).step_s);
    }

    #[test]
    fn compute_part_is_faster_than_two_hosts_compute() {
        // "host+Phi0+Phi1 ... about 15% faster than the two hosts on the
        // numerically intensive parts" — the advantage is eaten by comm +
        // imbalance.
        let l = layout(SoftwareStack::PostUpdate);
        let k = overflow_like();
        let host_rate = k.flops / PerfModel::host().unit_time_s(&k, 16);
        let two_host_compute = k.flops / (2.0 * host_rate);
        let sym = l.step(&k, 24 << 20, &Faults::default());
        let adv = two_host_compute / sym.compute_s - 1.0;
        assert!(
            (0.05..0.40).contains(&adv),
            "compute advantage {adv} (compute {}, two-host {})",
            sym.compute_s,
            two_host_compute
        );
        assert!(sym.comm_s + sym.imbalance_s > two_host_compute - sym.compute_s);
    }
}
