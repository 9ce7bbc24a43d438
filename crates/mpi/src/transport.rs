//! Message transport cost model.
//!
//! Three regimes, dispatched on the endpoints' placements:
//!
//! 1. **Intra-device shared memory.** Cost = latency + bytes/bandwidth,
//!    with both parameters depending on hardware-thread oversubscription.
//!    The Phi table is calibrated to Figure 10: at one rank per core the
//!    host outperforms the Phi by 1.3–3.5×; at four ranks per core the
//!    MPI progress engines thrash the tiny per-core caches and the gap
//!    explodes to 24–54×.
//! 2. **Host↔Phi / Phi↔Phi over PCIe** via the DAPL stacks
//!    ([`SoftwareStack::message_time_s`]) — pre/post-update semantics.
//! 3. **Inter-node FDR InfiniBand** ([`IbLink`]).

use maia_arch::{Device, Faults};
use maia_interconnect::{IbLink, NodePath, SoftwareStack};
use maia_sim::SimDuration;

use crate::placement::{RankPlacement, WorldSpec};

/// Intra-device MPI parameters: (latency µs, per-rank bandwidth GB/s).
///
/// Calibration notes (Figure 10, per-pair bandwidth of the ring
/// `MPI_Send/Recv` benchmark):
/// * host, ≤1 rank/core: 0.5 µs, 2.0 GB/s (shared-L3 copy).
/// * Phi degrades steeply with ranks per core — each extra resident rank
///   costs a core share *and* evicts the progress engine's working set:
///   measured host/Phi factors are 1.3–3.5× at 1 rank/core and 24–54× at
///   4 ranks/core.
pub fn intra_device_params(device: Device, threads_per_core: u32) -> (f64, f64) {
    match device {
        Device::Host => match threads_per_core {
            0 | 1 => (0.5, 2.0),
            // HyperThreaded ranks contend mildly.
            _ => (0.8, 1.4),
        },
        Device::Phi0 | Device::Phi1 => match threads_per_core {
            0 | 1 => (1.2, 1.0),
            2 => (3.0, 0.45),
            3 => (7.0, 0.15),
            _ => (18.0, 0.040),
        },
    }
}

/// Per-byte reduction-operator throughput (GB/s) on one rank of a device —
/// used by reduce/allreduce to cost the combine step.
pub fn reduce_op_gbs(device: Device, threads_per_core: u32) -> f64 {
    match device {
        Device::Host => 5.0,
        Device::Phi0 | Device::Phi1 => 0.5 / threads_per_core.max(1) as f64,
    }
}

/// The resolved transport model for one MPI world.
#[derive(Debug, Clone)]
pub struct TransportModel {
    stack: SoftwareStack,
    ib: IbLink,
    /// Per-device oversubscription level, indexed by [`device_index`].
    tpc: [u32; 3],
    /// The machine the messages cross.
    pub(crate) faults: Faults,
}

/// Dense index for [`Device`].
pub fn device_index(d: Device) -> usize {
    match d {
        Device::Host => 0,
        Device::Phi0 => 1,
        Device::Phi1 => 2,
    }
}

impl TransportModel {
    /// Build the model for a healthy world with the given DAPL stack and
    /// per-device threads-per-core levels `[host, phi0, phi1]`.
    pub fn new(stack: SoftwareStack, tpc: [u32; 3]) -> Self {
        TransportModel {
            stack,
            ib: IbLink::default(),
            tpc,
            faults: Faults::default(),
        }
    }

    /// The model `MpiWorld` builds for `spec`: its stack, its per-device
    /// oversubscription levels and its faults.
    pub(crate) fn for_world(spec: &WorldSpec) -> Self {
        TransportModel {
            faults: spec.faults.clone(),
            ..TransportModel::new(
                spec.stack,
                Device::ALL.map(|d| spec.threads_per_core(d)),
            )
        }
    }

    /// Time for one rank to move `bytes` to another rank.
    pub fn message_time(&self, from: RankPlacement, to: RankPlacement, bytes: u64) -> SimDuration {
        let secs = if from.node != to.node {
            self.ib.message_time_s(bytes)
        } else if from.device == to.device {
            let (lat_us, bw_gbs) = intra_device_params(from.device, self.tpc[device_index(from.device)]);
            lat_us * 1e-6 + bytes as f64 / (bw_gbs * 1e9)
        } else {
            let path = NodePath::between(from.device, to.device);
            let base = self.stack.message_time_s(path, bytes, &self.faults);
            // A degraded link pays modeled timeout/retry/backoff rounds
            // on every PCIe-crossing message (exact zero on a healthy
            // link).
            base + crate::faults::link_retry_extra_s(&self.faults, base)
        };
        SimDuration::from_secs_f64(secs)
    }

    /// Time for one rank on `device` to apply a reduction operator over
    /// `bytes`.
    pub fn reduce_time(&self, device: Device, bytes: u64) -> SimDuration {
        let gbs = reduce_op_gbs(device, self.tpc[device_index(device)]);
        SimDuration::from_secs_f64(bytes as f64 / (gbs * 1e9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> RankPlacement {
        RankPlacement::on(Device::Host)
    }
    fn phi0() -> RankPlacement {
        RankPlacement::on(Device::Phi0)
    }

    #[test]
    fn figure10_host_phi_factors() {
        // Per-pair bandwidth factors from the calibration table.
        let (hl, hb) = intra_device_params(Device::Host, 1);
        let (p1l, p1b) = intra_device_params(Device::Phi0, 1);
        let (p4l, p4b) = intra_device_params(Device::Phi0, 4);
        // 1 thread/core: host higher by 1.3–3.5x.
        assert!((1.3..=3.5).contains(&(p1l / hl)), "lat ratio {}", p1l / hl);
        assert!((1.3..=3.5).contains(&(hb / p1b)), "bw ratio {}", hb / p1b);
        // 4 threads/core: host higher by 24–54x.
        assert!((24.0..=54.0).contains(&(p4l / hl)), "lat ratio {}", p4l / hl);
        assert!((24.0..=54.0).contains(&(hb / p4b)), "bw ratio {}", hb / p4b);
    }

    #[test]
    fn cross_device_uses_dapl_stack() {
        let t = TransportModel::new(SoftwareStack::PostUpdate, [1, 1, 1]);
        let m4 = 4 * 1024 * 1024;
        let secs = t.message_time(host(), phi0(), m4).as_secs_f64();
        let bw = m4 as f64 / secs / 1e9;
        assert!((bw - 6.0).abs() < 0.3, "post-update host-phi0 4MB: {bw} GB/s");

        let t_pre = TransportModel::new(SoftwareStack::PreUpdate, [1, 1, 1]);
        let secs_pre = t_pre.message_time(host(), phi0(), m4).as_secs_f64();
        assert!(secs_pre > secs * 3.0, "pre-update should be >3x slower at 4MB");
    }

    #[test]
    fn cross_node_uses_infiniband() {
        let t = TransportModel::new(SoftwareStack::PostUpdate, [1, 1, 1]);
        let a = RankPlacement { node: 0, device: Device::Host };
        let b = RankPlacement { node: 1, device: Device::Host };
        let secs = t.message_time(a, b, 4 * 1024 * 1024);
        let bw = 4.194304e6 / secs.as_secs_f64() / 1e9;
        assert!(bw > 5.5 && bw < 7.0, "IB bandwidth {bw}");
    }

    #[test]
    fn intra_device_oversubscription_hurts() {
        let t1 = TransportModel::new(SoftwareStack::PostUpdate, [1, 1, 1]);
        let t4 = TransportModel::new(SoftwareStack::PostUpdate, [1, 4, 1]);
        let m = 64 * 1024;
        assert!(
            t4.message_time(phi0(), phi0(), m) > t1.message_time(phi0(), phi0(), m).saturating_mul(5),
        );
    }

    #[test]
    fn reduce_cost_scales_with_oversubscription() {
        let t = TransportModel::new(SoftwareStack::PostUpdate, [1, 4, 1]);
        let host_t = t.reduce_time(Device::Host, 1 << 20);
        let phi_t = t.reduce_time(Device::Phi0, 1 << 20);
        assert!(phi_t.as_secs_f64() > host_t.as_secs_f64() * 10.0);
    }
}
