//! Property tests for the fabric models: regime-wise monotonicity of the
//! DAPL stacks and the TLP framing bounds.

use maia_arch::{Device, Faults};
use maia_interconnect::pcie::tlp_efficiency;
use maia_interconnect::{NodePath, PcieModel, SoftwareStack};
use proptest::prelude::*;

fn path_strategy() -> impl Strategy<Value = NodePath> {
    prop_oneof![
        Just(NodePath::HostPhi0),
        Just(NodePath::HostPhi1),
        Just(NodePath::Phi0Phi1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Message time is monotone in size within one protocol regime.
    #[test]
    fn message_time_monotone_within_regime(
        path in path_strategy(),
        bytes in 1u64..8_388_608,
        pre in any::<bool>(),
    ) {
        let stack = if pre { SoftwareStack::PreUpdate } else { SoftwareStack::PostUpdate };
        let same = stack.provider_for(bytes) == stack.provider_for(bytes + bytes / 2 + 1)
            && stack.protocol_for(bytes) == stack.protocol_for(bytes + bytes / 2 + 1);
        if same {
            prop_assert!(
                stack.message_time_s(path, bytes + bytes / 2 + 1, &Faults::default())
                    >= stack.message_time_s(path, bytes, &Faults::default())
            );
        }
    }

    /// The post-update stack never loses to the pre-update stack by more
    /// than rounding (the update only improved the providers).
    #[test]
    fn post_update_never_slower(path in path_strategy(), bytes in 1u64..8_388_608) {
        let pre = SoftwareStack::PreUpdate.message_time_s(path, bytes, &Faults::default());
        let post = SoftwareStack::PostUpdate.message_time_s(path, bytes, &Faults::default());
        prop_assert!(post <= pre * 1.05, "post {post} vs pre {pre} at {bytes}B");
    }

    /// TLP efficiency is in (0, 1) and increases with payload size.
    #[test]
    fn tlp_efficiency_bounds(p1 in 1u32..4096, p2 in 1u32..4096) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let e_lo = tlp_efficiency(lo);
        let e_hi = tlp_efficiency(hi);
        prop_assert!(e_lo > 0.0 && e_hi < 1.0);
        prop_assert!(e_lo <= e_hi);
    }

    /// Offload DMA bandwidth never exceeds the TLP-framed link ceiling.
    #[test]
    fn dma_bandwidth_below_ceiling(bytes in 1u64..1u64 << 30) {
        let m = PcieModel::default();
        let healthy = Faults::default();
        for dev in [Device::Phi0, Device::Phi1] {
            prop_assert!(
                m.dma_bandwidth_gbs(dev, bytes, &healthy) <= m.peak_payload_gbs(&healthy) + 1e-9
            );
        }
    }
}
