//! Rank placement: which device and node every MPI rank lives on.

use maia_arch::{Device, Faults};
use maia_interconnect::SoftwareStack;

/// Where one rank runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RankPlacement {
    /// Node index in the cluster (0 for single-node experiments).
    pub node: u32,
    /// Device within the node.
    pub device: Device,
}

impl RankPlacement {
    /// Convenience constructor for node 0.
    pub fn on(device: Device) -> Self {
        RankPlacement { node: 0, device }
    }
}

/// The full description of an MPI world.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Placement of each rank; `placements.len()` is the world size.
    pub placements: Vec<RankPlacement>,
    /// Which DAPL software stack carries host↔Phi traffic.
    pub stack: SoftwareStack,
    /// The machine the world runs on: its ranks' compute and messages
    /// are priced under these faults (healthy in every constructor).
    pub faults: Faults,
}

impl WorldSpec {
    /// All ranks on one device of node 0 (the common intra-device
    /// benchmark layout).
    pub fn all_on(device: Device, ranks: usize) -> Self {
        assert!(ranks >= 1, "world needs at least one rank");
        WorldSpec {
            placements: vec![RankPlacement::on(device); ranks],
            stack: SoftwareStack::PostUpdate,
            faults: Faults::default(),
        }
    }

    /// A symmetric-mode layout: `host` ranks on the host and `per_phi`
    /// ranks on each Phi card of node 0.
    pub fn symmetric(host: usize, per_phi: usize, stack: SoftwareStack) -> Self {
        let mut placements = Vec::with_capacity(host + 2 * per_phi);
        placements.extend(std::iter::repeat_n(RankPlacement::on(Device::Host), host));
        placements.extend(std::iter::repeat_n(RankPlacement::on(Device::Phi0), per_phi));
        placements.extend(std::iter::repeat_n(RankPlacement::on(Device::Phi1), per_phi));
        WorldSpec {
            placements,
            stack,
            faults: Faults::default(),
        }
    }

    /// A cluster layout of node leaders: one Host rank per node, rank `i`
    /// on node `i`. This is the hierarchical cluster-collective world —
    /// each leader stands in for its whole node (16 host + 2×60 Phi
    /// ranks), with the intra-node phases charged as closed-form compute
    /// and only the inter-node InfiniBand traffic simulated rank-by-rank.
    pub fn node_leaders(nodes: usize) -> Self {
        assert!(nodes >= 1, "cluster needs at least one node");
        WorldSpec {
            placements: (0..nodes)
                .map(|n| RankPlacement { node: n as u32, device: Device::Host })
                .collect(),
            stack: SoftwareStack::PostUpdate,
            faults: Faults::default(),
        }
    }

    /// The same world on the machine `faults` describes.
    pub fn with_faults(self, faults: &Faults) -> Self {
        WorldSpec {
            faults: faults.clone(),
            ..self
        }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.placements.len()
    }

    /// Number of ranks resident on `device` (any node).
    pub fn ranks_on(&self, device: Device) -> usize {
        self.placements.iter().filter(|p| p.device == device).count()
    }

    /// Largest number of ranks resident on `device` of any single node —
    /// the count that decides oversubscription and hardware-thread limits.
    /// Cluster worlds replicate a node layout, so summing across nodes
    /// would wrongly reject (and wrongly oversubscribe) valid layouts.
    pub fn max_ranks_on_node(&self, device: Device) -> usize {
        let mut per_node: Vec<usize> = Vec::new();
        for p in &self.placements {
            if p.device == device {
                let n = p.node as usize;
                if per_node.len() <= n {
                    per_node.resize(n + 1, 0);
                }
                per_node[n] += 1;
            }
        }
        per_node.into_iter().max().unwrap_or(0)
    }

    /// Hardware threads per core implied by the rank count on a Phi card:
    /// 59 application cores, so 60 ranks occupy 2 threads on some cores
    /// and the MPI library behaves like the 2-threads/core regime.
    /// Oversubscription is a per-node property: the busiest node's count
    /// decides the regime for the device class.
    pub fn threads_per_core(&self, device: Device) -> u32 {
        let ranks = self.max_ranks_on_node(device) as u32;
        if ranks == 0 {
            return 1;
        }
        match device {
            Device::Host => ranks.div_ceil(16).min(2),
            Device::Phi0 | Device::Phi1 => ranks.div_ceil(59).min(4),
        }
    }

    /// Validate: world non-empty and per-node rank counts within hardware
    /// thread limits.
    ///
    /// # Panics
    /// Panics on an impossible layout (more ranks than hardware threads
    /// on some node's device).
    pub fn validate(&self) {
        assert!(!self.placements.is_empty(), "empty MPI world");
        for device in Device::ALL {
            let ranks = self.max_ranks_on_node(device);
            let limit = match device {
                Device::Host => 32,
                _ => 236,
            };
            assert!(
                ranks <= limit,
                "{ranks} ranks exceed {device}'s per-node hardware thread limit {limit}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_on_places_every_rank() {
        let w = WorldSpec::all_on(Device::Phi0, 59);
        assert_eq!(w.size(), 59);
        assert_eq!(w.ranks_on(Device::Phi0), 59);
        assert_eq!(w.ranks_on(Device::Host), 0);
        w.validate();
    }

    #[test]
    fn threads_per_core_tracks_rank_count() {
        for (ranks, tpc) in [(59, 1), (118, 2), (177, 3), (236, 4)] {
            let w = WorldSpec::all_on(Device::Phi0, ranks);
            assert_eq!(w.threads_per_core(Device::Phi0), tpc, "{ranks} ranks");
        }
        let w = WorldSpec::all_on(Device::Host, 16);
        assert_eq!(w.threads_per_core(Device::Host), 1);
    }

    #[test]
    fn symmetric_layout_counts() {
        let w = WorldSpec::symmetric(16, 8, SoftwareStack::PostUpdate);
        assert_eq!(w.size(), 32);
        assert_eq!(w.ranks_on(Device::Host), 16);
        assert_eq!(w.ranks_on(Device::Phi0), 8);
        assert_eq!(w.ranks_on(Device::Phi1), 8);
        w.validate();
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn overfull_phi_rejected() {
        WorldSpec::all_on(Device::Phi0, 237).validate();
    }

    #[test]
    fn limits_and_oversubscription_are_per_node() {
        // 128 nodes x 16 host ranks: 2048 ranks total, but only 16 per
        // node — valid, and at the 1-thread/core regime.
        let mut placements = Vec::new();
        for node in 0..128u32 {
            placements.extend((0..16).map(|_| RankPlacement { node, device: Device::Host }));
        }
        let w = WorldSpec {
            placements,
            stack: SoftwareStack::PostUpdate,
            faults: Faults::default(),
        };
        w.validate();
        assert_eq!(w.max_ranks_on_node(Device::Host), 16);
        assert_eq!(w.threads_per_core(Device::Host), 1);
    }

    #[test]
    fn node_leaders_layout() {
        let w = WorldSpec::node_leaders(128);
        assert_eq!(w.size(), 128);
        assert_eq!(w.placements[127].node, 127);
        assert_eq!(w.max_ranks_on_node(Device::Host), 1);
        w.validate();
    }
}
