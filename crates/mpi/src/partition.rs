//! Partitioning policy for MPI worlds: how ranks group into simulation
//! *domains*, how domains fold onto event wheels, and the conservative
//! lookahead implied by the transport model.
//!
//! A **domain** is the unit of locality: messages inside a domain go
//! straight into the receiver's mailbox on the shared wheel, while every
//! cross-domain message — at *any* partition count, including one — takes
//! the window-barrier injection path of `maia_sim::partition`. Routing by
//! domain rather than by wheel is what makes the simulated timeline and
//! the virtual-side telemetry bit-identical across partition counts: the
//! set of messages on each path never depends on the folding.
//!
//! The lookahead is the minimum cost of a zero-byte cross-domain message
//! under the world's [`TransportModel`]; for the node-per-domain cluster
//! layouts that is one InfiniBand latency.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

use maia_sim::SimDuration;

use crate::placement::WorldSpec;
use crate::transport::{device_index, TransportModel};

/// How ranks are grouped into simulation domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainMap {
    /// One domain per cluster node — the natural cut for multi-node
    /// worlds: only InfiniBand traffic crosses domains, so the lookahead
    /// is the IB latency.
    ByNode,
    /// One domain per (node, device) — finer sharding for symmetric-mode
    /// worlds; PCIe traffic crosses domains, so the lookahead shrinks to
    /// the DAPL latency.
    ByCard,
    /// `rank % domains` — a placement-oblivious cut, mainly for stress
    /// tests: the lookahead degrades to the cheapest message in the
    /// world.
    RoundRobin {
        /// Number of domains to deal ranks across.
        domains: usize,
    },
}

impl DomainMap {
    /// Parse a CLI spelling: `by-node`, `by-card`, or `round-robin:<n>`.
    pub fn parse(s: &str) -> Option<DomainMap> {
        match s {
            "by-node" => Some(DomainMap::ByNode),
            "by-card" => Some(DomainMap::ByCard),
            _ => s
                .strip_prefix("round-robin:")
                .and_then(|n| n.parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .map(|domains| DomainMap::RoundRobin { domains }),
        }
    }

    /// Assign every rank a dense domain id (`0..ndomains`). Ids are
    /// relabeled in sorted raw-key order, so the assignment depends only
    /// on the world spec, never on partition count or fold.
    pub fn assign(&self, spec: &WorldSpec) -> Vec<usize> {
        let raw: Vec<(u32, usize)> = spec
            .placements
            .iter()
            .enumerate()
            .map(|(r, p)| match self {
                DomainMap::ByNode => (p.node, 0),
                DomainMap::ByCard => (p.node, device_index(p.device)),
                DomainMap::RoundRobin { domains } => ((r % domains) as u32, 0),
            })
            .collect();
        let mut keys: Vec<(u32, usize)> = raw.iter().copied().collect::<HashSet<_>>().into_iter().collect();
        keys.sort_unstable();
        raw.iter()
            .map(|k| keys.binary_search(k).expect("key came from the same set"))
            .collect()
    }
}

/// A full partitioning decision for one run.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// Rank→domain grouping policy.
    pub map: DomainMap,
    /// Number of event wheels.
    pub partitions: usize,
    /// Optional explicit domain→wheel assignment (length = domain count,
    /// values in `0..partitions`, every wheel hit at least once when
    /// there are enough domains). `None` folds domain `d` onto wheel
    /// `d % partitions`.
    pub fold: Option<Vec<usize>>,
}

impl PartitionPlan {
    /// The default plan: node-per-domain, folded round-robin.
    pub fn by_node(partitions: usize) -> Self {
        PartitionPlan { map: DomainMap::ByNode, partitions, fold: None }
    }

    /// Resolve the domain→wheel fold for `ndomains` domains.
    pub fn resolve_fold(&self, ndomains: usize) -> Vec<usize> {
        match &self.fold {
            Some(f) => {
                assert_eq!(f.len(), ndomains, "fold must cover every domain");
                assert!(
                    f.iter().all(|&w| w < self.partitions),
                    "fold assigns a domain to a nonexistent wheel"
                );
                f.clone()
            }
            None => (0..ndomains).map(|d| d % self.partitions).collect(),
        }
    }
}

/// The conservative lookahead for a domain assignment: the minimum cost
/// of a zero-byte message between ranks of *different* domains. Falls
/// back to 1 ms when no cross-domain pair exists (a single-domain world
/// never uses the exchange path, so any positive window width works).
pub fn lookahead(
    spec: &WorldSpec,
    transport: &TransportModel,
    domain_of: &[usize],
) -> SimDuration {
    // Message cost depends only on (node, device) of each endpoint, so
    // deduplicate representatives before the quadratic sweep.
    let mut seen = HashSet::new();
    let mut reps = Vec::new();
    for (r, p) in spec.placements.iter().enumerate() {
        if seen.insert((domain_of[r], p.node, p.device)) {
            reps.push((domain_of[r], *p));
        }
    }
    let mut min: Option<SimDuration> = None;
    for (da, pa) in &reps {
        for (db, pb) in &reps {
            if da != db {
                let t = transport.message_time(*pa, *pb, 0);
                min = Some(min.map_or(t, |m: SimDuration| m.min(t)));
            }
        }
    }
    min.unwrap_or_else(|| SimDuration::from_ms(1.0))
}

/// Process-default partition count, set from the CLI (`--partitions N`)
/// and read once per run by `maia_core::RunConfig::current`. Defaults
/// to 1.
static PARTITIONS: AtomicUsize = AtomicUsize::new(1);

/// Set the number of event wheels partitioned runs should use.
pub fn set_partitions(n: usize) {
    assert!(n >= 1, "at least one partition is required");
    PARTITIONS.store(n, Ordering::SeqCst);
}

/// Number of event wheels partitioned runs use (≥ 1).
pub fn partitions() -> usize {
    PARTITIONS.load(Ordering::SeqCst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_arch::Device;
    use maia_interconnect::SoftwareStack;

    #[test]
    fn by_node_assigns_one_domain_per_node() {
        let spec = WorldSpec::node_leaders(8);
        let d = DomainMap::ByNode.assign(&spec);
        assert_eq!(d, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn by_card_splits_a_symmetric_node() {
        let spec = WorldSpec::symmetric(2, 1, SoftwareStack::PostUpdate);
        let d = DomainMap::ByCard.assign(&spec);
        // host, host, phi0, phi1 → domains 0,0,1,2 (sorted raw-key order).
        assert_eq!(d, vec![0, 0, 1, 2]);
    }

    #[test]
    fn round_robin_deals_ranks() {
        let spec = WorldSpec::all_on(Device::Host, 6);
        let d = DomainMap::RoundRobin { domains: 3 }.assign(&spec);
        assert_eq!(d, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn parse_cli_spellings() {
        assert_eq!(DomainMap::parse("by-node"), Some(DomainMap::ByNode));
        assert_eq!(DomainMap::parse("by-card"), Some(DomainMap::ByCard));
        assert_eq!(
            DomainMap::parse("round-robin:4"),
            Some(DomainMap::RoundRobin { domains: 4 })
        );
        assert_eq!(DomainMap::parse("round-robin:0"), None);
        assert_eq!(DomainMap::parse("bogus"), None);
    }

    #[test]
    fn cluster_lookahead_is_one_ib_latency() {
        let spec = WorldSpec::node_leaders(4);
        let transport = TransportModel::new(spec.stack, [1, 1, 1]);
        let d = DomainMap::ByNode.assign(&spec);
        let la = lookahead(&spec, &transport, &d);
        // FDR InfiniBand zero-byte latency: 1.1 us.
        assert_eq!(la.as_ps(), 1_100_000);
    }

    #[test]
    fn single_domain_world_gets_a_fallback_window() {
        let spec = WorldSpec::all_on(Device::Host, 4);
        let transport = TransportModel::new(spec.stack, [1, 1, 1]);
        let d = DomainMap::ByNode.assign(&spec);
        assert!(lookahead(&spec, &transport, &d).as_ps() > 0);
    }

    #[test]
    fn fold_defaults_to_round_robin_over_wheels() {
        let plan = PartitionPlan::by_node(3);
        assert_eq!(plan.resolve_fold(7), vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "nonexistent wheel")]
    fn fold_out_of_range_rejected() {
        let plan = PartitionPlan {
            map: DomainMap::ByNode,
            partitions: 2,
            fold: Some(vec![0, 5]),
        };
        plan.resolve_fold(2);
    }
}
