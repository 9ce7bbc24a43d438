//! Benchmark drivers for the MPI figures (7–14): each runs a small SPMD
//! program on the simulated world and reports the virtual-time metric the
//! paper plots.

use maia_arch::{Device, Faults};
use maia_interconnect::{NodePath, SoftwareStack};

use crate::memory::{MemoryBudget, OomError};
use crate::placement::{RankPlacement, WorldSpec};
use crate::world::MpiWorld;

/// One measurement point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct P2pPoint {
    pub bytes: u64,
    pub time_s: f64,
    pub bandwidth_gbs: f64,
}

fn spec_for_path(path: NodePath, stack: SoftwareStack, faults: &Faults) -> WorldSpec {
    let (a, b) = match path {
        NodePath::HostPhi0 => (Device::Host, Device::Phi0),
        NodePath::HostPhi1 => (Device::Host, Device::Phi1),
        NodePath::Phi0Phi1 => (Device::Phi0, Device::Phi1),
    };
    WorldSpec {
        placements: vec![RankPlacement::on(a), RankPlacement::on(b)],
        stack,
        faults: faults.clone(),
    }
}

/// Figure 7: one-way MPI latency over PCIe on the machine `faults`
/// describes, microseconds, measured as half the ping-pong round trip of
/// a zero-byte message.
pub fn pcie_latency_us(stack: SoftwareStack, path: NodePath, faults: &Faults) -> f64 {
    let spec = spec_for_path(path, stack, faults);
    let iters = 10u32;
    let res = MpiWorld::run(&spec, move |mut rank| async move {
        for i in 0..iters as i32 {
            if rank.rank() == 0 {
                rank.send(1, i, 0).await;
                rank.recv(1, i).await;
            } else {
                rank.recv(0, i).await;
                rank.send(0, i, 0).await;
            }
        }
        rank
    })
    .expect("ping-pong deadlocked");
    res.end_time.as_secs_f64() / (2.0 * iters as f64) * 1e6
}

/// Figure 8: uni-directional MPI bandwidth over PCIe for one message
/// size, on the machine `faults` describes.
pub fn pcie_bandwidth(
    stack: SoftwareStack,
    path: NodePath,
    bytes: u64,
    faults: &Faults,
) -> P2pPoint {
    assert!(bytes > 0);
    let spec = spec_for_path(path, stack, faults);
    let iters = 4u32;
    let res = MpiWorld::run(&spec, move |mut rank| async move {
        for i in 0..iters as i32 {
            if rank.rank() == 0 {
                rank.send(1, i, bytes).await;
            } else {
                rank.recv(0, i).await;
            }
        }
        rank
    })
    .expect("bandwidth test deadlocked");
    let time_s = res.end_time.as_secs_f64() / iters as f64;
    P2pPoint {
        bytes,
        time_s,
        bandwidth_gbs: bytes as f64 / time_s / 1e9,
    }
}

/// Figure 10: ring `MPI_Send/Recv` — per-pair bandwidth, on the
/// discrete-event engine (the oracle `fastpath::ring_sendrecv` is
/// cross-checked against).
pub fn ring_sendrecv_des(device: Device, ranks: usize, bytes: u64) -> P2pPoint {
    let spec = WorldSpec::all_on(device, ranks);
    let iters = 4u32;
    let res = MpiWorld::run(&spec, move |mut rank| async move {
        let p = rank.size();
        let right = (rank.rank() + 1) % p;
        let left = (rank.rank() + p - 1) % p;
        for i in 0..iters as i32 {
            rank.sendrecv(right, left, i, bytes).await;
        }
        rank
    })
    .expect("ring deadlocked");
    let time_s = res.end_time.as_secs_f64() / iters as f64;
    P2pPoint {
        bytes,
        time_s,
        bandwidth_gbs: bytes as f64 / time_s / 1e9,
    }
}

/// Figures 11–13: completion time in seconds of one collective, on the
/// discrete-event engine.
pub fn collective_time_des(
    device: Device,
    ranks: usize,
    bytes: u64,
    op: CollectiveOp,
) -> f64 {
    let spec = WorldSpec::all_on(device, ranks);
    let res = MpiWorld::run(&spec, move |mut rank| async move {
        match op {
            CollectiveOp::Bcast => rank.bcast(0, bytes).await,
            CollectiveOp::Allreduce => rank.allreduce(bytes).await,
            CollectiveOp::Allgather => rank.allgather(bytes).await,
            CollectiveOp::Alltoall => rank.alltoall(bytes).await,
        }
        rank
    })
    .expect("collective deadlocked");
    res.end_time.as_secs_f64()
}

/// Which collective a driver call measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveOp {
    Bcast,
    Allreduce,
    Allgather,
    Alltoall,
}

/// Cluster collective (multi-node allreduce/alltoall over the
/// hierarchical node-leader model) on the DES of the healthy machine,
/// partitioned across `partitions` event wheels: completion time in
/// seconds plus the partition-run statistics (window count, cross-wheel
/// messages, per-wheel stall time). The oracle
/// `fastpath::cluster_collective_time` is cross-checked against.
pub fn cluster_collective_run_with(
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
    partitions: usize,
) -> (f64, maia_sim::partition::PartitionRunStats) {
    cluster_collective_run_under(&Faults::default(), nodes, bytes, op, partitions)
}

/// [`cluster_collective_run_with`] on the machine `faults` describes.
pub fn cluster_collective_run_under(
    faults: &Faults,
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
    partitions: usize,
) -> (f64, maia_sim::partition::PartitionRunStats) {
    let eff = crate::process_backend::effective_partitions(nodes, partitions);
    let plan = crate::partition::PartitionPlan::by_node(eff);
    cluster_collective_run_plan(faults, nodes, bytes, op, &plan)
}

/// [`cluster_collective_run_under`] with an explicit
/// [`PartitionPlan`](crate::partition::PartitionPlan) —
/// the determinism battery uses this to pin shuffled domain→wheel folds
/// against the default round-robin one.
pub fn cluster_collective_run_plan(
    faults: &Faults,
    nodes: usize,
    bytes: u64,
    op: CollectiveOp,
    plan: &crate::partition::PartitionPlan,
) -> (f64, maia_sim::partition::PartitionRunStats) {
    let spec = WorldSpec::node_leaders(nodes).with_faults(faults);
    let phases = crate::fastpath::cluster_intra_phases(bytes, op, faults);
    let program = crate::process_backend::cluster_program(bytes, op, phases);
    let (res, stats) =
        MpiWorld::run_partitioned(&spec, plan, program).expect("cluster collective deadlocked");
    (res.end_time.as_secs_f64(), stats)
}

/// Figure 14: alltoall with the paper's memory gate, on the
/// discrete-event engine — returns `Err` when the buffers exceed the
/// device budget (as happens past 4 KB at 236 ranks).
pub fn alltoall_time_des(device: Device, ranks: usize, bytes: u64) -> Result<f64, OomError> {
    MemoryBudget::check_alltoall(device, ranks, bytes)?;
    Ok(collective_time_des(device, ranks, bytes, CollectiveOp::Alltoall))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fastpath::{alltoall_time, collective_time, ring_sendrecv};

    #[test]
    fn figure7_latencies_match_paper() {
        let cases = [
            (SoftwareStack::PreUpdate, NodePath::HostPhi0, 3.3),
            (SoftwareStack::PreUpdate, NodePath::HostPhi1, 4.6),
            (SoftwareStack::PreUpdate, NodePath::Phi0Phi1, 6.3),
            (SoftwareStack::PostUpdate, NodePath::HostPhi0, 3.3),
            (SoftwareStack::PostUpdate, NodePath::HostPhi1, 4.1),
            (SoftwareStack::PostUpdate, NodePath::Phi0Phi1, 6.6),
        ];
        for (stack, path, expected) in cases {
            let got = pcie_latency_us(stack, path, &Faults::default());
            assert!(
                (got - expected).abs() < 0.05,
                "{stack:?} {path}: {got} vs paper {expected}"
            );
        }
    }

    #[test]
    fn figure8_4mb_bandwidths() {
        let m = 4 * 1024 * 1024;
        let healthy = Faults::default();
        let b = pcie_bandwidth(SoftwareStack::PreUpdate, NodePath::HostPhi0, m, &healthy);
        assert!((b.bandwidth_gbs - 1.6).abs() < 0.2, "{}", b.bandwidth_gbs);
        let b = pcie_bandwidth(SoftwareStack::PostUpdate, NodePath::HostPhi0, m, &healthy);
        assert!((b.bandwidth_gbs - 6.0).abs() < 0.3, "{}", b.bandwidth_gbs);
        let b = pcie_bandwidth(SoftwareStack::PostUpdate, NodePath::Phi0Phi1, m, &healthy);
        assert!((b.bandwidth_gbs - 0.9).abs() < 0.1, "{}", b.bandwidth_gbs);
    }

    #[test]
    fn figure9_gain_is_large_only_past_scif_threshold() {
        let update_gain = |bytes| {
            let bw = |stack| pcie_bandwidth(stack, NodePath::HostPhi1, bytes, &Faults::default());
            bw(SoftwareStack::PostUpdate).bandwidth_gbs / bw(SoftwareStack::PreUpdate).bandwidth_gbs
        };
        let g_small = update_gain(4 * 1024);
        let g_large = update_gain(4 * 1024 * 1024);
        assert!(g_small < 2.0, "small-message gain {g_small}");
        assert!(g_large > 7.0 && g_large < 14.0, "large-message gain {g_large}");
    }

    #[test]
    fn figure10_host_phi_factors() {
        for &bytes in &[64u64, 64 * 1024, 4 * 1024 * 1024] {
            let host = ring_sendrecv(Device::Host, 16, bytes);
            let phi1 = ring_sendrecv(Device::Phi0, 59, bytes);
            let phi4 = ring_sendrecv(Device::Phi0, 236, bytes);
            let f1 = host.bandwidth_gbs / phi1.bandwidth_gbs;
            let f4 = host.bandwidth_gbs / phi4.bandwidth_gbs;
            assert!((1.2..=3.6).contains(&f1), "59T factor {f1} at {bytes}B");
            assert!((20.0..=56.0).contains(&f4), "236T factor {f4} at {bytes}B");
        }
    }

    #[test]
    fn figure11_bcast_factors() {
        for &bytes in &[64u64, 1024 * 1024] {
            let h = collective_time(Device::Host, 16, bytes, CollectiveOp::Bcast);
            let p1 = collective_time(Device::Phi0, 59, bytes, CollectiveOp::Bcast);
            let f = p1 / h;
            assert!((1.1..=4.2).contains(&f), "bcast 59T factor {f} at {bytes}B");
        }
    }

    #[test]
    fn figure12_allreduce_factors() {
        for &bytes in &[64u64, 64 * 1024, 4 * 1024 * 1024] {
            let h = collective_time(Device::Host, 16, bytes, CollectiveOp::Allreduce);
            let p1 = collective_time(Device::Phi0, 59, bytes, CollectiveOp::Allreduce);
            let p4 = collective_time(Device::Phi0, 236, bytes, CollectiveOp::Allreduce);
            let f1 = p1 / h;
            let f4 = p4 / h;
            assert!((2.2..=13.4).contains(&f1), "59T factor {f1} at {bytes}B");
            assert!((28.0..=104.0).contains(&f4), "236T factor {f4} at {bytes}B");
        }
    }

    #[test]
    fn figure13_allgather_factors() {
        for &bytes in &[64u64, 64 * 1024] {
            let h = collective_time(Device::Host, 16, bytes, CollectiveOp::Allgather);
            let p1 = collective_time(Device::Phi0, 59, bytes, CollectiveOp::Allgather);
            let p4 = collective_time(Device::Phi0, 236, bytes, CollectiveOp::Allgather);
            let f1 = p1 / h;
            let f4 = p4 / h;
            assert!((2.6..=17.1).contains(&f1), "59T factor {f1} at {bytes}B");
            assert!((60.0..=1146.0).contains(&f4), "236T factor {f4} at {bytes}B");
        }
    }

    #[test]
    fn figure14_alltoall_factors_and_oom() {
        for &bytes in &[64u64, 4 * 1024] {
            let h = alltoall_time(Device::Host, 16, bytes).unwrap();
            let p1 = alltoall_time(Device::Phi0, 59, bytes).unwrap();
            let p4 = alltoall_time(Device::Phi0, 236, bytes).unwrap();
            let f1 = p1 / h;
            let f4 = p4 / h;
            assert!((8.0..=20.0).contains(&f1), "59T factor {f1} at {bytes}B");
            assert!((1000.0..=2603.0).contains(&f4), "236T factor {f4} at {bytes}B");
        }
        // Beyond 4 KB the 236-rank run fails for lack of memory.
        assert!(alltoall_time(Device::Phi0, 236, 8 * 1024).is_err());
        // ...but the 59-rank run continues.
        assert!(alltoall_time(Device::Phi0, 59, 8 * 1024).is_ok());
    }
}
