//! Closed-form fast paths for the intra-device collective benchmarks.
//!
//! The discrete-event runs behind Figures 10–14 are *symmetric*: every
//! rank of an `all_on` world executes the same algorithm over one
//! transport regime, so the engine's replay reduces to per-rank clock
//! recurrences (a `recv` returns at `max(own clock, message ready)`;
//! `send` advances the sender by the full message time). This module
//! evaluates those recurrences directly in integer picoseconds — the
//! same arithmetic the engine performs — so its results are *exactly*
//! equal to the DES, bit for bit, not merely approximately.
//!
//! The fast path is an optimization, never a semantic change:
//!
//! * engine selection lives in `maia_core::RunConfig`: with a fault plan
//!   armed, a probe/trace consumer attached, or an explicit
//!   [`EngineMode::Des`], it picks the full DES, so `maia-bench profile`
//!   / `maia-bench faults` output is unchanged;
//! * the DES remains the correctness oracle: the `crosscheck` suite
//!   computes every figure cell both ways and compares formatted output.

use std::sync::{Mutex, PoisonError};

use maia_arch::{Device, Faults};
use maia_interconnect::SoftwareStack;
use maia_sim::SimDuration;

use crate::bench::{CollectiveOp, P2pPoint};
use crate::coll::ALLGATHER_BRUCK_MAX;
use crate::memory::{MemoryBudget, OomError};
use crate::placement::{RankPlacement, WorldSpec};
use crate::transport::TransportModel;

/// Which engine the benchmark drivers should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineMode {
    /// Fast path when eligible (no faults, no probe), DES otherwise.
    Auto,
    /// Always the discrete-event engine (debugging / oracle runs).
    Des,
    /// Always the closed forms (cross-check runs; ignores fault plans).
    Fast,
}

impl EngineMode {
    /// Parse a `--engine` flag value.
    pub fn parse(text: &str) -> Result<EngineMode, String> {
        match text {
            "auto" => Ok(EngineMode::Auto),
            "des" => Ok(EngineMode::Des),
            "fast" | "fastpath" => Ok(EngineMode::Fast),
            other => Err(format!("unknown engine '{other}' (expected auto, des or fast)")),
        }
    }
}

static MODE: Mutex<EngineMode> = Mutex::new(EngineMode::Auto);

/// Install the process-default engine mode (default [`EngineMode::Auto`]),
/// which `maia_core::RunConfig::current` reads once per run.
pub fn set_engine_mode(mode: EngineMode) {
    *MODE.lock().unwrap_or_else(PoisonError::into_inner) = mode;
}

/// The currently installed engine mode.
pub fn engine_mode() -> EngineMode {
    *MODE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The engine a run's collective cells actually take, as
/// `maia_core::RunConfig` resolves [`EngineMode::Auto`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectedEngine {
    Des,
    Fast,
}

/// The transport model exactly as `MpiWorld::run` builds it for an
/// `all_on` world (same stack, same per-device oversubscription levels).
fn model_for(device: Device, ranks: usize) -> TransportModel {
    let spec = WorldSpec::all_on(device, ranks);
    spec.validate();
    TransportModel::for_world(&spec)
}

/// Intra-device message time in picoseconds (the engine's native unit).
fn msg_ps(t: &TransportModel, device: Device, bytes: u64) -> u64 {
    let place = RankPlacement::on(device);
    t.message_time(place, place, bytes).as_ps()
}

/// Figure 10 closed form: 4 lockstep sendrecv iterations, one full
/// message time each. Mirrors `bench::ring_sendrecv_des`'s derived metrics.
pub fn ring_sendrecv(device: Device, ranks: usize, bytes: u64) -> P2pPoint {
    let t = model_for(device, ranks);
    let iters = 4u32;
    let end = SimDuration::from_ps(msg_ps(&t, device, bytes) * u64::from(iters));
    let time_s = end.as_secs_f64() / iters as f64;
    P2pPoint {
        bytes,
        time_s,
        bandwidth_gbs: bytes as f64 / time_s / 1e9,
    }
}

/// Figures 11–13 closed form: completion time in seconds of one
/// collective, exactly equal to the DES end time.
pub fn collective_time(device: Device, ranks: usize, bytes: u64, op: CollectiveOp) -> f64 {
    let t = model_for(device, ranks);
    let end_ps = match op {
        CollectiveOp::Bcast => bcast_end_ps(&t, device, ranks, bytes),
        CollectiveOp::Allreduce => allreduce_end_ps(&t, device, ranks, bytes),
        CollectiveOp::Allgather => allgather_end_ps(&t, device, ranks, bytes),
        CollectiveOp::Alltoall => alltoall_end_ps(&t, device, ranks, bytes),
    };
    SimDuration::from_ps(end_ps).as_secs_f64()
}

/// Figure 14 closed form, with the same memory gate as the DES driver.
pub fn alltoall_time(device: Device, ranks: usize, bytes: u64) -> Result<f64, OomError> {
    MemoryBudget::check_alltoall(device, ranks, bytes)?;
    Ok(collective_time(device, ranks, bytes, CollectiveOp::Alltoall))
}

/// Binomial-tree bcast (root 0, so vrank == rank): replay the tree.
/// `recv[u]` is the instant u's parent message lands; a parent's sends
/// advance its own clock by one message time each, in descending-mask
/// order, and every child index exceeds its parent's, so a single
/// ascending pass resolves the whole recurrence.
fn bcast_end_ps(t: &TransportModel, device: Device, p: usize, bytes: u64) -> u64 {
    bcast_end_from(msg_ps(t, device, bytes), p)
}

/// Core binomial-bcast recurrence over an abstract fabric where every
/// message costs `m` picoseconds — reused by the cluster closed forms
/// with `m` = one InfiniBand message.
fn bcast_end_from(m: u64, p: usize) -> u64 {
    if p == 1 {
        return 0;
    }
    let mut recv = vec![0u64; p];
    let mut end = 0u64;
    for u in 0..p {
        let start_mask = if u == 0 {
            p.next_power_of_two() >> 1
        } else {
            lowest_set_bit(u) >> 1
        };
        let mut clock = recv[u];
        let mut mask = start_mask;
        while mask > 0 {
            if u + mask < p {
                clock += m;
                recv[u + mask] = clock;
            }
            mask >>= 1;
        }
        end = end.max(clock);
    }
    end
}

/// Recursive-doubling allreduce with the MPICH fold/unfold for
/// non-power-of-two worlds. Each pairwise exchange costs both partners
/// `max(clock_a, clock_b) + message + reduce`.
fn allreduce_end_ps(t: &TransportModel, device: Device, p: usize, bytes: u64) -> u64 {
    allreduce_end_from(
        msg_ps(t, device, bytes),
        t.reduce_time(device, bytes).as_ps(),
        p,
    )
}

/// Core recursive-doubling recurrence: message cost `m`, combine cost
/// `r`, both in picoseconds.
fn allreduce_end_from(m: u64, r: u64, p: usize) -> u64 {
    if p == 1 {
        return 0;
    }
    let pof2 = 1usize << (usize::BITS - 1 - p.leading_zeros());
    let rem = p - pof2;
    let mut clock = vec![0u64; p];

    // Fold: even ranks below 2*rem send to their odd neighbour, which
    // receives (waiting out the wire time) and applies the operator.
    for me in 0..2 * rem {
        if me % 2 == 0 {
            clock[me] += m;
        } else {
            clock[me] = clock[me].max(clock[me - 1]) + r;
        }
    }

    // Doubling rounds over the power-of-two subgroup.
    let real = |nr: usize| if nr < rem { nr * 2 + 1 } else { nr + rem };
    let mut mask = 1usize;
    while mask < pof2 {
        let snapshot = clock.clone();
        for nr in 0..pof2 {
            let a = real(nr);
            let b = real(nr ^ mask);
            clock[a] = snapshot[a].max(snapshot[b]) + m + r;
        }
        mask <<= 1;
    }

    // Unfold: odd partners return the result to the retired evens.
    for me in (1..2 * rem).step_by(2) {
        clock[me] += m;
    }
    for me in (0..2 * rem).step_by(2) {
        clock[me] = clock[me].max(clock[me + 1]);
    }
    clock.into_iter().max().expect("non-empty world")
}

/// Allgather: Bruck below the switch point (lockstep rounds shipping
/// `min(dist, p-dist)` blocks), ring above (p−1 lockstep rounds).
fn allgather_end_ps(t: &TransportModel, device: Device, p: usize, bytes: u64) -> u64 {
    allgather_end_from(|b| msg_ps(t, device, b), p, bytes)
}

/// Core allgather recurrence over an abstract fabric; `msg` prices a
/// message of the given byte count in picoseconds.
fn allgather_end_from(msg: impl Fn(u64) -> u64, p: usize, bytes: u64) -> u64 {
    if p == 1 {
        return 0;
    }
    if bytes <= ALLGATHER_BRUCK_MAX {
        let mut end = 0u64;
        let mut dist = 1usize;
        while dist < p {
            let blocks = dist.min(p - dist) as u64;
            end += msg(blocks * bytes);
            dist <<= 1;
        }
        end
    } else {
        (p as u64 - 1) * msg(bytes)
    }
}

/// Pairwise-exchange alltoall: p−1 lockstep rounds, each paying the
/// incast-scaled message time. The scale factor round-trips through f64
/// seconds exactly as an incast send in `Op::price` does, so the
/// rounding to picoseconds is identical.
fn alltoall_end_ps(t: &TransportModel, device: Device, p: usize, bytes: u64) -> u64 {
    if p == 1 {
        return 0;
    }
    let incast = crate::transport::alltoall_incast(device, p);
    alltoall_end_from(scaled_ps(msg_ps(t, device, bytes), incast), p)
}

/// Core pairwise-exchange recurrence: p−1 rounds of `per_round_ps` each.
fn alltoall_end_from(per_round_ps: u64, p: usize) -> u64 {
    (p as u64).saturating_sub(1) * per_round_ps
}

/// Scale a picosecond cost by a contention factor, round-tripping
/// through f64 seconds exactly as `Op::price` does, so the rounding back
/// to picoseconds is identical.
fn scaled_ps(base_ps: u64, factor: f64) -> u64 {
    SimDuration::from_secs_f64(SimDuration::from_ps(base_ps).as_secs_f64() * factor).as_ps()
}

fn lowest_set_bit(u: usize) -> usize {
    u & u.wrapping_neg()
}

// ---------------------------------------------------------------------------
// Cluster collectives (hierarchical node-leader model)
// ---------------------------------------------------------------------------

/// Host ranks per cluster node in the hierarchical collective model.
pub const NODE_HOST_RANKS: usize = 16;
/// Ranks per Phi card per cluster node (two cards per node).
pub const NODE_PHI_RANKS: usize = 60;

/// Intra-node (pre, post) phase durations of one hierarchical cluster
/// collective over a `16 host + 2×60 Phi` symmetric node, on the machine
/// `faults` describes (its DAPL and link faults reach the card hops).
///
/// These closed forms are shared *verbatim* between this module's
/// [`cluster_collective_time`] and the DES driver
/// (`bench::cluster_collective_run_with`), which charges them as leader
/// `compute()` durations — so closed-form-vs-DES equality hinges exactly
/// on the inter-node recurrence, which the DES actually simulates.
///
/// * Allreduce pre: host ranks and each Phi card reduce internally
///   (concurrently), card leaders ship partials to the node leader over
///   DAPL, and the leader folds in the two card contributions.
///   Post: the leader broadcasts — to its host ranks directly, and to
///   the cards (one DAPL hop each, serialized at the leader) which then
///   broadcast internally.
/// * Alltoall pre/post: the leader gathers (scatters) the node's blocks,
///   modeled as the slower of the host allgather and a Phi allgather
///   plus the DAPL hop.
pub fn cluster_intra_phases(
    bytes: u64,
    op: CollectiveOp,
    faults: &Faults,
) -> (SimDuration, SimDuration) {
    let node = WorldSpec::symmetric(NODE_HOST_RANKS, NODE_PHI_RANKS, SoftwareStack::PostUpdate)
        .with_faults(faults);
    let t = TransportModel::for_world(&node);
    let dapl = t
        .message_time(RankPlacement::on(Device::Phi0), RankPlacement::on(Device::Host), bytes)
        .as_ps();
    match op {
        CollectiveOp::Allreduce => {
            let r_host = t.reduce_time(Device::Host, bytes).as_ps();
            let host_ar = allreduce_end_from(msg_ps(&t, Device::Host, bytes), r_host, NODE_HOST_RANKS);
            let phi_ar = allreduce_end_from(
                msg_ps(&t, Device::Phi0, bytes),
                t.reduce_time(Device::Phi0, bytes).as_ps(),
                NODE_PHI_RANKS,
            );
            let pre = host_ar.max(phi_ar + dapl) + 2 * r_host;
            let host_bc = bcast_end_from(msg_ps(&t, Device::Host, bytes), NODE_HOST_RANKS);
            let phi_bc = bcast_end_from(msg_ps(&t, Device::Phi0, bytes), NODE_PHI_RANKS);
            let post = host_bc.max(2 * dapl + phi_bc);
            (SimDuration::from_ps(pre), SimDuration::from_ps(post))
        }
        CollectiveOp::Alltoall => {
            let host_ag = allgather_end_from(|b| msg_ps(&t, Device::Host, b), NODE_HOST_RANKS, bytes);
            let phi_ag = allgather_end_from(|b| msg_ps(&t, Device::Phi0, b), NODE_PHI_RANKS, bytes);
            let phase = SimDuration::from_ps(host_ag.max(phi_ag + dapl));
            (phase, phase)
        }
        other => panic!("cluster collectives cover allreduce and alltoall, not {other:?}"),
    }
}

/// Cluster-collective closed form: intra-node pre phase, inter-node
/// recurrence over InfiniBand among the node leaders, intra-node post
/// phase. Bit-for-bit equal to the (partitioned) DES driver's end time.
/// `faults` reaches the intra-node phases only: stragglers act inside
/// the DES, which this form replaces.
pub fn cluster_collective_time(nodes: usize, bytes: u64, op: CollectiveOp, faults: &Faults) -> f64 {
    let spec = WorldSpec::node_leaders(nodes);
    spec.validate();
    let (pre, post) = cluster_intra_phases(bytes, op, faults);
    let inter = if nodes == 1 {
        0
    } else {
        let t = TransportModel::for_world(&spec);
        let leader = |n: u32| RankPlacement { node: n, device: Device::Host };
        let m = t.message_time(leader(0), leader(1), bytes).as_ps();
        match op {
            CollectiveOp::Allreduce => {
                allreduce_end_from(m, t.reduce_time(Device::Host, bytes).as_ps(), nodes)
            }
            CollectiveOp::Alltoall => {
                alltoall_end_from(scaled_ps(m, 1.0 + 0.002 * nodes as f64), nodes)
            }
            other => panic!("cluster collectives cover allreduce and alltoall, not {other:?}"),
        }
    };
    SimDuration::from_ps(pre.as_ps() + inter + post.as_ps()).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bench;

    /// The in-crate sanity net: closed forms equal the DES bit-for-bit
    /// on a spread of world sizes, including non-powers of two (the
    /// full F10–F14 grid lives in the cross-crate equivalence suite).
    #[test]
    fn closed_forms_match_des_exactly() {
        for (device, ranks) in [
            (Device::Host, 2),
            (Device::Host, 5),
            (Device::Host, 16),
            (Device::Phi0, 3),
            (Device::Phi0, 59),
        ] {
            for bytes in [64u64, 2 * 1024, 4 * 1024, 64 * 1024] {
                let fast = ring_sendrecv(device, ranks, bytes);
                let des = bench::ring_sendrecv_des(device, ranks, bytes);
                assert_eq!(fast, des, "ring {device:?} p={ranks} b={bytes}");
                for op in [
                    CollectiveOp::Bcast,
                    CollectiveOp::Allreduce,
                    CollectiveOp::Allgather,
                    CollectiveOp::Alltoall,
                ] {
                    let fast = collective_time(device, ranks, bytes, op);
                    let des = bench::collective_time_des(device, ranks, bytes, op);
                    assert_eq!(
                        fast.to_bits(),
                        des.to_bits(),
                        "{op:?} {device:?} p={ranks} b={bytes}: fast {fast} vs des {des}"
                    );
                }
            }
        }
    }

    /// The cluster closed forms equal the *partitioned* DES bit-for-bit,
    /// at every wheel count — the inter-node recurrence is the only part
    /// the DES re-derives, and the conservative windows don't perturb it.
    #[test]
    fn cluster_closed_forms_match_partitioned_des_exactly() {
        for nodes in [1usize, 2, 5, 8] {
            for bytes in [64u64, 64 * 1024] {
                for op in [CollectiveOp::Allreduce, CollectiveOp::Alltoall] {
                    let fast = cluster_collective_time(nodes, bytes, op, &Faults::default());
                    for wheels in [1usize, 2, 4] {
                        let (des, _) = bench::cluster_collective_run_with(nodes, bytes, op, wheels);
                        assert_eq!(
                            fast.to_bits(),
                            des.to_bits(),
                            "cluster {op:?} n={nodes} b={bytes} w={wheels}: fast {fast} vs des {des}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_node_cluster_is_pure_intra_phases() {
        for op in [CollectiveOp::Allreduce, CollectiveOp::Alltoall] {
            let (pre, post) = cluster_intra_phases(4096, op, &Faults::default());
            let t = cluster_collective_time(1, 4096, op, &Faults::default());
            assert_eq!(t, (pre + post).as_secs_f64());
        }
    }

    #[test]
    fn single_rank_worlds_cost_nothing() {
        for op in [
            CollectiveOp::Bcast,
            CollectiveOp::Allreduce,
            CollectiveOp::Allgather,
            CollectiveOp::Alltoall,
        ] {
            assert_eq!(collective_time(Device::Host, 1, 4096, op), 0.0);
        }
    }

    #[test]
    fn oom_gate_matches_des_driver() {
        assert_eq!(
            alltoall_time(Device::Phi0, 236, 8 * 1024),
            bench::alltoall_time_des(Device::Phi0, 236, 8 * 1024)
        );
        assert!(alltoall_time(Device::Phi0, 236, 4 * 1024).is_ok());
    }

    #[test]
    fn mode_parse_round_trips() {
        assert_eq!(EngineMode::parse("auto"), Ok(EngineMode::Auto));
        assert_eq!(EngineMode::parse("des"), Ok(EngineMode::Des));
        assert_eq!(EngineMode::parse("fast"), Ok(EngineMode::Fast));
        assert_eq!(EngineMode::parse("fastpath"), Ok(EngineMode::Fast));
        assert!(EngineMode::parse("warp").is_err());
    }
}
