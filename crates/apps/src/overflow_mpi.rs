//! OVERFLOW in true hybrid MPI+OpenMP form: zones distributed across
//! simulated MPI ranks, Chimera donor planes carried as *real payloads*
//! over the modeled fabric, OpenMP threads working inside each rank's
//! zones. This is the execution structure the paper runs in native and
//! symmetric modes — here the numerics are verifiable against the
//! shared-memory solver while the discrete-event engine prices the
//! communication on host shared memory or PCIe.
//!
//! [`run_mpi_layouts`] solves once, live on its first layout, and prices
//! every other layout by evaluating the recorded exchanges and compute
//! phases, with no payloads and no engine ([`MpiWorld::run_layouts`]).
//! Over two or more layouts the live solve is timeless: each rank keeps
//! its own clock and the engine only orders its exchanges. Only while a probe observes engines
//! does every layout solve live and timed.

use std::sync::Arc;

use parking_lot::Mutex;

use maia_mpi::world::WorldResult;
use maia_mpi::{MpiWorld, WorldSpec};
use maia_omp::Team;

use crate::overflow::{
    adi_zone, apply_planes, extract_planes, mismatch_sq, zone_forcing, zone_interior_sq,
    OverflowCase,
};

/// Result of a distributed OVERFLOW run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverflowMpiResult {
    /// Interior residual after the last step.
    pub final_residual: f64,
    /// Interface mismatch before the last exchange.
    pub final_mismatch: f64,
    /// Virtual wall seconds of the whole world.
    pub wall_s: f64,
    /// Mean communication fraction across ranks (comm / (comm+compute)).
    pub comm_fraction: f64,
}

/// A distributed OVERFLOW run over several layouts: the metrics,
/// computed once, and one world per layout in the order given.
#[derive(Debug, Clone)]
pub struct OverflowMpiRuns {
    /// Interior residual after the last step.
    pub final_residual: f64,
    /// Interface mismatch before the last exchange.
    pub final_mismatch: f64,
    /// One world per layout, each bit-identical to a live run of it.
    pub worlds: Vec<WorldResult>,
}

impl OverflowMpiRuns {
    /// Layout `i`'s outcome.
    pub fn layout(&self, i: usize) -> OverflowMpiResult {
        let world = &self.worlds[i];
        let total_comm: f64 = world.rank_stats.iter().map(|s| s.comm_s).sum();
        let total_compute: f64 = world.rank_stats.iter().map(|s| s.compute_s).sum();
        OverflowMpiResult {
            final_residual: self.final_residual,
            final_mismatch: self.final_mismatch,
            wall_s: world.end_time.as_secs_f64(),
            comm_fraction: total_comm / (total_comm + total_compute),
        }
    }
}

const TAG_DONOR_RIGHT: i32 = 100_000; // left zone's interior -> right rank
const TAG_DONOR_LEFT: i32 = 200_000; // right zone's planes [1,2,3] -> left rank

/// [`run_mpi_layouts`] on one layout.
pub fn run_mpi(
    case: &OverflowCase,
    steps: usize,
    threads_per_rank: usize,
    spec: &WorldSpec,
) -> OverflowMpiResult {
    run_mpi_layouts(case, steps, threads_per_rank, std::slice::from_ref(spec)).layout(0)
}

/// Run `steps` of the multi-zone solver with zones dealt in contiguous
/// blocks to the ranks of each layout in `specs`, `threads_per_rank`
/// OpenMP threads each.
///
/// # Panics
/// Panics if there are fewer zones than ranks.
pub fn run_mpi_layouts(
    case: &OverflowCase,
    steps: usize,
    threads_per_rank: usize,
    specs: &[WorldSpec],
) -> OverflowMpiRuns {
    let p = specs[0].size();
    assert!(case.zones >= p, "need at least one zone per rank");
    let case = case.clone();
    let out: Arc<Mutex<Option<(f64, f64)>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);

    let res = MpiWorld::run_layouts(specs, move |mut rank| {
        let out2 = Arc::clone(&out2);
        let case = case.clone();
        async move {
        let me = rank.rank();
        let p = rank.size();
        let z_lo = case.zones * me / p;
        let z_hi = case.zones * (me + 1) / p;
        let n = case.zone_n;
        let team = Team::new(threads_per_rank);
        let mut zones: Vec<maia_npb::flow::State5> = (z_lo..z_hi)
            .map(|_| maia_npb::flow::State5::zeros(n))
            .collect();
        let forcing: Vec<maia_npb::flow::State5> =
            (z_lo..z_hi).map(|zi| zone_forcing(&case, zi)).collect();
        // ~130 flops per grid point per implicit update.
        let zone_flops = (n * n * n) as f64 * 130.0;

        let mut last = (0.0f64, 0.0f64);
        for step in 0..steps {
            // 1. Implicit update of every owned zone.
            for (local, zi) in (z_lo..z_hi).enumerate() {
                adi_zone(
                    &team,
                    &mut zones[local],
                    &forcing[local],
                    zi > 0,
                    zi + 1 < case.zones,
                );
            }
            rank.compute_flops((z_hi - z_lo) as f64 * zone_flops, threads_per_rank)
                .await;

            let step_tag = (step as i32) << 8;
            let mut mismatch_acc = 0.0;

            // 2. Cross-rank donor exchange: send before receive (sends
            // never block), so no ordering deadlock is possible.
            let has_left_neighbor = z_lo > 0;
            let has_right_neighbor = z_hi < case.zones;
            if has_right_neighbor {
                // My last zone is the left side of a cross-rank overlap.
                let donor = extract_planes(zones.last().expect("owns zones"), &[n - 4, n - 3]);
                rank.send_data(me + 1, TAG_DONOR_RIGHT + step_tag, &donor).await;
            }
            if has_left_neighbor {
                // My first zone is the right side: ship planes [1,2,3]
                // (plane 1 feeds the mismatch metric, 2 and 3 the donors).
                let donor = extract_planes(&zones[0], &[1, 2, 3]);
                rank.send_data(me - 1, TAG_DONOR_LEFT + step_tag, &donor).await;
            }

            // 3. Intra-rank boundaries: same arithmetic as the
            // shared-memory solver.
            for local in 0..zones.len().saturating_sub(1) {
                let right_p1 = extract_planes(&zones[local + 1], &[1]);
                mismatch_acc += mismatch_sq(&zones[local], &right_p1);
                let donor_right = extract_planes(&zones[local], &[n - 4, n - 3]);
                let donor_left = extract_planes(&zones[local + 1], &[2, 3]);
                apply_planes(&mut zones[local + 1], &[0, 1], &donor_right);
                apply_planes(&mut zones[local], &[n - 2, n - 1], &donor_left);
            }

            // 4. Receive and apply the cross-rank donors.
            if has_right_neighbor {
                let planes123 = rank.recv_data(me + 1, TAG_DONOR_LEFT + step_tag).await;
                let per_plane = planes123.len() / 3;
                mismatch_acc += mismatch_sq(
                    zones.last().expect("owns zones"),
                    &planes123[..per_plane],
                );
                apply_planes(
                    zones.last_mut().expect("owns zones"),
                    &[n - 2, n - 1],
                    &planes123[per_plane..],
                );
            }
            if has_left_neighbor {
                let donor = rank.recv_data(me - 1, TAG_DONOR_RIGHT + step_tag).await;
                apply_planes(&mut zones[0], &[0, 1], &donor);
            }

            // 5. Global convergence metrics. Only the final step's
            // values are reported, so the interior-residual scan (a full
            // stencil sweep per zone) runs only then; the allreduce
            // still happens every step, carrying the same byte count, so
            // virtual time is unchanged.
            let local_sq: f64 = if step + 1 == steps {
                (z_lo..z_hi)
                    .enumerate()
                    .map(|(local, zi)| {
                        zone_interior_sq(
                            &team,
                            &zones[local],
                            &forcing[local],
                            zi > 0,
                            zi + 1 < case.zones,
                        )
                    })
                    .sum()
            } else {
                0.0
            };
            let mut buf = vec![local_sq, mismatch_acc];
            rank.allreduce_sum_data(&mut buf).await;
            last = (buf[0].sqrt(), buf[1].sqrt());
        }
        if me == 0 {
            *out2.lock() = Some(last);
        }
        rank
        }
    })
    .unwrap_or_else(|e| panic!("OVERFLOW world failed: {e}"));

    let (final_residual, final_mismatch) = {
        let mut guard = out.lock();
        guard.take().expect("rank 0 stored the metrics")
    };
    OverflowMpiRuns {
        final_residual,
        final_mismatch,
        worlds: res,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overflow::OverflowSolver;
    use maia_arch::Device;
    use maia_interconnect::SoftwareStack;

    /// The distributed solver computes the same residual/mismatch
    /// trajectory as the shared-memory solver (the arithmetic per zone is
    /// identical; only global-sum association differs).
    #[test]
    fn distributed_matches_shared_memory() {
        let case = OverflowCase::small();
        let steps = 6;
        let mut shared = OverflowSolver::new(case.clone(), 2);
        let mut reference = (0.0, 0.0);
        for _ in 0..steps {
            reference = shared.step();
        }
        let spec = WorldSpec::all_on(Device::Host, 3);
        let dist = run_mpi(&case, steps, 2, &spec);
        assert!(
            (dist.final_residual - reference.0).abs() < 1e-9 * (1.0 + reference.0),
            "residual: dist {} vs shared {}",
            dist.final_residual,
            reference.0
        );
        assert!(
            (dist.final_mismatch - reference.1).abs() < 1e-9 * (1.0 + reference.1),
            "mismatch: dist {} vs shared {}",
            dist.final_mismatch,
            reference.1
        );
    }

    #[test]
    fn symmetric_layout_pays_pcie() {
        let case = OverflowCase {
            zone_n: 10,
            zones: 4,
        };
        let host = run_mpi(&case, 3, 1, &WorldSpec::all_on(Device::Host, 4));
        let sym = run_mpi(
            &case,
            3,
            1,
            &WorldSpec::symmetric(2, 1, SoftwareStack::PostUpdate),
        );
        assert!(
            sym.wall_s > host.wall_s,
            "symmetric {} vs host {}",
            sym.wall_s,
            host.wall_s
        );
        assert!(
            sym.comm_fraction > host.comm_fraction,
            "comm fraction: sym {} vs host {}",
            sym.comm_fraction,
            host.comm_fraction
        );
    }

    #[test]
    fn single_rank_degenerates_to_shared_memory() {
        let case = OverflowCase::small();
        let spec = WorldSpec::all_on(Device::Host, 1);
        let dist = run_mpi(&case, 4, 2, &spec);
        let mut shared = OverflowSolver::new(case, 2);
        let mut reference = (0.0, 0.0);
        for _ in 0..4 {
            reference = shared.step();
        }
        assert!((dist.final_residual - reference.0).abs() < 1e-12);
        assert!((dist.final_mismatch - reference.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one zone per rank")]
    fn too_many_ranks_rejected() {
        let case = OverflowCase {
            zone_n: 8,
            zones: 2,
        };
        let _ = run_mpi(&case, 1, 1, &WorldSpec::all_on(Device::Host, 4));
    }
}
