//! OVERFLOW proxy: a multi-zone overset-grid implicit solver in hybrid
//! MPI+OpenMP (paper Sections 3.7.1, 6.9.1.2, 6.9.1.3).
//!
//! **Runnable solver.** A chain of cubic zones overlapping by two planes
//! (the Chimera pattern): each time step performs scalar-pentadiagonal
//! ADI sweeps per zone (the same factorization as NPB SP, OVERFLOW's
//! closest kernel relative) and then exchanges donor planes across the
//! overlaps. Convergence is measured both by per-zone residuals and by
//! the interface mismatch, the overset-specific quantity.
//!
//! **Figure model.** Calibrated (I ranks × J threads) step-time model for
//! the DLRF6 cases: on the host, MPI-heavy layouts win (OpenMP loop
//! threading pays NUMA and serial-section costs), while on the Phi,
//! OpenMP-heavy layouts win (each extra MPI rank taxes the card's memory
//! and progress engines) — reproducing Figure 22's "best 16×1 on host,
//! best 8×28 on Phi" and Figure 23's symmetric-mode outcomes.

use maia_arch::{Device, Faults};
use maia_interconnect::SoftwareStack;
use maia_modes::{KernelProfile, PerfModel, SymmetricLayout};
use maia_mpi::transport::intra_device_params;
use maia_npb::flow::{add_assign, residual, State5, NVAR};
use maia_npb::sp::{penta_coeffs, solve_penta};
use maia_omp::Team;

/// Runnable problem definition.
#[derive(Debug, Clone)]
pub struct OverflowCase {
    /// Zone edge (each zone is `zone_n³`).
    pub zone_n: usize,
    /// Zones chained along x with 2-plane overlaps.
    pub zones: usize,
}

impl OverflowCase {
    /// A small case for tests.
    pub fn small() -> Self {
        OverflowCase {
            zone_n: 12,
            zones: 3,
        }
    }
}

/// The multi-zone solver.
pub struct OverflowSolver {
    pub case: OverflowCase,
    pub zones: Vec<State5>,
    forcing: Vec<State5>,
    team: Team,
}

/// Global forcing for zone `zi`: smooth over the *composite* domain so
/// that adjacent zones solve one consistent problem.
pub(crate) fn zone_forcing(case: &OverflowCase, zi: usize) -> State5 {
    let n = case.zone_n;
    // Zones overlap by four planes (two donor planes at each end), so
    // consecutive zone origins are n-4 apart in the composite domain.
    let total_x = (case.zones * (n - 4) + 4) as f64;
    let mut f = State5::zeros(n);
    let h = 1.0 / (n - 1) as f64;
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                let xg = (zi * (n - 4) + i) as f64 / total_x;
                let (y, z) = (j as f64 * h, k as f64 * h);
                let shape = xg * (1.0 - xg) * y * (1.0 - y) * z * (1.0 - z);
                for m in 0..NVAR {
                    let idx = f.idx(i, j, k, m);
                    f.data[idx] = shape * (1.0 + m as f64 * 0.3);
                }
            }
        }
    }
    f
}

/// Pseudo-time step (matches the SP proxy).
const TAU: f64 = 0.8;

impl OverflowSolver {
    /// Build the zone chain.
    pub fn new(case: OverflowCase, threads: usize) -> Self {
        assert!(case.zones >= 1 && case.zone_n >= 8);
        let zones = (0..case.zones).map(|_| State5::zeros(case.zone_n)).collect();
        let forcing = (0..case.zones).map(|zi| zone_forcing(&case, zi)).collect();
        OverflowSolver {
            case,
            zones,
            forcing,
            team: Team::new(threads),
        }
    }

    fn adi_update(&mut self, zi: usize) {
        let lo_frozen = zi > 0;
        let hi_frozen = zi + 1 < self.case.zones;
        adi_zone(
            &self.team,
            &mut self.zones[zi],
            &self.forcing[zi],
            lo_frozen,
            hi_frozen,
        );
    }

    /// Mismatch across all overlaps (before donor exchange): the overset
    /// convergence metric.
    pub fn interface_mismatch(&self) -> f64 {
        let mut acc = 0.0;
        for z in 0..self.case.zones.saturating_sub(1) {
            // Right zone's plane 1 should equal left zone's plane n-3
            // (they represent the same physical plane).
            let right_plane1 = extract_planes(&self.zones[z + 1], &[1]);
            acc += mismatch_sq(&self.zones[z], &right_plane1);
        }
        acc.sqrt()
    }

    /// Donor-plane exchange: each zone's overlap planes are overwritten
    /// by its neighbor's interior.
    pub fn chimera_exchange(&mut self) {
        for z in 0..self.case.zones.saturating_sub(1) {
            let donor_right = extract_planes(&self.zones[z], &[self.case.zone_n - 4, self.case.zone_n - 3]);
            let donor_left = extract_planes(&self.zones[z + 1], &[2, 3]);
            apply_planes(&mut self.zones[z + 1], &[0, 1], &donor_right);
            let n = self.case.zone_n;
            apply_planes(&mut self.zones[z], &[n - 2, n - 1], &donor_left);
        }
    }

    /// Residual norm over the cells each zone truly owns — overlap planes
    /// act as donor-imposed boundary conditions, so they are excluded
    /// (measuring them would charge the interface data against the
    /// zone-local operator).
    pub fn interior_residual(&self) -> f64 {
        let mut acc = 0.0;
        for zi in 0..self.case.zones {
            acc += zone_interior_sq(
                &self.team,
                &self.zones[zi],
                &self.forcing[zi],
                zi > 0,
                zi + 1 < self.case.zones,
            );
        }
        acc.sqrt()
    }

    /// One time step over all zones; returns (interior residual norm,
    /// interface mismatch before the exchange).
    pub fn step(&mut self) -> (f64, f64) {
        for zi in 0..self.case.zones {
            self.adi_update(zi);
        }
        let mismatch = self.interface_mismatch();
        self.chimera_exchange();
        (self.interior_residual(), mismatch)
    }
}

/// Flatten the given x-planes of a zone into a contiguous buffer
/// (the payload of a Chimera donor message).
pub fn extract_planes(zone: &State5, planes: &[usize]) -> Vec<f64> {
    let n = zone.n;
    let mut out = Vec::with_capacity(planes.len() * n * n * NVAR);
    for &i in planes {
        for k in 0..n {
            for j in 0..n {
                for m in 0..NVAR {
                    out.push(zone.data[zone.idx(i, j, k, m)]);
                }
            }
        }
    }
    out
}

/// Inverse of [`extract_planes`]: write a donor buffer into the given
/// x-planes.
///
/// # Panics
/// Panics if the buffer length does not match the plane count.
pub fn apply_planes(zone: &mut State5, planes: &[usize], data: &[f64]) {
    let n = zone.n;
    assert_eq!(data.len(), planes.len() * n * n * NVAR, "donor buffer size");
    let mut it = data.iter();
    for &i in planes {
        for k in 0..n {
            for j in 0..n {
                for m in 0..NVAR {
                    let idx = zone.idx(i, j, k, m);
                    zone.data[idx] = *it.next().expect("sized above");
                }
            }
        }
    }
}

/// One implicit ADI update of a single zone: RHS evaluation, the three
/// factored pentadiagonal sweeps, donor-plane freezing, and the state
/// update. Shared by the threaded solver and the distributed-MPI runner.
pub(crate) fn adi_zone(
    team: &Team,
    zone: &mut State5,
    forcing: &State5,
    lo_frozen: bool,
    hi_frozen: bool,
) {
    let n = zone.n;
    let mut r = State5::zeros(n);
    residual(team, zone, forcing, &mut r);
    team.parallel_chunks(&mut r.data, |_s, chunk| {
        for v in chunk.iter_mut() {
            *v *= TAU;
        }
    });
    let coeffs = penta_coeffs();
    let sweep = |team: &Team, s: &mut State5| {
        maia_npb::flow::for_each_line(team, s, |line| {
            // One scratch buffer per worker thread, not per line.
            thread_local! {
                static SCRATCH: std::cell::RefCell<Vec<f64>> =
                    const { std::cell::RefCell::new(Vec::new()) };
            }
            SCRATCH.with(|cell| {
                let mut scratch = cell.borrow_mut();
                scratch.resize(n, 0.0);
                for m in 0..NVAR {
                    for i in 0..n {
                        scratch[i] = line[i * NVAR + m];
                    }
                    solve_penta(coeffs, &mut scratch);
                    for i in 0..n {
                        line[i * NVAR + m] = scratch[i];
                    }
                }
            });
        });
    };
    sweep(team, &mut r);
    let mut rr = r.rotate(team);
    sweep(team, &mut rr);
    let mut rrr = rr.rotate(team);
    sweep(team, &mut rrr);
    r = rrr.rotate(team);
    // Donor planes are boundary conditions: freeze them (the Chimera
    // exchange owns their values).
    if lo_frozen || hi_frozen {
        for k in 0..n {
            for j in 0..n {
                for m in 0..NVAR {
                    if lo_frozen {
                        let i0 = r.idx(0, j, k, m);
                        let i1 = r.idx(1, j, k, m);
                        r.data[i0] = 0.0;
                        r.data[i1] = 0.0;
                    }
                    if hi_frozen {
                        let i0 = r.idx(n - 2, j, k, m);
                        let i1 = r.idx(n - 1, j, k, m);
                        r.data[i0] = 0.0;
                        r.data[i1] = 0.0;
                    }
                }
            }
        }
    }
    add_assign(team, zone, &r);
}

/// Sum of squared differences between a left zone's plane `n-3` and the
/// right neighbor's plane 1 (delivered as a flat buffer) — one overlap's
/// mismatch contribution.
pub(crate) fn mismatch_sq(left: &State5, right_plane1: &[f64]) -> f64 {
    let n = left.n;
    let mine = extract_planes(left, &[n - 3]);
    assert_eq!(mine.len(), right_plane1.len(), "plane buffer size");
    mine.iter()
        .zip(right_plane1)
        .map(|(a, b)| (a - b) * (a - b))
        .sum()
}

/// Sum of squared interior residuals of one zone, excluding donor planes
/// on the trimmed sides.
pub(crate) fn zone_interior_sq(
    team: &Team,
    zone: &State5,
    forcing: &State5,
    trim_lo: bool,
    trim_hi: bool,
) -> f64 {
    let n = zone.n;
    let mut r = State5::zeros(n);
    residual(team, zone, forcing, &mut r);
    let lo = if trim_lo { 2 } else { 0 };
    let hi = if trim_hi { n - 2 } else { n };
    let mut acc = 0.0;
    for k in 0..n {
        for j in 0..n {
            for i in lo..hi {
                for m in 0..NVAR {
                    let v = r.data[r.idx(i, j, k, m)];
                    acc += v * v;
                }
            }
        }
    }
    acc
}

// ---------------------------------------------------------------------
// Figure models
// ---------------------------------------------------------------------

/// The OVERFLOW workload profile for a grid of `points` vertices
/// (10.8e6 for DLRF6-Medium, 35.9e6 for DLRF6-Large).
pub fn overflow_profile(points: f64) -> KernelProfile {
    let flops = points * 2000.0; // per time step
    KernelProfile {
        name: format!("overflow-{:.1}M", points / 1e6),
        flops,
        dram_bytes: flops * 3.0, // implicit sweeps stream the big arrays
        vector_fraction: 0.85,
        // Overset interpolation + implicit solves index indirectly.
        gather_fraction: 0.35,
        parallel_fraction: 0.9995,
        parallel_extent: None,
        phi_traffic_multiplier: 1.3,
    }
}

/// One Figure 22 layout measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayoutPoint {
    pub device: Device,
    pub ranks: u32,
    pub threads_per_rank: u32,
    pub seconds_per_step: f64,
}

/// Step time of the DLRF6-Medium case under an (I × J) layout, on the
/// machine `faults` describes.
pub fn step_time_s(device: Device, ranks: u32, threads_per_rank: u32, faults: &Faults) -> f64 {
    assert!(ranks >= 1 && threads_per_rank >= 1);
    let k = overflow_profile(10.8e6);
    let total = ranks * threads_per_rank;
    let model = match device {
        Device::Host => PerfModel::host(),
        _ => PerfModel::phi(faults),
    };
    let mut compute = model.unit_time_s(&k, total);

    match device {
        Device::Host => {
            // Loop-level OpenMP pays serial sections and, past one socket,
            // NUMA traffic; MPI ranks are nearly free over shared memory.
            compute *= 1.0 + 0.04 * (threads_per_rank as f64 - 1.0);
            compute *= 1.0 + 0.001 * (ranks as f64 - 1.0);
            if threads_per_rank > 8 {
                compute *= 1.2;
            }
        }
        _ => {
            // OpenMP threading is cheap on the card; every extra MPI rank
            // costs library memory and progress-engine interference.
            compute *= 1.0 + 0.003 * (threads_per_rank as f64 - 1.0);
            compute *= 1.0 + 0.012 * (ranks as f64 - 1.0);
        }
    }

    // Halo exchange: two neighbors per rank, one zone face each.
    let face_bytes = (10.8e6 / 23.0_f64).powf(2.0 / 3.0) * 5.0 * 8.0;
    let tpc = match device {
        Device::Host => 1 + (total > 16) as u32,
        _ => total.div_ceil(59).min(4),
    };
    let (lat_us, bw_gbs) = intra_device_params(device, tpc);
    let halo = 2.0 * (lat_us * 1e-6 + face_bytes / (bw_gbs * 1e9));
    compute + halo
}

/// The Figure 22 sweep: host and Phi (I × J) layouts, on the machine
/// `faults` describes.
pub fn fig22_series(faults: &Faults) -> Vec<LayoutPoint> {
    let mut out = Vec::new();
    for (i, j) in [(16u32, 1u32), (8, 2), (4, 4), (2, 8), (1, 16)] {
        out.push(LayoutPoint {
            device: Device::Host,
            ranks: i,
            threads_per_rank: j,
            seconds_per_step: step_time_s(Device::Host, i, j, faults),
        });
    }
    for (i, j) in [(4u32, 14u32), (8, 14), (16, 14), (4, 28), (8, 28)] {
        out.push(LayoutPoint {
            device: Device::Phi0,
            ranks: i,
            threads_per_rank: j,
            seconds_per_step: step_time_s(Device::Phi0, i, j, faults),
        });
    }
    out
}

/// One Figure 23 point: symmetric-mode DLRF6-Large step time under both
/// software stacks and the post-update gain.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig23Point {
    pub host_ranks: u32,
    pub phi_ranks: u32,
    pub phi_threads: u32,
    pub pre_s: f64,
    pub post_s: f64,
    pub gain_percent: f64,
}

/// The Figure 23 sweep over symmetric layouts, on the machine `faults`
/// describes.
pub fn fig23_series(faults: &Faults) -> Vec<Fig23Point> {
    let k = overflow_profile(35.9e6);
    // DLRF6-Large solution field is ~2 GB over 23 zones; a face exchange
    // per step moves tens of MB across PCIe.
    let halo: u64 = 24 << 20;
    let mut out = Vec::new();
    for (phi_ranks, phi_threads) in [(4u32, 14u32), (8, 14), (4, 28), (8, 28)] {
        let mk = |stack| SymmetricLayout {
            host_ranks: 16,
            host_threads_per_rank: 1,
            phi_ranks,
            phi_threads_per_rank: phi_threads,
            stack,
            imbalance: 0.25,
        };
        let pre = mk(SoftwareStack::PreUpdate).step(&k, halo, faults).step_s;
        let post = mk(SoftwareStack::PostUpdate).step(&k, halo, faults).step_s;
        out.push(Fig23Point {
            host_ranks: 16,
            phi_ranks,
            phi_threads,
            pre_s: pre,
            post_s: post,
            gain_percent: (pre / post - 1.0) * 100.0,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zones_converge_and_interfaces_match_up() {
        let mut s = OverflowSolver::new(OverflowCase::small(), 4);
        let (r0, m0) = s.step();
        let mut last = (r0, m0);
        for _ in 0..20 {
            last = s.step();
        }
        assert!(
            last.0 < 0.2 * r0,
            "zone residuals failed to converge: {r0} -> {}",
            last.0
        );
        assert!(
            last.1 < 0.5 * m0.max(1e-30) || last.1 < 1e-6,
            "interface mismatch failed to shrink: {m0} -> {}",
            last.1
        );
    }

    #[test]
    fn thread_count_invariance() {
        let run = |threads| {
            let mut s = OverflowSolver::new(OverflowCase::small(), threads);
            let mut last = (0.0, 0.0);
            for _ in 0..4 {
                last = s.step();
            }
            last
        };
        let a = run(1);
        let b = run(5);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }

    #[test]
    fn figure22_host_best_is_pure_mpi() {
        let pts = fig22_series(&Faults::default());
        let host: Vec<&LayoutPoint> =
            pts.iter().filter(|p| p.device == Device::Host).collect();
        let best = host
            .iter()
            .min_by(|a, b| a.seconds_per_step.total_cmp(&b.seconds_per_step))
            .unwrap();
        let worst = host
            .iter()
            .max_by(|a, b| a.seconds_per_step.total_cmp(&b.seconds_per_step))
            .unwrap();
        assert_eq!((best.ranks, best.threads_per_rank), (16, 1), "host best");
        assert_eq!((worst.ranks, worst.threads_per_rank), (1, 16), "host worst");
    }

    #[test]
    fn figure22_phi_best_is_8x28() {
        let pts = fig22_series(&Faults::default());
        let phi: Vec<&LayoutPoint> =
            pts.iter().filter(|p| p.device == Device::Phi0).collect();
        let best = phi
            .iter()
            .min_by(|a, b| a.seconds_per_step.total_cmp(&b.seconds_per_step))
            .unwrap();
        assert_eq!((best.ranks, best.threads_per_rank), (8, 28), "phi best");
        let worst = phi
            .iter()
            .max_by(|a, b| a.seconds_per_step.total_cmp(&b.seconds_per_step))
            .unwrap();
        assert_eq!((worst.ranks, worst.threads_per_rank), (4, 14), "phi worst");
    }

    #[test]
    fn figure22_host_best_beats_phi_best_by_about_1_8() {
        let pts = fig22_series(&Faults::default());
        let best = |d: Device| {
            pts.iter()
                .filter(|p| p.device == d)
                .map(|p| p.seconds_per_step)
                .fold(f64::INFINITY, f64::min)
        };
        let factor = best(Device::Phi0) / best(Device::Host);
        assert!(
            (1.5..2.2).contains(&factor),
            "paper says host best = 1.8x phi best; got {factor}"
        );
    }

    #[test]
    fn figure23_gains_and_best_layout() {
        let series = fig23_series(&Faults::default());
        for p in &series {
            assert!(
                (1.0..32.0).contains(&p.gain_percent),
                "update gain {}% outside the paper's 2-28% band for {}x{}",
                p.gain_percent,
                p.phi_ranks,
                p.phi_threads
            );
            assert!(p.post_s < p.pre_s);
        }
        // Best symmetric layout is 8 ranks x 28 threads per Phi.
        let best = series
            .iter()
            .min_by(|a, b| a.post_s.total_cmp(&b.post_s))
            .unwrap();
        assert_eq!((best.phi_ranks, best.phi_threads), (8, 28));
    }

    #[test]
    fn figure23_symmetric_beats_native_host() {
        let k = overflow_profile(35.9e6);
        let layout = SymmetricLayout {
            host_ranks: 16,
            host_threads_per_rank: 1,
            phi_ranks: 8,
            phi_threads_per_rank: 28,
            stack: SoftwareStack::PostUpdate,
            imbalance: 0.25,
        };
        let sym = layout.step(&k, 24 << 20, &Faults::default()).step_s;
        let native = layout.native_host_step(&k);
        let boost = native / sym;
        assert!(
            (1.6..2.2).contains(&boost),
            "paper reports a 1.9x boost; got {boost}"
        );
        // ...but two hosts over InfiniBand are still faster.
        assert!(layout.two_host_step(&k, 24 << 20) < sym);
    }
}
