//! Cart3D proxy: an inviscid cell-centered finite-volume Euler solver on
//! a Cartesian mesh with cut cells, pure OpenMP (paper Section 3.7.2,
//! Figure 21).
//!
//! The solver is runnable: compressible Euler equations with a Rusanov
//! (local Lax–Friedrichs) flux, reflective walls on the domain boundary
//! and on blanked (body) cells, and explicit two-stage Runge–Kutta time
//! stepping over an *active-cell list* — the indirect indexing that makes
//! the real Cart3D gather-heavy and poorly vectorized, which the paper
//! identifies as the reason a Phi card reaches only half the host's
//! performance with its optimum at 4 threads/core.

use maia_arch::Faults;
use maia_modes::{KernelProfile, PerfModel};
use maia_omp::Team;

/// Ratio of specific heats.
pub const GAMMA: f64 = 1.4;
/// Conserved variables per cell.
pub const NCONS: usize = 5;

/// Problem definition: a box grid with an embedded spherical body.
#[derive(Debug, Clone)]
pub struct Cart3dCase {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Body radius as a fraction of the box edge (0 disables the body).
    pub body_radius: f64,
    /// Freestream Mach number.
    pub mach: f64,
    /// CFL-like time step (fraction of cell crossing time).
    pub cfl: f64,
    /// Domain boundary treatment: reflective walls (closed box) or
    /// far-field freestream (external aerodynamics, the Cart3D use case).
    pub farfield: bool,
}

impl Cart3dCase {
    /// A small wing-in-box style case for tests.
    pub fn small() -> Self {
        Cart3dCase {
            nx: 16,
            ny: 16,
            nz: 16,
            body_radius: 0.2,
            mach: 0.3,
            cfl: 0.3,
            farfield: false,
        }
    }

    /// The small case with far-field boundaries: steady external flow
    /// around the body exists, so convergence acceleration is measurable.
    pub fn small_farfield() -> Self {
        let mut c = Self::small();
        c.farfield = true;
        c
    }

    /// An OneraM6-like case (6M cells) for the figure model.
    pub fn onera_m6_like() -> Self {
        Cart3dCase {
            nx: 182,
            ny: 182,
            nz: 182,
            body_radius: 0.15,
            mach: 0.84,
            cfl: 0.5,
            farfield: true,
        }
    }

    /// Total cells in the bounding box.
    pub fn box_cells(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

/// The solver state.
pub struct Cart3dSolver {
    pub case: Cart3dCase,
    /// Conserved state per box cell (blanked cells hold freestream).
    pub u: Vec<[f64; NCONS]>,
    /// Flat indices of active (non-blanked) cells.
    pub active: Vec<u32>,
    /// Blanking mask.
    pub blanked: Vec<bool>,
    /// Extra per-active-cell source term added to the residual — the FAS
    /// multigrid forcing (`None` on the fine grid).
    forcing: Option<Vec<[f64; NCONS]>>,
    team: Team,
    dt: f64,
}

/// Freestream conserved state at a given Mach number (ρ=1, p=1/γ so that
/// the speed of sound is 1; velocity along +x).
pub fn freestream(mach: f64) -> [f64; NCONS] {
    let rho = 1.0;
    let u = mach;
    let p = 1.0 / GAMMA;
    let e = p / (GAMMA - 1.0) + 0.5 * rho * u * u;
    [rho, rho * u, 0.0, 0.0, e]
}

/// Pressure from a conserved state.
#[inline]
pub fn pressure(q: &[f64; NCONS]) -> f64 {
    let rho = q[0];
    let ke = (q[1] * q[1] + q[2] * q[2] + q[3] * q[3]) / (2.0 * rho);
    (GAMMA - 1.0) * (q[4] - ke)
}

/// Rusanov flux through a face with unit normal along axis `axis`,
/// oriented from `l` to `r`.
fn rusanov_flux(l: &[f64; NCONS], r: &[f64; NCONS], axis: usize) -> [f64; NCONS] {
    let phys = |q: &[f64; NCONS]| -> ([f64; NCONS], f64) {
        let rho = q[0];
        let vel = [q[1] / rho, q[2] / rho, q[3] / rho];
        let p = pressure(q);
        let vn = vel[axis];
        let mut f = [
            rho * vn,
            q[1] * vn,
            q[2] * vn,
            q[3] * vn,
            (q[4] + p) * vn,
        ];
        f[1 + axis] += p;
        let a = (GAMMA * p / rho).sqrt();
        (f, vn.abs() + a)
    };
    let (fl, sl) = phys(l);
    let (fr, sr) = phys(r);
    let s = sl.max(sr);
    let mut out = [0.0; NCONS];
    for m in 0..NCONS {
        out[m] = 0.5 * (fl[m] + fr[m]) - 0.5 * s * (r[m] - l[m]);
    }
    out
}

/// Wall (reflective) flux for the cell state `q` on a face with outward
/// normal along `axis` (sign `dir`): only the pressure term survives.
fn wall_flux(q: &[f64; NCONS], axis: usize, dir: f64) -> [f64; NCONS] {
    let p = pressure(q);
    let mut f = [0.0; NCONS];
    f[1 + axis] = dir * p;
    f
}

impl Cart3dSolver {
    /// Build the mesh, blank the body, and set freestream everywhere.
    pub fn new(case: Cart3dCase, threads: usize) -> Self {
        let n = case.box_cells();
        let fs = freestream(case.mach);
        let mut blanked = vec![false; n];
        let (cx, cy, cz) = (
            case.nx as f64 / 2.0,
            case.ny as f64 / 2.0,
            case.nz as f64 / 2.0,
        );
        let r = case.body_radius * case.nx as f64;
        let mut active = Vec::with_capacity(n);
        for k in 0..case.nz {
            for j in 0..case.ny {
                for i in 0..case.nx {
                    let idx = (k * case.ny + j) * case.nx + i;
                    let d2 = (i as f64 + 0.5 - cx).powi(2)
                        + (j as f64 + 0.5 - cy).powi(2)
                        + (k as f64 + 0.5 - cz).powi(2);
                    if d2 < r * r {
                        blanked[idx] = true;
                    } else {
                        active.push(idx as u32);
                    }
                }
            }
        }
        let dt = case.cfl / (1.0 + case.mach); // unit cells, sound speed 1
        Cart3dSolver {
            case,
            u: vec![fs; n],
            active,
            blanked,
            forcing: None,
            team: Team::new(threads),
            dt,
        }
    }

    /// Active cell count.
    pub fn active_cells(&self) -> usize {
        self.active.len()
    }

    fn neighbor(&self, idx: usize, axis: usize, dir: isize) -> Option<usize> {
        let (nx, ny, nz) = (self.case.nx, self.case.ny, self.case.nz);
        let i = idx % nx;
        let j = (idx / nx) % ny;
        let k = idx / (nx * ny);
        let (mut ii, mut jj, mut kk) = (i as isize, j as isize, k as isize);
        match axis {
            0 => ii += dir,
            1 => jj += dir,
            _ => kk += dir,
        }
        if ii < 0 || jj < 0 || kk < 0 || ii >= nx as isize || jj >= ny as isize || kk >= nz as isize
        {
            None
        } else {
            Some((kk as usize * ny + jj as usize) * nx + ii as usize)
        }
    }

    /// Residual (−divergence of flux) for every active cell: the
    /// gather-over-neighbors loop.
    fn residual(&self, out: &mut [[f64; NCONS]]) {
        let active = &self.active;
        let u = &self.u;
        let blanked = &self.blanked;
        self.team.parallel_chunks(out, |start, chunk| {
            for (off, res) in chunk.iter_mut().enumerate() {
                let idx = active[start + off] as usize;
                let q = &u[idx];
                let mut acc = [0.0; NCONS];
                for axis in 0..3 {
                    for (dir, sign) in [(1isize, 1.0f64), (-1, -1.0)] {
                        let f = match self.neighbor(idx, axis, dir) {
                            Some(nb) if !blanked[nb] => {
                                if dir > 0 {
                                    rusanov_flux(q, &u[nb], axis)
                                } else {
                                    rusanov_flux(&u[nb], q, axis)
                                }
                            }
                            // Body surface: always a reflective wall.
                            Some(_) => wall_flux(q, axis, sign),
                            // Domain edge: wall or far-field freestream.
                            None => {
                                if self.case.farfield {
                                    let fs = freestream(self.case.mach);
                                    if dir > 0 {
                                        rusanov_flux(q, &fs, axis)
                                    } else {
                                        rusanov_flux(&fs, q, axis)
                                    }
                                } else {
                                    wall_flux(q, axis, sign)
                                }
                            }
                        };
                        for m in 0..NCONS {
                            acc[m] -= sign * f[m];
                        }
                    }
                }
                if let Some(forcing) = &self.forcing {
                    for m in 0..NCONS {
                        acc[m] += forcing[start + off][m];
                    }
                }
                *res = acc;
            }
        });
    }

    /// Current residual L2 norm over active cells (no state change).
    pub fn residual_norm(&self) -> f64 {
        let mut r = vec![[0.0; NCONS]; self.active.len()];
        self.residual(&mut r);
        r.iter()
            .flat_map(|v| v.iter())
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt()
    }

    /// Advance one two-stage Runge–Kutta step; returns the residual L2
    /// norm (computed in a fixed order, so runs are thread-invariant).
    pub fn step(&mut self) -> f64 {
        let n_act = self.active.len();
        let mut r = vec![[0.0; NCONS]; n_act];

        // Stage 1: u* = u + dt·R(u).
        self.residual(&mut r);
        let u0: Vec<[f64; NCONS]> = self.active.iter().map(|&a| self.u[a as usize]).collect();
        for (c, &a) in self.active.iter().enumerate() {
            for (um, &rv) in self.u[a as usize].iter_mut().zip(&r[c]) {
                *um += self.dt * rv;
            }
        }
        // Stage 2: u = (u0 + u* + dt·R(u*)) / 2.
        let mut r2 = vec![[0.0; NCONS]; n_act];
        self.residual(&mut r2);
        for (c, &a) in self.active.iter().enumerate() {
            let idx = a as usize;
            for m in 0..NCONS {
                self.u[idx][m] = 0.5 * (u0[c][m] + self.u[idx][m] + self.dt * r2[c][m]);
            }
        }

        r.iter()
            .flat_map(|v| v.iter())
            .map(|x| x * x)
            .sum::<f64>()
            .sqrt()
    }

    /// One FAS (full approximation scheme) two-level multigrid cycle —
    /// the "multi-grid accelerated Runge–Kutta" of the paper's Cart3D
    /// description: `pre` fine RK smoothing steps, a coarse-grid
    /// correction solve of `coarse_steps` RK steps on the FAS-forced
    /// equation, damped prolongation of the correction, and `post` fine
    /// steps. Returns the fine residual norm afterwards.
    ///
    /// # Panics
    /// Panics unless the grid dimensions are even.
    pub fn fas_cycle(&mut self, pre: usize, coarse_steps: usize, post: usize) -> f64 {
        assert!(
            self.case.nx.is_multiple_of(2) && self.case.ny.is_multiple_of(2) && self.case.nz.is_multiple_of(2),
            "FAS coarsening needs even grid dimensions"
        );
        for _ in 0..pre {
            self.step();
        }
        // Fine residual.
        let mut r_f = vec![[0.0; NCONS]; self.active.len()];
        self.residual(&mut r_f);
        // Scatter to box layout for restriction.
        let mut r_box = vec![[0.0; NCONS]; self.case.box_cells()];
        for (c, &a) in self.active.iter().enumerate() {
            r_box[a as usize] = r_f[c];
        }

        // Coarse solver: same geometry at half resolution.
        let mut coarse_case = self.case.clone();
        coarse_case.nx /= 2;
        coarse_case.ny /= 2;
        coarse_case.nz /= 2;
        let mut coarse = Cart3dSolver::new(coarse_case, self.team.num_threads());

        // Restrict the fine state (8-child average over unblanked
        // children) and the fine residual (child average, scaled by 2 for
        // the doubled mesh spacing).
        let (fnx, fny) = (self.case.nx, self.case.ny);
        let (cnx, cny) = (coarse.case.nx, coarse.case.ny);
        let coarse_active = coarse.active.clone();
        let mut u_c0 = Vec::with_capacity(coarse_active.len());
        let mut r_restricted = Vec::with_capacity(coarse_active.len());
        for &ca in &coarse_active {
            let ca = ca as usize;
            let (ci, cj, ck) = (ca % cnx, (ca / cnx) % cny, ca / (cnx * cny));
            let mut su = [0.0; NCONS];
            let mut sr = [0.0; NCONS];
            let mut live = 0.0;
            for dk in 0..2 {
                for dj in 0..2 {
                    for di in 0..2 {
                        let fi = ((2 * ck + dk) * fny + (2 * cj + dj)) * fnx + (2 * ci + di);
                        if !self.blanked[fi] {
                            live += 1.0;
                            for m in 0..NCONS {
                                su[m] += self.u[fi][m];
                                sr[m] += r_box[fi][m];
                            }
                        }
                    }
                }
            }
            if live == 0.0 {
                su = freestream(self.case.mach);
            } else {
                for m in 0..NCONS {
                    su[m] /= live;
                    sr[m] *= 2.0 / live;
                }
            }
            u_c0.push(su);
            r_restricted.push(sr);
        }
        for (slot, &ca) in coarse_active.iter().enumerate() {
            coarse.u[ca as usize] = u_c0[slot];
        }
        // FAS forcing: du/dt = N_c(u) - (N_c(u_c0) - R r_f).
        let mut n_c0 = vec![[0.0; NCONS]; coarse_active.len()];
        coarse.residual(&mut n_c0);
        let forcing: Vec<[f64; NCONS]> = n_c0
            .iter()
            .zip(&r_restricted)
            .map(|(nc, rr)| {
                let mut t = [0.0; NCONS];
                for m in 0..NCONS {
                    t[m] = rr[m] - nc[m];
                }
                t
            })
            .collect();
        coarse.forcing = Some(forcing);
        for _ in 0..coarse_steps {
            coarse.step();
        }

        // Damped injection of the coarse correction.
        const DAMP: f64 = 0.6;
        for (slot, &ca) in coarse_active.iter().enumerate() {
            let ca = ca as usize;
            let (ci, cj, ck) = (ca % cnx, (ca / cnx) % cny, ca / (cnx * cny));
            let mut corr = [0.0; NCONS];
            for m in 0..NCONS {
                corr[m] = DAMP * (coarse.u[ca][m] - u_c0[slot][m]);
            }
            for dk in 0..2 {
                for dj in 0..2 {
                    for di in 0..2 {
                        let fi = ((2 * ck + dk) * fny + (2 * cj + dj)) * fnx + (2 * ci + di);
                        if !self.blanked[fi] {
                            for (um, &cv) in self.u[fi].iter_mut().zip(&corr) {
                                *um += cv;
                            }
                        }
                    }
                }
            }
        }

        for _ in 0..post {
            self.step();
        }
        self.residual_norm()
    }

    /// Total mass over active cells (conserved by the scheme: walls pass
    /// no mass flux).
    pub fn total_mass(&self) -> f64 {
        self.active.iter().map(|&a| self.u[a as usize][0]).sum()
    }

    /// Minimum density (positivity check).
    pub fn min_density(&self) -> f64 {
        self.active
            .iter()
            .map(|&a| self.u[a as usize][0])
            .fold(f64::INFINITY, f64::min)
    }
}

/// The OneraM6 Class workload profile for the figure model: barely
/// vectorized, heavily gather-indexed, moderate traffic.
pub fn cart3d_profile() -> KernelProfile {
    let cells = 6.0e6;
    let flops = cells * 1500.0; // per multigrid cycle
    KernelProfile {
        name: "cart3d-oneram6".into(),
        flops,
        dram_bytes: flops * 1.5,
        // "Cart3D is not heavily vectorized."
        vector_fraction: 0.15,
        // Cut-cell and face gathers dominate the vector work.
        gather_fraction: 0.45,
        parallel_fraction: 0.999,
        parallel_extent: None,
        phi_traffic_multiplier: 1.5,
    }
}

/// One Figure 21 data point: performance (cycles/second, scaled to the
/// host-16T baseline = 1.0) at a thread count on a device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig21Point {
    pub device_label: &'static str,
    pub threads: u32,
    pub relative_perf: f64,
}

/// The Figure 21 series: host at 16 threads, Phi at 59/118/177/236, on
/// the machine `faults` describes.
pub fn fig21_series(faults: &Faults) -> Vec<Fig21Point> {
    let k = cart3d_profile();
    let host = PerfModel::host();
    let phi = PerfModel::phi(faults);
    let base = 1.0 / host.unit_time_s(&k, 16);
    let mut out = vec![Fig21Point {
        device_label: "host",
        threads: 16,
        relative_perf: 1.0,
    }];
    for t in [59u32, 118, 177, 236] {
        out.push(Fig21Point {
            device_label: "phi0",
            threads: t,
            relative_perf: (1.0 / phi.unit_time_s(&k, t)) / base,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freestream_is_preserved_without_a_body() {
        let mut case = Cart3dCase::small();
        case.body_radius = 0.0;
        let mut s = Cart3dSolver::new(case, 4);
        let mass0 = s.total_mass();
        for _ in 0..5 {
            let r = s.step();
            // Uniform flow in a closed box is NOT steady (walls reflect),
            // but interior fluxes must cancel; residual comes only from
            // the walls. Just require stability and conservation here.
            assert!(r.is_finite());
        }
        assert!((s.total_mass() - mass0).abs() < 1e-9 * mass0);
        assert!(s.min_density() > 0.5);
    }

    #[test]
    fn mass_is_conserved_with_a_body() {
        let mut s = Cart3dSolver::new(Cart3dCase::small(), 4);
        let mass0 = s.total_mass();
        for _ in 0..10 {
            s.step();
        }
        assert!(
            (s.total_mass() - mass0).abs() < 1e-9 * mass0,
            "mass drifted: {} -> {}",
            mass0,
            s.total_mass()
        );
        assert!(s.min_density() > 0.1, "density {}", s.min_density());
    }

    #[test]
    fn body_blanks_cells() {
        let s = Cart3dSolver::new(Cart3dCase::small(), 2);
        let blanked = s.case.box_cells() - s.active_cells();
        // A radius-0.2 sphere in a unit box blanks ~3.3% of cells.
        assert!(blanked > 50 && blanked < 500, "blanked {blanked}");
    }

    #[test]
    fn thread_count_invariance() {
        let run = |threads| {
            let mut s = Cart3dSolver::new(Cart3dCase::small(), threads);
            let mut last = 0.0;
            for _ in 0..3 {
                last = s.step();
            }
            (last, s.total_mass())
        };
        let a = run(1);
        let b = run(6);
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
    }

    #[test]
    fn farfield_flow_converges_toward_steady_state() {
        let mut s = Cart3dSolver::new(Cart3dCase::small_farfield(), 4);
        let r0 = s.step();
        let mut last = r0;
        for _ in 0..60 {
            last = s.step();
        }
        assert!(last < 0.8 * r0, "no convergence: {r0} -> {last}");
        assert!(s.min_density() > 0.1);
    }

    #[test]
    fn fas_multigrid_accelerates_convergence() {
        // Same fine-step budget: the FAS cycles must reach a lower
        // residual than plain RK marching ("multi-grid accelerated
        // Runge-Kutta", paper Section 3.7.2).
        let case = Cart3dCase::small_farfield();
        let mut plain = Cart3dSolver::new(case.clone(), 4);
        for _ in 0..40 {
            plain.step();
        }
        let plain_r = plain.residual_norm();
        let mut mg = Cart3dSolver::new(case, 4);
        for _ in 0..4 {
            mg.fas_cycle(5, 10, 5);
        }
        let mg_r = mg.residual_norm();
        assert!(
            mg_r < 0.75 * plain_r,
            "FAS did not accelerate: {mg_r} vs plain {plain_r}"
        );
        assert!(mg.min_density() > 0.1, "FAS destabilized the flow");
    }

    #[test]
    fn fas_is_thread_count_invariant() {
        let run = |threads| {
            let mut s = Cart3dSolver::new(Cart3dCase::small_farfield(), threads);
            s.fas_cycle(2, 4, 2)
        };
        assert_eq!(run(1).to_bits(), run(5).to_bits());
    }

    #[test]
    #[should_panic(expected = "even grid")]
    fn fas_rejects_odd_grids() {
        let mut case = Cart3dCase::small_farfield();
        case.nx = 15;
        let mut s = Cart3dSolver::new(case, 2);
        let _ = s.fas_cycle(1, 1, 1);
    }

    #[test]
    fn figure21_host_twice_best_phi() {
        let series = fig21_series(&Faults::default());
        let best_phi = series
            .iter()
            .filter(|p| p.device_label == "phi0")
            .map(|p| p.relative_perf)
            .fold(0.0f64, f64::max);
        let ratio = 1.0 / best_phi;
        assert!(
            (1.6..2.6).contains(&ratio),
            "host should be ~2x best Phi, got {ratio}"
        );
    }

    #[test]
    fn figure21_phi_peaks_at_4_threads_per_core() {
        let series = fig21_series(&Faults::default());
        let phi: Vec<&Fig21Point> = series.iter().filter(|p| p.device_label == "phi0").collect();
        // Monotone increasing through 236 threads: 4/core is optimal,
        // "unlike the NPBs where 3 is generally the best value".
        for w in phi.windows(2) {
            assert!(
                w[1].relative_perf > w[0].relative_perf,
                "Cart3D should keep speeding up to 236 threads: {:?}",
                phi
            );
        }
    }
}
