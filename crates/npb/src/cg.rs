//! CG — conjugate gradient.
//!
//! Estimates the smallest eigenvalue of a large sparse symmetric
//! positive-definite matrix by shifted inverse power iteration, with each
//! inverse solved approximately by 25 conjugate-gradient iterations —
//! the structure of NPB CG. The matrix is a randomly patterned symmetric
//! matrix made strictly diagonally dominant (hence SPD), built from the
//! same `Ranlc` stream as the reference generator.
//!
//! The sparse matrix–vector product uses *indirect addressing* — the very
//! access pattern whose gather/scatter cost cripples CG on the Phi
//! (paper Section 6.8.1).

use maia_omp::{Schedule, Team};

use crate::class::{cg_params, Class};
use crate::ep::Ranlc;

/// Compressed sparse row matrix.
#[derive(Debug, Clone)]
pub struct SparseMatrix {
    pub n: usize,
    pub row_ptr: Vec<usize>,
    pub col: Vec<u32>,
    pub val: Vec<f64>,
}

impl SparseMatrix {
    /// Nonzero count.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// y = A·x, work-shared over rows.
    pub fn spmv(&self, team: &Team, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        team.parallel_chunks(y, |start, chunk| {
            for (i, yi) in chunk.iter_mut().enumerate() {
                let row = start + i;
                let mut acc = 0.0;
                for k in self.row_ptr[row]..self.row_ptr[row + 1] {
                    acc += self.val[k] * x[self.col[k] as usize];
                }
                *yi = acc;
            }
        });
    }
}

/// Build a random symmetric strictly-diagonally-dominant matrix of order
/// `n` with about `nz_per_row` off-diagonal entries per row.
pub fn make_matrix(n: usize, nz_per_row: usize, seed: u64) -> SparseMatrix {
    assert!(n >= 2 && nz_per_row >= 1);
    let mut rng = Ranlc::new(seed);
    // Triplets (i, j, v) for the strictly-lower triangle; mirrored to
    // keep symmetry.
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::with_capacity(2 * nz_per_row + 1); n];
    for i in 0..n {
        for _ in 0..nz_per_row {
            let j = (rng.next_f64() * n as f64) as usize % n;
            if j == i {
                continue;
            }
            let v = rng.next_f64() - 0.5;
            rows[i].push((j as u32, v));
            rows[j].push((i as u32, v));
        }
    }
    // Diagonal = |row sum| + 1 ensures strict dominance.
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    row_ptr.push(0);
    for (i, entries) in rows.iter_mut().enumerate() {
        entries.sort_by_key(|&(j, _)| j);
        // Merge duplicate columns.
        let mut merged: Vec<(u32, f64)> = Vec::with_capacity(entries.len());
        for &(j, v) in entries.iter() {
            match merged.last_mut() {
                Some(last) if last.0 == j => last.1 += v,
                _ => merged.push((j, v)),
            }
        }
        let dom: f64 = merged.iter().map(|&(_, v)| v.abs()).sum::<f64>() + 1.0;
        // Insert the diagonal in sorted position.
        let mut inserted = false;
        for (j, v) in merged {
            if !inserted && j as usize > i {
                col.push(i as u32);
                val.push(dom);
                inserted = true;
            }
            col.push(j);
            val.push(v);
        }
        if !inserted {
            col.push(i as u32);
            val.push(dom);
        }
        row_ptr.push(col.len());
    }
    SparseMatrix {
        n,
        row_ptr,
        col,
        val,
    }
}

fn dot(team: &Team, a: &[f64], b: &[f64]) -> f64 {
    team.parallel_reduce(
        0..a.len(),
        Schedule::Static { chunk: 0 },
        0.0f64,
        |i, acc| *acc += a[i] * b[i],
        |x, y| x + y,
    )
}

/// Result of a CG run.
#[derive(Debug, Clone, PartialEq)]
pub struct CgResult {
    /// The eigenvalue estimate (NPB's `zeta`).
    pub zeta: f64,
    /// ‖r‖ of the final inner solve.
    pub final_rnorm: f64,
    /// zeta drift over the last outer iteration (convergence indicator).
    pub last_delta: f64,
}

/// One inner CG solve of `A z = x` (25 iterations, like NPB). Returns
/// ‖r‖ at exit; `z` holds the solution.
pub fn cg_solve(team: &Team, a: &SparseMatrix, x: &[f64], z: &mut [f64]) -> f64 {
    let n = a.n;
    let mut r = x.to_vec();
    let mut p = x.to_vec();
    for v in z.iter_mut() {
        *v = 0.0;
    }
    let mut rho = dot(team, &r, &r);
    let mut q = vec![0.0; n];
    for _ in 0..25 {
        a.spmv(team, &p, &mut q);
        let alpha = rho / dot(team, &p, &q);
        for i in 0..n {
            z[i] += alpha * p[i];
            r[i] -= alpha * q[i];
        }
        let rho_new = dot(team, &r, &r);
        let beta = rho_new / rho;
        rho = rho_new;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
    }
    rho.sqrt()
}

/// Run CG for a class's parameters on `threads` threads.
pub fn run(class: Class, threads: usize) -> CgResult {
    let (n, nz, niter, shift) = cg_params(class);
    run_custom(n, nz, niter, shift, threads)
}

/// Run with explicit parameters (used by tests at reduced sizes).
pub fn run_custom(
    n: usize,
    nz_per_row: usize,
    niter: usize,
    shift: f64,
    threads: usize,
) -> CgResult {
    let a = make_matrix(n, nz_per_row, crate::ep::SEED);
    let team = Team::new(threads);
    let mut x = vec![1.0f64; n];
    let mut z = vec![0.0f64; n];
    let mut zeta = 0.0;
    let mut last_delta = f64::INFINITY;
    let mut rnorm = 0.0;
    for _ in 0..niter {
        rnorm = cg_solve(&team, &a, &x, &mut z);
        let xz = dot(&team, &x, &z);
        let new_zeta = shift + 1.0 / xz;
        last_delta = (new_zeta - zeta).abs();
        zeta = new_zeta;
        // x = z / ||z||.
        let znorm = dot(&team, &z, &z).sqrt();
        for i in 0..n {
            x[i] = z[i] / znorm;
        }
    }
    CgResult {
        zeta,
        final_rnorm: rnorm,
        last_delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric_and_diagonally_dominant() {
        let a = make_matrix(200, 5, 7);
        // Dominance: |diag| > sum of |off-diag| per row.
        for i in 0..a.n {
            let mut diag = 0.0;
            let mut off = 0.0;
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                if a.col[k] as usize == i {
                    diag = a.val[k].abs();
                } else {
                    off += a.val[k].abs();
                }
            }
            assert!(diag > off, "row {i} not dominant: {diag} vs {off}");
        }
        // Symmetry: dense reconstruction (small n).
        let mut dense = vec![0.0; a.n * a.n];
        for i in 0..a.n {
            for k in a.row_ptr[i]..a.row_ptr[i + 1] {
                dense[i * a.n + a.col[k] as usize] = a.val[k];
            }
        }
        for i in 0..a.n {
            for j in 0..a.n {
                assert_eq!(dense[i * a.n + j], dense[j * a.n + i]);
            }
        }
    }

    #[test]
    fn inner_solve_reduces_residual() {
        let a = make_matrix(500, 6, 3);
        let team = Team::new(2);
        let x = vec![1.0; a.n];
        let mut z = vec![0.0; a.n];
        let rnorm = cg_solve(&team, &a, &x, &mut z);
        let initial = (a.n as f64).sqrt(); // ||x|| with x = ones
        assert!(
            rnorm < 1e-8 * initial,
            "CG barely converged: {rnorm} vs {initial}"
        );
        // And z actually solves A z ≈ x.
        let mut ax = vec![0.0; a.n];
        a.spmv(&team, &z, &mut ax);
        let err: f64 = ax
            .iter()
            .zip(&x)
            .map(|(p, q)| (p - q) * (p - q))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-8, "solve error {err}");
    }

    #[test]
    fn zeta_converges_and_matches_across_thread_counts() {
        let r1 = run_custom(700, 5, 10, 10.0, 1);
        let r4 = run_custom(700, 5, 10, 10.0, 4);
        // The outer power iteration's drift shrinks as iterations grow.
        let early = run_custom(700, 5, 5, 10.0, 1);
        let late = run_custom(700, 5, 40, 10.0, 1);
        assert!(
            late.last_delta < 0.05 * early.last_delta,
            "outer iteration not converging: {} -> {}",
            early.last_delta,
            late.last_delta
        );
        assert!(
            (r1.zeta - r4.zeta).abs() < 1e-8,
            "thread count changed zeta: {} vs {}",
            r1.zeta,
            r4.zeta
        );
        // Shift + positive 1/(x·z): zeta sits a couple of units above the
        // shift for this diagonally dominant spectrum.
        assert!(r1.zeta > 10.0 && r1.zeta < 13.0, "zeta {}", r1.zeta);
    }

    #[test]
    fn class_s_runs_end_to_end() {
        let r = run(Class::S, 4);
        assert!(r.zeta.is_finite());
        assert!(r.final_rnorm < 1e-6);
    }
}
