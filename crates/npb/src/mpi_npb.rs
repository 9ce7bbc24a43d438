//! Distributed-memory NPB variants running over the simulated MPI.
//!
//! These are the "MPI versions" of the paper's Figure 20: real
//! decomposed algorithms whose messages carry actual data through
//! `maia-mpi`'s payload API, so the numerics are verifiable against the
//! shared-memory kernels while the discrete-event engine accounts the
//! communication time on the modeled fabric (host shared memory, Phi
//! ring, or PCIe in symmetric layouts).
//!
//! Each kernel is one implementation over a list of layouts
//! (`*_layouts`): the numerics run once, live on the first layout, and
//! every other layout's virtual time is evaluated from the recorded
//! messages and compute phases, with no payloads and no engine
//! ([`MpiWorld::run_layouts`]), bit-identical to a live run of it. The
//! live run of two or more layouts is timeless: each rank keeps its own
//! clock and the engine only orders its messages. The rank programs
//! never ask where they run or what time it is (compute is priced by
//! [`maia_mpi::Rank::compute_flops`]), so the result is the same on every
//! layout. Only while a probe observes engines does every layout run
//! live and timed, numerics included. The single-layout functions are
//! one-line wrappers.
//!
//! * [`ep_mpi_layouts`] — batch distribution + allreduce of the
//!   sums/counts.
//! * [`cg_mpi_layouts`] — row-block SpMV with replicated vectors
//!   (allgather per iteration, allreduce for dot products), NPB CG's
//!   communication pattern. The allgather lands each block straight in
//!   the rank's replicated vector, and each row sums in CSR order.
//! * [`ft_mpi_layouts`] — slab-decomposed 3D FFT: local x/y transforms,
//!   an all-to-all transpose for the z dimension — the transpose that
//!   makes FT the paper's communication stress test.
//! * [`is_mpi_layouts`] — local histogramming + allreduce, the
//!   counting-sort exchange.

use std::sync::Arc;

use parking_lot::Mutex;

use maia_mpi::world::WorldResult;
use maia_mpi::{MpiWorld, WorldSpec};
use maia_sim::SimError;

use crate::ep::{run_batch, EpResult};
use crate::ft::{fft_line, Complex, Field};

/// A distributed run's outcome: the computed result plus the virtual
/// wall time of the whole world.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiRun<T> {
    pub result: T,
    /// Virtual seconds from start to the last rank's completion.
    pub wall_s: f64,
}

/// A distributed run over several layouts: the result, computed once,
/// and one world per layout in the order given.
#[derive(Debug, Clone)]
pub struct MpiRuns<T> {
    pub result: T,
    /// One world per layout, each bit-identical to a live run of it.
    pub worlds: Vec<WorldResult>,
}

impl<T> MpiRuns<T> {
    /// Virtual seconds from start to the last event of layout `i`.
    pub fn wall_s(&self, i: usize) -> f64 {
        self.worlds[i].end_time.as_secs_f64()
    }

    fn single(self) -> MpiRun<T> {
        MpiRun {
            wall_s: self.wall_s(0),
            result: self.result,
        }
    }
}

/// Gather a kernel's outcome: its worlds, and the result its rank 0
/// stored in `out` during the live run.
fn finish<T>(
    kernel: &str,
    worlds: Result<Vec<WorldResult>, SimError>,
    out: &Mutex<Option<T>>,
) -> MpiRuns<T> {
    let worlds = worlds.unwrap_or_else(|e| panic!("{kernel} world failed: {e}"));
    let result = out.lock().take();
    MpiRuns {
        result: result.unwrap_or_else(|| panic!("{kernel}: rank 0 stored no result")),
        worlds,
    }
}

/// Distributed EP on one layout.
pub fn ep_mpi(log2_pairs: u32, spec: &WorldSpec) -> MpiRun<EpResult> {
    ep_mpi_layouts(log2_pairs, std::slice::from_ref(spec)).single()
}

/// Distributed EP: batches are dealt round-robin to ranks; the Gaussian
/// sums and annulus counts are combined with a data-carrying allreduce.
pub fn ep_mpi_layouts(log2_pairs: u32, specs: &[WorldSpec]) -> MpiRuns<EpResult> {
    let batch_log2 = 16u32.min(log2_pairs);
    let batch_pairs = 1u64 << batch_log2;
    let batches = (1u64 << log2_pairs) / batch_pairs;
    let out: Arc<Mutex<Option<EpResult>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);

    let res = MpiWorld::run_layouts(specs, move |mut rank| {
        let out2 = Arc::clone(&out2);
        async move {
        let me = rank.rank() as u64;
        let p = rank.size() as u64;
        let mut local = EpResult {
            sx: 0.0,
            sy: 0.0,
            q: [0; 10],
            accepted: 0,
            pairs: 0,
        };
        let mut k = me;
        while k < batches {
            let r = run_batch(k, batch_pairs);
            local.sx += r.sx;
            local.sy += r.sy;
            for (a, b) in local.q.iter_mut().zip(r.q) {
                *a += b;
            }
            local.accepted += r.accepted;
            local.pairs += r.pairs;
            k += p;
        }
        // ~60 flops per generated pair.
        rank.compute_flops(local.pairs as f64 * 60.0, 1).await;

        // Pack into f64s (counts < 2^53, exact) and reduce.
        let mut buf = vec![local.sx, local.sy, local.accepted as f64, local.pairs as f64];
        buf.extend(local.q.iter().map(|&c| c as f64));
        rank.allreduce_sum_data(&mut buf).await;
        if rank.rank() == 0 {
            let mut q = [0u64; 10];
            for (i, qi) in q.iter_mut().enumerate() {
                *qi = buf[4 + i] as u64;
            }
            *out2.lock() = Some(EpResult {
                sx: buf[0],
                sy: buf[1],
                accepted: buf[2] as u64,
                pairs: buf[3] as u64,
                q,
            });
        }
        rank
        }
    });
    finish("EP", res, &out)
}

/// Distributed CG on one layout.
pub fn cg_mpi(
    n: usize,
    nz_per_row: usize,
    niter: usize,
    shift: f64,
    spec: &WorldSpec,
) -> MpiRun<f64> {
    cg_mpi_layouts(n, nz_per_row, niter, shift, std::slice::from_ref(spec)).single()
}

/// Distributed CG: every rank owns a block of matrix rows; the direction
/// vector is re-replicated by an allgather each inner iteration and dot
/// products reduce globally. Returns the eigenvalue estimate `zeta`.
pub fn cg_mpi_layouts(
    n: usize,
    nz_per_row: usize,
    niter: usize,
    shift: f64,
    specs: &[WorldSpec],
) -> MpiRuns<f64> {
    let out: Arc<Mutex<Option<f64>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    // Deterministic replicated matrix; each rank uses only its rows. One
    // shared build stands in for every rank's identical local copy.
    let a = Arc::new(crate::cg::make_matrix(n, nz_per_row, crate::ep::SEED));
    let res = MpiWorld::run_layouts(specs, move |mut rank| {
        let out2 = Arc::clone(&out2);
        let a = Arc::clone(&a);
        async move {
        let p = rank.size();
        let me = rank.rank();
        // Rank r owns rows displs[r]..displs[r + 1].
        let displs: Vec<usize> = (0..=p).map(|r| n * r / p).collect();
        let (lo, hi) = (displs[me], displs[me + 1]);

        let spmv_rows = |x: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.extend(a.row_ptr[lo..=hi].windows(2).map(|row| {
                let (val, col) = (&a.val[row[0]..row[1]], &a.col[row[0]..row[1]]);
                val.iter().zip(col).fold(0.0, |acc, (v, &c)| acc + v * x[c as usize])
            }));
        };
        let dot_local = |u: &[f64], v: &[f64]| -> f64 {
            u.iter().zip(v).map(|(a, b)| a * b).sum()
        };
        let nnz_local = a.row_ptr[hi] - a.row_ptr[lo];

        let mut x = vec![1.0f64; n];
        let mut pfull = vec![0.0f64; n];
        // This rank's block of the next vector to re-replicate.
        let mut local = Vec::with_capacity(hi - lo);
        let mut zeta = 0.0;
        for _ in 0..niter {
            // Inner CG solve of A z = x, vectors split into [lo, hi).
            let mut zl = vec![0.0f64; hi - lo];
            let mut rl: Vec<f64> = x[lo..hi].to_vec();
            pfull.copy_from_slice(&x);
            let mut rho = {
                let mut b = vec![dot_local(&rl, &rl)];
                rank.allreduce_sum_data(&mut b).await;
                b[0]
            };
            let mut ql = Vec::with_capacity(hi - lo);
            for _ in 0..25 {
                spmv_rows(&pfull, &mut ql);
                rank.compute_flops(2.0 * nnz_local as f64, 1).await;
                let pq = {
                    let mut b = vec![dot_local(&pfull[lo..hi], &ql)];
                    rank.allreduce_sum_data(&mut b).await;
                    b[0]
                };
                let alpha = rho / pq;
                for i in 0..hi - lo {
                    zl[i] += alpha * pfull[lo + i];
                    rl[i] -= alpha * ql[i];
                }
                let rho_new = {
                    let mut b = vec![dot_local(&rl, &rl)];
                    rank.allreduce_sum_data(&mut b).await;
                    b[0]
                };
                let beta = rho_new / rho;
                rho = rho_new;
                local.clear();
                local.extend(rl.iter().zip(&pfull[lo..hi]).map(|(r, p)| r + beta * p));
                // Re-replicate the direction vector.
                rank.allgather_data(&local, &mut pfull, &displs).await;
            }
            // zeta = shift + 1 / (x . z), then x = z / ||z||.
            let xz_zz = {
                let mut b = vec![dot_local(&x[lo..hi], &zl), dot_local(&zl, &zl)];
                rank.allreduce_sum_data(&mut b).await;
                b
            };
            zeta = shift + 1.0 / xz_zz[0];
            let norm = xz_zz[1].sqrt();
            local.clear();
            local.extend(zl.iter().map(|v| v / norm));
            rank.allgather_data(&local, &mut x, &displs).await;
        }
        if me == 0 {
            *out2.lock() = Some(zeta);
        }
        rank
        }
    });
    finish("CG", res, &out)
}

/// Distributed FT on one layout.
pub fn ft_mpi(nx: usize, ny: usize, nz: usize, spec: &WorldSpec) -> MpiRun<Complex> {
    ft_mpi_layouts(nx, ny, nz, std::slice::from_ref(spec)).single()
}

/// Distributed FT: z-slab decomposition. Each rank transforms x and y
/// lines inside its slab, then the slabs transpose (all-to-all) so the z
/// dimension becomes local, is transformed, and transposes back.
/// Returns the spectrum's checksum after one forward transform.
pub fn ft_mpi_layouts(nx: usize, ny: usize, nz: usize, specs: &[WorldSpec]) -> MpiRuns<Complex> {
    let p = specs[0].size();
    assert!(nz.is_multiple_of(p) && nx.is_multiple_of(p), "slab decomposition needs p | nz and p | nx");
    let out: Arc<Mutex<Option<Complex>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    // Every rank cuts its slab from the same deterministic field.
    let full = Arc::new(Field::random(nx, ny, nz, crate::ep::SEED));

    let res = MpiWorld::run_layouts(specs, move |mut rank| {
        let out2 = Arc::clone(&out2);
        let full = Arc::clone(&full);
        async move {
        let me = rank.rank();
        let zloc = nz / p;
        let z0 = me * zloc;
        let mut slab: Vec<Complex> =
            full.data[z0 * nx * ny..(z0 + zloc) * nx * ny].to_vec();

        // FFT along x: contiguous lines.
        for line in slab.chunks_mut(nx) {
            fft_line(line, false);
        }
        // FFT along y: gather strided lines within the slab.
        let mut scratch = vec![Complex::ZERO; ny];
        for k in 0..zloc {
            for i in 0..nx {
                for j in 0..ny {
                    scratch[j] = slab[(k * ny + j) * nx + i];
                }
                fft_line(&mut scratch, false);
                for j in 0..ny {
                    slab[(k * ny + j) * nx + i] = scratch[j];
                }
            }
        }
        rank.compute_flops(5.0 * (zloc * nx * ny) as f64 * ((nx * ny) as f64).log2(), 1)
            .await;

        // Transpose x<->z: block for destination d holds x in d's range.
        let xloc = nx / p;
        let blocks: Vec<Vec<f64>> = (0..p)
            .map(|d| {
                let mut b = Vec::with_capacity(zloc * ny * xloc * 2);
                for k in 0..zloc {
                    for j in 0..ny {
                        for i in d * xloc..(d + 1) * xloc {
                            let c = slab[(k * ny + j) * nx + i];
                            b.push(c.re);
                            b.push(c.im);
                        }
                    }
                }
                b
            })
            .collect();
        let got = rank.alltoall_data(blocks).await;

        // Reassemble as x-pencils: for each (i_local, j), a full z line.
        let mut zline = vec![Complex::ZERO; nz];
        let mut checksum_acc = Complex::ZERO;
        let mut pencil = vec![Complex::ZERO; xloc * ny * nz];
        for (src, b) in got.iter().enumerate() {
            // Source slab owned z in [src*zloc, (src+1)*zloc).
            let mut it = b.chunks_exact(2);
            for kk in 0..zloc {
                for j in 0..ny {
                    for il in 0..xloc {
                        let c = it.next().expect("block size mismatch");
                        pencil[(il * ny + j) * nz + src * zloc + kk] =
                            Complex::new(c[0], c[1]);
                    }
                }
            }
        }
        for il in 0..xloc {
            for j in 0..ny {
                zline.copy_from_slice(&pencil[(il * ny + j) * nz..(il * ny + j + 1) * nz]);
                fft_line(&mut zline, false);
                pencil[(il * ny + j) * nz..(il * ny + j + 1) * nz].copy_from_slice(&zline);
            }
        }
        rank.compute_flops(5.0 * (xloc * ny * nz) as f64 * (nz as f64).log2(), 1)
            .await;

        // Checksum over the same strided samples as Field::checksum,
        // each contributed by the rank owning that x index.
        for s in 1..=1024usize {
            let i = s % nx;
            let j = (3 * s) % ny;
            let k = (5 * s) % nz;
            if i / xloc == me {
                let c = pencil[((i % xloc) * ny + j) * nz + k];
                checksum_acc += c;
            }
        }
        let mut buf = vec![checksum_acc.re, checksum_acc.im];
        rank.allreduce_sum_data(&mut buf).await;
        if me == 0 {
            *out2.lock() = Some(Complex::new(buf[0] / 1024.0, buf[1] / 1024.0));
        }
        rank
        }
    });
    finish("FT", res, &out)
}

/// Distributed IS on one layout.
pub fn is_mpi(log2_n: u32, log2_max: u32, spec: &WorldSpec) -> MpiRun<Vec<u32>> {
    is_mpi_layouts(log2_n, log2_max, std::slice::from_ref(spec)).single()
}

/// Distributed IS: each rank histograms its key range; histograms reduce
/// globally; rank 0 materializes the sorted sequence. Returns the sorted
/// keys.
pub fn is_mpi_layouts(log2_n: u32, log2_max: u32, specs: &[WorldSpec]) -> MpiRuns<Vec<u32>> {
    let out: Arc<Mutex<Option<Vec<u32>>>> = Arc::new(Mutex::new(None));
    let out2 = Arc::clone(&out);
    // The replicated key sequence every rank slices its range from.
    let keys = Arc::new(crate::is::generate_keys(log2_n, log2_max, crate::ep::SEED));
    let res = MpiWorld::run_layouts(specs, move |mut rank| {
        let out2 = Arc::clone(&out2);
        let keys = Arc::clone(&keys);
        async move {
        let p = rank.size();
        let me = rank.rank();
        let lo = keys.len() * me / p;
        let hi = keys.len() * (me + 1) / p;
        let buckets = 1usize << log2_max;
        let mut histo = vec![0.0f64; buckets];
        for &k in &keys[lo..hi] {
            histo[k as usize] += 1.0;
        }
        rank.compute_flops((hi - lo) as f64 * 4.0, 1).await;
        rank.allreduce_sum_data(&mut histo).await;
        if me == 0 {
            let mut sorted = Vec::with_capacity(keys.len());
            for (key, &count) in histo.iter().enumerate() {
                sorted.extend(std::iter::repeat_n(key as u32, count as usize));
            }
            crate::is::verify(&keys, &sorted, log2_max);
            *out2.lock() = Some(sorted);
        }
        rank
        }
    });
    finish("IS", res, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_arch::Device;
    use maia_interconnect::SoftwareStack;

    #[test]
    fn ep_mpi_matches_shared_memory_exactly() {
        let reference = crate::ep::run(18, 2);
        let spec = WorldSpec::all_on(Device::Host, 4);
        let dist = ep_mpi(18, &spec);
        assert_eq!(dist.result.q, reference.q);
        assert_eq!(dist.result.accepted, reference.accepted);
        assert!((dist.result.sx - reference.sx).abs() < 1e-9);
        assert!((dist.result.sy - reference.sy).abs() < 1e-9);
        assert!(dist.wall_s > 0.0);
    }

    #[test]
    fn cg_mpi_matches_shared_memory_zeta() {
        let reference = crate::cg::run_custom(600, 5, 5, 10.0, 2);
        let spec = WorldSpec::all_on(Device::Host, 4);
        let dist = cg_mpi(600, 5, 5, 10.0, &spec);
        assert!(
            (dist.result - reference.zeta).abs() < 1e-8,
            "distributed zeta {} vs shared {}",
            dist.result,
            reference.zeta
        );
    }

    #[test]
    fn ft_mpi_matches_shared_memory_spectrum() {
        // Reference: forward 3D FFT checksum via the shared-memory path.
        let team = maia_omp::Team::new(2);
        let f = Field::random(16, 16, 16, crate::ep::SEED);
        let spec_field = f.fft3d(&team, false);
        let reference = spec_field.checksum();

        let spec = WorldSpec::all_on(Device::Host, 4);
        let dist = ft_mpi(16, 16, 16, &spec);
        assert!(
            (dist.result.re - reference.re).abs() < 1e-9
                && (dist.result.im - reference.im).abs() < 1e-9,
            "distributed {:?} vs shared {:?}",
            dist.result,
            reference
        );
    }

    #[test]
    fn is_mpi_sorts() {
        let spec = WorldSpec::all_on(Device::Host, 3);
        let dist = is_mpi(12, 9, &spec);
        assert_eq!(dist.result.len(), 1 << 12);
        assert!(dist.result.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn phi_world_is_slower_than_host_world() {
        let host = ep_mpi(18, &WorldSpec::all_on(Device::Host, 8));
        let phi = ep_mpi(18, &WorldSpec::all_on(Device::Phi0, 8));
        assert!(
            phi.wall_s > host.wall_s,
            "phi {} vs host {}",
            phi.wall_s,
            host.wall_s
        );
    }

    #[test]
    fn symmetric_ft_crosses_pcie() {
        // FT's all-to-all over a host+phi layout pays PCIe costs: much
        // slower than the all-host layout.
        let host = ft_mpi(16, 16, 16, &WorldSpec::all_on(Device::Host, 4));
        let sym = ft_mpi(
            16,
            16,
            16,
            &WorldSpec::symmetric(2, 1, SoftwareStack::PostUpdate),
        );
        assert!(
            sym.wall_s > 2.0 * host.wall_s,
            "symmetric {} vs host {}",
            sym.wall_s,
            host.wall_s
        );
    }
}
