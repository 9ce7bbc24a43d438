//! Executable STREAM kernels (McCalpin v5.x semantics).
//!
//! These run for real on the build machine — they are the functional
//! counterpart of the Figure 4 *model* in [`crate::bandwidth`] and are used
//! by the examples, the Criterion STREAM bench, and the tests (which verify the
//! arithmetic the way the original STREAM does).
//!
//! Threading uses `std::thread::scope` with a contiguous block partition so
//! the crate needs no runtime dependency; the `maia-omp` runtime offers the
//! same kernels behind its loop scheduler for the OpenMP experiments.

use std::time::Instant;

/// Which STREAM kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKernel {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s * c[i]`
    Scale,
    /// `c[i] = a[i] + b[i]`
    Add,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

impl StreamKernel {
    /// All four kernels in canonical STREAM order.
    pub const ALL: [StreamKernel; 4] = [
        StreamKernel::Copy,
        StreamKernel::Scale,
        StreamKernel::Add,
        StreamKernel::Triad,
    ];

    /// Bytes moved per element (reads + writes, 8-byte doubles), per the
    /// STREAM counting convention.
    pub fn bytes_per_element(self) -> u64 {
        match self {
            StreamKernel::Copy | StreamKernel::Scale => 16,
            StreamKernel::Add | StreamKernel::Triad => 24,
        }
    }

    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            StreamKernel::Copy => "Copy",
            StreamKernel::Scale => "Scale",
            StreamKernel::Add => "Add",
            StreamKernel::Triad => "Triad",
        }
    }
}

/// Working arrays for the STREAM kernels.
pub struct StreamArrays {
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    pub c: Vec<f64>,
    /// The scalar used by Scale and Triad.
    pub scalar: f64,
}

impl StreamArrays {
    /// Allocate and initialize per the reference benchmark
    /// (a=1, b=2, c=0, scalar=3).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "STREAM arrays must be non-empty");
        StreamArrays {
            a: vec![1.0; n],
            b: vec![2.0; n],
            c: vec![0.0; n],
            scalar: 3.0,
        }
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.a.len()
    }

    /// Whether the arrays are empty (never true after `new`).
    pub fn is_empty(&self) -> bool {
        self.a.is_empty()
    }

    /// Run one kernel once across `threads` threads; returns elapsed
    /// seconds of wall time.
    pub fn run(&mut self, kernel: StreamKernel, threads: usize) -> f64 {
        assert!(threads >= 1);
        let n = self.len();
        let s = self.scalar;
        let t0 = Instant::now();
        // Split into contiguous chunks; each thread owns disjoint slices.
        match kernel {
            StreamKernel::Copy => par_zip2(&self.a, &mut self.c, threads, |a, c| {
                c.copy_from_slice(a);
            }),
            StreamKernel::Scale => par_zip2(&self.c, &mut self.b, threads, move |c, b| {
                for (bi, ci) in b.iter_mut().zip(c) {
                    *bi = s * *ci;
                }
            }),
            StreamKernel::Add => par_zip3(&self.a, &self.b, &mut self.c, threads, |a, b, c| {
                for ((ci, ai), bi) in c.iter_mut().zip(a).zip(b) {
                    *ci = *ai + *bi;
                }
            }),
            StreamKernel::Triad => par_zip3(&self.b, &self.c, &mut self.a, threads, move |b, c, a| {
                for ((ai, bi), ci) in a.iter_mut().zip(b).zip(c) {
                    *ai = *bi + s * *ci;
                }
            }),
        }
        let dt = t0.elapsed().as_secs_f64();
        let _ = n;
        dt
    }

    /// Run the full Copy→Scale→Add→Triad cycle `trials` times and return
    /// the best bandwidth in GB/s per kernel (STREAM reports best-of).
    pub fn measure(&mut self, threads: usize, trials: usize) -> Vec<(StreamKernel, f64)> {
        assert!(trials >= 1);
        let n = self.len() as u64;
        let mut best = [f64::INFINITY; 4];
        for _ in 0..trials {
            for (i, k) in StreamKernel::ALL.iter().enumerate() {
                let dt = self.run(*k, threads);
                if dt < best[i] {
                    best[i] = dt;
                }
            }
        }
        StreamKernel::ALL
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let bytes = k.bytes_per_element() * n;
                (k, bytes as f64 / best[i] / 1e9)
            })
            .collect()
    }

    /// Verify array contents after `cycles` full Copy→Scale→Add→Triad
    /// cycles, mirroring the reference benchmark's `checkSTREAMresults`.
    /// Returns the worst relative error across the three arrays.
    pub fn verification_error(&self, cycles: usize) -> f64 {
        let (mut ea, mut eb, mut ec) = (1.0f64, 2.0f64, 0.0f64);
        for _ in 0..cycles {
            ec = ea; // copy
            eb = self.scalar * ec; // scale
            ec = ea + eb; // add
            ea = eb + self.scalar * ec; // triad
        }
        let rel = |x: f64, e: f64| ((x - e) / e).abs();
        let mut worst = 0.0f64;
        for (&x, e) in self.a.iter().zip(std::iter::repeat(ea)) {
            worst = worst.max(rel(x, e));
        }
        for (&x, e) in self.b.iter().zip(std::iter::repeat(eb)) {
            worst = worst.max(rel(x, e));
        }
        for (&x, e) in self.c.iter().zip(std::iter::repeat(ec)) {
            worst = worst.max(rel(x, e));
        }
        worst
    }
}

/// Apply `f` to corresponding chunks of a source and destination slice
/// across `threads` scoped threads.
fn par_zip2<F>(src: &[f64], dst: &mut [f64], threads: usize, f: F)
where
    F: Fn(&[f64], &mut [f64]) + Sync,
{
    assert_eq!(src.len(), dst.len());
    let chunk = src.len().div_ceil(threads);
    std::thread::scope(|s| {
        for (sa, da) in src.chunks(chunk).zip(dst.chunks_mut(chunk)) {
            s.spawn(|| f(sa, da));
        }
    });
}

/// Apply `f` to corresponding chunks of two sources and a destination.
fn par_zip3<F>(s1: &[f64], s2: &[f64], dst: &mut [f64], threads: usize, f: F)
where
    F: Fn(&[f64], &[f64], &mut [f64]) + Sync,
{
    assert_eq!(s1.len(), dst.len());
    assert_eq!(s2.len(), dst.len());
    let chunk = s1.len().div_ceil(threads);
    std::thread::scope(|s| {
        for ((a1, a2), da) in s1
            .chunks(chunk)
            .zip(s2.chunks(chunk))
            .zip(dst.chunks_mut(chunk))
        {
            s.spawn(|| f(a1, a2, da));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_compute_stream_semantics() {
        let mut arr = StreamArrays::new(1000);
        arr.run(StreamKernel::Copy, 2);
        assert!(arr.c.iter().all(|&x| x == 1.0));
        arr.run(StreamKernel::Scale, 2);
        assert!(arr.b.iter().all(|&x| x == 3.0));
        arr.run(StreamKernel::Add, 2);
        assert!(arr.c.iter().all(|&x| x == 4.0));
        arr.run(StreamKernel::Triad, 2);
        assert!(arr.a.iter().all(|&x| x == 15.0));
    }

    #[test]
    fn verification_matches_reference_recurrence() {
        let mut arr = StreamArrays::new(4096);
        for _ in 0..3 {
            for k in StreamKernel::ALL {
                arr.run(k, 4);
            }
        }
        assert!(arr.verification_error(3) < 1e-13);
    }

    #[test]
    fn measure_reports_all_four_kernels() {
        let mut arr = StreamArrays::new(100_000);
        let res = arr.measure(2, 2);
        assert_eq!(res.len(), 4);
        for (k, gbs) in res {
            assert!(gbs > 0.0, "{} reported non-positive bandwidth", k.label());
        }
    }

    #[test]
    fn uneven_partition_covers_all_elements() {
        // 1000 elements across 7 threads: chunks of 143 with a ragged tail.
        let mut arr = StreamArrays::new(1000);
        arr.run(StreamKernel::Add, 7);
        assert!(arr.c.iter().all(|&x| x == 3.0));
    }

    #[test]
    fn bytes_per_element_follows_stream_convention() {
        assert_eq!(StreamKernel::Copy.bytes_per_element(), 16);
        assert_eq!(StreamKernel::Triad.bytes_per_element(), 24);
    }
}
