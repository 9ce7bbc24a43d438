//! EP — the "embarrassingly parallel" kernel.
//!
//! Faithful to NPB 3.3: generate `2^(m+1)` pseudorandom numbers with the
//! 48-bit linear congruential generator `x ← a·x mod 2⁴⁶` (a = 5¹³),
//! form pairs in (−1,1)², apply the acceptance–rejection Box–Muller
//! transform, and accumulate the Gaussian-deviate sums and the annulus
//! counts `q[0..10)`. Batches of 2¹⁶ pairs are seeded independently by
//! jumping the generator ahead (`a^(2·k·nk) mod 2⁴⁶`), which is what makes
//! the benchmark embarrassingly parallel.

use maia_omp::{Schedule, Team};

/// The NPB multiplier a = 5^13.
pub const A: u64 = 1_220_703_125;
/// The NPB seed.
pub const SEED: u64 = 271_828_183;
/// Modulus 2^46.
const M46: u64 = 1 << 46;
/// Pairs per batch (NPB's `nk`).
const BATCH_LOG2: u32 = 16;

/// `a^e mod 2^46` by repeated squaring.
fn pow_mod46(mut a: u64, mut e: u64) -> u64 {
    let mut r: u64 = 1;
    a %= M46;
    while e > 0 {
        if e & 1 == 1 {
            r = ((r as u128 * a as u128) % M46 as u128) as u64;
        }
        a = ((a as u128 * a as u128) % M46 as u128) as u64;
        e >>= 1;
    }
    r
}

/// The NPB `vranlc` stream: uniform doubles in (0,1).
#[derive(Debug, Clone)]
pub struct Ranlc {
    x: u64,
}

impl Ranlc {
    /// Start a stream at `seed`.
    pub fn new(seed: u64) -> Self {
        Ranlc { x: seed % M46 }
    }

    /// Start the stream for batch `k` (each batch consumes `2^(log2+1)`
    /// numbers).
    pub fn for_batch(k: u64) -> Self {
        let jump = pow_mod46(A, 2 * k * (1u64 << BATCH_LOG2));
        Ranlc {
            x: ((SEED as u128 * jump as u128) % M46 as u128) as u64,
        }
    }

    /// Next uniform double in (0,1).
    pub fn next_f64(&mut self) -> f64 {
        self.x = ((self.x as u128 * A as u128) % M46 as u128) as u64;
        self.x as f64 / M46 as f64
    }
}

/// Result of an EP run.
#[derive(Debug, Clone, PartialEq)]
pub struct EpResult {
    /// Sum of accepted Gaussian X deviates.
    pub sx: f64,
    /// Sum of accepted Gaussian Y deviates.
    pub sy: f64,
    /// Annulus counts: `q[l]` counts pairs with `l = ⌊max(|X|,|Y|)⌋`.
    pub q: [u64; 10],
    /// Accepted pairs.
    pub accepted: u64,
    /// Total pairs generated.
    pub pairs: u64,
}

impl EpResult {
    /// Acceptance ratio (should approach π/4 · E[accept | t≤1] — about
    /// 0.7854 of pairs fall inside the unit circle).
    pub fn acceptance(&self) -> f64 {
        self.accepted as f64 / self.pairs as f64
    }
}

/// One batch of `pairs` pairs from batch `k`'s stream: a pure function
/// of `(k, pairs)`.
pub(crate) fn run_batch(k: u64, pairs: u64) -> EpResult {
    let mut rng = Ranlc::for_batch(k);
    let mut sx = 0.0;
    let mut sy = 0.0;
    let mut q = [0u64; 10];
    let mut accepted = 0u64;
    for _ in 0..pairs {
        let x = 2.0 * rng.next_f64() - 1.0;
        let y = 2.0 * rng.next_f64() - 1.0;
        let t = x * x + y * y;
        if t <= 1.0 {
            let f = (-2.0 * t.ln() / t).sqrt();
            let gx = x * f;
            let gy = y * f;
            let l = gx.abs().max(gy.abs()) as usize;
            if l < q.len() {
                q[l] += 1;
            }
            sx += gx;
            sy += gy;
            accepted += 1;
        }
    }
    EpResult {
        sx,
        sy,
        q,
        accepted,
        pairs,
    }
}

/// Run EP for `2^log2_pairs` pairs on `threads` threads.
///
/// # Panics
/// Panics if `log2_pairs < BATCH_LOG2` would leave zero batches.
pub fn run(log2_pairs: u32, threads: usize) -> EpResult {
    let total_pairs = 1u64 << log2_pairs;
    let batch_pairs = 1u64 << BATCH_LOG2.min(log2_pairs);
    let batches = total_pairs / batch_pairs;
    assert!(batches >= 1, "EP needs at least one batch");

    let team = Team::new(threads);
    team.parallel_reduce(
        0..batches as usize,
        Schedule::Dynamic { chunk: 1 },
        EpResult {
            sx: 0.0,
            sy: 0.0,
            q: [0; 10],
            accepted: 0,
            pairs: 0,
        },
        |k, acc| {
            let r = run_batch(k as u64, batch_pairs);
            acc.sx += r.sx;
            acc.sy += r.sy;
            for (a, b) in acc.q.iter_mut().zip(r.q) {
                *a += b;
            }
            acc.accepted += r.accepted;
            acc.pairs += r.pairs;
        },
        |mut a, b| {
            a.sx += b.sx;
            a.sy += b.sy;
            for (x, y) in a.q.iter_mut().zip(b.q) {
                *x += y;
            }
            a.accepted += b.accepted;
            a.pairs += b.pairs;
            a
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcg_is_deterministic_and_in_range() {
        let mut r = Ranlc::new(SEED);
        let first: Vec<f64> = (0..100).map(|_| r.next_f64()).collect();
        let mut r2 = Ranlc::new(SEED);
        let again: Vec<f64> = (0..100).map(|_| r2.next_f64()).collect();
        assert_eq!(first, again);
        assert!(first.iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    fn batch_jump_matches_sequential_stream() {
        // Batch k's stream must equal the sequential stream advanced by
        // 2*k*nk draws.
        let mut seq = Ranlc::new(SEED);
        let skip = 2 * (1u64 << BATCH_LOG2);
        for _ in 0..skip {
            seq.next_f64();
        }
        let mut jumped = Ranlc::for_batch(1);
        for i in 0..16 {
            assert_eq!(seq.next_f64(), jumped.next_f64(), "draw {i}");
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = run(18, 1);
        let parallel = run(18, 4);
        assert_eq!(serial.q, parallel.q);
        assert_eq!(serial.accepted, parallel.accepted);
        // Floating sums may differ in association order across threads,
        // but each batch is summed privately, so they are identical too.
        assert!((serial.sx - parallel.sx).abs() < 1e-9);
        assert!((serial.sy - parallel.sy).abs() < 1e-9);
    }

    #[test]
    fn acceptance_approaches_pi_over_4() {
        let r = run(18, 4);
        assert!(
            (r.acceptance() - std::f64::consts::FRAC_PI_4).abs() < 0.01,
            "acceptance {}",
            r.acceptance()
        );
    }

    #[test]
    fn annulus_counts_decay() {
        // Gaussian tails: q[0] > q[1] > ... and the far bins are tiny.
        let r = run(18, 2);
        assert!(r.q[0] > r.q[1] && r.q[1] > r.q[2]);
        assert_eq!(r.q[9], 0);
        assert_eq!(r.q.iter().sum::<u64>(), r.accepted);
    }
}
