//! EP — the "embarrassingly parallel" kernel.
//!
//! Faithful to NPB 3.3: generate `2^(m+1)` pseudorandom numbers with the
//! 48-bit linear congruential generator `x ← a·x mod 2⁴⁶` (a = 5¹³),
//! form pairs in (−1,1)², apply the acceptance–rejection Box–Muller
//! transform, and accumulate the Gaussian-deviate sums and the annulus
//! counts `q[0..10)`. Batches of 2¹⁶ pairs are seeded independently by
//! jumping the generator ahead (`a^(2·k·nk) mod 2⁴⁶`), which is what makes
//! the benchmark embarrassingly parallel.
//!
//! Like NPB's `ep.f`, which calls `vranlc` to fill a block of uniforms
//! before its acceptance loop, a batch runs in blocks. `LANES`
//! independent generators fill a block: lane `r` starts at `x·a^(r+1)`
//! and steps by `a^LANES`, so the block holds the scalar stream's draws
//! in order. Pairs are then accepted without a branch, and the logs and
//! square roots of the accepted pairs are taken in loops of their own.
//! Every step is exact, so each result equals the one-draw-at-a-time
//! stream's to the bit:
//!
//! * a wrapping `u64` product masked to 46 bits is the product
//!   `mod 2⁴⁶`, because only a product's low 46 bits survive the modulus;
//! * a 46-bit state ORed into the mantissa of 2⁵², minus 2⁵², is the
//!   state as an `f64`, and scaling by 2⁻⁴⁶ divides by a power of two;
//! * `ln`, division and square root round each element alike whether
//!   taken in a loop of their own or one pair at a time, and the
//!   Gaussian sums still add in stream order (only the integer counts
//!   are summed in another).

use maia_omp::{Schedule, Team};

/// The NPB multiplier a = 5^13.
pub const A: u64 = 1_220_703_125;
/// The NPB seed.
pub const SEED: u64 = 271_828_183;
/// Modulus 2^46.
const M46: u64 = 1 << 46;
/// Pairs per batch (NPB's `nk`).
const BATCH_LOG2: u32 = 16;
/// Independent generator lanes filling a block.
const LANES: usize = 8;
/// Pairs per block: the block's four buffers take 10 KiB of stack.
const BLOCK: usize = 256;

/// `a·b mod 2^46`: the low 46 bits of the wrapping product.
fn mul46(a: u64, b: u64) -> u64 {
    a.wrapping_mul(b) & (M46 - 1)
}

/// `a^LANES mod 2^46`, one step of a lane.
const A_LANES: u64 = pow_mod46(A, LANES as u64);

/// A 46-bit generator state as a uniform in (0,1), exactly
/// `x as f64 / 2^46`.
fn unit(x: u64) -> f64 {
    const TWO52: f64 = (1u64 << 52) as f64;
    (f64::from_bits(TWO52.to_bits() | x) - TWO52) * (1.0 / M46 as f64)
}

/// `a^e mod 2^46` by repeated squaring.
const fn pow_mod46(mut a: u64, mut e: u64) -> u64 {
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
/// of `(k, pairs)`, computed in blocks of `BLOCK` pairs.
pub(crate) fn run_batch(k: u64, pairs: u64) -> EpResult {
    let mut lanes = [0u64; LANES];
    let mut x = Ranlc::for_batch(k).x;
    for lane in &mut lanes {
        x = mul46(x, A);
        *lane = x;
    }
    // `u` holds a block's uniforms, then its accepted pairs' factors.
    let mut u = [0.0f64; 2 * BLOCK];
    let (mut xs, mut ys, mut ts) = ([0.0f64; BLOCK], [0.0f64; BLOCK], [0.0f64; BLOCK]);
    let (mut sx, mut sy) = (0.0, 0.0);
    // Bin 10 collects the pairs beyond the last annulus.
    let mut q = [0u64; 11];
    let mut accepted = 0;
    let mut left = pairs;
    while left > 0 {
        let n = left.min(BLOCK as u64) as usize;
        left -= n as u64;
        // A partial block overdraws its lanes by fewer than LANES draws;
        // only the last block of a batch is partial.
        for draws in u[..(2 * n).next_multiple_of(LANES)].chunks_exact_mut(LANES) {
            for (v, lane) in draws.iter_mut().zip(&mut lanes) {
                *v = unit(*lane);
                *lane = mul46(*lane, A_LANES);
            }
        }
        // Every pair is stored and only an accepted one advances `m`, so
        // the first `m` entries are the accepted pairs in stream order.
        let mut m = 0;
        for xy in u[..2 * n].chunks_exact(2) {
            let x = 2.0 * xy[0] - 1.0;
            let y = 2.0 * xy[1] - 1.0;
            let t = x * x + y * y;
            (xs[m], ys[m], ts[m]) = (x, y, t);
            m += usize::from(t <= 1.0);
        }
        let (f, ts) = (&mut u[..m], &ts[..m]);
        for (f, t) in f.iter_mut().zip(ts) {
            *f = t.ln();
        }
        for (f, t) in f.iter_mut().zip(ts) {
            *f = (-2.0 * *f / t).sqrt();
        }
        for ((f, x), y) in f.iter().zip(&xs[..m]).zip(&ys[..m]) {
            let gx = x * f;
            let gy = y * f;
            // `as u32` floors and saturates as `as usize` does (NaN to
            // 0), and is the cheaper conversion.
            q[(gx.abs().max(gy.abs()) as u32).min(10) as usize] += 1;
            sx += gx;
            sy += gy;
        }
        accepted += m as u64;
    }
    EpResult {
        sx,
        sy,
        q: q[..10].try_into().expect("ten annuli"),
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

    /// The definition `run_batch` must equal to the bit: one draw at a
    /// time, one branch per pair.
    fn run_batch_scalar(k: u64, pairs: u64) -> EpResult {
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

    #[test]
    fn blocked_batches_equal_the_scalar_stream_bit_for_bit() {
        let bits = |r: &EpResult| (r.sx.to_bits(), r.sy.to_bits(), r.q, r.accepted, r.pairs);
        // Full batches, a partial block, one pair, pair counts that are
        // not a multiple of the lane count or of a block.
        let full = 1u64 << BATCH_LOG2;
        for (k, pairs) in [
            (0, full),
            (3, full),
            (7, BLOCK as u64 / 2),
            (1, 1),
            (2, (LANES / 2 + 1) as u64),
            (5, 3 * BLOCK as u64 + 13),
            (11, full - 1),
        ] {
            assert_eq!(
                bits(&run_batch(k, pairs)),
                bits(&run_batch_scalar(k, pairs)),
                "({k}, {pairs})"
            );
        }
    }

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
