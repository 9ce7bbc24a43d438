//! The seeded generator behind every benchmark input: interleaving order,
//! experiment request order and replay cell order all derive from
//! `--seed`, so the same seed gives the same inputs.

/// SplitMix64: tiny, fast, and good enough to shuffle a few dozen items.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_permutation() {
        let perm = |seed| {
            let mut v: Vec<u32> = (0..29).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(perm(7), perm(7));
        assert_ne!(perm(7), perm(8));
        let mut sorted = perm(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..29).collect::<Vec<_>>());
    }
}
