//! Whole-processor descriptions.

use crate::cache::{CacheLevel, CacheSpec};
use crate::core_spec::CoreSpec;
use crate::memory::MemorySpec;

/// Processor family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessorKind {
    /// Intel Xeon E5-2670 "Sandy Bridge".
    SandyBridge,
    /// Intel Xeon Phi 5110P "Knights Corner" (Many Integrated Core).
    Mic,
}

/// One processor package: cores, cache hierarchy, and attached memory.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessorSpec {
    pub kind: ProcessorKind,
    /// Marketing name, e.g. "Intel Xeon E5-2670".
    pub name: &'static str,
    /// Physical cores per package.
    pub cores: u32,
    /// Cores usable by applications. On the Phi the 60th core services the
    /// micro-OS; the paper shows (Fig 24) that scheduling work on it costs
    /// more than it gains, so application runs use 59 cores.
    pub app_cores: u32,
    pub core: CoreSpec,
    /// Cache levels, ordered L1 → last level.
    pub caches: Vec<CacheSpec>,
    pub memory: MemorySpec,
}

impl ProcessorSpec {
    /// Peak double-precision Gflop/s per core at base clock.
    pub fn peak_gflops_per_core(&self) -> f64 {
        self.core.peak_gflops()
    }

    /// Peak double-precision Gflop/s of the package.
    pub fn peak_gflops(&self) -> f64 {
        self.cores as f64 * self.core.peak_gflops()
    }

    /// Maximum hardware threads on the package.
    pub fn max_threads(&self) -> u32 {
        self.cores * self.core.hw_threads
    }

    /// Maximum hardware threads on application cores.
    pub fn max_app_threads(&self) -> u32 {
        self.app_cores * self.core.hw_threads
    }

    /// Look up a cache level.
    pub fn cache(&self, level: CacheLevel) -> Option<&CacheSpec> {
        self.caches.iter().find(|c| c.level == level)
    }

    /// Total cache bytes available to one core: its private levels plus its
    /// per-core share of any shared level. The paper notes 2.788 MB/core on
    /// the host vs 544 KB/core on the Phi — a factor of 5.1.
    pub fn cache_bytes_per_core(&self) -> f64 {
        self.caches
            .iter()
            .map(|c| c.size_bytes as f64 / c.shared_by_cores as f64)
            .sum()
    }

    /// Validate internal consistency; used by tests and the system builder.
    ///
    /// # Panics
    /// Panics with a description of the first inconsistency found.
    pub fn validate(&self) {
        assert!(self.cores > 0, "{}: zero cores", self.name);
        assert!(
            self.app_cores > 0 && self.app_cores <= self.cores,
            "{}: app_cores {} out of range 1..={}",
            self.name,
            self.app_cores,
            self.cores
        );
        assert!(!self.caches.is_empty(), "{}: no caches", self.name);
        let mut prev_size = 0u64;
        for c in &self.caches {
            let _ = c.num_sets(); // checks geometry
            let effective = c.size_bytes; // per sharing-domain size
            assert!(
                effective >= prev_size,
                "{}: cache levels must be ordered by size",
                self.name
            );
            prev_size = effective;
            assert!(
                c.shared_by_cores >= 1 && c.shared_by_cores <= self.cores,
                "{}: cache shared_by_cores out of range",
                self.name
            );
        }
        assert!(
            self.memory.stream_efficiency > 0.0 && self.memory.stream_efficiency <= 1.0,
            "{}: stream efficiency out of (0,1]",
            self.name
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::presets;

    #[test]
    fn presets_validate() {
        presets::xeon_e5_2670().validate();
        presets::xeon_phi_5110p().validate();
    }

    #[test]
    fn host_cache_per_core_is_5x_phi() {
        let host = presets::xeon_e5_2670();
        let phi = presets::xeon_phi_5110p();
        // Host: 32 KB L1 + 256 KB L2 + 2.5 MB L3-share = 2.788 MB/core.
        assert!((host.cache_bytes_per_core() / 1024.0 / 1024.0 - 2.781).abs() < 0.01);
        // Phi: 32 KB L1 + 512 KB L2 = 544 KB/core.
        assert!((phi.cache_bytes_per_core() / 1024.0 - 544.0).abs() < 1e-9);
        let ratio = host.cache_bytes_per_core() / phi.cache_bytes_per_core();
        assert!((ratio - 5.1).abs() < 0.15, "paper states a factor of 5.1, got {ratio}");
    }

    #[test]
    fn thread_counts() {
        let host = presets::xeon_e5_2670();
        assert_eq!(host.max_threads(), 16);
        let phi = presets::xeon_phi_5110p();
        assert_eq!(phi.max_threads(), 240);
        assert_eq!(phi.max_app_threads(), 236);
    }
}
