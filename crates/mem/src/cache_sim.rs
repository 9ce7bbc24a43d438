//! Functional set-associative cache simulator.
//!
//! This is the *mechanistic* backend for the latency experiments: a
//! pointer-chase trace run through a simulated hierarchy yields per-level
//! hit counts, and the average access latency computed from those counts
//! reproduces the measured latency plateaus of Figure 5 without any curve
//! being hard-coded.

use maia_arch::ProcessorSpec;

use crate::hierarchy::ModelHierarchy;

/// A single set-associative, write-allocate, LRU cache.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    line_bytes: u64,
    num_sets: u64,
    associativity: usize,
    /// `sets[s]` holds resident tags, most recently used last.
    sets: Vec<Vec<u64>>,
}

impl SetAssocCache {
    /// Build a cache from its geometry.
    ///
    /// # Panics
    /// Panics if any parameter is zero or `size` is not divisible by
    /// `line_bytes * associativity`.
    pub fn new(size_bytes: u64, line_bytes: u32, associativity: u32) -> Self {
        assert!(size_bytes > 0 && line_bytes > 0 && associativity > 0);
        let ways_bytes = line_bytes as u64 * associativity as u64;
        assert!(
            size_bytes.is_multiple_of(ways_bytes),
            "cache size {size_bytes} not divisible by line x ways = {ways_bytes}"
        );
        let num_sets = size_bytes / ways_bytes;
        SetAssocCache {
            line_bytes: line_bytes as u64,
            num_sets,
            associativity: associativity as usize,
            sets: vec![Vec::with_capacity(associativity as usize); num_sets as usize],
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.num_sets * self.associativity as u64 * self.line_bytes
    }

    fn index_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        ((line % self.num_sets) as usize, line / self.num_sets)
    }

    /// Access one byte address; returns `true` on hit. Misses allocate the
    /// line, evicting LRU if needed.
    pub fn access(&mut self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        let set = &mut self.sets[idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            let t = set.remove(pos);
            set.push(t); // move to MRU
            true
        } else {
            if set.len() == self.associativity {
                set.remove(0); // evict LRU
            }
            set.push(tag);
            false
        }
    }

    /// Whether the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let (idx, tag) = self.index_and_tag(addr);
        self.sets[idx].contains(&tag)
    }

    /// Drop all contents.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// Per-level access statistics from a hierarchy simulation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Hits at each cache level, innermost first.
    pub level_hits: Vec<u64>,
    /// Accesses that missed every cache level.
    pub memory_accesses: u64,
    pub total: u64,
}

impl AccessStats {
    /// Hit fraction at cache level `i`.
    pub fn hit_rate(&self, level: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.level_hits[level] as f64 / self.total as f64
        }
    }
}

/// A multi-level cache hierarchy simulator for one thread of access.
///
/// Levels are looked up inner to outer; a miss at level *i* is looked up at
/// level *i+1*, and the line is allocated in every level on the way back
/// (inclusive fill, matching both Sandy Bridge's inclusive L3 and the
/// Phi's L1⊂L2 behaviour closely enough for latency accounting).
#[derive(Debug, Clone)]
pub struct HierarchySim {
    levels: Vec<SetAssocCache>,
    /// Load-to-use latency per level, then memory, in ns.
    latencies_ns: Vec<f64>,
    stats: AccessStats,
}

impl HierarchySim {
    /// Build the simulator for one processor's hierarchy.
    pub fn from_processor(p: &ProcessorSpec) -> Self {
        let model = ModelHierarchy::from_processor(p);
        let levels: Vec<SetAssocCache> = p
            .caches
            .iter()
            .map(|c| SetAssocCache::new(c.size_bytes, c.line_bytes, c.associativity))
            .collect();
        let latencies_ns = model.levels.iter().map(|l| l.latency_ns).collect();
        let n = levels.len();
        HierarchySim {
            levels,
            latencies_ns,
            stats: AccessStats {
                level_hits: vec![0; n],
                memory_accesses: 0,
                total: 0,
            },
        }
    }

    /// Access an address; returns the latency in ns of the level that
    /// served it and updates statistics.
    pub fn access(&mut self, addr: u64) -> f64 {
        self.stats.total += 1;
        let mut served: Option<usize> = None;
        for (i, level) in self.levels.iter_mut().enumerate() {
            let hit = level.access(addr);
            if hit && served.is_none() {
                served = Some(i);
                // Inclusive fill: inner levels were already updated by the
                // accesses above; outer levels keep their state (an outer
                // hit is impossible to "un-hit"). Stop filling outward on
                // the first hit — inner levels now hold the line.
                break;
            }
        }
        match served {
            Some(i) => {
                self.stats.level_hits[i] += 1;
                self.latencies_ns[i]
            }
            None => {
                self.stats.memory_accesses += 1;
                *self
                    .latencies_ns
                    .last()
                    .expect("hierarchy has a memory latency")
            }
        }
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &AccessStats {
        &self.stats
    }

    /// Reset statistics, keeping cache contents (for warm-up/measure
    /// protocols).
    pub fn reset_stats(&mut self) {
        let n = self.levels.len();
        self.stats = AccessStats {
            level_hits: vec![0; n],
            memory_accesses: 0,
            total: 0,
        };
    }

    /// Flush all cache contents and statistics.
    pub fn flush(&mut self) {
        for l in &mut self.levels {
            l.flush();
        }
        self.reset_stats();
    }

    /// Average latency per access in ns over the recorded statistics.
    pub fn average_latency_ns(&self) -> f64 {
        if self.stats.total == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, &hits) in self.stats.level_hits.iter().enumerate() {
            acc += hits as f64 * self.latencies_ns[i];
        }
        acc += self.stats.memory_accesses as f64
            * self.latencies_ns.last().copied().unwrap_or(0.0);
        acc / self.stats.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maia_arch::presets;

    #[test]
    fn repeat_access_hits() {
        let mut c = SetAssocCache::new(32 * 1024, 64, 8);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same line
        assert!(!c.access(0x1040)); // next line
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct-mapped-ish: 2-way, single set of lines mapping together.
        let mut c = SetAssocCache::new(2 * 64, 64, 2); // 1 set, 2 ways
        assert_eq!(c.capacity_bytes(), 128);
        c.access(0); // A
        c.access(64); // B (different tag, same set)
        c.access(128); // C evicts A (LRU)
        assert!(!c.probe(0));
        assert!(c.probe(64));
        assert!(c.probe(128));
        // Touch B, then insert D: C is now LRU and gets evicted.
        c.access(64);
        c.access(192);
        assert!(c.probe(64));
        assert!(!c.probe(128));
    }

    #[test]
    fn working_set_within_capacity_steady_state_hits() {
        let mut c = SetAssocCache::new(4 * 1024, 64, 8);
        let lines: Vec<u64> = (0..64).map(|i| i * 64).collect(); // 4 KB
        for &a in &lines {
            c.access(a);
        }
        for &a in &lines {
            assert!(c.access(a), "line {a:#x} should be resident");
        }
    }

    #[test]
    fn hierarchy_latency_tracks_working_set() {
        let p = presets::xeon_e5_2670();
        let mut sim = HierarchySim::from_processor(&p);
        // 16 KB working set: after warm-up, all L1 hits at ~1.54 ns.
        let lines: Vec<u64> = (0..256).map(|i| i * 64).collect();
        for _ in 0..2 {
            for &a in &lines {
                sim.access(a);
            }
        }
        sim.reset_stats();
        for &a in &lines {
            sim.access(a);
        }
        assert_eq!(sim.stats().hit_rate(0), 1.0);
        assert!((sim.average_latency_ns() - 4.0 / 2.6).abs() < 1e-9);
    }

    #[test]
    fn hierarchy_miss_to_memory_counts() {
        let p = presets::xeon_phi_5110p();
        let mut sim = HierarchySim::from_processor(&p);
        // Touch 4 MB of distinct lines once: all cold misses to memory.
        let n = 4 * 1024 * 1024 / 64;
        for i in 0..n {
            sim.access(i * 64);
        }
        assert_eq!(sim.stats().memory_accesses, n);
        assert!((sim.average_latency_ns() - 295.0).abs() < 1e-9);
    }

    #[test]
    fn flush_clears_contents() {
        let mut sim = HierarchySim::from_processor(&presets::xeon_e5_2670());
        sim.access(0);
        sim.flush();
        assert_eq!(sim.stats().total, 0);
        // After flush, the same access misses to memory again.
        let lat = sim.access(0);
        assert!((lat - 81.0).abs() < 1e-9);
    }
}
