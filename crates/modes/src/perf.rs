//! The application performance engine: a roofline model with a
//! latency-concurrency bandwidth ceiling.
//!
//! Time for one work unit of a kernel = serial part + parallel part,
//! where the parallel part is bounded by the slower of
//!
//! * the **compute roof**: cores × per-core peak × SIMD efficiency ×
//!   issue efficiency, and
//! * the **memory roof**: traffic / achievable bandwidth, where achievable
//!   bandwidth is the lesser of the STREAM model (`maia-mem`) and the
//!   *latency-concurrency* bound `cores × outstanding-misses ×
//!   line / memory-latency`. The concurrency bound is what separates real
//!   applications from STREAM on the Phi: an in-order core sustains ~2.5
//!   outstanding misses per thread (7.5 per core max), so applications
//!   reach ~96 GB/s of the 140–180 GB/s STREAM plateau — exactly the
//!   paper's observation that memory-bound codes underperform on the Phi.
//!
//! SIMD efficiency accounts for unvectorized fractions (worth 1/lanes)
//! and gather/scatter vector work, which the paper found nearly worthless
//! on the Phi ("the gather-scatter instruction is not efficient on Phi" —
//! vectorized sparse CG only 10% faster than scalar).

use maia_arch::{Faults, ProcessorKind, ProcessorSpec};
use maia_mem::bandwidth::stream_triad_gbs;

/// Resource signature of one application kernel, per work unit
/// (time step, iteration, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    pub name: String,
    /// Useful double-precision flops per work unit.
    pub flops: f64,
    /// DRAM traffic per work unit, bytes (unit-stride equivalent).
    pub dram_bytes: f64,
    /// Fraction of the flops inside vectorizable loops.
    pub vector_fraction: f64,
    /// Of the vectorized work, the fraction needing gather/scatter.
    pub gather_fraction: f64,
    /// Amdahl parallel fraction.
    pub parallel_fraction: f64,
    /// Iteration count of the work-shared outer loop (None = effectively
    /// unbounded). With more threads than a clean multiple of the extent,
    /// the static schedule leaves ragged rounds — the mechanism the MG
    /// `collapse` study (Figure 24) exploits.
    pub parallel_extent: Option<u32>,
    /// DRAM-traffic inflation on the Phi relative to the host (≥ 1).
    /// A core's total cache on the Phi is 5.1× smaller than on the host
    /// (544 KB vs 2.788 MB — paper Section 6.2), so codes blocked for the
    /// host's L3 spill on the Phi and move extra DRAM traffic.
    pub phi_traffic_multiplier: f64,
}

impl KernelProfile {
    /// Validate field ranges.
    ///
    /// # Panics
    /// Panics if any fraction is outside [0, 1] or a magnitude is
    /// non-positive.
    pub fn validate(&self) {
        assert!(self.flops > 0.0, "{}: flops must be positive", self.name);
        assert!(self.dram_bytes >= 0.0);
        assert!(
            self.phi_traffic_multiplier >= 1.0,
            "{}: phi_traffic_multiplier must be >= 1",
            self.name
        );
        for (label, f) in [
            ("vector_fraction", self.vector_fraction),
            ("gather_fraction", self.gather_fraction),
            ("parallel_fraction", self.parallel_fraction),
        ] {
            assert!((0.0..=1.0).contains(&f), "{}: {label} = {f}", self.name);
        }
    }

    /// Bytes of DRAM traffic per flop.
    pub fn bytes_per_flop(&self) -> f64 {
        self.dram_bytes / self.flops
    }
}

/// A device execution target: processor preset plus socket count.
#[derive(Debug, Clone)]
pub struct DeviceTarget {
    pub proc: ProcessorSpec,
    pub sockets: u32,
}

impl DeviceTarget {
    /// The two-socket Sandy Bridge host.
    pub fn host() -> Self {
        DeviceTarget {
            proc: maia_arch::presets::xeon_e5_2670(),
            sockets: 2,
        }
    }

    /// One Phi 5110P card.
    pub fn phi() -> Self {
        DeviceTarget {
            proc: maia_arch::presets::xeon_phi_5110p(),
            sockets: 1,
        }
    }

    /// Hardware threads per core implied by a total thread count
    /// (layouts fill cores before stacking contexts).
    pub fn threads_per_core(&self, threads: u32) -> u32 {
        let cores = self.sockets * self.proc.cores;
        threads.div_ceil(cores).clamp(1, self.proc.core.hw_threads)
    }

    /// Physical cores used by `threads` threads.
    pub fn cores_used(&self, threads: u32) -> u32 {
        threads.div_ceil(self.threads_per_core(threads))
    }
}

/// Per-architecture microarchitectural constants of the engine.
#[derive(Debug, Clone, Copy)]
struct UarchParams {
    /// Sustained outstanding cache-line misses per hardware thread.
    mlp_per_thread: f64,
    /// Cap on outstanding misses per core (MSHR limit).
    mlp_per_core: f64,
    /// Throughput of gather/scatter vector work relative to unit-stride
    /// vector work.
    gather_efficiency: f64,
    /// Effective DRAM traffic inflation per unit of gather fraction
    /// (partial cache-line waste).
    gather_traffic_waste: f64,
    /// Relative performance when both hardware contexts of a
    /// HyperThreaded core are used (the paper measures −6% on MG).
    ht_penalty: f64,
    /// Relative performance when the OS service core is co-opted
    /// (Figure 24: 60 cores much worse than 59).
    os_core_penalty: f64,
}

fn uarch(p: &ProcessorSpec) -> UarchParams {
    match p.kind {
        ProcessorKind::SandyBridge => UarchParams {
            // Out-of-order window + hardware prefetch: per-core bandwidth
            // saturates at one thread (Figure 6's 7.5 GB/s/core).
            mlp_per_thread: 10.0,
            mlp_per_core: 10.0,
            gather_efficiency: 0.5,
            gather_traffic_waste: 1.0,
            ht_penalty: 0.94,
            os_core_penalty: 1.0,
        },
        ProcessorKind::Mic => UarchParams {
            mlp_per_thread: 2.7,
            mlp_per_core: 8.1,
            // "the gather-scatter instruction is not efficient on Phi".
            gather_efficiency: 0.12,
            gather_traffic_waste: 3.0,
            ht_penalty: 1.0,
            os_core_penalty: 0.78,
        },
    }
}

/// The performance engine.
#[derive(Debug, Clone)]
pub struct PerfModel {
    pub target: DeviceTarget,
    /// The machine the STREAM bound is priced on.
    pub faults: Faults,
}

impl PerfModel {
    /// Engine for a target device on the machine `faults` describes.
    pub fn new(target: DeviceTarget, faults: &Faults) -> Self {
        PerfModel {
            target,
            faults: faults.clone(),
        }
    }

    /// Convenience: the host engine. No fault perturbs it: the host's
    /// DDR3 has no GDDR5 banks to retire.
    pub fn host() -> Self {
        Self::new(DeviceTarget::host(), &Faults::default())
    }

    /// Convenience: the single-Phi engine on the card `faults` describes.
    pub fn phi(faults: &Faults) -> Self {
        Self::new(DeviceTarget::phi(), faults)
    }

    /// Achievable compute rate in Gflop/s for a kernel at `threads`.
    pub fn compute_roof_gflops(&self, k: &KernelProfile, threads: u32) -> f64 {
        let p = &self.target.proc;
        let u = uarch(p);
        let tpc = self.target.threads_per_core(threads);
        let cores = self.target.cores_used(threads);
        let lanes = p.core.simd_dp_lanes() as f64;
        let vf = k.vector_fraction;
        let gf = k.gather_fraction;
        let simd_eff = vf * (1.0 - gf) + vf * gf * u.gather_efficiency + (1.0 - vf) / lanes;
        let issue = p.core.issue_efficiency(tpc.min(p.core.hw_threads));
        let mut rate = cores as f64 * p.core.peak_gflops() * simd_eff * issue;
        if p.kind == ProcessorKind::SandyBridge && tpc > 1 {
            rate *= u.ht_penalty;
        }
        if cores > self.target.sockets * p.app_cores {
            rate *= u.os_core_penalty;
        }
        rate
    }

    /// Achievable memory bandwidth in GB/s at `threads`, for a kernel with
    /// the given gather traffic characteristics.
    pub fn memory_roof_gbs(&self, k: &KernelProfile, threads: u32) -> f64 {
        let p = &self.target.proc;
        let u = uarch(p);
        let tpc = self.target.threads_per_core(threads);
        let cores = self.target.cores_used(threads);
        // Latency-concurrency bound. Gather chains are dependent loads:
        // an in-order thread sustains far fewer outstanding misses on
        // them than on independent streams, which is why gather-heavy
        // codes keep speeding up through 4 threads/core (Cart3D's
        // optimum, Figure 21) while streaming codes saturate at 3.
        let per_thread_mlp = if p.kind == ProcessorKind::Mic {
            u.mlp_per_thread * (1.0 - k.gather_fraction) + 1.2 * k.gather_fraction
        } else {
            u.mlp_per_thread
        };
        let per_core_misses = (per_thread_mlp * tpc as f64).min(u.mlp_per_core);
        let line = 64.0;
        let lat_bw = cores as f64 * per_core_misses * line / p.memory.idle_latency_ns; // GB/s
        // STREAM (sustained DRAM) bound, including the GDDR5 bank cliff.
        let stream_bw = stream_triad_gbs(p, self.target.sockets, threads, &self.faults);
        let mut bw = lat_bw.min(stream_bw);
        // Gather/scatter wastes partial lines.
        bw /= 1.0 + k.gather_fraction * u.gather_traffic_waste;
        // Context contention on the shared per-core cache/queues: HT on
        // the host costs ~6% (Figure 25); the 4th Phi context a little
        // (3 threads/core is usually the sweet spot, Figure 19).
        if p.kind == ProcessorKind::SandyBridge && tpc > 1 {
            bw *= u.ht_penalty;
        }
        if p.kind == ProcessorKind::Mic && tpc >= p.core.hw_threads {
            bw *= 0.97;
        }
        if cores > self.target.sockets * p.app_cores {
            bw *= u.os_core_penalty;
        }
        bw
    }

    /// The traffic inflation applicable on this target.
    fn phi_traffic(&self, k: &KernelProfile) -> f64 {
        if self.target.proc.kind == ProcessorKind::Mic {
            k.phi_traffic_multiplier
        } else {
            1.0
        }
    }

    /// Rate multiplier from the finite extent of the work-shared loop:
    /// a static schedule over `extent` iterations on `threads` threads
    /// needs `ceil(extent/threads)` rounds, and the last round is ragged.
    /// Idle threads still share cores with busy ones (their contexts'
    /// issue slots and miss buffers are reusable), so the penalty is
    /// softened rather than proportional.
    pub fn extent_utilization(&self, k: &KernelProfile, threads: u32) -> f64 {
        const SOFTEN: f64 = 0.4;
        match k.parallel_extent {
            None => 1.0,
            Some(e) => {
                let e = e as f64;
                let t = threads as f64;
                let rounds = (e / t).ceil();
                let util = e / (rounds * t);
                util + (1.0 - util) * SOFTEN
            }
        }
    }

    /// Wall time in seconds for one work unit of `k` at `threads`.
    pub fn unit_time_s(&self, k: &KernelProfile, threads: u32) -> f64 {
        k.validate();
        assert!(threads >= 1);
        let pf = k.parallel_fraction;
        let util = self.extent_utilization(k, threads);
        // Parallel portion: roofline of compute and memory.
        let t_compute =
            k.flops * pf / (self.compute_roof_gflops(k, threads) * util * 1e9);
        let traffic = k.dram_bytes * pf * self.phi_traffic(k);
        let t_memory = traffic / (self.memory_roof_gbs(k, threads) * util * 1e9);
        let t_par = t_compute.max(t_memory);
        // Serial portion runs on one thread.
        let t1_compute = k.flops * (1.0 - pf) / (self.compute_roof_gflops(k, 1) * 1e9);
        let t1_memory = k.dram_bytes * (1.0 - pf) * self.phi_traffic(k)
            / (self.memory_roof_gbs(k, 1) * 1e9);
        t_par + t1_compute.max(t1_memory)
    }

    /// Achieved application rate in Gflop/s at `threads` (the unit the
    /// paper's NPB figures use).
    pub fn gflops(&self, k: &KernelProfile, threads: u32) -> f64 {
        k.flops / self.unit_time_s(k, threads) / 1e9
    }

    /// Best thread count and rate over a candidate list.
    pub fn best_threads(&self, k: &KernelProfile, candidates: &[u32]) -> (u32, f64) {
        assert!(!candidates.is_empty());
        candidates
            .iter()
            .map(|&t| (t, self.gflops(k, t)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty candidates")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An MG-like kernel: bandwidth-bound, fully vectorized, unit stride.
    fn mg_like() -> KernelProfile {
        KernelProfile {
            name: "mg-like".into(),
            flops: 1e9,
            dram_bytes: 3.27e9,
            vector_fraction: 0.95,
            gather_fraction: 0.0,
            parallel_fraction: 0.9995,
            parallel_extent: None,
            phi_traffic_multiplier: 1.0,
        }
    }

    /// A CG-like kernel: sparse, indirect addressing.
    fn cg_like() -> KernelProfile {
        KernelProfile {
            name: "cg-like".into(),
            flops: 1e9,
            dram_bytes: 4.0e9,
            vector_fraction: 0.9,
            gather_fraction: 0.85,
            parallel_fraction: 0.99,
            parallel_extent: None,
            phi_traffic_multiplier: 1.0,
        }
    }

    #[test]
    fn mg_host_rate_matches_figure25() {
        // Native host, 16 threads: ~23.5 Gflop/s.
        let host = PerfModel::host();
        let r = host.gflops(&mg_like(), 16);
        assert!((r - 23.5).abs() < 1.2, "host MG rate {r}");
    }

    #[test]
    fn mg_phi_beats_host_and_peaks_at_3_threads_per_core() {
        // Native Phi: ~29.9 Gflop/s at 177 threads; 27% above host.
        let phi = PerfModel::phi(&Faults::default());
        let r177 = phi.gflops(&mg_like(), 177);
        assert!((r177 - 29.9).abs() < 2.5, "phi MG rate {r177}");
        let r59 = phi.gflops(&mg_like(), 59);
        let r118 = phi.gflops(&mg_like(), 118);
        assert!(r177 > r118 && r118 > r59, "{r59} {r118} {r177}");
        let host = PerfModel::host().gflops(&mg_like(), 16);
        let gain = r177 / host;
        assert!((1.1..1.45).contains(&gain), "phi/host MG gain {gain}");
    }

    #[test]
    fn os_core_use_hurts_on_phi() {
        // Figure 24: 59/118/177/236 threads much better than 60/120/180/240.
        let phi = PerfModel::phi(&Faults::default());
        let k = mg_like();
        for (good, bad) in [(59u32, 60u32), (118, 120), (177, 180), (236, 240)] {
            assert!(
                phi.gflops(&k, good) > phi.gflops(&k, bad) * 1.05,
                "{good} threads should beat {bad}"
            );
        }
    }

    #[test]
    fn hyperthreading_hurts_on_host() {
        // Figure 25: host 32 threads ~6% below 16 threads.
        let host = PerfModel::host();
        let k = mg_like();
        let r16 = host.gflops(&k, 16);
        let r32 = host.gflops(&k, 32);
        let drop = 1.0 - r32 / r16;
        assert!((0.02..0.12).contains(&drop), "HT drop {drop}");
    }

    #[test]
    fn gather_heavy_kernel_collapses_on_phi() {
        // CG on the Phi is crippled by gather/scatter; the host-to-Phi
        // ratio is much larger than for MG.
        let host = PerfModel::host();
        let phi = PerfModel::phi(&Faults::default());
        let cg_ratio = host.gflops(&cg_like(), 16) / phi.gflops(&cg_like(), 177);
        let mg_ratio = host.gflops(&mg_like(), 16) / phi.gflops(&mg_like(), 177);
        assert!(
            cg_ratio > 1.6 * mg_ratio,
            "cg ratio {cg_ratio} vs mg ratio {mg_ratio}"
        );
        assert!(cg_ratio > 1.5, "CG must be worse on the Phi ({cg_ratio})");
    }

    #[test]
    fn single_phi_thread_is_very_slow() {
        // "Applications with significant serial regions will suffer
        // dramatically because of the relatively slow speed of a Phi core."
        let phi = PerfModel::phi(&Faults::default());
        let host = PerfModel::host();
        let k = mg_like();
        assert!(host.gflops(&k, 1) > 5.0 * phi.gflops(&k, 1));
    }

    #[test]
    fn best_threads_picks_the_peak() {
        let phi = PerfModel::phi(&Faults::default());
        let (t, r) = phi.best_threads(&mg_like(), &[59, 118, 177, 236]);
        assert_eq!(t, 177);
        assert!(r > 0.0);
    }

    #[test]
    #[should_panic(expected = "vector_fraction")]
    fn invalid_profile_rejected() {
        let mut k = mg_like();
        k.vector_fraction = 1.5;
        let _ = PerfModel::host().unit_time_s(&k, 16);
    }
}
