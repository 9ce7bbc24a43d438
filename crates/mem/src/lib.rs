//! # maia-mem — memory-hierarchy performance model and cache simulator
//!
//! Reproduces the memory-subsystem experiments of Saini et al. (SC'13):
//!
//! * **Figure 4** (STREAM triad vs threads, including the GDDR5 open-bank
//!   cliff past 128 threads) — [`bandwidth::stream_triad_gbs`], plus real
//!   executable STREAM kernels in [`stream`].
//! * **Figure 5** (load latency vs working set) — [`latency`], backed both
//!   by a closed-form capacity model and by a functional set-associative
//!   cache simulator ([`cache_sim`]) that replays pointer-chase traces.
//! * **Figure 6** (per-core read/write bandwidth vs working set) —
//!   [`bandwidth::per_core_bw_gbs`].
//!
//! All model parameters live in `maia-arch`'s presets; this crate supplies
//! the mechanisms that turn parameters into curves. The STREAM model
//! takes the machine's [`maia_arch::Faults`]: retired GDDR5 banks pull
//! the open-bank cliff forward and scale the sustained plateau.

pub mod bandwidth;
pub mod cache_sim;
pub mod hierarchy;
pub mod latency;
pub mod stream;

pub use bandwidth::{per_core_bw_gbs, stream_triad_gbs, AccessKind, StreamPoint};
pub use cache_sim::{AccessStats, HierarchySim, SetAssocCache};
pub use hierarchy::{ModelHierarchy, ModelLevel};
pub use latency::{analytic_latency_ns, chase_latency_ns, latency_sweep, LatencyPoint};
pub use stream::{StreamArrays, StreamKernel};
