//! # maia-arch — hardware description of the Maia system
//!
//! Typed, parameter-level descriptions of the two processors evaluated by
//! Saini et al. (SC'13) — the Intel Xeon E5-2670 "Sandy Bridge" host
//! processor and the Intel Xeon Phi 5110P "Knights Corner" coprocessor —
//! plus the node and system they compose into.
//!
//! The design rule of this crate is that *derived* quantities (peak
//! Gflop/s, peak memory bandwidth, aggregate system performance, Table 1 of
//! the paper) are **computed** from first-principle parameters (clock,
//! SIMD width, channel counts, transfer rates) rather than transcribed, so
//! the reproduction is falsifiable: if a parameter is wrong, the derived
//! table disagrees with the paper.
//!
//! [`Faults`] describes a degraded machine (the early system's DAPL
//! regression, narrowed links, dead cards, retired GDDR5 banks,
//! stragglers) as one plain value that every fault-aware model receives.
//!
//! ```
//! use maia_arch::presets;
//!
//! let host = presets::xeon_e5_2670();
//! assert_eq!(host.peak_gflops_per_core(), 20.8);
//! let phi = presets::xeon_phi_5110p();
//! assert_eq!(phi.peak_gflops(), 1008.0);
//! ```

pub mod cache;
pub mod core_spec;
pub mod device;
pub mod faults;
pub mod memory;
pub mod node;
pub mod presets;
pub mod processor;
pub mod system;
pub mod table;

pub use cache::{CacheLevel, CacheSpec};
pub use core_spec::{CoreSpec, ExecutionStyle, ThreadingKind};
pub use device::Device;
pub use faults::Faults;
pub use memory::{MemoryKind, MemorySpec};
pub use node::{NodeSpec, PcieGen, PcieSpec, QpiSpec};
pub use processor::{ProcessorKind, ProcessorSpec};
pub use system::SystemSpec;
