//! # maia-modes — the four Phi programming modes
//!
//! The paper evaluates applications in four modes (its Section 4):
//!
//! * **native host** / **native Phi** — the whole program on one device;
//!   modeled by the roofline-with-latency-concurrency engine in [`perf`].
//! * **offload** ([`offload`]) — compute regions shipped to the Phi with
//!   explicit data transfer over PCIe; an [`offload::OffloadReport`]
//!   breaks down the cost like Intel's `OFFLOAD_REPORT` (Figures 25–27).
//! * **symmetric** ([`symmetric`]) — MPI ranks spread over
//!   host + Phi0 + Phi1, with PCIe communication through the DAPL stacks
//!   (Figure 23).
//!
//! Each mode is priced on the machine a [`maia_arch::Faults`] value
//! describes. A dead card degrades gracefully instead of erroring:
//! offload to it runs host-only, and symmetric mode drops it from the
//! split; both tally the mode switch on the value.

pub mod offload;
pub mod perf;
pub mod symmetric;

pub use offload::{OffloadPlan, OffloadRegion, OffloadReport};
pub use perf::{DeviceTarget, KernelProfile, PerfModel};
pub use symmetric::{SymmetricLayout, SymmetricOutcome};
