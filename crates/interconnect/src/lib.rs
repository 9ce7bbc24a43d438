//! # maia-interconnect — on-node and inter-node fabric models
//!
//! Models every fabric the paper's experiments traverse:
//!
//! * **PCIe** ([`pcie`]): TLP framing efficiency (the 76%/86% ceilings the
//!   paper derives for 64/128-byte payloads), DMA ramp-up, and the offload
//!   bandwidth curve of Figure 18 including its 64 KB dip.
//! * **Node paths** ([`paths`]): host↔Phi0, host↔Phi1 (crosses QPI), and
//!   Phi0↔Phi1 (peer-to-peer via the host root complex).
//! * **DAPL provider stacks** ([`dapl`]): the pre-update (CCL-direct-only)
//!   and post-update (threshold-switched CCL/SCIF) configurations of
//!   Section 5, driving Figures 7–9.
//! * **The Phi's bidirectional ring** ([`ring`]) and **FDR InfiniBand**
//!   ([`ib`]) for inter-node comparisons.
//!
//! DAPL pricing and the PCIe DMA model take the machine's
//! [`maia_arch::Faults`] as an argument: a forced DAPL fallback re-prices
//! post-update traffic with the pre-update stack, and a narrowed link
//! scales the framing-derived peak by its surviving lanes, each tallying
//! the injected time on the value. The healthy value changes nothing.

pub mod dapl;
pub mod ib;
pub mod paths;
pub mod pcie;
pub mod ring;

pub use dapl::{Protocol, Provider, SoftwareStack, EAGER_THRESHOLD, SCIF_THRESHOLD};
pub use ib::IbLink;
pub use paths::NodePath;
pub use pcie::PcieModel;
pub use ring::RingSpec;
