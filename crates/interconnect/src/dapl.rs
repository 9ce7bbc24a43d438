//! DAPL provider stacks for MPI over PCIe (paper Section 5).
//!
//! Intel MPI reaches a Phi through a DAPL provider. Two were available:
//!
//! * **CCL-direct** (`ofa-v2-mlx4_0-1`): lowest latency, routes through
//!   the IB HCA's PCIe peer-to-peer path; poor bandwidth, dramatically so
//!   when the transaction crosses the inter-socket QPI (host↔Phi1).
//! * **SCIF** (`ofa-v2-scif0`): the Symmetric Communication Interface,
//!   staging through host memory with pipelined DMA — high bandwidth,
//!   slightly higher small-message cost.
//!
//! The *pre-update* stack (MPSS Gold, Intel MPI 4.1.0.030) used CCL-direct
//! for every message size. The *post-update* stack (MPSS Gold update 3,
//! MPI 4.1.1.036) switches provider by message size, giving the paper's
//! three states: eager ≤ 8 KB (CCL), rendezvous direct-copy ≤ 256 KB
//! (CCL), rendezvous over SCIF above 256 KB.

use maia_arch::Faults;

use crate::paths::NodePath;

/// The two DAPL providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provider {
    /// CCL-direct (`ofa-v2-mlx4_0-1`).
    CclDirect,
    /// DAPL over SCIF (`ofa-v2-scif0`).
    Scif,
}

/// MPI point-to-point wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// Message piggybacks on the envelope; no handshake.
    Eager,
    /// Receiver-ready handshake (one extra round trip), then a zero-copy
    /// direct transfer.
    RendezvousDirectCopy,
    /// Handshake plus a staging copy through an intermediate buffer — the
    /// pre-update stack's behaviour for large CCL messages.
    RendezvousStagedCopy,
}

/// A complete provider configuration: which provider and protocol serve a
/// given message size, and the path-dependent costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SoftwareStack {
    /// MPSS Gold + Intel MPI 4.1.0.030: CCL-direct for all sizes.
    PreUpdate,
    /// MPSS Gold update 3 + Intel MPI 4.1.1.036 with
    /// `I_MPI_DAPL_DIRECT_COPY_THRESHOLD=8192,262144` and
    /// `I_MPI_DAPL_PROVIDER_LIST=ofa-v2-mlx4_0-1,ofa-v2-scif0`.
    PostUpdate,
}

/// Eager/rendezvous threshold (8 KB).
pub const EAGER_THRESHOLD: u64 = 8 * 1024;
/// CCL/SCIF switch point in the post-update stack (256 KB).
pub const SCIF_THRESHOLD: u64 = 256 * 1024;

/// Host-side memcpy bandwidth used by the staged-copy protocol, GB/s.
const STAGING_COPY_GBS: f64 = 5.0;

impl SoftwareStack {
    /// The stack that actually serves traffic on the machine `faults`
    /// describes.
    ///
    /// Under the forced-fallback fault the post-update stack degrades to
    /// the pre-update CCL-direct configuration — exactly the regression
    /// the paper's software update fixed — reusing the pre-update
    /// constants already calibrated above (no new numbers). Without the
    /// fault this is the identity.
    pub fn effective(self, faults: &Faults) -> SoftwareStack {
        match self {
            SoftwareStack::PostUpdate if faults.dapl_fallback => SoftwareStack::PreUpdate,
            s => s,
        }
    }

    /// Which provider carries a message of `bytes`.
    pub fn provider_for(self, bytes: u64) -> Provider {
        match self {
            SoftwareStack::PreUpdate => Provider::CclDirect,
            SoftwareStack::PostUpdate => {
                // `I_MPI_DAPL_DIRECT_COPY_THRESHOLD=8192,262144`: the
                // second provider takes over AT the threshold, not one
                // byte past it.
                if bytes >= SCIF_THRESHOLD {
                    Provider::Scif
                } else {
                    Provider::CclDirect
                }
            }
        }
    }

    /// Which protocol carries a message of `bytes`.
    pub fn protocol_for(self, bytes: u64) -> Protocol {
        // Messages strictly shorter than the first threshold go eager;
        // a message of exactly 8192 bytes already pays the rendezvous
        // handshake (Intel MPI threshold semantics).
        if bytes < EAGER_THRESHOLD {
            Protocol::Eager
        } else {
            match self {
                // The pre-update CCL rendezvous stages through a bounce
                // buffer; the post-update stack direct-copies.
                SoftwareStack::PreUpdate => Protocol::RendezvousStagedCopy,
                SoftwareStack::PostUpdate => Protocol::RendezvousDirectCopy,
            }
        }
    }

    /// Zero-byte one-way MPI latency on a path, microseconds
    /// (calibrated to Figure 7).
    pub fn base_latency_us(self, path: NodePath) -> f64 {
        match (self, path) {
            // Pre-update: 3.3 / 4.6 / 6.3 us.
            (SoftwareStack::PreUpdate, NodePath::HostPhi0) => 3.3,
            (SoftwareStack::PreUpdate, NodePath::HostPhi1) => 4.6,
            (SoftwareStack::PreUpdate, NodePath::Phi0Phi1) => 6.3,
            // Post-update: 3.3 / 4.1 / 6.6 us ("almost [the] same").
            (SoftwareStack::PostUpdate, NodePath::HostPhi0) => 3.3,
            (SoftwareStack::PostUpdate, NodePath::HostPhi1) => 4.1,
            (SoftwareStack::PostUpdate, NodePath::Phi0Phi1) => 6.6,
        }
    }

    /// Sustained wire bandwidth of `provider` on `path`, GB/s.
    ///
    /// CCL values are calibrated from the pre-update 4 MB measurements
    /// (1.6 / 0.455 / 0.444 GB/s after subtracting the staging-copy term);
    /// SCIF values from the post-update measurements (6 / 6 / 0.899 GB/s).
    pub fn provider_bw_gbs(provider: Provider, path: NodePath) -> f64 {
        match (provider, path) {
            (Provider::CclDirect, NodePath::HostPhi0) => 2.3,
            // Peer reads across QPI collapse to ~0.5 GB/s.
            (Provider::CclDirect, NodePath::HostPhi1) => 0.50,
            (Provider::CclDirect, NodePath::Phi0Phi1) => 0.49,
            (Provider::Scif, NodePath::HostPhi0) => 6.2,
            (Provider::Scif, NodePath::HostPhi1) => 6.2,
            // Store-and-forward through host memory: two PCIe crossings.
            (Provider::Scif, NodePath::Phi0Phi1) => 0.92,
        }
    }

    /// One-way time in seconds for an MPI message of `bytes` on `path`.
    ///
    /// Dispatches through [`SoftwareStack::effective`]: a forced DAPL
    /// fallback silently re-prices post-update traffic with the
    /// pre-update stack and tallies the (signed) delta on `faults`.
    pub fn message_time_s(self, path: NodePath, bytes: u64, faults: &Faults) -> f64 {
        let eff = self.effective(faults);
        let t = eff.raw_message_time_s(path, bytes);
        if eff != self {
            // The delta can be negative: the pre-update phi0-phi1 eager
            // latency (6.3 us) undercuts post-update (6.6 us).
            faults.note_injected_s(t - self.raw_message_time_s(path, bytes));
        }
        t
    }

    /// The undegraded model: one-way time for `bytes` on `path` priced
    /// strictly by `self`'s own provider/protocol tables.
    fn raw_message_time_s(self, path: NodePath, bytes: u64) -> f64 {
        let provider = self.provider_for(bytes);
        let protocol = self.protocol_for(bytes);
        let lat = self.base_latency_us(path) * 1e-6;
        let bw = Self::provider_bw_gbs(provider, path) * 1e9;
        let mut t = lat + bytes as f64 / bw;
        match protocol {
            Protocol::Eager => {}
            Protocol::RendezvousDirectCopy => t += 2.0 * lat,
            Protocol::RendezvousStagedCopy => {
                t += 2.0 * lat + bytes as f64 / (STAGING_COPY_GBS * 1e9);
            }
        }
        t
    }

    /// Achieved bandwidth in GB/s for `bytes` on `path` — the Figure 8
    /// curves of the healthy machine.
    pub fn bandwidth_gbs(self, path: NodePath, bytes: u64) -> f64 {
        assert!(bytes > 0, "cannot measure zero-byte bandwidth");
        bytes as f64 / self.raw_message_time_s(path, bytes) / 1e9
    }

    /// Figure 9: post/pre bandwidth gain ratio for `bytes` on `path`.
    pub fn update_gain(path: NodePath, bytes: u64) -> f64 {
        SoftwareStack::PostUpdate.bandwidth_gbs(path, bytes)
            / SoftwareStack::PreUpdate.bandwidth_gbs(path, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB4: u64 = 4 * 1024 * 1024;

    #[test]
    fn figure7_latencies() {
        assert_eq!(
            SoftwareStack::PreUpdate.base_latency_us(NodePath::HostPhi0),
            3.3
        );
        assert_eq!(
            SoftwareStack::PostUpdate.base_latency_us(NodePath::HostPhi1),
            4.1
        );
        // Latencies involving Phi1 exceed the Phi0-only path in both stacks.
        for s in [SoftwareStack::PreUpdate, SoftwareStack::PostUpdate] {
            assert!(s.base_latency_us(NodePath::HostPhi1) > s.base_latency_us(NodePath::HostPhi0));
            assert!(s.base_latency_us(NodePath::Phi0Phi1) > s.base_latency_us(NodePath::HostPhi1));
        }
    }

    #[test]
    fn figure8_pre_update_4mb_bandwidths() {
        let pre = SoftwareStack::PreUpdate;
        let b0 = pre.bandwidth_gbs(NodePath::HostPhi0, MB4);
        let b1 = pre.bandwidth_gbs(NodePath::HostPhi1, MB4);
        let bp = pre.bandwidth_gbs(NodePath::Phi0Phi1, MB4);
        assert!((b0 - 1.6).abs() < 0.15, "host-phi0 {b0}");
        assert!((b1 - 0.455).abs() < 0.03, "host-phi1 {b1}");
        assert!((bp - 0.444).abs() < 0.03, "phi0-phi1 {bp}");
    }

    #[test]
    fn figure8_post_update_4mb_bandwidths() {
        let post = SoftwareStack::PostUpdate;
        let b0 = post.bandwidth_gbs(NodePath::HostPhi0, MB4);
        let b1 = post.bandwidth_gbs(NodePath::HostPhi1, MB4);
        let bp = post.bandwidth_gbs(NodePath::Phi0Phi1, MB4);
        assert!((b0 - 6.0).abs() < 0.2, "host-phi0 {b0}");
        assert!((b1 - 6.0).abs() < 0.2, "host-phi1 {b1}");
        assert!((bp - 0.899).abs() < 0.05, "phi0-phi1 {bp}");
        // The post-update stack removes the host-phi asymmetry.
        assert!((b0 - b1).abs() / b0 < 0.02);
    }

    #[test]
    fn figure9_gain_ranges() {
        // >= 256 KB: 2–3.8x for host-phi0, 7–13x for host-phi1, ~2x p2p.
        let g0 = SoftwareStack::update_gain(NodePath::HostPhi0, MB4);
        assert!(g0 > 2.0 && g0 < 4.0, "host-phi0 gain {g0}");
        let g1 = SoftwareStack::update_gain(NodePath::HostPhi1, MB4);
        assert!(g1 > 7.0 && g1 < 14.0, "host-phi1 gain {g1}");
        let gp = SoftwareStack::update_gain(NodePath::Phi0Phi1, MB4);
        assert!(gp > 1.7 && gp < 2.2, "phi0-phi1 gain {gp}");
        // Small/medium messages: modest gains (1–1.5x).
        for kb in [1u64, 4, 64, 128] {
            let g = SoftwareStack::update_gain(NodePath::HostPhi0, kb * 1024);
            assert!((0.99..1.6).contains(&g), "gain at {kb} KB: {g}");
        }
    }

    #[test]
    fn three_protocol_states() {
        let post = SoftwareStack::PostUpdate;
        assert_eq!(post.protocol_for(4 * 1024), Protocol::Eager);
        assert_eq!(post.provider_for(64 * 1024), Provider::CclDirect);
        assert_eq!(
            post.protocol_for(64 * 1024),
            Protocol::RendezvousDirectCopy
        );
        assert_eq!(post.provider_for(1024 * 1024), Provider::Scif);
        // Pre-update never leaves CCL.
        assert_eq!(
            SoftwareStack::PreUpdate.provider_for(16 * 1024 * 1024),
            Provider::CclDirect
        );
    }

    #[test]
    fn faults_default_inactive() {
        // The healthy value leaves both stacks alone; a forced fallback
        // prices post-update traffic on the pre-update stack.
        let fallback = Faults { dapl_fallback: true, ..Faults::default() };
        for stack in [SoftwareStack::PreUpdate, SoftwareStack::PostUpdate] {
            assert_eq!(stack.effective(&Faults::default()), stack);
            assert_eq!(stack.effective(&fallback), SoftwareStack::PreUpdate);
        }
    }

    #[test]
    fn bandwidth_is_monotone_in_size_per_stack() {
        for stack in [SoftwareStack::PreUpdate, SoftwareStack::PostUpdate] {
            for path in NodePath::ALL {
                let mut prev = 0.0;
                for kb in [1u64, 8, 64, 256, 1024, 4096] {
                    let bw = stack.bandwidth_gbs(path, kb * 1024);
                    assert!(
                        bw >= prev * 0.95,
                        "{stack:?} {path} dropped sharply at {kb} KB"
                    );
                    prev = bw;
                }
            }
        }
    }
}
