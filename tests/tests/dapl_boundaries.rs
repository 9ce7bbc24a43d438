//! Regression tests pinning DAPL protocol/provider selection and message
//! costs at the exact Intel MPI thresholds (`I_MPI_DAPL_DIRECT_COPY_
//! THRESHOLD=8192,262144`): eager strictly below 8 KiB, the second
//! provider (SCIF) taking over AT 256 KiB. These boundaries are where
//! the `bytes = 131073` proptest shrink landed, so every ±1 neighbour is
//! pinned for both software stacks on all three node paths.

use maia_arch::Faults;
use maia_interconnect::{
    NodePath, Protocol, Provider, SoftwareStack, EAGER_THRESHOLD, SCIF_THRESHOLD,
};

const STACKS: [SoftwareStack; 2] = [SoftwareStack::PreUpdate, SoftwareStack::PostUpdate];

#[test]
fn protocol_selection_at_eager_threshold() {
    for stack in STACKS {
        assert_eq!(
            stack.protocol_for(EAGER_THRESHOLD - 1),
            Protocol::Eager,
            "{stack:?}: one byte under the threshold must stay eager"
        );
        let rendezvous = match stack {
            SoftwareStack::PreUpdate => Protocol::RendezvousStagedCopy,
            SoftwareStack::PostUpdate => Protocol::RendezvousDirectCopy,
        };
        assert_eq!(
            stack.protocol_for(EAGER_THRESHOLD),
            rendezvous,
            "{stack:?}: exactly 8192 bytes already pays the handshake"
        );
        assert_eq!(stack.protocol_for(EAGER_THRESHOLD + 1), rendezvous);
    }
}

#[test]
fn provider_selection_at_scif_threshold() {
    let post = SoftwareStack::PostUpdate;
    assert_eq!(post.provider_for(SCIF_THRESHOLD - 1), Provider::CclDirect);
    assert_eq!(
        post.provider_for(SCIF_THRESHOLD),
        Provider::Scif,
        "the second provider takes over AT 262144, not one byte past it"
    );
    assert_eq!(post.provider_for(SCIF_THRESHOLD + 1), Provider::Scif);
    // The pre-update stack never leaves CCL-direct, threshold or not.
    for bytes in [SCIF_THRESHOLD - 1, SCIF_THRESHOLD, SCIF_THRESHOLD + 1] {
        assert_eq!(
            SoftwareStack::PreUpdate.provider_for(bytes),
            Provider::CclDirect
        );
    }
}

/// The exact costs at the boundary, reconstructed from the model's own
/// published parameters: `lat + bytes/bw` plus `2·lat` for rendezvous
/// (and a `bytes/5 GB/s` staging term for pre-update rendezvous).
#[test]
fn message_costs_at_both_thresholds_match_closed_form() {
    for stack in STACKS {
        for path in NodePath::ALL {
            for bytes in [
                EAGER_THRESHOLD - 1,
                EAGER_THRESHOLD,
                EAGER_THRESHOLD + 1,
                SCIF_THRESHOLD - 1,
                SCIF_THRESHOLD,
                SCIF_THRESHOLD + 1,
            ] {
                let lat = stack.base_latency_us(path) * 1e-6;
                let bw = SoftwareStack::provider_bw_gbs(stack.provider_for(bytes), path) * 1e9;
                let expected = lat
                    + bytes as f64 / bw
                    + match stack.protocol_for(bytes) {
                        Protocol::Eager => 0.0,
                        Protocol::RendezvousDirectCopy => 2.0 * lat,
                        Protocol::RendezvousStagedCopy => 2.0 * lat + bytes as f64 / 5e9,
                    };
                let got = stack.message_time_s(path, bytes, &Faults::default());
                assert!(
                    (got - expected).abs() < 1e-12,
                    "{stack:?} {path} {bytes}B: {got} vs {expected}"
                );
            }
        }
    }
}

/// Crossing the eager threshold costs the handshake, so time must jump
/// up (never down) from 8191 to 8192 bytes; crossing the SCIF threshold
/// moves to a faster-or-equal provider, so time must not jump up.
#[test]
fn cost_is_sane_across_both_switch_points() {
    for stack in STACKS {
        for path in NodePath::ALL {
            let before_eager = stack.message_time_s(path, EAGER_THRESHOLD - 1, &Faults::default());
            let at_eager = stack.message_time_s(path, EAGER_THRESHOLD, &Faults::default());
            assert!(
                at_eager > before_eager,
                "{stack:?} {path}: rendezvous handshake should cost extra"
            );

            let before_scif = stack.message_time_s(path, SCIF_THRESHOLD - 1, &Faults::default());
            let at_scif = stack.message_time_s(path, SCIF_THRESHOLD, &Faults::default());
            assert!(
                at_scif <= before_scif * 1.001,
                "{stack:?} {path}: provider switch must not slow a message down \
                 ({before_scif} -> {at_scif})"
            );
        }
    }
}

/// The band the `bytes = 131073` regression exercised: between the two
/// thresholds every stack/path must be cost-monotone in message size —
/// a bigger message never completes faster. (AT the SCIF switch the time
/// legitimately drops — the provider is ~3x faster — which
/// `cost_is_sane_across_both_switch_points` covers; this test stops one
/// step short of the switch.)
#[test]
fn monotone_cost_in_the_ccl_direct_band() {
    for stack in STACKS {
        for path in NodePath::ALL {
            let mut prev = 0.0;
            let mut bytes = EAGER_THRESHOLD;
            while bytes < SCIF_THRESHOLD {
                let t = stack.message_time_s(path, bytes, &Faults::default());
                assert!(
                    t >= prev,
                    "{stack:?} {path}: cost fell from {prev} to {t} at {bytes}B"
                );
                prev = t;
                bytes += 4096; // steps land exactly on 128 KiB and 131073-adjacent sizes
            }
            // And the exact shrink value from the proptest regression.
            let t = |bytes| stack.message_time_s(path, bytes, &Faults::default());
            assert!(t(131_073) >= t(131_072));
        }
    }
}
