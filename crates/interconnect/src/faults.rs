//! Deterministic fault-injection hooks for the interconnect models.
//!
//! The paper's PCIe/MPI results exist in two variants precisely because
//! the machine's DAPL/MPSS stack misbehaved until a software update
//! (Figures 8–9); companion early-MIC reports document degraded links and
//! flaky cards as the normal state of early systems. This module lets a
//! fault plan (built in `maia-core`) force that degraded world onto the
//! healthy models:
//!
//! * **forced DAPL fallback** — [`SoftwareStack::effective`] maps the
//!   post-update stack back onto the pre-update CCL-direct path, using the
//!   constants already calibrated in [`crate::dapl`] (no new numbers);
//! * **degraded PCIe lane width** — [`crate::pcie::PcieModel`] scales its
//!   framing-derived peak bandwidth by the surviving lane fraction.
//!
//! Every hook is an exact no-op while inactive: the fast path is a single
//! relaxed atomic load and no floating-point operation changes, so golden
//! outputs are byte-identical with the module compiled in. Hook state is
//! process-global (mirroring `maia_sim::probe`); activation is owned and
//! serialized by `maia_core::faults`.
//!
//! [`SoftwareStack::effective`]: crate::dapl::SoftwareStack::effective

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Fast-path flag: true iff any interconnect fault is armed.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Force the post-update DAPL stack down to the pre-update CCL path.
static DAPL_FALLBACK: AtomicBool = AtomicBool::new(false);
/// Surviving PCIe lanes (0 = nominal width).
static PCIE_LANES: AtomicU32 = AtomicU32::new(0);

/// Callback receiving the *extra* seconds each faulted model call costs
/// relative to the nominal model (negative when a fallback happens to be
/// cheaper, e.g. the pre-update phi0-phi1 eager latency).
pub type InjectedTimeObserver = Arc<dyn Fn(f64) + Send + Sync>;

static OBSERVER: OnceLock<RwLock<Option<InjectedTimeObserver>>> = OnceLock::new();

fn observer_slot() -> &'static RwLock<Option<InjectedTimeObserver>> {
    OBSERVER.get_or_init(|| RwLock::new(None))
}

fn refresh_active() {
    ACTIVE.store(
        DAPL_FALLBACK.load(Ordering::Relaxed) || PCIE_LANES.load(Ordering::Relaxed) != 0,
        Ordering::Release,
    );
}

/// Arm or disarm the forced DAPL fallback.
pub fn set_dapl_fallback(on: bool) {
    DAPL_FALLBACK.store(on, Ordering::Relaxed);
    refresh_active();
}

/// Is the pre-update fallback forced right now?
#[inline]
pub fn dapl_fallback_forced() -> bool {
    ACTIVE.load(Ordering::Acquire) && DAPL_FALLBACK.load(Ordering::Relaxed)
}

/// Degrade the host↔Phi PCIe link to `lanes` surviving lanes
/// (`None` restores nominal width).
pub fn set_degraded_pcie_lanes(lanes: Option<u32>) {
    PCIE_LANES.store(lanes.unwrap_or(0), Ordering::Relaxed);
    refresh_active();
}

/// Surviving lane count when the lane-width fault is armed.
#[inline]
pub fn degraded_pcie_lanes() -> Option<u32> {
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    match PCIE_LANES.load(Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Install (or remove) the injected-time observer. `maia-core` routes
/// this into its `faults` telemetry bucket and the resilience report.
pub fn set_injected_time_observer(obs: Option<InjectedTimeObserver>) {
    *observer_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner) = obs;
}

/// Report `extra_s` seconds of fault-injected model time. Only called
/// from code paths already guarded by an active-fault check.
pub(crate) fn note_injected_s(extra_s: f64) {
    if let Some(obs) = observer_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
    {
        obs(extra_s);
    }
}

/// Disarm every interconnect fault and drop the observer.
pub fn clear() {
    set_dapl_fallback(false);
    set_degraded_pcie_lanes(None);
    set_injected_time_observer(None);
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mutation tests live in the serialized cross-crate suite
    // (tests/tests/faults_resilience.rs); flipping the process-global
    // hooks here would race the calibration tests in this binary.
    #[test]
    fn faults_default_inactive() {
        assert!(!dapl_fallback_forced());
        assert_eq!(degraded_pcie_lanes(), None);
    }
}
