//! Deterministic fault-injection hooks for the MPI runtime.
//!
//! Two faults from the early-MIC experience reports:
//!
//! * **Straggler ranks** — a rank computes `slowdown`× slower from a
//!   given virtual time onward (thermal throttling, a sick core, an OS
//!   jitter victim). Activation is a *pure function* of `(rank, now)`,
//!   so concurrently running worlds in a parallel sweep all see the same
//!   deterministic behaviour with no cross-world races.
//! * **Degraded DAPL links** — every PCIe-crossing message pays
//!   `extra_retries` modeled timeout/retry rounds with exponential
//!   backoff before succeeding, the classic symptom of the flaky
//!   pre-update CCL path.
//!
//! Same contract as the sibling `faults` modules: one relaxed atomic
//! load when inactive, zero arithmetic changes, byte-identical goldens.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use maia_sim::SimDuration;

/// One straggling rank: from virtual time `from_s`, its compute phases
/// stretch by `slowdown` (>= 1.0).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    pub rank: u32,
    pub slowdown: f64,
    pub from_s: f64,
}

/// A degraded link: every DAPL (PCIe-crossing) message pays one
/// timeout/retransmit round per entry of `timeouts_s` before
/// succeeding. The schedule is precomputed by the caller —
/// `maia_core::backoff::BackoffPolicy` builds the classic exponential
/// doubling sequence — so this crate stays free of backoff policy and
/// the arithmetic is shared with the supervisor's respawn delays.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkFault {
    /// Per-failed-attempt timeout, seconds, in attempt order. Each
    /// failed attempt additionally wastes one wire transmission.
    pub timeouts_s: Vec<f64>,
}

#[derive(Default)]
struct Config {
    stragglers: Vec<Straggler>,
    link: Option<LinkFault>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CONFIG: OnceLock<RwLock<Config>> = OnceLock::new();

/// Callback receiving the extra seconds each faulted model call costs.
pub type InjectedTimeObserver = Arc<dyn Fn(f64) + Send + Sync>;

static OBSERVER: OnceLock<RwLock<Option<InjectedTimeObserver>>> = OnceLock::new();

fn config_slot() -> &'static RwLock<Config> {
    CONFIG.get_or_init(|| RwLock::new(Config::default()))
}

fn observer_slot() -> &'static RwLock<Option<InjectedTimeObserver>> {
    OBSERVER.get_or_init(|| RwLock::new(None))
}

fn with_config<R>(f: impl FnOnce(&mut Config) -> R) -> R {
    let mut cfg = config_slot()
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let r = f(&mut cfg);
    ACTIVE.store(
        !cfg.stragglers.is_empty() || cfg.link.is_some(),
        Ordering::Release,
    );
    r
}

/// Install the straggler set (empty disarms).
pub fn set_stragglers(stragglers: Vec<Straggler>) {
    with_config(|c| c.stragglers = stragglers);
}

/// Arm or disarm the degraded-link fault.
pub fn set_link_fault(link: Option<LinkFault>) {
    with_config(|c| c.link = link);
}

/// Install (or remove) the injected-time observer. `maia-core` routes
/// this into its `faults` telemetry bucket and the resilience report.
pub fn set_injected_time_observer(obs: Option<InjectedTimeObserver>) {
    *observer_slot().write().unwrap_or_else(std::sync::PoisonError::into_inner) = obs;
}

/// Whether any MPI-layer fault (straggler or link) is currently armed —
/// one relaxed load.
pub fn any_active() -> bool {
    ACTIVE.load(Ordering::Acquire)
}

/// Disarm every MPI fault and drop the observer.
pub fn clear() {
    with_config(|c| *c = Config::default());
    set_injected_time_observer(None);
}

pub(crate) fn note_injected_s(extra_s: f64) {
    if let Some(obs) = observer_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .as_ref()
    {
        obs(extra_s);
    }
}

/// Stretch a compute phase of `rank` starting at virtual time `now_s`.
/// Pure in the armed configuration: the answer depends only on the
/// arguments and the installed straggler set.
pub(crate) fn stretched_compute(rank: u32, now_s: f64, dur: SimDuration) -> SimDuration {
    if !ACTIVE.load(Ordering::Acquire) {
        return dur;
    }
    let cfg = config_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(s) = cfg
        .stragglers
        .iter()
        .find(|s| s.rank == rank && now_s >= s.from_s)
    else {
        return dur;
    };
    let slow = s.slowdown.max(1.0);
    let stretched = SimDuration::from_secs_f64(dur.as_secs_f64() * slow);
    note_injected_s(stretched.as_secs_f64() - dur.as_secs_f64());
    stretched
}

/// Extra seconds a DAPL message pays on a degraded link: one failed
/// attempt per schedule entry, each costing that (pre-backed-off)
/// timeout plus a wasted wire transmission of `base_s`.
pub(crate) fn link_retry_extra_s(base_s: f64) -> f64 {
    if !ACTIVE.load(Ordering::Acquire) {
        return 0.0;
    }
    let cfg = config_slot()
        .read()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let Some(link) = cfg.link.as_ref() else {
        return 0.0;
    };
    let extra: f64 = link.timeouts_s.iter().map(|t| t + base_s).sum();
    if extra > 0.0 {
        note_injected_s(extra);
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;

    // Mutation tests live in the serialized cross-crate suite
    // (tests/tests/faults_resilience.rs); flipping the process-global
    // hooks here would race the calibrated world tests in this binary.
    #[test]
    fn faults_default_inactive() {
        let d = SimDuration::from_secs_f64(1.5e-3);
        assert_eq!(stretched_compute(3, 0.0, d), d);
        assert_eq!(link_retry_extra_s(1e-4), 0.0);
    }
}
