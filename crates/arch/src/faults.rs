//! The degraded machine a run simulates, as one plain value.
//!
//! The paper's PCIe/MPI results exist in pre- and post-update variants
//! because the early machine's DAPL stack, links and cards misbehaved.
//! `maia-core` builds a [`Faults`] from a seeded fault plan, and every
//! model a fault perturbs receives it explicitly: inside an MPI world
//! description, or as an argument of the pricing call. The default value
//! is the healthy machine and changes no arithmetic.
//!
//! An armed value also owns its activation's tallies — the model time
//! its faults injected and the mode switches they forced. Clones share
//! them, so every model handed a copy reports to the same activation.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::Device;

/// One straggling rank: from virtual time `from_s`, its compute phases
/// stretch by `slowdown` (≥ 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    pub rank: u32,
    pub slowdown: f64,
    pub from_s: f64,
}

/// The degraded machine one run simulates; the default is healthy.
#[derive(Debug, Clone, Default)]
pub struct Faults {
    /// The post-update DAPL stack regresses to the pre-update CCL path.
    pub dapl_fallback: bool,
    /// Surviving lanes of the host↔Phi PCIe link (`None`: full width).
    pub pcie_lanes: Option<u32>,
    /// The coprocessor that died, if any.
    pub dead_card: Option<Device>,
    /// GDDR5 banks retired on the Phi.
    pub disabled_banks: u32,
    /// Ranks computing slower than nominal.
    pub stragglers: Vec<Straggler>,
    /// Every PCIe-crossing MPI message fails once per entry, paying that
    /// timeout (seconds) plus a wasted transmission, then succeeds.
    pub link_timeouts_s: Vec<f64>,
    /// The activation's shared tallies; `None` on the healthy machine.
    pub tally: Option<Arc<Tally>>,
}

/// What one activation of a plan injected. Built by [`Faults::armed`].
#[derive(Debug)]
pub struct Tally {
    identity: Box<str>,
    /// Net injected model time, signed picoseconds: a forced DAPL
    /// fallback can be *cheaper* on some paths.
    injected_ps: AtomicI64,
    mode_switches: Mutex<BTreeSet<String>>,
    /// Sees every injected-time note, in seconds (`maia-core` feeds its
    /// `faults` telemetry bucket from here).
    observer: Option<fn(f64)>,
}

impl Faults {
    /// A healthy machine with tallies of its own, named `identity` (the
    /// activation's memo-key prefix); the caller sets the faults.
    pub fn armed(identity: &str, observer: Option<fn(f64)>) -> Faults {
        let tally = Tally {
            identity: identity.into(),
            injected_ps: AtomicI64::new(0),
            mode_switches: Mutex::new(BTreeSet::new()),
            observer,
        };
        Faults {
            tally: Some(Arc::new(tally)),
            ..Faults::default()
        }
    }

    /// The activation's name, `None` on the healthy machine.
    pub fn identity(&self) -> Option<&str> {
        self.tally.as_ref().map(|t| &*t.identity)
    }

    /// Tally `extra_s` seconds of injected model time.
    pub fn note_injected_s(&self, extra_s: f64) {
        if let Some(t) = &self.tally {
            t.injected_ps.fetch_add((extra_s * 1e12) as i64, Ordering::Relaxed);
            t.observer.inspect(|obs| obs(extra_s));
        }
    }

    /// Add `ps` picoseconds that another run's tallies counted (a worker
    /// wheel's, or a run that had to complete before it could count).
    pub fn add_injected_ps(&self, ps: i64) {
        if let Some(t) = &self.tally {
            t.injected_ps.fetch_add(ps, Ordering::Relaxed);
            t.observer.inspect(|obs| obs(ps as f64 * 1e-12));
        }
    }

    /// Tally a graceful mode switch a fault forced.
    pub fn note_mode_switch(&self, msg: &str) {
        if let Some(t) = &self.tally {
            let mut switches = t.mode_switches.lock().unwrap_or_else(PoisonError::into_inner);
            switches.insert(msg.to_string());
        }
    }

    /// Net injected model time tallied so far, picoseconds.
    pub fn injected_ps(&self) -> i64 {
        self.tally.as_ref().map_or(0, |t| t.injected_ps.load(Ordering::Relaxed))
    }

    /// Sorted, deduplicated mode-switch notes tallied so far.
    pub fn mode_switches(&self) -> Vec<String> {
        self.tally.as_ref().map_or_else(Vec::new, |t| {
            let switches = t.mode_switches.lock().unwrap_or_else(PoisonError::into_inner);
            switches.iter().cloned().collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_default_inactive() {
        let f = Faults::default();
        f.note_injected_s(1.0);
        f.note_mode_switch("x");
        assert_eq!((f.identity(), f.injected_ps()), (None, 0));
        assert!(f.mode_switches().is_empty());
    }

    #[test]
    fn clones_share_tallies() {
        let f = Faults::armed("faults/x/1/0", None);
        f.clone().note_injected_s(2e-6);
        f.clone().note_mode_switch("b");
        f.note_mode_switch("a");
        f.add_injected_ps(1_000_000);
        assert_eq!((f.identity(), f.injected_ps()), (Some("faults/x/1/0"), 3_000_000));
        assert_eq!(f.mode_switches(), ["a", "b"]);
    }
}
