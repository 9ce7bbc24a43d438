//! How the MPI runtime prices the two faults of the early-MIC experience
//! reports that act on it, read from the [`Faults`] a
//! [`crate::WorldSpec`] carries:
//!
//! * **Straggler ranks** compute `slowdown`× slower from a given virtual
//!   time onward (thermal throttling, a sick core, an OS jitter victim),
//!   a pure function of `(rank, now)`.
//! * **Degraded DAPL links** make every PCIe-crossing message pay one
//!   timeout/retry round per entry of the backoff schedule, the classic
//!   symptom of the flaky pre-update CCL path.
//!
//! On the healthy value each is one empty-field check.

use maia_arch::Faults;
use maia_sim::SimDuration;

/// Whether a process-wide fault plan is armed. There is none: the plan
/// travels with each run as a [`Faults`] value, so this is always
/// `false`. It stays for the benchmark's hook-cost row, which a
/// benchmark change will retarget at the value's field check.
pub fn any_active() -> bool {
    false
}

/// Stretch a compute phase of `rank` starting at virtual time `now_s`
/// under `faults`' stragglers, tallying the extra time.
pub(crate) fn stretched_compute(
    faults: &Faults,
    rank: u32,
    now_s: f64,
    dur: SimDuration,
) -> SimDuration {
    let Some(s) = faults
        .stragglers
        .iter()
        .find(|s| s.rank == rank && now_s >= s.from_s)
    else {
        return dur;
    };
    let slow = s.slowdown.max(1.0);
    let stretched = SimDuration::from_secs_f64(dur.as_secs_f64() * slow);
    faults.note_injected_s(stretched.as_secs_f64() - dur.as_secs_f64());
    stretched
}

/// Extra seconds a DAPL message pays on `faults`' degraded link: one
/// failed attempt per schedule entry, each costing that (pre-backed-off)
/// timeout plus a wasted wire transmission of `base_s`.
pub(crate) fn link_retry_extra_s(faults: &Faults, base_s: f64) -> f64 {
    if faults.link_timeouts_s.is_empty() {
        return 0.0;
    }
    let extra: f64 = faults.link_timeouts_s.iter().map(|t| t + base_s).sum();
    if extra > 0.0 {
        faults.note_injected_s(extra);
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_default_inactive() {
        let healthy = Faults::default();
        let d = SimDuration::from_secs_f64(1.5e-3);
        assert_eq!(stretched_compute(&healthy, 3, 0.0, d), d);
        assert_eq!(link_retry_extra_s(&healthy, 1e-4), 0.0);
        assert!(!any_active());
    }
}
