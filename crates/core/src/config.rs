//! The run configuration: one value naming the conditions every cell of a
//! run is computed under — engine, event-wheel count, exchange backend,
//! and the armed fault plan, if any — and how the run executes.
//!
//! The CLI builds it from its flags and, through [`RunConfig::with_knobs`],
//! its `MAIA_*` environment; library callers that set the `maia_mpi`
//! process defaults get [`RunConfig::current`]. The executor passes the
//! snapshot to every experiment. A fault plan is armed onto a config by
//! [`crate::faults::arm`], and the experiments hand the armed value to
//! every model it perturbs. Every memo key carries the cell-shaping part
//! of the config, so one process can run several configs side by side
//! without their cached cells colliding.

use std::borrow::Cow;
use std::ffi::OsStr;
use std::path::PathBuf;
use std::time::Duration;

use maia_arch::Faults;
use maia_mpi::fastpath::{EngineMode, SelectedEngine};
use maia_mpi::process_backend::{Backend, ChaosSpec};

use crate::experiments::ExperimentId;
use crate::faults::ForcedFailure;

/// The configuration a run's cells are computed under.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// `--engine`: automatic, always the DES, or always the closed forms.
    pub(crate) engine: EngineMode,
    /// `--partitions`: event wheels of the partitioned cluster DES (≥ 1).
    pub(crate) partitions: usize,
    /// `--backend`: exchange transport of partitioned cluster runs.
    pub(crate) backend: Backend,
    /// The machine the cells are computed on: the armed fault plan
    /// (named `faults/{name}/{seed}/{activation}`), or the healthy one.
    pub(crate) armed: Faults,
    /// `MAIA_EXPERIMENT_TIMEOUT_S`: the per-experiment watchdog budget.
    pub(crate) watchdog: Duration,
    /// `MAIA_FAULT_{PANIC,DEADLOCK,HANG}`: experiments to kill that way.
    pub(crate) forced: Vec<(ExperimentId, ForcedFailure)>,
    /// How the process backend runs its workers.
    pub(crate) supervise: Supervision,
}

/// How the supervisor spawns, watches and retries worker processes.
#[derive(Debug, Clone)]
pub(crate) struct Supervision {
    /// `MAIA_WORKER_BIN`: whose `partition-worker` hosts a wheel.
    pub(crate) worker_bin: Option<PathBuf>,
    /// `MAIA_SUPERVISE_RETRIES`: respawn attempts after the first loss.
    pub(crate) retries: u32,
    /// `MAIA_SUPERVISE_DEGRADE`: whether an exhausted budget degrades
    /// to the channel backend (or fails the experiment).
    pub(crate) degrade: bool,
    /// `MAIA_SUPERVISE_HEARTBEAT_MS`: the workers' heartbeat interval.
    pub(crate) heartbeat_ms: u64,
    /// `MAIA_WORKER_CHAOS`: the fault the workers inject.
    pub(crate) chaos: Option<ChaosSpec>,
    /// `MAIA_WORKER_ATTEMPT`: in a worker, its spawn attempt (0 first).
    pub(crate) attempt: u32,
}

impl Default for RunConfig {
    /// `--engine auto --partitions 1 --backend channel`, no plan armed.
    fn default() -> Self {
        RunConfig::new(EngineMode::Auto, 1, Backend::Channel)
    }
}

impl RunConfig {
    /// A config with no fault plan armed and every knob at its default:
    /// a 300 s watchdog, nothing forced, two retries, degradation on, a
    /// 100 ms heartbeat, no chaos and no worker binary.
    pub fn new(engine: EngineMode, partitions: usize, backend: Backend) -> RunConfig {
        assert!(partitions >= 1, "at least one partition is required");
        RunConfig {
            engine,
            partitions,
            backend,
            armed: Faults::default(),
            watchdog: Duration::from_secs(300),
            forced: Vec::new(),
            supervise: Supervision {
                worker_bin: None,
                retries: 2,
                degrade: true,
                heartbeat_ms: 100,
                chaos: None,
                attempt: 0,
            },
        }
    }

    /// Snapshot the process defaults, with no fault plan armed and every
    /// knob at its default, but the worker binary
    /// [`crate::supervise::install_default_launcher`] installed.
    pub fn current() -> RunConfig {
        let mut cfg = RunConfig::new(
            maia_mpi::fastpath::engine_mode(),
            maia_mpi::partition::partitions(),
            maia_mpi::process_backend::backend(),
        );
        cfg.supervise.worker_bin = crate::supervise::DEFAULT_WORKER_BIN
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        cfg
    }

    /// This config under the `MAIA_*` knobs given as `(name, value)`
    /// pairs, applied in order: the one way to set how a run executes.
    /// Other names are skipped. A knob whose value is outside its bounds
    /// (listed in `maia-bench help`) or not UTF-8 is an error naming it.
    pub fn with_knobs(
        mut self,
        knobs: impl IntoIterator<Item = (impl AsRef<OsStr>, impl AsRef<OsStr>)>,
    ) -> Result<RunConfig, String> {
        for (name, value) in knobs {
            // A name that is not UTF-8 names no knob.
            let (name, value) = (name.as_ref().to_str().unwrap_or_default(), value.as_ref());
            let shown = value.to_string_lossy();
            let err = |expected: &str| format!("{name}={shown:?}: expected {expected}");
            let text = || value.to_str().ok_or_else(|| err("a UTF-8 value"));
            let int = |lo: u64, hi: u64| match text()?.parse::<u64>() {
                Ok(n) if (lo..=hi).contains(&n) => Ok(n),
                _ => Err(err(&format!("an integer in {lo}..={hi}"))),
            };
            let sup = &mut self.supervise;
            match name {
                "MAIA_EXPERIMENT_TIMEOUT_S" => match text()?.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 86_400.0 => self.watchdog = Duration::from_secs_f64(s),
                    _ => return Err(err("finite seconds in (0, 86400]")),
                },
                "MAIA_FAULT_PANIC" | "MAIA_FAULT_DEADLOCK" | "MAIA_FAULT_HANG" => {
                    let kind = match name {
                        "MAIA_FAULT_PANIC" => ForcedFailure::Panic,
                        "MAIA_FAULT_DEADLOCK" => ForcedFailure::Deadlock,
                        _ => ForcedFailure::Hang,
                    };
                    let ids: Option<Vec<_>> = text()?.split(',').map(ExperimentId::parse).collect();
                    let ids = ids.ok_or_else(|| err("comma-separated experiment codes"))?;
                    self.forced.retain(|&(_, k)| k != kind);
                    self.forced.extend(ids.into_iter().map(|id| (id, kind)));
                }
                "MAIA_WORKER_BIN" => match text()? {
                    "" => return Err(err("a non-empty path")),
                    path => sup.worker_bin = Some(path.into()),
                },
                "MAIA_SUPERVISE_RETRIES" => sup.retries = int(0, 32)? as u32,
                "MAIA_SUPERVISE_DEGRADE" => match text()? {
                    "0" => sup.degrade = false,
                    "1" => sup.degrade = true,
                    _ => return Err(err("0 or 1")),
                },
                "MAIA_SUPERVISE_HEARTBEAT_MS" => sup.heartbeat_ms = int(1, 60_000)?,
                "MAIA_WORKER_CHAOS" => {
                    let spec = ChaosSpec::parse(text()?);
                    let expected = "panic-on-connect, stall or kill:<window>, optionally :once";
                    sup.chaos = Some(spec.ok_or_else(|| err(expected))?);
                }
                "MAIA_WORKER_ATTEMPT" => sup.attempt = int(0, 32)? as u32,
                _ => {}
            }
        }
        Ok(self)
    }

    /// The machine this config's models run on: the armed plan's faults,
    /// or the healthy default. Its tallies hold what the plan injected.
    pub fn faults(&self) -> &Faults {
        &self.armed
    }

    /// The engine the collective cells run on. [`EngineMode::Auto`] takes
    /// the DES when a fault plan is armed (stragglers act only inside
    /// the engine) or a probe factory is installed (telemetry observes
    /// engines), and the closed forms otherwise.
    pub fn resolved_engine(&self) -> SelectedEngine {
        match self.engine {
            EngineMode::Des => SelectedEngine::Des,
            EngineMode::Fast => SelectedEngine::Fast,
            EngineMode::Auto
                if self.armed.identity().is_some() || maia_sim::factory_installed() =>
            {
                SelectedEngine::Des
            }
            EngineMode::Auto => SelectedEngine::Fast,
        }
    }

    /// The memo-cache key of `key` under this config: `key` itself for
    /// the default settings, the settings appended otherwise, and an
    /// armed plan's identity prefixed (its keys group under the `faults`
    /// telemetry domain; every other key keeps its leading `domain/`).
    /// How the run executes — watchdog, forced failures, supervision —
    /// never changes a cell and is not part of the key.
    pub fn memo_key<'k>(&self, key: &'k str) -> Cow<'k, str> {
        let tagged =
            (self.engine, self.partitions, self.backend) != (EngineMode::Auto, 1, Backend::Channel);
        let plan = self.armed.identity().map(|p| format!("{p}::"));
        if !tagged && plan.is_none() {
            return Cow::Borrowed(key);
        }
        let mut out = plan.unwrap_or_default() + key;
        if tagged {
            out += &format!("@{:?}/p{}/{:?}", self.engine, self.partitions, self.backend);
        }
        Cow::Owned(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(pairs: &[(&str, &str)]) -> Result<RunConfig, String> {
        RunConfig::default().with_knobs(pairs.iter().copied())
    }

    #[test]
    fn defaults_are_unchanged_and_other_names_are_skipped() {
        let cfg = knobs(&[("PATH", "/bin"), ("MAIA_NOT_A_KNOB", "banana")]).expect("no knobs");
        assert_eq!(cfg.watchdog, Duration::from_secs(300));
        assert!(cfg.forced.is_empty());
        let sup = &cfg.supervise;
        assert_eq!((sup.retries, sup.degrade, sup.heartbeat_ms), (2, true, 100));
        assert_eq!(
            (sup.chaos, sup.attempt, sup.worker_bin.clone()),
            (None, 0, None)
        );
    }

    #[test]
    fn accepts_every_documented_spelling() {
        let cfg = knobs(&[
            ("MAIA_EXPERIMENT_TIMEOUT_S", "1"),
            ("MAIA_FAULT_PANIC", "F17"),
            ("MAIA_FAULT_DEADLOCK", "f21,fig_05"),
            ("MAIA_FAULT_HANG", "F17"),
            ("MAIA_WORKER_BIN", "/opt/maia-bench"),
            ("MAIA_SUPERVISE_RETRIES", "0"),
            ("MAIA_SUPERVISE_DEGRADE", "0"),
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "20"),
            ("MAIA_WORKER_CHAOS", "kill:1:once"),
            ("MAIA_WORKER_ATTEMPT", "1"),
        ])
        .expect("valid knobs");
        assert_eq!(cfg.watchdog, Duration::from_secs(1));
        assert_eq!(cfg.forced.len(), 4);
        assert!(cfg
            .forced
            .contains(&(ExperimentId::F5Latency, ForcedFailure::Deadlock)));
        let sup = &cfg.supervise;
        assert_eq!(sup.worker_bin, Some(PathBuf::from("/opt/maia-bench")));
        assert_eq!(
            (sup.retries, sup.degrade, sup.heartbeat_ms, sup.attempt),
            (0, false, 20, 1)
        );
        assert_eq!(
            sup.chaos.map(|c| c.to_string()).as_deref(),
            Some("kill:1:once")
        );
        for pair in [
            ("MAIA_WORKER_CHAOS", "kill:1"),
            ("MAIA_WORKER_CHAOS", "stall:once"),
            ("MAIA_WORKER_CHAOS", "panic-on-connect"),
            ("MAIA_WORKER_CHAOS", "stall"),
            ("MAIA_SUPERVISE_RETRIES", "2"),
            ("MAIA_SUPERVISE_RETRIES", "32"),
            ("MAIA_EXPERIMENT_TIMEOUT_S", "0.5"),
            ("MAIA_EXPERIMENT_TIMEOUT_S", "86400"),
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "1"),
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "60000"),
            ("MAIA_SUPERVISE_DEGRADE", "1"),
            ("MAIA_WORKER_ATTEMPT", "32"),
        ] {
            knobs(&[pair]).unwrap_or_else(|e| panic!("{pair:?}: {e}"));
        }
    }

    #[test]
    fn a_later_pair_replaces_an_earlier_one() {
        let cfg = knobs(&[
            ("MAIA_SUPERVISE_RETRIES", "5"),
            ("MAIA_SUPERVISE_RETRIES", "1"),
            ("MAIA_FAULT_HANG", "F17"),
            ("MAIA_FAULT_HANG", "T01"),
        ])
        .expect("valid knobs");
        assert_eq!(cfg.supervise.retries, 1);
        assert_eq!(
            cfg.forced,
            vec![(ExperimentId::T1Table, ForcedFailure::Hang)]
        );
    }

    #[test]
    fn values_outside_their_bounds_are_named_errors() {
        for (name, value) in [
            ("MAIA_EXPERIMENT_TIMEOUT_S", "banana"),
            ("MAIA_EXPERIMENT_TIMEOUT_S", "inf"),
            ("MAIA_EXPERIMENT_TIMEOUT_S", "NaN"),
            ("MAIA_EXPERIMENT_TIMEOUT_S", "0"),
            ("MAIA_EXPERIMENT_TIMEOUT_S", "-1"),
            ("MAIA_EXPERIMENT_TIMEOUT_S", "86400.5"),
            ("MAIA_SUPERVISE_RETRIES", "-1"),
            ("MAIA_SUPERVISE_RETRIES", "33"),
            ("MAIA_SUPERVISE_RETRIES", "4294967295"),
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "0"),
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "0x10"),
            ("MAIA_SUPERVISE_HEARTBEAT_MS", "60001"),
            ("MAIA_SUPERVISE_DEGRADE", "no"),
            ("MAIA_SUPERVISE_DEGRADE", "2"),
            ("MAIA_SUPERVISE_DEGRADE", ""),
            ("MAIA_WORKER_CHAOS", "bogus"),
            ("MAIA_WORKER_CHAOS", "kill:x"),
            ("MAIA_WORKER_CHAOS", "kill:1:twice"),
            ("MAIA_FAULT_PANIC", "ZZZ"),
            ("MAIA_FAULT_DEADLOCK", "F17,"),
            ("MAIA_FAULT_HANG", ""),
            ("MAIA_WORKER_BIN", ""),
            ("MAIA_WORKER_ATTEMPT", "33"),
        ] {
            let err = knobs(&[(name, value)]).expect_err(value);
            assert!(
                err.starts_with(&format!("{name}={value:?}: expected ")),
                "{err}"
            );
        }
    }

    #[test]
    fn a_non_utf8_value_is_a_named_error() {
        use std::os::unix::ffi::OsStrExt;
        let bad = OsStr::from_bytes(b"F1\xff");
        let err = RunConfig::default()
            .with_knobs([(OsStr::new("MAIA_FAULT_PANIC"), bad)])
            .expect_err("not UTF-8");
        assert!(
            err.starts_with("MAIA_FAULT_PANIC=") && err.ends_with("a UTF-8 value"),
            "{err}"
        );
        // A non-UTF-8 variable that is not a knob is skipped.
        RunConfig::default()
            .with_knobs([(OsStr::new("LANG"), bad)])
            .expect("not a knob");
    }
}
