//! The run configuration: one value naming the conditions every cell of a
//! run is computed under — engine, event-wheel count, exchange backend,
//! and the armed fault plan, if any.
//!
//! `--engine`, `--partitions` and `--backend` install process defaults in
//! `maia_mpi`; [`RunConfig::current`] reads them once per entry point
//! (`run_selection`, `run_experiment`, `run_one`, `check`,
//! `run_crosscheck`, `run_resilience`) and the executor passes the
//! snapshot to every experiment. A fault plan is armed onto a config by
//! [`crate::faults::arm`], and the experiments hand the armed value to
//! every model it perturbs. Every memo key carries the config, so one
//! process can run several configs side by side without their cached
//! cells colliding.

use std::borrow::Cow;

use maia_arch::Faults;
use maia_mpi::fastpath::{EngineMode, SelectedEngine};
use maia_mpi::process_backend::Backend;

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
}

impl Default for RunConfig {
    /// `--engine auto --partitions 1 --backend channel`, no plan armed.
    fn default() -> Self {
        RunConfig::new(EngineMode::Auto, 1, Backend::Channel)
    }
}

impl RunConfig {
    /// A config with no fault plan armed.
    pub fn new(engine: EngineMode, partitions: usize, backend: Backend) -> RunConfig {
        assert!(partitions >= 1, "at least one partition is required");
        RunConfig {
            engine,
            partitions,
            backend,
            armed: Faults::default(),
        }
    }

    /// Snapshot the process defaults, with no fault plan armed.
    pub fn current() -> RunConfig {
        RunConfig::new(
            maia_mpi::fastpath::engine_mode(),
            maia_mpi::partition::partitions(),
            maia_mpi::process_backend::backend(),
        )
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
