//! # maia-core — the public facade of the Maia reproduction
//!
//! Ties the substrates together into an *experiment registry*: every
//! table and figure of Saini et al. (SC'13) is an [`ExperimentId`] whose
//! [`run_experiment`] regenerates the corresponding data series from the
//! models and simulators in the lower crates.
//!
//! ```
//! use maia_core::{run_experiment, ExperimentId};
//!
//! let fig4 = run_experiment(ExperimentId::F4Stream);
//! assert_eq!(fig4.id, "F4");
//! assert!(fig4.to_markdown().contains("GB/s"));
//! ```
//!
//! The `maia-bench` CLI and the EXPERIMENTS.md report are thin wrappers
//! over this API.

pub mod backoff;
pub mod cache;
mod config;
pub mod crosscheck;
mod diff;
pub mod executor;
pub mod experiments;
pub mod faults;
pub mod figdata;
pub mod oracle;
pub mod supervise;
pub mod telemetry;

pub use config::RunConfig;
pub use executor::{
    run_experiments_parallel, run_selection, ExperimentFailure, ExperimentRun, FailureKind,
    SweepReport,
};
pub use crosscheck::{run_crosscheck, run_crosscheck_under, CrosscheckReport};
pub use diff::TableDiff;
pub use faults::{run_resilience, Fault, FaultPlan, ForcedFailure, ResilienceReport};
pub use experiments::{
    all_experiments, run_experiment, ExperimentDef, ExperimentId, ExperimentSelection,
};
pub use figdata::FigureData;
pub use oracle::{check, check_figure, check_sweep, Check, ConformanceReport, PredicateResult};
pub use telemetry::ProfileReport;

/// Library version, mirrored from the workspace.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// A convenience façade describing the modeled system.
pub struct Maia;

impl Maia {
    /// The full system description (Table 1 source).
    pub fn system() -> maia_arch::SystemSpec {
        maia_arch::presets::maia_system()
    }

    /// Render the paper's Table 1.
    pub fn table1() -> String {
        maia_arch::table::render_table1(&Self::system())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_contains_phi_peak() {
        assert!(Maia::table1().contains("1008"));
    }

    #[test]
    fn every_experiment_runs_and_renders() {
        for id in all_experiments() {
            let data = run_experiment(id);
            assert!(!data.rows.is_empty(), "{} produced no rows", data.id);
            let md = data.to_markdown();
            assert!(md.contains(&data.title), "{} markdown lacks title", data.id);
            let csv = data.to_csv();
            assert_eq!(
                csv.lines().count(),
                data.rows.len() + 1,
                "{} csv row count",
                data.id
            );
        }
    }
}
