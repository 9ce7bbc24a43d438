//! # maia-bench — the experiment CLI, ablation binaries and a Criterion STREAM bench
//!
//! The `maia-bench` binary is the front door: `maia-bench run --all
//! --jobs 4` regenerates every table/figure of the paper in parallel
//! through `maia_core::run_experiments_parallel`, and `maia-bench run
//! --only F04` regenerates one, with `--format md|csv|json`, `--out DIR`
//! and a timing summary on stderr. `maia-bench report` prints the
//! complete EXPERIMENTS.md. [`cli`] parses every subcommand's flags in
//! one loop and runs the result through one `execute`; its
//! [`cli::main_with_args`] is the whole binary, and the benchmark
//! package's worker processes enter through it too. A Criterion bench
//! measures the *real* STREAM kernels on the build machine, and the
//! `ablation_coll_algo` binary quantifies the collective-algorithm design
//! choice called out in DESIGN.md.

pub mod cli;

/// Render EXPERIMENTS.md: every experiment plus the paper's claims and
/// the oracle predicates that gate it (`maia-bench check`). Runs the
/// registry once under `cfg` through the profiled executor so the index
/// can also name each artifact's dominant simulated subsystem.
pub fn render_experiments_md(cfg: &maia_core::RunConfig) -> String {
    use std::collections::BTreeMap;

    maia_core::telemetry::enable();
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sweep = maia_core::run_experiments_parallel(cfg, &maia_core::all_experiments(), jobs);
    let profile = maia_core::telemetry::collect(&sweep);
    let dominant: BTreeMap<String, String> = profile
        .experiments
        .iter()
        .map(|e| (e.code.clone(), e.dominant.clone()))
        .collect();

    let mut out = String::new();
    out.push_str("# EXPERIMENTS — paper vs. reproduction\n\n");
    out.push_str(
        "Regenerate any artifact with `maia-bench run --only <code>` \
         (e.g. `--only F04`; add `--format csv` for CSV), or everything with \
         `maia-bench report`. Validate every \
         paper-published shape with `maia-bench check --all` (the CI gate); \
         profile any selection with `maia-bench profile --only <ids>`.\n\n\
         Degraded-stack variants: `maia-bench faults --plan <name>` re-runs a \
         selection under a deterministic fault plan and reports the deltas. \
         The MPI-over-PCIe figures F07\u{2013}F09 respond to the `dapl-fallback` \
         and `degraded-link` faults (the `degraded-stack` plan reproduces the \
         paper's pre-update numbers), the offload transfer figure F18 to \
         `degraded-pcie` lane loss, the STREAM/GDDR figure F04 to `gddr-banks` \
         degradation, and the mode-comparison artifacts F23 and F25\u{2013}F27 \
         to a `dead-card` fault (offload and symmetric runs degrade to \
         host-only and report the mode switch).\n\n",
    );
    out.push_str(&render_conformance_index(&dominant));
    for run in &sweep.runs {
        out.push_str(&run.data.to_markdown());
        out.push_str("\n**Paper reports:**\n\n");
        for claim in run.id.meta().claims {
            out.push_str(&format!("- {claim}\n"));
        }
        out.push('\n');
    }
    out
}

/// The conformance index: which oracle predicates guard each artifact,
/// and which simulated subsystem dominates its virtual time (from the
/// telemetry layer; `closed-form` marks purely analytic tables).
fn render_conformance_index(dominant: &std::collections::BTreeMap<String, String>) -> String {
    use maia_core::experiments::conformance::checklist;
    let mut out = String::from("## Conformance coverage\n\n");
    out.push_str(
        "Each artifact is gated by the machine-checkable shape predicates \
         below (`maia_core::oracle`, evaluated by `maia-bench check` and \
         `tests/tests/paper_shapes.rs`). The dominant column is where the \
         artifact's modeled virtual time goes (`maia-bench profile`):\n\n",
    );
    out.push_str("| artifact | dominant subsystem | oracle predicates |\n|---|---|---|\n");
    for id in maia_core::all_experiments() {
        let checks = checklist(id);
        // The full argument lists live in the conformance report; the
        // index names just the predicate families, deduplicated.
        let mut kinds: Vec<String> = checks
            .iter()
            .map(|c| {
                c.name
                    .split_once('[')
                    .map_or(c.name.as_str(), |(head, _)| head)
                    .to_string()
            })
            .collect();
        kinds.dedup();
        let code = id.meta().code;
        out.push_str(&format!(
            "| {} | {} | {} ({} checks) |\n",
            code,
            dominant.get(code).map_or("closed-form", String::as_str),
            kinds.join(", "),
            checks.len()
        ));
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    #[test]
    fn report_renders_every_figure() {
        let md = super::render_experiments_md(&maia_core::RunConfig::default());
        for id in ["T1", "F4", "F10", "F14", "F19", "F23", "F27"] {
            assert!(md.contains(&format!("## {id} ")), "missing {id}");
        }
    }

    #[test]
    fn report_maps_every_artifact_to_its_predicates() {
        let md = super::render_experiments_md(&maia_core::RunConfig::default());
        assert!(md.contains("| artifact | dominant subsystem | oracle predicates |"));
        for id in maia_core::all_experiments() {
            assert!(
                md.contains(&format!("| {} | ", id.meta().code)),
                "conformance row for {} missing",
                id.meta().code
            );
        }
        assert!(md.contains("marked_oom") && md.contains("ratio_band"));
    }
}
