//! Deterministic fault plans and the resilience harness.
//!
//! The paper is an *early-system* evaluation: its headline PCIe/MPI
//! results exist in two variants because the DAPL/MPSS stack misbehaved
//! until a software update (Figures 8–9), and the companion
//! early-experience reports describe stragglers, degraded links, and
//! dying cards as routine. This module lets the reproduction ask "what
//! would the paper's numbers have looked like on the degraded machine?"
//! — deterministically.
//!
//! A [`FaultPlan`] is a seeded, fully deterministic set of [`Fault`]s.
//! [`arm`] turns it into a [`RunConfig`] whose [`maia_arch::Faults`]
//! value the experiments hand to every model a fault perturbs, MPI worlds
//! and their worker processes included. Each arming is one activation:
//! its memo keys are its own, and the value tallies the model time its
//! faults injected (also fed to the `faults` telemetry bucket) and the
//! mode switches they forced. [`run_resilience`] runs the selection
//! twice — nominal, then armed — and reports per-experiment deltas.
//!
//! Everything is reproducible: same plan + same seed + same jobs ⇒
//! bit-identical resilience report (pinned by `tests/golden/resilience.md`
//! and the proptests in `tests/tests/faults_resilience.rs`).
//!
//! The module also hosts the *forced failures* the fail-soft executor
//! tests drive: the `MAIA_FAULT_PANIC` / `MAIA_FAULT_DEADLOCK` /
//! `MAIA_FAULT_HANG` knobs of a [`RunConfig`] name experiment codes that
//! should be killed in a controlled way (through a real `maia_sim`
//! engine, so the failure carries a process name and virtual time).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use maia_arch::faults::Straggler;
use maia_arch::{Device, Faults};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::config::RunConfig;
use crate::diff::{diff_sweeps, TableDiff};
use crate::executor::ExperimentFailure;
use crate::experiments::{ExperimentId, ExperimentSelection};
use crate::figdata::json_escape;
use crate::telemetry;

// ---------------------------------------------------------------------------
// Fault plans
// ---------------------------------------------------------------------------

/// One injectable fault. Parameters are chosen so every variant prints
/// and re-parses exactly (integers, or floats via shortest-roundtrip
/// `{:?}`).
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Rank `rank` computes `slowdown`× slower from virtual time
    /// `from_us` onward (thermal throttling / sick core).
    StragglerRank { rank: u32, slowdown: f64, from_us: f64 },
    /// The host↔Phi PCIe link drops to `lanes` surviving lanes.
    DegradedPcie { lanes: u32 },
    /// The post-update DAPL stack regresses to the pre-update CCL path.
    DaplFallback,
    /// A coprocessor dies (0 = Phi0, 1 = Phi1); offload/symmetric runs
    /// degrade to host-only / host + 1 Phi.
    DeadCard { card: u8 },
    /// `disabled_banks` GDDR5 banks are retired on the Phi.
    GddrBankDegradation { disabled_banks: u32 },
    /// Every PCIe-crossing MPI message pays `extra_retries`
    /// timeout/retry rounds with exponential backoff.
    DegradedLink { extra_retries: u32, timeout_us: f64 },
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fault::StragglerRank { rank, slowdown, from_us } => {
                write!(f, "straggler rank={rank} slowdown={slowdown:?} from_us={from_us:?}")
            }
            Fault::DegradedPcie { lanes } => write!(f, "degraded-pcie lanes={lanes}"),
            Fault::DaplFallback => write!(f, "dapl-fallback"),
            Fault::DeadCard { card } => write!(f, "dead-card card={card}"),
            Fault::GddrBankDegradation { disabled_banks } => {
                write!(f, "gddr-banks disabled={disabled_banks}")
            }
            Fault::DegradedLink { extra_retries, timeout_us } => {
                write!(f, "degraded-link retries={extra_retries} timeout_us={timeout_us:?}")
            }
        }
    }
}

/// A named, seeded set of faults. The seed is part of the identity: it
/// drives [`FaultPlan::generate`] and namespaces the degraded memo keys,
/// so two plans with the same faults but different seeds are distinct
/// (and both deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    pub name: String,
    pub seed: u64,
    pub faults: Vec<Fault>,
}

/// The canned plan names accepted by `maia-bench faults --plan <name>`.
pub const PLAN_NAMES: &[&str] = &["degraded-stack", "dead-card", "gddr-degraded", "straggler"];

impl FaultPlan {
    /// Look up a canned plan by name.
    pub fn named(name: &str) -> Option<FaultPlan> {
        let (seed, faults) = match name {
            // The paper's own degraded machine: pre-update DAPL path,
            // a narrowed PCIe link, and a flaky retrying link.
            "degraded-stack" => (
                13,
                vec![
                    Fault::DaplFallback,
                    Fault::DegradedPcie { lanes: 8 },
                    Fault::DegradedLink { extra_retries: 2, timeout_us: 50.0 },
                ],
            ),
            "dead-card" => (17, vec![Fault::DeadCard { card: 1 }]),
            "gddr-degraded" => (23, vec![Fault::GddrBankDegradation { disabled_banks: 64 }]),
            "straggler" => (
                29,
                vec![Fault::StragglerRank { rank: 3, slowdown: 4.0, from_us: 0.0 }],
            ),
            _ => return None,
        };
        Some(FaultPlan { name: name.to_string(), seed, faults })
    }

    /// Generate a random-but-reproducible plan: the same seed always
    /// yields the identical plan (at most one fault per kind, so
    /// activation is unambiguous).
    pub fn generate(seed: u64) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let count = rng.gen_range(1usize..5);
        let mut faults: Vec<Fault> = Vec::new();
        for _ in 0..count {
            let fault = match rng.gen_range(0u32..6) {
                0 => Fault::DaplFallback,
                1 => {
                    let lanes = [1u32, 2, 4, 8][rng.gen_range(0usize..4)];
                    Fault::DegradedPcie { lanes }
                }
                2 => Fault::StragglerRank {
                    rank: rng.gen_range(0u32..16),
                    slowdown: f64::from(rng.gen_range(15u32..80)) / 10.0,
                    from_us: f64::from(rng.gen_range(0u32..1000)),
                },
                3 => Fault::DeadCard { card: rng.gen_range(0u8..2) },
                4 => Fault::GddrBankDegradation { disabled_banks: rng.gen_range(8u32..96) },
                _ => Fault::DegradedLink {
                    extra_retries: rng.gen_range(1u32..4),
                    timeout_us: f64::from(rng.gen_range(10u32..200)),
                },
            };
            if !faults.iter().any(|f| kind_tag(f) == kind_tag(&fault)) {
                faults.push(fault);
            }
        }
        FaultPlan { name: format!("generated-{seed}"), seed, faults }
    }

    /// Render the plan in the line-based text format [`FaultPlan::parse`]
    /// reads back (exact round trip).
    pub fn to_text(&self) -> String {
        let mut out = String::from("# maia fault plan\n");
        out.push_str(&format!("name: {}\n", self.name));
        out.push_str(&format!("seed: {}\n", self.seed));
        for fault in &self.faults {
            out.push_str(&format!("fault: {fault}\n"));
        }
        out
    }

    /// Parse the text format produced by [`FaultPlan::to_text`]:
    /// `name:` / `seed:` headers and one `fault: <kind> k=v ...` line
    /// per fault; `#` comments and blank lines are ignored. A plan arms
    /// all it says, so a second fault of one kind (or a second straggler
    /// on one rank), a key the kind does not take and a key given twice
    /// are errors, not dropped. The name and seed are the plan's identity
    /// (its memo keys carry them), so a second `name:` or `seed:` line
    /// and an empty name are errors too.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut name: Option<String> = None;
        let mut seed: Option<u64> = None;
        let mut faults = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: &str| format!("fault plan line {}: {msg}: {line:?}", lineno + 1);
            if let Some(v) = line.strip_prefix("name:") {
                if name.is_some() {
                    return Err(err("name: is given twice"));
                }
                if v.trim().is_empty() {
                    return Err(err("name: is empty"));
                }
                name = Some(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("seed:") {
                if seed.is_some() {
                    return Err(err("seed: is given twice"));
                }
                seed = Some(v.trim().parse().map_err(|_| err("bad seed"))?);
            } else if let Some(v) = line.strip_prefix("fault:") {
                let fault = parse_fault(v.trim()).map_err(|m| err(&m))?;
                if faults.iter().any(|f| knob(f) == knob(&fault)) {
                    return Err(err(&format!("{} is armed twice", knob(&fault))));
                }
                faults.push(fault);
            } else {
                return Err(err("unrecognized line"));
            }
        }
        let name = name.ok_or("fault plan is missing a `name:` line".to_string())?;
        if faults.is_empty() {
            return Err(format!("fault plan '{name}' declares no faults"));
        }
        Ok(FaultPlan {
            name,
            seed: seed.unwrap_or(0),
            faults,
        })
    }
}

/// Stable discriminant tag (used to keep generated plans unambiguous).
fn kind_tag(f: &Fault) -> &'static str {
    match f {
        Fault::StragglerRank { .. } => "straggler",
        Fault::DegradedPcie { .. } => "degraded-pcie",
        Fault::DaplFallback => "dapl-fallback",
        Fault::DeadCard { .. } => "dead-card",
        Fault::GddrBankDegradation { .. } => "gddr-banks",
        Fault::DegradedLink { .. } => "degraded-link",
    }
}

/// The keys a fault of `f`'s kind takes: the ones its `Display` writes.
fn keys(f: &Fault) -> &'static [&'static str] {
    match f {
        Fault::StragglerRank { .. } => &["rank", "slowdown", "from_us"],
        Fault::DegradedPcie { .. } => &["lanes"],
        Fault::DaplFallback => &[],
        Fault::DeadCard { .. } => &["card"],
        Fault::GddrBankDegradation { .. } => &["disabled"],
        Fault::DegradedLink { .. } => &["retries", "timeout_us"],
    }
}

/// The knob of the machine arming `f` sets: one per kind, and one per
/// rank for stragglers.
fn knob(f: &Fault) -> String {
    match f {
        Fault::StragglerRank { rank, .. } => format!("straggler rank={rank}"),
        _ => kind_tag(f).to_string(),
    }
}

/// The largest straggler slowdown a plan may ask for. A 1000x straggler
/// already sets every run's time, and a factor whose stretched phases
/// outgrow the models' `u64` picosecond clock would panic.
const MAX_SLOWDOWN: f64 = 1000.0;
/// The longest retry schedule a degraded link may charge one message, in
/// microseconds (1 s). Its doubling rounds sum to
/// `timeout_us·(2^retries − 1)`, which at `retries=32` outgrows the
/// `u64` picosecond clock for any timeout past 4.3 ms.
const MAX_LINK_SCHEDULE_US: f64 = 1e6;

fn parse_fault(s: &str) -> Result<Fault, String> {
    let mut parts = s.split_whitespace();
    let kind = parts.next().ok_or("empty fault")?;
    let mut kv: Vec<(&str, &str)> = Vec::new();
    for p in parts {
        let (k, v) = p.split_once('=').ok_or_else(|| format!("expected k=v, got {p:?}"))?;
        if kv.iter().any(|&(seen, _)| seen == k) {
            return Err(format!("{k}= given twice"));
        }
        kv.push((k, v));
    }
    let get = |k: &str| {
        let v = kv.iter().find(|&&(seen, _)| seen == k).map(|&(_, v)| v);
        v.ok_or_else(|| format!("missing {k}="))
    };
    // Values the modeled machine cannot have are named errors, never a
    // silent default: `lo..=hi` for counts, finite and `>= min` for
    // rates and times.
    let num_u32 = |k: &str, lo: u32, hi: u32| -> Result<u32, String> {
        let v: u32 = get(k)?.parse().map_err(|_| format!("bad {k}= value"))?;
        let ok = (lo..=hi).contains(&v);
        ok.then_some(v).ok_or_else(|| format!("{k}={v} is outside {lo}..={hi}"))
    };
    let num_f64 = |k: &str, min: f64| -> Result<f64, String> {
        let v: f64 = get(k)?.parse().map_err(|_| format!("bad {k}= value"))?;
        let ok = v.is_finite() && v >= min;
        ok.then_some(v).ok_or_else(|| format!("{k}={v} must be finite and at least {min}"))
    };
    let fault = match kind {
        "straggler" => {
            let rank = num_u32("rank", 0, u32::MAX)?;
            let slowdown = num_f64("slowdown", 1.0)?;
            if slowdown > MAX_SLOWDOWN {
                return Err(format!("slowdown={slowdown:?} is outside 1..={MAX_SLOWDOWN}"));
            }
            Ok(Fault::StragglerRank { rank, slowdown, from_us: num_f64("from_us", 0.0)? })
        }
        // The Phi's link has 16 lanes; a degraded one keeps 1 to 15.
        "degraded-pcie" => Ok(Fault::DegradedPcie { lanes: num_u32("lanes", 1, 15)? }),
        "dapl-fallback" => Ok(Fault::DaplFallback),
        "dead-card" => Ok(Fault::DeadCard { card: num_u32("card", 0, 1)? as u8 }),
        // The 5110P has 128 GDDR5 banks; at least one survives.
        "gddr-banks" => Ok(Fault::GddrBankDegradation {
            disabled_banks: num_u32("disabled", 1, 127)?,
        }),
        // Each retry doubles the timeout, so the schedule stays short.
        "degraded-link" => {
            let extra_retries = num_u32("retries", 0, 32)?;
            let timeout_us = num_f64("timeout_us", 0.0)?;
            let total_us = timeout_us * ((1u64 << extra_retries) - 1) as f64;
            if total_us > MAX_LINK_SCHEDULE_US {
                return Err(format!(
                    "retries={extra_retries} timeout_us={timeout_us:?} sum to {total_us:e} us \
                     per message, outside 0..={MAX_LINK_SCHEDULE_US:e}"
                ));
            }
            Ok(Fault::DegradedLink { extra_retries, timeout_us })
        }
        other => Err(format!("unknown fault kind {other:?}")),
    }?;
    // A key the kind does not read is a typo, not a comment.
    match kv.iter().find(|(k, _)| !keys(&fault).contains(k)) {
        Some((k, _)) => Err(format!("{kind} takes no {k}= key")),
        None => Ok(fault),
    }
}

// ---------------------------------------------------------------------------
// Activation
// ---------------------------------------------------------------------------

/// Monotone activation counter: part of an armed config's identity, so
/// repeated activations of the *same* plan recompute their degraded
/// sub-models (keeping injected-time totals identical per activation).
static ACTIVATIONS: AtomicU64 = AtomicU64::new(0);

/// Arm `plan` onto a copy of `cfg`: one activation. The copy's
/// [`RunConfig::faults`] is the degraded machine every model receives,
/// named `faults/{name}/{seed}/{activation}` (its memo keys are its own),
/// with fresh tallies whose injected time also reaches the `faults`
/// telemetry bucket.
pub fn arm(cfg: &RunConfig, plan: &FaultPlan) -> RunConfig {
    let n = ACTIVATIONS.fetch_add(1, Ordering::Relaxed);
    // The `faults/` prefix doubles as the telemetry domain: the memo keys
    // recomputed under the plan group under a shared `faults` row instead
    // of polluting the nominal domains. The telemetry bucket clamps
    // negatives itself; the signed total on the tallies is what the
    // resilience report prints.
    let mut faults = Faults::armed(
        &format!("faults/{}/{}/{n}", plan.name, plan.seed),
        Some(|extra_s| telemetry::add_fault_vt(extra_s * 1e9)),
    );
    for fault in &plan.faults {
        match *fault {
            Fault::StragglerRank { rank, slowdown, from_us } => {
                faults.stragglers.push(Straggler {
                    rank,
                    slowdown,
                    from_s: from_us * 1e-6,
                });
            }
            Fault::DegradedPcie { lanes } => faults.pcie_lanes = Some(lanes),
            Fault::DaplFallback => faults.dapl_fallback = true,
            Fault::DeadCard { card } => {
                faults.dead_card = Some(if card == 0 { Device::Phi0 } else { Device::Phi1 });
            }
            Fault::GddrBankDegradation { disabled_banks } => faults.disabled_banks = disabled_banks,
            Fault::DegradedLink { extra_retries, timeout_us } => {
                // Jitter-free doubling: the schedule is a pure function
                // of the fault parameters (the golden resilience report
                // pins every injected picosecond), so the plan seed is
                // irrelevant here by construction.
                faults.link_timeouts_s =
                    crate::backoff::BackoffPolicy::doubling(timeout_us * 1e-6, extra_retries)
                        .schedule(plan.seed);
            }
        }
    }
    RunConfig {
        armed: faults,
        ..cfg.clone()
    }
}

// ---------------------------------------------------------------------------
// Resilience report
// ---------------------------------------------------------------------------

/// Output of [`run_resilience`]: deterministic at fixed plan and jobs.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    pub plan: FaultPlan,
    pub jobs: usize,
    /// Each experiment's nominal table (`a`) against its degraded one.
    pub deltas: Vec<TableDiff>,
    pub nominal_failures: Vec<ExperimentFailure>,
    pub degraded_failures: Vec<ExperimentFailure>,
    pub mode_switches: Vec<String>,
    /// Net model time the faults injected, signed picoseconds.
    pub injected_vt_ps: i64,
}

impl ResilienceReport {
    /// True when either sweep lost experiments to panics/deadlocks/
    /// timeouts (drives the CLI exit code).
    pub fn has_failures(&self) -> bool {
        !self.nominal_failures.is_empty() || !self.degraded_failures.is_empty()
    }

    /// Deterministic Markdown rendering (no wall-clock values) — the
    /// golden format pinned by `tests/golden/resilience.md`.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# Resilience report — plan '{}'\n\n", self.plan.name);
        out.push_str(&format!("- seed: {}\n", self.plan.seed));
        out.push_str(&format!("- jobs: {}\n", self.jobs));
        out.push_str("- faults:\n");
        for fault in &self.plan.faults {
            out.push_str(&format!("  - {fault}\n"));
        }
        out.push_str(&format!(
            "- injected model time: {} ps ({:.3} us)\n",
            self.injected_vt_ps,
            self.injected_vt_ps as f64 / 1e6
        ));
        if self.mode_switches.is_empty() {
            out.push_str("- mode switches: none\n");
        } else {
            out.push_str("- mode switches:\n");
            for m in &self.mode_switches {
                out.push_str(&format!("  - {m}\n"));
            }
        }
        out.push_str("\n## Nominal vs degraded\n\n");
        out.push_str("| experiment | cells | changed | max rel delta |\n|---|---|---|---|\n");
        for d in &self.deltas {
            out.push_str(&format!(
                "| {} | {} | {} | {:.4} |{}\n",
                d.code,
                d.cells,
                d.changed,
                d.max_rel_delta,
                d.reshaped.map_or(String::new(), |[(nr, nc), (dr, dc)]| {
                    format!(" <!-- table shape changed: {nr}x{nc} -> {dr}x{dc} -->")
                }),
            ));
        }
        out.push_str("\n## Failures\n\n");
        if !self.has_failures() {
            out.push_str("none — every experiment completed in both sweeps\n");
        } else {
            for (label, failures) in [
                ("nominal", &self.nominal_failures),
                ("degraded", &self.degraded_failures),
            ] {
                for f in failures {
                    out.push_str(&format!(
                        "- {label} {} [{}]: {}\n",
                        f.id.meta().code,
                        f.kind,
                        f.detail
                    ));
                }
            }
        }
        out
    }

    /// Deterministic JSON rendering (same content as the Markdown).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"plan\": {},\n", json_escape(&self.plan.name)));
        out.push_str(&format!("  \"seed\": {},\n", self.plan.seed));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"faults\": [\n");
        for (i, fault) in self.plan.faults.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                json_escape(&fault.to_string()),
                if i + 1 == self.plan.faults.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"injected_vt_ps\": {},\n", self.injected_vt_ps));
        out.push_str("  \"mode_switches\": [\n");
        for (i, m) in self.mode_switches.iter().enumerate() {
            out.push_str(&format!(
                "    {}{}\n",
                json_escape(m),
                if i + 1 == self.mode_switches.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"experiments\": [\n");
        for (i, d) in self.deltas.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"code\": \"{}\", \"cells\": {}, \"changed\": {}, \
                 \"max_rel_delta\": {:.6} }}{}\n",
                d.code,
                d.cells,
                d.changed,
                d.max_rel_delta,
                if i + 1 == self.deltas.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        let all_failures: Vec<(&str, &ExperimentFailure)> = self
            .nominal_failures
            .iter()
            .map(|f| ("nominal", f))
            .chain(self.degraded_failures.iter().map(|f| ("degraded", f)))
            .collect();
        out.push_str("  \"failures\": [\n");
        for (i, (label, f)) in all_failures.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"sweep\": \"{label}\", \"code\": \"{}\", \"kind\": \"{}\", \
                 \"detail\": {} }}{}\n",
                f.id.meta().code,
                f.kind,
                json_escape(&f.detail),
                if i + 1 == all_failures.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Run `selection` under `cfg`, then under `cfg` with `plan` armed, and
/// diff the tables. Both sweeps are fail-soft: failures land in the
/// report instead of aborting it. The injected time and mode switches
/// are the armed config's tallies.
pub fn run_resilience(
    cfg: &RunConfig,
    plan: &FaultPlan,
    selection: &ExperimentSelection,
    jobs: usize,
) -> ResilienceReport {
    let armed = arm(cfg, plan);
    let (deltas, [nominal_failures, degraded_failures]) =
        diff_sweeps(cfg, &armed, &selection.resolve(), jobs);
    ResilienceReport {
        plan: plan.clone(),
        jobs,
        deltas,
        nominal_failures,
        degraded_failures,
        mode_switches: armed.faults().mode_switches(),
        injected_vt_ps: armed.faults().injected_ps(),
    }
}

// ---------------------------------------------------------------------------
// Forced failures (the fail-soft harness's test hook)
// ---------------------------------------------------------------------------

/// How a forced failure should kill its experiment, named by the
/// `MAIA_FAULT_PANIC`, `MAIA_FAULT_DEADLOCK` and `MAIA_FAULT_HANG` knobs
/// ([`RunConfig::with_knobs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ForcedFailure {
    /// A simulated process panics (through a real engine, so the error
    /// names the process and its virtual time).
    Panic,
    /// A simulated process blocks on a message nobody sends.
    Deadlock,
    /// The experiment thread sleeps forever (exercises the watchdog).
    Hang,
}

/// Executor hook: kill the current experiment the way `cfg` forces it
/// to, if it does (panic before deadlock before hang). Panic and deadlock
/// go through a real `maia_sim` engine so the resulting error message
/// carries the simulated process name and virtual time (`SimError`
/// Display), then re-panic with that rendering for the guard thread's
/// `catch_unwind` to classify.
pub(crate) fn forced_failure_trigger(cfg: &RunConfig, id: ExperimentId) {
    let kinds = cfg.forced.iter().filter(|&&(f, _)| f == id).map(|f| f.1);
    let Some(kind) = kinds.min() else { return };
    let code = id.meta().code;
    match kind {
        ForcedFailure::Panic => {
            let mut eng = maia_sim::Engine::new();
            eng.spawn_inline(format!("rank-0-{code}"), |ctx| async move {
                ctx.advance(maia_sim::SimDuration::from_us(1.0)).await;
                panic!("injected fault: forced panic");
            });
            if let Err(e) = eng.run() {
                panic!("{e}");
            }
        }
        ForcedFailure::Deadlock => {
            let ch = maia_sim::channel::SimChannel::<u8>::new("injected-fault");
            let mut eng = maia_sim::Engine::new();
            eng.spawn_inline(format!("rank-0-{code}"), move |ctx| async move {
                let _ = ch.recv_inline(&ctx).await;
            });
            if let Err(e) = eng.run() {
                panic!("{e}");
            }
        }
        ForcedFailure::Hang => loop {
            // Cooperative cancellation point: once the executor's
            // watchdog gives up on this experiment, stop hanging so the
            // guard thread can be joined instead of leaking into later
            // experiments.
            if crate::executor::guard_cancelled() {
                panic!("injected fault: forced hang cancelled by watchdog");
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canned_plans_resolve_and_roundtrip() {
        for name in PLAN_NAMES {
            let plan = FaultPlan::named(name).expect("canned plan");
            assert_eq!(&plan.name, name);
            assert!(!plan.faults.is_empty());
            let reparsed = FaultPlan::parse(&plan.to_text()).expect("roundtrip");
            assert_eq!(plan, reparsed);
        }
        assert_eq!(FaultPlan::named("no-such-plan"), None);
    }

    #[test]
    fn generated_plans_are_seed_deterministic() {
        for seed in [0u64, 1, 42, 0xDEAD_BEEF] {
            let a = FaultPlan::generate(seed);
            let b = FaultPlan::generate(seed);
            assert_eq!(a, b);
            assert!(!a.faults.is_empty());
            let reparsed = FaultPlan::parse(&a.to_text()).expect("roundtrip");
            assert_eq!(a, reparsed);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("name: x\nseed: 1\nfault: warp-core breach=1\n").is_err());
        assert!(FaultPlan::parse("seed: 1\nfault: dapl-fallback\n").is_err());
        assert!(FaultPlan::parse("name: x\nseed: 1\n").is_err());
        assert!(FaultPlan::parse("name: x\nseed: one\nfault: dapl-fallback\n").is_err());
        // Values the machine cannot have: each is a named error on its
        // line, not an abort, a panic or a silently healthy machine.
        for (fault, named) in [
            ("degraded-link retries=4294967295 timeout_us=50.0", "retries=4294967295"),
            ("degraded-link retries=2 timeout_us=-50.0", "timeout_us=-50"),
            ("degraded-link retries=2 timeout_us=inf", "timeout_us=inf"),
            ("straggler rank=3 slowdown=inf from_us=0.0", "slowdown=inf"),
            ("straggler rank=3 slowdown=NaN from_us=0.0", "slowdown=NaN"),
            ("straggler rank=3 slowdown=0.5 from_us=0.0", "slowdown=0.5"),
            ("straggler rank=3 slowdown=4.0 from_us=-1.0", "from_us=-1"),
            ("dead-card card=7", "card=7"),
            ("degraded-pcie lanes=0", "lanes=0"),
            ("degraded-pcie lanes=16", "lanes=16"),
            ("gddr-banks disabled=0", "disabled=0"),
            ("gddr-banks disabled=128", "disabled=128"),
            // Bounded, but past what the models can price.
            ("straggler rank=3 slowdown=1e300 from_us=0", "slowdown=1e300 is outside 1..=1000"),
            (
                "degraded-link retries=32 timeout_us=10000",
                "timeout_us=10000.0 sum to 4.294967295e13 us per message, outside 0..=1e6",
            ),
        ] {
            let err = FaultPlan::parse(&format!("name: x\nseed: 1\nfault: {fault}\n"))
                .expect_err(fault);
            assert!(err.starts_with("fault plan line 3: "), "{err}");
            assert!(err.contains(named), "{fault}: {err}");
        }
        // A plan arms all it says: a second fault of one kind, a second
        // straggler on one rank, a stray key and a repeated key are each a
        // named error on their line, not a fault or key dropped.
        let plan = |faults: &[&str]| {
            let lines: String = faults.iter().map(|f| format!("fault: {f}\n")).collect();
            FaultPlan::parse(&format!("name: x\nseed: 1\n{lines}"))
        };
        let link = "degraded-link retries=3 timeout_us=100";
        let stray = "degraded-link retries=1 timeout_us=1 timeout_ms=50";
        let straggler = "straggler rank=3 slowdown=2 from_us=0";
        let again = "straggler rank=3 slowdown=4 from_us=5";
        for (faults, named) in [
            (&["degraded-pcie lanes=8"; 2][..], "4: degraded-pcie is armed twice"),
            (&["dapl-fallback"; 2], "4: dapl-fallback is armed twice"),
            (&["dead-card card=1"; 2], "4: dead-card is armed twice"),
            (&["gddr-banks disabled=64"; 2], "4: gddr-banks is armed twice"),
            (&[link, "degraded-link retries=1 timeout_us=1"], "4: degraded-link is armed twice"),
            (&[straggler, again], "4: straggler rank=3 is armed twice"),
            (&[stray], "3: degraded-link takes no timeout_ms= key"),
            (&["dapl-fallback lanes=4"], "3: dapl-fallback takes no lanes= key"),
            (&["dead-card card=0 card=1"], "3: card= given twice"),
        ] {
            let err = plan(faults).expect_err(named);
            assert!(err.starts_with(&format!("fault plan line {named}")), "{err}");
        }
        let other_rank = "straggler rank=1 slowdown=2 from_us=0";
        assert_eq!(plan(&[straggler, other_rank]).expect("two ranks").faults.len(), 2);
        // A plan names itself once: a second `name:` or `seed:` line and
        // an empty name are named errors on their line, not the last line
        // winning.
        for (headers, named) in [
            (
                "name: first\nname: second\nseed: 1\nseed: 9\n",
                "2: name: is given twice",
            ),
            ("name: x\nseed: 1\nseed: 9\n", "3: seed: is given twice"),
            ("seed: 1\nname:\n", "2: name: is empty"),
            ("name:   \n", "1: name: is empty"),
        ] {
            let err =
                FaultPlan::parse(&format!("{headers}fault: dapl-fallback\n")).expect_err(named);
            assert!(
                err.starts_with(&format!("fault plan line {named}")),
                "{err}"
            );
        }
    }

    #[test]
    fn forced_failure_defaults_to_none() {
        // No knobs: the trigger is a no-op.
        forced_failure_trigger(&RunConfig::default(), ExperimentId::T1Table);
    }

    #[test]
    fn a_panic_knob_wins_over_a_deadlock_knob() {
        let cfg = RunConfig::default()
            .with_knobs([("MAIA_FAULT_DEADLOCK", "T01"), ("MAIA_FAULT_PANIC", "T01")])
            .expect("valid knobs");
        let trigger = || forced_failure_trigger(&cfg, ExperimentId::T1Table);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(trigger))
            .expect_err("a forced panic");
        let detail = payload.downcast_ref::<String>().expect("rendered SimError");
        assert!(detail.contains("rank-0-T01") && detail.contains("panicked at"), "{detail}");
    }
}
