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
//! [`activate`] arms the injection hooks that the lower crates expose
//! (`maia_interconnect::faults`, `maia_mem::faults`, `maia_mpi::faults`,
//! `maia_modes::faults`), switches the memo cache to a fresh epoch so
//! degraded sub-models never collide with nominal cache entries, and
//! wires the injected-time/mode-switch observers into the `faults`
//! telemetry bucket. [`run_resilience`] then runs the selection twice —
//! nominal, then degraded — and reports per-experiment deltas.
//!
//! Everything is reproducible: same plan + same seed + same jobs ⇒
//! bit-identical resilience report (pinned by `tests/golden/resilience.md`
//! and the proptests in `tests/tests/faults_resilience.rs`).
//!
//! The module also hosts the *forced-failure* switchboard used by the
//! fail-soft executor tests: `MAIA_FAULT_PANIC` / `MAIA_FAULT_DEADLOCK` /
//! `MAIA_FAULT_HANG` name experiment codes that should be killed in a
//! controlled way (through a real `maia_sim` engine, so the failure
//! carries a process name and virtual time).

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::cache;
use crate::executor::{run_experiments_parallel, ExperimentFailure};
use crate::experiments::{ExperimentId, ExperimentSelection};
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
/// drives [`FaultPlan::generate`] and namespaces the degraded cache
/// epoch, so two plans with the same faults but different seeds are
/// distinct (and both deterministic).
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
    /// per fault; `#` comments and blank lines are ignored.
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut name: Option<String> = None;
        let mut seed: u64 = 0;
        let mut faults = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: &str| format!("fault plan line {}: {msg}: {line:?}", lineno + 1);
            if let Some(v) = line.strip_prefix("name:") {
                name = Some(v.trim().to_string());
            } else if let Some(v) = line.strip_prefix("seed:") {
                seed = v.trim().parse().map_err(|_| err("bad seed"))?;
            } else if let Some(v) = line.strip_prefix("fault:") {
                faults.push(parse_fault(v.trim()).map_err(|m| err(&m))?);
            } else {
                return Err(err("unrecognized line"));
            }
        }
        let name = name.ok_or("fault plan is missing a `name:` line".to_string())?;
        if faults.is_empty() {
            return Err(format!("fault plan '{name}' declares no faults"));
        }
        Ok(FaultPlan { name, seed, faults })
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

fn parse_fault(s: &str) -> Result<Fault, String> {
    let mut parts = s.split_whitespace();
    let kind = parts.next().ok_or("empty fault")?;
    let mut kv: HashMap<&str, &str> = HashMap::new();
    for p in parts {
        let (k, v) = p.split_once('=').ok_or_else(|| format!("expected k=v, got {p:?}"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}="));
    let num_u32 = |k: &str| -> Result<u32, String> {
        get(k)?.parse().map_err(|_| format!("bad {k}= value"))
    };
    let num_f64 = |k: &str| -> Result<f64, String> {
        get(k)?.parse().map_err(|_| format!("bad {k}= value"))
    };
    match kind {
        "straggler" => Ok(Fault::StragglerRank {
            rank: num_u32("rank")?,
            slowdown: num_f64("slowdown")?,
            from_us: num_f64("from_us")?,
        }),
        "degraded-pcie" => Ok(Fault::DegradedPcie { lanes: num_u32("lanes")? }),
        "dapl-fallback" => Ok(Fault::DaplFallback),
        "dead-card" => Ok(Fault::DeadCard {
            card: get("card")?.parse().map_err(|_| "bad card= value".to_string())?,
        }),
        "gddr-banks" => Ok(Fault::GddrBankDegradation { disabled_banks: num_u32("disabled")? }),
        "degraded-link" => Ok(Fault::DegradedLink {
            extra_retries: num_u32("retries")?,
            timeout_us: num_f64("timeout_us")?,
        }),
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

// ---------------------------------------------------------------------------
// Activation
// ---------------------------------------------------------------------------

/// Serializes fault activations process-wide: the injection hooks are
/// global, so two overlapping activations would interleave their state.
static GATE: Mutex<()> = Mutex::new(());

/// Lock the process-wide activation gate for a non-fault caller. The
/// engine cross-check flips the global engine mode, which must not
/// interleave with an armed fault plan (or another cross-check).
pub(crate) fn lock_gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}
/// Monotone activation counter: part of the cache epoch so repeated
/// activations of the *same* plan recompute their degraded sub-models
/// (keeping injected-time totals identical per activation).
static ACTIVATIONS: AtomicU64 = AtomicU64::new(0);
/// Net model time injected by the active plan, signed picoseconds.
/// (Signed because a forced DAPL fallback can be *cheaper* on some
/// paths: the pre-update phi0-phi1 eager latency undercuts post-update.)
static INJECTED_PS: AtomicI64 = AtomicI64::new(0);

static MODE_SWITCHES: OnceLock<Mutex<BTreeSet<String>>> = OnceLock::new();

fn mode_switches_slot() -> &'static Mutex<BTreeSet<String>> {
    MODE_SWITCHES.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn note_injected_s(extra_s: f64) {
    INJECTED_PS.fetch_add((extra_s * 1e12) as i64, Ordering::Relaxed);
    // The telemetry bucket clamps negatives itself; the signed total
    // above is what the resilience report prints.
    telemetry::add_fault_vt(extra_s * 1e9);
}

/// RAII guard for an armed fault plan. Dropping it disarms every hook,
/// restores the default cache epoch, and releases the activation gate.
pub struct ActiveFaults {
    _gate: MutexGuard<'static, ()>,
}

impl Drop for ActiveFaults {
    fn drop(&mut self) {
        cache::set_epoch(None);
        maia_interconnect::faults::clear();
        maia_mem::faults::clear();
        maia_mpi::faults::clear();
        maia_modes::faults::clear();
        maia_mpi::fastpath::set_fault_override(false);
    }
}

/// Arm `plan`: install every hook in the lower crates, wire the
/// injected-time and mode-switch observers, and switch the memo cache
/// to a fresh epoch. Returns the guard that disarms everything on drop.
/// Activations are serialized process-wide (the hooks are global).
pub fn activate(plan: &FaultPlan) -> ActiveFaults {
    let gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    // Some faults arm hooks the MPI layer cannot see (dead cards in
    // `maia_modes`, GDDR banks in `maia_mem`), so engine selection
    // cannot infer "a plan is active" from its own crates' flags alone.
    // Force the discrete-event engine for the whole activation.
    maia_mpi::fastpath::set_fault_override(true);
    INJECTED_PS.store(0, Ordering::Relaxed);
    mode_switches_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();

    let injected: Arc<dyn Fn(f64) + Send + Sync> = Arc::new(note_injected_s);
    maia_interconnect::faults::set_injected_time_observer(Some(Arc::clone(&injected)));
    maia_mpi::faults::set_injected_time_observer(Some(injected));
    maia_modes::faults::set_mode_switch_observer(Some(Arc::new(|msg: &str| {
        mode_switches_slot()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(msg.to_string());
    })));

    let mut stragglers = Vec::new();
    for fault in &plan.faults {
        match *fault {
            Fault::StragglerRank { rank, slowdown, from_us } => {
                stragglers.push(maia_mpi::faults::Straggler {
                    rank,
                    slowdown,
                    from_s: from_us * 1e-6,
                });
            }
            Fault::DegradedPcie { lanes } => {
                maia_interconnect::faults::set_degraded_pcie_lanes(Some(lanes));
            }
            Fault::DaplFallback => maia_interconnect::faults::set_dapl_fallback(true),
            Fault::DeadCard { card } => {
                let device = if card == 0 {
                    maia_arch::Device::Phi0
                } else {
                    maia_arch::Device::Phi1
                };
                maia_modes::faults::set_dead_card(Some(device));
            }
            Fault::GddrBankDegradation { disabled_banks } => {
                maia_mem::faults::set_gddr_disabled_banks(disabled_banks);
            }
            Fault::DegradedLink { extra_retries, timeout_us } => {
                // Jitter-free doubling: the schedule is a pure function
                // of the fault parameters (the golden resilience report
                // pins every injected picosecond), so the plan seed is
                // irrelevant here by construction.
                let schedule = crate::backoff::BackoffPolicy::doubling(timeout_us * 1e-6, extra_retries)
                    .schedule(plan.seed);
                maia_mpi::faults::set_link_fault(Some(maia_mpi::faults::LinkFault {
                    timeouts_s: schedule,
                }));
            }
        }
    }
    if !stragglers.is_empty() {
        maia_mpi::faults::set_stragglers(stragglers);
    }

    // The `faults/` prefix doubles as the telemetry domain: memo keys
    // recomputed under the degraded stack group under a shared `faults`
    // row instead of polluting the nominal domains.
    let n = ACTIVATIONS.fetch_add(1, Ordering::Relaxed);
    cache::set_epoch(Some(&format!("faults/{}/{}/{n}", plan.name, plan.seed)));
    ActiveFaults { _gate: gate }
}

/// Net injected model time of the activation in progress, picoseconds.
pub fn injected_vt_ps() -> i64 {
    INJECTED_PS.load(Ordering::Relaxed)
}

/// Deduplicated, sorted mode-switch notes from the activation in
/// progress.
pub fn mode_switches() -> Vec<String> {
    mode_switches_slot()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .cloned()
        .collect()
}

// ---------------------------------------------------------------------------
// Resilience report
// ---------------------------------------------------------------------------

/// Nominal-vs-degraded comparison of one experiment's table.
#[derive(Debug, Clone)]
pub struct ExperimentDelta {
    /// Paper code (`F8`, `T1`, ...).
    pub code: String,
    /// Total data cells compared.
    pub cells: usize,
    /// Cells whose rendered value changed under the fault plan.
    pub changed: usize,
    /// Largest relative change over numeric cells, `|d-n| / max(|n|,ε)`.
    pub max_rel_delta: f64,
    /// Set when the degraded table changed shape (headers/row count).
    pub shape_note: Option<String>,
}

/// Output of [`run_resilience`]: deterministic at fixed plan and jobs.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    pub plan: FaultPlan,
    pub jobs: usize,
    pub deltas: Vec<ExperimentDelta>,
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
                d.shape_note
                    .as_ref()
                    .map_or(String::new(), |n| format!(" <!-- {n} -->")),
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
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"plan\": \"{}\",\n", esc(&self.plan.name)));
        out.push_str(&format!("  \"seed\": {},\n", self.plan.seed));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str("  \"faults\": [\n");
        for (i, fault) in self.plan.faults.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\"{}\n",
                esc(&fault.to_string()),
                if i + 1 == self.plan.faults.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str(&format!("  \"injected_vt_ps\": {},\n", self.injected_vt_ps));
        out.push_str("  \"mode_switches\": [\n");
        for (i, m) in self.mode_switches.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\"{}\n",
                esc(m),
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
                 \"detail\": \"{}\" }}{}\n",
                f.id.meta().code,
                f.kind,
                esc(&f.detail),
                if i + 1 == all_failures.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Run `selection` nominally, then under `plan`, and diff the tables.
/// Both sweeps are fail-soft: failures land in the report instead of
/// aborting it.
pub fn run_resilience(
    plan: &FaultPlan,
    selection: &ExperimentSelection,
    jobs: usize,
) -> ResilienceReport {
    let ids = selection.resolve();
    let nominal = run_experiments_parallel(&ids, jobs);

    let guard = activate(plan);
    let degraded = run_experiments_parallel(&ids, jobs);
    let injected_vt_ps = injected_vt_ps();
    let switches = mode_switches();
    drop(guard);

    let degraded_by_code: HashMap<&str, &crate::figdata::FigureData> = degraded
        .runs
        .iter()
        .map(|r| (r.id.meta().code, &r.data))
        .collect();
    let mut deltas = Vec::new();
    for run in &nominal.runs {
        let code = run.id.meta().code;
        let Some(deg) = degraded_by_code.get(code) else {
            continue; // failed in the degraded sweep; listed under failures
        };
        deltas.push(diff_tables(code, &run.data, deg));
    }

    ResilienceReport {
        plan: plan.clone(),
        jobs,
        deltas,
        nominal_failures: nominal.failures,
        degraded_failures: degraded.failures,
        mode_switches: switches,
        injected_vt_ps,
    }
}

fn diff_tables(
    code: &str,
    nominal: &crate::figdata::FigureData,
    degraded: &crate::figdata::FigureData,
) -> ExperimentDelta {
    let mut cells = 0usize;
    let mut changed = 0usize;
    let mut max_rel = 0.0f64;
    let shape_note = if nominal.headers != degraded.headers
        || nominal.rows.len() != degraded.rows.len()
    {
        Some(format!(
            "table shape changed: {}x{} -> {}x{}",
            nominal.rows.len(),
            nominal.headers.len(),
            degraded.rows.len(),
            degraded.headers.len()
        ))
    } else {
        None
    };
    for (n_row, d_row) in nominal.rows.iter().zip(degraded.rows.iter()) {
        for (n_cell, d_cell) in n_row.iter().zip(d_row.iter()) {
            cells += 1;
            if n_cell != d_cell {
                changed += 1;
                if let (Ok(n), Ok(d)) = (n_cell.parse::<f64>(), d_cell.parse::<f64>()) {
                    let rel = (d - n).abs() / n.abs().max(1e-12);
                    max_rel = max_rel.max(rel);
                }
            }
        }
    }
    ExperimentDelta {
        code: code.to_string(),
        cells,
        changed,
        max_rel_delta: max_rel,
        shape_note,
    }
}

// ---------------------------------------------------------------------------
// Forced failures (fail-soft harness test switchboard)
// ---------------------------------------------------------------------------

/// How a forced failure should kill its experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedFailure {
    /// A simulated process panics (through a real engine, so the error
    /// names the process and its virtual time).
    Panic,
    /// A simulated process blocks on a message nobody sends.
    Deadlock,
    /// The experiment thread sleeps forever (exercises the watchdog).
    Hang,
}

static FORCED: OnceLock<RwLock<HashMap<&'static str, ForcedFailure>>> = OnceLock::new();

fn forced_slot() -> &'static RwLock<HashMap<&'static str, ForcedFailure>> {
    FORCED.get_or_init(|| RwLock::new(HashMap::new()))
}

/// Programmatically force (or clear, with `None`) a failure for one
/// experiment — the in-process counterpart of the `MAIA_FAULT_*`
/// environment variables.
pub fn force_failure_for_tests(id: ExperimentId, failure: Option<ForcedFailure>) {
    let mut map = forced_slot()
        .write()
        .unwrap_or_else(PoisonError::into_inner);
    match failure {
        Some(f) => {
            map.insert(id.meta().code, f);
        }
        None => {
            map.remove(id.meta().code);
        }
    }
}

fn forced_for(id: ExperimentId) -> Option<ForcedFailure> {
    if let Some(f) = forced_slot()
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .get(id.meta().code)
    {
        return Some(*f);
    }
    for (var, kind) in [
        ("MAIA_FAULT_PANIC", ForcedFailure::Panic),
        ("MAIA_FAULT_DEADLOCK", ForcedFailure::Deadlock),
        ("MAIA_FAULT_HANG", ForcedFailure::Hang),
    ] {
        if let Ok(v) = std::env::var(var) {
            if v.split(',').any(|tok| ExperimentId::parse(tok) == Some(id)) {
                return Some(kind);
            }
        }
    }
    None
}

/// Executor hook: kill the current experiment the forced way, if one is
/// forced. Panic and deadlock go through a real `maia_sim` engine so
/// the resulting error message carries the simulated process name and
/// virtual time (`SimError` Display), then re-panic with that rendering
/// for the guard thread's `catch_unwind` to classify.
pub(crate) fn forced_failure_trigger(id: ExperimentId) {
    let Some(kind) = forced_for(id) else { return };
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

    // Tests that *activate* plans live in the serialized cross-crate
    // suite (tests/tests/faults_resilience.rs); arming the process-wide
    // hooks here would race this binary's nominal-value tests.

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
    }

    #[test]
    fn forced_failure_defaults_to_none() {
        // No env vars, no programmatic forcing: the trigger is a no-op.
        forced_failure_trigger(ExperimentId::T1Table);
    }
}
