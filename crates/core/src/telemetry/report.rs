//! Profile collection and rendering: markdown/JSON metrics reports and
//! Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! The report splits hard into two worlds:
//!
//! * **`virtual`** — counters, virtual-time buckets, scheduler counters,
//!   histograms and virtual-time spans. Bit-identical across runs at a
//!   fixed `--jobs`, by construction (see the attribution notes in
//!   [`super`]).
//! * **`wall`** — sweep wall time, per-worker busy intervals, parallel
//!   region counts. Real clock readings; never part of golden
//!   comparisons. In the Chrome trace these all live on `pid 0` with
//!   `cat: "wall"` so tooling can filter them out with one predicate.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::executor::SweepReport;

use super::{lock_sink, Histogram, SimCounters, VtSpan, WallSpan};

/// Deterministic per-experiment profile.
#[derive(Debug, Clone)]
pub struct ExperimentProfile {
    /// Canonical experiment code (`F05`).
    pub code: String,
    /// Named event counters (`figdata.rows`, `sched.events_popped`, ...).
    pub counters: BTreeMap<String, u64>,
    /// Virtual time per subsystem, picoseconds.
    pub vt_ps: BTreeMap<String, u64>,
    /// Sum of the subsystem buckets.
    pub total_vt_ps: u64,
    /// Virtual time advanced per simulated process (descending, top 8).
    pub proc_vt_ps: Vec<(String, u64)>,
    /// Value histograms (advance durations, wheel levels, ...).
    pub hist: BTreeMap<String, Histogram>,
    /// Scheduler counters from the engine probe.
    pub sim: SimCounters,
    /// Recorded virtual-time spans (rank annotations and friends).
    pub spans: Vec<VtSpan>,
    /// Spans dropped past the per-sink cap.
    pub dropped_spans: u64,
    /// Subsystem with the most virtual time, or `closed-form` when the
    /// experiment recorded none (pure table generation).
    pub dominant: String,
    /// Wall-clock cost inside the sweep (wall section only).
    pub wall: Duration,
}

impl ExperimentProfile {
    /// Total recorded events (counters plus scheduler actions).
    pub fn events(&self) -> u64 {
        self.counters.values().sum::<u64>() + self.sim.total()
    }
}

/// Deterministic profile of one shared-sub-model domain (the part of a
/// memo key before the first `/`: `stream`, `pcie_bw`, `coll`, ...).
#[derive(Debug, Clone)]
pub struct DomainProfile {
    /// Key-prefix domain name.
    pub domain: String,
    /// Number of distinct keys merged into this row.
    pub keys: u64,
    /// Merged counters.
    pub counters: BTreeMap<String, u64>,
    /// Merged virtual time per subsystem, picoseconds.
    pub vt_ps: BTreeMap<String, u64>,
    /// Merged scheduler counters.
    pub sim: SimCounters,
    /// Merged spans (in key order, engine order within a key).
    pub spans: Vec<VtSpan>,
    /// Spans dropped past the per-sink caps.
    pub dropped_spans: u64,
}

/// Wall-clock utilization of one executor worker.
#[derive(Debug, Clone, Copy)]
pub struct WorkerUtilization {
    /// Worker thread id within the sweep team.
    pub worker: u32,
    /// Seconds spent inside experiments.
    pub busy_s: f64,
    /// `busy_s` over the sweep wall time.
    pub utilization: f64,
}

/// Everything `maia-bench profile` reports.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Worker threads used by the sweep.
    pub jobs: usize,
    /// Selected experiment codes, in request order.
    pub selection: Vec<String>,
    /// Per-experiment deterministic profiles, in request order.
    pub experiments: Vec<ExperimentProfile>,
    /// Shared sub-model domains, sorted by name.
    pub domains: Vec<DomainProfile>,
    /// Memo-cache hits over the sweep (deterministic totals: misses are
    /// the distinct keys touched, hits the remaining lookups).
    pub cache_hits: u64,
    /// Memo-cache misses over the sweep.
    pub cache_misses: u64,
    /// Total events across experiments and domains.
    pub events_total: u64,
    /// Sweep wall time, seconds (wall section).
    pub wall_s: f64,
    /// Per-worker busy time (wall section).
    pub workers: Vec<WorkerUtilization>,
    /// Raw wall spans for the trace (wall section).
    pub wall_spans: Vec<WallSpan>,
    /// Parallel regions observed since telemetry was enabled (wall
    /// section; includes regions inside experiment kernels).
    pub omp_regions: u64,
    /// Process-backend supervisor health (wall section): worker losses,
    /// respawns, missed heartbeats, degraded runs, backoff waits. All
    /// zero under the channel backend or a fault-free process run.
    pub supervise: super::SuperviseCounters,
}

/// Build the profile for `sweep` from everything recorded so far.
/// Call after [`super::enable`] and a sweep through the executor.
pub fn collect(sweep: &SweepReport) -> ProfileReport {
    let recorded = super::snapshot_experiments();
    let mut experiments = Vec::new();
    for run in &sweep.runs {
        let code = run.id.meta().code;
        // Most recent sink wins: a code re-run under a fresh cache (the
        // partition-determinism battery does this) registers a new scope
        // per sweep, and the profile must describe the sweep at hand.
        let profile = match recorded.iter().rfind(|(c, _)| c == code) {
            Some((_, sink)) => {
                let s = lock_sink(sink);
                let mut proc_vt: Vec<(String, u64)> =
                    s.proc_vt_ps.iter().map(|(n, &v)| (n.clone(), v)).collect();
                proc_vt.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                proc_vt.truncate(8);
                let total_vt_ps = s.vt_ps.values().sum();
                ExperimentProfile {
                    code: code.to_string(),
                    counters: s.counters.clone(),
                    vt_ps: s.vt_ps.clone(),
                    total_vt_ps,
                    proc_vt_ps: proc_vt,
                    hist: s.hist.clone(),
                    sim: s.sim,
                    spans: s.spans.clone(),
                    dropped_spans: s.dropped_spans,
                    dominant: dominant_subsystem(&s.vt_ps),
                    wall: run.wall,
                }
            }
            // Experiment memoized by an earlier sweep in this process:
            // nothing recorded this time around.
            None => ExperimentProfile {
                code: code.to_string(),
                counters: BTreeMap::new(),
                vt_ps: BTreeMap::new(),
                total_vt_ps: 0,
                proc_vt_ps: Vec::new(),
                hist: BTreeMap::new(),
                sim: SimCounters::default(),
                spans: Vec::new(),
                dropped_spans: 0,
                dominant: "closed-form".to_string(),
                wall: run.wall,
            },
        };
        experiments.push(profile);
    }

    let mut domains: BTreeMap<String, DomainProfile> = BTreeMap::new();
    for (key, sink) in super::snapshot_keys() {
        let domain = key.split('/').next().unwrap_or("misc").to_string();
        let s = lock_sink(&sink);
        let d = domains.entry(domain.clone()).or_insert_with(|| DomainProfile {
            domain,
            keys: 0,
            counters: BTreeMap::new(),
            vt_ps: BTreeMap::new(),
            sim: SimCounters::default(),
            spans: Vec::new(),
            dropped_spans: 0,
        });
        d.keys += 1;
        for (n, &v) in &s.counters {
            *d.counters.entry(n.clone()).or_insert(0) += v;
        }
        for (n, &v) in &s.vt_ps {
            *d.vt_ps.entry(n.clone()).or_insert(0) += v;
        }
        d.sim.engines += s.sim.engines;
        d.sim.processes += s.sim.processes;
        d.sim.scheduled += s.sim.scheduled;
        d.sim.fired += s.sim.fired;
        d.sim.blocked += s.sim.blocked;
        d.sim.finished += s.sim.finished;
        d.sim.max_queue_depth = d.sim.max_queue_depth.max(s.sim.max_queue_depth);
        if d.spans.len() + s.spans.len() <= super::MAX_SPANS_PER_SINK {
            d.spans.extend(s.spans.iter().cloned());
        } else {
            d.dropped_spans += s.spans.len() as u64;
        }
        d.dropped_spans += s.dropped_spans;
    }
    // Fault-injected time noted on scope-less sim rank threads lands in
    // a process-global bucket; surface it as the shared `faults` domain.
    let orphan_fault_ps = super::take_orphan_fault_vt_ps();
    if orphan_fault_ps > 0 {
        let d = domains
            .entry("faults".to_string())
            .or_insert_with(|| DomainProfile {
                domain: "faults".to_string(),
                keys: 0,
                counters: BTreeMap::new(),
                vt_ps: BTreeMap::new(),
                sim: SimCounters::default(),
                spans: Vec::new(),
                dropped_spans: 0,
            });
        *d.vt_ps.entry("faults".to_string()).or_insert(0) += orphan_fault_ps;
    }
    let domains: Vec<DomainProfile> = domains.into_values().collect();

    let requested: Vec<&str> = sweep.runs.iter().map(|r| r.id.meta().code).collect();
    let wall_spans: Vec<WallSpan> = super::snapshot_wall_spans()
        .into_iter()
        .filter(|s| s.cat != "wall-exp" || requested.iter().any(|c| *c == s.name))
        .collect();
    let mut busy: BTreeMap<u32, f64> = BTreeMap::new();
    for s in wall_spans.iter().filter(|s| s.cat == "wall-exp") {
        *busy.entry(s.tid).or_insert(0.0) += s.dur_s;
    }
    let wall_s = sweep.wall.as_secs_f64();
    let workers: Vec<WorkerUtilization> = busy
        .into_iter()
        .map(|(worker, busy_s)| WorkerUtilization {
            worker,
            busy_s,
            utilization: if wall_s > 0.0 { busy_s / wall_s } else { 0.0 },
        })
        .collect();

    let events_total = experiments.iter().map(ExperimentProfile::events).sum::<u64>()
        + domains
            .iter()
            .map(|d| d.counters.values().sum::<u64>() + d.sim.total())
            .sum::<u64>();

    ProfileReport {
        jobs: sweep.jobs,
        selection: requested.iter().map(|c| c.to_string()).collect(),
        experiments,
        domains,
        cache_hits: sweep.cache.hits,
        cache_misses: sweep.cache.misses,
        events_total,
        wall_s,
        workers,
        wall_spans,
        omp_regions: super::omp_regions(),
        supervise: super::supervise_counters(),
    }
}

fn dominant_subsystem(vt_ps: &BTreeMap<String, u64>) -> String {
    vt_ps
        .iter()
        .filter(|(_, &v)| v > 0)
        .max_by_key(|(_, &v)| v)
        .map(|(n, _)| n.clone())
        .unwrap_or_else(|| "closed-form".to_string())
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn ps_as_ms(ps: u64) -> f64 {
    ps as f64 / 1e9
}

impl ProfileReport {
    /// Deterministic-first JSON: the whole `virtual` object is
    /// bit-identical across runs at fixed `--jobs`; `wall` is not.
    pub fn to_json(&self) -> String {
        let mut o = String::from("{\n  \"schema\": \"maia-profile-v1\",\n");
        o.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        let sel: Vec<String> = self.selection.iter().map(|c| format!("\"{}\"", esc(c))).collect();
        o.push_str(&format!("  \"selection\": [{}],\n", sel.join(", ")));
        o.push_str("  \"virtual\": {\n");
        o.push_str(&format!("    \"events_total\": {},\n", self.events_total));
        o.push_str(&format!(
            "    \"cache\": {{ \"hits\": {}, \"misses\": {} }},\n",
            self.cache_hits, self.cache_misses
        ));
        o.push_str("    \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            o.push_str("      {\n");
            o.push_str(&format!("        \"code\": \"{}\",\n", esc(&e.code)));
            o.push_str(&format!("        \"dominant\": \"{}\",\n", esc(&e.dominant)));
            o.push_str(&format!("        \"events\": {},\n", e.events()));
            o.push_str(&format!("        \"total_vt_ps\": {},\n", e.total_vt_ps));
            o.push_str(&format!("        \"vt_ps\": {},\n", json_u64_map(&e.vt_ps, 8)));
            o.push_str(&format!(
                "        \"counters\": {},\n",
                json_u64_map(&e.counters, 8)
            ));
            o.push_str(&format!("        \"sim\": {},\n", json_sim(&e.sim)));
            let procs: Vec<String> = e
                .proc_vt_ps
                .iter()
                .map(|(n, v)| format!("[\"{}\", {v}]", esc(n)))
                .collect();
            o.push_str(&format!("        \"processes\": [{}],\n", procs.join(", ")));
            o.push_str(&format!("        \"hist\": {},\n", json_hists(&e.hist, 8)));
            o.push_str(&format!(
                "        \"spans\": {}, \"dropped_spans\": {}\n",
                e.spans.len(),
                e.dropped_spans
            ));
            o.push_str(&format!(
                "      }}{}\n",
                if i + 1 == self.experiments.len() { "" } else { "," }
            ));
        }
        o.push_str("    ],\n");
        o.push_str("    \"shared\": [\n");
        for (i, d) in self.domains.iter().enumerate() {
            o.push_str("      {\n");
            o.push_str(&format!("        \"domain\": \"{}\",\n", esc(&d.domain)));
            o.push_str(&format!("        \"keys\": {},\n", d.keys));
            o.push_str(&format!("        \"vt_ps\": {},\n", json_u64_map(&d.vt_ps, 8)));
            o.push_str(&format!(
                "        \"counters\": {},\n",
                json_u64_map(&d.counters, 8)
            ));
            o.push_str(&format!("        \"sim\": {},\n", json_sim(&d.sim)));
            o.push_str(&format!(
                "        \"spans\": {}, \"dropped_spans\": {}\n",
                d.spans.len(),
                d.dropped_spans
            ));
            o.push_str(&format!(
                "      }}{}\n",
                if i + 1 == self.domains.len() { "" } else { "," }
            ));
        }
        o.push_str("    ]\n  },\n");
        o.push_str("  \"wall\": {\n");
        o.push_str(&format!("    \"wall_s\": {:.6},\n", self.wall_s));
        o.push_str(&format!("    \"omp_regions\": {},\n", self.omp_regions));
        o.push_str(&format!(
            "    \"supervise\": {{ \"workers_lost\": {}, \"respawns\": {}, \
             \"missed_heartbeats\": {}, \"degraded\": {}, \"backoff_wait_ms\": {} }},\n",
            self.supervise.workers_lost,
            self.supervise.respawns,
            self.supervise.missed_heartbeats,
            self.supervise.degraded,
            self.supervise.backoff_wait_ms,
        ));
        o.push_str("    \"workers\": [\n");
        for (i, w) in self.workers.iter().enumerate() {
            o.push_str(&format!(
                "      {{ \"worker\": {}, \"busy_s\": {:.6}, \"utilization\": {:.4} }}{}\n",
                w.worker,
                w.busy_s,
                w.utilization,
                if i + 1 == self.workers.len() { "" } else { "," }
            ));
        }
        o.push_str("    ],\n");
        o.push_str("    \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            o.push_str(&format!(
                "      {{ \"code\": \"{}\", \"wall_ms\": {:.3} }}{}\n",
                esc(&e.code),
                e.wall.as_secs_f64() * 1e3,
                if i + 1 == self.experiments.len() { "" } else { "," }
            ));
        }
        o.push_str("    ]\n  }\n}\n");
        o
    }

    /// Human-oriented markdown report; virtual sections first, wall last.
    pub fn to_markdown(&self) -> String {
        let mut o = String::from("# maia-bench profile\n\n");
        o.push_str(&format!(
            "Selection: {} — {} events, cache {} hit / {} miss, {} job(s).\n\n",
            self.selection.join(", "),
            self.events_total,
            self.cache_hits,
            self.cache_misses,
            self.jobs,
        ));
        o.push_str("## Experiments (virtual time — deterministic)\n\n");
        o.push_str("| code | dominant | events | vt (ms) | engines | scheduled | fired | max queue | spans |\n");
        o.push_str("|---|---|---:|---:|---:|---:|---:|---:|---:|\n");
        for e in &self.experiments {
            o.push_str(&format!(
                "| {} | {} | {} | {:.3} | {} | {} | {} | {} | {} |\n",
                e.code,
                e.dominant,
                e.events(),
                ps_as_ms(e.total_vt_ps),
                e.sim.engines,
                e.sim.scheduled,
                e.sim.fired,
                e.sim.max_queue_depth,
                e.spans.len(),
            ));
        }
        o.push('\n');
        o.push_str("### Virtual time by subsystem (ms)\n\n");
        for e in &self.experiments {
            if e.vt_ps.is_empty() {
                continue;
            }
            let parts: Vec<String> = e
                .vt_ps
                .iter()
                .map(|(n, &v)| format!("{n} {:.3}", ps_as_ms(v)))
                .collect();
            o.push_str(&format!("- **{}**: {}\n", e.code, parts.join(", ")));
        }
        o.push('\n');
        if !self.domains.is_empty() {
            o.push_str("## Shared sub-models (attributed to cache keys)\n\n");
            o.push_str("| domain | keys | vt (ms) | engines | events | spans |\n");
            o.push_str("|---|---:|---:|---:|---:|---:|\n");
            for d in &self.domains {
                o.push_str(&format!(
                    "| {} | {} | {:.3} | {} | {} | {} |\n",
                    d.domain,
                    d.keys,
                    ps_as_ms(d.vt_ps.values().sum()),
                    d.sim.engines,
                    d.counters.values().sum::<u64>() + d.sim.total(),
                    d.spans.len(),
                ));
            }
            o.push('\n');
        }
        o.push_str("## Wall clock (not deterministic)\n\n");
        o.push_str(&format!(
            "Sweep: {:.1} ms on {} job(s); {} parallel region(s) observed.\n\n",
            self.wall_s * 1e3,
            self.jobs,
            self.omp_regions,
        ));
        if !self.supervise.is_zero() {
            o.push_str(&format!(
                "Supervisor: {} worker(s) lost, {} respawn(s), {} missed heartbeat(s), \
                 {} degraded run(s), {} ms in backoff.\n\n",
                self.supervise.workers_lost,
                self.supervise.respawns,
                self.supervise.missed_heartbeats,
                self.supervise.degraded,
                self.supervise.backoff_wait_ms,
            ));
        }
        o.push_str("| worker | busy (ms) | utilization |\n|---:|---:|---:|\n");
        for w in &self.workers {
            o.push_str(&format!(
                "| {} | {:.1} | {:.0}% |\n",
                w.worker,
                w.busy_s * 1e3,
                w.utilization * 100.0
            ));
        }
        o
    }

    /// Chrome trace-event JSON array (Perfetto / `chrome://tracing`).
    ///
    /// Layout: pid 0 carries wall-clock events (`cat: "wall"`), pid
    /// `1+i` carries the i-th experiment's virtual-time events, pid
    /// `100+j` the j-th shared domain. Filtering out `cat == "wall"`
    /// leaves a bit-deterministic event sequence; timestamps are virtual
    /// picoseconds rendered as microseconds.
    pub fn to_chrome_trace(&self) -> String {
        let mut ev: Vec<String> = Vec::new();
        let meta = |pid: usize, name: &str, cat: &str| {
            format!(
                "{{\"ph\": \"M\", \"ts\": 0, \"pid\": {pid}, \"tid\": 0, \"cat\": \"{cat}\", \
                 \"name\": \"process_name\", \"args\": {{\"name\": \"{}\"}}}}",
                esc(name)
            )
        };
        for (i, e) in self.experiments.iter().enumerate() {
            let pid = 1 + i;
            ev.push(meta(pid, &format!("exp {}", e.code), "meta"));
            for (sub, &ps) in &e.vt_ps {
                ev.push(format!(
                    "{{\"ph\": \"X\", \"ts\": 0.000, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": 0, \
                     \"cat\": \"vt\", \"name\": \"{}\"}}",
                    ps as f64 / 1e6,
                    esc(&format!("{}:{sub}", e.code)),
                ));
            }
            for s in &e.spans {
                ev.push(format!(
                    "{{\"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {}, \
                     \"cat\": \"vt\", \"name\": \"{}\"}}",
                    s.start_ps as f64 / 1e6,
                    s.dur_ps as f64 / 1e6,
                    s.tid + 1,
                    esc(&s.name),
                ));
            }
        }
        for (j, d) in self.domains.iter().enumerate() {
            let pid = 100 + j;
            ev.push(meta(pid, &format!("shared {}", d.domain), "meta"));
            for (sub, &ps) in &d.vt_ps {
                ev.push(format!(
                    "{{\"ph\": \"X\", \"ts\": 0.000, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": 0, \
                     \"cat\": \"vt\", \"name\": \"{}\"}}",
                    ps as f64 / 1e6,
                    esc(&format!("{}:{sub}", d.domain)),
                ));
            }
            for s in &d.spans {
                ev.push(format!(
                    "{{\"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \"pid\": {pid}, \"tid\": {}, \
                     \"cat\": \"vt\", \"name\": \"{}\"}}",
                    s.start_ps as f64 / 1e6,
                    s.dur_ps as f64 / 1e6,
                    s.tid + 1,
                    esc(&s.name),
                ));
            }
        }
        ev.push(meta(0, "wall", "wall"));
        for s in &self.wall_spans {
            ev.push(format!(
                "{{\"ph\": \"X\", \"ts\": {:.1}, \"dur\": {:.1}, \"pid\": 0, \"tid\": {}, \
                 \"cat\": \"wall\", \"name\": \"{}\"}}",
                s.start_s * 1e6,
                s.dur_s * 1e6,
                s.tid,
                esc(&s.name),
            ));
        }
        let mut o = String::from("[\n");
        for (i, e) in ev.iter().enumerate() {
            o.push_str("  ");
            o.push_str(e);
            o.push_str(if i + 1 == ev.len() { "\n" } else { ",\n" });
        }
        o.push_str("]\n");
        o
    }
}

fn json_u64_map(map: &BTreeMap<String, u64>, indent: usize) -> String {
    if map.is_empty() {
        return "{}".to_string();
    }
    let pad = " ".repeat(indent);
    let items: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{pad}  \"{}\": {v}", esc(k)))
        .collect();
    format!("{{\n{}\n{pad}}}", items.join(",\n"))
}

fn json_sim(sim: &SimCounters) -> String {
    format!(
        "{{ \"engines\": {}, \"processes\": {}, \"scheduled\": {}, \"fired\": {}, \
         \"blocked\": {}, \"finished\": {}, \"max_queue_depth\": {} }}",
        sim.engines,
        sim.processes,
        sim.scheduled,
        sim.fired,
        sim.blocked,
        sim.finished,
        sim.max_queue_depth
    )
}

fn json_hists(hists: &BTreeMap<String, Histogram>, indent: usize) -> String {
    if hists.is_empty() {
        return "{}".to_string();
    }
    let pad = " ".repeat(indent);
    let items: Vec<String> = hists
        .iter()
        .map(|(k, h)| {
            let buckets: Vec<String> = h
                .buckets
                .iter()
                .map(|(b, c)| format!("\"{b}\": {c}"))
                .collect();
            format!(
                "{pad}  \"{}\": {{ \"count\": {}, \"sum\": {}, \"log2\": {{ {} }} }}",
                esc(k),
                h.count,
                h.sum,
                buckets.join(", ")
            )
        })
        .collect();
    format!("{{\n{}\n{pad}}}", items.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ProfileReport {
        let mut vt = BTreeMap::new();
        vt.insert("memory".to_string(), 2_000_000u64);
        vt.insert("pcie".to_string(), 500_000u64);
        let mut counters = BTreeMap::new();
        counters.insert("figdata.rows".to_string(), 16u64);
        ProfileReport {
            jobs: 2,
            selection: vec!["F05".to_string()],
            experiments: vec![ExperimentProfile {
                code: "F05".to_string(),
                counters,
                vt_ps: vt.clone(),
                total_vt_ps: 2_500_000,
                proc_vt_ps: vec![("rank-0".to_string(), 1_000)],
                hist: BTreeMap::new(),
                sim: SimCounters {
                    engines: 1,
                    processes: 2,
                    scheduled: 5,
                    fired: 5,
                    blocked: 1,
                    finished: 2,
                    max_queue_depth: 3,
                },
                spans: vec![VtSpan {
                    name: "rank-0".to_string(),
                    start_ps: 0,
                    dur_ps: 1_000,
                    tid: 0,
                }],
                dropped_spans: 0,
                dominant: "memory".to_string(),
                wall: Duration::from_millis(3),
            }],
            domains: vec![],
            cache_hits: 4,
            cache_misses: 2,
            events_total: 29,
            wall_s: 0.012,
            workers: vec![WorkerUtilization {
                worker: 0,
                busy_s: 0.01,
                utilization: 0.83,
            }],
            wall_spans: vec![WallSpan {
                name: "F05".to_string(),
                tid: 0,
                start_s: 0.001,
                dur_s: 0.003,
                cat: "wall-exp",
            }],
            omp_regions: 7,
            supervise: crate::telemetry::SuperviseCounters::default(),
        }
    }

    #[test]
    fn json_separates_virtual_and_wall() {
        let j = sample_report().to_json();
        assert!(j.contains("\"schema\": \"maia-profile-v1\""));
        assert!(j.contains("\"virtual\""));
        assert!(j.contains("\"wall\""));
        assert!(j.contains("\"dominant\": \"memory\""));
        assert!(j.contains("\"events\": 29"));
        let virt = j.split("\"wall\"").next().unwrap();
        assert!(!virt.contains("wall_ms"), "virtual section leaked wall data");
    }

    #[test]
    fn markdown_mentions_codes_and_buckets() {
        let m = sample_report().to_markdown();
        assert!(m.contains("F05"));
        assert!(m.contains("memory"));
        assert!(m.contains("Wall clock (not deterministic)"));
    }

    #[test]
    fn chrome_trace_is_an_array_with_required_keys() {
        let t = sample_report().to_chrome_trace();
        assert!(t.trim_start().starts_with('['));
        assert!(t.trim_end().ends_with(']'));
        assert!(t.contains("\"ph\": \"X\""));
        assert!(t.contains("\"ph\": \"M\""));
        assert!(t.contains("\"name\": \"F05:memory\""));
        assert!(t.contains("\"cat\": \"wall\""));
        // Every event line carries ph, ts and name.
        for line in t.lines().filter(|l| l.trim_start().starts_with('{')) {
            assert!(line.contains("\"ph\""), "{line}");
            assert!(line.contains("\"ts\""), "{line}");
            assert!(line.contains("\"name\""), "{line}");
        }
    }

    #[test]
    fn dominant_falls_back_to_closed_form() {
        assert_eq!(dominant_subsystem(&BTreeMap::new()), "closed-form");
        let mut m = BTreeMap::new();
        m.insert("io".to_string(), 0u64);
        assert_eq!(dominant_subsystem(&m), "closed-form");
        m.insert("omp".to_string(), 9u64);
        assert_eq!(dominant_subsystem(&m), "omp");
    }
}
