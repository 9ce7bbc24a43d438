//! The metric catalogue: every end-to-end and per-layer metric the
//! benchmark prints, with its unit and direction. `BENCHMARK.json` at the
//! repository root declares the same set; a test keeps the two in step.

/// A metric a user of the system sees, with the share of the baseline
/// median by which it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// A single layer's metric. All are "lower is better" except where
/// `higher` is set. An `exact` metric is a deterministic count: it must
/// repeat bit for bit and is reported as a count, never as a speed-up.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher: bool,
    pub exact: bool,
}

/// Bounds on the interquartile spread of each metric over ten 20 s runs on
/// the 2-vCPU guest the benchmark was defined on, after the host-speed
/// correction (see README.md): the median wall spread at most 5%, so it
/// gets three times that. The tail, the CPU (`cluster_process` fits only
/// six or seven samples in a run) and the set-up time get the widest
/// bound allowed.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_ms.p50",
        unit: "ms",
        bound: 0.15,
    },
    EndToEnd {
        name: "wall_ms.p90",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms.mean",
        unit: "ms",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        bound: 0.10,
    },
];

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher: false,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, higher: bool) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher,
        exact: true,
    }
}

pub const PER_LAYER: [PerLayer; 64] = [
    // maia_npb::mpi_npb — A01's calls, host and Phi world per row.
    lower("a01.ep_ms", "ms"),
    lower("a01.cg_ms", "ms"),
    lower("a01.ft_ms", "ms"),
    lower("a01.is_ms", "ms"),
    // maia_npb bare kernels, same sizes, one thread.
    lower("npb.ep.bare_ms", "ms"),
    lower("npb.cg.bare_ms", "ms"),
    lower("npb.ft.bare_ms", "ms"),
    lower("npb.is.bare_ms", "ms"),
    // maia_apps::overflow_mpi — A02's three layouts.
    lower("a02.host4_ms", "ms"),
    lower("a02.phi4_ms", "ms"),
    lower("a02.sym_ms", "ms"),
    // Every other sweep experiment through run_experiment.
    lower("sweep.models_ms", "ms"),
    // maia_sim: timer wheel and inline dispatch.
    lower("sim.wheel.ns_per_event", "ns"),
    exact("sim.wheel.events", "count", false),
    lower("sim.dispatch.ns_per_hop", "ns"),
    exact("sim.dispatch.hops", "count", false),
    // DES vs closed form over the crosscheck experiments.
    lower("xc.des.F10_ms", "ms"),
    lower("xc.des.F11_ms", "ms"),
    lower("xc.des.F12_ms", "ms"),
    lower("xc.des.F13_ms", "ms"),
    lower("xc.des.F14_ms", "ms"),
    lower("xc.des.C01_ms", "ms"),
    lower("xc.des.C02_ms", "ms"),
    lower("xc.fast_ms", "ms"),
    exact("xc.cells", "count", true),
    // The workload's own DES events (telemetry child).
    exact("sim.events", "count", false),
    lower("sim.ns_per_event", "ns"),
    // maia_mpi: point to point and collectives.
    lower("mpi.p2p.ns_per_msg", "ns"),
    exact("mpi.p2p.msgs", "count", false),
    lower("mpi.coll.des_us.bcast", "us"),
    lower("mpi.coll.des_us.allreduce", "us"),
    lower("mpi.coll.des_us.allgather", "us"),
    lower("mpi.coll.des_us.alltoall", "us"),
    lower("mpi.coll.fast_ns.bcast", "ns"),
    lower("mpi.coll.fast_ns.allreduce", "ns"),
    lower("mpi.coll.fast_ns.allgather", "ns"),
    lower("mpi.coll.fast_ns.alltoall", "ns"),
    // maia_omp::Team.
    lower("omp.region_us", "us"),
    lower("omp.barrier_us", "us"),
    // maia_core::cache::memo; hits and misses are the workload's own.
    lower("cache.hit_ns", "ns"),
    lower("cache.miss_ns", "ns"),
    exact("cache.hits", "count", true),
    exact("cache.misses", "count", false),
    // Telemetry and fault hooks.
    lower("telemetry.off_ns", "ns"),
    lower("telemetry.on_ns", "ns"),
    lower("faults.off_ns", "ns"),
    // maia_sim::partition over in-process channels.
    lower("partition.cell_ms.p50", "ms"),
    lower("partition.cell_ms.p90", "ms"),
    exact("partition.windows", "count", false),
    exact("partition.messages", "count", false),
    lower("partition.stall_frac", "fraction"),
    lower("partition.window_us.channel", "us"),
    // Wire codec, pipe exchange and the supervisor.
    lower("wire.encode_ns", "ns"),
    lower("wire.decode_ns", "ns"),
    exact("wire.bytes_per_msg", "B", false),
    lower("partition.window_us.pipe", "us"),
    lower("supervise.cell_ms.p50", "ms"),
    lower("supervise.cell_ms.p90", "ms"),
    lower("supervise.overhead_ms.p50", "ms"),
    lower("supervise.missed_heartbeats", "count"),
    lower("supervise.workers_lost", "count"),
    lower("supervise.respawns", "count"),
    lower("supervise.degraded", "count"),
    // Span recorder cost on the workload call itself.
    lower("trace.overhead_frac", "fraction"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must declare exactly this catalogue, one metric
    /// per line, so the printed metrics and the declared ones agree.
    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in &END_TO_END {
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        for m in &PER_LAYER {
            let better = if m.higher { "higher" } else { "lower" };
            let line = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            );
            assert!(json.contains(&line), "BENCHMARK.json lacks {line}");
        }
        let workloads = crate::workload::Workload::ALL.len();
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads,
            "BENCHMARK.json declares metrics the harness does not print"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
