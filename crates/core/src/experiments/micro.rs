//! Microbenchmark experiments: Table 1, Figures 4–6 (memory), 15–16
//! (OpenMP overheads) and 17 (I/O).

use maia_arch::{presets, Device};
use maia_iosim::{io_sweep, IoOp, IoPath};
use maia_mem::bandwidth::{per_core_bw_gbs, stream_triad_gbs, AccessKind};
use maia_mem::latency::analytic_latency_ns;
use maia_omp::{OmpConstruct, OverheadModel, Schedule};

use crate::cache;
use crate::config::RunConfig;
use crate::figdata::{fmt_bytes, FigureData};
use crate::telemetry;

/// Memoized STREAM triad point; the curve also feeds the application
/// models (F19/F21/F22), so it is shared through the cache.
fn cached_stream_gbs(
    cfg: &RunConfig,
    label: &str,
    proc: &maia_arch::ProcessorSpec,
    tpc: u32,
    threads: u32,
) -> f64 {
    let key = format!("stream/{label}/{tpc}/{threads}");
    cache::memo(&cfg.memo_key(&key), || stream_triad_gbs(proc, tpc, threads, cfg.faults()))
}

/// Table 1.
pub fn table1() -> FigureData {
    let sys = presets::maia_system();
    let text = maia_arch::table::render_table1(&sys);
    let mut f = FigureData::new("T1", "Characteristics of Maia (computed)", &["row"]);
    for line in text.lines() {
        f.push_row(vec![line.to_string()]);
    }
    f.note("Every numeric cell is derived from first-principle parameters.");
    f
}

/// Figure 4: STREAM triad bandwidth vs thread count.
pub fn fig4_stream(cfg: &RunConfig) -> FigureData {
    let host = presets::xeon_e5_2670();
    let phi = presets::xeon_phi_5110p();
    let mut f = FigureData::new(
        "F4",
        "STREAM triad bandwidth (GB/s) vs threads",
        &["device", "threads", "GB/s"],
    );
    // Modeled time to triad-stream 1 GiB at each measured bandwidth —
    // the virtual time this figure "spends" in the memory subsystem.
    let mut model_ns = 0.0;
    let gib = (1u64 << 30) as f64;
    for t in [1u32, 2, 4, 8, 16, 32] {
        let gbs = cached_stream_gbs(cfg, "host", &host, 2, t);
        model_ns += gib / gbs;
        f.push_row(vec!["host".into(), t.to_string(), format!("{gbs:.1}")]);
    }
    for t in [1u32, 30, 59, 118, 130, 177, 236] {
        let gbs = cached_stream_gbs(cfg, "phi0", &phi, 1, t);
        model_ns += gib / gbs;
        f.push_row(vec!["phi0".into(), t.to_string(), format!("{gbs:.1}")]);
    }
    telemetry::add_model_vt("memory", model_ns);
    f.note("Paper: Phi peaks at 180 GB/s for 59/118 threads, drops to 140 GB/s beyond (GDDR5 open-bank limit of 128).");
    f
}

/// Figure 5: load latency vs working-set size.
pub fn fig5_latency() -> FigureData {
    let host = presets::xeon_e5_2670();
    let phi = presets::xeon_phi_5110p();
    let mut f = FigureData::new(
        "F5",
        "Memory load latency (ns) vs working set",
        &["working-set", "host ns", "phi ns"],
    );
    // Modeled time for one dependent-load walk over each working set
    // (one 64-byte line per access) — the figure's memory virtual time.
    let mut model_ns = 0.0;
    let mut ws = 4 * 1024u64;
    while ws <= 256 * 1024 * 1024 {
        let host_ns = analytic_latency_ns(&host, ws);
        let phi_ns = analytic_latency_ns(&phi, ws);
        model_ns += (ws / 64) as f64 * (host_ns + phi_ns);
        f.push_row(vec![
            fmt_bytes(ws),
            format!("{host_ns:.1}"),
            format!("{phi_ns:.1}"),
        ]);
        ws *= 4;
    }
    telemetry::add_model_vt("memory", model_ns);
    f.note("Paper plateaus — host: 1.5/4.6/15/81 ns (L1/L2/L3/DRAM); Phi: 2.9/22.9/295 ns (L1/L2/DRAM).");
    f
}

/// Figure 6: per-core read/write bandwidth vs working-set size.
pub fn fig6_bandwidth() -> FigureData {
    let host = presets::xeon_e5_2670();
    let phi = presets::xeon_phi_5110p();
    let mut f = FigureData::new(
        "F6",
        "Per-core load bandwidth (GB/s) vs working set",
        &["working-set", "host read", "host write", "phi read", "phi write"],
    );
    // Modeled time to touch each working set once at the modeled rate.
    let mut model_ns = 0.0;
    let mut ws = 16 * 1024u64;
    while ws <= 256 * 1024 * 1024 {
        let hr = per_core_bw_gbs(&host, ws, AccessKind::Read);
        let hw = per_core_bw_gbs(&host, ws, AccessKind::Write);
        let pr = per_core_bw_gbs(&phi, ws, AccessKind::Read);
        let pw = per_core_bw_gbs(&phi, ws, AccessKind::Write);
        model_ns += ws as f64 * (1.0 / hr + 1.0 / hw + 1.0 / pr + 1.0 / pw);
        f.push_row(vec![
            fmt_bytes(ws),
            format!("{hr:.2}"),
            format!("{hw:.2}"),
            format!("{pr:.3}"),
            format!("{pw:.3}"),
        ]);
        ws *= 8;
    }
    telemetry::add_model_vt("memory", model_ns);
    f.note("Paper DRAM plateaus — host 7.5/7.2 GB/s; Phi 0.504/0.263 GB/s.");
    f
}

/// Figure 15: OpenMP synchronization overheads.
pub fn fig15_omp_sync() -> FigureData {
    let host = OverheadModel::for_processor(&presets::xeon_e5_2670());
    let phi = OverheadModel::for_processor(&presets::xeon_phi_5110p());
    let mut f = FigureData::new(
        "F15",
        "OpenMP construct overhead (us): host 16T vs Phi 236T",
        &["construct", "host us", "phi us", "phi/host"],
    );
    let mut model_us = 0.0;
    for c in OmpConstruct::ALL {
        let h = host.construct_overhead_us(c, 16);
        let p = phi.construct_overhead_us(c, 236);
        model_us += h + p;
        f.push_row(vec![
            c.label().into(),
            format!("{h:.2}"),
            format!("{p:.2}"),
            format!("{:.1}", p / h),
        ]);
    }
    telemetry::add_model_vt("omp", model_us * 1e3);
    f.note("Paper: ~an order of magnitude higher on the Phi; Reduction most expensive, ATOMIC least.");
    f
}

/// Figure 16: OpenMP scheduling overheads.
pub fn fig16_omp_sched() -> FigureData {
    let host = OverheadModel::for_processor(&presets::xeon_e5_2670());
    let phi = OverheadModel::for_processor(&presets::xeon_phi_5110p());
    let mut f = FigureData::new(
        "F16",
        "OpenMP scheduling overhead (us) for a 1024-iteration loop",
        &["schedule", "chunk", "host us", "phi us"],
    );
    let cases = [
        (Schedule::static_default(), 0usize),
        (Schedule::Dynamic { chunk: 1 }, 1),
        (Schedule::Dynamic { chunk: 8 }, 8),
        (Schedule::Dynamic { chunk: 64 }, 64),
        (Schedule::Guided { min_chunk: 1 }, 1),
        (Schedule::Guided { min_chunk: 8 }, 8),
    ];
    let mut model_us = 0.0;
    for (sched, chunk) in cases {
        let h = host.schedule_overhead_us(sched, 1024, 16);
        let p = phi.schedule_overhead_us(sched, 1024, 236);
        model_us += h + p;
        f.push_row(vec![
            sched.label().into(),
            chunk.to_string(),
            format!("{h:.2}"),
            format!("{p:.2}"),
        ]);
    }
    telemetry::add_model_vt("omp", model_us * 1e3);
    f.note("Paper: STATIC < GUIDED < DYNAMIC; Phi an order of magnitude above host.");
    f
}

/// Figure 17: sequential I/O bandwidth.
pub fn fig17_io() -> FigureData {
    let mut f = FigureData::new(
        "F17",
        "Sequential I/O bandwidth (MB/s)",
        &["device", "op", "block", "MB/s"],
    );
    let blocks = [64 * 1024u64, 1 << 20, 16 << 20, 64 << 20];
    // Modeled time to move each block once at its modeled rate.
    let mut model_ns = 0.0;
    for device in [Device::Host, Device::Phi0, Device::Phi1] {
        for op in [IoOp::Read, IoOp::Write] {
            for p in io_sweep(device, op, &blocks) {
                model_ns += p.block_bytes as f64 * 1e3 / p.bandwidth_mbs;
                f.push_row(vec![
                    device.label().into(),
                    format!("{op:?}"),
                    fmt_bytes(p.block_bytes),
                    format!("{:.0}", p.bandwidth_mbs),
                ]);
            }
        }
    }
    telemetry::add_model_vt("io", model_ns);
    let proxy = IoPath::phi_via_host_proxy(IoOp::Write).plateau_mbs();
    f.note(format!(
        "Paper: host 210 (write) / 295 (read) MB/s; Phi 80 / 75 MB/s. SCIF-proxy workaround reaches {proxy:.0} MB/s."
    ));
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_reproduces_bank_cliff() {
        let f = fig4_stream(&RunConfig::default());
        // The device label is not unique per row, so pull the phi rows directly.
        let phi: Vec<f64> = f
            .rows
            .iter()
            .filter(|r| r[0] == "phi0")
            .map(|r| r[2].parse().unwrap())
            .collect();
        let threads: Vec<u32> = f
            .rows
            .iter()
            .filter(|r| r[0] == "phi0")
            .map(|r| r[1].parse().unwrap())
            .collect();
        let v = |t: u32| phi[threads.iter().position(|&x| x == t).unwrap()];
        assert!((v(59) - 180.0).abs() < 1.0);
        assert!((v(118) - 180.0).abs() < 1.0);
        assert!((v(177) - 140.0).abs() < 1.0);
        assert!(v(130) < 160.0, "cliff should start past 128 threads");
    }

    #[test]
    fn fig5_endpoints_match_paper() {
        let f = fig5_latency();
        let first = &f.rows[0];
        let last = &f.rows[f.rows.len() - 1];
        assert!(first[1].parse::<f64>().unwrap() < 2.0); // host L1
        assert!(last[2].parse::<f64>().unwrap() > 280.0); // phi DRAM
    }

    #[test]
    fn fig15_has_all_constructs() {
        let f = fig15_omp_sync();
        assert_eq!(f.rows.len(), OmpConstruct::ALL.len());
        // Every ratio column shows the Phi worse.
        for row in &f.rows {
            assert!(row[3].parse::<f64>().unwrap() > 3.0);
        }
    }

    #[test]
    fn fig17_factors() {
        let f = fig17_io();
        let big = |dev: &str, op: &str| {
            f.rows
                .iter()
                .find(|r| r[0] == dev && r[1] == op && r[2] == "64MiB")
                .unwrap()[3]
                .parse::<f64>()
                .unwrap()
        };
        let wf = big("host", "Write") / big("phi0", "Write");
        let rf = big("host", "Read") / big("phi0", "Read");
        assert!((wf - 2.6).abs() < 0.4, "write factor {wf}");
        assert!((rf - 3.9).abs() < 0.5, "read factor {rf}");
    }
}
