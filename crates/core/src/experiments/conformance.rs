//! Per-experiment conformance checklists: every DESIGN.md §6 validation
//! target bound to oracle predicates over the regenerated tables.
//!
//! Bands pin the *shape* the paper publishes, not absolute numbers: cache
//! plateaus end at the documented boundaries, the STREAM knee falls at
//! 118 threads, the DAPL update lifts only SCIF-sized messages, the
//! paper's OOM failures stay failures, MG stays the only kernel faster on
//! the Phi. The widths leave the calibration room DESIGN.md grants
//! (repro band 1/5) while staying tight enough that reverting a modeled
//! mechanism — e.g. the 256 KiB SCIF threshold — produces a named
//! violation.

use crate::experiments::ExperimentId;
use crate::oracle::{
    best_label, cell, contains, crossover_between, marked_oom, monotone_nondecreasing,
    monotone_nonincreasing, not_oom, ordered_desc, peak_in_range, plateau_between, ratio_band,
    row_argmax, row_max, scalar_band, scalar_ratio_band, series, step_down_across, step_up_across,
    within_band, Agg, Best, Check, Scalar,
};

const KIB: f64 = 1024.0;
const MIB: f64 = 1024.0 * 1024.0;
const HUGE: f64 = 1e18;

/// Minimum multiplicative step the Figure 13 algorithm switch must
/// produce between 2 KiB and 4 KiB, in every configuration. Shared with
/// the `fig13_shows_the_jump` unit test in [`crate::experiments::coll`]
/// so the two margins cannot drift apart.
pub const F13_JUMP_FACTOR: f64 = 1.9;

/// The oracle predicates for one experiment (its table row's
/// `checklist`). Every artifact has a non-empty checklist; the suite
/// averages well over three predicates per experiment (asserted in
/// `tests/tests/paper_shapes.rs`).
pub fn checklist(id: ExperimentId) -> Vec<Check> {
    (id.meta().checklist)()
}

/// Table 1 is prerendered text; the derived headline constants must
/// survive any refactor of the spec builders.
pub(super) fn table1() -> Vec<Check> {
    vec![
        contains("1008"),  // Phi card peak Gflop/s
        contains("20.8"),  // host Gflop/s per core
        contains("258"),   // Phi system Tflop/s
        contains("86"),    // Phi share of the flops (%)
    ]
}

pub(super) fn fig4() -> Vec<Check> {
    let host = || series("threads", "GB/s").only("device", "host");
    let phi = || series("threads", "GB/s").only("device", "phi0");
    vec![
        monotone_nondecreasing(host()),
        // Host saturates in the mid-70s GB/s.
        scalar_band(Scalar::reduce(host(), Agg::Max), 70.0, 85.0),
        // Phi plateau ~180 GB/s at 59 and 118 threads...
        scalar_band(Scalar::reduce(phi(), Agg::At(59.0)), 170.0, 190.0),
        peak_in_range(phi(), 59.0, 118.0),
        // ...with the GDDR5 bank-occupancy knee past 118 threads...
        step_down_across(phi(), 120.0, 1.2),
        // ...down to ~140 GB/s for every higher thread count.
        within_band(phi().x_in(119.0, HUGE), 130.0, 150.0),
        // Enough threads carry the Phi past the host's saturated curve.
        crossover_between(phi(), host(), 1.0, 59.0),
    ]
}

pub(super) fn fig5() -> Vec<Check> {
    let host = || series("working-set", "host ns");
    let phi = || series("working-set", "phi ns");
    vec![
        monotone_nondecreasing(host()),
        monotone_nondecreasing(phi()),
        // L1 plateau, then the documented region boundaries:
        // host 32 KB / 256 KB / 20 MB, Phi 32 KB / 512 KB.
        plateau_between(host(), 0.0, 32.0 * KIB, 0.05),
        step_up_across(host(), 32.0 * KIB, 1.5),
        step_up_across(host(), 256.0 * KIB, 2.0),
        step_up_across(host(), 20.0 * MIB, 2.5),
        plateau_between(phi(), 0.0, 32.0 * KIB, 0.05),
        step_up_across(phi(), 32.0 * KIB, 3.0),
        step_up_across(phi(), 512.0 * KIB, 5.0),
        // Host under Phi at every level.
        ratio_band(phi(), host(), 1.5, 25.0),
        // DRAM plateaus near the paper's 81 / 295 ns.
        scalar_band(Scalar::reduce(host(), Agg::Last), 60.0, 95.0),
        scalar_band(Scalar::reduce(phi(), Agg::Last), 270.0, 320.0),
    ]
}

pub(super) fn fig6() -> Vec<Check> {
    let col = |c: &'static str| series("working-set", c);
    vec![
        monotone_nonincreasing(col("host read")),
        monotone_nonincreasing(col("host write")),
        monotone_nonincreasing(col("phi read")),
        monotone_nonincreasing(col("phi write")),
        // Paper endpoints: host read 12.6 -> 7.5 GB/s.
        scalar_band(Scalar::reduce(col("host read"), Agg::First), 12.0, 13.2),
        scalar_band(Scalar::reduce(col("host read"), Agg::Last), 7.0, 9.0),
        // Phi per-core DRAM: read 0.504, write 0.263 GB/s.
        scalar_band(Scalar::reduce(col("phi read"), Agg::Last), 0.45, 0.56),
        scalar_band(Scalar::reduce(col("phi write"), Agg::Last), 0.2, 0.3),
        ratio_band(col("host read"), col("phi read"), 7.0, 25.0),
    ]
}

pub(super) fn fig7() -> Vec<Check> {
    let pre = |p: &'static str| cell(&[("path", p)], "pre-update");
    vec![
        scalar_band(pre("host-phi0"), 3.0, 3.6),
        scalar_band(pre("host-phi1"), 4.3, 4.9),
        scalar_band(pre("phi0-phi1"), 6.0, 6.6),
        // Each PCIe hop adds latency: two-hop > far-socket > near.
        ordered_desc(
            "pre-update path latency",
            vec![
                ("phi0-phi1", pre("phi0-phi1")),
                ("host-phi1", pre("host-phi1")),
                ("host-phi0", pre("host-phi0")),
            ],
        ),
        // The update trims the far-socket (host-phi1) latency.
        scalar_ratio_band(
            cell(&[("path", "host-phi1")], "post-update"),
            pre("host-phi1"),
            0.80,
            0.99,
        ),
    ]
}

pub(super) fn fig8() -> Vec<Check> {
    let pre = |p: &'static str| series("size", "pre GB/s").only("path", p);
    let post = |p: &'static str| series("size", "post GB/s").only("path", p);
    let at4m = |s: Scalar| s;
    vec![
        monotone_nondecreasing(pre("host-phi0")),
        monotone_nondecreasing(pre("host-phi1")),
        monotone_nondecreasing(pre("phi0-phi1")),
        monotone_nondecreasing(post("host-phi0")),
        // Paper's 4 MB endpoints: pre 1.6 / 0.455 / 0.444 GB/s.
        scalar_band(at4m(Scalar::reduce(pre("host-phi0"), Agg::At(4.0 * MIB))), 1.4, 1.8),
        scalar_band(at4m(Scalar::reduce(pre("host-phi1"), Agg::At(4.0 * MIB))), 0.40, 0.50),
        scalar_band(at4m(Scalar::reduce(pre("phi0-phi1"), Agg::At(4.0 * MIB))), 0.40, 0.50),
        // Post 6 / 6 / 0.899 GB/s.
        scalar_band(at4m(Scalar::reduce(post("host-phi0"), Agg::At(4.0 * MIB))), 5.5, 6.5),
        scalar_band(at4m(Scalar::reduce(post("host-phi1"), Agg::At(4.0 * MIB))), 5.5, 6.5),
        scalar_band(at4m(Scalar::reduce(post("phi0-phi1"), Agg::At(4.0 * MIB))), 0.85, 0.95),
        // Pre-update asymmetry between the two host paths, removed post.
        scalar_ratio_band(
            Scalar::reduce(pre("host-phi0"), Agg::At(4.0 * MIB)),
            Scalar::reduce(pre("host-phi1"), Agg::At(4.0 * MIB)),
            3.0,
            4.0,
        ),
        scalar_ratio_band(
            Scalar::reduce(post("host-phi0"), Agg::At(4.0 * MIB)),
            Scalar::reduce(post("host-phi1"), Agg::At(4.0 * MIB)),
            0.95,
            1.10,
        ),
    ]
}

pub(super) fn fig9() -> Vec<Check> {
    let gain = |p: &'static str| series("size", "gain").only("path", p);
    vec![
        // SCIF-sized messages (>= 256 KiB) get the documented lift.
        within_band(gain("host-phi0").x_in(256.0 * KIB, HUGE), 2.0, 4.2),
        within_band(gain("host-phi1").x_in(256.0 * KIB, HUGE), 7.0, 14.0),
        within_band(gain("phi0-phi1").x_in(256.0 * KIB, HUGE), 1.8, 2.2),
        // Below the SCIF threshold the update barely moves the needle.
        within_band(gain("host-phi0").x_in(0.0, 64.0 * KIB), 0.9, 1.6),
        within_band(gain("host-phi1").x_in(0.0, 64.0 * KIB), 0.9, 1.6),
        within_band(gain("phi0-phi1").x_in(0.0, 64.0 * KIB), 0.9, 1.6),
        // The gain step sits exactly at the provider switch: these fire
        // if the 256 KiB SCIF threshold drifts (the PR 1 off-by-one).
        step_up_across(gain("host-phi0"), 128.0 * KIB, 2.0),
        step_up_across(gain("host-phi1"), 128.0 * KIB, 5.0),
        step_up_across(gain("phi0-phi1"), 128.0 * KIB, 1.7),
    ]
}

pub(super) fn fig10() -> Vec<Check> {
    let cfg = |c: &'static str| series("size", "MB/s").only("config", c);
    vec![
        monotone_nondecreasing(cfg("host-16")),
        monotone_nondecreasing(cfg("phi-59 (1t/c)")),
        monotone_nondecreasing(cfg("phi-236 (4t/c)")),
        // Paper: host over Phi 1.3-3.5x at 1 t/c, 24-54x at 4 t/c.
        ratio_band(cfg("host-16"), cfg("phi-59 (1t/c)"), 1.3, 3.5),
        ratio_band(cfg("host-16"), cfg("phi-236 (4t/c)"), 24.0, 54.0),
    ]
}

pub(super) fn fig11() -> Vec<Check> {
    let cfg = |c: &'static str| series("size", "time us").only("config", c);
    vec![
        monotone_nondecreasing(cfg("host-16")),
        monotone_nondecreasing(cfg("phi-59 (1t/c)")),
        monotone_nondecreasing(cfg("phi-236 (4t/c)")),
        ratio_band(cfg("phi-59 (1t/c)"), cfg("host-16"), 1.1, 5.0),
        ratio_band(cfg("phi-236 (4t/c)"), cfg("host-16"), 40.0, 120.0),
    ]
}

pub(super) fn fig12() -> Vec<Check> {
    let cfg = |c: &'static str| series("size", "time us").only("config", c);
    vec![
        monotone_nondecreasing(cfg("host-16")),
        monotone_nondecreasing(cfg("phi-59 (1t/c)")),
        // Paper bands: 2.2-13.4x at 59 T, 28-104x at 236 T.
        ratio_band(cfg("phi-59 (1t/c)"), cfg("host-16"), 2.2, 13.4),
        ratio_band(cfg("phi-236 (4t/c)"), cfg("host-16"), 28.0, 110.0),
    ]
}

pub(super) fn fig13() -> Vec<Check> {
    let cfg = |c: &'static str| series("size", "time us").only("config", c);
    vec![
        // The algorithm-switch jump between 2 KiB and 4 KiB, every world.
        step_up_across(cfg("host-16"), 3.0 * KIB, F13_JUMP_FACTOR),
        step_up_across(cfg("phi-59 (1t/c)"), 3.0 * KIB, F13_JUMP_FACTOR),
        step_up_across(cfg("phi-236 (4t/c)"), 3.0 * KIB, F13_JUMP_FACTOR),
        ratio_band(cfg("phi-59 (1t/c)"), cfg("host-16"), 2.6, 17.1),
        ratio_band(cfg("phi-236 (4t/c)"), cfg("host-16"), 68.0, 1146.0),
    ]
}

pub(super) fn fig14() -> Vec<Check> {
    let cfg = |c: &'static str| series("size", "time us").only("config", c);
    vec![
        // 236-rank Alltoall dies beyond 4 KiB for lack of card memory...
        marked_oom(&[("config", "phi-236 (4t/c)"), ("size", "8KiB")], "time us"),
        marked_oom(&[("config", "phi-236 (4t/c)"), ("size", "64KiB")], "time us"),
        // ...but completes at and below it, and 59 ranks always fit.
        not_oom(&[("config", "phi-236 (4t/c)"), ("size", "4KiB")], "time us"),
        not_oom(&[("config", "phi-59 (1t/c)")], "time us"),
        ratio_band(cfg("phi-59 (1t/c)"), cfg("host-16"), 8.0, 20.0),
        ratio_band(cfg("phi-236 (4t/c)"), cfg("host-16"), 1000.0, 2700.0),
    ]
}

pub(super) fn fig15() -> Vec<Check> {
    let phi = |c: &'static str| cell(&[("construct", c)], "phi us");
    let host = |c: &'static str| cell(&[("construct", c)], "host us");
    vec![
        // Phi overheads roughly an order of magnitude above host.
        within_band(series("construct", "phi/host"), 3.0, 20.0),
        // Construct ordering on both architectures.
        ordered_desc(
            "phi construct overhead",
            vec![
                ("REDUCTION", phi("REDUCTION")),
                ("PARALLEL FOR", phi("PARALLEL FOR")),
                ("PARALLEL", phi("PARALLEL")),
                ("BARRIER", phi("BARRIER")),
                ("SINGLE", phi("SINGLE")),
                ("ATOMIC", phi("ATOMIC")),
            ],
        ),
        ordered_desc(
            "host construct overhead",
            vec![
                ("REDUCTION", host("REDUCTION")),
                ("PARALLEL FOR", host("PARALLEL FOR")),
                ("PARALLEL", host("PARALLEL")),
                ("BARRIER", host("BARRIER")),
                ("SINGLE", host("SINGLE")),
                ("ATOMIC", host("ATOMIC")),
            ],
        ),
        best_label(&[], "phi us", Best::Max, "construct", "REDUCTION"),
        best_label(&[], "phi us", Best::Min, "construct", "ATOMIC"),
    ]
}

pub(super) fn fig16() -> Vec<Check> {
    let at = |s: &'static str, chunk: &'static str, col: &'static str| {
        cell(&[("schedule", s), ("chunk", chunk)], col)
    };
    vec![
        // STATIC < GUIDED < DYNAMIC at matched chunk, both devices.
        ordered_desc(
            "host schedule overhead (chunk 1)",
            vec![
                ("DYNAMIC", at("DYNAMIC", "1", "host us")),
                ("GUIDED", at("GUIDED", "1", "host us")),
                ("STATIC", at("STATIC", "0", "host us")),
            ],
        ),
        ordered_desc(
            "phi schedule overhead (chunk 1)",
            vec![
                ("DYNAMIC", at("DYNAMIC", "1", "phi us")),
                ("GUIDED", at("GUIDED", "1", "phi us")),
                ("STATIC", at("STATIC", "0", "phi us")),
            ],
        ),
        // Bigger chunks amortize the dynamic dispatch.
        monotone_nonincreasing(series("chunk", "host us").only("schedule", "DYNAMIC")),
        monotone_nonincreasing(series("chunk", "phi us").only("schedule", "DYNAMIC")),
        // Phi an order of magnitude above host for the static baseline.
        scalar_ratio_band(at("STATIC", "0", "phi us"), at("STATIC", "0", "host us"), 5.0, 15.0),
    ]
}

pub(super) fn fig17() -> Vec<Check> {
    let dev = |d: &'static str, op: &'static str| {
        series("block", "MB/s").only("device", d).only("op", op)
    };
    let at64 = |d: &'static str, op: &'static str| {
        cell(&[("device", d), ("op", op), ("block", "64MiB")], "MB/s")
    };
    vec![
        monotone_nondecreasing(dev("host", "Read")),
        monotone_nondecreasing(dev("host", "Write")),
        monotone_nondecreasing(dev("phi0", "Read")),
        // Paper plateaus: host 295 read / 210 write, Phi ~75-80 MB/s.
        scalar_band(at64("host", "Read"), 280.0, 310.0),
        scalar_band(at64("host", "Write"), 200.0, 220.0),
        scalar_band(at64("phi0", "Read"), 70.0, 80.0),
        // The MPSS TCP/IP-over-PCIe stack costs the Phi ~4x on reads.
        scalar_ratio_band(at64("host", "Read"), at64("phi0", "Read"), 3.5, 4.5),
        // Both cards behave identically.
        ratio_band(dev("phi0", "Read"), dev("phi1", "Read"), 0.95, 1.05),
    ]
}

pub(super) fn fig18() -> Vec<Check> {
    let phi0 = || series("size", "phi0 GB/s");
    let phi1 = || series("size", "phi1 GB/s");
    vec![
        monotone_nondecreasing(phi0()),
        monotone_nondecreasing(phi1()),
        // TLP-framing ceiling ~6.4 GB/s.
        within_band(phi0().x_in(4.0 * MIB, HUGE), 6.0, 6.6),
        plateau_between(phi0(), 64.0 * MIB, 256.0 * MIB, 0.01),
        // Phi0 sits ~3% above Phi1 once transfers amortize setup.
        ratio_band(phi0().x_in(64.0 * KIB, HUGE), phi1().x_in(64.0 * KIB, HUGE), 1.005, 1.05),
        // Small transfers are latency-bound far below the ceiling.
        scalar_band(Scalar::reduce(phi0(), Agg::At(4.0 * KIB)), 0.3, 0.5),
    ]
}

pub(super) fn fig19() -> Vec<Check> {
    const PHI_COLS: [&str; 4] = ["phi-59", "phi-118", "phi-177", "phi-236"];
    let best_phi = |b: &'static str| row_max(&[("benchmark", b)], &PHI_COLS);
    let host = |b: &'static str| cell(&[("benchmark", b)], "host-16");
    let mut checks = vec![
        // MG is the only kernel faster on the Phi than on the host.
        scalar_ratio_band(best_phi("MG"), host("MG"), 1.0, 1.4),
    ];
    for b in ["BT", "CG", "FT", "LU", "SP"] {
        checks.push(scalar_ratio_band(best_phi(b), host(b), 0.01, 0.999));
    }
    // BT highest / CG lowest among the Phi results (MG is the runner-up
    // maximum, LU the runner-up minimum).
    checks.push(ordered_desc(
        "phi-best extremes",
        vec![
            ("BT", best_phi("BT")),
            ("MG", best_phi("MG")),
            ("LU", best_phi("LU")),
            ("CG", best_phi("CG")),
        ],
    ));
    // 3 threads/core is the sweet spot for all but gather-bound CG.
    for b in ["BT", "FT", "LU", "MG", "SP"] {
        checks.push(row_argmax(&[("benchmark", b)], &PHI_COLS, "phi-177"));
    }
    checks.push(row_argmax(&[("benchmark", "CG")], &PHI_COLS, "phi-236"));
    checks
}

pub(super) fn fig20() -> Vec<Check> {
    let at = |b: &'static str, c: &'static str| cell(&[("benchmark", b), ("config", c)], "Gflop/s");
    vec![
        // FT needs ~10 GB and cannot run on the 8 GB card...
        marked_oom(&[("benchmark", "FT"), ("config", "phi-64")], "Gflop/s"),
        marked_oom(&[("benchmark", "FT"), ("config", "phi-128")], "Gflop/s"),
        // ...but runs fine on the host.
        not_oom(&[("benchmark", "FT"), ("config", "host-16")], "Gflop/s"),
        // BT-MPI is the one code best at 4 ranks/core.
        ordered_desc(
            "BT rank counts",
            vec![
                ("phi-225", at("BT", "phi-225")),
                ("phi-169", at("BT", "phi-169")),
            ],
        ),
        // MG again close to host parity; CG again the worst.
        scalar_ratio_band(at("MG", "phi-128"), at("MG", "host-16"), 0.8, 1.0),
        scalar_ratio_band(at("CG", "host-16"), at("CG", "phi-128"), 5.0, 15.0),
    ]
}

pub(super) fn fig21() -> Vec<Check> {
    let phi = || series("threads", "relative perf").only("device", "phi0");
    vec![
        monotone_nondecreasing(phi()),
        // Cart3D is the 4 t/c outlier: more threads always help.
        peak_in_range(phi(), 200.0, 240.0),
        // Host ~2x the best Phi result.
        scalar_band(Scalar::reduce(phi(), Agg::Max), 0.3, 0.75),
        scalar_band(cell(&[("device", "host")], "relative perf"), 0.999, 1.001),
    ]
}

pub(super) fn fig22() -> Vec<Check> {
    vec![
        best_label(&[("device", "host")], "s/step", Best::Min, "layout", "16x1"),
        best_label(&[("device", "host")], "s/step", Best::Max, "layout", "1x16"),
        best_label(&[("device", "phi0")], "s/step", Best::Min, "layout", "8x28"),
        best_label(&[("device", "phi0")], "s/step", Best::Max, "layout", "4x14"),
        // Host best beats Phi best by ~1.8x.
        scalar_ratio_band(
            Scalar::reduce(series("layout", "s/step").only("device", "phi0"), Agg::Min),
            Scalar::reduce(series("layout", "s/step").only("device", "host"), Agg::Min),
            1.6,
            2.2,
        ),
    ]
}

pub(super) fn fig23() -> Vec<Check> {
    vec![
        // Post-update gains land in the paper's 2-28% band.
        within_band(series("phi layout", "gain %"), 1.0, 30.0),
        ratio_band(
            series("phi layout", "pre-update s/step"),
            series("phi layout", "post-update s/step"),
            1.005,
            1.35,
        ),
        best_label(&[], "post-update s/step", Best::Min, "phi layout", "8x28"),
        // The headline: symmetric mode ~1.9x the best native-host run.
        // Computed against the model directly (native host is not a row
        // of this figure), exactly as the paper frames the comparison.
        Check::custom(
            "symmetric_boost_vs_native_host[model]",
            "boost in [1.6, 2.2]",
            |_fig| {
                use maia_apps::overflow::overflow_profile;
                use maia_interconnect::SoftwareStack;
                use maia_modes::SymmetricLayout;
                let k = overflow_profile(35.9e6);
                let layout = SymmetricLayout {
                    host_ranks: 16,
                    host_threads_per_rank: 1,
                    phi_ranks: 8,
                    phi_threads_per_rank: 28,
                    stack: SoftwareStack::PostUpdate,
                    imbalance: 0.25,
                };
                let boost = layout.native_host_step(&k) / layout.step(&k, 24 << 20).step_s;
                let obs = format!("boost {boost:.3}");
                if (1.6..=2.2).contains(&boost) {
                    Ok(obs)
                } else {
                    Err(obs)
                }
            },
        ),
    ]
}

pub(super) fn fig24() -> Vec<Check> {
    let gain = |c: &'static str| cell(&[("config", c)], "gain %");
    vec![
        // Collapse is a wash on the host...
        scalar_band(gain("host-16"), -3.0, 1.0),
        // ...and a real win on the Phi.
        scalar_band(gain("phi-118"), 5.0, 40.0),
        scalar_band(gain("phi-236"), 5.0, 40.0),
        // Scheduling onto the OS core always hurts.
        scalar_band(gain("phi-59 vs phi-60"), -100.0, -3.0),
        scalar_band(gain("phi-118 vs phi-120"), -100.0, -3.0),
        scalar_band(gain("phi-177 vs phi-180"), -100.0, -3.0),
        scalar_band(gain("phi-236 vs phi-240"), -100.0, -3.0),
    ]
}

pub(super) fn fig25() -> Vec<Check> {
    let mode = |m: &'static str| cell(&[("mode", m)], "Gflop/s");
    vec![
        // Offload granularity: whole > subroutine > loop.
        ordered_desc(
            "offload granularity",
            vec![
                ("whole", mode("offload-whole")),
                ("resid", mode("offload-resid")),
                ("loop", mode("offload-loop")),
            ],
        ),
        // Every offload variant loses to native host...
        scalar_ratio_band(mode("offload-whole"), mode("native-host"), 0.01, 0.95),
        // ...and hyperthreading the host costs ~6%.
        scalar_ratio_band(mode("native-host (HT)"), mode("native-host"), 0.90, 0.98),
        // MG native on Phi overtakes the host once threads scale.
        crossover_between(
            series("threads", "Gflop/s").only("mode", "native-phi"),
            series("threads", "Gflop/s").only("mode", "native-host"),
            59.0,
            177.0,
        ),
        best_label(&[("mode", "native-phi")], "Gflop/s", Best::Max, "threads", "177"),
        scalar_ratio_band(
            Scalar::reduce(series("threads", "Gflop/s").only("mode", "native-phi"), Agg::Max),
            mode("native-host"),
            1.0,
            1.4,
        ),
    ]
}

pub(super) fn fig26() -> Vec<Check> {
    let total = |v: &'static str| cell(&[("variant", v)], "total overhead");
    let mut checks = vec![
        ordered_desc(
            "total offload overhead",
            vec![
                ("loop", total("offload-loop")),
                ("resid", total("offload-resid")),
                ("whole", total("offload-whole")),
            ],
        ),
        scalar_ratio_band(total("offload-loop"), total("offload-whole"), 3.0, 100.0),
    ];
    // The Phi-side setup dominates every variant's overhead.
    for v in ["offload-whole", "offload-resid", "offload-loop"] {
        checks.push(scalar_ratio_band(
            cell(&[("variant", v)], "phi-side"),
            total(v),
            0.6,
            0.85,
        ));
    }
    checks
}

pub(super) fn fig27() -> Vec<Check> {
    let inv = |v: &'static str| cell(&[("variant", v)], "invocations");
    let gb = |v: &'static str| cell(&[("variant", v)], "GB transferred");
    vec![
        ordered_desc(
            "offload invocations",
            vec![
                ("loop", inv("offload-loop")),
                ("resid", inv("offload-resid")),
                ("whole", inv("offload-whole")),
            ],
        ),
        ordered_desc(
            "transferred volume",
            vec![
                ("loop", gb("offload-loop")),
                ("resid", gb("offload-resid")),
                ("whole", gb("offload-whole")),
            ],
        ),
        // Whole-program offload ships data exactly once.
        scalar_band(inv("offload-whole"), 1.0, 1.0),
        scalar_ratio_band(inv("offload-loop"), inv("offload-resid"), 5.0, 20.0),
    ]
}

pub(super) fn a1() -> Vec<Check> {
    vec![
        within_band(series("benchmark", "phi/host"), 2.0, 5.0),
        within_band(series("benchmark", "host ms"), 1e-6, 1e6),
        // The printed ratio column agrees with the printed times.
        Check::custom(
            "ratio_column_consistent[phi/host = phi0 ms / host ms]",
            "per-row |ratio - phi0/host| <= 0.2",
            |fig| {
                let hi = fig.headers.iter().position(|h| h == "host ms");
                let pi = fig.headers.iter().position(|h| h == "phi0 ms");
                let ri = fig.headers.iter().position(|h| h == "phi/host");
                let (Some(hi), Some(pi), Some(ri)) = (hi, pi, ri) else {
                    return Err("expected columns missing".into());
                };
                for r in &fig.rows {
                    let (Some(h), Some(p), Some(ratio)) = (
                        crate::oracle::parse_cell(&r[hi]),
                        crate::oracle::parse_cell(&r[pi]),
                        crate::oracle::parse_cell(&r[ri]),
                    ) else {
                        return Err(format!("non-numeric row {}", r[0]));
                    };
                    if (ratio - p / h).abs() > 0.2 {
                        return Err(format!("{}: {} vs {:.3}", r[0], ratio, p / h));
                    }
                }
                Ok(format!("{} rows consistent", fig.rows.len()))
            },
        ),
    ]
}

pub(super) fn a2() -> Vec<Check> {
    vec![
        // The distributed solver computes the same answer everywhere.
        Check::custom(
            "residuals_identical[final residual]",
            "every layout's residual is bit-identical text",
            |fig| {
                let ri = fig
                    .headers
                    .iter()
                    .position(|h| h == "final residual")
                    .ok_or("column 'final residual' missing")?;
                let first = &fig.rows[0][ri];
                for r in &fig.rows {
                    if &r[ri] != first {
                        return Err(format!("{} vs {}", r[ri], first));
                    }
                }
                Ok(format!("all {}", first))
            },
        ),
        // Symmetric mode pays the PCIe communication tax.
        ordered_desc(
            "communication fraction",
            vec![
                (
                    "symmetric",
                    cell(
                        &[("layout", "host x2 + phi x1 each (symmetric)")],
                        "comm fraction",
                    ),
                ),
                ("host x4", cell(&[("layout", "host x4")], "comm fraction")),
                ("phi0 x4", cell(&[("layout", "phi0 x4")], "comm fraction")),
            ],
        ),
        ordered_desc(
            "wall clock",
            vec![
                ("phi0 x4", cell(&[("layout", "phi0 x4")], "wall ms")),
                ("host x4", cell(&[("layout", "host x4")], "wall ms")),
            ],
        ),
    ]
}

pub(super) fn c1() -> Vec<Check> {
    let at_nodes = |n: &'static str| series("size", "time us").only("nodes", n);
    let at_size = |s: &'static str| series("nodes", "time us").only("size", s);
    vec![
        // Bigger payloads and bigger clusters both cost more.
        monotone_nondecreasing(at_nodes("2")),
        monotone_nondecreasing(at_nodes("128")),
        monotone_nondecreasing(at_size("64B")),
        monotone_nondecreasing(at_size("64KiB")),
        // Recursive doubling: 2 -> 128 nodes adds rounds logarithmically.
        // Probed at 64B, where the inter-node stage isn't drowned by the
        // (payload-scaled) intra-node phases: the full rack costs a bit
        // more than 2 nodes, but never multiples.
        scalar_ratio_band(
            cell(&[("nodes", "128"), ("size", "64B")], "time us"),
            cell(&[("nodes", "2"), ("size", "64B")], "time us"),
            1.05,
            2.0,
        ),
    ]
}

pub(super) fn c2() -> Vec<Check> {
    let at_nodes = |n: &'static str| series("size", "time us").only("nodes", n);
    let at_size = |s: &'static str| series("nodes", "time us").only("size", s);
    let full_rack = |sz: &'static str| cell(&[("nodes", "128"), ("size", sz)], "time us");
    vec![
        monotone_nondecreasing(at_nodes("2")),
        monotone_nondecreasing(at_nodes("128")),
        monotone_nondecreasing(at_size("64B")),
        monotone_nondecreasing(at_size("64KiB")),
        // Pairwise exchange pays p-1 contended rounds. Probed at 64B
        // (the inter-node stage dominates there): the full rack costs
        // multiples of 2 nodes — scaling far worse than Allreduce's
        // log-round 1.0x-2.0x band over the same endpoints...
        scalar_ratio_band(
            full_rack("64B"),
            cell(&[("nodes", "2"), ("size", "64B")], "time us"),
            2.0,
            50.0,
        ),
        // ...and 32 -> 128 nodes alone quadruples the rounds.
        scalar_ratio_band(
            full_rack("64B"),
            cell(&[("nodes", "32"), ("size", "64B")], "time us"),
            1.5,
            10.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::all_experiments;

    #[test]
    fn every_experiment_has_a_checklist() {
        for id in all_experiments() {
            assert!(!checklist(id).is_empty(), "{id:?} has no predicates");
        }
    }

    #[test]
    fn average_predicate_count_is_at_least_three() {
        let ids = all_experiments();
        let total: usize = ids.iter().map(|&id| checklist(id).len()).sum();
        assert!(
            total >= 3 * ids.len(),
            "{total} predicates over {} experiments",
            ids.len()
        );
    }

    #[test]
    fn predicate_names_are_unique_within_each_figure() {
        for id in all_experiments() {
            let mut names: Vec<String> = checklist(id).iter().map(|c| c.name.clone()).collect();
            let before = names.len();
            names.sort();
            names.dedup();
            assert_eq!(before, names.len(), "{id:?} has duplicate predicate names");
        }
    }
}
