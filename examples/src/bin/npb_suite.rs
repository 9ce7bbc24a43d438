//! Run the whole NAS Parallel Benchmark suite at small classes — the
//! shared-memory (OpenMP-style) kernels on the bundled runtime and the
//! distributed (MPI-style) variants on the simulated fabric — printing an
//! NPB-style results table.
//!
//! ```text
//! cargo run --release -p maia-examples --bin npb_suite [threads]
//! ```

use std::time::Instant;

use maia_arch::Device;
use maia_mpi::WorldSpec;
use maia_npb as npb;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

fn main() {
    let threads: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);

    println!("NAS Parallel Benchmarks (Rust) — shared-memory runtime, {threads} threads\n");
    println!("{:<6} {:<28} {:>10}  verification", "bench", "problem", "seconds");

    let (ep, t) = timed(|| npb::ep::run(20, threads));
    println!(
        "{:<6} {:<28} {:>10.3}  acceptance {:.4} (pi/4 = {:.4})",
        "EP", "2^20 pairs", t, ep.acceptance(), std::f64::consts::FRAC_PI_4
    );

    let (is, t) = timed(|| npb::is::run(16, 11, threads));
    println!(
        "{:<6} {:<28} {:>10.3}  {} keys sorted + permutation checked",
        "IS", "2^16 keys", t, is.len()
    );

    let (cg, t) = timed(|| npb::cg::run(npb::Class::S, threads));
    println!(
        "{:<6} {:<28} {:>10.3}  zeta = {:.6}",
        "CG", "class S (n=1400)", t, cg.zeta
    );

    let (mg, t) = timed(|| npb::mg::run(npb::Class::S, threads, true));
    println!(
        "{:<6} {:<28} {:>10.3}  residual {:.2e} -> {:.2e}",
        "MG", "class S (32^3, collapsed)", t, mg.initial_rnorm, mg.final_rnorm
    );

    let (ft, t) = timed(|| npb::ft::run_custom(64, 64, 64, 2, threads));
    println!(
        "{:<6} {:<28} {:>10.3}  checksum {:.6}+{:.6}i",
        "FT", "64^3, 2 steps", t, ft.checksums[0].re, ft.checksums[0].im
    );

    let (bt, t) = timed(|| npb::bt::run_custom(12, 20, threads));
    println!(
        "{:<6} {:<28} {:>10.3}  residual {:.2e} -> {:.2e}",
        "BT", "12^3, 20 steps", t, bt.initial_rnorm, bt.final_rnorm
    );

    let (sp, t) = timed(|| npb::sp::run_custom(12, 20, threads));
    println!(
        "{:<6} {:<28} {:>10.3}  residual {:.2e} -> {:.2e}",
        "SP", "12^3, 20 steps", t, sp.initial_rnorm, sp.final_rnorm
    );

    let (lu, t) = timed(|| npb::lu::run_custom(12, 20, threads));
    println!(
        "{:<6} {:<28} {:>10.3}  residual {:.2e} -> {:.2e}",
        "LU", "12^3, 20 steps", t, lu.initial_rnorm, lu.final_rnorm
    );

    println!("\nDistributed variants on the simulated fabric (virtual time):\n");
    println!(
        "{:<6} {:<14} {:>14} {:>14}",
        "bench", "ranks", "host (ms)", "phi0 (ms)"
    );
    // Each kernel computes once, on the host world, and replays its
    // messages and compute phases on the Phi world.
    let layouts = [Device::Host, Device::Phi0].map(|d| WorldSpec::all_on(d, 8));

    let ep = npb::mpi_npb::ep_mpi_layouts(18, &layouts);
    println!("{:<6} {:<14} {:>14.3} {:>14.3}", "EP", "8", ep.wall_s(0) * 1e3, ep.wall_s(1) * 1e3);

    let cg = npb::mpi_npb::cg_mpi_layouts(600, 5, 3, 10.0, &layouts);
    println!(
        "{:<6} {:<14} {:>14.3} {:>14.3}   (zeta {:.6})",
        "CG", "8", cg.wall_s(0) * 1e3, cg.wall_s(1) * 1e3, cg.result
    );

    let ft = npb::mpi_npb::ft_mpi_layouts(16, 16, 16, &layouts);
    println!("{:<6} {:<14} {:>14.3} {:>14.3}", "FT", "8", ft.wall_s(0) * 1e3, ft.wall_s(1) * 1e3);

    let is = npb::mpi_npb::is_mpi_layouts(14, 10, &layouts);
    println!("{:<6} {:<14} {:>14.3} {:>14.3}", "IS", "8", is.wall_s(0) * 1e3, is.wall_s(1) * 1e3);

    println!("\n(the Phi's slower MPI fabric shows directly in the virtual times)");
}
