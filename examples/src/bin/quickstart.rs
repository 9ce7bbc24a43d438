//! Quickstart: build the Maia system model, reproduce a few headline
//! numbers, and run a real NPB kernel on the bundled OpenMP runtime.
//!
//! ```text
//! cargo run -p maia-examples --bin quickstart
//! ```

use maia_core::{run_experiment, ExperimentId, Maia};

fn main() {
    println!("=== Maia: SGI Rackable + Xeon Phi reproduction ===\n");
    println!("{}", Maia::table1());

    println!("--- Figure 4: STREAM triad (model) ---");
    print!("{}", run_experiment(ExperimentId::F4Stream).to_markdown());

    println!("\n--- A real NPB MG run (class S, 4 threads) ---");
    let r = maia_npb::mg::run(maia_npb::Class::S, 4, false);
    println!(
        "MG.S: residual {:.3e} -> {:.3e} after {} V-cycles",
        r.initial_rnorm, r.final_rnorm, r.cycles
    );

    println!("\n--- A real STREAM measurement on this machine ---");
    let mut arrays = maia_mem::StreamArrays::new(4_000_000);
    for (kernel, gbs) in arrays.measure(4, 3) {
        println!("{:<6} {gbs:6.2} GB/s", kernel.label());
    }
    println!("\nRun `maia-bench report` for every figure.");
}
