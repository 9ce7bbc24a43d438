//! Explore MPI collective performance on the simulated Maia node:
//! `collective_tuning [ranks] [bytes]` runs each collective on the host
//! and the Phi and reports the factors the paper's Figures 11-14 plot.
//!
//! ```text
//! cargo run -p maia-examples --bin collective_tuning -- 59 4096
//! ```

use maia_arch::Device;
use maia_mpi::bench::CollectiveOp;
use maia_mpi::fastpath::{alltoall_time, collective_time};

fn main() {
    let mut args = std::env::args().skip(1);
    let ranks: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(59);
    let bytes: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(4096);
    let host_ranks = ranks.min(16);

    println!("collective,host{host_ranks}_us,phi{ranks}_us,factor");
    for (name, op) in [
        ("bcast", CollectiveOp::Bcast),
        ("allreduce", CollectiveOp::Allreduce),
        ("allgather", CollectiveOp::Allgather),
    ] {
        let h = collective_time(Device::Host, host_ranks, bytes, op) * 1e6;
        let p = collective_time(Device::Phi0, ranks, bytes, op) * 1e6;
        println!("{name},{h:.1},{p:.1},{:.1}", p / h);
    }
    match alltoall_time(Device::Phi0, ranks, bytes) {
        Ok(p) => {
            let h = alltoall_time(Device::Host, host_ranks, bytes).expect("host fits") * 1e6;
            println!("alltoall,{h:.1},{:.1},{:.1}", p * 1e6, p * 1e6 / h);
        }
        Err(e) => println!("alltoall,-,{e},-"),
    }
    println!();
    println!("# Try 236 ranks with 8192 bytes to reproduce the paper's alltoall OOM.");
}
