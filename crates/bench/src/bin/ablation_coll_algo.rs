//! Ablation: collective algorithm selection (DESIGN.md item 2).
//!
//! Runs Allgather on 59 simulated Phi ranks with the algorithm forced to
//! Bruck, forced to ring, and with the production size-based switch. Ring
//! trails Bruck at every size on this world, so the two never cross: the
//! switched column equals Bruck up to `ALLGATHER_BRUCK_MAX` and ring
//! above it, and the Figure 13 jump is the switch itself.

use maia_arch::Device;
use maia_mpi::coll::ALLGATHER_BRUCK_MAX;
use maia_mpi::{MpiWorld, WorldSpec};

fn time(bytes: u64, mode: &'static str) -> f64 {
    let spec = WorldSpec::all_on(Device::Phi0, 59);
    MpiWorld::run(&spec, move |mut rank| async move {
        match mode {
            "bruck" => rank.allgather_bruck(bytes).await,
            "ring" => rank.allgather_ring(bytes).await,
            _ => rank.allgather(bytes).await,
        }
        rank
    })
    .expect("allgather deadlocked")
    .end_time
    .as_secs_f64()
}

fn main() {
    println!("size_bytes,bruck_us,ring_us,switched_us");
    for bytes in [256u64, 1024, 2048, 4096, 8192, 32768, 131072] {
        println!(
            "{bytes},{:.1},{:.1},{:.1}",
            time(bytes, "bruck") * 1e6,
            time(bytes, "ring") * 1e6,
            time(bytes, "switched") * 1e6
        );
    }
    println!();
    println!(
        "# Ring trails Bruck at every size; the switch leaves Bruck above {ALLGATHER_BRUCK_MAX} B, \
         so the Figure 13 jump is the switch itself, not a cross-over."
    );
}
