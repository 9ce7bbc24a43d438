//! Offload granularity advisor: given a compute region, decide whether
//! offloading it beats running natively — the decision the paper's
//! Section 6.9.1.4 walks through for MG.
//!
//! ```text
//! cargo run -p maia-examples --bin offload_planner -- \
//!     [gflops] [traffic_gb] [input_mb] [output_mb] [invocations]
//! ```

use maia_arch::{Device, Faults};
use maia_modes::{KernelProfile, OffloadPlan, OffloadRegion, PerfModel};

fn main() {
    let mut args = std::env::args().skip(1);
    let mut next = |default: f64| args.next().and_then(|a| a.parse().ok()).unwrap_or(default);
    let gflops = next(150.0);
    let traffic_gb = next(500.0);
    let input_mb = next(250.0);
    let output_mb = next(120.0);
    let invocations = next(160.0) as u64;

    let kernel = KernelProfile {
        name: "region".into(),
        flops: gflops * 1e9 / invocations as f64,
        dram_bytes: traffic_gb * 1e9 / invocations as f64,
        vector_fraction: 0.95,
        gather_fraction: 0.0,
        parallel_fraction: 0.9995,
        parallel_extent: None,
        phi_traffic_multiplier: 1.0,
    };
    let plan = OffloadPlan {
        name: "plan".into(),
        regions: vec![OffloadRegion {
            name: "region".into(),
            kernel: kernel.clone(),
            input_bytes: (input_mb * 1e6) as u64,
            output_bytes: (output_mb * 1e6) as u64,
            invocations,
        }],
        host_kernel: None,
    };

    let report = plan.report(Device::Phi0, 177, 16, &Faults::default());
    let mut whole = kernel.clone();
    whole.flops *= invocations as f64;
    whole.dram_bytes *= invocations as f64;
    let native_host = PerfModel::host().unit_time_s(&whole, 16);
    let native_phi = PerfModel::phi(&Faults::default()).unit_time_s(&whole, 177);

    println!("native host (16T):      {native_host:8.2} s");
    println!("native phi  (177T):     {native_phi:8.2} s");
    println!(
        "offload:                {:8.2} s  (compute {:.2} + overhead {:.2})",
        report.total_s(),
        report.compute_s,
        report.overhead_s()
    );
    println!(
        "  overhead breakdown:   host-side {:.2}s, PCIe {:.2}s, phi-side {:.2}s over {} invocations ({:.1} GB)",
        report.host_side_s,
        report.pcie_s,
        report.phi_side_s,
        report.invocations,
        report.bytes_transferred as f64 / 1e9
    );
    let best = [
        ("native host", native_host),
        ("native phi", native_phi),
        ("offload", report.total_s()),
    ]
    .into_iter()
    .min_by(|a, b| a.1.total_cmp(&b.1))
    .unwrap();
    println!("=> best mode: {} ({:.2} s)", best.0, best.1);
    if best.0 != "offload" {
        println!("   (to make offload viable, raise compute per invocation or cut transfers)");
    }
}
