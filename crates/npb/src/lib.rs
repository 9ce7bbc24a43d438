//! # maia-npb — the NAS Parallel Benchmarks in Rust
//!
//! Rust implementations of the eight NPB 3.3 benchmarks the paper runs
//! (Figures 19–20, 24–27): the five kernels **EP, CG, MG, FT, IS** and the
//! three pseudo-applications **BT, SP, LU**.
//!
//! Two layers:
//!
//! * **Runnable kernels** — every benchmark executes for real, threaded
//!   over the `maia-omp` runtime, class-parameterized, and self-verifying
//!   (residual/convergence/permutation checks, plus serial-vs-parallel
//!   agreement). Small classes run in the test suite; larger classes are
//!   for the examples.
//! * **Workload descriptors** ([`descriptors`]) — per-benchmark Class C
//!   resource signatures (`KernelProfile`s plus memory footprints and
//!   MPI communication shapes) that drive the `maia-modes` performance
//!   engine to regenerate the paper's Phi-vs-host figures. The FT Class C
//!   footprint (~10.7 GB for five 512³ complex arrays) exceeding the
//!   Phi's 8 GB is computed, not asserted — reproducing the paper's OOM.

pub mod bt;
pub mod cg;
pub mod class;
pub mod descriptors;
pub mod flow;
pub mod ep;
pub mod ft;
pub mod is;
pub mod lu;
pub mod mg;
pub mod mpi_npb;
pub mod sp;

pub use class::{Benchmark, Class};
pub use descriptors::{class_c_profile, memory_required_bytes, mpi_comm_profile};
