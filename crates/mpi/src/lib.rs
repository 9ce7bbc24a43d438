//! # maia-mpi — a simulated MPI runtime over the modeled fabrics
//!
//! MPI ranks are inline processes on the `maia-sim` discrete-event
//! engine; rank programs are `async` Rust functions over [`Rank`], which
//! offers point-to-point operations with `(source, tag)` matching and the
//! collectives the paper benchmarks (Figures 10–14). Every rank runs as a
//! poll state machine on the scheduler thread — no OS thread per rank, no
//! handoff latency at simulated blocking points. Collectives are real
//! algorithm implementations — binomial trees, recursive doubling, Bruck,
//! ring, pairwise exchange — executed in virtual time over the transport
//! model, so their scaling behaviour (including the Allgather
//! algorithm-switch jump at 2–4 KB) *emerges* from the algorithms.
//!
//! Transport costs come from three regimes:
//! * intra-device shared memory, with a thread-oversubscription penalty
//!   table calibrated to Figure 10,
//! * host↔Phi and Phi↔Phi over PCIe through the DAPL provider stacks of
//!   `maia-interconnect` (pre/post-update, Figures 7–9),
//! * inter-node FDR InfiniBand.
//!
//! Device memory budgeting ([`memory`]) reproduces the paper's failures:
//! MPI_Alltoall beyond 4 KB at 236 ranks and NPB FT Class C on the Phi.
//!
//! Beyond the paper's needs, the runtime also offers: *data-carrying*
//! messages and collectives (real `f64` payloads priced in virtual time —
//! the basis of the verifiable distributed NPB and OVERFLOW runs),
//! per-rank communication/compute accounting ([`RankStats`]), and
//! [`MpiWorld::run_layouts`], which runs a program live on one layout and
//! evaluates its recorded operations on the others ([`replay`]). A rank
//! program calls only blocking sends, receives that name their source and
//! tag, and world-wide collectives, so no program can observe its layout
//! or the time, and every one can be evaluated. Each [`Rank`] owns its
//! clock; a timed rank mirrors it onto the engine, and the recording run
//! is timeless: the engine only orders its ranks' sends and receives.
//! The DES runs only live programs; an op log is only evaluated.
//!
//! A world runs on the machine its [`WorldSpec::faults`] describes
//! (healthy in every constructor): straggling ranks stretch their
//! [`Rank::compute`] phases and degraded links retry PCIe-crossing
//! messages ([`faults`]), and the value's tallies count the injected
//! time — across every event wheel, worker processes included.

pub mod bench;
pub mod coll;
pub mod fastpath;
pub mod faults;
pub mod memory;
pub mod partition;
pub mod placement;
pub mod process_backend;
pub mod replay;
pub mod transport;
pub mod world;

pub use memory::{MemoryBudget, OomError};
pub use partition::PartitionPlan;
pub use placement::{RankPlacement, WorldSpec};
pub use transport::TransportModel;
pub use world::{MpiWorld, Rank, RankStats};
