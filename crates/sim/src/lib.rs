//! # maia-sim — deterministic discrete-event simulation engine
//!
//! This crate is the substrate for every timed experiment in the Maia
//! reproduction. It provides:
//!
//! * a virtual clock with picosecond resolution ([`SimTime`], [`SimDuration`]),
//! * a conservative process-oriented engine ([`Engine`]) over an
//!   arena-backed hierarchical timer wheel, in which processes execute
//!   strictly one at a time, in a total order defined by `(time, sequence)`,
//!   so every run is bit-for-bit deterministic,
//! * message channels in virtual time ([`channel::SimChannel`]).
//!
//! Every simulated process is an `async` body spawned with
//! [`Engine::spawn_inline`]: it receives a [`SimCtx`], awaits
//! [`SimCtx::advance`] to consume virtual time or
//! `SimChannel::recv_inline` to wait for a message, and runs as a poll
//! state machine directly on the scheduler thread. That lets the MPI
//! layer implement real collective algorithms (binomial trees, recursive
//! doubling, pairwise exchange) as straight-line code whose *virtual*
//! timing is measured by the engine.
//!
//! ```
//! use maia_sim::{Engine, SimDuration};
//!
//! let mut eng = Engine::new();
//! let ping = maia_sim::channel::SimChannel::<u32>::new("ping");
//! let pong = maia_sim::channel::SimChannel::<u32>::new("pong");
//! {
//!     let (ping, pong) = (ping.clone(), pong.clone());
//!     eng.spawn_inline("client", move |ctx| async move {
//!         ping.send_inline(&ctx, 7);
//!         let x = pong.recv_inline(&ctx).await;
//!         assert_eq!(x, 8);
//!     });
//! }
//! eng.spawn_inline("server", move |ctx| async move {
//!     let x = ping.recv_inline(&ctx).await;
//!     ctx.advance(SimDuration::from_us(1.0)).await; // 1 us of service time
//!     pong.send_inline(&ctx, x + 1);
//! });
//! let end = eng.run().unwrap();
//! assert_eq!(end.as_us(), 1.0);
//! ```

pub mod channel;
pub mod engine;
pub mod partition;
pub mod probe;
pub mod time;
mod wheel;

pub use engine::{Engine, InjectCtx, ProcessId, SimCtx, SimError, TraceKind, TraceRecord};
pub use probe::{factory_installed, set_probe_factory, Probe, SchedStats};
pub use time::{SimDuration, SimTime};
