//! Property-based tests for the simulation engine: determinism and clock
//! monotonicity under arbitrary interleavings of compute and messaging.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use maia_sim::channel::SimChannel;
use maia_sim::{Engine, SimDuration};

/// A tiny process program: a list of steps, each either "advance by d ns"
/// or "send token to the shared channel" or "receive a token".
#[derive(Debug, Clone)]
enum Step {
    Advance(u32),
    Send,
    Recv,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (1u32..10_000).prop_map(Step::Advance),
        Just(Step::Send),
        Just(Step::Recv),
    ]
}

/// Run a set of process programs; returns (end time ps, trace of
/// (process, step index, now ps)). One token is pre-seeded per `Recv` so no
/// program ordering can deadlock (extra `Send` tokens are harmless).
fn run_programs(programs: &[Vec<Step>]) -> (u64, Vec<(usize, usize, u64)>) {
    let recvs: usize = programs
        .iter()
        .flatten()
        .filter(|s| matches!(s, Step::Recv))
        .count();

    let mut eng = Engine::new();
    let ch = SimChannel::<u8>::new("tokens");
    let trace = Arc::new(Mutex::new(Vec::new()));

    let seed = recvs;
    {
        let ch = ch.clone();
        eng.spawn_inline("seeder", move |ctx| async move {
            for _ in 0..seed {
                ch.send_inline(&ctx, 0);
            }
        });
    }

    for (pi, prog) in programs.iter().enumerate() {
        let prog = prog.clone();
        let ch = ch.clone();
        let trace = Arc::clone(&trace);
        eng.spawn_inline(format!("p{pi}"), move |ctx| async move {
            for (si, step) in prog.iter().enumerate() {
                match step {
                    Step::Advance(ns) => ctx.advance(SimDuration::from_ns(*ns as f64)).await,
                    Step::Send => ch.send_inline(&ctx, 1),
                    Step::Recv => {
                        let _ = ch.recv_inline(&ctx).await;
                    }
                }
                trace.lock().push((pi, si, ctx.now().as_ps()));
            }
        });
    }

    let end = eng.run().expect("seeded program set must not deadlock");
    let t = trace.lock().clone();
    (end.as_ps(), t)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same program set always produces bit-identical traces: nothing
    /// outside the `(time, push order)` total order may leak into virtual
    /// time.
    #[test]
    fn engine_is_deterministic(
        programs in prop::collection::vec(
            prop::collection::vec(step_strategy(), 0..12),
            1..6,
        )
    ) {
        let (end1, trace1) = run_programs(&programs);
        let (end2, trace2) = run_programs(&programs);
        prop_assert_eq!(end1, end2);
        prop_assert_eq!(trace1, trace2);
    }

    /// Per-process local time never decreases, and the end time equals the
    /// maximum observed clock.
    #[test]
    fn clocks_are_monotone(
        programs in prop::collection::vec(
            prop::collection::vec(step_strategy(), 0..12),
            1..6,
        )
    ) {
        let (end, trace) = run_programs(&programs);
        let nprocs = programs.len();
        for p in 0..nprocs {
            let times: Vec<u64> = trace
                .iter()
                .filter(|&&(pi, _, _)| pi == p)
                .map(|&(_, _, t)| t)
                .collect();
            for w in times.windows(2) {
                prop_assert!(w[0] <= w[1], "process {} clock went backwards", p);
            }
        }
        let max_seen = trace.iter().map(|&(_, _, t)| t).max().unwrap_or(0);
        prop_assert_eq!(end, max_seen);
    }
}
