//! Property-based tests for the partition window-sync protocol:
//! causality (no delivery into a partition's past), termination, multiset
//! conservation (delivered == sent), and partition-layout invariance of
//! the simulated timeline.

use std::sync::Arc;

use parking_lot::Mutex;
use proptest::prelude::*;

use maia_sim::channel::SimChannel;
use maia_sim::partition::{local_bus, run_partitioned, Outbox, RemoteMsg, Wheel};
use maia_sim::{Engine, InjectCtx, SimDuration};

/// Number of simulated domains (fixed; the *wheel count* varies).
const DOMAINS: usize = 4;
/// Conservative lookahead: every cross-domain message costs at least this.
const LOOKAHEAD_PS: u64 = 1_000_000; // 1 us

/// One step of a domain's program.
#[derive(Debug, Clone)]
enum Op {
    /// Consume virtual time (picoseconds).
    Advance(u64),
    /// Send to domain `(self + hop) % DOMAINS` with cost `LOOKAHEAD + extra`.
    Send { hop: usize, extra_ps: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..5_000_000).prop_map(Op::Advance),
        ((1usize..DOMAINS), (0u64..3_000_000))
            .prop_map(|(hop, extra_ps)| Op::Send { hop, extra_ps }),
    ]
}

/// A delivered message: (sender domain, sender sequence, arrival ps,
/// receive-completion ps).
type Delivery = (usize, u64, u64, u64);

/// Run the program set with domains folded onto `wheels` event wheels
/// (domain d on wheel d % wheels). Returns (end ps, per-domain delivery
/// logs sorted by the deterministic message key).
fn run_folded(programs: &[Vec<Op>], wheels: usize) -> (u64, Vec<Vec<Delivery>>) {
    assert_eq!(programs.len(), DOMAINS);
    // Expected inbound message count per domain, so receivers know when
    // to stop and the world cannot deadlock.
    let mut expect: [usize; DOMAINS] = [0; DOMAINS];
    for (d, prog) in programs.iter().enumerate() {
        for op in prog {
            if let Op::Send { hop, .. } = op {
                expect[(d + hop) % DOMAINS] += 1;
            }
        }
    }

    let inboxes: Vec<SimChannel<(usize, u64, u64)>> = (0..DOMAINS)
        .map(|d| SimChannel::new(format!("inbox-{d}")))
        .collect();
    let logs: Arc<Vec<Mutex<Vec<Delivery>>>> =
        Arc::new((0..DOMAINS).map(|_| Mutex::new(Vec::new())).collect());

    let mut wheel_worlds = Vec::new();
    for w in 0..wheels {
        let outbox = Outbox::<(usize, u64, u64)>::new(wheels);
        let mut engine = Engine::new();
        for d in 0..DOMAINS {
            if d % wheels != w {
                continue;
            }
            let prog = programs[d].clone();
            let inbox = inboxes[d].clone();
            let outbox = outbox.clone();
            let logs = Arc::clone(&logs);
            let n_in = expect[d];
            engine.spawn_inline(format!("rank-{d}"), move |ctx| async move {
                let mut seq = 0u64;
                for op in &prog {
                    match op {
                        Op::Advance(ps) => ctx.advance(SimDuration::from_ps(*ps)).await,
                        Op::Send { hop, extra_ps } => {
                            let dest = (d + hop) % DOMAINS;
                            let arrival =
                                ctx.now() + SimDuration::from_ps(LOOKAHEAD_PS + extra_ps);
                            outbox.send(
                                dest % wheels,
                                RemoteMsg {
                                    arrival,
                                    dest_slot: dest,
                                    order: (d as u64, seq),
                                    payload: (d, seq, arrival.as_ps()),
                                },
                            );
                            seq += 1;
                            ctx.advance(SimDuration::from_ps(LOOKAHEAD_PS + extra_ps))
                                .await;
                        }
                    }
                }
                for _ in 0..n_in {
                    let (src, sseq, arrival_ps) = inbox.recv_inline(&ctx).await;
                    // Causality: a message is never received before its
                    // stamped arrival.
                    assert!(
                        ctx.now().as_ps() >= arrival_ps,
                        "rank-{d} received a message from rank-{src} before its arrival"
                    );
                    logs[d].lock().push((src, sseq, arrival_ps, ctx.now().as_ps()));
                }
            });
        }
        let deliver_inboxes = inboxes.clone();
        wheel_worlds.push(Wheel {
            engine,
            outbox,
            deliver: Arc::new(move |ictx: &InjectCtx<'_>, slot: usize, payload: (usize, u64, u64)| {
                // Causality at the wheel boundary: the injection runs
                // exactly at the stamped arrival, never in the past.
                assert_eq!(ictx.now().as_ps(), payload.2);
                deliver_inboxes[slot].send_injected(ictx, payload);
            }),
        });
    }

    let (end, stats) = run_partitioned(
        wheel_worlds,
        local_bus(wheels),
        SimDuration::from_ps(LOOKAHEAD_PS),
        None,
    )
    .expect("window protocol must terminate without deadlock");
    assert_eq!(stats.partitions, wheels);

    let mut out = Vec::new();
    for d in 0..DOMAINS {
        let mut log = logs[d].lock().clone();
        log.sort_unstable();
        out.push(log);
    }
    (end.as_ps(), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Delivered multiset equals sent multiset, and every delivery
    /// respects causality (asserted inside the world).
    #[test]
    fn deliveries_conserve_the_sent_multiset(
        programs in prop::collection::vec(
            prop::collection::vec(op_strategy(), 0..10),
            DOMAINS,
        )
    ) {
        let (_, logs) = run_folded(&programs, 2);
        // Reconstruct the sent multiset per destination from the programs.
        let mut sent: Vec<Vec<(usize, u64)>> = vec![Vec::new(); DOMAINS];
        let mut seqs = [0u64; DOMAINS];
        for (d, prog) in programs.iter().enumerate() {
            for op in prog {
                if let Op::Send { hop, .. } = op {
                    sent[(d + hop) % DOMAINS].push((d, seqs[d]));
                    seqs[d] += 1;
                }
            }
        }
        for d in 0..DOMAINS {
            let mut got: Vec<(usize, u64)> =
                logs[d].iter().map(|&(src, seq, _, _)| (src, seq)).collect();
            got.sort_unstable();
            sent[d].sort_unstable();
            prop_assert_eq!(&got, &sent[d], "domain {} delivery multiset", d);
        }
    }

    /// The simulated timeline is bit-identical no matter how the domains
    /// are folded onto wheels: 1, 2, or one wheel per domain.
    #[test]
    fn timeline_is_invariant_across_wheel_counts(
        programs in prop::collection::vec(
            prop::collection::vec(op_strategy(), 0..10),
            DOMAINS,
        )
    ) {
        let (end1, logs1) = run_folded(&programs, 1);
        let (end2, logs2) = run_folded(&programs, 2);
        let (end4, logs4) = run_folded(&programs, DOMAINS);
        prop_assert_eq!(end1, end2);
        prop_assert_eq!(end1, end4);
        prop_assert_eq!(&logs1, &logs2);
        prop_assert_eq!(&logs1, &logs4);
    }

    /// Re-running the same fold is bit-identical (no OS-scheduling leak
    /// through the barrier protocol).
    #[test]
    fn partitioned_runs_are_deterministic(
        programs in prop::collection::vec(
            prop::collection::vec(op_strategy(), 0..10),
            DOMAINS,
        )
    ) {
        let a = run_folded(&programs, 2);
        let b = run_folded(&programs, 2);
        prop_assert_eq!(a, b);
    }
}
