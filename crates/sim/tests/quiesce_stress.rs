//! Engine teardown releases process state synchronously.
//!
//! A process body's captures — typically `Arc`s into the world's shared
//! state — live inside its future, and the engine owns every future. So
//! whichever way an engine ends (dropped unrun, a deadlocked `run`, a
//! panicking `run`), each capture must be released by the time the call
//! returns, or a caller inspecting that shared state would race a
//! teardown still in progress. These tests pin that with
//! `Arc::strong_count` checked the instant teardown returns.

use std::sync::Arc;

use maia_sim::channel::SimChannel;
use maia_sim::{Engine, SimDuration, SimError};

/// Never-started processes: dropping the engine must release every
/// body's captures immediately.
#[test]
fn dropping_unrun_engine_releases_closure_state_immediately() {
    let payload = Arc::new(());
    let mut eng = Engine::new();
    for p in 0..4 {
        let payload = Arc::clone(&payload);
        eng.spawn_inline(format!("p{p}"), move |ctx| async move {
            let _keep = payload;
            ctx.advance(SimDuration::from_us(1.0)).await;
        });
    }
    drop(eng);
    assert_eq!(
        Arc::strong_count(&payload),
        1,
        "a process future still holds its captures after drop"
    );
}

/// Deadlocked processes are parked inside `recv_inline`; the engine
/// consumed by `run` must release them before the error is returned.
#[test]
fn deadlocked_engine_quiesces_before_reporting() {
    let payload = Arc::new(());
    let ch = SimChannel::<u8>::new("never");
    let mut eng = Engine::new();
    for p in 0..3 {
        let payload = Arc::clone(&payload);
        let ch = ch.clone();
        eng.spawn_inline(format!("stuck{p}"), move |ctx| async move {
            let _keep = payload;
            let _ = ch.recv_inline(&ctx).await;
        });
    }
    match eng.run() {
        Err(SimError::Deadlock { blocked, .. }) => assert_eq!(blocked.len(), 3),
        other => panic!("expected deadlock, got {other:?}"),
    }
    assert_eq!(
        Arc::strong_count(&payload),
        1,
        "a parked process survived the deadlocked engine"
    );
}

/// A process that panics mid-run: the erroring engine must still release
/// the surviving processes' captures before the error is returned.
#[test]
fn panicking_world_still_quiesces() {
    let payload = Arc::new(());
    let ch = SimChannel::<u8>::new("never");
    let mut eng = Engine::new();
    {
        let payload = Arc::clone(&payload);
        let ch = ch.clone();
        eng.spawn_inline("victim", move |ctx| async move {
            let _keep = payload;
            let _ = ch.recv_inline(&ctx).await;
        });
    }
    eng.spawn_inline("bomb", |ctx| async move {
        ctx.advance(SimDuration::from_ns(5.0)).await;
        panic!("scheduled demise");
    });
    match eng.run() {
        Err(SimError::ProcessPanicked { name, .. }) => assert_eq!(name, "bomb"),
        other => panic!("expected panic error, got {other:?}"),
    }
    assert_eq!(
        Arc::strong_count(&payload),
        1,
        "victim's captures still live after the run failed"
    );
}
