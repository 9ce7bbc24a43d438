//! Message channels in virtual time.
//!
//! A [`SimChannel`] is an unbounded FIFO between simulated processes.
//! `send_inline` never blocks and consumes no virtual time — wire/transport
//! time is a property of the *fabric*, so callers model it explicitly (the
//! MPI layer advances the clock for latency and bandwidth before
//! delivering the payload). `recv_inline` suspends the calling process in
//! virtual time until a message is available.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{InjectCtx, ProcessId, SimCtx};

struct Inner<T> {
    queue: VecDeque<T>,
    /// Processes parked in `recv_inline`, in arrival order.
    waiters: VecDeque<ProcessId>,
}

/// An unbounded FIFO channel between simulated processes.
///
/// Cloning is cheap and shares the underlying queue.
pub struct SimChannel<T> {
    /// Immutable after construction, so it lives outside the mutex:
    /// reading it never takes the queue lock or allocates.
    name: Arc<str>,
    inner: Arc<Mutex<Inner<T>>>,
}

impl<T> Clone for SimChannel<T> {
    fn clone(&self) -> Self {
        SimChannel {
            name: Arc::clone(&self.name),
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Send> SimChannel<T> {
    /// Create a named channel (the name appears in diagnostics).
    pub fn new(name: impl Into<String>) -> Self {
        SimChannel {
            name: name.into().into(),
            inner: Arc::new(Mutex::new(Inner {
                queue: VecDeque::new(),
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Diagnostic name of this channel, borrowed — no lock, no clone.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Enqueue a message from a scheduled injection (a cross-partition
    /// delivery) and wake the longest-waiting receiver, if any. Identical
    /// to [`SimChannel::send_inline`] except the waker is the injection,
    /// not a running process.
    pub fn send_injected(&self, ictx: &InjectCtx<'_>, value: T) {
        let mut inner = self.inner.lock();
        inner.queue.push_back(value);
        if let Some(pid) = inner.waiters.pop_front() {
            ictx.wake(pid);
        }
    }

    /// Enqueue a message and wake the longest-waiting receiver, if any.
    /// Takes zero virtual time and never suspends, so it is not `async`.
    pub fn send_inline(&self, ctx: &SimCtx, value: T) {
        let mut inner = self.inner.lock();
        inner.queue.push_back(value);
        if let Some(pid) = inner.waiters.pop_front() {
            ctx.wake(pid);
        }
    }

    /// Dequeue a message, suspending the calling process in virtual time
    /// until one is available.
    pub async fn recv_inline(&self, ctx: &SimCtx) -> T {
        loop {
            {
                let mut inner = self.inner.lock();
                if let Some(v) = inner.queue.pop_front() {
                    return v;
                }
                inner.waiters.push_back(ctx.pid());
            }
            ctx.block().await;
            // On wake-up the message may have been taken by a receiver that
            // was scheduled earlier in the same instant; loop and re-check.
        }
    }

    /// Number of queued (undelivered) messages.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::time::SimDuration;
    use parking_lot::Mutex as PlMutex;

    #[test]
    fn fifo_order_is_preserved() {
        let mut eng = Engine::new();
        let ch = SimChannel::<u32>::new("fifo");
        let got = Arc::new(PlMutex::new(Vec::new()));
        {
            let ch = ch.clone();
            eng.spawn_inline("sender", move |ctx| async move {
                for i in 0..8 {
                    ch.send_inline(&ctx, i);
                    ctx.advance(SimDuration::from_ns(1.0)).await;
                }
            });
        }
        {
            let got = Arc::clone(&got);
            eng.spawn_inline("receiver", move |ctx| async move {
                for _ in 0..8 {
                    let v = ch.recv_inline(&ctx).await;
                    got.lock().push(v);
                }
            });
        }
        eng.run().unwrap();
        assert_eq!(*got.lock(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_receivers_share_one_stream() {
        let mut eng = Engine::new();
        let ch = SimChannel::<u32>::new("shared");
        let total = Arc::new(PlMutex::new(0u32));
        for r in 0..4 {
            let ch = ch.clone();
            let total = Arc::clone(&total);
            eng.spawn_inline(format!("rx{r}"), move |ctx| async move {
                let v = ch.recv_inline(&ctx).await;
                *total.lock() += v;
            });
        }
        {
            let ch = ch.clone();
            eng.spawn_inline("tx", move |ctx| async move {
                for i in 1..=4 {
                    ctx.advance(SimDuration::from_ns(10.0)).await;
                    ch.send_inline(&ctx, i);
                }
            });
        }
        eng.run().unwrap();
        assert_eq!(*total.lock(), 10);
    }

    #[test]
    fn send_costs_no_virtual_time() {
        let mut eng = Engine::new();
        let ch = SimChannel::<u8>::new("free");
        eng.spawn_inline("tx", move |ctx| async move {
            for _ in 0..100 {
                ch.send_inline(&ctx, 0);
            }
            assert_eq!(ctx.now().as_ps(), 0);
            assert_eq!(ch.len(), 100);
        });
        eng.run().unwrap();
    }
}
