//! The engine's event queue: one FIFO per pending instant.
//!
//! The distinct instants at which events are pending sit in ascending
//! order in a `VecDeque`. Each instant's events form a singly linked FIFO,
//! in push order, through a slab arena (`Vec<Node<T>>`, recycled through
//! an intrusive freelist). A pop takes the head of the earliest instant,
//! so events leave in ascending `(time, push order)`: the order a binary
//! heap over `(time, push sequence number)` gives, which the tests use as
//! their oracle. Every event is filed once and popped once.
//!
//! A push appends to its instant's FIFO or opens a new instant. In the
//! lockstep worlds of the MPI layer every rank sits on one of a few shared
//! instants, so the instant is nearly always the last or the first pending
//! one; any other is found by binary search and opened in place, which
//! moves at most half the instants. This is R. Brown's calendar queue
//! (CACM 31(10), 1988) with every bucket one exact instant. A world run
//! allocates O(max in-flight events) nodes once and then recycles them.

use std::cmp::Ordering;
use std::collections::VecDeque;

const NIL: u32 = u32::MAX;

struct Node<T> {
    item: T,
    /// Next node of this instant's FIFO (or of the freelist), NIL-terminated.
    next: u32,
}

/// A pending instant and the first and last node of its FIFO.
struct Instant {
    t: u64,
    head: u32,
    tail: u32,
}

pub(crate) struct EventQueue<T> {
    /// Pending instants, ascending by time; each has at least one event.
    instants: VecDeque<Instant>,
    arena: Vec<Node<T>>,
    /// Head of the freelist threaded through `Node::next`.
    free: u32,
    pushed: u64,
    popped: u64,
}

impl<T: Copy> EventQueue<T> {
    pub fn new() -> Self {
        EventQueue {
            instants: VecDeque::new(),
            arena: Vec::new(),
            free: NIL,
            pushed: 0,
            popped: 0,
        }
    }

    /// Events pending.
    pub fn len(&self) -> usize {
        (self.pushed - self.popped) as usize
    }

    /// Events pushed since construction.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Events popped since construction.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Queue `item` at time `t`, behind every event already pending at `t`.
    pub fn push(&mut self, t: u64, item: T) {
        let node = Node { item, next: NIL };
        let idx = match self.free {
            NIL => {
                self.arena.push(node);
                (self.arena.len() - 1) as u32
            }
            idx => {
                self.free = self.arena[idx as usize].next;
                self.arena[idx as usize] = node;
                idx
            }
        };
        self.pushed += 1;
        match self.find(t) {
            Ok(i) => {
                let instant = &mut self.instants[i];
                self.arena[instant.tail as usize].next = idx;
                instant.tail = idx;
            }
            Err(i) => {
                let instant = Instant {
                    t,
                    head: idx,
                    tail: idx,
                };
                self.instants.insert(i, instant);
            }
        }
    }

    /// Where instant `t` is pending (`Ok`) or would open (`Err`): the
    /// last and the first instant are tried before a binary search.
    fn find(&self, t: u64) -> Result<usize, usize> {
        let (Some(first), Some(last)) = (self.instants.front(), self.instants.back()) else {
            return Err(0);
        };
        let n = self.instants.len();
        match (t.cmp(&last.t), t.cmp(&first.t)) {
            (Ordering::Greater, _) => Err(n),
            (Ordering::Equal, _) => Ok(n - 1),
            (_, Ordering::Less) => Err(0),
            (_, Ordering::Equal) => Ok(0),
            _ => self.instants.binary_search_by_key(&t, |i| i.t),
        }
    }

    /// Time of the next event to pop.
    pub fn peek_time(&self) -> Option<u64> {
        self.instants.front().map(|i| i.t)
    }

    /// Remove and return the earliest event, first pushed among equals.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let first = self.instants.front_mut()?;
        let (t, idx) = (first.t, first.head);
        if idx == first.tail {
            self.instants.pop_front();
        } else {
            first.head = self.arena[idx as usize].next;
        }
        let node = &mut self.arena[idx as usize];
        node.next = self.free;
        self.free = idx;
        self.popped += 1;
        Some((t, node.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Oracle: the binary heap over `(time, push sequence number)` the
    /// engine used before this module existed.
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, t: u64, item: u32) {
            self.heap.push(Reverse((t, self.seq, item)));
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(u64, u32)> {
            self.heap.pop().map(|Reverse((t, _, item))| (t, item))
        }
        fn peek_time(&self) -> Option<u64> {
            self.heap.peek().map(|Reverse((t, _, _))| *t)
        }
    }

    /// 2^42 ps, the horizon of the timer wheel this queue replaced: its
    /// events beyond it took a separate overflow path.
    const FAR: u64 = 1 << 42;

    #[test]
    fn empty_wheel() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_timestamp_ties_pop_in_push_order() {
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(42, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((42, i)));
        }
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_instants_pop_in_time_order() {
        let mut q = EventQueue::new();
        let top = u64::MAX - 1;
        for (t, item) in [
            (3 * FAR + 5, 0u32),
            (7, 1),
            (top, 2),
            (3 * FAR + 5, 3),
            (3 * FAR + 4, 4),
            (u64::MAX, 5),
            (top, 6),
            (FAR, 7),
        ] {
            q.push(t, item);
        }
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (7, 1),
                (FAR, 7),
                (3 * FAR + 4, 4),
                (3 * FAR + 5, 0),
                (3 * FAR + 5, 3),
                (top, 2),
                (top, 6),
                (u64::MAX, 5),
            ]
        );
    }

    #[test]
    fn interleaved_push_pop_matches_heap_with_lcg() {
        // Deterministic mixed workload: pushes always at/after the last
        // popped time (the engine's invariant), interleaved with pops.
        let mut q = EventQueue::new();
        let mut h = HeapQueue::new();
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut lcg = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        let mut item = 0u32;
        for _ in 0..5000 {
            let r = lcg();
            if r % 3 != 0 || q.len() == 0 {
                // Same-instant, near, mid, far, past the old wheel's
                // horizon, and anywhere up to u64::MAX.
                let room = u64::MAX - now;
                let dt = match r % 8 {
                    0 => 0,
                    1 => lcg() % 4,
                    2 => lcg() % 1000,
                    3 => lcg() % 1_000_000,
                    4 => lcg() % (FAR / 2),
                    5 => lcg() % (4 * FAR),
                    6 => (lcg() << 31 | lcg()) % (room / 1024 + 1),
                    _ => (lcg() << 31 | lcg()) % (room / 2 + 1),
                };
                let t = now.saturating_add(dt);
                q.push(t, item);
                h.push(t, item);
                item += 1;
            } else {
                assert_eq!(q.peek_time(), h.peek_time());
                let got = q.pop();
                let want = h.pop();
                assert_eq!(got, want);
                now = got.expect("non-empty").0;
            }
        }
        while let Some(want) = h.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.len(), 0);
        assert_eq!(q.pushed(), q.popped());
        assert_eq!(q.pushed(), u64::from(item));
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..8u32 {
                q.push(round * 1000 + u64::from(i % 3), i);
            }
            for _ in 0..8 {
                q.pop().expect("eight pending");
            }
        }
        // 8 concurrent events, 800 total: the arena must not grow per event.
        assert!(q.arena.len() <= 16, "arena grew to {} slots", q.arena.len());
    }

    #[test]
    fn pushes_at_the_cursor_pop_after_pending_same_instant_events() {
        let mut q = EventQueue::new();
        let mut h = HeapQueue::new();
        let mut push = |q: &mut EventQueue<u32>, t: u64, item: u32| {
            q.push(t, item);
            h.push(t, item);
        };
        for i in 0..5 {
            push(&mut q, 10, i);
        }
        push(&mut q, 11, 5);
        assert_eq!(q.pop(), Some((10, 0)));
        // Items 1..=4 are still pending at t = 10, the last popped time.
        push(&mut q, 10, 6);
        push(&mut q, 11, 7);
        push(&mut q, 10, 8);
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (10, 1),
                (10, 2),
                (10, 3),
                (10, 4),
                (10, 6),
                (10, 8),
                (11, 5),
                (11, 7)
            ]
        );
        assert_eq!(h.pop(), Some((10, 0)));
        let want: Vec<(u64, u32)> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, want);
    }

    /// The order a batch is pushed in, so new instants open at the back,
    /// at the front, and in the middle of the pending ones.
    #[derive(Debug, Clone, Copy)]
    enum BatchOrder {
        AsDrawn,
        Descending,
        /// Sorted by each entry's random key.
        Shuffled,
    }

    proptest! {
        /// Pop order is identical to the old BinaryHeap for random
        /// `(time, item)` batches, including same-timestamp ties
        /// (duplicate `t` draws are likely under the small ranges). A
        /// fifth of the draws are `dt == 0`, pushes at the last popped
        /// instant; the wide draws reach past the old wheel's 2^42 ps
        /// horizon and up to `u64::MAX`.
        #[test]
        fn pop_order_matches_binary_heap(
            batches in prop::collection::vec(
                (
                    prop::collection::vec(
                        (
                            prop_oneof![
                                Just(0u64),
                                0u64..200,
                                0u64..4 * FAR,
                                0u64..u64::MAX / 8,
                                any::<u64>(),
                            ],
                            0u32..1000,
                            any::<u32>(),
                        ),
                        1..40,
                    ),
                    prop_oneof![
                        Just(BatchOrder::AsDrawn),
                        Just(BatchOrder::Descending),
                        Just(BatchOrder::Shuffled),
                    ],
                ),
                1..8,
            ),
        ) {
            let mut q = EventQueue::new();
            let mut h = HeapQueue::new();
            let mut now = 0u64;
            for (mut batch, order) in batches {
                match order {
                    BatchOrder::AsDrawn => {}
                    BatchOrder::Descending => batch.sort_by_key(|&(dt, _, _)| Reverse(dt)),
                    BatchOrder::Shuffled => batch.sort_by_key(|&(_, _, key)| key),
                }
                for (dt, item, _) in batch {
                    q.push(now.saturating_add(dt), item);
                    h.push(now.saturating_add(dt), item);
                }
                // Drain half the queue between batches so later pushes
                // land relative to an advanced clock.
                for _ in 0..h.heap.len() / 2 {
                    prop_assert_eq!(q.peek_time(), h.peek_time());
                    let got = q.pop();
                    let want = h.pop();
                    prop_assert_eq!(got, want);
                    now = want.expect("non-empty").0;
                }
            }
            while let Some(want) = h.pop() {
                prop_assert_eq!(q.pop(), Some(want));
            }
            prop_assert_eq!(q.len(), 0);
        }
    }
}
