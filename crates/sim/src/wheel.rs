//! Arena-backed hierarchical timer wheel — the engine's event queue.
//!
//! Replaces the `BinaryHeap<Reverse<(SimTime, u64, EvTarget)>>` the engine
//! shipped with: every pending event lives in a slab arena (`Vec<Slot<T>>`
//! recycled through an intrusive freelist), threaded into per-bucket
//! singly-linked lists of a 7-level × 64-slot timer wheel keyed by
//! picosecond buckets. Level `l` buckets are `2^(6l)` ps wide, so the wheel
//! spans `2^42` ps (~4.4 simulated seconds) ahead of the cursor; events
//! beyond that horizon park in a sorted overflow heap and are promoted in
//! blocks when the wheel drains down to them. Steady-state, a world run
//! allocates O(max in-flight events) slots once and then recycles them —
//! no per-event heap traffic.
//!
//! ## Ordering and determinism
//!
//! Pop order is total and identical to the old binary heap: ascending
//! `(t, seq)` where `seq` is the wheel-assigned push sequence number
//! (`prop_wheel` in the test module pins this against a `BinaryHeap` for
//! random batches including same-timestamp ties). The level of an event is
//! `level_for(cursor, t)`: the index of the highest 6-bit digit in which
//! `t` differs from the cursor (the tokio/hashed-wheel placement rule).
//! Three facts make the lazy cascade correct:
//!
//! 1. **First occupied level holds the minimum.** A level-`l` event differs
//!    from the cursor at bit ≥ 6l, i.e. lies at or beyond the next
//!    `2^(6l)`-aligned boundary, while every level-`(l-1)` event lies
//!    before it. Scanning levels upward and stopping at the first occupied
//!    one is therefore exact.
//! 2. **Slot wrap cannot occur.** Within a level, the next occupied slot at
//!    or after the cursor's slot (a rotate + trailing_zeros on the
//!    occupancy bitmap) has deadline ≥ cursor: an event placed at level
//!    `l` shares the cursor's `2^(6(l+1))`-aligned block, so its slot index
//!    never sits "behind" the cursor within that block. The `deadline <
//!    cursor` boost below is defensive only.
//! 3. **Overflow is strictly later than the wheel.** Wheel events share the
//!    cursor's `2^42`-aligned block; overflow events differ above bit 42,
//!    so promotion only happens when the wheel is empty, and promoted
//!    blocks re-enter with their original `seq` preserved.
//!
//! Draining a level-0 slot yields events that all share one timestamp
//! (each level-0 bucket is a single picosecond); they are sorted by `seq`
//! into the `ready` queue. Draining a level-`>0` slot redistributes its
//! events to strictly lower levels (their XOR distance to the new cursor
//! shrank below the slot width), preserving `seq`.
//!
//! **Same-instant lane.** A push due exactly at the cursor while the
//! cursor's level-0 bucket is empty goes straight to the back of `ready`
//! instead of through that bucket. It is exact: every level-`>0` event
//! lies strictly after the cursor, so any other pending event at the
//! cursor's instant is already in `ready`, with a smaller `seq`. The
//! empty-bucket condition guards the one other place such an event could
//! sit; between pops it always holds, since a pop drains the cursor's
//! bucket before it returns. The lane counts as a level-0 push, so
//! [`WheelStats`] are unchanged.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
const LEVELS: usize = 7;
/// Events with `cursor ^ t >= HORIZON` (2^42 ps ahead) park in overflow.
const HORIZON: u64 = 1 << (SLOT_BITS * LEVELS as u32);

const NIL: u32 = u32::MAX;

/// Per-push/per-level counters, surfaced as the `sched.*` telemetry bucket.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Events pushed from outside (cascade redistributions not included).
    pub pushed: u64,
    /// Events popped in final `(t, seq)` order.
    pub popped: u64,
    /// Arena/overflow insertions per level; index 7 counts the sorted
    /// overflow level. Cascade redistributions count again at their new
    /// (lower) level, so the histogram reflects total wheel activity.
    pub level_pushes: [u64; LEVELS + 1],
}

struct Slot<T> {
    t: u64,
    seq: u64,
    item: T,
    /// Next arena index in this bucket's list (or the freelist), NIL-terminated.
    next: u32,
}

pub(crate) struct EventWheel<T> {
    arena: Vec<Slot<T>>,
    /// Head of the freelist threaded through `Slot::next`.
    free: u32,
    /// Most-recently-pushed entry per bucket.
    heads: [[u32; SLOTS]; LEVELS],
    /// Bit `s` set ⇔ `heads[l][s]` is non-NIL.
    occupied: [u64; LEVELS],
    /// Pop front. Never exceeds the timestamp of any pending event.
    cursor: u64,
    /// Monotone tie-break assigned at push; total order is `(t, seq)`.
    seq: u64,
    /// Events due at the cursor, already in `(t, seq)` order.
    ready: VecDeque<(u64, u64, T)>,
    /// Far-future events, ordered min-first by `(t, seq)`.
    overflow: BinaryHeap<Reverse<(u64, u64, T)>>,
    /// Reused drain buffer — avoids a per-pop allocation.
    scratch: Vec<(u64, u64, T)>,
    len: usize,
    stats: WheelStats,
}

impl<T: Copy + Ord> EventWheel<T> {
    pub fn new() -> Self {
        EventWheel {
            arena: Vec::new(),
            free: NIL,
            heads: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            cursor: 0,
            seq: 0,
            ready: VecDeque::new(),
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            len: 0,
            stats: WheelStats::default(),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Queue `item` at absolute time `t` (≥ every previously popped time),
    /// assigning it the next tie-break sequence number.
    pub fn push(&mut self, t: u64, item: T) {
        debug_assert!(
            t >= self.cursor,
            "event scheduled at t={t} behind the wheel cursor {}",
            self.cursor
        );
        let seq = self.seq;
        self.seq += 1;
        self.stats.pushed += 1;
        self.len += 1;
        if t == self.cursor && self.heads[0][(t & SLOT_MASK) as usize] == NIL {
            // Same-instant lane (module docs).
            self.stats.level_pushes[0] += 1;
            self.ready.push_back((t, seq, item));
            return;
        }
        self.insert(t, seq, item);
    }

    /// Place an event into overflow or a wheel bucket, keeping its
    /// original `seq`.
    fn insert(&mut self, t: u64, seq: u64, item: T) {
        if (self.cursor ^ t) >= HORIZON {
            self.stats.level_pushes[LEVELS] += 1;
            self.overflow.push(Reverse((t, seq, item)));
            return;
        }
        let level = level_for(self.cursor, t);
        self.stats.level_pushes[level] += 1;
        let slot = ((t >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        let next = self.heads[level][slot];
        let idx = match self.free {
            NIL => {
                self.arena.push(Slot { t, seq, item, next });
                (self.arena.len() - 1) as u32
            }
            idx => {
                let s = &mut self.arena[idx as usize];
                self.free = s.next;
                *s = Slot { t, seq, item, next };
                idx
            }
        };
        self.heads[level][slot] = idx;
        self.occupied[level] |= 1 << slot;
    }

    /// First-expiring `(level, slot, deadline)`, or None if the wheel part
    /// is empty (overflow may still hold events).
    fn next_expiration(&self) -> Option<(usize, usize, u64)> {
        for level in 0..LEVELS {
            let occ = self.occupied[level];
            if occ == 0 {
                continue;
            }
            let shift = SLOT_BITS * level as u32;
            let now_slot = ((self.cursor >> shift) & SLOT_MASK) as u32;
            let slot = ((occ.rotate_right(now_slot).trailing_zeros() + now_slot)
                % SLOTS as u32) as usize;
            let slot_size = 1u64 << shift;
            let level_range = slot_size << SLOT_BITS;
            let level_start = self.cursor & !(level_range - 1);
            let mut deadline = level_start + slot as u64 * slot_size;
            if deadline < self.cursor {
                // Defensive: unreachable under the XOR placement rule
                // (module docs, fact 2), but a wrapped slot would belong
                // to the next level_range block.
                deadline += level_range;
            }
            return Some((level, slot, deadline));
        }
        None
    }

    /// Timestamp of the next event without disturbing the wheel.
    ///
    /// Unlike `next_expiration` (which returns a bucket deadline that may
    /// undershoot for coarse levels), this walks the first-expiring
    /// bucket's list and reports the true minimum event time — it is the
    /// engine's `next_event_time()`, which the partition layer uses for
    /// lookahead decisions.
    pub fn peek_time(&self) -> Option<u64> {
        if let Some(&(t, _, _)) = self.ready.front() {
            return Some(t);
        }
        if let Some((level, slot, _)) = self.next_expiration() {
            let mut idx = self.heads[level][slot];
            let mut best = u64::MAX;
            while idx != NIL {
                let s = &self.arena[idx as usize];
                best = best.min(s.t);
                idx = s.next;
            }
            return Some(best);
        }
        self.overflow.peek().map(|Reverse((t, _, _))| *t)
    }

    /// Remove and return the globally minimal `(t, seq)` event.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        loop {
            if let Some((t, _, item)) = self.ready.pop_front() {
                debug_assert!(t >= self.cursor);
                self.cursor = t;
                self.stats.popped += 1;
                self.len -= 1;
                return Some((t, item));
            }
            if let Some((level, slot, deadline)) = self.next_expiration() {
                self.cursor = deadline;
                self.drain_slot(level, slot);
                continue;
            }
            // Wheel empty: promote the overflow block around the earliest
            // far-future event, then fall through to pop it via the wheel.
            let Reverse((t, seq, item)) = self.overflow.pop()?;
            self.cursor = t;
            self.insert(t, seq, item);
            while let Some(Reverse((t, _, _))) = self.overflow.peek() {
                if (self.cursor ^ t) >= HORIZON {
                    break;
                }
                let Reverse((t, seq, item)) = self.overflow.pop().expect("peeked");
                self.insert(t, seq, item);
            }
        }
    }

    fn drain_slot(&mut self, level: usize, slot: usize) {
        let mut idx = self.heads[level][slot];
        self.heads[level][slot] = NIL;
        self.occupied[level] &= !(1 << slot);
        if level == 0 {
            // Every event here shares one picosecond; order by seq.
            debug_assert!(self.scratch.is_empty());
            while idx != NIL {
                let s = &self.arena[idx as usize];
                let (t, seq, item, next) = (s.t, s.seq, s.item, s.next);
                self.release(idx);
                self.scratch.push((t, seq, item));
                idx = next;
            }
            self.scratch.sort_unstable();
            self.ready.extend(self.scratch.drain(..));
        } else {
            // Cascade: relative to the new cursor each event's XOR distance
            // dropped below this level's slot width ⇒ strictly lower level.
            while idx != NIL {
                let s = &self.arena[idx as usize];
                let (t, seq, item, next) = (s.t, s.seq, s.item, s.next);
                self.release(idx);
                debug_assert!(level_for(self.cursor, t) < level);
                self.insert(t, seq, item);
                idx = next;
            }
        }
    }

    fn release(&mut self, idx: u32) {
        self.arena[idx as usize].next = self.free;
        self.free = idx;
    }
}

/// Index of the highest 6-bit digit in which `t` differs from `cursor`
/// (0 if they share all digits above the lowest). Caller guarantees
/// `cursor ^ t < HORIZON`.
fn level_for(cursor: u64, t: u64) -> usize {
    let masked = (cursor ^ t) | SLOT_MASK;
    ((63 - masked.leading_zeros()) / SLOT_BITS) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Oracle: the exact queue the engine used before this module existed.
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
        seq: u64,
    }

    impl HeapQueue {
        fn new() -> Self {
            HeapQueue { heap: BinaryHeap::new(), seq: 0 }
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

    #[test]
    fn empty_wheel() {
        let mut w: EventWheel<u32> = EventWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.peek_time(), None);
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn same_timestamp_ties_pop_in_push_order() {
        let mut w = EventWheel::new();
        for i in 0..10u32 {
            w.push(42, i);
        }
        for i in 0..10 {
            assert_eq!(w.pop(), Some((42, i)));
        }
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_overflow_horizon() {
        let mut w = EventWheel::new();
        w.push(3 * HORIZON + 5, 0u32); // overflow
        w.push(7, 1);
        w.push(3 * HORIZON + 5, 2); // overflow tie
        w.push(3 * HORIZON + 4, 3);
        assert_eq!(w.peek_time(), Some(7));
        assert_eq!(w.pop(), Some((7, 1)));
        assert_eq!(w.peek_time(), Some(3 * HORIZON + 4));
        assert_eq!(w.pop(), Some((3 * HORIZON + 4, 3)));
        assert_eq!(w.pop(), Some((3 * HORIZON + 5, 0)));
        assert_eq!(w.pop(), Some((3 * HORIZON + 5, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_matches_heap_with_lcg() {
        // Deterministic mixed workload: pushes always at/after the last
        // popped time (the engine's invariant), interleaved with pops.
        let mut w = EventWheel::new();
        let mut h = HeapQueue::new();
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut lcg = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let mut now = 0u64;
        let mut item = 0u32;
        for _ in 0..5000 {
            let r = lcg();
            if r % 3 != 0 || w.is_empty() {
                // Spread: same-instant, near, mid, far, and overflow-range.
                let dt = match r % 7 {
                    0 => 0,
                    1 => lcg() % 4,
                    2 => lcg() % 1000,
                    3 => lcg() % 1_000_000,
                    4 => lcg() % (HORIZON / 2),
                    _ => lcg() % (4 * HORIZON),
                };
                w.push(now + dt, item);
                h.push(now + dt, item);
                item += 1;
            } else {
                assert_eq!(w.peek_time(), h.peek_time());
                let got = w.pop();
                let want = h.pop();
                assert_eq!(got, want);
                now = got.expect("non-empty").0;
            }
        }
        while let Some(want) = h.pop() {
            assert_eq!(w.pop(), Some(want));
        }
        assert!(w.is_empty());
        let stats = w.stats();
        assert_eq!(stats.pushed, stats.popped);
        assert_eq!(stats.pushed, u64::from(item));
    }

    #[test]
    fn arena_slots_are_recycled() {
        let mut w = EventWheel::new();
        for round in 0..100u64 {
            for i in 0..8u32 {
                w.push(round * 1000 + u64::from(i % 3), i);
            }
            for _ in 0..8 {
                w.pop().expect("eight pending");
            }
        }
        // 8 concurrent events, 800 total: the arena must not grow per event.
        assert!(w.arena.len() <= 16, "arena grew to {} slots", w.arena.len());
    }

    #[test]
    fn pushes_at_the_cursor_pop_after_pending_same_instant_events() {
        let mut w = EventWheel::new();
        let mut h = HeapQueue::new();
        let mut push = |w: &mut EventWheel<u32>, t: u64, item: u32| {
            w.push(t, item);
            h.push(t, item);
        };
        for i in 0..5 {
            push(&mut w, 10, i);
        }
        push(&mut w, 11, 5);
        assert_eq!(w.pop(), Some((10, 0)));
        // `ready` still holds items 1..=4 at t = 10; the cursor is 10.
        push(&mut w, 10, 6);
        push(&mut w, 11, 7);
        push(&mut w, 10, 8);
        let order: Vec<(u64, u32)> = std::iter::from_fn(|| w.pop()).collect();
        assert_eq!(
            order,
            vec![(10, 1), (10, 2), (10, 3), (10, 4), (10, 6), (10, 8), (11, 5), (11, 7)]
        );
        assert_eq!(h.pop(), Some((10, 0)));
        let want: Vec<(u64, u32)> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn same_instant_lane_keeps_cascade_path_counts() {
        // A fixed script touching the lane, every cascade level, and an
        // overflow promotion. The pop order and the counters are those the
        // wheel produced when every push went through a bucket.
        let far = 3 * HORIZON;
        let mut w = EventWheel::new();
        let mut got = Vec::new();
        for (t, item) in [(0, 0u32), (0, 1), (100, 2), (100, 3), (5000, 4), (far, 5)] {
            w.push(t, item);
        }
        got.push(w.pop());
        w.push(0, 6);
        got.extend((0..3).map(|_| w.pop()));
        w.push(100, 7);
        w.push(101, 8);
        w.push(100, 9);
        got.extend((0..5).map(|_| w.pop()));
        w.push(5000, 10);
        got.extend((0..2).map(|_| w.pop()));
        w.push(far, 11);
        got.extend((0..2).map(|_| w.pop()));
        let order: Vec<(u64, u32)> = got.into_iter().flatten().collect();
        assert_eq!(
            order,
            vec![
                (0, 0),
                (0, 1),
                (0, 6),
                (100, 2),
                (100, 3),
                (100, 7),
                (100, 9),
                (101, 8),
                (5000, 4),
                (5000, 10),
                (far, 5),
                (far, 11),
            ]
        );
        assert!(w.is_empty());
        assert_eq!(
            w.stats(),
            WheelStats {
                pushed: 12,
                popped: 12,
                level_pushes: [12, 3, 1, 0, 0, 0, 0, 1],
            }
        );
    }

    proptest! {
        /// Wheel pop order is identical to the old BinaryHeap
        /// for random (time, seq) batches, including same-timestamp ties
        /// (duplicate `t` draws are likely under these small ranges). Half
        /// the draws are `dt == 0`, so pushes at the cursor right after a
        /// pop — the same-instant lane — are common.
        #[test]
        fn pop_order_matches_binary_heap(
            batches in prop::collection::vec(
                prop::collection::vec(
                    (prop_oneof![Just(0u64), 0u64..200], 0u32..1000),
                    1..40,
                ),
                1..8,
            ),
        ) {
            let mut w = EventWheel::new();
            let mut h = HeapQueue::new();
            let mut now = 0u64;
            for batch in batches {
                for (dt, item) in batch {
                    w.push(now + dt, item);
                    h.push(now + dt, item);
                }
                // Drain half the queue between batches so later pushes
                // land relative to an advanced cursor.
                for _ in 0..h.heap.len() / 2 {
                    prop_assert_eq!(w.peek_time(), h.peek_time());
                    let got = w.pop();
                    let want = h.pop();
                    prop_assert_eq!(got, want);
                    now = want.expect("non-empty").0;
                }
            }
            while let Some(want) = h.pop() {
                prop_assert_eq!(w.pop(), Some(want));
            }
            prop_assert!(w.is_empty());
        }
    }
}
