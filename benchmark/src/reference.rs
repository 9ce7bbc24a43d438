//! The reference task: fixed work that uses only the standard library, so
//! no change to the workspace can make it faster or slower. Reference
//! children run it between the samples of a workload, and the runner
//! rescales that workload's timings by how fast the host ran it (see
//! README.md, "Host-speed correction").
//!
//! Its three parts follow what the workloads spend their time on: a
//! dependent integer chain (the ALU), churn through an ordered map of
//! heap-allocated values (pointer chasing, caches and the allocator, as in
//! the DES and the memo cache), and a two-thread ping-pong over channels
//! (the cross-core wake-ups of the partition barriers and the executor).
//! On the 2-vCPU guest the benchmark was defined on, 20 s medians of this
//! sum tracked the 20 s medians of `sweep`, `crosscheck` and
//! `cluster_channel` samples with correlations of 0.9 or more.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

use crate::rng::Rng;

const ALU_STEPS: u64 = 1_000_000;
const MAP_INSERTS: u64 = 50_000;
const MAP_LIMIT: usize = 5_000;
const ROUND_TRIPS: u64 = 400;

/// Run the reference task once; returns its wall time in milliseconds.
pub fn run() -> f64 {
    let start = Instant::now();
    black_box(alu(black_box(ALU_STEPS)));
    black_box(map_churn(black_box(MAP_INSERTS)));
    ping_pong(ROUND_TRIPS);
    start.elapsed().as_secs_f64() * 1e3
}

/// A xorshift chain: every step depends on the one before.
fn alu(steps: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    x
}

/// Random inserts into a bounded ordered map of small vectors, evicting
/// the smallest key once the map is full.
fn map_churn(inserts: u64) -> usize {
    let mut rng = Rng::new(1);
    let mut map = BTreeMap::new();
    for i in 0..inserts {
        map.insert(rng.next_u64() % 100_000, vec![i; 4]);
        if map.len() > MAP_LIMIT {
            map.pop_first();
        }
    }
    map.len()
}

/// `round_trips` values sent to a second thread and back.
fn ping_pong(round_trips: u64) {
    let (to_peer, peer_rx) = mpsc::channel::<u64>();
    let (to_main, main_rx) = mpsc::channel::<u64>();
    std::thread::scope(|s| {
        s.spawn(move || {
            for v in peer_rx {
                if to_main.send(v).is_err() {
                    break;
                }
            }
        });
        for i in 0..round_trips {
            to_peer.send(i).expect("the peer thread is alive");
            let back = main_rx.recv().expect("the peer thread answers");
            assert_eq!(back, i, "the peer returned another value");
        }
        drop(to_peer);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_do_their_fixed_work() {
        assert_eq!(alu(0), 0x9E37_79B9_7F4A_7C15);
        assert_eq!(alu(3), alu(3));
        assert_eq!(map_churn(10), 10);
        assert_eq!(map_churn(MAP_INSERTS), MAP_LIMIT);
        ping_pong(10);
        assert!(run() > 0.0);
    }
}
