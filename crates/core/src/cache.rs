//! Memoization of expensive sub-model results shared between experiments.
//!
//! Several figures recompute each other's inputs: Figure 9 (update gain)
//! is a ratio of the Figure 8 bandwidth table, the collective figures
//! replay identical worlds for overlapping (device, ranks, size) points,
//! and the STREAM curve feeds both Figure 4 and the application models.
//! This process-wide cache runs each such sub-model once per key and hands
//! clones to every later caller — including concurrent callers during a
//! parallel sweep, which block on the in-flight computation instead of
//! duplicating it.
//!
//! Keys are plain strings of the form `domain/param/param/...`; values can
//! be any `Clone + Send + Sync` type. Experiments build their keys with
//! [`crate::RunConfig::memo_key`], so every key carries the run config it
//! was computed under. Determinism of the underlying models makes cache
//! reuse output-invariant: a hit returns bit-identical data to what a
//! fresh computation would produce.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

type Slot = Arc<dyn Any + Send + Sync>;

static CACHE: OnceLock<Mutex<HashMap<String, Slot>>> = OnceLock::new();
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

fn map() -> &'static Mutex<HashMap<String, Slot>> {
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Counters describing cache effectiveness since process start (or the
/// last [`clear`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a finished computation.
    pub hits: u64,
    /// Lookups that had to run the computation.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from cache; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Return the cached value for `key`, computing it with `compute` on the
/// first call. Concurrent callers with the same key block until the one
/// in-flight computation finishes, then share its result.
///
/// # Panics
/// Panics if `key` was previously used with a different value type.
pub fn memo<T, F>(key: &str, compute: F) -> T
where
    T: Clone + Send + Sync + 'static,
    F: FnOnce() -> T,
{
    let slot = {
        let mut m = map().lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            m.entry(key.to_string())
                .or_insert_with(|| Arc::new(OnceLock::<T>::new())),
        )
    };
    let cell = slot
        .downcast_ref::<OnceLock<T>>()
        .unwrap_or_else(|| panic!("cache key {key:?} reused with a different type"));
    if let Some(v) = cell.get() {
        HITS.fetch_add(1, Ordering::Relaxed);
        crate::telemetry::memo_credit(key);
        return v.clone();
    }
    // get_or_init serializes racing initializers; exactly one runs compute.
    // The computation runs inside a per-key telemetry scope so its cost is
    // attributed to the key (deterministic) rather than to whichever
    // experiment won the race; every lookup below then credits that cost
    // to its own scope.
    let mut ran_compute = false;
    let v = cell.get_or_init(|| {
        ran_compute = true;
        crate::telemetry::memo_scope(key, compute)
    });
    if ran_compute {
        MISSES.fetch_add(1, Ordering::Relaxed);
    } else {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    let out = v.clone();
    crate::telemetry::memo_credit(key);
    out
}

/// Current hit/miss counters.
pub fn stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
    }
}

/// Drop every cached value and reset the counters (for tests).
pub fn clear() {
    map()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clear();
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn computes_once_then_hits() {
        let calls = AtomicU32::new(0);
        let f = || {
            calls.fetch_add(1, Ordering::SeqCst);
            21 * 2
        };
        assert_eq!(memo("test/computes_once", f), 42);
        assert_eq!(memo("test/computes_once", f), 42);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn distinct_keys_are_independent() {
        assert_eq!(memo("test/key_a", || String::from("a")), "a");
        assert_eq!(memo("test/key_b", || String::from("b")), "b");
    }

    #[test]
    fn concurrent_same_key_computes_once() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let values: Vec<u64> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    s.spawn(|| {
                        memo("test/concurrent", || {
                            CALLS.fetch_add(1, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            7u64
                        })
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert!(values.iter().all(|&v| v == 7));
        assert_eq!(CALLS.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let before = stats();
        memo("test/stats_key", || 1u8);
        memo("test/stats_key", || 1u8);
        let after = stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
        assert!(after.hit_rate() > 0.0);
    }
}
