//! Named counters behind cheap handles.
//!
//! The registry owns the name → counter mapping; the [`Counter`] handles
//! it hands out are `Arc`-backed and cost one relaxed atomic add per
//! event, so they can sit on simulator hot paths. Cloning a handle is
//! cheap and all clones observe the same counter.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing named count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Creates a detached counter (not owned by any registry).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
}

/// A registry of named [`Counter`]s.
///
/// Counter lookup takes a lock; the returned handles do not. Register
/// once at setup time, then increment lock-free on the hot path.
///
/// # Example
///
/// ```
/// use sim_telemetry::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let lookups = registry.counter("cache.lookups");
/// lookups.inc();
/// lookups.add(2);
/// assert_eq!(registry.snapshot().counter("cache.lookups"), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry(Arc<Mutex<RegistryInner>>);

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. All callers asking for the same name share one counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.0.lock().expect("metrics registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every counter's value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.0.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
        }
    }
}

/// A point-in-time view of a [`MetricsRegistry`].
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
}

impl MetricsSnapshot {
    /// The value of a counter (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Whether nothing was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// The snapshot as a JSON object: `{"counters": {name: value}}`.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, &v)| (k.clone(), Json::from(v)))
                .collect(),
        );
        obj([("counters", counters)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_across_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(r.snapshot().counter("x"), 5);
        assert_eq!(r.snapshot().counter("never"), 0);
    }

    #[test]
    fn snapshot_serializes_to_parseable_json() {
        let r = MetricsRegistry::new();
        r.counter("a.b").add(7);
        let text = r.snapshot().to_json().to_string();
        let v = crate::json::parse(&text).expect("snapshot json parses");
        assert_eq!(
            v.get("counters").unwrap().get("a.b").unwrap().as_u64(),
            Some(7)
        );
        assert!(v.get("histograms").is_none());
    }
}
