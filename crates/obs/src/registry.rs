//! The metrics registry: named counters, gauges, and histograms with a
//! canonical JSON snapshot.
//!
//! A [`Registry`] is the deterministic half of the observability layer:
//! it holds only *logical* quantities (message counts, RIB changes,
//! settle steps — never wall-clock times), stores them under sorted
//! names, and renders them with [`Registry::render_json`] into the
//! snapshot all `BENCH_*.json` emitters embed. Two runs that do the same
//! logical work render byte-identical snapshots regardless of
//! `CPR_THREADS`, because parallel sections record into per-worker
//! [`ShardMetrics`] that are [absorbed](Registry::absorb) in index
//! order and histogram contents are order-independent by construction.

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::json::Json;
use crate::metrics::Histogram;

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe registry of named counters, gauges, and histograms.
///
/// Names are free-form dotted strings (`"sim.messages"`,
/// `"plane.serve.hops"`); the snapshot sorts them, so registration
/// order never leaks into rendered output.
///
/// # Examples
///
/// ```
/// use cpr_obs::Registry;
///
/// let reg = Registry::new();
/// reg.add("sim.messages", 12);
/// reg.record("sim.rounds", 3);
/// reg.set_gauge("sim.nodes", 16);
/// let snap = reg.render_json().to_compact();
/// assert!(snap.starts_with(r#"{"counters":{"sim.messages":12}"#));
/// ```
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("obs registry poisoned")
    }

    /// Adds `delta` to the named counter (created at zero).
    pub fn add(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        *counter_entry(&mut inner, name) += delta;
    }

    /// Adds one to the named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of the named counter (zero when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `value`.
    pub fn set_gauge(&self, name: &str, value: i64) {
        let mut inner = self.lock();
        match inner.gauges.get_mut(name) {
            Some(g) => *g = value,
            None => {
                inner.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of the named gauge, `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.lock().gauges.get(name).copied()
    }

    /// Records one sample into the named histogram (created empty).
    pub fn record(&self, name: &str, value: u64) {
        let mut inner = self.lock();
        histogram_entry(&mut inner, name).record(value);
    }

    /// Folds a standalone histogram into the named histogram.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        let mut inner = self.lock();
        histogram_entry(&mut inner, name).merge(h);
    }

    /// A clone of the named histogram, `None` when never recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// Folds a per-worker [`ShardMetrics`] into the registry. Callers
    /// in parallel sections must absorb shards **in index order** after
    /// joining workers — the discipline that keeps snapshots
    /// byte-identical across `CPR_THREADS` (histograms and counter sums
    /// are order-independent, so the ordering is a belt-and-braces
    /// convention shared with `par_map_indexed`'s result stitching).
    pub fn absorb(&self, shard: ShardMetrics) {
        let mut inner = self.lock();
        for (name, delta) in shard.counters {
            *counter_entry(&mut inner, &name) += delta;
        }
        for (name, h) in shard.histograms {
            histogram_entry(&mut inner, &name).merge(&h);
        }
    }

    /// Opens a [`RegistryBatch`]: any number of counter and histogram
    /// updates under **one** lock acquisition — what a request path
    /// that tallies per frame flushes through, instead of taking the
    /// lock once per sample.
    pub fn batch(&self) -> RegistryBatch<'_> {
        RegistryBatch { inner: self.lock() }
    }

    /// Clears every metric.
    pub fn reset(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }

    /// The canonical snapshot: an object with `counters`, `gauges`, and
    /// `histograms` sections, every section sorted by name, histograms
    /// summarized via [`Histogram::to_json`]. This is the *only*
    /// rendering of registry state — every BENCH emitter embeds it
    /// verbatim, so field names and float formatting cannot diverge
    /// between artifacts.
    pub fn render_json(&self) -> Json {
        let inner = self.lock();
        Json::obj([
            (
                "counters",
                Json::obj(
                    inner
                        .counters
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::int(v))),
                ),
            ),
            (
                "gauges",
                Json::obj(inner.gauges.iter().map(|(k, &v)| (k.clone(), Json::Int(v)))),
            ),
            (
                "histograms",
                Json::obj(
                    inner
                        .histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_json())),
                ),
            ),
        ])
    }
}

fn counter_entry<'a>(inner: &'a mut Inner, name: &str) -> &'a mut u64 {
    if !inner.counters.contains_key(name) {
        inner.counters.insert(name.to_string(), 0);
    }
    inner.counters.get_mut(name).expect("just inserted")
}

fn histogram_entry<'a>(inner: &'a mut Inner, name: &str) -> &'a mut Histogram {
    if !inner.histograms.contains_key(name) {
        inner.histograms.insert(name.to_string(), Histogram::new());
    }
    inner.histograms.get_mut(name).expect("just inserted")
}

/// A held registry lock; see [`Registry::batch`]. Updates land exactly
/// as the same sequence of [`Registry::add`] / [`Registry::record`]
/// calls would, so a flushed tally renders the same snapshot bytes as
/// per-sample recording. A name the batch never touches is never
/// created, and updating an existing name allocates nothing.
#[derive(Debug)]
pub struct RegistryBatch<'a> {
    inner: std::sync::MutexGuard<'a, Inner>,
}

impl RegistryBatch<'_> {
    /// Adds `delta` to the named counter (created at zero, like
    /// [`Registry::add`] — also for a zero `delta`).
    pub fn add(&mut self, name: &str, delta: u64) {
        *counter_entry(&mut self.inner, name) += delta;
    }

    /// Records `n` occurrences of `value` into the named histogram;
    /// `n == 0` records nothing and creates nothing.
    pub fn record_n(&mut self, name: &str, value: u64, n: u64) {
        if n > 0 {
            histogram_entry(&mut self.inner, name).record_n(value, n);
        }
    }
}

/// Lock-free per-worker metrics, recorded inside one parallel worker and
/// [absorbed](Registry::absorb) into the shared registry after the join.
///
/// Workers never contend on the registry mutex in their hot loop; each
/// accumulates locally and the caller folds shards back in index order.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

impl ShardMetrics {
    /// An empty shard.
    pub fn new() -> ShardMetrics {
        ShardMetrics::default()
    }

    /// Adds `delta` to the shard-local counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Records one sample into the shard-local histogram.
    pub fn record(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sorts_names_and_sections() {
        let reg = Registry::new();
        reg.add("z.counter", 2);
        reg.add("a.counter", 1);
        reg.set_gauge("m.gauge", -3);
        reg.record("h.steps", 5);
        reg.record("h.steps", 7);
        assert_eq!(
            reg.render_json().to_compact(),
            concat!(
                r#"{"counters":{"a.counter":1,"z.counter":2},"gauges":{"m.gauge":-3},"#,
                r#""histograms":{"h.steps":{"count":2,"sum":12,"min":5,"max":7,"mean":6.0,"#,
                r#""p50":5,"p90":7,"p99":7}}}"#
            )
        );
    }

    #[test]
    fn absorb_order_does_not_change_snapshot() {
        let build = |order: &[usize]| {
            let reg = Registry::new();
            let shards: Vec<ShardMetrics> = (0..3)
                .map(|i| {
                    let mut s = ShardMetrics::new();
                    s.add("work.items", (i as u64 + 1) * 10);
                    s.record("work.sizes", i as u64);
                    s
                })
                .collect();
            let mut shards: Vec<Option<ShardMetrics>> = shards.into_iter().map(Some).collect();
            for &i in order {
                reg.absorb(shards[i].take().expect("each shard absorbed once"));
            }
            reg.render_json().to_compact()
        };
        assert_eq!(build(&[0, 1, 2]), build(&[2, 0, 1]));
    }

    #[test]
    fn names_a_batch_never_touches_are_absent_from_the_snapshot() {
        // Keys resolved ahead of time are plain strings: holding one
        // (or flushing a zero tally for it) must not render an entry.
        let (delivered, failed, hops) = ("c.delivered", "c.failed", "c.hops");
        let reg = Registry::new();
        {
            let mut batch = reg.batch();
            batch.add(delivered, 3);
            batch.record_n(hops, 7, 0);
        }
        assert_eq!(
            reg.render_json().to_compact(),
            r#"{"counters":{"c.delivered":3},"gauges":{},"histograms":{}}"#
        );
        assert_eq!(reg.counter(failed), 0);
        assert_eq!(reg.histogram(hops), None);
    }

    #[test]
    fn a_flushed_tally_renders_the_same_bytes_as_single_records() {
        let samples = [3u64, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        let single = Registry::new();
        for &v in &samples {
            single.incr("q.delivered");
            single.record("q.hops", v);
        }
        single.add("q.queries", samples.len() as u64);

        // The same samples tallied into a value-indexed table first.
        let mut table = [0u64; 10];
        for &v in &samples {
            table[v as usize] += 1;
        }
        let flushed = Registry::new();
        {
            let mut batch = flushed.batch();
            batch.add("q.queries", samples.len() as u64);
            batch.add("q.delivered", samples.len() as u64);
            for (value, &n) in table.iter().enumerate() {
                batch.record_n("q.hops", value as u64, n);
            }
        }
        assert_eq!(
            flushed.render_json().to_compact(),
            single.render_json().to_compact()
        );
    }

    #[test]
    fn counters_and_gauges_read_back() {
        let reg = Registry::new();
        assert_eq!(reg.counter("missing"), 0);
        assert_eq!(reg.gauge("missing"), None);
        reg.incr("c");
        reg.add("c", 4);
        reg.set_gauge("g", 9);
        reg.set_gauge("g", -9);
        assert_eq!(reg.counter("c"), 5);
        assert_eq!(reg.gauge("g"), Some(-9));
        reg.reset();
        assert_eq!(reg.counter("c"), 0);
    }
}
