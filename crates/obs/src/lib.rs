//! # cpr-obs — deterministic observability for the workspace
//!
//! The paper's claims are quantitative — local memory bounds, stretch,
//! convergence of policy-rich path-vector protocols — and the
//! interesting runtime signals backing them are *distributions*, not
//! point values: messages per round, settle steps per fault, hops per
//! query, chunks per worker. This crate is the single substrate every
//! subsystem records those signals into:
//!
//! * [`Registry`] — named typed [counters](Registry::add),
//!   [gauges](Registry::set_gauge), and exact-bucket
//!   [`Histogram`]s with nearest-rank p50/p90/p99. The registry holds
//!   only **logical** quantities, so its
//!   [`render_json`](Registry::render_json) snapshot is byte-identical
//!   across `CPR_THREADS ∈ {1, 2, 8}` — parallel sections record into
//!   per-worker [`ShardMetrics`] absorbed in index order.
//! * [`Tracer`] — structured span/event JSON-lines with a ring buffer
//!   and a pluggable sink (null / stderr / file), selected by the
//!   `CPR_TRACE` environment variable. Wall-clock timings belong here,
//!   never in the registry.
//! * [`Json`] — the workspace's one hand-rolled JSON emitter (moved
//!   from `cpr-bench`), plus [`json::validate`], the recognizer the
//!   `obs-smoke` CI gate runs over trace output.
//!
//! [`Obs`] bundles a registry and tracer into the context instrumented
//! code takes; [`Obs::disabled`] makes every recording call a cheap
//! no-op so un-instrumented callers pay (almost) nothing.
//!
//! Zero dependencies, `forbid(unsafe_code)` — like the rest of the
//! workspace, only `std`.
//!
//! # Examples
//!
//! ```
//! use cpr_obs::{Json, Obs};
//!
//! let obs = Obs::with_null_tracer();
//! {
//!     let _span = obs.span("round", &[("round", Json::int(0))]);
//!     obs.add("sim.messages", 42);
//!     obs.record("sim.changes_per_round", 7);
//! }
//! assert_eq!(obs.registry.counter("sim.messages"), 42);
//! let snapshot = obs.registry.render_json(); // embed in a report
//! assert!(snapshot.to_compact().contains("sim.messages"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use json::Json;
pub use metrics::Histogram;
pub use registry::{Registry, RegistryBatch, ShardMetrics};
pub use trace::{Span, Tracer, RING_CAPACITY, TRACE_ENV};

use std::sync::OnceLock;

/// An observability context: one [`Registry`] plus one [`Tracer`].
///
/// Instrumented code takes `&Obs` and records through the forwarding
/// helpers below, which no-op when the context is
/// [disabled](Obs::disabled) — so `run_chaos_sync` and friends can keep
/// their un-instrumented signatures by delegating with a disabled
/// context.
#[derive(Debug, Default)]
pub struct Obs {
    /// The metrics registry (deterministic, logical quantities only).
    pub registry: Registry,
    /// The tracer (anything goes, including wall-clock timings).
    pub tracer: Tracer,
    enabled: bool,
}

impl Obs {
    /// A context that records nothing: every helper is a no-op.
    pub fn disabled() -> Obs {
        Obs {
            registry: Registry::new(),
            tracer: Tracer::disabled(),
            enabled: false,
        }
    }

    /// An enabled context with a live registry and a ring-buffer-only
    /// tracer — the usual choice for tests and report builders.
    pub fn with_null_tracer() -> Obs {
        Obs {
            registry: Registry::new(),
            tracer: Tracer::null(),
            enabled: true,
        }
    }

    /// An enabled context whose tracer is configured from `CPR_TRACE`
    /// (see [`Tracer::from_env`]).
    pub fn from_env() -> Obs {
        Obs {
            registry: Registry::new(),
            tracer: Tracer::from_env(),
            enabled: true,
        }
    }

    /// `true` when recording calls do work.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `delta` to a registry counter.
    pub fn add(&self, name: &str, delta: u64) {
        if self.enabled {
            self.registry.add(name, delta);
        }
    }

    /// Adds one to a registry counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Sets a registry gauge.
    pub fn set_gauge(&self, name: &str, value: i64) {
        if self.enabled {
            self.registry.set_gauge(name, value);
        }
    }

    /// Records one histogram sample.
    pub fn record(&self, name: &str, value: u64) {
        if self.enabled {
            self.registry.record(name, value);
        }
    }

    /// Opens a one-lock [`RegistryBatch`]; `None` when disabled.
    pub fn batch(&self) -> Option<RegistryBatch<'_>> {
        self.enabled.then(|| self.registry.batch())
    }

    /// Folds a histogram into the registry.
    pub fn merge_histogram(&self, name: &str, h: &Histogram) {
        if self.enabled {
            self.registry.merge_histogram(name, h);
        }
    }

    /// Absorbs a per-worker shard into the registry.
    pub fn absorb(&self, shard: ShardMetrics) {
        if self.enabled {
            self.registry.absorb(shard);
        }
    }

    /// Emits a trace event.
    pub fn event(&self, name: &str, fields: &[(&str, Json)]) {
        self.tracer.event(name, fields);
    }

    /// Opens a trace span (inert when disabled).
    pub fn span(&self, name: &str, fields: &[(&str, Json)]) -> Span<'_> {
        self.tracer.span(name, fields)
    }
}

/// The process-wide context, used by instrumentation too deep to thread
/// an `&Obs` through (the `cpr-core` worker pool). Initialized lazily on
/// first use: the registry is live and the tracer follows `CPR_TRACE`
/// *as set at that first use*.
pub fn global() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(Obs::from_env)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_is_inert() {
        let obs = Obs::disabled();
        obs.incr("c");
        obs.record("h", 1);
        obs.set_gauge("g", 1);
        assert_eq!(
            obs.registry.render_json().to_compact(),
            r#"{"counters":{},"gauges":{},"histograms":{}}"#
        );
    }

    #[test]
    fn global_is_live() {
        global().incr("test.global");
        assert!(global().registry.counter("test.global") >= 1);
    }
}
