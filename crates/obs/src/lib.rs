//! # nvm-llc-obs — workspace-wide instrumentation
//!
//! A dependency-free observability layer shared by every crate in the
//! workspace. Three pillars, each cheap enough for hot paths:
//!
//! * [`metrics`] — a process-wide registry of named [`metrics::Counter`]s,
//!   [`metrics::Gauge`]s, and log-linear-bucket [`metrics::Histogram`]s.
//!   Every event costs one relaxed atomic op; counters are sharded across
//!   cache-line-padded stripes so contended threads do not bounce a
//!   single line. The whole registry renders to Prometheus text
//!   exposition ([`metrics::render_prometheus`]) and to a JSON object
//!   ([`metrics::render_json`]) for `/statsz`-style endpoints.
//! * [`span`] — lightweight wall-time spans: [`span!`]`("tape_record")`
//!   returns a guard whose drop records the elapsed seconds into the
//!   `nvmllc_tape_record_seconds` histogram and, when chrome tracing is
//!   recording ([`chrome`]), appends a complete event to the trace ring
//!   buffer. Guards are independent — dropping them out of order is
//!   harmless by construction.
//! * [`log`] — structured JSON logging to stderr: one line per event
//!   with level, RFC 3339 timestamp, target, message, and typed fields.
//!   The `NVM_LLC_LOG` environment variable (`off`/`error`/`info`/
//!   `debug`) controls verbosity; the default is `off`, so instrumented
//!   binaries stay byte-for-byte quiet unless asked.
//!
//! Phase 2 adds two cluster-facing pillars on the same foundations:
//!
//! * [`trace`] — per-request distributed tracing. A request that should
//!   be traced attaches a [`trace::Collector`] to its thread; every
//!   [`span!`] guard opened while attached is linked into a span tree,
//!   contexts cross process hops via the `x-nvmllc-trace` header, and
//!   tail sampling retains only slow/error trees in a bounded
//!   [`trace::TailBuffer`]. Untraced spans (no collector attached) pay
//!   one thread-local check.
//! * [`federate`] — metrics federation: parse peer `/metricsz` scrapes,
//!   sum counters and merge same-bounds histograms, and re-render one
//!   cluster-level Prometheus view for `/clusterz`.
//!
//! Metric names follow `nvmllc_<subsystem>_<name>_<unit>` (see
//! DESIGN.md §"Observability"). The registry is canonical by name:
//! registering the same name twice returns the same instance, which lets
//! subsystems pre-register their inventory at service start so a scrape
//! shows zeros instead of missing families.
//!
//! [`set_enabled`] gates span *timing* (not counters) process-wide; the
//! overhead benchmark flips it to measure the instrumented-vs-bare delta
//! of the replay path.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod chrome;
pub mod federate;
pub mod log;
pub mod metrics;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables span timing process-wide (default on). Metric
/// counters maintained by callers keep counting either way; only the
/// `Instant::now` pair and histogram record of [`span!`] guards are
/// skipped. Exists so benches can measure instrumentation overhead.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether span timing is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Opens a wall-time span: `let _span = obs::span!("tape_record");`
///
/// The literal name is interpolated into the metric
/// `nvmllc_<name>_seconds`, so span names carry their subsystem prefix
/// (`tape_record`, `serve_request`, …). The guard records on drop;
/// binding it to `_` drops immediately and times nothing.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static HIST: ::std::sync::OnceLock<&'static $crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::span::Span::enter($name, || {
            *HIST.get_or_init(|| {
                $crate::metrics::histogram(
                    concat!("nvmllc_", $name, "_seconds"),
                    concat!("Wall time of the `", $name, "` span."),
                )
            })
        })
    }};
}

/// Serializes tests that read or toggle the process-wide enabled flag
/// (tests in one binary run concurrently).
#[cfg(test)]
pub(crate) fn test_enabled_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn enabled_toggles() {
        let _guard = super::test_enabled_lock();
        assert!(super::enabled());
        super::set_enabled(false);
        assert!(!super::enabled());
        super::set_enabled(true);
        assert!(super::enabled());
    }
}
