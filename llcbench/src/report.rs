//! The result line: metric names, units, and the JSON object printed
//! last on standard output.

/// End-to-end metrics, printed on every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("max_rps", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed on every `--trace 1` run. A layer that
/// does no work on a workload reports 0.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("trace.generate_ms", "ms"),
    ("sim.record_ms", "ms"),
    ("sim.record_ns_per_access", "ns"),
    ("sim.records", "count"),
    ("tape.decode_ms", "ms"),
    ("tape.bytes", "bytes"),
    ("tape.cache_hit_ratio", "ratio"),
    ("sim.replay_ms", "ms"),
    ("sim.replay_ns_per_event_tech", "ns"),
    ("runner.wall_ms", "ms"),
    ("runner.unattributed_ms", "ms"),
    ("store.put_us", "us"),
    ("store.get_us", "us"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_written", "bytes"),
    ("store.bytes_read", "bytes"),
    ("serve.new_conn_p50_ms", "ms"),
    ("serve.keepalive_p50_ms", "ms"),
    ("serve.healthz_p50_ms", "ms"),
    ("serve.queue_wait_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.unattributed_us", "us"),
    ("serve.client_mean_us", "us"),
    ("serve.rejected", "count"),
    ("serve.coalesce_hits", "count"),
    ("serve.samples", "count"),
    ("sim.llc_misses", "count"),
    ("sim.dram_writebacks", "count"),
    ("sim.exec_cycles", "count"),
    ("serve.gen_late_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.wall_ms", "ms"),
];

/// What one run measured and whether its outputs were right.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (cells or requests).
    pub attempted: u64,
    /// Operations that failed: errors, timeouts, or wrong outputs.
    pub failed: u64,
    /// Extra correctness failures that are not single operations
    /// (for example a repeated seed that did not reproduce its matrix).
    pub broken: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Sets metric `name` (which must be listed in [`END_TO_END`] or
    /// [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    /// The value set for `name`, if any.
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Counts `ok` toward attempted, and toward failed when false.
    pub fn tally(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// The result line for `--trace 0` (`traced == false`, end-to-end
    /// metrics) or `--trace 1` (per-layer metrics). Metrics a layer left
    /// unset print as 0; a non-finite value marks the run incorrect.
    pub fn to_json(&self, traced: bool) -> String {
        let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut finite = true;
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.get(name).unwrap_or(0.0);
                finite &= value.is_finite();
                let value = if value.is_finite() { value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let correct = finite && self.failed == 0 && self.broken.is_empty() && self.attempted > 0;
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
