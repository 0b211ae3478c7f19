//! The run's result: operation and check counts, the metric catalog, and
//! the output format (readable lines, then one JSON object as the last
//! line of standard output).

use std::collections::BTreeMap;

/// End-to-end metrics: every workload reports every one of them, untraced.
/// `latency_ms_p50` is the workload's blocking operation (see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("gap_pct", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A layer the workload
/// does not exercise reports 0: the workload spent no time and did no work
/// there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shard.super_partition_ms", "ms"),
    ("shard.bounds_ms", "ms"),
    ("shard.waterfill_ms", "ms"),
    ("shard.supers", "count"),
    ("shard.inner_shards", "count"),
    ("shard.cut_edges", "count"),
    ("shard.skew_ratio", "ratio"),
    ("shard.plan_ms", "ms"),
    ("shard.build_ms", "ms"),
    ("shard.finish_ms", "ms"),
    ("shard.merge_ms", "ms"),
    ("shard.repair_ms", "ms"),
    ("shard.repair_dropped", "count"),
    ("shard.finish_repair_ms", "ms"),
    ("reduction.residual_fill_ms", "ms"),
    ("reduction.finish_fill_ms", "ms"),
    ("batch.solve_batch_ms", "ms"),
    ("batch.subinstances", "count"),
    ("par.solve_batch_speedup", "x"),
    ("ingest.push_ms", "ms"),
    ("ingest.resolved_shard_fraction", "ratio"),
    ("ingest.resolved_super_fraction", "ratio"),
    ("ingest.inner_cache_hit_ratio", "ratio"),
    ("ingest.full_resolves", "count"),
    ("ingest.snapshot_ms", "ms"),
    ("ingest.partition_share", "ratio"),
    ("ingest.scratch_solve_ms", "ms"),
    ("ingest.incremental_speedup", "x"),
    ("ingest.updates_per_s", "1/s"),
    ("serve.engine_apply_ms", "ms"),
    ("serve.commit_wait_ms", "ms"),
    ("serve.apply_queue_lag_max", "count"),
    ("serve.queue_depth_max", "count"),
    ("serve.overloaded", "count"),
    ("serve.frames_rejected", "count"),
    ("client.health_rtt_ms", "ms"),
    ("client.ack_ms_p50", "ms"),
    ("client.query_ms_p50", "ms"),
    ("client.query_ms_p90", "ms"),
    ("client.lateness_ms_max", "ms"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(catalog: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    catalog.iter().find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// Counts, metrics and readable lines of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    checks_failed: u64,
    end_to_end: BTreeMap<&'static str, f64>,
    per_layer: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
}

impl Report {
    /// Counts one operation (a solve, an apply, a wire request).
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts one output check; a failed check is a failed operation and
    /// makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.op(ok);
        if !ok {
            self.checks_failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Sets an end-to-end metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`END_TO_END`] (a bug in a workload).
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(END_TO_END, name).is_some(), "unknown metric {name}");
        self.end_to_end.insert(name, value);
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`PER_LAYER`] (a bug in a workload).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(PER_LAYER, name).is_some(), "unknown metric {name}");
        self.per_layer.insert(name, value);
    }

    /// Adds a readable line printed before the JSON result.
    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.checks_failed == 0
    }

    /// The readable lines followed by the JSON result line: end-to-end
    /// metrics untraced, per-layer metrics traced.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was never set (a bug in a workload).
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|&(name, unit)| {
                let value = if traced {
                    self.per_layer.get(name).copied().unwrap_or(0.0)
                } else {
                    *self
                        .end_to_end
                        .get(name)
                        .unwrap_or_else(|| panic!("end-to-end metric {name} was not measured"))
                };
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// A finite float in its shortest round-trip form; non-finite values (which
/// JSON cannot carry) become `-1`, and a check elsewhere fails the run.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// Median of `xs` (mean of the two middle values for even counts); 0 for
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    mmd_serve::service::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn failed_checks_fail_the_run() {
        let mut r = Report::default();
        r.op(true);
        r.check(true, "fine");
        assert!(r.correct());
        r.check(false, "broken");
        assert!(!r.correct());
        for &(name, _) in END_TO_END {
            r.e2e(name, 1.5);
        }
        let out = r.render(false);
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"));
    }
}
