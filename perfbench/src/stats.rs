//! Sample collections, the benchmark's metric tables and its result line.

use std::collections::BTreeMap;

/// Timings (or other per-operation values) collected during a run.
#[derive(Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Linear-interpolated quantile (type 7), `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.0.is_empty() {
            return None;
        }
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The samples from index `from` on.
    pub fn tail(&self, from: usize) -> Samples {
        Samples(self.0[from..].to_vec())
    }
}

/// Every end-to-end metric: name, unit. Printed by every plain run, on
/// every workload, in this order; `BENCHMARK.json` lists the same set.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("batch_p50_us", "us"),
    ("batch_p99_us", "us"),
    ("single_p50_ns", "ns"),
    ("estimates_per_s", "1/s"),
    ("mre", "ratio"),
    ("refresh_ms", "ms"),
    ("updates_per_s", "1/s"),
    ("recover_ms", "ms"),
    ("durable_bytes", "bytes"),
    ("peak_rss_mib", "MiB"),
];

/// Every per-layer metric: name, unit. Printed by every traced run.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("serving.snapshot_ns", "ns"),
    ("serving.find_ns", "ns"),
    ("serving.cache_get_ns", "ns"),
    ("serving.cache_hit_ratio", "ratio"),
    ("serving.batch_self_us", "us"),
    ("serving.single_self_ns", "ns"),
    ("serving.rebuild_us", "us"),
    ("serving.publish_us", "us"),
    ("kernel.batch_us", "us"),
    ("kernel.bandwidth_ms", "ms"),
    ("histogram.equi_depth.batch_us", "us"),
    ("histogram.max_diff.batch_us", "us"),
    ("core.sampling.batch_us", "us"),
    ("core.uniform.batch_us", "us"),
    ("catalog.analyze_column_us.kernel", "us"),
    ("catalog.analyze_column_us.equi_depth", "us"),
    ("catalog.analyze_column_us.max_diff", "us"),
    ("catalog.analyze_column_us.sampling", "us"),
    ("catalog.analyze_column_us.uniform", "us"),
    ("catalog.analyze_incremental_ms", "ms"),
    ("catalog.apply_updates_ns_per_row", "ns"),
    ("catalog.staleness_sweep_us", "us"),
    ("catalog.refresh_stale_ms", "ms"),
    ("core.incremental_snapshot_us", "us"),
    ("data.gk_insert_ns", "ns"),
    ("durable.open_ms", "ms"),
    ("durable.load_catalog_ms", "ms"),
    ("durable.restore_incremental_ms", "ms"),
    ("durable.append_us", "us"),
    ("durable.checkpoint_us", "us"),
    ("durable.publish_ms", "ms"),
    ("durable.bytes_per_publish", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// One attempted/failed tally per operation type.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// Operation tallies by type, printed on every run.
#[derive(Default, Clone, Copy)]
pub struct Ops {
    pub batch_slots: Tally,
    pub single_estimates: Tally,
    pub update_batches: Tally,
    pub republishes: Tally,
    pub restarts: Tally,
}

impl Ops {
    fn all(&self) -> [(&'static str, Tally); 5] {
        [
            ("batch_slots", self.batch_slots),
            ("single_estimates", self.single_estimates),
            ("update_batches", self.update_batches),
            ("republishes", self.republishes),
            ("restarts", self.restarts),
        ]
    }

    pub fn attempted(&self) -> u64 {
        self.all().iter().map(|(_, t)| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.all().iter().map(|(_, t)| t.failed).sum()
    }

    /// `ops batch_slots=<attempted>/<failed> ...`, one line.
    pub fn line(&self) -> String {
        let parts: Vec<String> = self
            .all()
            .iter()
            .map(|(name, t)| format!("{name}={}/{}", t.attempted, t.failed))
            .collect();
        format!("ops (attempted/failed) {}", parts.join(" "))
    }
}

/// The last line of a run: `{"correct": .., "attempted": .., "failed": ..,
/// "metrics": {name: {"value": v, "unit": u}, ..}}`. Every metric in
/// `table` must be present and finite; a missing one is a benchmark bug.
pub fn result_line(
    correct: bool,
    ops: &Ops,
    table: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted(),
        ops.failed(),
        metrics.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(2.5));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(Samples::default().median(), None);
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut values = BTreeMap::new();
        values.insert("setup_s", 0.5);
        let ops = Ops::default();
        assert!(result_line(true, &ops, &[("setup_s", "s")], &values).is_ok());
        assert!(result_line(true, &ops, &[("mre", "ratio")], &values).is_err());
    }
}
