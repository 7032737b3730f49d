//! The metric catalogue and the statistics behind it.
//!
//! Every metric the benchmark prints is declared here once, with its
//! unit and direction; per-layer metrics also name the end-to-end
//! metric and workload they should move, so later changes can cite
//! the prediction by name. The smoke test checks this table against
//! `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling used in `BENCHMARK.json`.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// For a per-layer metric, the end-to-end metric and workload it
    /// should move; for an end-to-end metric, what it measures.
    pub note: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    note: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        note,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 6] = [
    m("samples_per_s", "samples/s", Higher,
      "samples trained per second of the training loop, loader waits, accounting and checkpoint stalls included"),
    m("step_ms_p50", "ms", Lower, "median step time"),
    m("step_ms_tail", "ms", Lower,
      "highest step-time percentile with at least 10 steps beyond it; the report names the percentile and the step count"),
    m("setup_s", "s", Lower,
      "median over 5 to 15 set-ups of the time from job start to its first step: model init, dataset, spilling tables, optimizer"),
    m("finalize_s", "s", Lower,
      "release: Optimizer::finalize plus one verified read of every released weight (median of 3 reads)"),
    m("peak_rss_mb", "MB", Lower, "peak resident memory (VmHWM) after the release"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 27] = [
    m("data.advance_ms", "ms", Lower, "step_ms_p50 on rmc2-stored-ckpt; near 0 elsewhere"),
    m("data.producer_stalls", "1/step", Lower, "step_ms_p50 on rmc2-stored-ckpt; near 0 elsewhere"),
    m("model.forward_ms", "ms", Lower,
      "samples_per_s on mlperf-lazydp; on rmc2-stored-ckpt it also holds the embedding gathers through the page cache"),
    m("model.backward_clip_ms", "ms", Lower, "samples_per_s on mlperf-lazydp; small on rmc2-stored-ckpt"),
    m("dpsgd.dense_noise_ms", "ms", Lower,
      "step_ms_p50 on mlperf-dpsgd-f and finalize_s on mlperf-lazydp; negligible on rmc2-stored-ckpt"),
    m("rng.fill_msamples_per_s", "Msamples/s", Higher,
      "step_ms_p50 on mlperf-dpsgd-f and finalize_s on mlperf-lazydp; negligible on rmc2-stored-ckpt"),
    m("rng.samples_per_step", "samples/step", Lower,
      "step_ms_p50 on mlperf-dpsgd-f and finalize_s on mlperf-lazydp; negligible on rmc2-stored-ckpt"),
    m("core.flush_ms", "ms", Lower, "step_ms_p50 on rmc2-stored-ckpt"),
    m("core.noise_plan_rows_per_step", "rows/step", Lower, "step_ms_p50 on rmc2-stored-ckpt"),
    m("core.pending_depth_mean", "steps", Lower, "step_ms_p50 on rmc2-stored-ckpt"),
    m("core.finalize_rows", "rows", Lower, "finalize_s on mlperf-lazydp and rmc2-stored-ckpt"),
    m("core.ckpt_capture_ms", "ms", Lower, "samples_per_s on rmc2-stored-ckpt"),
    m("core.ckpt_save_ms", "ms", Lower, "samples_per_s on rmc2-stored-ckpt"),
    m("core.ckpt_bytes", "bytes", Lower, "samples_per_s on rmc2-stored-ckpt"),
    m("embedding.sparse_update_ms", "ms", Lower, "step_ms_p50 on rmc2-stored-ckpt"),
    m("embedding.rows_written_per_step", "rows/step", Lower, "step_ms_p50 on rmc2-stored-ckpt"),
    m("store.hit_rate", "ratio", Higher, "samples_per_s on rmc2-stored-ckpt; 0 on both memory workloads"),
    m("store.misses_per_step", "pages/step", Lower,
      "samples_per_s on rmc2-stored-ckpt; 0 on both memory workloads"),
    m("store.evictions_per_step", "pages/step", Lower,
      "samples_per_s on rmc2-stored-ckpt; 0 on both memory workloads"),
    m("store.write_backs_per_step", "pages/step", Lower,
      "samples_per_s on rmc2-stored-ckpt; 0 on both memory workloads"),
    m("store.mb_loaded_per_step", "MB/step", Lower,
      "samples_per_s on rmc2-stored-ckpt; 0 on both memory workloads"),
    m("store.mb_spilled_per_step", "MB/step", Lower,
      "samples_per_s on rmc2-stored-ckpt; 0 on both memory workloads"),
    m("exec.par_regions_per_step", "regions/step", Lower, "guard: flat on every workload"),
    m("exec.chunks_per_region_mean", "chunks", Higher, "guard: flat on every workload"),
    m("privacy.compose_us", "us", Lower, "guard: flat on every workload"),
    m("bench.trace_overhead_pct", "%", Lower,
      "traced step_ms_p50 against the counters-mode step_ms_p50 of the same run"),
    m("bench.layer_coverage_pct", "%", Higher,
      "share of the traced step covered by the named layers above; guards the split itself"),
];

/// Looks a metric up in either catalogue.
#[must_use]
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Median of `xs` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
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

/// Arithmetic mean; 0 when empty.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    let mut total = 0.0;
    for &x in xs {
        total += x;
    }
    if xs.is_empty() {
        0.0
    } else {
        total / xs.len() as f64
    }
}

/// The tail the benchmark reports: the nearest-rank percentile with at
/// least `beyond` samples above it (the minimum when there are too few
/// samples). Returns `(value, percentile, sample count)`.
#[must_use]
pub fn tail(xs: &[f64], beyond: usize) -> (f64, f64, usize) {
    let n = xs.len();
    if n == 0 {
        return (0.0, 0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n.saturating_sub(beyond).max(1);
    (v[rank - 1], 100.0 * rank as f64 / n as f64, n)
}

/// Metric values of one run, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `name` (which must be declared in the catalogue).
    ///
    /// # Panics
    ///
    /// Panics on an undeclared name: that is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "undeclared metric {name}");
        self.values.push((name, value));
    }

    /// The recorded value of `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Every recorded `(name, value)`.
    #[must_use]
    pub fn values(&self) -> &[(&'static str, f64)] {
        &self.values
    }

    /// Whether every value is a finite number.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.values.iter().all(|(_, v)| v.is_finite())
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.values().iter().enumerate() {
        let unit = def(name).map_or("", |d| d.unit);
        if i > 0 {
            s.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

/// Human-readable table of a run's metrics.
#[must_use]
pub fn table(metrics: &Metrics) -> String {
    let mut s = String::new();
    let notes: BTreeMap<&str, &str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|d| (d.name, d.note))
        .collect();
    for (name, value) in metrics.values() {
        let unit = def(name).map_or("", |d| d.unit);
        let _ = writeln!(
            s,
            "  {name:<34} {value:>14.4} {unit:<13} {}",
            notes.get(name).copied().unwrap_or("")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (v, p, n) = tail(&xs, 10);
        assert_eq!((v, p, n), (30.0, 75.0, 40));
        assert_eq!(tail(&xs[..5], 10).0, 1.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        let line = result_json(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
