//! Sample statistics, seeded generator streams, process memory, and the
//! result record every workload fills in.

use std::collections::BTreeMap;

use sqlarray_core::rng::{Rng as _, SeedableRng, StdRng};

/// The workspace generator for `seed`, decorrelated per `stream`, so the
/// same seed produces the same inputs on every platform and toolchain.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Median of `xs` (mean of the middle pair for even counts); 0 if empty.
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

/// Nearest-rank percentile `p` in `[0, 100]`; 0 if empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean of positive values; 0 if empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Latency samples grouped by statement kind, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    by_kind: BTreeMap<&'static str, Vec<f64>>,
}

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, kind: &'static str, ms: f64) {
        self.by_kind.entry(kind).or_default().push(ms);
    }

    /// Folds another set in.
    pub fn merge(&mut self, other: Latencies) {
        for (k, v) in other.by_kind {
            self.by_kind.entry(k).or_default().extend(v);
        }
    }

    /// Every sample of every kind.
    pub fn all(&self) -> Vec<f64> {
        self.by_kind.values().flatten().copied().collect()
    }

    /// Samples of one kind.
    pub fn of(&self, kind: &str) -> &[f64] {
        self.by_kind.get(kind).map_or(&[], Vec::as_slice)
    }

    /// Geometric mean of the per-kind medians: every kind weighs the
    /// same, however many samples it has.
    pub fn geomean_of_medians(&self) -> f64 {
        let meds: Vec<f64> = self.by_kind.values().map(|v| median(v)).collect();
        geomean(&meds)
    }

    /// `(kind, samples, median, p99)` rows for the human report.
    pub fn summary(&self) -> Vec<(&'static str, usize, f64, f64)> {
        self.by_kind
            .iter()
            .map(|(k, v)| (*k, v.len(), median(v), percentile(v, 99.0)))
            .collect()
    }
}

/// The statements that completed in one slice of a measured window (a
/// round, a cycle, or a second of wall time). End-to-end timings are
/// computed per slice and reported as a median over slices, so a burst of
/// interference on a shared machine moves a few slices, not the result.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Wall time the slice spans.
    pub wall_s: f64,
    /// Statement latencies by kind.
    pub lat: Latencies,
    /// Rows the slice's statements scanned.
    pub rows_scanned: u64,
    /// Σ statement latency, seconds.
    pub stmt_s: f64,
}

impl Slice {
    /// Records one statement.
    pub fn push(&mut self, kind: &'static str, secs: f64, rows_scanned: u64) {
        self.lat.push(kind, secs * 1e3);
        self.stmt_s += secs;
        self.rows_scanned += rows_scanned;
    }
}

/// Sets the slice-median end-to-end timings: `throughput_qps`,
/// `latency_p50_ms`, `latency_p99_ms`, `query_geomean_ms`,
/// `scan_rows_per_s`, and — when `writes` names statement kinds —
/// `write_p50_ms`. Also notes the pooled per-kind latencies.
pub fn publish_slices(slices: &[Slice], writes: &[&str], out: &mut Outcome) {
    let slices: Vec<&Slice> = slices.iter().filter(|s| s.stmt_s > 0.0).collect();
    let per = |f: &dyn Fn(&Slice) -> f64| median(&slices.iter().map(|s| f(s)).collect::<Vec<_>>());
    out.set(
        "throughput_qps",
        per(&|s| s.lat.all().len() as f64 / s.wall_s),
    );
    out.set("latency_p50_ms", per(&|s| median(&s.lat.all())));
    out.set("latency_p99_ms", per(&|s| percentile(&s.lat.all(), 99.0)));
    out.set("query_geomean_ms", per(&|s| s.lat.geomean_of_medians()));
    out.set(
        "scan_rows_per_s",
        per(&|s| s.rows_scanned as f64 / s.stmt_s),
    );
    if !writes.is_empty() {
        let write_p50 = |s: &Slice| {
            let w: Vec<f64> = writes.iter().flat_map(|k| s.lat.of(k)).copied().collect();
            median(&w)
        };
        out.set("write_p50_ms", per(&write_p50));
    }
    let mut pooled = Latencies::default();
    for s in &slices {
        pooled.merge(s.lat.clone());
    }
    out.note(format!(
        "{} slices, {} statements",
        slices.len(),
        pooled.all().len()
    ));
    for (kind, n, p50, p99) in pooled.summary() {
        out.note(format!(
            "{kind:<22} n {n:>6}  p50 {p50:>9.3} ms  p99 {p99:>9.3} ms"
        ));
    }
}

/// What a workload run reports: answer-check tallies, metric values, and
/// notes for the human report on standard error.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (statements, loads, probes).
    pub attempted: u64,
    /// Operations that failed or returned a wrong answer.
    pub failed: u64,
    /// Whole-run checks (final state, recovery, counter repeatability)
    /// that did not hold.
    pub broken: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Per-layer metrics a workload had nothing to measure for, and why.
    pub idle: BTreeMap<&'static str, &'static str>,
    /// Free-form report lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Marks a per-layer metric as not exercised by this workload: it
    /// reads 0 and the report says why.
    pub fn idle(&mut self, name: &'static str, why: &'static str) {
        self.values.insert(name, 0.0);
        self.idle.insert(name, why);
    }

    /// Adds a report line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("WRONG ANSWER: {}", what()));
            }
        }
    }

    /// Records a whole-run invariant.
    pub fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.broken.push(what.into());
        }
    }

    /// True when every answer and every whole-run check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`, the metrics in the order of `declared`
    /// (`(name, unit)` pairs). A declared metric the workload did not set
    /// is an error; a non-finite value is printed as 0 and makes the run
    /// incorrect.
    pub fn json(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut finite = true;
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let v = *self
                .values
                .get(name)
                .ok_or_else(|| format!("workload did not report metric `{name}`"))?;
            finite &= v.is_finite();
            let v = if v.is_finite() { v } else { 0.0 };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct() && finite,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn streams_are_seeded() {
        let draw = |seed, stream| -> Vec<u64> {
            let mut r = rng(seed, stream);
            (0..4).map(|_| r.gen_range(0..1000u64)).collect()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut v: Vec<u32> = (0..10).collect();
        shuffle(&mut rng(7, 1), &mut v);
        v.sort_unstable();
        assert!(v.iter().copied().eq(0..10));
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let mut o = Outcome::default();
        o.check(true, String::new);
        o.set("setup_s", 0.5);
        assert!(o.json(&[("setup_s", "s"), ("x", "ms")]).is_err());
        assert_eq!(
            o.json(&[("setup_s", "s")]).unwrap(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
