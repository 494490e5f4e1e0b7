//! Metric tables, timing summaries, and the hand-rolled JSON writer.
//!
//! The tables here are the single source of the names in
//! `BENCHMARK.json`; a unit test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The five workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DaysHot,
    DaysApd,
    DaysSchedChurn,
    ServePage,
    ServePoint,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DaysHot,
        Workload::DaysApd,
        Workload::DaysSchedChurn,
        Workload::ServePage,
        Workload::ServePoint,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DaysHot => "days-hot",
            Workload::DaysApd => "days-apd",
            Workload::DaysSchedChurn => "days-sched-churn",
            Workload::ServePage => "serve-page",
            Workload::ServePoint => "serve-point",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn is_serve(self) -> bool {
        matches!(self, Workload::ServePage | Workload::ServePoint)
    }
}

/// End-to-end metrics, reported by every workload on an untraced run.
/// An *op* is one day cycle on `days-*` and one request on `serve-*`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("journal_bytes_per_day", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-day layer metrics of the staged driver: times are busy seconds
/// per day cycle, counts are per day over the fixed count window.
const DAY_LAYERS: &[(&str, &str)] = &[
    ("zmap6.battery_s", "s"),
    ("zmap6.battery.probes", "count"),
    ("zmap6.battery.responders", "count"),
    ("zmap6.battery.hit_share", "share"),
    ("apd.plan_s", "s"),
    ("apd.plan.prefixes", "count"),
    ("apd.probe_s", "s"),
    ("apd.probe.probes", "count"),
    ("apd.classify_s", "s"),
    ("apd.filter_s", "s"),
    ("apd.filter.kept", "count"),
    ("apd.filter.removed", "count"),
    ("sched.plan_s", "s"),
    ("sched.admit_s", "s"),
    ("sched.record_s", "s"),
    ("sched.admitted", "count"),
    ("sched.yield", "share"),
    ("scamper6.harvest_s", "s"),
    ("scamper6.probes", "count"),
    ("scamper6.routers", "count"),
    ("core.hitlist.live_set_s", "s"),
    ("core.hitlist.add_s", "s"),
    ("core.hitlist.mark_s", "s"),
    ("core.hitlist.charge_s", "s"),
    ("core.hitlist.expire_s", "s"),
    ("core.hitlist.expired", "count"),
    ("core.ledger.record_s", "s"),
    ("addr.par_sort_s", "s"),
    ("addr.interned", "count"),
    ("core.journal.append_s", "s"),
    ("core.journal.append_bytes", "bytes"),
    ("core.journal.compactions", "count"),
    ("core.journal.compact_s", "s"),
    ("restart_s", "s"),
    ("journal_load_s", "s"),
    ("core.journal.replay_s", "s"),
    ("model.build_s", "s"),
    ("serve.view.from_state_s", "s"),
    ("serve.view.publish_s", "s"),
    ("serve.view.rows", "count"),
    ("serve.registry.publish_s", "s"),
    ("core.pipeline.unattributed_s", "s"),
    ("core.pipeline.day_cycle_max_s", "s"),
    ("trace.overhead_share", "share"),
];

/// Request kinds the serve workloads send.
pub const REQ_KINDS: [&str; 4] = ["lookup", "select", "sample", "stats"];

/// Per-request layer spans, in the order `transport::serve_frame`
/// runs them; each is reported once per request kind.
pub const REQ_LAYERS: [&str; 8] = [
    "serve.transport.frame_s",
    "serve.protocol.decode_s",
    "serve.limiter.admit_s",
    "serve.registry.pin_s",
    "serve.cache.get_s",
    "serve.pool.execute_s",
    "serve.protocol.encode_s",
    "serve.cache.put_s",
];

const REQ_AGGREGATES: &[(&str, &str)] = &[
    ("serve.transport.wire_s", "s"),
    ("serve.transport.req_p99_us", "us"),
    ("serve.cache.hit_share", "share"),
    ("serve.cache.retired", "count"),
    ("serve.cache.evicted", "count"),
    ("serve.transport.requests", "count"),
];

/// Every per-layer metric, in output order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = DAY_LAYERS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for layer in REQ_LAYERS {
        for kind in REQ_KINDS {
            out.push((format!("{layer}.{kind}"), "s"));
        }
    }
    for kind in REQ_KINDS {
        out.push((format!("serve.protocol.response_bytes.{kind}"), "bytes"));
    }
    out.extend(REQ_AGGREGATES.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// Nanosecond timing samples of one operation.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &[u64]) {
        self.ns.extend_from_slice(other);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    pub fn max_ns(&self) -> u64 {
        self.ns.iter().copied().max().unwrap_or(0)
    }

    /// Nearest-rank percentile (`p` in 0..=1); 0 when empty.
    pub fn percentile_ns(&mut self, p: f64) -> u64 {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        percentile_of_sorted(&self.ns, p)
    }

    pub fn median_ns(&mut self) -> u64 {
        self.percentile_ns(0.5)
    }

    /// `"n=… pXX=…ms"`: the sample count and the highest percentile
    /// the sample supports, printed beside every median.
    pub fn note(&mut self) -> String {
        match highest_supported_percentile(self.len()) {
            Some((label, p)) => format!(
                "n={} {label}={:.4}ms",
                self.len(),
                self.percentile_ns(p) as f64 / 1e6
            ),
            None => format!("n={}", self.len()),
        }
    }
}

pub fn percentile_of_sorted(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it (`n · (1 − p) ≥ 10`); `None` below 40 samples,
/// where only the median is reported.
pub fn highest_supported_percentile(n: usize) -> Option<(&'static str, f64)> {
    const LADDER: [(&str, f64, usize); 6] = [
        ("p99.99", 0.9999, 100_000),
        ("p99.9", 0.999, 10_000),
        ("p99", 0.99, 1_000),
        ("p95", 0.95, 200),
        ("p90", 0.90, 100),
        ("p75", 0.75, 40),
    ];
    LADDER
        .iter()
        .find(|&&(_, _, min_n)| n >= min_n)
        .map(|&(label, p, _)| (label, p))
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count / supported tail, for the human-readable line.
    pub note: String,
}

/// One correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Measured values by metric name; the reporter orders them by the
    /// tables above and zero-fills per-layer metrics of layers the
    /// workload does not run.
    pub values: BTreeMap<String, (f64, String)>,
    /// Free-form facts for the human-readable header (scale, clients…).
    pub facts: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), (value, String::new()));
    }

    pub fn set_noted(&mut self, name: &str, value: f64, note: String) {
        self.values.insert(name.to_string(), (value, note));
    }

    /// Record a check; a failed check is a failed operation.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check { name, ok, detail });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The metrics of this run, in table order. End-to-end metrics must
    /// all have been measured; absent per-layer metrics read 0.
    pub fn metrics(&self, trace: bool) -> Vec<Metric> {
        let table: Vec<(String, &'static str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        table
            .into_iter()
            .map(|(name, unit)| {
                let (value, note) = match self.values.get(&name) {
                    Some((v, n)) => (*v, n.clone()),
                    None => {
                        assert!(trace, "end-to-end metric {name} was not measured");
                        (0.0, String::new())
                    }
                };
                Metric {
                    name,
                    value,
                    unit,
                    note,
                }
            })
            .collect()
    }
}

// ---- JSON ------------------------------------------------------------

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with all the digits `f64` carries (Rust's `Display`
/// is the shortest round-tripping form and never uses an exponent).
/// Non-finite values have no JSON form; they are measurement bugs.
pub fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric value {v}");
    format!("{v}")
}

/// The contract's result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(9), None);
        assert_eq!(highest_supported_percentile(39), None);
        assert_eq!(highest_supported_percentile(40).unwrap().0, "p75");
        assert_eq!(highest_supported_percentile(99).unwrap().0, "p75");
        assert_eq!(highest_supported_percentile(100).unwrap().0, "p90");
        assert_eq!(highest_supported_percentile(999).unwrap().0, "p95");
        assert_eq!(highest_supported_percentile(1_000).unwrap().0, "p99");
        assert_eq!(highest_supported_percentile(9_999).unwrap().0, "p99");
        assert_eq!(highest_supported_percentile(10_000).unwrap().0, "p99.9");
        assert_eq!(highest_supported_percentile(100_000).unwrap().0, "p99.99");
        // The rule itself, for every rung: at its threshold exactly ten
        // samples (up to float rounding) lie beyond the percentile.
        for n in [40usize, 100, 200, 1_000, 10_000, 100_000] {
            let (_, p) = highest_supported_percentile(n).unwrap();
            assert!((n as f64 * (1.0 - p)).round() >= 10.0, "n={n} p={p}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of_sorted(&v, 0.5), 50);
        assert_eq!(percentile_of_sorted(&v, 0.99), 99);
        assert_eq!(percentile_of_sorted(&v, 1.0), 100);
        assert_eq!(percentile_of_sorted(&v, 0.0), 1);
        assert_eq!(percentile_of_sorted(&[7], 0.5), 7);
        assert_eq!(percentile_of_sorted(&[], 0.5), 0);
        let mut s = Samples::default();
        for x in [30, 10, 20] {
            s.push(x);
        }
        assert_eq!(s.median_ns(), 20);
        assert_eq!(s.max_ns(), 30);
        assert_eq!(s.sum_ns(), 60);
    }

    #[test]
    fn json_writer_escapes_and_keeps_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
        assert_eq!(json_num(0.0000153), "0.0000153");
        assert_eq!(json_num(1234.5678901), "1234.5678901");
        let line = result_line(
            true,
            0,
            0,
            &[Metric {
                name: "op_p50_ms".into(),
                value: 1.25,
                unit: "ms",
                note: String::new(),
            }],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"op_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics of the
    /// tables above (a crude scan — the build image has no JSON parser,
    /// and the file is flat enough not to need one).
    #[test]
    fn benchmark_json_matches_the_tables() {
        let manifest = include_str!("../../BENCHMARK.json");
        let names = |section: &str| -> Vec<String> {
            let start = manifest
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("no {section} section"));
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\":")
                .skip(1)
                .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
                .collect()
        };
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(names("workloads"), workloads);
        let e2e: Vec<String> = END_TO_END.iter().map(|&(n, _)| n.into()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names("per_layer"), layers);
        assert!(layers.len() <= 128);
        for (name, unit) in per_layer() {
            assert!(
                manifest.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} unit"
            );
        }
    }
}
