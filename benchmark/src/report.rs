//! The benchmark's declared metrics (`BENCHMARK.json`, embedded at build
//! time), the result-set file a suite run writes, and `--compare`.

use crate::stats::{iqr, median, quartiles, spread};
use serde_json::Value;

/// `BENCHMARK.json` as committed at the root of the repo: the single list
/// of workloads, metrics, units, directions and bounds.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Layer counts that repeat exactly between two runs of one commit with
/// one seed; `--compare` reports any difference.
pub const EXACT_COUNTS: [&str; 4] = [
    "core.scf_iterations",
    "hpc.bytes_total",
    "hpc.messages",
    "parallel.ghost_bytes_per_apply",
];

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline median a metric may worsen by (end-to-end only).
    pub bound: Option<f64>,
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
    pub run_seconds: f64,
}

fn metric_defs(v: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} array"))?
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry without {k}"))
            };
            Ok(MetricDef {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: match field("better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other}")),
                },
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let workloads = v
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: no workloads array")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
            .collect();
        Ok(Self {
            workloads,
            end_to_end: metric_defs(&v, "end_to_end")?,
            per_layer: metric_defs(&v, "per_layer")?,
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::as_f64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
        })
    }

    pub fn embedded() -> Self {
        Self::parse(BENCHMARK_JSON).expect("the committed BENCHMARK.json parses")
    }
}

pub fn num(x: f64) -> Value {
    serde_json::to_value(&x).expect("f64 is serializable")
}

pub fn uint(x: u64) -> Value {
    serde_json::to_value(&x).expect("u64 is serializable")
}

pub fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

pub fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// One end-to-end metric of one run: the samples (repetitions of the
/// operation, or of the set-up) and the reported value, their median.
#[derive(Clone, Debug, PartialEq)]
pub struct Measured {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub samples: Vec<f64>,
}

impl Measured {
    pub fn median(name: &str, unit: &str, samples: Vec<f64>) -> Self {
        let value = median(&samples);
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            value,
            samples,
        }
    }
}

/// What one workload contributed to a result set: its end-to-end metrics
/// with their samples and the value of each layer metric.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Measured>,
    /// `(metric, unit, value)`.
    pub per_layer: Vec<(String, String, f64)>,
}

impl WorkloadResult {
    pub fn to_value(&self) -> Value {
        let e2e = self
            .end_to_end
            .iter()
            .map(|m| {
                let [q1, q2, q3] = quartiles(&m.samples);
                let v = object(vec![
                    ("value", num(m.value)),
                    ("unit", text(&m.unit)),
                    ("median", num(q2)),
                    ("q1", num(q1)),
                    ("q3", num(q3)),
                    ("n", uint(m.samples.len() as u64)),
                    (
                        "samples",
                        Value::Array(m.samples.iter().map(|&s| num(s)).collect()),
                    ),
                ]);
                (m.name.clone(), v)
            })
            .collect();
        let layers = self
            .per_layer
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    object(vec![("value", num(*value)), ("unit", text(unit))]),
                )
            })
            .collect();
        object(vec![
            ("name", text(&self.name)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", uint(self.attempted)),
            ("failed", uint(self.failed)),
            ("end_to_end", Value::Object(e2e)),
            ("per_layer", Value::Object(layers)),
        ])
    }

    pub fn from_value(v: &Value) -> Result<Self, String> {
        let name = v
            .get("name")
            .and_then(Value::as_str)
            .ok_or("workload result without a name")?
            .to_string();
        let fields = |key: &str| {
            v.get(key)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("{name}: no {key} object"))
        };
        let unit_of = |m: &Value| {
            m.get("unit")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string()
        };
        let mut end_to_end = Vec::new();
        for (metric, m) in fields("end_to_end")? {
            let samples = m
                .get("samples")
                .and_then(Value::as_array)
                .ok_or_else(|| format!("{name}.{metric}: no samples"))?
                .iter()
                .filter_map(Value::as_f64)
                .collect::<Vec<_>>();
            let value = m.get("value").and_then(Value::as_f64);
            let (Some(value), false) = (value, samples.is_empty()) else {
                return Err(format!("{name}.{metric}: no value or no samples"));
            };
            end_to_end.push(Measured {
                name: metric.clone(),
                unit: unit_of(m),
                value,
                samples,
            });
        }
        let mut per_layer = Vec::new();
        for (metric, m) in fields("per_layer")? {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{name}.{metric}: no value"))?;
            per_layer.push((metric.clone(), unit_of(m), value));
        }
        Ok(Self {
            correct: v.get("correct") == Some(&Value::Bool(true)),
            attempted: v.get("attempted").and_then(Value::as_u64).unwrap_or(0),
            failed: v.get("failed").and_then(Value::as_u64).unwrap_or(0),
            name,
            end_to_end,
            per_layer,
        })
    }
}

/// A complete set of runs: the header and one result per workload.
pub fn result_set(header: Value, workloads: &[WorkloadResult]) -> Value {
    object(vec![
        ("header", header),
        ("claim", Value::Null), // this benchmark measures; it claims no gain
        (
            "workloads",
            Value::Array(workloads.iter().map(WorkloadResult::to_value).collect()),
        ),
    ])
}

pub fn parse_result_set(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    v.get("workloads")
        .and_then(Value::as_array)
        .ok_or("result set without a workloads array")?
        .iter()
        .map(WorkloadResult::from_value)
        .collect()
}

/// `setup_s` may move by this much whatever its bound says: the absolute
/// floor under the relative bound. A set-up of a few hundred microseconds
/// steps by 30% on scheduler noise alone, and a move of less than 20 ms is
/// under 1% of every workload's operation.
pub const SETUP_FLOOR_S: f64 = 0.020;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the allowance.
    Regression,
    /// Not a regression, but the interquartile range of a side's own
    /// samples is wider than the allowance, so "unchanged" cannot be said.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge metric `def` from baseline `a` to candidate `b`. Returns the
/// verdict with the relative change of the median (signed so that positive
/// is worse). The allowance around a median is the metric's bound times
/// that median, and for `setup_s` at least [`SETUP_FLOOR_S`].
pub fn judge(def: &MetricDef, a: &Measured, b: &Measured) -> (Verdict, f64) {
    let floor = if def.name == "setup_s" {
        SETUP_FLOOR_S
    } else {
        0.0
    };
    let allowed = |m: &Measured| (def.bound.unwrap_or(0.0) * m.value.abs()).max(floor);
    let delta = if def.lower_is_better {
        b.value - a.value
    } else {
        a.value - b.value
    };
    let verdict = if delta > allowed(a) {
        Verdict::Regression
    } else if iqr(&a.samples) > allowed(a) || iqr(&b.samples) > allowed(b) {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, delta / a.value.abs())
}

/// Print one row per end-to-end metric × workload of `b` against `a`, then
/// the exact layer counts. Returns `false` on any regression, any count
/// that differs, or a workload or metric missing from either side.
pub fn compare<'a>(spec: &Spec, a: &'a [WorkloadResult], b: &'a [WorkloadResult]) -> bool {
    let mut clean = true;
    println!(
        "{:<14} {:<12} {:>12} {:>12} {:>8} {:>8} {:>8}  verdict (bound)",
        "workload", "metric", "A", "B", "A iqr%", "B iqr%", "worse%"
    );
    for w in &spec.workloads {
        let (Some(ra), Some(rb)) = (
            a.iter().find(|r| &r.name == w),
            b.iter().find(|r| &r.name == w),
        ) else {
            println!("{w:<14} missing from a result set");
            clean = false;
            continue;
        };
        for def in &spec.end_to_end {
            let find = |r: &'a WorkloadResult| r.end_to_end.iter().find(|m| m.name == def.name);
            let (Some(sa), Some(sb)) = (find(ra), find(rb)) else {
                println!("{w:<14} {:<12} missing from a result set", def.name);
                clean = false;
                continue;
            };
            let (verdict, worse) = judge(def, sa, sb);
            clean &= verdict != Verdict::Regression;
            println!(
                "{w:<14} {:<12} {:>12.6} {:>12.6} {:>8.2} {:>8.2} {:>+8.2}  {} ({:.0}%{}) n={}/{} {}",
                def.name,
                sa.value,
                sb.value,
                100.0 * spread(&sa.samples),
                100.0 * spread(&sb.samples),
                100.0 * worse,
                verdict.label(),
                100.0 * def.bound.unwrap_or(0.0),
                if def.name == "setup_s" { ", floor 20 ms" } else { "" },
                sa.samples.len(),
                sb.samples.len(),
                def.unit,
            );
        }
        if ra.failed + rb.failed > 0 {
            println!("{w:<14} failed operations: A {} B {}", ra.failed, rb.failed);
            clean = false;
        }
        for count in EXACT_COUNTS {
            let value = |r: &WorkloadResult| {
                r.per_layer
                    .iter()
                    .find(|(n, _, _)| n == count)
                    .map(|(_, _, v)| *v)
            };
            if let (Some(va), Some(vb)) = (value(ra), value(rb)) {
                let same = va == vb;
                clean &= same;
                println!(
                    "{w:<14} {count:<32} A {va} B {vb}  {}",
                    if same { "same" } else { "differs" }
                );
            }
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(lower: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn embedded_spec_is_well_formed() {
        let spec = Spec::embedded();
        let names: Vec<&str> = crate::inputs::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(spec.workloads, names);
        assert!(spec
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
        let mut seen = std::collections::BTreeSet::new();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(crate::stats::valid_name(&m.name), "{}", m.name);
            assert!(seen.insert(m.name.clone()), "{} declared twice", m.name);
        }
        for m in &spec.end_to_end {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.per_layer.len() <= 128 && spec.end_to_end.len() <= 16);
        for c in EXACT_COUNTS {
            assert!(spec.per_layer.iter().any(|m| m.name == c), "{c}");
        }
    }

    #[test]
    fn the_reported_value_is_the_median() {
        let m = Measured::median("wall_s", "s", vec![4.5, 4.25, 5.0]);
        assert_eq!((m.value, m.samples.len()), (4.5, 3));
    }

    #[test]
    fn sub_millisecond_setups_are_judged_against_the_floor() {
        let setup = MetricDef {
            name: "setup_s".into(),
            ..def(true, 0.25)
        };
        // the pair that failed a same-commit comparison: +47%, 91 us
        let a = Measured::median("setup_s", "s", vec![0.000_19, 0.000_195, 0.000_26]);
        let b = Measured::median("setup_s", "s", vec![0.000_21, 0.000_286, 0.000_40]);
        let (v, worse) = judge(&setup, &a, &b);
        assert_eq!(v, Verdict::Ok);
        assert!(worse > 0.25);
        // the same samples under another name get no floor
        assert_eq!(judge(&def(true, 0.25), &a, &b).0, Verdict::Regression);
        // above the floor the relative bound decides again: 80 -> 99 ms is
        // inside 25%, 80 -> 101 ms is not
        let at = |ms: f64| Measured::median("setup_s", "s", vec![ms * 1e-3; 3]);
        assert_eq!(judge(&setup, &at(80.0), &at(99.0)).0, Verdict::Ok);
        assert_eq!(judge(&setup, &at(80.0), &at(101.0)).0, Verdict::Regression);
        // below it the floor does: 1 -> 20 ms passes, 1 -> 22 ms does not
        assert_eq!(judge(&setup, &at(1.0), &at(20.0)).0, Verdict::Ok);
        assert_eq!(judge(&setup, &at(1.0), &at(22.0)).0, Verdict::Regression);
    }

    #[test]
    fn verdicts_on_hand_made_samples() {
        let scaled = |k: f64| {
            let s: Vec<f64> = [1.00, 1.01, 0.99, 1.00, 1.02]
                .iter()
                .map(|x| x * k)
                .collect();
            Measured::median("m", "s", s)
        };
        let steady = scaled(1.0);
        // 5% slower with a 10% bound: ok
        assert_eq!(
            judge(&def(true, 0.10), &steady, &scaled(1.05)).0,
            Verdict::Ok
        );
        // 20% slower: regression; 20% faster: ok
        let (v, worse) = judge(&def(true, 0.10), &steady, &scaled(1.2));
        assert_eq!(v, Verdict::Regression);
        assert!((worse - 0.2).abs() < 1e-12);
        assert_eq!(
            judge(&def(true, 0.10), &steady, &scaled(0.8)).0,
            Verdict::Ok
        );
        // higher-is-better flips the direction
        assert_eq!(
            judge(&def(false, 0.10), &steady, &scaled(0.8)).0,
            Verdict::Regression
        );
        assert_eq!(
            judge(&def(false, 0.10), &steady, &scaled(1.2)).0,
            Verdict::Ok
        );
        // same value, but one side's spread is wider than the bound
        let noisy = Measured::median("m", "s", vec![0.7, 1.0, 1.3, 0.8, 1.2]);
        assert_eq!(
            judge(&def(true, 0.10), &steady, &noisy).0,
            Verdict::Unresolved
        );
        // a single sample has no spread: judged on the value alone
        let one = |v: f64| Measured::median("m", "MB", vec![v]);
        assert_eq!(
            judge(&def(true, 0.10), &one(100.0), &one(104.0)).0,
            Verdict::Ok
        );
        assert_eq!(
            judge(&def(true, 0.10), &one(100.0), &one(111.0)).0,
            Verdict::Regression
        );
    }

    fn sample_result() -> WorkloadResult {
        WorkloadResult {
            name: "scf-wide".into(),
            correct: true,
            attempted: 3,
            failed: 0,
            end_to_end: vec![
                Measured::median("wall_s", "s", vec![4.25, 4.5, 4.125]),
                Measured::median("peak_rss_mb", "MB", vec![53.1875]),
            ],
            per_layer: vec![
                ("core.scf_iterations".into(), "count".into(), 9.0),
                ("linalg.gemm_tn_gflops".into(), "GFLOPS".into(), 36.36633),
            ],
        }
    }

    #[test]
    fn result_set_round_trips_through_json() {
        let r = sample_result();
        let header = object(vec![("seed", uint(1))]);
        let text =
            serde_json::to_string_pretty(&result_set(header, std::slice::from_ref(&r))).unwrap();
        assert!(text.contains("\"claim\": null"));
        assert_eq!(parse_result_set(&text).unwrap(), vec![r]);
        assert!(parse_result_set("{\"workloads\": [{\"name\": \"x\"}]}").is_err());
    }

    #[test]
    fn compare_flags_regressions_and_count_drift() {
        let mut spec = Spec::embedded();
        spec.workloads = vec!["scf-wide".into()];
        spec.end_to_end
            .retain(|m| m.name == "wall_s" || m.name == "peak_rss_mb");
        let a = sample_result();
        let only_a = std::slice::from_ref(&a);
        assert!(compare(&spec, only_a, only_a));
        let mut slow = a.clone();
        slow.end_to_end[0] = Measured::median("wall_s", "s", vec![5.5, 5.6, 5.4]);
        assert!(!compare(&spec, only_a, &[slow]));
        let mut drift = a.clone();
        drift.per_layer[0].2 = 10.0;
        assert!(!compare(&spec, only_a, &[drift]));
        assert!(!compare(&spec, only_a, &[]));
    }
}
