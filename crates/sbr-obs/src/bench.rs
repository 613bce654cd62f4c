//! The `sbr-bench/v4` benchmark record format.
//!
//! A benchmark configuration reports what it cost and what that cost
//! bought, so a record carries exactly four members:
//! `{experiment, params, rows, counters}`. It is built from a
//! [`Snapshot`]: every histogram becomes one [`BenchRow`] (count, sum,
//! quantiles and max, in the histogram's own unit) and every counter and
//! gauge becomes one entry of the flat `counters` map. Values a benchmark
//! measures itself (control runs, quality scores) go through the same
//! recorder first, so the format has no per-experiment members and its
//! readers (`sbr report`, `sbr perf diff`) treat every record alike.

use crate::json::{self, Value};
use crate::snapshot::{MetricValue, Snapshot};

/// Schema tag of a benchmark artifact. Earlier `sbr-bench/*` versions are
/// rejected by [`from_json`].
pub const BENCH_SCHEMA: &str = "sbr-bench/v4";

/// One histogram of a record, in the histogram's own unit (`*_ns` rows
/// are nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRow {
    /// Histogram name, e.g. `sbr_core.search.run_ns`.
    pub name: String,
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Median estimate.
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Largest sample.
    pub max: u64,
}

/// One benchmark configuration: its params, one row per histogram and a
/// flat map of every counter and gauge.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Experiment name, e.g. `"fig5"`.
    pub experiment: String,
    /// Configuration inputs; together with `experiment` they identify the
    /// record across runs (see [`BenchRecord::key`]), so measured outputs
    /// belong in `counters`, never here.
    pub params: Vec<(String, f64)>,
    /// One row per histogram, ordered by name.
    pub rows: Vec<BenchRow>,
    /// Counter and gauge values by name, ordered by name.
    pub counters: Vec<(String, f64)>,
}

impl BenchRecord {
    /// Reduce `snap` to a record for `experiment` under `params`.
    pub fn from_snapshot(experiment: &str, params: &[(&str, f64)], snap: &Snapshot) -> Self {
        let mut rows = Vec::new();
        let mut counters = Vec::new();
        for (name, metric) in &snap.metrics {
            match metric {
                MetricValue::Counter(n) => counters.push((name.clone(), *n as f64)),
                MetricValue::Gauge(g) => counters.push((name.clone(), *g)),
                MetricValue::Histogram(h) => rows.push(BenchRow {
                    name: name.clone(),
                    count: h.count,
                    sum: h.sum,
                    p50: h.p50(),
                    p90: h.p90(),
                    p99: h.p99(),
                    max: h.max,
                }),
            }
        }
        BenchRecord {
            experiment: experiment.to_string(),
            params: params.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            rows,
            counters,
        }
    }

    /// The experiment name plus its sorted params: the same configuration
    /// lines up across two runs regardless of record order.
    pub fn key(&self) -> String {
        let mut params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={}", json::format_num(*v)))
            .collect();
        params.sort();
        std::iter::once(self.experiment.clone())
            .chain(params)
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The row named `name`.
    pub fn row(&self, name: &str) -> Option<&BenchRow> {
        self.rows.iter().find(|r| r.name == name)
    }

    /// The counter or gauge named `name`.
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    fn to_json_value(&self) -> Value {
        let map = |kv: &[(String, f64)]| {
            Value::Obj(
                kv.iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            )
        };
        let rows = self
            .rows
            .iter()
            .map(|r| {
                let n = |v: u64| Value::Num(v as f64);
                Value::Obj(vec![
                    ("name".into(), Value::Str(r.name.clone())),
                    ("count".into(), n(r.count)),
                    ("sum".into(), n(r.sum)),
                    ("p50".into(), n(r.p50)),
                    ("p90".into(), n(r.p90)),
                    ("p99".into(), n(r.p99)),
                    ("max".into(), n(r.max)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("experiment".into(), Value::Str(self.experiment.clone())),
            ("params".into(), map(&self.params)),
            ("rows".into(), Value::Arr(rows)),
            ("counters".into(), map(&self.counters)),
        ])
    }

    fn from_json_value(v: &Value) -> Result<Self, String> {
        let experiment = v
            .get("experiment")
            .and_then(Value::as_str)
            .ok_or("record has no experiment")?
            .to_string();
        // Non-finite numbers were written as `null`; they read back as NaN.
        let map = |member: &str| -> Result<Vec<(String, f64)>, String> {
            let obj = v
                .get(member)
                .and_then(Value::as_obj)
                .ok_or_else(|| format!("record '{experiment}' has no {member} object"))?;
            obj.iter()
                .map(|(k, n)| match n {
                    Value::Num(x) => Ok((k.clone(), *x)),
                    Value::Null => Ok((k.clone(), f64::NAN)),
                    _ => Err(format!(
                        "record '{experiment}': {member}.{k} is not a number"
                    )),
                })
                .collect()
        };
        let rows = v
            .get("rows")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("record '{experiment}' has no rows array"))?
            .iter()
            .map(|r| {
                let name = r
                    .get("name")
                    .and_then(Value::as_str)
                    .ok_or_else(|| format!("record '{experiment}' has a row without a name"))?;
                let field = |k: &str| {
                    r.get(k)
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("record '{experiment}': row '{name}' has no {k}"))
                };
                Ok(BenchRow {
                    name: name.to_string(),
                    count: field("count")?,
                    sum: field("sum")?,
                    p50: field("p50")?,
                    p90: field("p90")?,
                    p99: field("p99")?,
                    max: field("max")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(BenchRecord {
            params: map("params")?,
            counters: map("counters")?,
            rows,
            experiment,
        })
    }
}

/// Serialize `records` as a `sbr-bench/v4` document, one record per line.
/// Non-finite numbers become `null`.
pub fn to_json(records: &[BenchRecord]) -> String {
    let lines: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.to_json_value()))
        .collect();
    format!(
        "{{\n  \"schema\": {},\n  \"records\": [\n{}\n  ]\n}}\n",
        json::escape(BENCH_SCHEMA),
        lines.join(",\n")
    )
}

/// Parse a document written by [`to_json`]. Any other schema — including
/// the retired `sbr-bench/v1`–`v3` — is an error.
pub fn from_json(text: &str) -> Result<Vec<BenchRecord>, String> {
    let v = json::parse(text)?;
    match v.get("schema").and_then(Value::as_str).unwrap_or("") {
        BENCH_SCHEMA => {}
        s if s.starts_with("sbr-bench/") => {
            return Err(format!(
                "unsupported schema '{s}' (this build reads {BENCH_SCHEMA})"
            ))
        }
        s => return Err(format!("not a benchmark artifact (schema '{s}')")),
    }
    v.get("records")
        .and_then(Value::as_arr)
        .ok_or("no records array")?
        .iter()
        .map(BenchRecord::from_json_value)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetricsRecorder, Recorder};

    #[test]
    fn snapshot_splits_into_rows_and_counters() {
        let rec = MetricsRecorder::new();
        rec.counter("a.hits").add(3);
        rec.gauge("a.bytes").set(1.5);
        rec.histogram("a.run_ns").record(40);
        rec.histogram("a.run_ns").record(60);
        let r = BenchRecord::from_snapshot("x", &[("n", 2.0), ("m", 0.5)], &rec.snapshot());
        assert_eq!(
            r.counters,
            vec![("a.bytes".into(), 1.5), ("a.hits".into(), 3.0)]
        );
        let row = r.row("a.run_ns").expect("histogram row");
        assert_eq!((row.count, row.sum, row.max), (2, 100, 60));
        assert_eq!(r.key(), "x m=0.5 n=2");
        assert_eq!(
            from_json(&to_json(std::slice::from_ref(&r))).unwrap(),
            vec![r]
        );
    }

    #[test]
    fn other_schemas_are_rejected() {
        let e = from_json("{\"schema\": \"sbr-bench/v3\", \"records\": []}").unwrap_err();
        assert!(e.contains("unsupported schema 'sbr-bench/v3'"), "{e}");
        let e = from_json("{\"schema\": \"sbr-obs/v2\", \"metrics\": {}}").unwrap_err();
        assert!(e.contains("not a benchmark artifact"), "{e}");
        assert!(from_json("{\"schema\": \"sbr-bench/v4\"}").is_err());
    }
}
