//! What one run reports: operations attempted and failed, the problems
//! found, and every metric with its unit and sample count.

use std::collections::BTreeMap;

/// End-to-end metrics and units, printed with `--trace 0`; the same list
/// as BENCHMARK.json's `end_to_end`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("goodput_frac", "frac"),
];

/// Per-layer metrics and units, printed with `--trace 1`; the same list as
/// BENCHMARK.json's `per_layer`. A layer the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("datasets.parse_s", "s"),
    ("datasets.parse_mb_per_s", "MB/s"),
    ("knn.rank_s", "s"),
    ("knn.distance_s", "s"),
    ("knn.sort_s", "s"),
    ("knn.distance_gflop_per_s", "GFLOP/s"),
    ("core.recurrence_s", "s"),
    ("numerics.fold_s", "s"),
    ("numerics.deposits", "count"),
    ("core.mc_s", "s"),
    ("core.mc.perms", "count"),
    ("parallel.utilization", "frac"),
    ("parallel.steals", "count"),
    ("core.resident.load_s", "s"),
    ("core.resident.what_if_s", "s"),
    ("core.resident.apply_s", "s"),
    ("serve.stream_rss_mb", "MB"),
    ("serve.server_p50_us", "us"),
    ("serve.transport_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.batch_mean", "count"),
    ("serve.busy_refusals", "count"),
    ("serve.whatif_hit_ratio", "frac"),
    ("bench.generator_lag_ms", "ms"),
    ("bench.backlog_growth", "count"),
    ("runtime.plan_s", "s"),
    ("runtime.first_claim_s", "s"),
    ("runtime.chunk_s", "s"),
    ("runtime.merge_s", "s"),
    ("runtime.workers_spawned", "count"),
    ("runtime.lease_expiries", "count"),
    ("cli.write_s", "s"),
    ("cli.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("whatif_p50_ms", "ms"),
    ("whatif_tail_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("pairs_per_s", "1/s"),
    ("perms_per_s", "1/s"),
    ("error_rate", "frac"),
];

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: BTreeMap<&'static str, Metric>,
}

impl Report {
    /// Counts one operation; a failure is recorded and yields `None`.
    pub fn attempt<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
                None
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    /// The human-readable table (standard error).
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, m) in &self.metrics {
            out.push_str(&format!(
                "  {name:<28} {:>16.6} {:<8} n = {}\n",
                m.value, m.unit, m.samples
            ));
        }
        for p in &self.problems {
            out.push_str(&format!("  FAILED: {p}\n"));
        }
        out
    }

    /// The one-line JSON result over `names`; `Err` names a metric missing
    /// or not finite (a bug in the workload, never printed as a result).
    pub fn json(
        &self,
        names: &[(&'static str, &'static str)],
        zero_if_absent: bool,
    ) -> Result<String, String> {
        let mut fields = Vec::new();
        for &(name, unit) in names {
            let m = match (self.metrics.get(name), zero_if_absent) {
                (Some(m), _) => *m,
                (None, true) => Metric {
                    value: 0.0,
                    unit,
                    samples: 0,
                },
                (None, false) => return Err(format!("metric {name} was not measured")),
            };
            if !m.value.is_finite() || m.unit != unit {
                return Err(format!("metric {name} is {} {}", m.value, m.unit));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knnshap_obs::json::{parse, Value};

    fn listed(key: &str) -> Vec<(String, String)> {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let Some(Value::Arr(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| {
                    m.get(k)
                        .and_then(Value::as_str)
                        .expect("string field")
                        .to_string()
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn json_line_has_the_contract_keys_and_refuses_gaps() {
        let mut rep = Report::default();
        rep.attempt(Ok::<_, String>(()));
        rep.attempt(Err::<(), _>("boom".to_string()));
        for (name, unit) in END_TO_END {
            rep.set(name, 1.5, unit, 3);
        }
        let line = rep.json(&END_TO_END, false).unwrap();
        let v = parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
        // Per-layer metrics a workload never reaches read 0; a missing
        // end-to-end metric is an error, never a result.
        assert!(rep.json(&PER_LAYER, true).is_ok());
        rep.metrics.remove("wall_s");
        assert!(rep.json(&END_TO_END, false).is_err());
    }
}
