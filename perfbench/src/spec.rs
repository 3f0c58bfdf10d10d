//! The names the runner reports under: workloads with the model each one
//! is trained from, and metrics with their units. `perfbench/SPEC.json`
//! records everything else about them (why each workload is there, its
//! loop, clients, rate ladder and p99 limit, and the prediction table); the
//! tests below keep this file, SPEC.json and BENCHMARK.json in step.

/// Distinct contracts streamed per `bulk_scan`/`trace_scan` pass.
pub const BULK_CONTRACTS: usize = 10_000;
/// Held-out contracts the `wallet_http` variants are built on.
pub const WALLET_POOL: usize = 2_000;
/// `chain_watch` template pool.
pub const CHAIN_TEMPLATES: usize = 7_000;
/// `chain_watch` Zipf skew over the template pool.
pub const CHAIN_SKEW: f64 = 1.1;

/// One workload: its name (`--workload`) and the detector spec its
/// snapshot is trained from.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name.
    pub name: &'static str,
    /// Detector spec.
    pub model: &'static str,
}

/// The workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "bulk_scan",
        model: "ensemble:rf+lgbm+catboost:vote=soft",
    },
    Workload {
        name: "trace_scan",
        model: "ensemble:rf+lgbm+catboost:vote=soft:features=hist+trace",
    },
    Workload {
        name: "wallet_http",
        model: "rf",
    },
    Workload {
        name: "chain_watch",
        model: "rf",
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics (name, unit), reported by untraced runs.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("rss_mb", "MiB"),
    ("contracts_per_s", "1/s"),
];

/// Per-layer metrics (name, unit), reported by traced runs.
pub const PER_LAYER: [(&str, &str); 23] = [
    ("evm.disasm_ns", "ns"),
    ("evm.explore_ns", "ns"),
    ("evm.explore_selectors", "count"),
    ("evm.out_of_budget_frac", "ratio"),
    ("evm.hex_decode_ns", "ns"),
    ("evm.keccak_ns", "ns"),
    ("features.hist_ns", "ns"),
    ("features.trace_ns", "ns"),
    ("ml.infer_ns", "ns"),
    ("models.score_ns", "ns"),
    ("models.restore_ms", "ms"),
    ("proto.decode_ns", "ns"),
    ("proto.render_ns", "ns"),
    ("http.parse_ns", "ns"),
    ("http.write_ns", "ns"),
    ("cache.lookup_ns", "ns"),
    ("cache.insert_ns", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("scheduler.batch_rows", "rows"),
    ("scheduler.wait_p50_ms", "ms"),
    ("scheduler.wait_p99_ms", "ms"),
    ("transport.overhead_p50_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = include_str!("../SPEC.json");
    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

    /// The one line of `json` that holds the entry named `name`.
    fn entry<'a>(json: &'a str, name: &str) -> Option<&'a str> {
        let tag = format!("\"name\": \"{name}\"");
        json.lines().find(|l| l.contains(&tag))
    }

    #[test]
    fn every_metric_has_one_name_and_unit_everywhere() {
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let named = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                SPEC.contains(&named),
                "{name} ({unit}) missing from SPEC.json"
            );
            assert!(
                BENCHMARK.contains(&named),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn spec_describes_every_workload_and_benchmark_lists_the_gated_ones() {
        let mut gated = 0;
        for w in WORKLOADS {
            let line = entry(SPEC, w.name).unwrap_or_else(|| panic!("{} not in SPEC.json", w.name));
            let model = format!("\"model\": \"{}\"", w.model);
            assert!(
                line.contains(&model),
                "{}: SPEC.json has another model",
                w.name
            );
            let is_gated = line.contains("\"gated\": true");
            assert_eq!(
                entry(BENCHMARK, w.name).is_some(),
                is_gated,
                "{} is gated in SPEC.json exactly when BENCHMARK.json lists it",
                w.name
            );
            gated += usize::from(is_gated);
        }
        let names = BENCHMARK.matches("\"name\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + gated);
    }
}
