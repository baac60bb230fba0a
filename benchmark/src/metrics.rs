//! Names and units of every metric the benchmark prints. `BENCHMARK.json`
//! lists the same names in the same order (a unit test holds the two
//! together) and adds what only the contract needs: direction and bound.

use crate::shared::Json;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of the system sees; printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("ops_per_s", "1/s"),
    m("p50_us", "us"),
    m("p95_us", "us"),
    m("peak_rss_mb", "MB"),
    m("setup_s", "s"),
];

/// One layer (= crate) each; printed by every traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("btcsim.sim_blocks_per_s", "1/s"),
    m("btcsim.dataset_extract_ms", "ms"),
    m("core.artifact_load_ms", "ms"),
    m("core.extract_us_per_addr", "us"),
    m("core.compress_single_us_per_addr", "us"),
    m("core.compress_multi_us_per_addr", "us"),
    m("core.augment_us_per_addr", "us"),
    m("core.graph_tensors_us_per_slice", "us"),
    m("core.gfn_prepare_us_per_slice", "us"),
    m("core.gfn_embed_us_per_slice", "us"),
    m("core.head_us_per_addr", "us"),
    m("core.head_batch_us_per_seq", "us"),
    m("core.slices_per_addr", "count"),
    m("core.nodes_in_per_slice", "count"),
    m("core.nodes_out_per_slice", "count"),
    m("core.stage_share_multi", "ratio"),
    m("core.trace_coverage", "ratio"),
    m("core.allocs_per_addr", "count"),
    m("core.alloc_kb_per_addr", "KB"),
    m("core.inc_apply_tx_ns", "ns"),
    m("core.inc_rederive_us", "us"),
    m("graphalgo.centrality_us_per_slice", "us"),
    m("numnet.matmul_gflops", "GFLOP/s"),
    m("numnet.embed_allocs_per_slice", "count"),
    m("serve.solo_queue_wait_us", "us"),
    m("serve.queue_wait_us_per_req", "us"),
    m("serve.model_us_per_req", "us"),
    m("serve.mean_batch_size", "count"),
    m("serve.cache_hit_ratio", "ratio"),
    m("serve.dedup_ratio", "ratio"),
    m("serve.submit_us_per_req", "us"),
    m("serve.clone_us_per_req", "us"),
    m("serve.allocs_per_req", "count"),
    m("serve.p99_us", "us"),
    m("serve.lru_get_ns", "ns"),
    m("serve.lru_insert_evict_ns", "ns"),
    m("serve.invalidate_us", "us"),
    m("serve.rejected", "count"),
    m("serve.failed", "count"),
    m("serve.timed_out", "count"),
    m("serve.degraded", "count"),
    m("net.encode_ns_per_msg", "ns"),
    m("net.decode_ns_per_msg", "ns"),
    m("net.bytes_per_req", "B"),
    m("net.bytes_per_reply", "B"),
    m("net.connect_ms", "ms"),
    m("net.wire_added_us", "us"),
    m("net.p99_us", "us"),
    m("net.reconnects", "count"),
    m("net.shed", "count"),
    m("shard.route_ns_per_req", "ns"),
    m("shard.lane_skew", "ratio"),
    m("shard.batch_fill", "count"),
    m("stream.ingest_us_per_block", "us"),
    m("stream.ingest_ns_per_tx_app", "ns"),
    m("stream.allocs_per_tx_app", "count"),
    m("stream.rss_kb_per_addr", "KB"),
    m("stream.reclass_us_per_addr", "us"),
    m("stream.reclass_ms_per_tick", "ms"),
    m("stream.reclass_addrs_per_tick", "count"),
    m("stream.slices_per_reclass", "count"),
    m("stream.idle_tick_us", "us"),
    m("stream.coalesced_flips", "count"),
    m("stream.label_flips", "count"),
    m("stream.follow_vs_ingest", "ratio"),
    m("stream.journal_append_us_per_block", "us"),
    m("stream.journal_bytes_per_block", "B"),
    m("stream.journal_sync_ms", "ms"),
    m("stream.snapshot_write_ms", "ms"),
    m("stream.snapshot_kb_per_addr", "KB"),
    m("stream.restore_ms", "ms"),
    m("trace.overhead_ratio", "ratio"),
];

/// `BENCHMARK.json`, parsed: `agree` takes directions and bounds from it.
pub fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Metric values collected during one run, checked against a table when
/// rendered: a name outside the table or a table entry left unset is a bug
/// in the benchmark, caught before anything is printed.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        assert!(self.0.insert(name, value).is_none(), "{name} set twice");
    }

    /// `num / den`, or 0 where a probe did no work of this kind (a thin
    /// address set that never reaches the follower's `min_txs`, say).
    pub fn set_ratio(&mut self, name: &'static str, num: f64, den: f64) {
        self.set(name, if den == 0.0 { 0.0 } else { num / den });
    }

    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("{name} read before it was set"))
    }

    /// `{"name": {"value": v, "unit": u}, …}` in table order.
    pub fn render(&self, table: &[MetricDef]) -> Json {
        for name in self.0.keys() {
            assert!(
                table.iter().any(|d| d.name == *name),
                "{name} is not in the metric table"
            );
        }
        Json::obj(table.iter().map(|d| {
            let value = self.get(d.name);
            (
                d.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Workload;

    fn names_and_units(section: &Json) -> Vec<(String, String)> {
        section
            .as_arr()
            .expect("array of metrics")
            .iter()
            .map(|e| {
                (
                    e.get("name").and_then(Json::as_str).unwrap().to_string(),
                    e.get("unit").and_then(Json::as_str).unwrap().to_string(),
                )
            })
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    }

    #[test]
    fn contract_file_lists_exactly_the_metrics_the_binary_prints() {
        let c = contract();
        assert_eq!(
            names_and_units(c.get("end_to_end").unwrap()),
            table(END_TO_END)
        );
        assert_eq!(
            names_and_units(c.get("per_layer").unwrap()),
            table(PER_LAYER)
        );
    }

    #[test]
    fn contract_file_lists_exactly_the_contract_workloads() {
        let c = contract();
        let listed: Vec<&str> = c
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let built: Vec<&str> = Workload::CONTRACT.iter().map(|w| w.name()).collect();
        assert_eq!(listed, built);
    }

    #[test]
    fn contract_file_stays_inside_the_schema_limits() {
        let c = contract();
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} listed twice", d.name);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for e in c.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = e.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        let setup = c
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s listed");
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    }

    #[test]
    #[should_panic(expected = "read before it was set")]
    fn rendering_an_incomplete_set_is_refused() {
        let mut v = Values::default();
        v.set("ops_per_s", 1.0);
        v.render(END_TO_END);
    }
}
