//! Metric definitions, the failure tally, and the JSON result line.

use crate::probes::Probes;
use crate::trace::PassTotals;
use crate::workloads::Counts;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A metric definition: name, unit, and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when higher values are better.
    pub higher: bool,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Def {
    Def {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Def {
    Def {
        name,
        unit,
        higher,
        bound: None,
    }
}

/// Metrics of every untraced run (`--trace 0`), on every workload.
pub const END_TO_END: [Def; 3] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("programs_per_s", "1/s", true, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.25),
];

/// Metrics of every traced run (`--trace 1`), on every workload. A layer
/// the workload never calls reports 0.
pub const PER_LAYER: [Def; 42] = [
    layer("minic.parse_ms", "ms", false),
    layer("minic.sema_ms", "ms", false),
    layer("minic.normalize_ms", "ms", false),
    layer("cfgir.build_ms", "ms", false),
    layer("cfgir.canon_ms", "ms", false),
    layer("dataflow.points_to_ms", "ms", false),
    layer("dataflow.mod_ref_ms", "ms", false),
    layer("dataflow.defuse_ms", "ms", false),
    layer("dataflow.taint_ms", "ms", false),
    layer("closer.transform_ms", "ms", false),
    layer("closer.refine_cex_ms", "ms", false),
    layer("closer.overhead_ms", "ms", false),
    layer("cfgir.nodes", "count", false),
    layer("dataflow.defuse_arcs", "count", false),
    layer("closer.toss_sites", "count", false),
    layer("verisoft.explore_ms", "ms", false),
    layer("verisoft.states", "count", false),
    layer("verisoft.transitions", "count", false),
    layer("verisoft.bytes_per_state", "B", false),
    layer("state.interner_entries", "count", false),
    layer("store.batch_items_per_op", "count", true),
    layer("store.spilled_entries", "count", false),
    layer("store.segments", "count", false),
    layer("store.prefilter_screen_ratio", "ratio", true),
    layer("frontier.overlap_ratio", "ratio", true),
    layer("checkpoint.count", "count", false),
    layer("por.proviso_fallbacks", "count", false),
    layer("spill.disk_bytes", "B", false),
    layer("frontier.parallel_efficiency", "ratio", true),
    layer("interp.successors_ns", "ns", false),
    layer("state.fingerprint_ns", "ns", false),
    layer("state.intern_ns", "ns", false),
    layer("store.insert_ns", "ns", false),
    layer("state.encode_ns", "ns", false),
    layer("por.persistent_set_ns", "ns", false),
    layer("switchsim.generate_us", "us", false),
    layer("fuzz.close_ms", "ms", false),
    layer("fuzz.cross_check_ms", "ms", false),
    layer("fuzz.refine_leg_ms", "ms", false),
    layer("fuzz.explore_runs", "count", true),
    layer("fuzz.too_big", "count", false),
    layer("trace.overhead_pct", "%", false),
];

/// A measured value of a named metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name (one of [`END_TO_END`] or [`PER_LAYER`]).
    pub name: &'static str,
    /// Value in the metric's unit.
    pub value: f64,
}

impl Metric {
    /// A measured value.
    pub fn new(name: &'static str, value: f64) -> Metric {
        Metric { name, value }
    }
}

/// Operations attempted, failures, and the exact-repeat reference counts.
pub struct Tally {
    attempted: u64,
    failures: Vec<String>,
    reference: Vec<Option<Counts>>,
}

impl Tally {
    /// An empty tally for `inputs` inputs.
    pub fn new(inputs: usize) -> Tally {
        Tally {
            attempted: 0,
            failures: Vec::new(),
            reference: vec![None; inputs],
        }
    }

    /// Record one operation on input `i`. Its counts must equal those of
    /// the input's first operation.
    pub fn record(&mut self, i: usize, label: &str, result: Result<Counts, String>) {
        self.attempted += 1;
        match (result, &self.reference[i]) {
            (Err(e), _) => self.failures.push(format!("{label}: {e}")),
            (Ok(c), None) => self.reference[i] = Some(c),
            (Ok(c), Some(r)) if c != *r => self.failures.push(format!(
                "{label}: counts {c:?} differ from the first pass's {r:?}"
            )),
            (Ok(_), Some(_)) => {}
        }
    }

    /// Record an operation that has no counts to repeat.
    pub fn record_unrepeated(&mut self, label: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(format!("{label}: {e}"));
        }
    }

    /// Every reference count summed over the inputs.
    pub fn count_totals(&self) -> Counts {
        let mut out = Counts::new();
        for c in self.reference.iter().flatten() {
            for (k, v) in c {
                *out.entry(k).or_default() += v;
            }
        }
        out
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// What failed.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// The per-layer metrics of a traced run from its span totals. A layer's
/// time is the median over the traced passes of the pass's summed span
/// time; a layer that ran only during set-up (explore-spill's closing,
/// input generation) reports its set-up total.
pub fn layer_metrics(
    totals: &BTreeMap<u32, PassTotals>,
    setup_pass: u32,
    overhead_pct: f64,
    parallel_efficiency: f64,
    probe: &Probes,
) -> Vec<Metric> {
    let empty = PassTotals::default();
    let setup = totals.get(&setup_pass).unwrap_or(&empty);
    let traced: Vec<&PassTotals> = totals
        .iter()
        .filter(|(p, _)| **p != setup_pass)
        .map(|(_, t)| t)
        .collect();
    let time_ms = |name: &str, self_time: bool| -> f64 {
        let pick = |t: &PassTotals| {
            t.time.get(name).map_or(0.0, |d| {
                if self_time { d.1 } else { d.0 }.as_secs_f64() * 1e3
            })
        };
        let per_pass: Vec<f64> = traced.iter().map(|t| pick(t)).collect();
        match per_pass.is_empty() {
            false if per_pass.iter().any(|v| *v > 0.0) => crate::stats::median(&per_pass),
            _ => pick(setup),
        }
    };
    let count = |name: &str| -> f64 {
        traced
            .last()
            .and_then(|t| t.counts.get(name))
            .or_else(|| setup.counts.get(name))
            .map_or(0.0, |v| *v as f64)
    };
    let ratio = |num: &str, den: &str| {
        let d = count(den);
        if d > 0.0 {
            count(num) / d
        } else {
            0.0
        }
    };
    let t = |name| time_ms(name, false);
    let m = Metric::new;
    vec![
        m("minic.parse_ms", t("minic.parse")),
        m("minic.sema_ms", t("minic.sema")),
        m("minic.normalize_ms", t("minic.normalize")),
        m("cfgir.build_ms", t("cfgir.build")),
        m("cfgir.canon_ms", t("cfgir.canon")),
        m("dataflow.points_to_ms", t("dataflow.points_to")),
        m("dataflow.mod_ref_ms", t("dataflow.mod_ref")),
        m("dataflow.defuse_ms", t("dataflow.defuse")),
        m("dataflow.taint_ms", t("dataflow.taint")),
        m("closer.transform_ms", t("closer.transform")),
        m("closer.refine_cex_ms", t("closer.refine_cex")),
        m("closer.overhead_ms", time_ms("closer.close", true)),
        m("cfgir.nodes", count("cfgir.nodes")),
        m("dataflow.defuse_arcs", count("dataflow.defuse_arcs")),
        m("closer.toss_sites", count("closer.toss_sites")),
        m("verisoft.explore_ms", t("verisoft.explore")),
        m("verisoft.states", count("verisoft.states")),
        m("verisoft.transitions", count("verisoft.transitions")),
        m(
            "verisoft.bytes_per_state",
            ratio("verisoft.visited_bytes", "verisoft.visited_states"),
        ),
        m("state.interner_entries", count("state.interner_entries")),
        m(
            "store.batch_items_per_op",
            ratio("store.batch_items", "store.batch_ops"),
        ),
        m("store.spilled_entries", count("store.spilled_entries")),
        m("store.segments", count("store.segments")),
        m(
            "store.prefilter_screen_ratio",
            ratio("store.prefilter_hits", "store.prefilter_probes"),
        ),
        m(
            "frontier.overlap_ratio",
            ratio("frontier.overlapped_chunks", "frontier.chunks"),
        ),
        m("checkpoint.count", count("checkpoint.count")),
        m("por.proviso_fallbacks", count("por.proviso_fallbacks")),
        m("spill.disk_bytes", count("spill.disk_bytes")),
        m("frontier.parallel_efficiency", parallel_efficiency),
        m("interp.successors_ns", probe.successors_ns),
        m("state.fingerprint_ns", probe.fingerprint_ns),
        m("state.intern_ns", probe.intern_ns),
        m("store.insert_ns", probe.insert_ns),
        m("state.encode_ns", probe.encode_ns),
        m("por.persistent_set_ns", probe.persistent_set_ns),
        m("switchsim.generate_us", t("switchsim.generate") * 1e3),
        m("fuzz.close_ms", t("fuzz.close")),
        m("fuzz.cross_check_ms", t("fuzz.cross_check")),
        m("fuzz.refine_leg_ms", t("fuzz.refine_leg")),
        m("fuzz.explore_runs", count("fuzz.explore_runs")),
        m("fuzz.too_big", count("fuzz.too_big")),
        m("trace.overhead_pct", overhead_pct),
    ]
}

/// Print each metric on its own line and return the JSON result line.
/// `metrics` must hold exactly the metrics of `defs`, in order.
///
/// # Errors
///
/// A missing, extra or non-finite metric.
pub fn result_json(tally: &Tally, defs: &[Def], metrics: &[Metric]) -> Result<String, String> {
    let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = defs.iter().map(|d| d.name).collect();
    if names != want {
        return Err(format!("metrics {names:?} do not match the list {want:?}"));
    }
    let mut json = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed() == 0,
        tally.attempted(),
        tally.failed()
    );
    for (i, (m, d)) in metrics.iter().zip(defs).enumerate() {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        println!("metric {} = {} {}", m.name, m.value, d.unit);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, d.unit
        );
    }
    json.push_str("}}");
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name {:?}", d.name);
            assert!(
                !d.unit.is_empty()
                    && d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                d.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound.is_some_and(|b| b <= 0.25)));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher));
    }

    #[test]
    fn emitted_layer_metrics_match_the_list() {
        let metrics = layer_metrics(&BTreeMap::new(), 0, 1.0, 0.5, &Probes::default());
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
        assert_eq!(names, want);
        assert!(names.iter().all(|n| valid_name(n)));
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let better = if d.higher { "higher" } else { "lower" };
            let entry = match d.bound {
                Some(b) => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {b}}}",
                    d.name, d.unit
                ),
                None => format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                    d.name, d.unit
                ),
            };
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = crate::inputs::WORKLOADS
            .iter()
            .filter(|(name, _)| json.contains(&format!("{{\"name\": \"{name}\", \"why\"")))
            .count();
        assert_eq!(
            workloads,
            crate::inputs::WORKLOADS.len(),
            "BENCHMARK.json lists every workload"
        );
        let entries = json.matches("\"name\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut tally = Tally::new(1);
        tally.record(0, "p", Ok(Counts::from([("states", 3)])));
        tally.record(0, "p", Ok(Counts::from([("states", 4)])));
        let metrics: Vec<Metric> = END_TO_END
            .iter()
            .map(|d| Metric::new(d.name, 1.5))
            .collect();
        let line = result_json(&tally, &END_TO_END, &metrics).expect("json");
        assert!(line
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(result_json(&tally, &END_TO_END, &metrics[1..]).is_err());
    }
}
