//! Per-layer numbers for the stages inside `run_from_base`, read from
//! the spans and counters the flow already publishes through
//! `FlowOptions::obs`. The benchmark adds no span inside the program:
//! it only aggregates the published manifest.
//!
//! Span paths nest (`pareto/<scenario>/run_flow/finish3d/route/extract`),
//! so a stage is matched by its trailing path segments wherever it sits,
//! and a layer's *self* time is its spans' wall time minus the part
//! their direct child spans cover.

use crate::metrics::Metric;
use crate::stats::median;
use hetero3d::obs::Manifest;
use std::collections::BTreeMap;

/// Whether `path` names the stage `name`: equal, or ending in `/name`.
fn matches(path: &str, name: &str) -> bool {
    path == name
        || (path.len() > name.len()
            && path.ends_with(name)
            && path.as_bytes()[path.len() - name.len() - 1] == b'/')
}

/// Summed wall seconds of every span named `name`.
pub fn total_s(m: &Manifest, name: &str) -> f64 {
    m.spans
        .iter()
        .filter(|s| matches(&s.path, name))
        .map(|s| s.wall_ns as f64 / 1e9)
        .sum()
}

/// Summed self seconds of every span named `name`: its wall time minus
/// its direct children's.
pub fn self_s(m: &Manifest, name: &str) -> f64 {
    m.spans
        .iter()
        .filter(|s| matches(&s.path, name))
        .map(|parent| {
            let prefix = format!("{}/", parent.path);
            let children: u128 = m
                .spans
                .iter()
                .filter(|c| {
                    c.path
                        .strip_prefix(&prefix)
                        .is_some_and(|r| !r.contains('/'))
                })
                .map(|c| c.wall_ns)
                .sum();
            parent.wall_ns.saturating_sub(children) as f64 / 1e9
        })
        .sum()
}

/// Sum of the deterministic counter `name` across every scope.
pub fn counter(m: &Manifest, name: &str) -> u64 {
    m.counters
        .iter()
        .filter(|(k, _)| matches(k, name))
        .map(|(_, v)| v)
        .sum()
}

/// Sum of the performance-only counter `name` across every scope.
pub fn perf(m: &Manifest, name: &str) -> u64 {
    m.perf
        .iter()
        .filter(|(k, _)| matches(k, name))
        .map(|(_, v)| v)
        .sum()
}

/// What a long-lived collector recorded between two snapshots: spans,
/// counters and performance counters of `after` minus `before`.
pub fn since(after: &Manifest, before: &Manifest) -> Manifest {
    fn minus(after: &[(String, u64)], before: &[(String, u64)]) -> Vec<(String, u64)> {
        after
            .iter()
            .map(|(k, v)| {
                let b = before.iter().find(|(bk, _)| bk == k).map_or(0, |(_, b)| *b);
                (k.clone(), v - b)
            })
            .collect()
    }
    let spans = after
        .spans
        .iter()
        .map(|s| {
            let mut row = s.clone();
            if let Some(b) = before.span(&s.path) {
                row.calls -= b.calls;
                row.wall_ns -= b.wall_ns;
            }
            row
        })
        .collect();
    Manifest {
        spans,
        counters: minus(&after.counters, &before.counters),
        perf: minus(&after.perf, &before.perf),
        ..Manifest::default()
    }
}

/// Stages that do not depend on the sign-off corner: a stage-keyed
/// checkpoint could share them across the corners of one stacking style.
const CORNER_INVARIANT: [&str; 5] = ["partition", "tier_legalize", "route", "cts", "sizing"];

/// One flow-layer reading: metric name, value, unit.
type Reading = (&'static str, f64, &'static str);

/// One operation's flow-layer readings, in report order.
fn readings(m: &Manifest, scenarios: usize) -> Vec<Reading> {
    let hits = perf(m, "sta/cache_hits") as f64;
    let lookups = hits + perf(m, "sta/cache_misses") as f64;
    let run_flow = total_s(m, "run_flow");
    let invariant: f64 = CORNER_INVARIANT.iter().map(|s| total_s(m, s)).sum();
    let pseudo_runs = counter(m, "flow/pseudo3d_runs") as f64;
    vec![
        ("flow.pseudo3d_s", self_s(m, "pseudo3d"), "s"),
        ("flow.pseudo3d_runs", pseudo_runs, "count"),
        (
            "flow.pseudo3d_runs_per_scenario",
            pseudo_runs / scenarios.max(1) as f64,
            "ratio",
        ),
        (
            "flow.corner_invariant_share",
            if run_flow > 0.0 {
                invariant / run_flow
            } else {
                0.0
            },
            "ratio",
        ),
        ("place.global_place_s", total_s(m, "global_place"), "s"),
        ("place.legalize_s", total_s(m, "legalize"), "s"),
        ("place.refine_s", total_s(m, "refine_place"), "s"),
        (
            "place.legalize_moved_cells",
            counter(m, "legalize/moved_cells") as f64,
            "count",
        ),
        ("partition.fm_s", self_s(m, "partition"), "s"),
        (
            "partition.fm_moves",
            counter(m, "partition/fm_moves") as f64,
            "count",
        ),
        (
            "partition.fm_passes",
            counter(m, "partition/fm_passes") as f64,
            "count",
        ),
        (
            "partition.final_cut",
            counter(m, "partition/final_cut") as f64,
            "count",
        ),
        (
            "partition.eco_s",
            (total_s(m, "eco") - total_s(m, "eco_refinish")).max(0.0),
            "s",
        ),
        (
            "partition.eco_iterations",
            counter(m, "eco/iterations") as f64,
            "count",
        ),
        (
            "partition.eco_cells_moved",
            counter(m, "eco/cells_moved") as f64,
            "count",
        ),
        ("route.route_s", self_s(m, "route"), "s"),
        ("route.extract_s", total_s(m, "extract"), "s"),
        (
            "route.overflow_edges",
            counter(m, "route/overflow_edges") as f64,
            "count",
        ),
        ("route.mivs", counter(m, "route/mivs") as f64, "count"),
        ("cts.cts_s", total_s(m, "cts"), "s"),
        ("cts.buffers", counter(m, "cts/buffers") as f64, "count"),
        ("opt.sizing_s", total_s(m, "sizing"), "s"),
        ("sta.signoff_s", total_s(m, "sta_signoff"), "s"),
        ("sta.partition_sta_s", total_s(m, "partition/sta"), "s"),
        (
            "sta.propagated_evals",
            counter(m, "sta/propagated_evals") as f64,
            "count",
        ),
        (
            "sta.full_rebuilds",
            counter(m, "sta/full_rebuilds") as f64,
            "count",
        ),
        (
            "sta.incremental_updates",
            counter(m, "sta/incremental_updates") as f64,
            "count",
        ),
        (
            "sta.cache_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
    ]
}

/// Flow-layer metrics over `ops`, one `(input key, manifest)` per
/// operation: times and ratios are the median across operations. Counts
/// must repeat exactly across operations on the same input (a count
/// that does not is returned in the second vector); the reported count
/// is the mean over distinct inputs of each input's count.
pub fn flow_layers(
    ops: &[(String, Manifest)],
    scenarios: usize,
    per: &str,
) -> (Vec<Metric>, Vec<String>) {
    let all: Vec<(&str, Vec<Reading>)> = ops
        .iter()
        .map(|(key, m)| (key.as_str(), readings(m, scenarios)))
        .collect();
    let mut metrics = Vec::new();
    let mut unstable = Vec::new();
    let Some((_, first)) = all.first() else {
        return (metrics, unstable);
    };
    for (i, &(name, _, unit)) in first.iter().enumerate() {
        let value = if unit == "count" {
            let mut per_input: BTreeMap<&str, f64> = BTreeMap::new();
            for (key, r) in &all {
                let v = r[i].1;
                if *per_input.entry(key).or_insert(v) != v {
                    unstable.push(format!("{name} differs across operations on {key}"));
                }
            }
            per_input.values().sum::<f64>() / per_input.len() as f64
        } else {
            median(&all.iter().map(|(_, r)| r[i].1).collect::<Vec<_>>())
        };
        metrics.push(Metric::new(name, value, unit, per, ops.len()));
    }
    (metrics, unstable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero3d::obs::Obs;
    use std::time::Duration;

    #[test]
    fn stage_names_match_whole_trailing_segments() {
        assert!(matches("run_flow/finish3d/route", "route"));
        assert!(matches("route", "route"));
        assert!(matches("pareto/a/run_flow/partition/sta", "partition/sta"));
        assert!(!matches("run_flow/finish3d/tier_legalize", "legalize"));
        assert!(matches(
            "run_flow/finish3d/tier_legalize/legalize",
            "legalize"
        ));
        assert!(!matches("x/reroute", "route"));
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let obs = Obs::enabled();
        {
            let route = obs.span("run_flow").child("route");
            {
                let extract = route.child("extract");
                let _deep = extract.child("inner");
                std::thread::sleep(Duration::from_millis(5));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let m = obs.manifest();
        let own = self_s(&m, "route");
        let whole = total_s(&m, "route");
        let extract = total_s(&m, "extract");
        assert!((whole - extract - own).abs() < 1e-9);
        assert!(own >= 0.004 && extract >= 0.004);
    }

    #[test]
    fn counters_sum_across_scopes() {
        let obs = Obs::enabled();
        obs.counter_add("flow/pseudo3d_runs", 1);
        obs.scope("pareto/f2f-slow")
            .counter_add("flow/pseudo3d_runs", 2);
        obs.counter_add("other/flow/pseudo3d_runs_total", 9);
        assert_eq!(counter(&obs.manifest(), "flow/pseudo3d_runs"), 3);
    }
}
