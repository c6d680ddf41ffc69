//! `flow_scale`: one heterogeneous 3-D implementation of a ~153k-cell
//! `scale_netlist` at 0.5 GHz per operation, each on a fresh
//! `FlowSession`, so every operation pays the pseudo-3-D stage as a new
//! design does. Nothing is cached or served: the bypass workload for
//! cache, serve and router changes.

use crate::common::{
    churn_bytes, closed_loop, properties, repeated_setup, timed, Args, Op, Pass, Report,
    FLOW_THREADS,
};
use crate::metrics::Metric;
use crate::reference::{line, Digest, References};
use crate::stats::median;
use crate::trace;
use hetero3d::cost::CostModel;
use hetero3d::flow::{Config, FlowOptions, FlowSession, Implementation, PpacSummary};
use hetero3d::json::ToJson;
use hetero3d::netgen::scale_netlist;
use hetero3d::netlist::Netlist;
use hetero3d::obs::{Manifest, Obs};

const NAME: &str = "flow_scale";
const TARGET_CELLS: usize = 125_000;
const FREQUENCY_GHZ: f64 = 0.5;
/// Netlist seeds the workload seed picks from.
const POOL: [u64; 4] = [1, 2, 3, 4];
/// Flows every pass runs at least (a flow takes ~4 s on a 2-core host,
/// so a 25 s pass runs five or six).
const MIN_FLOWS: usize = 4;

fn netlist_seed(seed: u64) -> u64 {
    POOL[(seed % POOL.len() as u64) as usize]
}

fn options(obs: Obs) -> FlowOptions {
    FlowOptions {
        threads: FLOW_THREADS,
        obs,
        ..FlowOptions::default()
    }
}

/// The output bits the reference pins: sign-off WNS/TNS and the PPAC
/// roll-up as rendered on the wire.
fn digest(imp: &Implementation) -> Digest {
    let ppac = PpacSummary::from(&imp.ppac(&CostModel::default()));
    Digest::default()
        .f64(imp.sta.wns)
        .f64(imp.sta.tns)
        .str(&ppac.to_json().render())
}

/// One operation: session build (base preparation) plus the run.
/// Returns the implementation and the build's seconds.
fn implement(netlist: &Netlist, obs: Obs) -> Result<(Implementation, f64), String> {
    let (session, build_s) = timed(|| FlowSession::builder(netlist).options(options(obs)).build());
    let session = session.map_err(|e| e.to_string())?;
    let imp = session
        .run(Config::Hetero3d, FREQUENCY_GHZ)
        .map_err(|e| e.to_string())?;
    Ok((imp, build_s))
}

/// Per-operation telemetry a traced pass keeps.
#[derive(Default)]
struct Traced {
    manifests: Vec<(String, Manifest)>,
    build_s: Vec<f64>,
    churn_mb: Vec<f64>,
}

fn measure(
    netlist: &Netlist,
    key: &str,
    refs: &References,
    seconds: f64,
    mut traced: Option<&mut Traced>,
) -> Pass {
    let cells = netlist.cell_count() as f64;
    closed_loop(seconds, MIN_FLOWS, |_| {
        let obs = if traced.is_some() {
            Obs::enabled()
        } else {
            Obs::disabled()
        };
        let churn0 = churn_bytes();
        let (result, secs) = timed(|| implement(netlist, obs.clone()));
        if let Some(t) = traced.as_deref_mut() {
            t.manifests.push((key.to_string(), obs.manifest()));
            t.churn_mb
                .push((churn_bytes() - churn0) as f64 / (1024.0 * 1024.0));
            if let Ok((_, build_s)) = &result {
                t.build_s.push(*build_s);
            }
        }
        Op {
            result_waits_ms: vec![secs * 1e3],
            work: cells,
            check: result.and_then(|(imp, _)| {
                refs.check(NAME, key, digest(&imp))
                    .map_err(|m| m.to_string())
            }),
        }
    })
}

pub fn run(args: &Args, refs: &References) -> Report {
    let seed = netlist_seed(args.seed);
    let key = format!("netlist_seed={seed}");
    let (netlist, setup_s) = repeated_setup(|| scale_netlist(TARGET_CELLS, seed));
    let pass = measure(&netlist, &key, refs, args.pass_seconds(), None);
    let cells = netlist.cell_count();
    // The traced pass generates its own copy; do not hold two.
    drop(netlist);
    let mut report = Report {
        setup_s,
        work_unit: "cells",
        min_samples: MIN_FLOWS,
        op: "flow (session build + Hetero3d run)",
        named: vec![
            Metric::new(
                "flow_cells_per_s",
                pass.work_per_s(),
                "cells/s",
                format!("{cells} cells x {} flows", pass.attempted),
                pass.latencies_ms.len(),
            ),
            Metric::new(
                "peak_heap_mb",
                pass.peak_heap_mb,
                "MiB",
                "live-heap high-water mark",
                1,
            ),
        ],
        properties: [
            vec![Metric::new(
                "cells",
                cells as f64,
                "count",
                "scale_netlist(125000)",
                1,
            )],
            properties(
                (0.0, "fresh session per flow: nothing is reused".into()),
                (1.0, "one run per pseudo-3-D checkpoint".into()),
                (1, "one design".into()),
                0,
            ),
        ]
        .concat(),
        pass,
        ..Report::default()
    };
    if args.trace {
        let (traced_netlist, traced_setup_s) = timed(|| scale_netlist(TARGET_CELLS, seed));
        let (_, topology_s) = timed(|| traced_netlist.topology());
        let mut t = Traced::default();
        let traced_pass = measure(
            &traced_netlist,
            &key,
            refs,
            args.pass_seconds(),
            Some(&mut t),
        );
        let (mut layers, unstable) = trace::flow_layers(&t.manifests, 1, "per flow");
        layers.extend([
            Metric::new(
                "netgen.generate_s",
                median(&report.setup_s),
                "s",
                "scale_netlist, median of set-ups",
                report.setup_s.len(),
            ),
            Metric::new(
                "netlist.topology_s",
                topology_s,
                "s",
                "Netlist::topology",
                1,
            ),
            Metric::new(
                "flow.prepare_base_s",
                median(&t.build_s),
                "s",
                "FlowSessionBuilder::build per flow",
                t.build_s.len(),
            ),
            Metric::new(
                "par.threads_resolved",
                hetero3d::par::resolve(FLOW_THREADS) as f64,
                "count",
                "m3d_par::resolve(FlowOptions::threads)",
                1,
            ),
            Metric::new(
                "alloc.churn_mb",
                median(&t.churn_mb),
                "MiB",
                "allocated per flow",
                t.churn_mb.len(),
            ),
        ]);
        for u in unstable {
            report.pass.fail(u);
        }
        report.layers = layers;
        report.traced = Some((traced_setup_s, traced_pass));
    }
    report
}

/// Reference lines for every pool netlist.
pub fn record() -> Vec<String> {
    POOL.iter()
        .map(|&seed| {
            let netlist = scale_netlist(TARGET_CELLS, seed);
            let (imp, _) = implement(&netlist, Obs::disabled()).expect("reference flow");
            line(NAME, &format!("netlist_seed={seed}"), digest(&imp))
        })
        .collect()
}
