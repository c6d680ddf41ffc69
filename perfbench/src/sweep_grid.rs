//! `sweep_grid`: one `FlowSession::pareto` per operation for the
//! heterogeneous configuration over {monolithic, f2f} × {slow, typical,
//! fast} × 3 frequencies (0.8–1.2 GHz) — 18 points sharing 6 scenario
//! checkpoints — on AES at scale 0.3, fresh session per operation.
//! Many small cache-resident flows: checkpoint reuse, `m3d-par` fan-out
//! and the sign-off/ECO tails dominate.
//!
//! One operation is a round: one sweep of each pool design, in an order
//! the workload seed picks, so every run sweeps each design equally
//! often and the seed moves only the order.

use crate::common::{
    churn_bytes, closed_loop, properties, repeated_setup, timed, Args, Op, Pass, Report,
    FLOW_THREADS,
};
use crate::loadgen::balanced_order;
use crate::metrics::Metric;
use crate::reference::{line, Digest, References};
use crate::stats::median;
use crate::trace;
use hetero3d::cost::CostModel;
use hetero3d::flow::{
    Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, FlowSession, NetlistSpec,
    ParetoSummary, Proto,
};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Netlist;
use hetero3d::obs::{Manifest, Obs};
use hetero3d::serve::{decode_request, encode_line, Response};
use hetero3d::tech::{Corner, StackingStyle};

const NAME: &str = "sweep_grid";
const SCALE: f64 = 0.3;
const FREQ_MIN_GHZ: f64 = 0.8;
const FREQ_MAX_GHZ: f64 = 1.2;
const FREQ_STEPS: usize = 3;
/// AES generator seeds every round sweeps, in a seeded order. AES-0.3
/// designs differ in sweep cost by up to ~15 % (seed 1 is the cheapest,
/// seed 2 the dearest of seeds 1–4); these two cost the same within the
/// run-to-run noise, so one sweep is one latency sample whichever
/// design it swept.
const POOL: [u64; 2] = [3, 4];
/// Rounds every pass runs at least (a round takes 4–7 s on a 2-core
/// host): eight sweeps, so the tail is p75 on every run.
const MIN_ROUNDS: usize = 4;

fn scenarios() -> usize {
    StackingStyle::ALL.len() * Corner::ALL.len()
}

fn spec(generator_seed: u64) -> NetlistSpec {
    NetlistSpec {
        benchmark: Benchmark::Aes,
        scale: SCALE,
        seed: generator_seed,
    }
}

fn ref_key(spec: &NetlistSpec) -> String {
    format!("aes-{SCALE}-seed={}", spec.seed)
}

fn options(obs: Obs) -> FlowOptions {
    FlowOptions {
        threads: FLOW_THREADS,
        obs,
        ..FlowOptions::default()
    }
}

/// Every point's exact metric bits and its frontier flag, in sweep
/// order.
fn digest(summary: &ParetoSummary) -> Digest {
    summary.points.iter().fold(Digest::default(), |d, p| {
        d.str(&p.stacking.to_string())
            .str(&p.corner.to_string())
            .f64(p.frequency_ghz)
            .f64(p.total_power_mw)
            .f64(p.effective_delay_ns)
            .f64(p.die_cost_uc)
            .f64(p.pdp_pj)
            .f64(p.ppc)
            .f64(p.wns_ns)
            .bytes(&[u8::from(p.timing_met), u8::from(p.on_frontier)])
    })
}

fn sweep(netlist: &Netlist, obs: Obs) -> Result<(ParetoSummary, f64), String> {
    let (session, build_s) = timed(|| FlowSession::builder(netlist).options(options(obs)).build());
    let summary = session
        .map_err(|e| e.to_string())?
        .pareto(
            Config::Hetero3d,
            FREQ_MIN_GHZ,
            FREQ_MAX_GHZ,
            FREQ_STEPS,
            &CostModel::default(),
        )
        .map_err(|e| e.to_string())?;
    Ok((summary, build_s))
}

#[derive(Default)]
struct Traced {
    manifests: Vec<(String, Manifest)>,
    build_s: Vec<f64>,
    churn_mb: Vec<f64>,
    /// The last sweep's generator seed and result.
    last: Option<(u64, ParetoSummary)>,
}

/// The closed loop: operation `i` is round `i` of `order` (cycled), one
/// sweep of each design, and each sweep is one latency sample.
fn measure(
    designs: &[(String, Netlist)],
    order: &[usize],
    refs: &References,
    seconds: f64,
    mut traced: Option<&mut Traced>,
) -> Pass {
    let rounds = order.len() / POOL.len();
    closed_loop(seconds, MIN_ROUNDS, |i| {
        let round = &order[(i % rounds) * POOL.len()..][..POOL.len()];
        let (mut waits_ms, mut points, mut check) = (Vec::new(), 0.0, Ok(()));
        for &design in round {
            let (key, netlist) = &designs[design];
            let obs = if traced.is_some() {
                Obs::enabled()
            } else {
                Obs::disabled()
            };
            let churn0 = churn_bytes();
            let (result, secs) = timed(|| sweep(netlist, obs.clone()));
            waits_ms.push(secs * 1e3);
            if let Some(t) = traced.as_deref_mut() {
                t.manifests.push((key.clone(), obs.manifest()));
                t.churn_mb
                    .push((churn_bytes() - churn0) as f64 / (1024.0 * 1024.0));
                if let Ok((summary, build_s)) = &result {
                    t.build_s.push(*build_s);
                    t.last = Some((POOL[design], summary.clone()));
                }
            }
            let checked = result.and_then(|(summary, _)| {
                points += summary.points.len() as f64;
                refs.check(NAME, key, digest(&summary))
                    .map_err(|m| m.to_string())
            });
            if check.is_ok() {
                check = checked;
            }
        }
        Op {
            result_waits_ms: waits_ms,
            work: points,
            check,
        }
    })
}

/// The operation as a wire request, for the JSON layer's numbers.
fn request(spec: NetlistSpec) -> FlowRequest {
    FlowRequest {
        id: 1,
        netlist: spec,
        options: options(Obs::disabled()),
        command: FlowCommand::Pareto {
            config: Config::Hetero3d,
            freq_min_ghz: FREQ_MIN_GHZ,
            freq_max_ghz: FREQ_MAX_GHZ,
            freq_steps: FREQ_STEPS,
        },
        deadline_ms: None,
        proto: Proto::V1,
    }
}

/// Median µs of `decode_request` and of rendering the response, and
/// the bytes one decode allocates, over `rounds` repetitions.
fn json_layer(spec: NetlistSpec, summary: ParetoSummary, rounds: usize) -> Vec<Metric> {
    let line = encode_line(&request(spec));
    let response = Response::Ok {
        id: 1,
        cache_hit: false,
        report: Box::new(FlowReport::Pareto { summary }),
    };
    let mut decode_us = Vec::new();
    let mut churn = Vec::new();
    let mut render_us = Vec::new();
    for _ in 0..rounds {
        let c0 = churn_bytes();
        let (decoded, secs) = timed(|| decode_request(&line));
        churn.push((churn_bytes() - c0) as f64);
        assert!(decoded.is_ok(), "the workload's own request decodes");
        decode_us.push(secs * 1e6);
        let (_, secs) = timed(|| encode_line(&response));
        render_us.push(secs * 1e6);
    }
    let per = "pareto request line / response";
    vec![
        Metric::new("json.decode_us", median(&decode_us), "us", per, rounds),
        Metric::new("json.render_us", median(&render_us), "us", per, rounds),
        Metric::new(
            "json.decode_churn_bytes",
            median(&churn),
            "bytes",
            per,
            rounds,
        ),
    ]
}

/// Every pool design with its reference key.
fn generate() -> Vec<(String, Netlist)> {
    POOL.iter()
        .map(|&seed| (ref_key(&spec(seed)), spec(seed).materialize()))
        .collect()
}

pub fn run(args: &Args, refs: &References) -> Report {
    let order = balanced_order(args.seed, POOL.len(), 16);
    let (designs, setup_s) = repeated_setup(generate);
    let pass = measure(&designs, &order, refs, args.pass_seconds(), None);
    let cells: Vec<usize> = designs.iter().map(|(_, n)| n.cell_count()).collect();
    drop(designs);
    let points_per_op = (StackingStyle::ALL.len() * Corner::ALL.len() * FREQ_STEPS) as f64;
    let mut report = Report {
        setup_s,
        work_unit: "sweep points",
        min_samples: MIN_ROUNDS * POOL.len(),
        op: "18-point pareto sweep (session build + sweep)",
        named: vec![
            Metric::new(
                "sweep_points_per_s",
                pass.work_per_s(),
                "points/s",
                format!(
                    "{points_per_op} points x {} sweeps per round, median round of {}",
                    POOL.len(),
                    pass.attempted
                ),
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
                median(&cells.iter().map(|&c| c as f64).collect::<Vec<_>>()),
                "count",
                format!("AES at scale 0.3, median of the pool {cells:?}"),
                cells.len(),
            )],
            properties(
                (0.0, "fresh session per sweep: no service cache".into()),
                (
                    points_per_op / scenarios() as f64,
                    format!(
                        "{points_per_op} points / {} scenario checkpoints",
                        scenarios()
                    ),
                ),
                (scenarios(), "scenario checkpoints per sweep".into()),
                0,
            ),
        ]
        .concat(),
        pass,
        ..Report::default()
    };
    if args.trace {
        let (traced_designs, traced_setup_s) = timed(generate);
        let topology_s: f64 = traced_designs
            .iter()
            .map(|(_, n)| timed(|| n.topology()).1)
            .sum();
        let mut t = Traced::default();
        let traced_pass = measure(
            &traced_designs,
            &order,
            refs,
            args.pass_seconds(),
            Some(&mut t),
        );
        let (mut layers, unstable) = trace::flow_layers(&t.manifests, scenarios(), "per sweep");
        layers.extend([
            Metric::new(
                "netgen.generate_s",
                median(&report.setup_s),
                "s",
                "NetlistSpec::materialize of the pool, median of set-ups",
                report.setup_s.len(),
            ),
            Metric::new(
                "netlist.topology_s",
                topology_s,
                "s",
                "Netlist::topology, summed over the pool",
                POOL.len(),
            ),
            Metric::new(
                "flow.prepare_base_s",
                median(&t.build_s),
                "s",
                "FlowSessionBuilder::build per sweep",
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
                "allocated per sweep",
                t.churn_mb.len(),
            ),
        ]);
        if let Some((generator_seed, summary)) = t.last.take() {
            layers.extend(json_layer(spec(generator_seed), summary, 50));
        }
        for u in unstable {
            report.pass.fail(u);
        }
        report.layers = layers;
        report.traced = Some((traced_setup_s, traced_pass));
    }
    report
}

/// Reference lines for every pool design.
pub fn record() -> Vec<String> {
    generate()
        .iter()
        .map(|(key, netlist)| {
            let (summary, _) = sweep(netlist, Obs::disabled()).expect("reference sweep");
            line(NAME, key, digest(&summary))
        })
        .collect()
}
