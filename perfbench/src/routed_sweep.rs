//! `routed_sweep`: a closed loop where one client connection streams
//! protocol-v2 `Sweep` requests back to back through an in-process
//! `m3d-router` over two in-process backends (one worker each). Every
//! sweep uses the `sweep_grid` axes (18 points, 6 scenario keys) on a
//! small design drawn from a seeded set. The only workload where the
//! router does the work: its relay policy decides whether the shards run
//! concurrently.
//!
//! One operation is a round: one sweep of each design of the set, in an
//! order the workload seed picks. Every round does the same work, so the
//! median round is one number rather than a mix of two designs' costs.

use crate::common::{
    churn_bytes, closed_loop, fixed_loop, properties, repeated_setup, timed, Args, Op, Pass, Report,
};
use crate::loadgen::balanced_order;
use crate::metrics::Metric;
use crate::reference::{line, Digest, References};
use crate::stats::median;
use crate::trace;
use hetero3d::flow::{
    Config, FlowCommand, FlowOptions, FlowRequest, FlowSession, NetlistSpec, Proto, SweepSpec,
};
use hetero3d::json::ToJson;
use hetero3d::netgen::Benchmark;
use hetero3d::obs::{Manifest, Obs};
use hetero3d::serve::{
    decode_request, encode_line, Client, Router, RouterConfig, ServerConfig, ServerMessage,
    StatsSnapshot, StreamEvent, TcpServer,
};
use hetero3d::tech::{Corner, StackingStyle};
use std::net::SocketAddr;
use std::time::Instant;

const NAME: &str = "routed_sweep";
/// The design set sweeps are drawn from: (generator, scale, generator
/// seed).
const DESIGNS: [(Benchmark, f64, u64); 2] =
    [(Benchmark::Aes, 0.05, 11), (Benchmark::Aes, 0.05, 12)];
const SHARDS: usize = 2;
/// Rounds every pass streams at least (~20 s on a 2-core host): enough
/// for p75 to have ten rounds beyond it.
const MIN_ROUNDS: usize = 40;
/// 2 stacking styles × 3 corners × 3 frequencies.
const POINTS_PER_SWEEP: usize = 18;
/// Backend cache slots: enough for every scenario key of the set, so a
/// key is built once per run.
const BACKEND_CACHE_SLOTS: usize = 16;

fn scenarios() -> usize {
    StackingStyle::ALL.len() * Corner::ALL.len()
}

fn spec(design: usize) -> NetlistSpec {
    let (benchmark, scale, seed) = DESIGNS[design];
    NetlistSpec {
        benchmark,
        scale,
        seed,
    }
}

fn design_key(design: usize) -> String {
    let (benchmark, scale, seed) = DESIGNS[design];
    format!("{benchmark:?}-{scale}-seed={seed}").to_lowercase()
}

fn sweep_request(id: u64, design: usize) -> FlowRequest {
    FlowRequest {
        id,
        netlist: spec(design),
        options: FlowOptions {
            threads: 1,
            ..FlowOptions::default()
        },
        command: FlowCommand::Sweep {
            spec: SweepSpec {
                configs: vec![Config::Hetero3d],
                stacking: StackingStyle::ALL.to_vec(),
                corners: Corner::ALL.to_vec(),
                freq_min_ghz: 0.8,
                freq_max_ghz: 1.2,
                freq_steps: 3,
            },
        },
        deadline_ms: None,
        proto: Proto::V2,
    }
}

fn backend(obs: Obs) -> TcpServer {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 256,
        cache_capacity: BACKEND_CACHE_SLOTS,
        obs,
        store: None,
        sweep_inflight_cap: 4,
    };
    TcpServer::bind("127.0.0.1:0", config).expect("bind a backend")
}

/// Backends (with their telemetry handles) and an optional router in
/// front; dropping it shuts the router down first, then drains and
/// joins every backend.
struct Cluster {
    router: Option<Router>,
    backends: Vec<(TcpServer, Obs)>,
}

impl Cluster {
    fn start(shards: usize, routed: bool, traced: bool) -> Cluster {
        let backends: Vec<(TcpServer, Obs)> = (0..shards)
            .map(|_| {
                let obs = if traced {
                    Obs::enabled()
                } else {
                    Obs::disabled()
                };
                (backend(obs.clone()), obs)
            })
            .collect();
        let router = routed.then(|| {
            let addrs = backends.iter().map(|(b, _)| b.local_addr()).collect();
            Router::bind("127.0.0.1:0", RouterConfig::new(addrs)).expect("bind the router")
        });
        Cluster { router, backends }
    }

    fn addr(&self) -> SocketAddr {
        match &self.router {
            Some(r) => r.local_addr(),
            None => self.backends[0].0.local_addr(),
        }
    }

    fn stats(&self) -> Vec<StatsSnapshot> {
        self.backends
            .iter()
            .map(|(b, _)| b.server().stats())
            .collect()
    }

    fn manifest(&self) -> Vec<Manifest> {
        self.backends.iter().map(|(_, o)| o.manifest()).collect()
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            let _ = router.shutdown();
        }
        for (backend, _) in self.backends.drain(..) {
            let _ = backend.shutdown();
        }
    }
}

/// One streamed sweep: the wait for each point (the first since the
/// request was sent, every later one since the previous point) and
/// every point's report bytes in index order (the `cache_hit` bit
/// excluded).
fn stream_sweep(
    client: &mut Client,
    request: &FlowRequest,
) -> Result<(Vec<f64>, Vec<String>), String> {
    let mut last = Instant::now();
    client.send(request).map_err(|e| e.to_string())?;
    let mut waits = Vec::new();
    let mut points: Vec<(u64, String)> = Vec::new();
    loop {
        match client.recv_message().map_err(|e| e.to_string())? {
            ServerMessage::Event(StreamEvent::Point { index, report, .. }) => {
                waits.push(last.elapsed().as_secs_f64() * 1e3);
                last = Instant::now();
                points.push((index, report.to_json().render()));
            }
            ServerMessage::Event(StreamEvent::Error {
                index,
                kind,
                message,
                ..
            }) => {
                return Err(format!("point {index} failed {kind}: {message}"));
            }
            ServerMessage::Event(StreamEvent::Done { .. }) => break,
            ServerMessage::Event(StreamEvent::Progress { .. }) => {}
            ServerMessage::Response(r) => return Err(format!("sweep answered with {r:?}")),
        }
    }
    if points.is_empty() {
        return Err("sweep streamed no point".into());
    }
    points.sort_by_key(|(i, _)| *i);
    Ok((waits, points.into_iter().map(|(_, r)| r).collect()))
}

fn digest(points: &[String]) -> Digest {
    points.iter().fold(Digest::default(), |d, p| d.str(p))
}

/// Streams one sweep per design so every scenario key is built.
fn warm(cluster: &Cluster, set: &[usize]) {
    let mut client = Client::connect(cluster.addr()).expect("connect a warm-up client");
    for &design in set {
        stream_sweep(&mut client, &sweep_request(0, design)).expect("warm-up sweep");
    }
}

/// How long a pass runs.
enum Budget {
    Seconds(f64),
    Rounds(usize),
}

/// The closed loop: operation `i` is round `i` of `order` (cycled), one
/// sweep of each design. Its latency sample is the round's mean sweep.
/// Returns the pass and each sweep's time to its first point.
fn measure(
    cluster: &Cluster,
    order: &[usize],
    refs: &References,
    budget: Budget,
) -> (Pass, Vec<f64>) {
    let mut client = Client::connect(cluster.addr()).expect("connect the client");
    let mut first_ms = Vec::new();
    let rounds = order.len() / DESIGNS.len();
    let op = |i: usize| {
        let round = &order[(i % rounds) * DESIGNS.len()..][..DESIGNS.len()];
        let (mut total_s, mut points, mut check) = (0.0, 0.0, Ok(()));
        for (j, &design) in round.iter().enumerate() {
            let id = (i * DESIGNS.len() + j) as u64;
            let (streamed, secs) = timed(|| stream_sweep(&mut client, &sweep_request(id, design)));
            total_s += secs;
            let checked = streamed.and_then(|(waits, bytes)| {
                first_ms.push(waits[0]);
                points += bytes.len() as f64;
                refs.check(NAME, &design_key(design), digest(&bytes))
                    .map_err(|m| m.to_string())
            });
            if check.is_ok() {
                check = checked;
            }
        }
        Op {
            result_waits_ms: vec![total_s * 1e3 / DESIGNS.len() as f64],
            work: points,
            check,
        }
    };
    let pass = match budget {
        Budget::Seconds(s) => closed_loop(s, MIN_ROUNDS, op),
        Budget::Rounds(n) => fixed_loop(n, op),
    };
    (pass, first_ms)
}

/// Share of the backends' session lookups between two snapshots that
/// found the session resident.
fn resident_share(before: &[StatsSnapshot], after: &[StatsSnapshot]) -> (f64, String) {
    let (mut hits, mut lookups) = (0, 0);
    for (a, b) in after.iter().zip(before) {
        hits += a.cache_hits - b.cache_hits;
        lookups += a.cache_hits + a.cache_misses - b.cache_hits - b.cache_misses;
    }
    (
        hits as f64 / lookups.max(1) as f64,
        format!("{hits} backend cache hits / {lookups} point lookups"),
    )
}

fn setup(set: &[usize], traced: bool) -> Cluster {
    let cluster = Cluster::start(SHARDS, true, traced);
    warm(&cluster, set);
    cluster
}

/// What a backend pays per design before its first point: generating
/// the netlist, its topology view, and the session's base preparation.
fn design_probes(set: &[usize]) -> Vec<Metric> {
    let (mut generate, mut topology, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
    for &design in set {
        let (netlist, secs) = timed(|| spec(design).materialize());
        generate.push(secs);
        topology.push(timed(|| netlist.topology()).1);
        let options = sweep_request(0, design).options;
        prepare.push(timed(|| FlowSession::builder(&netlist).options(options).build()).1);
    }
    let n = set.len();
    vec![
        Metric::new(
            "netgen.generate_s",
            generate.iter().sum(),
            "s",
            "NetlistSpec::materialize, summed over the design set",
            n,
        ),
        Metric::new(
            "netlist.topology_s",
            topology.iter().sum(),
            "s",
            "Netlist::topology, summed over the design set",
            n,
        ),
        Metric::new(
            "flow.prepare_base_s",
            median(&prepare),
            "s",
            "FlowSessionBuilder::build, median over the design set",
            n,
        ),
        Metric::new(
            "par.threads_resolved",
            hetero3d::par::resolve(1) as f64,
            "count",
            "m3d_par::resolve(request threads)",
            1,
        ),
    ]
}

/// `decode_request` on the workload's sweep lines.
fn json_probes(set: &[usize], rounds: usize) -> Vec<Metric> {
    let mut decode_us = Vec::new();
    let mut churn = Vec::new();
    for i in 0..rounds {
        let line = encode_line(&sweep_request(i as u64, set[i % set.len()]));
        let c0 = churn_bytes();
        let (decoded, secs) = timed(|| decode_request(&line));
        churn.push((churn_bytes() - c0) as f64);
        assert!(decoded.is_ok(), "the workload's own request decodes");
        decode_us.push(secs * 1e6);
    }
    vec![
        Metric::new(
            "json.decode_us",
            median(&decode_us),
            "us",
            "decode_request per sweep line",
            rounds,
        ),
        Metric::new(
            "json.decode_churn_bytes",
            median(&churn),
            "bytes",
            "allocated per decode_request",
            rounds,
        ),
    ]
}

pub fn run(args: &Args, refs: &References) -> Report {
    let set: Vec<usize> = (0..DESIGNS.len()).collect();
    let order = balanced_order(args.seed, DESIGNS.len(), 64);
    let (cluster, setup_s) = repeated_setup(|| setup(&set, false));
    let before = cluster.stats();
    let (pass, first_ms) = measure(&cluster, &order, refs, Budget::Seconds(args.pass_seconds()));
    let resident = resident_share(&before, &cluster.stats());
    drop(cluster);
    let points_per_sweep = POINTS_PER_SWEEP as f64;
    let mut report = Report {
        setup_s,
        work_unit: "routed sweep points",
        min_samples: MIN_ROUNDS,
        op: "streamed 18-point sweep (request to last point), mean over a round of the set",
        named: vec![
            Metric::new(
                "routed_points_per_s",
                pass.work_per_s(),
                "points/s",
                format!(
                    "{points_per_sweep} points x {} sweeps per round, median round of {}",
                    DESIGNS.len(),
                    pass.attempted
                ),
                pass.latencies_ms.len(),
            ),
            Metric::new(
                "routed_first_point_ms",
                median(&first_ms),
                "ms",
                "median time from sending a sweep to its first point",
                first_ms.len(),
            ),
        ],
        properties: [
            vec![
                Metric::new(
                    "designs",
                    DESIGNS.len() as f64,
                    "count",
                    "designs in the set, swept in seeded balanced order",
                    1,
                ),
                Metric::new(
                    "shards",
                    SHARDS as f64,
                    "count",
                    "1-worker backends behind the router",
                    1,
                ),
            ],
            properties(
                resident,
                (
                    points_per_sweep / scenarios() as f64,
                    format!("{points_per_sweep} points / {} scenario keys", scenarios()),
                ),
                (
                    DESIGNS.len() * scenarios(),
                    "scenario keys of the design set".into(),
                ),
                BACKEND_CACHE_SLOTS * SHARDS,
            ),
        ]
        .concat(),
        pass,
        ..Report::default()
    };
    if args.trace {
        let (cluster, traced_setup_s) = timed(|| setup(&set, true));
        let router = cluster.router.as_ref().expect("routed cluster");
        let (r0, s0, m0) = (router.stats(), cluster.stats(), cluster.manifest());
        let churn0 = churn_bytes();
        let (traced_pass, _) =
            measure(&cluster, &order, refs, Budget::Seconds(args.pass_seconds()));
        let churn_mb = (churn_bytes() - churn0) as f64 / (1024.0 * 1024.0);
        let (r1, s1, m1) = (router.stats(), cluster.stats(), cluster.manifest());
        let builds: u64 = s1.iter().map(|s| s.cache_misses).sum();
        let served: Vec<f64> = s1
            .iter()
            .zip(&s0)
            .map(|(a, b)| (a.completed_ok - b.completed_ok) as f64)
            .collect();
        let (max, min) = served
            .iter()
            .fold((0.0_f64, f64::INFINITY), |(hi, lo), &v| {
                (hi.max(v), lo.min(v))
            });
        let window = Manifest {
            spans: m1
                .iter()
                .zip(&m0)
                .flat_map(|(a, b)| trace::since(a, b).spans)
                .collect(),
            counters: m1
                .iter()
                .zip(&m0)
                .flat_map(|(a, b)| trace::since(a, b).counters)
                .collect(),
            perf: m1
                .iter()
                .zip(&m0)
                .flat_map(|(a, b)| trace::since(a, b).perf)
                .collect(),
            ..Manifest::default()
        };
        drop(cluster);
        // The same sweeps sent straight to one 1-worker backend.
        let direct = Cluster::start(1, false, false);
        warm(&direct, &set);
        let rounds = traced_pass.attempted as usize;
        let (direct_pass, _) = measure(&direct, &order, refs, Budget::Rounds(rounds));
        drop(direct);
        // The direct sweeps are checked against the same references.
        report.pass.attempted += direct_pass.attempted;
        report.pass.failed += direct_pass.failed;
        report
            .pass
            .failures
            .extend(direct_pass.failures.iter().cloned());
        let sweeps = rounds * DESIGNS.len();
        let base = format!("traced pass, {sweeps} sweeps");
        let (mut layers, _) = trace::flow_layers(&[(NAME.to_string(), window)], scenarios(), &base);
        let keys = (set.len() * scenarios()) as f64;
        layers.extend([
            Metric::new(
                "router.sweep_points",
                (r1.sweep_points - r0.sweep_points) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "router.backend_retries",
                (r1.backend_retries - r0.backend_retries) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "router.backend_unavailable",
                (r1.backend_unavailable - r0.backend_unavailable) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "router.shard_balance",
                max / min.max(1.0),
                "ratio",
                format!("max/min points per backend {served:?} (min floored at 1)"),
                served.len(),
            ),
            Metric::new(
                "router.fanout_ratio",
                traced_pass.work_per_s() / direct_pass.work_per_s(),
                "ratio",
                format!(
                    "routed {:.3} points/s / direct single-backend {:.3} points/s",
                    traced_pass.work_per_s(),
                    direct_pass.work_per_s()
                ),
                sweeps,
            ),
            Metric::new(
                "router.builds_per_key",
                builds as f64 / keys,
                "ratio",
                format!("{builds} backend cache misses / {keys} scenario keys (set-up + pass)"),
                1,
            ),
        ]);
        layers.push(Metric::new(
            "alloc.churn_mb",
            churn_mb / sweeps.max(1) as f64,
            "MiB",
            "allocated per sweep over the traced pass, whole process",
            sweeps,
        ));
        layers.extend(design_probes(&set));
        layers.extend(json_probes(&set, 50));
        report.layers = layers;
        report.traced = Some((traced_setup_s, traced_pass));
    }
    report
}

/// Reference lines: each pool design's sweep streamed by one direct
/// backend — the bytes a routed sweep must reproduce.
pub fn record() -> Vec<String> {
    let direct = Cluster::start(1, false, false);
    let mut client = Client::connect(direct.addr()).expect("connect");
    (0..DESIGNS.len())
        .map(|design| {
            let (_, points) =
                stream_sweep(&mut client, &sweep_request(0, design)).expect("reference sweep");
            line(NAME, &design_key(design), digest(&points))
        })
        .collect()
}
