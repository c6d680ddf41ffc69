//! `serve_mix`: an open loop of seeded Poisson arrivals against an
//! in-process `TcpServer` on loopback (2 workers, an 8-slot checkpoint
//! cache, an `m3d-store` in a scratch directory). 90 % of requests are
//! `RunFlow` (random configuration, 0.8–1.2 GHz), 10 % `FindFmax`, over
//! 12 small design keys with skewed, seeded popularity — more keys than
//! cache slots, so most requests find their session resident and the
//! rest rehydrate from the store. Small flows on warm sessions make
//! framing, JSON, materialization, key hashing, queue hand-off and the
//! cache/store lookups a visible share of latency.

use crate::common::{
    churn_bytes, properties, repeated_setup, timed, Args, HeapWindows, Pass, Report, ScratchDir,
};
use crate::loadgen::{pace, poisson_arrivals, zipf_counts, Rng, Timing};
use crate::metrics::Metric;
use crate::reference::{line, Digest, References};
use crate::stats::{median, percentile, sorted};
use crate::trace;
use hetero3d::flow::{
    Config, FlowCommand, FlowOptions, FlowReport, FlowRequest, FlowSession, NetlistSpec, Proto,
};
use hetero3d::json::ToJson;
use hetero3d::netgen::Benchmark;
use hetero3d::obs::Obs;
use hetero3d::serve::{
    decode_request, decode_response, encode_line, Client, Response, ServerConfig, SessionKey,
    Store, StoreKey, TcpServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "serve_mix";

/// The 12 design keys, most popular first: (generator, scale,
/// generator seed).
const KEYS: [(Benchmark, f64, u64); 12] = [
    (Benchmark::Aes, 0.02, 1),
    (Benchmark::Ldpc, 0.02, 1),
    (Benchmark::Netcard, 0.02, 1),
    (Benchmark::Cpu, 0.02, 1),
    (Benchmark::Aes, 0.03, 2),
    (Benchmark::Ldpc, 0.03, 2),
    (Benchmark::Netcard, 0.03, 2),
    (Benchmark::Cpu, 0.03, 2),
    (Benchmark::Aes, 0.05, 3),
    (Benchmark::Ldpc, 0.05, 3),
    (Benchmark::Netcard, 0.05, 3),
    (Benchmark::Cpu, 0.05, 3),
];
const FREQS_GHZ: [f64; 5] = [0.8, 0.9, 1.0, 1.1, 1.2];
const FMAX_START_GHZ: f64 = 1.0;
/// One request in this many is a `FindFmax` (10 %).
const FMAX_EVERY: usize = 10;
/// Zipf exponent of key popularity (with 12 keys over 8 LRU slots,
/// about 85 % of requests find their session resident).
const ZIPF_EXPONENT: f64 = 1.3;
/// Offered load, requests per second, frozen: about one third of the
/// ~78 requests/s the 2-worker service sustained on this mix when the
/// benchmark was defined (2-vCPU x86-64 guest). At two thirds of
/// capacity the queue amplified run-to-run noise past any usable
/// bound (p50 interquartile spread 1.3× the median over 5 seeds).
const RATE_PER_S: f64 = 26.0;
/// A response slower than this (from its due time) does not count
/// towards goodput.
const LATENCY_LIMIT_MS: f64 = 250.0;
const WORKERS: usize = 2;
const CACHE_SLOTS: usize = 8;
/// Requests the traced run replays one at a time through each serve
/// layer boundary.
const PROBE_REQUESTS: usize = 40;

/// One request's command, by index into the fixed grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cmd {
    Run { config: usize, freq: usize },
    Fmax { config: usize },
}

impl Cmd {
    /// All distinct commands, in reference order.
    fn all() -> Vec<Cmd> {
        let mut out = Vec::new();
        for config in 0..Config::ALL.len() {
            for freq in 0..FREQS_GHZ.len() {
                out.push(Cmd::Run { config, freq });
            }
            out.push(Cmd::Fmax { config });
        }
        out
    }

    fn label(self) -> String {
        match self {
            Cmd::Run { config, freq } => format!("run.c{config}.f{freq}"),
            Cmd::Fmax { config } => format!("fmax.c{config}"),
        }
    }

    fn command(self) -> FlowCommand {
        match self {
            Cmd::Run { config, freq } => FlowCommand::RunFlow {
                config: Config::ALL[config],
                frequency_ghz: FREQS_GHZ[freq],
            },
            Cmd::Fmax { config } => FlowCommand::FindFmax {
                config: Config::ALL[config],
                start_ghz: FMAX_START_GHZ,
            },
        }
    }
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Seconds after the loop starts.
    pub due_s: f64,
    pub key: usize,
    pub cmd: Cmd,
}

/// The seeded request list: `count` Poisson arrivals at
/// [`RATE_PER_S`] carrying a fixed mix — keys in Zipf proportions, one
/// request in [`FMAX_EVERY`] an fmax search, configurations and
/// frequencies balanced per key — in seeded order. Every seed offers
/// the same work; the seed decides its order and timing, so runs differ
/// by scheduling, not by how much work they happened to draw.
pub fn plan(seed: u64, count: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let mut mix: Vec<(usize, Cmd)> = zipf_counts(KEYS.len(), ZIPF_EXPONENT, count)
        .into_iter()
        .enumerate()
        .flat_map(|(key, n)| (0..n).map(move |j| (key, balanced_cmd(j))))
        .collect();
    rng.shuffle(&mut mix);
    poisson_arrivals(&mut rng, RATE_PER_S, count)
        .into_iter()
        .zip(mix)
        .map(|(due_s, (key, cmd))| Planned { due_s, key, cmd })
        .collect()
}

/// The `j`-th request to one key: every [`FMAX_EVERY`]-th is an fmax
/// search, the rest cycle through the configurations and frequencies.
fn balanced_cmd(j: usize) -> Cmd {
    let configs = Config::ALL.len();
    if j % FMAX_EVERY == FMAX_EVERY - 1 {
        Cmd::Fmax {
            config: (j / FMAX_EVERY) % configs,
        }
    } else {
        Cmd::Run {
            config: j % configs,
            freq: (j / configs) % FREQS_GHZ.len(),
        }
    }
}

fn spec(key: usize) -> NetlistSpec {
    let (benchmark, scale, seed) = KEYS[key];
    NetlistSpec {
        benchmark,
        scale,
        seed,
    }
}

fn options() -> FlowOptions {
    FlowOptions {
        threads: 1,
        ..FlowOptions::default()
    }
}

fn request(id: u64, key: usize, cmd: Cmd) -> FlowRequest {
    FlowRequest {
        id,
        netlist: spec(key),
        options: options(),
        command: cmd.command(),
        deadline_ms: None,
        proto: Proto::V1,
    }
}

fn ref_key(key: usize, cmd: Cmd) -> String {
    format!("k{key}/{}", cmd.label())
}

/// A report's wire bytes; the scheduling-dependent `cache_hit` bit
/// lives on the envelope and is not part of it.
fn digest(report: &FlowReport) -> Digest {
    Digest::default().str(&report.to_json().render())
}

/// A running service with its scratch store; dropping it drains the
/// service, joins its threads and removes the store.
struct Service {
    tcp: Option<TcpServer>,
    store_dir: ScratchDir,
}

impl Service {
    fn tcp(&self) -> &TcpServer {
        self.tcp.as_ref().expect("service is running")
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(tcp) = self.tcp.take() {
            let _ = tcp.shutdown();
        }
    }
}

/// Starts the service and builds every key once (cold, written through
/// to the store); the last [`CACHE_SLOTS`] stay resident.
fn start(obs: Obs) -> Service {
    let store_dir = ScratchDir::new("serve-store");
    let store = Store::open(&store_dir.0).expect("open the checkpoint store");
    let config = ServerConfig {
        workers: WORKERS,
        queue_depth: 1 << 14,
        cache_capacity: CACHE_SLOTS,
        obs,
        store: Some(Arc::new(store)),
        sweep_inflight_cap: 4,
    };
    let tcp = TcpServer::bind("127.0.0.1:0", config).expect("bind the flow service");
    let warm: Vec<_> = (0..KEYS.len())
        .map(|k| {
            let cmd = Cmd::Run {
                config: Config::ALL.len() - 1,
                freq: 2,
            };
            tcp.server().submit(request(k as u64, k, cmd))
        })
        .collect();
    for pending in warm {
        assert!(pending.wait().is_ok(), "warm-up request failed");
    }
    Service {
        tcp: Some(tcp),
        store_dir,
    }
}

/// The open loop: one connection, a pacing sender thread and this
/// thread reading responses as they come. Returns the pass and each
/// request's timing and decoded response.
fn measure(
    service: &Service,
    plan: &[Planned],
    refs: &References,
) -> (Pass, Vec<Timing>, Vec<Option<Response>>) {
    let lines: Vec<String> = plan
        .iter()
        .enumerate()
        .map(|(i, p)| encode_line(&request(i as u64, p.key, p.cmd)))
        .collect();
    let due: Vec<Duration> = plan
        .iter()
        .map(|p| Duration::from_secs_f64(p.due_s))
        .collect();
    let stream = TcpStream::connect(service.tcp().local_addr()).expect("connect to the service");
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().expect("clone the client socket");
    let mut reader = BufReader::new(stream);
    let mut done = vec![None; plan.len()];
    let mut responses: Vec<Option<Response>> = vec![None; plan.len()];
    let mut pass = Pass::default();
    let mut heap = HeapWindows::start();
    let start = Instant::now();
    let sent = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            pace(start, &due, |i| {
                writer
                    .write_all(lines[i].as_bytes())
                    .expect("send a request");
            })
        });
        let mut buf = String::new();
        for _ in 0..plan.len() {
            buf.clear();
            match reader.read_line(&mut buf) {
                Ok(n) if n > 0 => {}
                _ => break,
            }
            let at = start.elapsed();
            match decode_response(&buf) {
                Ok(r) => match r.id().and_then(|id| usize::try_from(id).ok()) {
                    Some(i) if i < plan.len() => {
                        done[i] = Some(at);
                        responses[i] = Some(r);
                    }
                    _ => pass.fail(format!("response without a known id: {}", buf.trim())),
                },
                Err(e) => pass.fail(format!("undecodable response: {e}")),
            }
            heap.tick();
        }
        sender.join().expect("sender thread panicked")
    });
    let (peak_mb, windows) = heap.finish();
    pass.peak_heap_mb = peak_mb;
    pass.heap_base = Some(format!(
        "median over {windows} one-second windows of the live-heap high-water mark"
    ));
    let mut timings = Vec::with_capacity(plan.len());
    for (i, p) in plan.iter().enumerate() {
        pass.attempted += 1;
        let Some(done_at) = done[i] else {
            pass.fail(format!("request {i} got no response"));
            continue;
        };
        let t = Timing {
            due: due[i],
            sent: sent[i],
            done: done_at,
        };
        timings.push(t);
        let latency_ms = t.latency().as_secs_f64() * 1e3;
        pass.latencies_ms.push(latency_ms);
        pass.wall_s = pass.wall_s.max(done_at.as_secs_f64());
        match &responses[i] {
            Some(Response::Ok { report, .. }) => {
                match refs.check(NAME, &ref_key(p.key, p.cmd), digest(report)) {
                    Ok(()) if latency_ms <= LATENCY_LIMIT_MS => pass.work += 1.0,
                    Ok(()) => {}
                    Err(m) => pass.fail(m.to_string()),
                }
            }
            Some(Response::Rejected { kind, message, .. }) => {
                pass.fail(format!("request {i} rejected {kind}: {message}"));
            }
            None => {}
        }
    }
    (pass, timings, responses)
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// The serve-layer boundaries, one request at a time on the warm
/// service. Each probe request goes through the socket
/// (`Client::call`), the engine (`Server::submit().wait()`) and a direct
/// `FlowSession::execute` back to back, so the per-layer differences
/// are paired on the same request and cache state.
fn serve_probes(service: &Service, plan: &[Planned]) -> Vec<Metric> {
    let probe: Vec<&Planned> = plan.iter().take(PROBE_REQUESTS).collect();
    let n = probe.len();
    // Direct sessions, built and warmed outside the timers; their build
    // time is the flow layer's base preparation.
    let mut prepare_s = Vec::new();
    let sessions: Vec<FlowSession> = (0..KEYS.len())
        .map(|k| {
            let netlist = spec(k).materialize();
            let (s, secs) = timed(|| FlowSession::builder(&netlist).options(options()).build());
            prepare_s.push(secs);
            let s = s.expect("probe session");
            let warm = Cmd::Run {
                config: Config::ALL.len() - 1,
                freq: 2,
            };
            let _ = s.execute(&warm.command());
            s
        })
        .collect();
    let mut client = Client::connect(service.tcp().local_addr()).expect("connect a probe client");
    let (mut rtt, mut engine, mut execute) = (Vec::new(), Vec::new(), Vec::new());
    for (i, p) in probe.iter().enumerate() {
        let mut via_socket = || ms(timed(|| client.call(&request(0, p.key, p.cmd))).1);
        let via_engine = || {
            let server = service.tcp().server();
            ms(timed(|| server.submit(request(0, p.key, p.cmd)).wait()).1)
        };
        // Alternate which path goes first, so a cache state left by the
        // first call does not favour the second on every request.
        let (r, e) = if i % 2 == 0 {
            let r = via_socket();
            (r, via_engine())
        } else {
            let e = via_engine();
            (via_socket(), e)
        };
        let x = ms(timed(|| sessions[p.key].execute(&p.cmd.command())).1);
        rtt.push(r);
        engine.push(e);
        execute.push(x);
    }
    let front: Vec<f64> = rtt.iter().zip(&engine).map(|(r, e)| r - e).collect();
    let overhead: Vec<f64> = engine.iter().zip(&execute).map(|(e, x)| e - x).collect();
    let per = format!("median over the first {n} planned requests, one at a time");
    vec![
        Metric::new(
            "serve.rtt_ms",
            median(&rtt),
            "ms",
            format!("Client::call, {per}"),
            n,
        ),
        Metric::new(
            "serve.engine_ms",
            median(&engine),
            "ms",
            format!("Server::submit().wait(), {per}"),
            n,
        ),
        Metric::new(
            "serve.execute_ms",
            median(&execute),
            "ms",
            format!("FlowSession::execute, {per}"),
            n,
        ),
        Metric::new(
            "serve.front_ms",
            median(&front),
            "ms",
            format!("rtt - engine per request, {per}"),
            n,
        ),
        Metric::new(
            "serve.engine_overhead_ms",
            median(&overhead),
            "ms",
            format!("engine - execute per request, {per}"),
            n,
        ),
        Metric::new(
            "flow.prepare_base_s",
            median(&prepare_s),
            "s",
            "FlowSessionBuilder::build, median over the 12 keys",
            prepare_s.len(),
        ),
    ]
}

/// Per-key costs: generating the netlists a cold service needs,
/// materializing and hashing one on every request, and rehydrating a
/// session from the store (`Store::get_session`).
fn key_probes(service: &Service) -> Vec<Metric> {
    let store = Store::open(&service.store_dir.0).expect("reopen the store");
    let (mut materialize, mut topology, mut session_key, mut store_get) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for k in 0..KEYS.len() {
        let (netlist, secs) = timed(|| spec(k).materialize());
        materialize.push(ms(secs));
        topology.push(timed(|| netlist.topology()).1);
        let (key, secs) = timed(|| SessionKey::of(&netlist, &options()));
        session_key.push(ms(secs));
        let store_key = StoreKey::new(key.netlist_fp, key.options_fp).expect("valid store key");
        let (got, secs) = timed(|| store.get_session(&store_key));
        if matches!(got, Ok(Some(_))) {
            store_get.push(ms(secs));
        }
    }
    let n = KEYS.len();
    vec![
        Metric::new(
            "netgen.generate_s",
            materialize.iter().sum::<f64>() / 1e3,
            "s",
            "NetlistSpec::materialize, summed over the 12 keys",
            n,
        ),
        Metric::new(
            "netgen.materialize_ms",
            median(&materialize),
            "ms",
            "NetlistSpec::materialize, median over the 12 keys",
            n,
        ),
        Metric::new(
            "netlist.topology_s",
            topology.iter().sum(),
            "s",
            "Netlist::topology, summed over the 12 keys",
            n,
        ),
        Metric::new(
            "serve.session_key_ms",
            median(&session_key),
            "ms",
            "SessionKey::of, median over the 12 keys",
            n,
        ),
        Metric::new(
            "store.get_ms",
            median(&store_get),
            "ms",
            "Store::get_session, median over stored keys",
            store_get.len(),
        ),
    ]
}

/// `decode_request` on the workload's own lines and the response render
/// on its own responses.
fn json_probes(plan: &[Planned], responses: &[Option<Response>]) -> Vec<Metric> {
    let mut decode_us = Vec::new();
    let mut churn = Vec::new();
    for (i, p) in plan.iter().enumerate() {
        let line = encode_line(&request(i as u64, p.key, p.cmd));
        let c0 = churn_bytes();
        let (decoded, secs) = timed(|| decode_request(&line));
        churn.push((churn_bytes() - c0) as f64);
        assert!(decoded.is_ok(), "the workload's own request decodes");
        decode_us.push(secs * 1e6);
    }
    let render_us: Vec<f64> = responses
        .iter()
        .flatten()
        .map(|r| timed(|| encode_line(r)).1 * 1e6)
        .collect();
    vec![
        Metric::new(
            "json.decode_us",
            median(&decode_us),
            "us",
            "decode_request per workload line",
            decode_us.len(),
        ),
        Metric::new(
            "json.render_us",
            median(&render_us),
            "us",
            "encode_line per workload response",
            render_us.len(),
        ),
        Metric::new(
            "json.decode_churn_bytes",
            median(&churn),
            "bytes",
            "allocated per decode_request",
            churn.len(),
        ),
    ]
}

pub fn run(args: &Args, refs: &References) -> Report {
    let count = (RATE_PER_S * args.pass_seconds()).round().max(1.0) as usize;
    let plan = plan(args.seed, count);
    let (service, setup_s) = repeated_setup(|| start(Obs::disabled()));
    let hits0 = service.tcp().server().cache().hits();
    let (pass, timings, _) = measure(&service, &plan, refs);
    let resident = (service.tcp().server().cache().hits() - hits0) as f64 / plan.len() as f64;
    drop(service);
    let (tail_p, tail) = pass.tail_ms(plan.len());
    let late: Vec<f64> = timings.iter().map(|t| ms(t.late().as_secs_f64())).collect();
    let mut report = Report {
        setup_s,
        work_unit: "good responses",
        min_samples: plan.len(),
        op: "request latency from its due time",
        named: vec![
            Metric::new(
                "serve_p50_ms",
                pass.p50_ms(),
                "ms",
                "from scheduled send time",
                pass.latencies_ms.len(),
            ),
            Metric::new(
                &format!("serve_p{tail_p}_ms"),
                tail,
                "ms",
                "from scheduled send time",
                pass.latencies_ms.len(),
            ),
            Metric::new(
                "serve_goodput_rps",
                pass.work_per_s(),
                "1/s",
                format!("ok, reference-equal responses within {LATENCY_LIMIT_MS} ms, per second"),
                pass.attempted as usize,
            ),
        ],
        properties: [
            vec![
                Metric::new(
                    "offered_rate",
                    RATE_PER_S,
                    "1/s",
                    "Poisson arrivals",
                    plan.len(),
                ),
                Metric::new(
                    "generator_late_p99_ms",
                    percentile(&sorted(&late), 99.0),
                    "ms",
                    "send time - due time",
                    late.len(),
                ),
            ],
            properties(
                (resident, format!("cache hits / {} requests", plan.len())),
                (0.0, "single requests: no grid shares a checkpoint".into()),
                (KEYS.len(), "distinct design keys".into()),
                CACHE_SLOTS,
            ),
        ]
        .concat(),
        unavailable: vec![(
            "serve.wait_p99_ms",
            "the service publishes no per-request queue-wait span or histogram \
             (only the summed serve/request span and the serve/queue_depth_peak gauge)",
        )],
        pass,
        ..Report::default()
    };
    if args.trace {
        let obs = Obs::enabled();
        let (service, traced_setup_s) = timed(|| start(obs.clone()));
        let server = service.tcp().server();
        let (stats0, hits0, misses0, evictions0) = (
            server.stats(),
            server.cache().hits(),
            server.cache().misses(),
            server.cache().evictions(),
        );
        let before = obs.manifest();
        let churn0 = churn_bytes();
        let (traced_pass, timings, responses) = measure(&service, &plan, refs);
        let churn_mb = (churn_bytes() - churn0) as f64 / (1024.0 * 1024.0);
        let window = trace::since(&obs.manifest(), &before);
        let stats = server.stats();
        let hits = server.cache().hits() - hits0;
        let misses = server.cache().misses() - misses0;
        let lookups = (hits + misses).max(1) as f64;
        let late: Vec<f64> = timings.iter().map(|t| ms(t.late().as_secs_f64())).collect();
        let base = format!("traced pass, {} requests", plan.len());
        let (mut layers, _) = trace::flow_layers(&[(NAME.to_string(), window)], 1, &base);
        // Counts over an open loop depend on which requests hit: report
        // them as totals of the pass, not as exact per-operation counts.
        layers.extend([
            Metric::new(
                "serve.rejected_overloaded",
                (stats.rejected_overloaded - stats0.rejected_overloaded) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "serve.rejected_deadline",
                (stats.rejected_deadline - stats0.rejected_deadline) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "serve.failed_flow",
                (stats.failed_flow - stats0.failed_flow) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "cache.hit_ratio",
                hits as f64 / lookups,
                "ratio",
                format!("{hits} hits / {lookups} lookups"),
                plan.len(),
            ),
            Metric::new("cache.misses", misses as f64, "count", &*base, 1),
            Metric::new(
                "cache.evictions",
                (server.cache().evictions() - evictions0) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "store.hits",
                (stats.store_hits - stats0.store_hits) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "store.misses",
                (stats.store_misses - stats0.store_misses) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "store.spills",
                (stats.store_spills - stats0.store_spills) as f64,
                "count",
                &*base,
                1,
            ),
            Metric::new(
                "loadgen.late_p99_ms",
                percentile(&sorted(&late), 99.0),
                "ms",
                "send time - due time",
                late.len(),
            ),
            Metric::new(
                "alloc.churn_mb",
                churn_mb / plan.len() as f64,
                "MiB",
                "allocated per request over the traced pass, whole process",
                plan.len(),
            ),
            Metric::new(
                "par.threads_resolved",
                hetero3d::par::resolve(options().threads) as f64,
                "count",
                "m3d_par::resolve(request threads)",
                1,
            ),
        ]);
        layers.extend(serve_probes(&service, &plan));
        layers.extend(key_probes(&service));
        layers.extend(json_probes(&plan, &responses));
        if let Some(reactor) = obs.manifest().label("serve/reactor") {
            report
                .env
                .push(("serve_reactor_label", reactor.to_string()));
        }
        drop(service);
        report.layers = layers;
        report.traced = Some((traced_setup_s, traced_pass));
    }
    report
}

/// Reference lines for every (key, command) pair.
pub fn record() -> Vec<String> {
    let mut out = Vec::new();
    for key in 0..KEYS.len() {
        let session = FlowSession::builder(&spec(key).materialize())
            .options(options())
            .build()
            .expect("reference session");
        for cmd in Cmd::all() {
            let report = session.execute(&cmd.command()).expect("reference request");
            out.push(line(NAME, &ref_key(key, cmd), digest(&report)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_plans_replay_by_seed() {
        let a = plan(11, 300);
        assert_eq!(a, plan(11, 300));
        assert_ne!(a, plan(12, 300));
        let fmax = a
            .iter()
            .filter(|p| matches!(p.cmd, Cmd::Fmax { .. }))
            .count();
        assert!((10..=60).contains(&fmax), "{fmax} fmax requests of 300");
        assert!(a.iter().all(|p| p.key < KEYS.len()));
    }

    #[test]
    fn every_planned_command_has_a_reference_slot() {
        let all = Cmd::all();
        assert_eq!(all.len(), Config::ALL.len() * (FREQS_GHZ.len() + 1));
        assert!(plan(5, 500).iter().all(|p| all.contains(&p.cmd)));
    }
}
