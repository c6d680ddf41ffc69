//! Benchmark for the hetero3d flow, sweep, serve and router paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <flow_scale|sweep_grid|serve_mix|routed_sweep> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --record
//! ```
//!
//! Run from the repository root. The last stdout line is the result:
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The
//! line before it carries the details: environment header, every metric
//! with its base and sample count, workload properties, numbers the
//! published telemetry cannot give, and the tracing overhead.
//! `--record` prints fresh reference lines for `references.txt`.
//! See `RATIONALE.md` for why each workload and metric exists.

mod common;
mod flow_scale;
mod loadgen;
mod metrics;
mod reference;
mod routed_sweep;
mod serve_mix;
mod stats;
mod sweep_grid;
mod trace;

use common::{complete_layers, end_to_end, overhead, Args, Report};
use metrics::{detailed, quote, result_line, Metric};
use reference::References;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: hetero3d::obs::CountingAlloc = hetero3d::obs::CountingAlloc;

const WORKLOADS: [&str; 4] = ["flow_scale", "sweep_grid", "serve_mix", "routed_sweep"];

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// The environment header every result carries.
fn env_header(args: &Args, report: &Report) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let reactor = if std::env::var("M3D_REACTOR").is_ok_and(|v| v == "poll") {
        "poll"
    } else {
        "epoll"
    };
    let mut fields = vec![
        ("workload", quote(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", metrics::num(args.seconds)),
        ("trace", (args.trace as u8).to_string()),
        ("nproc", nproc.to_string()),
        (
            "threads_resolved",
            hetero3d::par::resolve(common::FLOW_THREADS).to_string(),
        ),
        ("reactor", quote(reactor)),
        ("build_profile", quote(build_profile())),
    ];
    fields.extend(report.env.iter().map(|(k, v)| (*k, quote(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", quote(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn run(args: &Args) -> (String, String) {
    let refs = References::recorded();
    let report = match args.workload.as_str() {
        "flow_scale" => flow_scale::run(args, &refs),
        "sweep_grid" => sweep_grid::run(args, &refs),
        "serve_mix" => serve_mix::run(args, &refs),
        _ => routed_sweep::run(args, &refs),
    };
    let e2e = end_to_end(
        &report.setup_s,
        &report.pass,
        report.work_unit,
        report.op,
        report.min_samples,
    );
    let mut attempted = report.pass.attempted;
    let mut failed = report.pass.failed;
    let mut failures = report.pass.failures.clone();
    let mut named = report.named.clone();
    named.push(Metric::new(
        "setup_s",
        e2e[0].value,
        "s",
        e2e[0].base.clone(),
        e2e[0].samples,
    ));
    named.push(Metric::new(
        "ops_failed_ratio",
        report.pass.failed as f64 / report.pass.attempted.max(1) as f64,
        "ratio",
        format!(
            "{} failed, refused or mismatched of {} attempted",
            report.pass.failed, report.pass.attempted
        ),
        report.pass.attempted as usize,
    ));
    let mut traced_e2e = Vec::new();
    let mut layers = Vec::new();
    if let Some((traced_setup_s, traced)) = &report.traced {
        attempted += traced.attempted;
        failed += traced.failed;
        failures.extend(traced.failures.iter().cloned());
        traced_e2e = end_to_end(
            &[*traced_setup_s],
            traced,
            report.work_unit,
            report.op,
            report.min_samples,
        );
        let mut found = report.layers.clone();
        found.extend(overhead(&e2e, &traced_e2e));
        let (all, unknown) = complete_layers(found);
        for name in unknown {
            failed += 1;
            failures.push(format!("per-layer metric {name} is not in the catalogue"));
        }
        layers = all;
    }
    let unavailable: Vec<String> = report
        .unavailable
        .iter()
        .map(|(k, why)| format!("{}: {}", quote(k), quote(why)))
        .collect();
    let failure_list: Vec<String> = failures.iter().map(|f| quote(f)).collect();
    let latencies: Vec<String> = report
        .pass
        .latencies_ms
        .iter()
        .map(|&v| metrics::num(v))
        .collect();
    let quartiles = stats::quartiles(&report.pass.latencies_ms).map_or_else(
        || "null".to_string(),
        |q| format!("[{}, {}, {}]", q[0], q[1], q[2]),
    );
    let details = format!(
        "{{\"env\": {}, \"end_to_end\": {}, \"workload_metrics\": {}, \"properties\": {}, \
         \"traced_end_to_end\": {}, \"per_layer\": {}, \"unavailable\": {{{}}}, \
         \"failures\": [{}], \"latency_quartiles_ms\": {quartiles}, \"latencies_ms\": [{}]}}",
        env_header(args, &report),
        detailed(&e2e),
        detailed(&named),
        detailed(&report.properties),
        detailed(&traced_e2e),
        detailed(&layers),
        unavailable.join(", "),
        failure_list.join(", "),
        latencies.join(", ")
    );
    let shown = if args.trace { &layers } else { &e2e };
    let result = result_line(failed == 0, attempted, failed, shown);
    (details, result)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "--record") {
        println!("# workload input digest -- recorded by `perfbench --record`");
        for line in flow_scale::record()
            .into_iter()
            .chain(sweep_grid::record())
            .chain(serve_mix::record())
            .chain(routed_sweep::record())
        {
            println!("{line}");
        }
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (details, result) = run(&args);
    println!("{details}");
    println!("{result}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line_flags() {
        let a = parse(&argv(
            "--workload serve_mix --seed 9 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve_mix");
        assert_eq!((a.seed, a.seconds, a.trace), (9, 12.0, true));
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload flow_scale --trace 2")).is_err());
        assert!(parse(&argv("--workload flow_scale --seconds -1")).is_err());
        assert!(parse(&argv("--seed 1")).is_err());
    }

    #[test]
    fn every_catalogued_metric_name_is_legal() {
        for (name, _) in common::LAYERS {
            assert!(metrics::valid_name(name), "{name}");
        }
    }
}
