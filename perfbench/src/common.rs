//! What every workload shares: arguments, one measured pass, the
//! end-to-end metric set, the per-layer catalogue and scratch space.

use crate::metrics::Metric;
use crate::stats::{median, percentile, sorted, tail_percentile};
use hetero3d::obs::alloc;
use std::path::PathBuf;
use std::time::Instant;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Seconds each measured pass gets: all of `--seconds`, or half of
    /// it for each of the two passes of a traced run, so a traced run
    /// takes as long as an untraced one.
    pub fn pass_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Each workload repeats its set-up at least this many times, and
/// until [`SETUP_BUDGET_S`] seconds have gone into it; `setup_s` is the
/// median repetition.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 50;

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPEATS`]) and returns the
/// last result with every repetition's seconds.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::new();
    loop {
        let (out, s) = timed(&mut setup);
        secs.push(s);
        let spent: f64 = secs.iter().sum();
        let enough = secs.len() >= SETUP_MIN_REPEATS && spent >= SETUP_BUDGET_S;
        if enough || secs.len() >= SETUP_MAX_REPEATS {
            return (out, secs);
        }
    }
}

/// Flow worker threads for the single-design workloads.
pub const FLOW_THREADS: usize = 2;

/// One measured pass of a workload.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Latency samples, ms: each result's wait (see [`Op`]), or for the
    /// open loop each response's latency from its due time.
    pub latencies_ms: Vec<f64>,
    /// Work units completed (cells, points, good responses).
    pub work: f64,
    /// Work units per second of each closed-loop operation (0 for a
    /// failed one); empty for the open loop.
    pub op_rates: Vec<f64>,
    /// Wall seconds the pass measured.
    pub wall_s: f64,
    pub attempted: u64,
    /// Failed, refused or reference-mismatched operations.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Heap high-water mark during the pass, MiB.
    pub peak_heap_mb: f64,
    /// What `peak_heap_mb` is, when not the pass's single peak.
    pub heap_base: Option<String>,
}

impl Pass {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    /// Work per second: the median operation's rate for a closed
    /// loop, so a host stall during a few operations does not move it;
    /// work over wall time for the open loop, whose rate is offered.
    pub fn work_per_s(&self) -> f64 {
        if self.op_rates.is_empty() {
            self.work / self.wall_s
        } else {
            median(&self.op_rates)
        }
    }

    pub fn p50_ms(&self) -> f64 {
        median(&self.latencies_ms)
    }

    /// The tail latency at the percentile `min_samples` samples support
    /// (see [`tail_percentile`]), as `(percentile, ms)`.
    pub fn tail_ms(&self, min_samples: usize) -> (f64, f64) {
        let p = tail_percentile(min_samples);
        (p, percentile(&sorted(&self.latencies_ms), p))
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The untraced pass: the end-to-end numbers.
    pub pass: Pass,
    /// With `--trace 1`: the traced set-up seconds and the traced pass.
    pub traced: Option<(f64, Pass)>,
    /// What one unit of `work_per_s` is.
    pub work_unit: &'static str,
    /// What one latency sample times.
    pub op: &'static str,
    /// Latency samples every pass is guaranteed to collect; it fixes the
    /// tail percentile.
    pub min_samples: usize,
    /// The workload's end-to-end numbers under their workload-specific
    /// names (`flow_cells_per_s`, `serve_p99_ms`, ...).
    pub named: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The input properties later optimizations depend on.
    pub properties: Vec<Metric>,
    /// Per-layer numbers nothing published can give, with the reason.
    pub unavailable: Vec<(&'static str, &'static str)>,
    /// Extra environment-header fields.
    pub env: Vec<(&'static str, String)>,
}

/// The input properties a later optimization depends on, reported by
/// every workload under the same names: how often a request's session
/// is already resident, how many grid points share one pseudo-3-D
/// checkpoint, and the checkpoint working set against cache capacity.
pub fn properties(
    resident_key_share: (f64, String),
    points_per_checkpoint: (f64, String),
    working_set_keys: (usize, String),
    cache_slots: usize,
) -> Vec<Metric> {
    vec![
        Metric::new(
            "resident_key_share",
            resident_key_share.0,
            "ratio",
            resident_key_share.1,
            1,
        ),
        Metric::new(
            "points_per_checkpoint",
            points_per_checkpoint.0,
            "ratio",
            points_per_checkpoint.1,
            1,
        ),
        Metric::new(
            "working_set_keys",
            working_set_keys.0 as f64,
            "count",
            working_set_keys.1,
            1,
        ),
        Metric::new(
            "cache_slots",
            cache_slots as f64,
            "count",
            "checkpoint-cache slots the workload's sessions compete for",
            1,
        ),
    ]
}

/// Starts a heap high-water window; read it back with [`peak_mb`].
pub fn heap_window() {
    alloc::reset_peak();
}

pub fn peak_mb() -> f64 {
    alloc::peak_bytes() as f64 / (1024.0 * 1024.0)
}

/// The live-heap high-water mark of each [`HeapWindows::SECONDS`]-long
/// window of a pass. An open loop's single peak is set by whichever
/// moment the most large sessions and requests happened to be in
/// memory at once; the median window's peak is the level the service
/// runs at.
pub struct HeapWindows {
    started: Instant,
    peaks_mb: Vec<f64>,
}

impl HeapWindows {
    const SECONDS: f64 = 1.0;

    pub fn start() -> HeapWindows {
        heap_window();
        HeapWindows {
            started: Instant::now(),
            peaks_mb: Vec::new(),
        }
    }

    /// Closes the current window if it has run its length.
    pub fn tick(&mut self) {
        if self.started.elapsed().as_secs_f64() >= Self::SECONDS {
            self.peaks_mb.push(peak_mb());
            heap_window();
            self.started = Instant::now();
        }
    }

    /// Closes the last window; returns the median window peak and the
    /// number of windows.
    pub fn finish(mut self) -> (f64, usize) {
        self.peaks_mb.push(peak_mb());
        (median(&self.peaks_mb), self.peaks_mb.len())
    }
}

/// Cumulative allocated bytes so far (allocation churn counter).
pub fn churn_bytes() -> u64 {
    alloc::total_allocated_bytes()
}

/// Seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The end-to-end metrics every workload reports: names and units are
/// shared, what one operation is differs by workload (`work_unit`).
pub fn end_to_end(
    setup_s: &[f64],
    pass: &Pass,
    work_unit: &str,
    op: &str,
    min_samples: usize,
) -> Vec<Metric> {
    let (tail_p, tail_ms) = pass.tail_ms(min_samples);
    let n = pass.latencies_ms.len();
    vec![
        Metric::new(
            "setup_s",
            median(setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
            setup_s.len(),
        ),
        Metric::new(
            "work_per_s",
            pass.work_per_s(),
            "1/s",
            if pass.op_rates.is_empty() {
                format!("{work_unit} per wall second")
            } else {
                format!("{work_unit} per second of the median operation")
            },
            n,
        ),
        Metric::new(
            "latency_p50_ms",
            pass.p50_ms(),
            "ms",
            format!("median {op}"),
            n,
        ),
        Metric::new(
            "latency_tail_ms",
            tail_ms,
            "ms",
            format!("p{tail_p} {op}"),
            n,
        ),
        Metric::new(
            "peak_heap_mb",
            pass.peak_heap_mb,
            "MiB",
            pass.heap_base
                .clone()
                .unwrap_or_else(|| "live-heap high-water mark during the pass".into()),
            1,
        ),
    ]
}

/// Every per-layer metric, with its unit, in report order. A traced
/// run reports all of them on every workload; a layer the workload does
/// not exercise reads 0 with the base saying so.
pub const LAYERS: &[(&str, &str)] = &[
    ("netgen.generate_s", "s"),
    ("netgen.materialize_ms", "ms"),
    ("netlist.topology_s", "s"),
    ("flow.prepare_base_s", "s"),
    ("flow.pseudo3d_s", "s"),
    ("flow.pseudo3d_runs", "count"),
    ("flow.pseudo3d_runs_per_scenario", "ratio"),
    ("flow.corner_invariant_share", "ratio"),
    ("place.global_place_s", "s"),
    ("place.legalize_s", "s"),
    ("place.refine_s", "s"),
    ("place.legalize_moved_cells", "count"),
    ("partition.fm_s", "s"),
    ("partition.fm_moves", "count"),
    ("partition.fm_passes", "count"),
    ("partition.final_cut", "count"),
    ("partition.eco_s", "s"),
    ("partition.eco_iterations", "count"),
    ("partition.eco_cells_moved", "count"),
    ("route.route_s", "s"),
    ("route.extract_s", "s"),
    ("route.overflow_edges", "count"),
    ("route.mivs", "count"),
    ("cts.cts_s", "s"),
    ("cts.buffers", "count"),
    ("opt.sizing_s", "s"),
    ("sta.signoff_s", "s"),
    ("sta.partition_sta_s", "s"),
    ("sta.propagated_evals", "count"),
    ("sta.full_rebuilds", "count"),
    ("sta.incremental_updates", "count"),
    ("sta.cache_hit_ratio", "ratio"),
    ("par.threads_resolved", "count"),
    ("alloc.churn_mb", "MiB"),
    ("json.decode_us", "us"),
    ("json.render_us", "us"),
    ("json.decode_churn_bytes", "bytes"),
    ("serve.rtt_ms", "ms"),
    ("serve.engine_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.front_ms", "ms"),
    ("serve.engine_overhead_ms", "ms"),
    ("serve.session_key_ms", "ms"),
    ("serve.rejected_overloaded", "count"),
    ("serve.rejected_deadline", "count"),
    ("serve.failed_flow", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.misses", "count"),
    ("cache.evictions", "count"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.spills", "count"),
    ("store.get_ms", "ms"),
    ("router.sweep_points", "count"),
    ("router.backend_retries", "count"),
    ("router.backend_unavailable", "count"),
    ("router.shard_balance", "ratio"),
    ("router.fanout_ratio", "ratio"),
    ("router.builds_per_key", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.work_per_s", "1/s"),
    ("trace.overhead.latency_p50_ms", "ms"),
    ("trace.overhead.latency_tail_ms", "ms"),
    ("trace.overhead.peak_heap_mb", "MiB"),
];

/// Orders `found` by [`LAYERS`], fills every layer the workload did not
/// produce with an explicit zero, and returns any name `found` has that
/// the catalogue lacks (a bug, reported as a failure).
pub fn complete_layers(found: Vec<Metric>) -> (Vec<Metric>, Vec<String>) {
    let unknown: Vec<String> = found
        .iter()
        .filter(|m| !LAYERS.iter().any(|(n, _)| *n == m.name))
        .map(|m| m.name.clone())
        .collect();
    let all = LAYERS
        .iter()
        .map(|&(name, unit)| {
            found
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    Metric::new(name, 0.0, unit, "not exercised by this workload", 0)
                })
        })
        .collect();
    (all, unknown)
}

/// Traced − untraced difference of each end-to-end metric.
pub fn overhead(untraced: &[Metric], traced: &[Metric]) -> Vec<Metric> {
    untraced
        .iter()
        .zip(traced)
        .map(|(u, t)| {
            Metric::new(
                &format!("trace.overhead.{}", u.name),
                t.value - u.value,
                u.unit,
                format!("traced {} - untraced {}", t.value, u.value),
                t.samples.min(u.samples),
            )
        })
        .collect()
}

/// A scratch directory inside the working directory (the benchmark
/// reads and writes only inside its checkout), removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = PathBuf::from(".bench_tmp").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under .bench_tmp");
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either; fails harmlessly while
        // another scratch directory is still in use.
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// One closed-loop operation's outcome.
pub struct Op {
    /// The wait for each result the operation delivered, ms: one
    /// sample for a single-result operation, one per streamed result
    /// (since the previous one) for a stream.
    pub result_waits_ms: Vec<f64>,
    /// Work units it completed.
    pub work: f64,
    /// `Err` when the operation failed or its output missed its
    /// reference.
    pub check: Result<(), String>,
}

/// Runs `op` back to back until `seconds` have passed and at least
/// `min_ops` operations have run, and folds the outcomes into a
/// [`Pass`]. The floor keeps a loop of long operations at the same
/// sample count (and so the same tail percentile, see
/// [`crate::stats::tail`]) when the host runs slow.
pub fn closed_loop(seconds: f64, min_ops: usize, op: impl FnMut(usize) -> Op) -> Pass {
    run_ops(|i, elapsed_s| i < min_ops.max(1) || elapsed_s < seconds, op)
}

/// Runs exactly `count` operations back to back.
pub fn fixed_loop(count: usize, op: impl FnMut(usize) -> Op) -> Pass {
    run_ops(|i, _| i < count, op)
}

/// Runs operation `i` while `go(i, elapsed seconds)` holds.
fn run_ops(go: impl Fn(usize, f64) -> bool, mut op: impl FnMut(usize) -> Op) -> Pass {
    let mut pass = Pass::default();
    heap_window();
    let start = Instant::now();
    let mut i = 0;
    while go(i, start.elapsed().as_secs_f64()) {
        let (out, secs) = timed(|| op(i));
        pass.attempted += 1;
        pass.latencies_ms.extend(out.result_waits_ms);
        match out.check {
            Ok(()) => {
                pass.work += out.work;
                pass.op_rates.push(out.work / secs);
            }
            Err(why) => {
                pass.fail(why);
                pass.op_rates.push(0.0);
            }
        }
        i += 1;
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.peak_heap_mb = peak_mb();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_rate_is_the_median_operation() {
        let mut closed = Pass {
            work: 30.0,
            wall_s: 10.0,
            op_rates: vec![10.0, 1.0, 9.0],
            ..Pass::default()
        };
        assert_eq!(closed.work_per_s(), 9.0);
        closed.op_rates.clear();
        assert_eq!(closed.work_per_s(), 3.0);
    }

    #[test]
    fn a_failed_operation_counts_as_zero_rate() {
        let mut n = 0;
        let pass = fixed_loop(3, |_| {
            n += 1;
            Op {
                result_waits_ms: vec![1.0],
                work: 5.0,
                check: if n == 2 {
                    Err("mismatch".into())
                } else {
                    Ok(())
                },
            }
        });
        assert_eq!((pass.attempted, pass.failed, pass.work), (3, 1, 10.0));
        assert_eq!(pass.op_rates.iter().filter(|&&r| r == 0.0).count(), 1);
    }
}
