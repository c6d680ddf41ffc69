//! The design-space grid — configurations × stacking styles × sign-off
//! corners × a frequency grid — and the one executor every grid runs
//! through.
//!
//! A [`SweepSpec`] is the wire description of a grid a client wants
//! explored. Its defining property is that the grid **decomposes**: every
//! point is exactly equivalent to one v1 `run_flow` request whose options
//! carry the point's technology scenario. The flow service exploits that
//! to fan a v2 sweep out across its worker pool as individually
//! schedulable jobs; in-process, [`sweep_from_base`] and
//! [`crate::pareto_from_base`] both run their grid through
//! [`run_grid`], bit-identical to running the decomposed points one by
//! one.
//!
//! [`run_grid`] shares everything a point does not depend on:
//!
//! * **One pseudo-3-D checkpoint per design.** The pseudo-3-D stage reads
//!   only the netlist, `utilization` and the placer options, so every
//!   3-D point forks the caller's one checkpoint.
//! * **One trajectory per (stacking, configuration, frequency).** A
//!   corner changes only the sign-off and the ECO loop's stop decision,
//!   so each trajectory is implemented once with every corner of the
//!   grid riding along as an observer, each with its own sign-off and
//!   its own ECO tail.
//!
//! The `flow/trajectories` counter records the trajectory count
//! (`stacking × configs × steps`). Point order is deterministic:
//! stacking styles in spec order, corners within a style, configurations
//! within a corner, the frequency grid ascending innermost.

use crate::config::{Config, FlowOptions};
use crate::error::FlowError;
use crate::flow::Implementation;
use crate::stage::{run_observed, BaseDesign, PseudoCheckpoint};
use crate::wire::PpacSummary;
use m3d_cost::CostModel;
use m3d_json::DecodeError;
use m3d_tech::{Corner, CornerSet, StackingStyle, TechContext};

/// Largest accepted frequency-grid size. A cap keeps a single malformed
/// request from occupying the worker pool indefinitely.
pub const MAX_PARETO_STEPS: usize = 64;

/// Largest accepted sweep size in grid points. A sweep fans out one full
/// implementation per point; the cap keeps a single request from
/// occupying the cluster indefinitely.
pub const MAX_SWEEP_POINTS: usize = 1_024;

/// A design-space grid: the cross product of every axis, swept at a
/// shared frequency grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Configurations to implement at every scenario point.
    pub configs: Vec<Config>,
    /// Stacking styles (the outer scenario axis).
    pub stacking: Vec<StackingStyle>,
    /// Sign-off corners (the inner scenario axis).
    pub corners: Vec<Corner>,
    /// Lower frequency bound, GHz.
    pub freq_min_ghz: f64,
    /// Upper frequency bound, GHz.
    pub freq_max_ghz: f64,
    /// Frequency-grid size (1..=[`MAX_PARETO_STEPS`], endpoints
    /// inclusive).
    pub freq_steps: usize,
}

/// One grid point of a sweep, in the spec's deterministic order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Position in the sweep's point order (the streamed point index).
    pub index: usize,
    /// Configuration to implement.
    pub config: Config,
    /// Stacking style of the point's scenario.
    pub stacking: StackingStyle,
    /// Sign-off corner of the point's scenario.
    pub corner: Corner,
    /// Target clock frequency, GHz.
    pub frequency_ghz: f64,
}

impl SweepPoint {
    /// The point's technology scenario — what its options' `tech` field
    /// carries after decomposition.
    #[must_use]
    pub fn tech(&self) -> TechContext {
        TechContext {
            stacking: self.stacking,
            corners: CornerSet::single(self.corner),
        }
    }
}

fn has_duplicates<T: PartialEq>(items: &[T]) -> bool {
    items
        .iter()
        .enumerate()
        .any(|(i, a)| items[..i].contains(a))
}

impl SweepSpec {
    /// The Pareto grid of one configuration: every stacking style for a
    /// 3-D configuration, monolithic only for 2-D (a 2-D die has no
    /// inter-tier interface, so the styles would produce identical
    /// points), each signed off at every corner.
    #[must_use]
    pub fn pareto(config: Config, freq_min_ghz: f64, freq_max_ghz: f64, freq_steps: usize) -> Self {
        SweepSpec {
            configs: vec![config],
            stacking: if config.is_3d() {
                StackingStyle::ALL.to_vec()
            } else {
                vec![StackingStyle::Monolithic]
            },
            corners: Corner::ALL.to_vec(),
            freq_min_ghz,
            freq_max_ghz,
            freq_steps,
        }
    }

    /// The evenly spaced frequency grid, ascending and endpoint
    /// inclusive. One step collapses to the lower bound.
    #[must_use]
    pub fn frequencies(&self) -> Vec<f64> {
        let (lo, hi, steps) = (self.freq_min_ghz, self.freq_max_ghz, self.freq_steps);
        if steps == 1 {
            return vec![lo];
        }
        (0..steps)
            .map(|i| lo + (hi - lo) * i as f64 / (steps - 1) as f64)
            .collect()
    }

    /// Total number of grid points.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.stacking.len() * self.corners.len() * self.configs.len() * self.freq_steps
    }

    /// Every grid point, indexed, in deterministic scenario-major order.
    #[must_use]
    pub fn points(&self) -> Vec<SweepPoint> {
        let freqs = self.frequencies();
        let mut out = Vec::with_capacity(self.point_count());
        for &stacking in &self.stacking {
            for &corner in &self.corners {
                for &config in &self.configs {
                    for &frequency_ghz in &freqs {
                        out.push(SweepPoint {
                            index: out.len(),
                            config,
                            stacking,
                            corner,
                            frequency_ghz,
                        });
                    }
                }
            }
        }
        out
    }

    /// Checks the grid against the bounds the wire decoder and the
    /// service enforce at admission: non-empty duplicate-free axes, a
    /// well-formed frequency grid, and a total point count within
    /// [`MAX_SWEEP_POINTS`].
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] naming the out-of-range member with a
    /// request-relative path (e.g. `command/configs`).
    pub fn validate(&self) -> Result<(), DecodeError> {
        for (path, empty, dup) in [
            (
                "command/configs",
                self.configs.is_empty(),
                has_duplicates(&self.configs),
            ),
            (
                "command/stacking",
                self.stacking.is_empty(),
                has_duplicates(&self.stacking),
            ),
            (
                "command/corners",
                self.corners.is_empty(),
                has_duplicates(&self.corners),
            ),
        ] {
            if empty || dup {
                return Err(DecodeError::new(
                    path,
                    "a non-empty list without duplicates",
                ));
            }
        }
        let bounds_ok = self.freq_min_ghz.is_finite()
            && self.freq_max_ghz.is_finite()
            && self.freq_min_ghz > 0.0
            && self.freq_max_ghz >= self.freq_min_ghz;
        if !bounds_ok {
            return Err(DecodeError::new(
                "command/freq_min_ghz",
                "positive finite bounds with freq_max_ghz >= freq_min_ghz",
            ));
        }
        if !(1..=MAX_PARETO_STEPS).contains(&self.freq_steps) {
            return Err(DecodeError::new(
                "command/freq_steps",
                format!("an integer in 1..={MAX_PARETO_STEPS}"),
            ));
        }
        if self.point_count() > MAX_SWEEP_POINTS {
            return Err(DecodeError::new(
                "command",
                format!("a sweep of at most {MAX_SWEEP_POINTS} points"),
            ));
        }
        Ok(())
    }
}

/// Runs every point of `spec` off `base` and returns
/// `roll_up(point, implementation)` per point, in point order.
///
/// Each `(stacking, configuration, frequency)` triple is one trajectory
/// under a `<label>/<config>-<style>-f<k>` telemetry scope, observed at
/// every corner of the grid; 3-D trajectories fork `pseudo` (or build
/// their own when it is `None`). Trajectories fan out through
/// [`m3d_par::par_invoke`], whose input-order results make the point
/// list bit-identical at any thread count, and each point is
/// bit-identical to a standalone run with that point's options.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSweep`] for a malformed grid and
/// propagates the first failing trajectory's error.
pub fn run_grid<T, R>(
    base: &BaseDesign,
    pseudo: Option<&PseudoCheckpoint>,
    spec: &SweepSpec,
    options: &FlowOptions,
    label: &str,
    roll_up: R,
) -> Result<Vec<T>, FlowError>
where
    T: Send,
    R: Fn(&SweepPoint, &Implementation) -> T + Sync,
{
    if spec.validate().is_err() {
        return Err(FlowError::InvalidSweep {
            freq_min_ghz: spec.freq_min_ghz,
            freq_max_ghz: spec.freq_max_ghz,
            freq_steps: spec.freq_steps,
        });
    }
    let _span = options.obs.span(label);
    let points = spec.points();
    let freqs = spec.frequencies();
    let observers: Vec<CornerSet> = spec.corners.iter().map(|&c| CornerSet::single(c)).collect();
    let (n_corners, n_configs, n_freqs) = (spec.corners.len(), spec.configs.len(), freqs.len());
    // Trajectory `(s, g, k)` observed at corner `c` is point
    // `((s·corners + c)·configs + g)·steps + k`.
    let point_of = |(s, g, k): (usize, usize, usize), c: usize| {
        ((s * n_corners + c) * n_configs + g) * n_freqs + k
    };
    let mut trajectories = Vec::with_capacity(spec.stacking.len() * n_configs * n_freqs);
    for s in 0..spec.stacking.len() {
        for g in 0..n_configs {
            for k in 0..n_freqs {
                trajectories.push((s, g, k));
            }
        }
    }
    let jobs: Vec<_> = trajectories
        .iter()
        .map(|&(s, g, k)| {
            let (stacking, config) = (spec.stacking[s], spec.configs[g]);
            let mut o = options.fork_for(&format!("{label}/{config:?}-{stacking}-f{k}"));
            o.tech.stacking = stacking;
            let pseudo = if config.is_3d() { pseudo } else { None };
            let (f, observers, points, roll_up) = (freqs[k], &observers, &points, &roll_up);
            move || -> Result<Vec<T>, FlowError> {
                let imps = run_observed(base, pseudo, config, f, &o, observers)?;
                Ok(imps
                    .iter()
                    .enumerate()
                    .map(|(c, imp)| roll_up(&points[point_of((s, g, k), c)], imp))
                    .collect())
            }
        })
        .collect();
    options
        .obs
        .counter_add("flow/trajectories", trajectories.len() as u64);
    let mut out: Vec<Option<T>> = points.iter().map(|_| None).collect();
    for (&t, result) in trajectories
        .iter()
        .zip(m3d_par::par_invoke(options.threads, jobs))
    {
        for (c, value) in result?.into_iter().enumerate() {
            out[point_of(t, c)] = Some(value);
        }
    }
    Ok(out
        .into_iter()
        .map(|v| v.expect("every point lies on one trajectory"))
        .collect())
}

/// Executes a whole sweep off an already-prepared base (and, when the
/// grid holds a 3-D configuration, its pseudo-3-D checkpoint) and
/// returns one PPAC roll-up per grid point, in point order — each
/// bit-identical to executing the decomposed v1 single-shot request.
///
/// # Errors
///
/// Returns [`FlowError::InvalidSweep`] for a malformed grid and
/// propagates the first failure of any trajectory.
pub fn sweep_from_base(
    base: &BaseDesign,
    pseudo: Option<&PseudoCheckpoint>,
    spec: &SweepSpec,
    options: &FlowOptions,
    cost: &CostModel,
) -> Result<Vec<PpacSummary>, FlowError> {
    let points = run_grid(base, pseudo, spec, options, "sweep", |_, imp| {
        PpacSummary::from(&imp.ppac(cost))
    })?;
    options.obs.counter_add("sweep/points", points.len() as u64);
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> SweepSpec {
        SweepSpec {
            configs: vec![Config::Hetero3d, Config::TwoD12T],
            stacking: vec![StackingStyle::Monolithic, StackingStyle::F2fHybridBond],
            corners: vec![Corner::Typical, Corner::Slow],
            freq_min_ghz: 0.8,
            freq_max_ghz: 1.2,
            freq_steps: 3,
        }
    }

    #[test]
    fn points_enumerate_scenario_major_with_ascending_frequencies() {
        let s = spec();
        let points = s.points();
        assert_eq!(points.len(), s.point_count());
        assert_eq!(points.len(), 2 * 2 * 2 * 3);
        assert!(points.iter().enumerate().all(|(i, p)| p.index == i));
        // Scenario-major: the first scenario's points come first.
        let first = &points[..6];
        assert!(first
            .iter()
            .all(|p| p.stacking == StackingStyle::Monolithic && p.corner == Corner::Typical));
        // Frequencies ascend innermost, per config.
        assert_eq!(points[0].config, Config::Hetero3d);
        assert_eq!(points[0].frequency_ghz, 0.8);
        assert_eq!(points[2].frequency_ghz, 1.2);
        assert_eq!(points[3].config, Config::TwoD12T);
        // Scenario order is stacking-outer, corners inner.
        let scenarios: Vec<(StackingStyle, Corner)> = points
            .iter()
            .step_by(6)
            .map(|p| (p.stacking, p.corner))
            .collect();
        assert_eq!(
            scenarios,
            vec![
                (StackingStyle::Monolithic, Corner::Typical),
                (StackingStyle::Monolithic, Corner::Slow),
                (StackingStyle::F2fHybridBond, Corner::Typical),
                (StackingStyle::F2fHybridBond, Corner::Slow),
            ]
        );
    }

    #[test]
    fn validation_rejects_malformed_axes_and_grids() {
        assert!(spec().validate().is_ok());
        let mut s = spec();
        s.configs.clear();
        assert_eq!(s.validate().unwrap_err().path, "command/configs");
        let mut s = spec();
        s.stacking.push(StackingStyle::Monolithic);
        assert_eq!(s.validate().unwrap_err().path, "command/stacking");
        let mut s = spec();
        s.corners = vec![Corner::Fast, Corner::Fast];
        assert_eq!(s.validate().unwrap_err().path, "command/corners");
        let mut s = spec();
        s.freq_min_ghz = -1.0;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_min_ghz");
        let mut s = spec();
        s.freq_max_ghz = 0.5;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_min_ghz");
        let mut s = spec();
        s.freq_steps = 0;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_steps");
        let mut s = spec();
        s.freq_steps = MAX_PARETO_STEPS + 1;
        assert_eq!(s.validate().unwrap_err().path, "command/freq_steps");
    }

    #[test]
    fn oversized_sweeps_are_rejected_at_the_command_path() {
        // The full duplicate-free grid — 5 configs × 2 styles × 3
        // corners × 64 steps = 1920 points — exceeds the cap.
        let oversized = SweepSpec {
            configs: Config::ALL.to_vec(),
            stacking: StackingStyle::ALL.to_vec(),
            corners: Corner::ALL.to_vec(),
            freq_min_ghz: 0.8,
            freq_max_ghz: 1.2,
            freq_steps: MAX_PARETO_STEPS,
        };
        assert!(oversized.point_count() > MAX_SWEEP_POINTS);
        let err = oversized.validate().unwrap_err();
        assert_eq!(err.path, "command");
        // Trimming the frequency grid brings it back under the cap.
        let trimmed = SweepSpec {
            freq_steps: 32,
            ..oversized
        };
        assert!(trimmed.validate().is_ok());
    }

    #[test]
    fn two_d_configs_sweep_only_the_monolithic_style() {
        let s2 = SweepSpec::pareto(Config::TwoD12T, 0.8, 1.2, 2);
        assert_eq!(s2.corners, Corner::ALL);
        assert_eq!(s2.stacking, [StackingStyle::Monolithic]);
        let s3 = SweepSpec::pareto(Config::Hetero3d, 0.8, 1.2, 2);
        assert_eq!(
            s3.stacking.len() * s3.corners.len(),
            StackingStyle::ALL.len() * Corner::ALL.len()
        );
    }

    #[test]
    fn frequency_grid_is_even_and_inclusive() {
        let grid = |steps| SweepSpec::pareto(Config::Hetero3d, 0.8, 1.2, steps).frequencies();
        assert_eq!(grid(1), vec![0.8]);
        let g = grid(5);
        assert_eq!(g.len(), 5);
        assert_eq!(g[0], 0.8);
        assert_eq!(g[4], 1.2);
        assert!(g.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn malformed_sweeps_are_rejected() {
        // Rejection happens before any work, so an empty base suffices.
        let base = BaseDesign {
            netlist: std::sync::Arc::new(m3d_netlist::Netlist::new("empty")),
        };
        let bad = [
            (0.0, 1.0, 4),
            (-1.0, 1.0, 4),
            (f64::NAN, 1.0, 4),
            (1.0, f64::INFINITY, 4),
            (1.2, 0.8, 4),
            (0.8, 1.2, 0),
            (0.8, 1.2, MAX_PARETO_STEPS + 1),
        ];
        for (lo, hi, steps) in bad {
            let spec = SweepSpec::pareto(Config::Hetero3d, lo, hi, steps);
            assert!(
                matches!(
                    sweep_from_base(
                        &base,
                        None,
                        &spec,
                        &FlowOptions::default(),
                        &CostModel::default()
                    ),
                    Err(FlowError::InvalidSweep { .. })
                ),
                "({lo}, {hi}, {steps}) must be rejected"
            );
        }
        assert!(SweepSpec::pareto(Config::Hetero3d, 1.0, 1.0, 1)
            .validate()
            .is_ok());
    }
}
