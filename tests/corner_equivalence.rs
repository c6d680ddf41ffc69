//! Equivalence tests for the technology axis: multi-corner sign-off and
//! the stacking × corner × frequency Pareto sweep.
//!
//! The contracts under test:
//!
//! * **Default-scenario identity** — a monolithic worst-corner run is
//!   the *same physical design* as the default run (placement, tiers,
//!   routing, power all bit-identical); corners are additional sign-off
//!   analyses, never a different implementation.
//! * **Worst-corner sign-off** — the worst corner's analysis equals the
//!   corresponding single-corner run bit for bit, and is never more
//!   optimistic than typical.
//! * **Thread invariance** — worst-corner sign-off and the whole Pareto
//!   sweep are bit-identical at any thread count, like every other
//!   output of the flow.
//! * **Checkpoint economics** — a Pareto sweep runs the pseudo-3-D
//!   stage once per design and one implementation trajectory per
//!   stacking style × frequency, regardless of the corner count.
//! * **Sharing is invisible** — every point of a grouped grid, whose
//!   corners share one trajectory, equals the standalone run with that
//!   point's options bit for bit, ECO outcome included.

use hetero3d::cost::CostModel;
use hetero3d::flow::{
    pseudo_checkpoint, run_grid, try_run_flow, Config, FlowCommand, FlowOptions, FlowReport,
    FlowSession, Implementation, PpacSummary, SweepPoint, SweepSpec,
};
use hetero3d::netgen::Benchmark;
use hetero3d::netlist::Netlist;
use hetero3d::obs::Obs;
use hetero3d::tech::{Corner, CornerSet, StackingStyle, TechContext, Tier};

fn quick_options(threads: usize, tech: TechContext) -> FlowOptions {
    let mut o = FlowOptions::default();
    o.placer_mut().iterations = 6;
    o.threads = threads;
    o.tech = tech;
    o
}

fn tech(stacking: StackingStyle, corners: CornerSet) -> TechContext {
    TechContext { stacking, corners }
}

/// Exact fingerprint of the physical design, sign-off excluded: any
/// scenario that claims to be "the same implementation, analyzed
/// differently" must match on all of these bits.
fn design_fingerprint(imp: &Implementation) -> (u64, u64, Vec<Tier>) {
    (
        imp.routing.total_wirelength_um.to_bits(),
        imp.power.total_mw().to_bits(),
        imp.tiers.to_vec(),
    )
}

#[test]
fn monolithic_worst_corner_run_is_the_same_design_as_the_default_run() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let default_run = try_run_flow(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0, TechContext::default()),
    )
    .expect("default flow");
    let worst_run = try_run_flow(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0, tech(StackingStyle::Monolithic, CornerSet::Worst)),
    )
    .expect("worst-corner flow");
    // Same placement, tiers, routing and (typical-corner) power: extra
    // sign-off corners never perturb the implementation itself.
    assert_eq!(
        design_fingerprint(&default_run),
        design_fingerprint(&worst_run),
        "worst-corner sign-off changed the physical design"
    );
    // The worst-corner sign-off may only be equal or more pessimistic.
    assert!(
        worst_run.sta.wns <= default_run.sta.wns,
        "worst corner ({}) more optimistic than typical ({})",
        worst_run.sta.wns,
        default_run.sta.wns
    );
}

#[test]
fn worst_corner_signoff_equals_the_slow_single_corner_run() {
    // The slow corner dominates this workload (derated supply, raised
    // threshold), so worst-corner sign-off must reproduce the dedicated
    // slow-corner run's analysis bit for bit.
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let worst = try_run_flow(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(0, tech(StackingStyle::Monolithic, CornerSet::Worst)),
    )
    .expect("worst-corner flow");
    let slow = try_run_flow(
        &netlist,
        Config::Hetero3d,
        1.0,
        &quick_options(
            0,
            tech(StackingStyle::Monolithic, CornerSet::single(Corner::Slow)),
        ),
    )
    .expect("slow-corner flow");
    assert_eq!(
        worst.sta.wns.to_bits(),
        slow.sta.wns.to_bits(),
        "worst-corner sign-off diverged from the slow-corner analysis"
    );
    assert_eq!(design_fingerprint(&worst), design_fingerprint(&slow));
}

#[test]
fn worst_corner_signoff_is_bit_identical_across_thread_counts() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    for stacking in StackingStyle::ALL {
        let run = |threads: usize| {
            try_run_flow(
                &netlist,
                Config::Hetero3d,
                1.0,
                &quick_options(threads, tech(stacking, CornerSet::Worst)),
            )
            .expect("worst-corner flow")
        };
        let base = run(1);
        for threads in [2usize, 4] {
            let par = run(threads);
            assert_eq!(
                base.sta.wns.to_bits(),
                par.sta.wns.to_bits(),
                "{stacking}: threads={threads} sign-off diverged from threads=1"
            );
            assert_eq!(
                design_fingerprint(&base),
                design_fingerprint(&par),
                "{stacking}: threads={threads} design diverged from threads=1"
            );
        }
    }
}

#[test]
fn stacking_style_reaches_the_signoff_and_the_cost_model() {
    // F2F hybrid bonding has its own via RC and a different die-cost
    // model (wafer-bond adder + per-connection cost instead of the
    // monolithic sequential-process premium); if the style were
    // silently dropped anywhere along the options → stages → PPAC
    // chain, these would come back bit-equal.
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let cost = CostModel::default();
    let at = |stacking| {
        let imp = try_run_flow(
            &netlist,
            Config::Hetero3d,
            1.0,
            &quick_options(0, tech(stacking, CornerSet::default())),
        )
        .expect("flow");
        imp.ppac(&cost)
    };
    let mono = at(StackingStyle::Monolithic);
    let f2f = at(StackingStyle::F2fHybridBond);
    assert_ne!(
        f2f.die_cost_uc.to_bits(),
        mono.die_cost_uc.to_bits(),
        "f2f bond economics did not reach the cost model"
    );
    assert_ne!(
        f2f.effective_delay_ns.to_bits(),
        mono.effective_delay_ns.to_bits(),
        "f2f via RC did not reach the sign-off timing"
    );
}

fn pareto_session(netlist: &Netlist, threads: usize) -> FlowSession {
    let mut options = FlowOptions::default();
    options.placer_mut().iterations = 6;
    options.threads = threads;
    options.obs = Obs::enabled();
    FlowSession::builder(netlist)
        .options(options)
        .build()
        .expect("session")
}

fn pseudo3d_runs(obs: &Obs) -> u64 {
    obs.manifest()
        .counters
        .iter()
        .filter(|(k, _)| k == "flow/pseudo3d_runs" || k.ends_with("/flow/pseudo3d_runs"))
        .map(|&(_, v)| v)
        .sum()
}

#[test]
fn pareto_sweep_is_bit_identical_across_thread_counts() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let cost = CostModel::default();
    let sweep = |threads: usize| {
        pareto_session(&netlist, threads)
            .pareto(Config::Hetero3d, 0.9, 1.1, 2, &cost)
            .expect("pareto sweep")
    };
    let base = sweep(1);
    for threads in [2usize, 4] {
        assert_eq!(
            base,
            sweep(threads),
            "pareto sweep diverged at threads={threads}"
        );
    }
}

fn trajectories(obs: &Obs) -> u64 {
    obs.manifest().counter("flow/trajectories").unwrap_or(0)
}

#[test]
fn pareto_reuses_one_pseudo_checkpoint_per_scenario() {
    let netlist = Benchmark::Aes.generate(0.01, 7);
    let cost = CostModel::default();

    // 3-D: both stacking styles × all corners, three frequency rungs —
    // yet one pseudo-3-D run for the design, and one trajectory per
    // stacking style × frequency shared by all corners.
    let session = pareto_session(&netlist, 0);
    let summary = session
        .pareto(Config::Hetero3d, 0.9, 1.1, 3, &cost)
        .expect("pareto sweep");
    let scenarios = (StackingStyle::ALL.len() * Corner::ALL.len()) as u64;
    assert_eq!(summary.points.len() as u64, scenarios * 3);
    assert_eq!(
        pseudo3d_runs(&session.options().obs),
        1,
        "pseudo-3-D stage must run once per design, never per scenario or grid point"
    );
    assert_eq!(
        trajectories(&session.options().obs),
        StackingStyle::ALL.len() as u64 * 3,
        "one trajectory per stacking style x frequency"
    );
    assert!(summary.frontier().count() >= 1, "non-empty frontier");

    // 2-D: monolithic only, no pseudo-3-D stage at all.
    let session2d = pareto_session(&netlist, 0);
    let summary2d = session2d
        .pareto(Config::TwoD12T, 0.9, 1.1, 2, &cost)
        .expect("2-D pareto sweep");
    assert_eq!(summary2d.points.len(), Corner::ALL.len() * 2);
    assert!(summary2d
        .points
        .iter()
        .all(|p| p.stacking == StackingStyle::Monolithic));
    assert_eq!(
        pseudo3d_runs(&session2d.options().obs),
        0,
        "a 2-D sweep has no pseudo-3-D stage"
    );
    assert_eq!(trajectories(&session2d.options().obs), 2);
}

/// What a grid point must reproduce bit for bit: the PPAC roll-up and
/// the full ECO outcome, as their round-tripping `Debug` renderings.
fn point_bits(imp: &Implementation) -> (PpacSummary, String) {
    let ppac = PpacSummary::from(&imp.ppac(&CostModel::default()));
    let bits = format!("{ppac:?} {:?}", imp.eco);
    (ppac, bits)
}

/// The standalone run with `point`'s options.
fn standalone(netlist: &Netlist, point: &SweepPoint, threads: usize) -> (PpacSummary, String) {
    let imp = try_run_flow(
        netlist,
        point.config,
        point.frequency_ghz,
        &quick_options(threads, point.tech()),
    )
    .expect("standalone flow");
    point_bits(&imp)
}

#[test]
fn grouped_grid_points_equal_standalone_runs_bit_for_bit() {
    // At 2 GHz this design's slow corner keeps the ECO loop going after
    // typical and fast have stopped, so one trajectory freezes its
    // corners at different rounds.
    let netlist = Benchmark::Aes.generate(0.015, 5);
    let cost = CostModel::default();
    let pareto = SweepSpec::pareto(Config::Hetero3d, 1.8, 2.0, 2);
    let sweep = SweepSpec {
        configs: vec![Config::Hetero3d, Config::ThreeD9T, Config::TwoD12T],
        stacking: StackingStyle::ALL.to_vec(),
        corners: Corner::ALL.to_vec(),
        freq_min_ghz: 2.0,
        freq_max_ghz: 2.0,
        freq_steps: 1,
    };
    for threads in [1usize, 4] {
        let options = quick_options(threads, TechContext::default());
        let session = FlowSession::builder(&netlist)
            .options(options.clone())
            .build()
            .expect("session");
        let pseudo = pseudo_checkpoint(session.base(), &options).expect("pseudo-3-D");
        for spec in [&pareto, &sweep] {
            let grouped = run_grid(
                session.base(),
                Some(&pseudo),
                spec,
                &options,
                "grid",
                |p, imp| {
                    (
                        *p,
                        point_bits(imp).1,
                        imp.eco.as_ref().map(|e| e.iterations),
                    )
                },
            )
            .expect("grouped grid");
            assert_eq!(grouped.len(), spec.point_count());
            let mut singles = Vec::with_capacity(grouped.len());
            for (point, bits, _) in &grouped {
                let (ppac, single) = standalone(&netlist, point, threads);
                assert_eq!(
                    bits, &single,
                    "{point:?} at threads={threads} diverged from its standalone run"
                );
                singles.push(ppac);
            }
            // Not vacuous: two corners of one trajectory stopped the ECO
            // loop at different rounds (their ECO iteration counts are
            // prefix sums over the rounds each one watched).
            let split = grouped.iter().any(|(a, _, ea)| {
                grouped.iter().any(|(b, _, eb)| {
                    (a.config, a.stacking, a.frequency_ghz.to_bits())
                        == (b.config, b.stacking, b.frequency_ghz.to_bits())
                        && ea.is_some()
                        && ea != eb
                })
            });
            assert!(
                split,
                "no trajectory froze its corners at different ECO rounds"
            );

            // The public commands run the same executor.
            if spec == &pareto {
                let summary = session
                    .pareto(Config::Hetero3d, 1.8, 2.0, 2, &cost)
                    .expect("pareto");
                for (p, s) in summary.points.iter().zip(&singles) {
                    let point = [
                        p.frequency_ghz,
                        p.total_power_mw,
                        p.effective_delay_ns,
                        p.die_cost_uc,
                        p.pdp_pj,
                        p.ppc,
                        p.wns_ns,
                    ];
                    let single = [
                        s.frequency_ghz,
                        s.total_power_mw,
                        s.effective_delay_ns,
                        s.die_cost_uc,
                        s.pdp_pj,
                        s.ppc,
                        s.wns_ns,
                    ];
                    assert_eq!(
                        point.map(f64::to_bits),
                        single.map(f64::to_bits),
                        "pareto point {p:?} at threads={threads}"
                    );
                }
            } else {
                let FlowReport::Sweep { points } = session
                    .execute(&FlowCommand::Sweep {
                        spec: sweep.clone(),
                    })
                    .expect("sweep")
                else {
                    panic!("expected a sweep report")
                };
                assert_eq!(
                    format!("{points:?}"),
                    format!("{singles:?}"),
                    "sweep report at threads={threads}"
                );
            }
        }
    }
}
