//! Integration tests for the extension layers: exhaustive model checking,
//! fault-recovery reporting, non-uniform schedulers, loose stabilisation,
//! and the distributional analysis toolkit — exercised together through
//! the umbrella `ssr` crate, the way a downstream user would.

// Audited: tests cast tiny bounded f64/u64 values (n <= 10^4) to usize/u32.
#![allow(clippy::cast_possible_truncation)]

use ssr::analysis::bootstrap::{median_ci, BootstrapOptions};
use ssr::analysis::modelcheck::ModelCheckError;
use ssr::engine::faults::{rank_distance, recovery_after_faults};
use ssr::prelude::*;

// ---------------------------------------------------------------------
// Model checking across the whole protocol family.
// ---------------------------------------------------------------------

#[test]
fn every_protocol_family_member_is_certified_stable() {
    let limit = 3_000_000;
    let gen = GenericRanking::new(6);
    let ring = RingOfTraps::new(6);
    let line = LineOfTraps::new(6);
    let tree = TreeRanking::with_buffer(5, 2);

    for (name, cert) in [
        ("generic", verify_stability(&gen, limit).unwrap()),
        ("ring", verify_stability(&ring, limit).unwrap()),
        ("line", verify_stability(&line, limit).unwrap()),
        ("tree", verify_stability(&tree, limit).unwrap()),
    ] {
        assert_eq!(
            cert.silent_configurations, 1,
            "{name}: the perfect ranking must be the unique silent config"
        );
        assert!(cert.configurations > 1, "{name}");
    }
}

#[test]
fn model_checker_counts_the_full_multiset_space() {
    // C(n + S - 1, n) for A_G with n = S = 6: C(11, 6) = 462.
    let cert = verify_stability(&GenericRanking::new(6), 10_000).unwrap();
    assert_eq!(cert.configurations, 462);
}

#[test]
fn loose_protocol_fails_silence_checks_as_documented() {
    // The loose protocol is *not* a ranking protocol: the model checker
    // must reject it (its "perfect ranking" — all states distinct — is
    // not silent because timers keep churning).
    let p = LooseLeaderElection::with_timer(4, 2);
    let err = verify_stability(&p, 100_000).unwrap_err();
    assert!(matches!(
        err,
        ModelCheckError::PerfectRankingNotSilent | ModelCheckError::SilentNotRanked { .. }
    ));
}

// ---------------------------------------------------------------------
// Fault recovery across protocols.
// ---------------------------------------------------------------------

/// The counts right after `recovery_after_faults`' time-zero burst: the
/// same engine and fault stream, run with a zero horizon so only the
/// burst fires.
fn counts_after_burst(p: &dyn InteractionSchema, f: u32, seed: u64) -> Vec<u32> {
    let n = p.population_size();
    let mut perfect = vec![0u32; p.num_states()];
    perfect[..n].fill(1);
    let mut engine = make_engine_from_counts(EngineKind::Auto, p, perfect, seed, 1).unwrap();
    run_with_plan(engine.as_mut(), &FaultPlan::once(f), seed ^ 0x5eed_f417, 0);
    engine.counts().to_vec()
}

/// Agents a burst moved out of the perfect ranking of `n` agents: half
/// the L1 distance between the occupancy vectors.
fn agents_moved(counts: &[u32], n: usize) -> usize {
    let perfect = |s: usize| u32::from(s < n);
    let l1: u32 = counts
        .iter()
        .enumerate()
        .map(|(s, &c)| c.abs_diff(perfect(s)))
        .sum();
    l1 as usize / 2
}

#[test]
fn all_protocols_recover_from_fault_bursts() {
    let n = 36;
    let gen = GenericRanking::new(n);
    let ring = RingOfTraps::new(n);
    let tree = TreeRanking::new(n);
    for f in [1u32, 5, 18] {
        for (name, p) in [
            ("generic", &gen as &dyn InteractionSchema),
            ("ring", &ring),
            ("tree", &tree),
        ] {
            let outcome = recovery_after_faults(p, f, 7, u64::MAX);
            assert!(outcome.silent, "{name}");
            let applied = agents_moved(&counts_after_burst(p, f, 7), n);
            assert!(applied <= f as usize, "{name}");
            assert!(outcome.bursts[0].k_after <= applied, "{name}");
        }
    }
}

#[test]
fn fault_distance_matches_paper_k_distance_definition() {
    // Build an explicitly k-distant configuration and cross-check the
    // faults module's distance against init::distance.
    let n = 24;
    let mut rng = Xoshiro256::seed_from_u64(3);
    for k in [0usize, 1, 5, 12] {
        let cfg = init::k_distant(n, k, ssr::engine::init::DuplicatePlacement::Random, &mut rng);
        let counts = init::counts(&cfg, n);
        assert_eq!(rank_distance(&counts, n), k);
        assert_eq!(init::distance(&cfg, n), k);
    }
}

// ---------------------------------------------------------------------
// Scheduler robustness: correctness is scheduler-independent.
// ---------------------------------------------------------------------

fn stabilises_under<S: Scheduler>(p: &dyn Protocol, sched: S, seed: u64) {
    let n = p.population_size();
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let start = init::uniform_random(n, p.num_states(), &mut rng);
    let describe = sched.describe();
    let mut sim = Simulation::new(p, start, seed).unwrap().with_scheduler(sched);
    sim.run_until_silent(u64::MAX)
        .unwrap_or_else(|e| panic!("{} under {describe}: {e}", p.name()));
    assert!(init::is_perfect_ranking(sim.agents(), n));
}

#[test]
fn generic_stabilises_under_skewed_schedulers() {
    let p = GenericRanking::new(24);
    stabilises_under(&p, ZipfScheduler::new(24, 1.0), 11);
    stabilises_under(&p, ClusteredScheduler::new(24, 12, 0.05), 12);
}

#[test]
fn ring_stabilises_under_skewed_schedulers() {
    let p = RingOfTraps::new(24);
    stabilises_under(&p, ZipfScheduler::new(24, 0.8), 13);
    stabilises_under(&p, ClusteredScheduler::new(24, 8, 0.1), 14);
}

#[test]
fn tree_stabilises_under_skewed_schedulers() {
    let p = TreeRanking::new(48);
    stabilises_under(&p, ZipfScheduler::new(48, 1.0), 15);
    stabilises_under(&p, ClusteredScheduler::new(48, 24, 0.05), 16);
}

#[test]
fn uniform_scheduler_trait_matches_builtin_loop() {
    // The uniform scheduler is the built-in draw: same seed, same
    // trajectory.
    let p = GenericRanking::new(12);
    for s in 0..50u64 {
        let mut builtin = Simulation::new(&p, vec![0; 12], 500 + s).unwrap();
        let mut scheduled = Simulation::new(&p, vec![0; 12], 500 + s)
            .unwrap()
            .with_scheduler(UniformScheduler::new(12));
        let a = builtin.run_until_silent(u64::MAX).unwrap();
        let b = scheduled.run_until_silent(u64::MAX).unwrap();
        assert_eq!(a, b, "seed {}", 500 + s);
        assert_eq!(builtin.agents(), scheduled.agents());
    }
}

// ---------------------------------------------------------------------
// Loose stabilisation composed with the other extensions.
// ---------------------------------------------------------------------

#[test]
fn loose_election_converges_under_clustered_scheduler() {
    let n = 40;
    let p = LooseLeaderElection::new(n);
    let mut sim = Simulation::new(&p, vec![p.leader_state(); n], 21)
        .unwrap()
        .with_scheduler(ClusteredScheduler::new(n, n / 2, 0.1));
    let cap = 5_000_000;
    while p.leader_count(sim.counts()) != 1 {
        assert!(sim.interactions_wide() < cap, "no convergence under clustering");
        sim.run_for(64);
    }
}

#[test]
fn loose_election_survives_fault_bursts() {
    let n = 40;
    let p = LooseLeaderElection::new(n);
    let mut rng = Xoshiro256::seed_from_u64(5);
    let mut sim = Simulation::new(&p, vec![p.timer_max(); n], 23).unwrap();
    for _ in 0..3 {
        sim.run_for(2_000 * n as u64);
        for _ in 0..n / 4 {
            let victim = rng.below_usize(n);
            let garbage = rng.below(p.num_states() as u64) as State;
            sim.inject_fault(victim, garbage);
        }
    }
    // After the last burst the protocol must re-converge to one leader.
    let cap = sim.interactions_wide() + 50_000_000;
    while p.leader_count(sim.counts()) != 1 {
        assert!(sim.interactions_wide() < cap, "no re-convergence after faults");
        sim.run_for(64);
    }
}

// ---------------------------------------------------------------------
// Distributional toolkit on real trial data.
// ---------------------------------------------------------------------

#[test]
fn ecdf_and_bootstrap_summarise_real_stabilisation_times() {
    let p = TreeRanking::new(32);
    let times: Vec<f64> = (0..60u64)
        .map(|s| {
            let mut sim = CountSimulation::new(&p, vec![0; 32], 700 + s)
                .unwrap()
                .with_batching(false);
            sim.run_until_silent(u64::MAX).unwrap().parallel_time
        })
        .collect();

    let ecdf = Ecdf::new(times.clone());
    // The median must sit where half the mass is.
    let med = ecdf.quantile(0.5);
    assert!((ecdf.eval(med) - 0.5).abs() <= 0.5 / 60.0 + 1e-12);
    // whp reading: the p99 exceedance is at most 1 - 0.99.
    assert!(ecdf.exceedance(ecdf.quantile(0.99)) <= 0.011);

    let ci = median_ci(&times, &BootstrapOptions::default());
    assert!(ci.contains(med), "bootstrap CI must cover the sample median");
    assert!(ci.half_width() < med, "CI should be informative at 60 trials");
}

#[test]
fn jump_and_naive_recovery_times_agree_distributionally() {
    // Fault recovery through the jump simulator must match a naive-sim
    // recovery from the same k-distant landscape in distribution (KS).
    let n = 24;
    let p = GenericRanking::new(n);
    let trials = 120u64;
    let jump: Vec<f64> = (0..trials)
        .map(|s| {
            recovery_after_faults(&p, 6, 40_000 + s, u64::MAX)
                .report
                .parallel_time
        })
        .collect();
    let naive: Vec<f64> = (0..trials)
        .map(|s| {
            // Take the same corrupted configuration, then run naively.
            let cfg = init::from_counts(&counts_after_burst(&p, 6, 40_000 + s));
            let mut sim = Simulation::new(&p, cfg, 90_000 + s).unwrap();
            sim.run_until_silent(u64::MAX).unwrap().parallel_time
        })
        .collect();
    let ks = ssr::analysis::ks_two_sample(&jump, &naive);
    assert!(
        ks.p_value > 0.01,
        "jump vs naive recovery distributions differ: D = {:.3}, p = {:.4}",
        ks.statistic,
        ks.p_value
    );
}

// ---------------------------------------------------------------------
// Golden pins: per-seed trajectories of the scheduled naive runs and of
// one sweep grid point. Only the calls may change, never the numbers.
// ---------------------------------------------------------------------

/// `(interactions, productive, Σ i·state_i)` of a naive ring run from a
/// fixed uniform start; the last entry pins which agent took which rank.
fn naive_pin<S: Scheduler>(sched: S) -> (u128, u64, u64) {
    let p = RingOfTraps::new(24);
    let mut rng = Xoshiro256::seed_from_u64(77);
    let start = init::uniform_random(24, p.num_states(), &mut rng);
    let mut sim = Simulation::new(&p, start, 78).unwrap().with_scheduler(sched);
    let rep = sim.run_until_silent(u64::MAX).unwrap();
    let placement = sim.agents().iter().enumerate().map(|(i, &s)| i as u64 * u64::from(s)).sum();
    (rep.interactions_wide, rep.productive_interactions, placement)
}

#[test]
fn golden_pins_scheduled_runs_and_a_sweep_row() {
    let uniform = naive_pin(UniformScheduler::new(24));
    let zipf = naive_pin(ZipfScheduler::new(24, 1.0));
    let clustered = naive_pin(ClusteredScheduler::new(24, 12, 0.1));
    assert_eq!(uniform, (8_579, 90, 3_418));
    assert_eq!(zipf, (34_333, 90, 3_047));
    assert_eq!(clustered, (35_537, 90, 3_079));

    // exp_theorem3's stacked tree grid point (base seed 900), 4 trials;
    // the per-trial values come from the scenario the sweep builds.
    let trials = std::cell::RefCell::new(Vec::new());
    let res = sweep(
        &[256.0],
        |x| TreeRanking::new(x as usize),
        |p, _seed| vec![0; p.population_size()],
        900,
        |s| {
            let s = s.trials(4);
            *trials.borrow_mut() = s
                .run()
                .reports()
                .iter()
                .map(|r| {
                    let r = r.as_ref().unwrap();
                    (r.interactions_wide, r.productive_interactions)
                })
                .collect::<Vec<_>>();
            s
        },
    );
    let row = &res.rows[0];
    let trials = trials.into_inner();
    assert_eq!(
        trials,
        [(133_508, 1_024), (108_507, 1_024), (103_361, 1_024), (99_618, 1_024)]
    );
    assert_eq!(
        (row.mean, row.median, row.p95, row.max, row.success_rate),
        (434.564453125, 413.8046875, 506.8666015625, 521.515625, 1.0)
    );
}

// ---------------------------------------------------------------------
// Golden pins: per-seed corrupt-and-recover trajectories on the exact
// chain (n = 506, exp_faults seeds) and the batched engine (ring
// n = 4096, f = 8, `ssr faults` seeds). Only the calls may change, never
// the numbers.
// ---------------------------------------------------------------------

/// `(interactions, productive, k after the burst)` of one
/// corrupt-and-recover run from the silent perfect ranking.
fn recovery_pin<P: InteractionSchema>(p: &P, f: u32, seed: u64) -> (u128, u64, usize) {
    let outcome = recovery_after_faults(p, f, seed, u64::MAX);
    let r = outcome.report;
    (
        r.interactions_wide,
        r.productive_interactions,
        outcome.bursts[0].k_after,
    )
}

#[test]
fn golden_pins_corrupt_and_recover() {
    let n = 506;
    let generic = GenericRanking::new(n);
    let ring = RingOfTraps::new(n);
    let tree = TreeRanking::new(n);
    let mut got = Vec::new();
    for f in [1u32, 8, 128] {
        for t in 0..2u64 {
            // exp_faults' ring sweep seeds, then its cross-protocol seeds.
            got.push(recovery_pin(&ring, f, 9_000 + u64::from(f) + t));
            got.push(recovery_pin(&generic, f, 13_000 + t));
            got.push(recovery_pin(&ring, f, 13_100 + t));
            got.push(recovery_pin(&tree, f, 13_200 + t));
        }
    }
    let big = RingOfTraps::new(4096);
    for t in 0..3 {
        got.push(recovery_pin(&big, 8, ssr::engine::rng::derive_seed(1, t)));
    }
    assert_eq!(got, GOLDEN_RECOVERY);
}

/// Row order: for f = 1, 8, 128 and trial t = 0, 1 — ring (exp_faults
/// sweep seed), A_G, ring, tree (exp_faults cross-protocol seeds); then
/// ring n = 4096, f = 8 for trials 0..3.
const GOLDEN_RECOVERY: &[(u128, u64, usize)] = &[
    // n = 506, f = 1: trial 0, then trial 1.
    (7_727_020, 560, 1),
    (23_774_415, 191, 1),
    (9_198_553, 810, 1),
    (1_227_424, 25_634, 1),
    (9_302_374, 693, 1),
    (28_923_802, 233, 1),
    (9_794_987, 820, 1),
    (1_800_995, 26_616, 1),
    // n = 506, f = 8: trial 0, then trial 1.
    (16_183_362, 1_754, 8),
    (35_583_204, 919, 8),
    (22_505_192, 1_918, 8),
    (1_200_793, 25_634, 8),
    (14_848_379, 859, 8),
    (45_753_756, 900, 8),
    (14_787_199, 1_036, 8),
    (1_295_863, 26_616, 8),
    // n = 506, f = 128: trial 0, then trial 1.
    (47_243_118, 5_601, 84),
    (61_752_911, 5_004, 92),
    (56_956_142, 7_402, 94),
    (1_196_649, 25_634, 93),
    (81_656_124, 10_994, 91),
    (64_561_325, 4_631, 88),
    (50_907_832, 5_755, 90),
    (1_295_074, 26_616, 89),
    // ring n = 4096, f = 8: trials 0, 1, 2.
    (3_650_579_327, 12_790, 8),
    (3_998_339_555, 12_921, 8),
    (3_378_942_171, 13_044, 8),
];
