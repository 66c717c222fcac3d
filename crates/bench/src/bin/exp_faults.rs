//! EF — transient-fault recovery (the operational face of Theorem 1).
//!
//! A silent, self-stabilising ranking protocol doubles as a fault-tolerant
//! one: corrupt `f` agents of a stabilised population and the adversarial
//! restart is exactly a `k`-distant configuration with `k ≤ f`. Theorem 1
//! then promises recovery in `O(min(k·n^{3/2}, n² log² n))` for the ring
//! protocol. This experiment measures:
//!
//! 1. recovery time vs number of faults `f` at fixed `n` (ring), which
//!    should grow with `f` and stay far below the from-scratch `Θ(n²)`;
//! 2. recovery time vs `n` at fixed small `f` (ring), exponent ≈ 1.5;
//! 3. a cross-protocol comparison at fixed `(n, f)` — the tree protocol's
//!    `O(n log n)` makes it the fastest healer, the `A_G` baseline the
//!    slowest.
//!
//! Run: `cargo run --release -p ssr-bench --bin exp_faults`

// Audited: fault-count grids cast small f64 fractions of n (n <= 2^20) to usize/u64.
#![allow(clippy::cast_possible_truncation)]

use ssr_analysis::{fit_power_law, Summary, Table};
use ssr_bench::{grid, print_header, trials, verdict};
use ssr_core::{GenericRanking, RingOfTraps, TreeRanking};
use ssr_engine::faults::recovery_after_faults;
use ssr_engine::{InteractionSchema, Protocol};

fn recovery_times<P: InteractionSchema>(
    p: &P,
    faults: u32,
    n_trials: usize,
    base_seed: u64,
) -> (Vec<f64>, f64) {
    let mut times = Vec::with_capacity(n_trials);
    let mut distance_sum = 0usize;
    for t in 0..n_trials as u64 {
        let outcome = recovery_after_faults(p, faults, base_seed + t, u64::MAX);
        times.push(outcome.report.parallel_time);
        distance_sum += outcome.bursts[0].k_after;
    }
    (times, distance_sum as f64 / n_trials as f64)
}

fn main() {
    print_header(
        "EF: transient-fault recovery",
        "f faults ⇒ k-distant start with k ≤ f; ring recovers in O(min(k·n^{3/2}, n² log² n))",
    );
    let t = trials(12);

    // (1) Fixed n, sweep f.
    let n = if ssr_bench::quick() { 110 } else { 506 };
    println!("\n[ring of traps, n = {n}: recovery parallel time vs faults f]");
    let mut table = Table::new(vec![
        "f".into(),
        "mean k".into(),
        "median T".into(),
        "p95 T".into(),
        "max T".into(),
    ]);
    let ring = RingOfTraps::new(n);
    let fs: Vec<u32> = if ssr_bench::quick() {
        vec![1, 4, 16]
    } else {
        vec![1, 2, 4, 8, 16, 32, 64, 128]
    };
    let mut medians = Vec::new();
    for &f in &fs {
        let (times, mean_k) = recovery_times(&ring, f, t, 9_000 + u64::from(f));
        let s = Summary::of(&times);
        medians.push(s.median);
        table.add_row(vec![
            f.to_string(),
            format!("{mean_k:.1}"),
            format!("{:.0}", s.median),
            format!("{:.0}", s.p95),
            format!("{:.0}", s.max),
        ]);
    }
    print!("{}", table.render());
    let monotone_ish = medians.windows(2).filter(|w| w[1] >= w[0]).count();
    println!(
        "recovery grows with f in {monotone_ish}/{} consecutive steps; \
         T(f_max)/T(1) = {:.1} (k-linear ceiling would allow {:.0})",
        medians.len() - 1,
        medians.last().unwrap() / medians[0],
        *fs.last().unwrap() as f64
    );

    // (2) Fixed f, sweep n.
    let f = 4u32;
    println!("\n[ring of traps, f = {f}: recovery parallel time vs n]");
    let ns = grid(&[110.0, 240.0, 506.0, 1056.0, 2162.0], &[110.0, 240.0]);
    let mut table = Table::new(vec!["n".into(), "median T".into(), "max T".into()]);
    let mut meds = Vec::new();
    for &nf in &ns {
        let p = RingOfTraps::new(nf as usize);
        let (times, _) = recovery_times(&p, f, t, 11_000 + nf as u64);
        let s = Summary::of(&times);
        meds.push(s.median);
        table.add_row(vec![
            (nf as usize).to_string(),
            format!("{:.0}", s.median),
            format!("{:.0}", s.max),
        ]);
    }
    print!("{}", table.render());
    let fit = fit_power_law(&ns, &meds);
    println!(
        "fit: median ≈ {:.3}·n^{:.2} (R² = {:.3}); theory ceiling O(k·n^1.5)",
        fit.constant, fit.exponent, fit.r_squared
    );
    verdict("EF recovery exponent (few faults)", fit.exponent, 1.0, 1.8);

    // (3) Cross-protocol healing at fixed (n, f).
    let f = 8u32;
    println!("\n[cross-protocol: median recovery at n = {n}, f = {f}]");
    let mut table = Table::new(vec![
        "protocol".into(),
        "x".into(),
        "median T".into(),
        "vs A_G".into(),
    ]);
    let generic = GenericRanking::new(n);
    let tree = TreeRanking::new(n);
    let (gt, _) = recovery_times(&generic, f, t, 13_000);
    let g_med = Summary::of(&gt).median;
    for (name, times, x) in [
        ("A_G", gt.clone(), 0usize),
        ("ring", recovery_times(&ring, f, t, 13_100).0, 0),
        ("tree", recovery_times(&tree, f, t, 13_200).0, tree.num_extra_states()),
    ] {
        let s = Summary::of(&times);
        table.add_row(vec![
            name.into(),
            x.to_string(),
            format!("{:.0}", s.median),
            format!("{:.2}×", s.median / g_med),
        ]);
    }
    print!("{}", table.render());
    println!(
        "expected ordering: tree ≪ ring ≤ A_G — silent protocols with more \
         extra states heal faster, exactly the paper's trade-off"
    );
}
