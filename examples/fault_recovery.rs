//! Transient-fault recovery: the operational payoff of self-stabilisation.
//!
//! A stabilised population is hit by bursts of random state corruption —
//! radiation flips, crashed-and-restarted sensors, whatever the deployment
//! story is — and the ranking (and therefore the elected leader) heals
//! itself without any external intervention. The number of faults maps
//! directly onto the paper's `k`-distance, so Theorem 1 prices each burst.
//!
//! Run: `cargo run --release --example fault_recovery`

// Audited: example casts a tiny bounded f64 value to usize.
#![allow(clippy::cast_possible_truncation)]

use ssr::engine::faults::{rank_distance, recovery_after_faults};
use ssr::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 240;
    println!("== fault recovery at n = {n} ==\n");

    // Part 1: price a single burst of f faults for the ring protocol.
    let ring = RingOfTraps::new(n);
    println!("ring of traps (state-optimal): recovery cost vs faults");
    println!("{:>8} {:>8} {:>14}", "faults", "k-dist", "parallel time");
    for f in [1u32, 4, 16, 64] {
        let outcome = recovery_after_faults(&ring, f, 42 + u64::from(f), u64::MAX);
        println!(
            "{:>8} {:>8} {:>14.0}",
            f, outcome.bursts[0].k_after, outcome.report.parallel_time
        );
    }

    // Part 2: a leader-election service riding on the tree protocol,
    // with faults injected while it is still converging.
    println!("\ntree protocol as a leader-election service under fire:");
    let tree = TreeRanking::new(n);
    let mut rng = Xoshiro256::seed_from_u64(7);
    let start = init::uniform_random(n, tree.num_states(), &mut rng);
    let mut sim = Simulation::new(&tree, start, 99)?;
    for burst in 1..=3 {
        sim.run_for(20 * n as u64);
        for _ in 0..n / 10 {
            let victim = rng.below_usize(n);
            let garbage = rng.below(tree.num_states() as u64) as State;
            sim.inject_fault(victim, garbage);
        }
        let counts = sim.counts();
        println!(
            "  after burst {burst}: k-distance {}, parallel time {:.0}",
            rank_distance(counts, n),
            sim.parallel_time()
        );
    }
    let report = sim.run_until_silent(u64::MAX)?;
    let leader = sim
        .agents()
        .iter()
        .position(|&s| s == LEADER_RANK)
        .expect("perfect ranking has a leader");
    println!(
        "  healed: silent at parallel time {:.0}; leader = agent {leader} (rank {LEADER_RANK})",
        report.parallel_time,
    );
    assert!(init::is_perfect_ranking(sim.agents(), n));
    Ok(())
}
