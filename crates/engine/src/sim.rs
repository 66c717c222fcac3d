//! The naive simulator: one scheduler-drawn ordered pair per interaction.
//!
//! This is a literal implementation of the paper's probabilistic model:
//! the default [`UniformScheduler`] draws each step's (initiator,
//! responder) pair uniformly among the `n(n−1)` ordered pairs, and
//! [`Simulation::with_scheduler`] swaps in any other [`Scheduler`]. The
//! simulator tracks per-state occupancy counts incrementally so that
//! silence — by the ranking contract, "all agents in pairwise-distinct
//! rank states" — is an O(1) test. It shares no sampling code with the
//! count engine, which makes it the independent oracle the cross-engine
//! tests compare against.
//!
//! Its inherent API is what needs agent identities ([`agents`],
//! [`step`], [`run_for`], [`inject_fault`], [`verify_silent`]);
//! everything else — clocks, counts, silence, running to silence,
//! snapshots — goes through the [`Engine`] trait.
//!
//! For long runs dominated by null interactions prefer
//! [`CountSimulation`](crate::count::CountSimulation), which simulates the
//! identical Markov chain (under the uniform scheduler) while skipping
//! nulls exactly.
//!
//! [`agents`]: Simulation::agents
//! [`step`]: Simulation::step
//! [`run_for`]: Simulation::run_for
//! [`inject_fault`]: Simulation::inject_fault
//! [`verify_silent`]: Simulation::verify_silent
//!
//! # Examples
//!
//! ```
//! use ssr_engine::engine::Engine;
//! use ssr_engine::protocol::{Protocol, State};
//! use ssr_engine::schedule::ZipfScheduler;
//! use ssr_engine::sim::Simulation;
//!
//! struct Ag { n: usize }
//! impl Protocol for Ag {
//!     fn name(&self) -> &str { "A_G" }
//!     fn population_size(&self) -> usize { self.n }
//!     fn num_states(&self) -> usize { self.n }
//!     fn num_rank_states(&self) -> usize { self.n }
//!     fn transition(&self, i: State, r: State) -> Option<(State, State)> {
//!         (i == r).then(|| (i, (r + 1) % self.n as State))
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Ag { n: 8 };
//! let mut sim = Simulation::new(&p, vec![0; 8], 42)?;
//! let report = sim.run_until_silent(10_000_000)?;
//! assert!(sim.is_silent());
//! assert!(report.interactions_wide > 0);
//!
//! // The same run under a skewed scheduler.
//! let mut skewed =
//!     Simulation::new(&p, vec![0; 8], 42)?.with_scheduler(ZipfScheduler::new(8, 1.0));
//! skewed.run_until_silent(u64::MAX)?;
//! assert!(sim.verify_silent() && skewed.verify_silent());
//! # Ok(())
//! # }
//! ```

use crate::engine::{CappedAdvance, CountObserver, Engine, EngineSnapshot};
use crate::error::ConfigError;
use crate::init;
use crate::protocol::{Protocol, State};
use crate::rng::Xoshiro256;
use crate::schedule::{Scheduler, UniformScheduler};

/// A productive rewrite: the ordered state pair before and after.
pub type Rewrite = ((State, State), (State, State));

/// Outcome of a run that reached a silent configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilisationReport {
    /// Interactions executed up to (and including) the last productive
    /// one, full-width: the count engine's clock legitimately passes
    /// `u64::MAX` at `n ≥ 2³¹`.
    pub interactions_wide: u128,
    /// Of those, how many actually changed the configuration.
    pub productive_interactions: u64,
    /// Parallel time: `interactions / n`.
    pub parallel_time: f64,
}

/// `(duplicate_rank_agents, extra_agents)` of an occupancy vector: the
/// configuration is silent iff both are zero.
fn silence_tallies(counts: &[u32], num_ranks: usize) -> (u64, u64) {
    let duplicates = counts[..num_ranks].iter().map(|&c| (c as u64).saturating_sub(1));
    let extras = counts[num_ranks..].iter().map(|&c| c as u64);
    (duplicates.sum(), extras.sum())
}

/// Naive step-by-step simulation of a protocol on a concrete agent vector,
/// with pairs drawn by the scheduler `S`.
pub struct Simulation<'a, P: Protocol + ?Sized, S: Scheduler = UniformScheduler> {
    protocol: &'a P,
    scheduler: S,
    agents: Vec<State>,
    counts: Vec<u32>,
    /// Cached `protocol.num_rank_states()` — `update_count` sits on the
    /// hot path of every productive interaction and must not go through
    /// the protocol vtable.
    num_ranks: usize,
    /// Σ over rank states of max(c − 1, 0): agents beyond the first in a
    /// rank state.
    duplicate_rank_agents: u64,
    /// Agents currently in extra (non-rank) states.
    extra_agents: u64,
    interactions: u128,
    productive: u64,
    rng: Xoshiro256,
    /// Per-agent Byzantine/stuck-at flags; empty when no overlay is active.
    byz: Vec<bool>,
}

impl<'a, P: Protocol + ?Sized> Simulation<'a, P> {
    /// Start a simulation from an explicit configuration under the
    /// paper's uniform scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration length differs from the
    /// protocol's population or any state id is out of range.
    pub fn new(protocol: &'a P, config: Vec<State>, seed: u64) -> Result<Self, ConfigError> {
        let n = protocol.population_size();
        if config.len() != n {
            return Err(ConfigError::WrongPopulation {
                expected: n,
                got: config.len(),
            });
        }
        init::validate(&config, protocol.num_states())?;
        let counts = init::counts(&config, protocol.num_states());
        let num_ranks = protocol.num_rank_states();
        let (duplicate_rank_agents, extra_agents) = silence_tallies(&counts, num_ranks);
        Ok(Simulation {
            protocol,
            scheduler: UniformScheduler { n },
            agents: config,
            counts,
            num_ranks,
            duplicate_rank_agents,
            extra_agents,
            interactions: 0,
            productive: 0,
            rng: Xoshiro256::seed_from_u64(seed),
            byz: Vec::new(),
        })
    }

    /// Draw pairs from `scheduler` instead of the uniform one. The
    /// simulation's own RNG drives it, so runs stay deterministic per
    /// seed.
    ///
    /// # Panics
    ///
    /// Panics if the scheduler's population differs from the protocol's.
    pub fn with_scheduler<S: Scheduler>(self, scheduler: S) -> Simulation<'a, P, S> {
        assert_eq!(
            scheduler.population(),
            self.agents.len(),
            "scheduler population mismatch"
        );
        Simulation {
            protocol: self.protocol,
            scheduler,
            agents: self.agents,
            counts: self.counts,
            num_ranks: self.num_ranks,
            duplicate_rank_agents: self.duplicate_rank_agents,
            extra_agents: self.extra_agents,
            interactions: self.interactions,
            productive: self.productive,
            rng: self.rng,
            byz: self.byz,
        }
    }
}

impl<P: Protocol + ?Sized, S: Scheduler> Simulation<'_, P, S> {
    /// Current per-agent states.
    pub fn agents(&self) -> &[State] {
        &self.agents
    }

    /// Exhaustive silence verification: checks that **no** ordered pair of
    /// currently occupied states is productive. `O(occupied²)` — intended
    /// for tests; the hot path uses the O(1) [`Engine::is_silent`].
    pub fn verify_silent(&self) -> bool {
        let occupied: Vec<State> = (0..self.counts.len())
            .filter(|&s| self.counts[s] > 0)
            .map(|s| s as State)
            .collect();
        for &a in &occupied {
            for &b in &occupied {
                if a == b && self.counts[a as usize] < 2 {
                    continue;
                }
                if self.protocol.transition(a, b).is_some() {
                    return false;
                }
            }
        }
        true
    }

    #[inline]
    fn update_count(&mut self, s: State, delta: i64) {
        let su = s as usize;
        let num_ranks = self.num_ranks;
        let old = self.counts[su] as i64;
        let new = old + delta;
        debug_assert!(new >= 0);
        self.counts[su] = new as u32;
        if su < num_ranks {
            let old_dup = (old - 1).max(0) as u64;
            let new_dup = (new - 1).max(0) as u64;
            self.duplicate_rank_agents = self.duplicate_rank_agents + new_dup - old_dup;
        } else {
            self.extra_agents = (self.extra_agents as i64 + delta) as u64;
        }
    }

    /// Execute one scheduler step: draw an ordered pair, apply the
    /// transition and advance the interaction clock. Returns the rewrite
    /// if it was productive.
    #[inline]
    pub fn step(&mut self) -> Option<Rewrite> {
        debug_assert!(
            self.agents.len() >= 2,
            "population protocols need at least two agents"
        );
        let (i, r) = self.scheduler.next_pair(&mut self.rng);
        // Saturate like the count clock (a restored clock may sit at the top).
        self.interactions = self.interactions.saturating_add(1);
        let si = self.agents[i];
        let sr = self.agents[r];
        match self.protocol.transition(si, sr) {
            None => None,
            Some((mut si2, mut sr2)) => {
                if self.byz.is_empty() {
                    debug_assert!(
                        si2 != si || sr2 != sr,
                        "protocol returned an identity rewrite for ({si},{sr})"
                    );
                } else {
                    // Byzantine/stuck-at participants veto their own
                    // rewrite; the partner still updates. The scheduler
                    // draw counts as productive either way — it is a
                    // chain event, vetoed or not, which keeps the clock
                    // semantics aligned with the counts-based engines.
                    if self.byz[i] {
                        si2 = si;
                    }
                    if self.byz[r] {
                        sr2 = sr;
                    }
                }
                self.productive += 1;
                self.agents[i] = si2;
                self.agents[r] = sr2;
                if si != si2 {
                    self.update_count(si, -1);
                    self.update_count(si2, 1);
                }
                if sr != sr2 {
                    self.update_count(sr, -1);
                    self.update_count(sr2, 1);
                }
                Some(((si, sr), (si2, sr2)))
            }
        }
    }

    /// Execute exactly `budget` further interactions, silent or not.
    pub fn run_for(&mut self, budget: u64) {
        for _ in 0..budget {
            self.step();
        }
    }

    /// Overwrite one agent's state (transient-fault injection). Counters
    /// are kept consistent; the interaction clock is not advanced.
    ///
    /// # Panics
    ///
    /// Panics if `agent` or `state` is out of range.
    pub fn inject_fault(&mut self, agent: usize, state: State) {
        assert!(agent < self.agents.len(), "agent index out of range");
        assert!(
            (state as usize) < self.protocol.num_states(),
            "state out of range"
        );
        let old = self.agents[agent];
        if old == state {
            return;
        }
        self.agents[agent] = state;
        self.update_count(old, -1);
        self.update_count(state, 1);
    }
}

impl<P: Protocol + ?Sized, S: Scheduler> Engine for Simulation<'_, P, S> {
    fn population_size(&self) -> usize {
        self.agents.len()
    }

    fn counts(&self) -> &[u32] {
        &self.counts
    }

    fn interactions_wide(&self) -> u128 {
        self.interactions
    }

    fn productive_interactions(&self) -> u64 {
        self.productive
    }

    /// O(1) silence test via the ranking contract: silent iff every agent
    /// occupies its own rank state and no extra state is occupied.
    fn is_silent(&self) -> bool {
        self.duplicate_rank_agents == 0 && self.extra_agents == 0
    }

    /// One scheduler draw: `Applied(1)` if it was productive, `Applied(0)`
    /// for a null interaction.
    fn advance_to(&mut self, cap: u128, observer: &mut dyn CountObserver) -> CappedAdvance {
        if self.is_silent() {
            debug_assert!(self.verify_silent());
            return CappedAdvance::Silent;
        }
        if self.interactions >= cap {
            return CappedAdvance::CapReached;
        }
        match self.step() {
            Some((before, after)) => {
                observer.on_productive(self.interactions, before, after, 1, &self.counts);
                CappedAdvance::Applied(1)
            }
            None => CappedAdvance::Applied(0),
        }
    }

    fn set_byzantine(&mut self, byz: &[u32]) {
        assert_eq!(
            byz.len(),
            self.counts.len(),
            "byzantine spec length {} does not match the state space {}",
            byz.len(),
            self.counts.len()
        );
        if byz.iter().all(|&b| b == 0) {
            self.byz.clear();
            return;
        }
        // Mark, for each state s, the first byz[s] agents currently in s
        // (scan order over the agent vector — a deterministic selection;
        // agents are anonymous, so any selection rule yields the same
        // process).
        let mut quota = byz.to_vec();
        let mut flags = vec![false; self.agents.len()];
        for (i, &s) in self.agents.iter().enumerate() {
            if quota[s as usize] > 0 {
                quota[s as usize] -= 1;
                flags[i] = true;
            }
        }
        for (s, &q) in quota.iter().enumerate() {
            assert!(
                q == 0,
                "byzantine spec asks for {} stuck agents in state {s} but \
                 only {} are present",
                byz[s],
                self.counts[s]
            );
        }
        self.byz = flags;
    }

    fn num_rank_states(&self) -> usize {
        self.num_ranks
    }

    fn skip_nulls(&mut self, nulls: u128) {
        self.interactions = self.interactions.saturating_add(nulls);
    }

    fn inject_state_fault(&mut self, from: State, to: State) {
        let byz = &self.byz;
        let agent = self
            .agents
            .iter()
            .enumerate()
            .position(|(i, &s)| s == from && !byz.get(i).copied().unwrap_or(false))
            .unwrap_or_else(|| panic!("state {from} has no non-Byzantine occupant"));
        self.inject_fault(agent, to);
    }

    fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            agents: Some(self.agents.clone()),
            counts: self.counts.clone(),
            interactions: self.interactions,
            productive: self.productive,
            rng: self.rng.clone(),
            count_ctl: None,
        }
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) {
        // Count-only snapshots (from the count engine) reconstruct an
        // agent vector from counts; agents are anonymous, so the resulting
        // process is the same.
        let agents = snapshot
            .agents
            .clone()
            .unwrap_or_else(|| init::from_counts(&snapshot.counts));
        assert_eq!(
            agents.len(),
            self.protocol.population_size(),
            "snapshot population mismatch"
        );
        assert_eq!(
            snapshot.counts.len(),
            self.protocol.num_states(),
            "snapshot state-space mismatch"
        );
        self.agents = agents;
        self.counts.clone_from(&snapshot.counts);
        (self.duplicate_rank_agents, self.extra_agents) =
            silence_tallies(&self.counts, self.num_ranks);
        self.interactions = snapshot.interactions;
        self.productive = snapshot.productive;
        self.rng = snapshot.rng.clone();
    }
}

impl<P: Protocol + ?Sized, S: Scheduler> std::fmt::Debug for Simulation<'_, P, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("protocol", &self.protocol.name())
            .field("scheduler", &self.scheduler.describe())
            .field("n", &self.agents.len())
            .field("interactions", &self.interactions)
            .field("silent", &self.is_silent())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::ZipfScheduler;

    struct Ag {
        n: usize,
    }
    impl Protocol for Ag {
        fn name(&self) -> &str {
            "A_G"
        }
        fn population_size(&self) -> usize {
            self.n
        }
        fn num_states(&self) -> usize {
            self.n
        }
        fn num_rank_states(&self) -> usize {
            self.n
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            if i == r {
                Some((i, (r + 1) % self.n as State))
            } else {
                None
            }
        }
    }

    #[test]
    fn rejects_wrong_population() {
        let p = Ag { n: 4 };
        let err = Simulation::new(&p, vec![0; 3], 1).unwrap_err();
        assert!(matches!(err, ConfigError::WrongPopulation { .. }));
    }

    #[test]
    fn rejects_out_of_range_state() {
        let p = Ag { n: 4 };
        let err = Simulation::new(&p, vec![0, 1, 2, 9], 1).unwrap_err();
        assert!(matches!(err, ConfigError::StateOutOfRange { .. }));
    }

    #[test]
    fn perfect_ranking_is_silent_in_zero_interactions() {
        let p = Ag { n: 6 };
        let mut sim = Simulation::new(&p, (0..6).collect(), 3).unwrap();
        let rep = sim.run_until_silent(10).unwrap();
        assert_eq!(rep.interactions_wide, 0);
        assert!(sim.verify_silent());
    }

    #[test]
    fn all_in_zero_stabilises() {
        let p = Ag { n: 8 };
        let mut sim = Simulation::new(&p, vec![0; 8], 7).unwrap();
        let rep = sim.run_until_silent(50_000_000).unwrap();
        assert!(sim.is_silent());
        assert!(sim.verify_silent());
        assert!(init::is_perfect_ranking(sim.agents(), 8));
        assert!(rep.productive_interactions >= 7, "at least n-1 moves");
    }

    #[test]
    fn timeout_is_reported() {
        let p = Ag { n: 8 };
        let mut sim = Simulation::new(&p, vec![0; 8], 7).unwrap();
        let err = sim.run_until_silent(5).unwrap_err();
        assert_eq!(err.interactions, 5);
    }

    #[test]
    fn counters_track_counts() {
        let p = Ag { n: 10 };
        let mut sim = Simulation::new(&p, vec![0; 10], 11).unwrap();
        for _ in 0..10_000 {
            sim.step();
            let dup: u64 = sim.counts()[..10]
                .iter()
                .map(|&c| (c as u64).saturating_sub(1))
                .sum();
            assert_eq!(dup, sim.duplicate_rank_agents);
            let total: u32 = sim.counts().iter().sum();
            assert_eq!(total, 10, "agents conserved");
            if sim.is_silent() {
                break;
            }
        }
    }

    #[test]
    fn fault_injection_updates_counters_and_recovers() {
        let p = Ag { n: 6 };
        let mut sim = Simulation::new(&p, (0..6).collect(), 17).unwrap();
        assert!(sim.is_silent());
        sim.inject_fault(0, 3); // duplicate rank 3, rank 0 now empty
        assert!(!sim.is_silent());
        sim.run_until_silent(10_000_000).unwrap();
        assert!(init::is_perfect_ranking(sim.agents(), 6));
    }

    #[test]
    fn run_for_executes_exact_budget() {
        let p = Ag { n: 5 };
        let mut sim = Simulation::new(&p, vec![1; 5], 19).unwrap();
        sim.run_for(123);
        assert_eq!(sim.interactions_wide(), 123);
    }

    #[test]
    fn deterministic_given_seed() {
        let p = Ag { n: 12 };
        let mut a = Simulation::new(&p, vec![0; 12], 23).unwrap();
        let mut b = Simulation::new(&p, vec![0; 12], 23).unwrap();
        let ra = a.run_until_silent(u64::MAX).unwrap();
        let rb = b.run_until_silent(u64::MAX).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.agents(), b.agents());
    }

    #[test]
    fn snapshot_restore_replays_exactly() {
        let p = Ag { n: 10 };
        let mut sim = Simulation::new(&p, vec![0; 10], 31).unwrap();
        sim.run_for(500);
        let snap = sim.snapshot();
        assert_eq!(snap.interactions_wide(), 500);
        assert_eq!(snap.agents(), Some(sim.agents()));

        // Branch A: run to silence.
        let rep_a = sim.run_until_silent(u64::MAX).unwrap();
        let final_a = sim.agents().to_vec();

        // Branch B: restore and rerun — identical trajectory.
        sim.restore(&snap);
        assert_eq!(sim.interactions_wide(), 500);
        let rep_b = sim.run_until_silent(u64::MAX).unwrap();
        assert_eq!(rep_a, rep_b);
        assert_eq!(final_a, sim.agents());
    }

    #[test]
    fn scheduled_steps_advance_clock_and_stabilise() {
        let p = Ag { n: 10 };
        let mut sim = Simulation::new(&p, vec![0; 10], 37)
            .unwrap()
            .with_scheduler(ZipfScheduler::new(10, 1.0));
        sim.step();
        assert_eq!(sim.interactions_wide(), 1);
        let rep = sim.run_until_silent(u64::MAX).unwrap();
        assert!(sim.verify_silent());
        assert!(rep.interactions_wide >= u128::from(rep.productive_interactions));
    }

    #[test]
    #[should_panic(expected = "scheduler population mismatch")]
    fn scheduler_must_match_the_population() {
        let p = Ag { n: 10 };
        let _ = Simulation::new(&p, vec![0; 10], 43)
            .unwrap()
            .with_scheduler(ZipfScheduler::new(9, 1.0));
    }

    #[test]
    fn parallel_time_is_interactions_over_n() {
        let p = Ag { n: 4 };
        let mut sim = Simulation::new(&p, vec![0; 4], 29).unwrap();
        sim.run_for(40);
        assert!((sim.parallel_time() - 10.0).abs() < 1e-12);
    }
}
