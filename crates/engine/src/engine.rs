//! The unified [`Engine`] abstraction over both simulators.
//!
//! Two engines simulate the *same* stochastic process — the paper's
//! uniform random scheduler driving a population protocol — at two
//! different cost models:
//!
//! | Engine | Memory | Cost per unit | Best regime |
//! |--------|--------|---------------|-------------|
//! | [`Simulation`](crate::sim::Simulation) (`naive`) | `O(n)` | one ordered-pair draw per *interaction*, nulls included | small `n`, agent identities, non-uniform [`Scheduler`](crate::schedule::Scheduler)s (`with_scheduler`); the independent oracle |
//! | [`CountSimulation`](crate::count::CountSimulation) (`jump`, `count`) | `O(#states)` | `O(log #states)` per *productive* interaction in exact mode; amortised sub-productive-interaction stepping via batching far from silence | everything else, up to `n = 10⁹` |
//!
//! `jump` is the count engine with batching off: the exact null-skipping
//! chain. The trait is object-safe, so experiment drivers can select an
//! engine at runtime (`--engine auto|naive|jump|count` in the CLI) and
//! treat all of them uniformly: stepping, running to silence with a cap,
//! count-level observer hooks, transient-fault injection, and
//! snapshot/restore. [`EngineKind::Auto`] picks batching at large `n` and
//! the exact chain below, per protocol instance — heterogeneous sweeps
//! get the right engine at every grid point.
//!
//! Every engine implements exactly one stepping primitive,
//! [`Engine::advance_to`]; [`Engine::advance`],
//! [`Engine::run_until_silent`] and [`Engine::run_until_silent_observed`]
//! are derived from it through the single run loop [`run_loop`]. Runs
//! under a non-uniform scheduler are naive-engine runs like any other, so
//! they go through the same loop; the trait is the only way to read an
//! engine's clocks and counts, test silence, or snapshot it.
//!
//! # Examples
//!
//! ```
//! use ssr_engine::engine::{make_engine, Engine, EngineKind};
//! use ssr_engine::protocol::{ClassSpec, InteractionSchema, Protocol, State};
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
//! impl InteractionSchema for Ag {
//!     fn interaction_classes(&self) -> Vec<ClassSpec> {
//!         vec![ClassSpec::equal_rank()]
//!     }
//! }
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let p = Ag { n: 64 };
//! for kind in EngineKind::ALL {
//!     let mut e = make_engine(kind, &p, vec![0; 64], 7)?;
//!     let report = e.run_until_silent(u64::MAX)?;
//!     assert!(e.is_silent());
//!     assert!(report.interactions_wide >= u128::from(report.productive_interactions));
//! }
//! # Ok(())
//! # }
//! ```

use crate::error::StabilisationTimeout;
use crate::protocol::State;
use crate::rng::Xoshiro256;
use crate::sim::StabilisationReport;
use std::ops::ControlFlow;

/// Observer hook at the granularity every engine can afford: occupancy
/// *counts*, not agent identities.
///
/// Exact stepping (the naive engine, and the count engine in exact mode)
/// invokes it once per productive interaction with `multiplicity == 1`,
/// passing the post-transition counts. The count engine's batch mode
/// coalesces a group of identical rewrites into a single call with the
/// group size as `multiplicity`; all groups of one batch share the same
/// post-**batch** counts and interaction clock (intermediate
/// configurations inside a batch are not materialised).
pub trait CountObserver {
    /// Called after productive interaction(s) have been applied.
    ///
    /// `interactions` is the engine's total interaction clock (nulls
    /// included) after the call's rewrites; `before`/`after` are the
    /// rewritten ordered state pairs; `counts` the post-transition
    /// occupancy.
    fn on_productive(
        &mut self,
        interactions: u128,
        before: (State, State),
        after: (State, State),
        multiplicity: u64,
        counts: &[u32],
    );
}

/// A [`CountObserver`] that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullCountObserver;

impl CountObserver for NullCountObserver {
    #[inline]
    fn on_productive(
        &mut self,
        _interactions: u128,
        _before: (State, State),
        _after: (State, State),
        _multiplicity: u64,
        _counts: &[u32],
    ) {
    }
}

/// Adapts a closure into a [`CountObserver`].
#[derive(Debug)]
pub struct FnCountObserver<F>(pub F);

impl<F: FnMut(u128, (State, State), (State, State), u64, &[u32])> CountObserver
    for FnCountObserver<F>
{
    #[inline]
    fn on_productive(
        &mut self,
        interactions: u128,
        before: (State, State),
        after: (State, State),
        multiplicity: u64,
        counts: &[u32],
    ) {
        (self.0)(interactions, before, after, multiplicity, counts)
    }
}

/// Engine-agnostic point-in-time capture: configuration (as counts, plus
/// the agent vector when the engine has one), clocks, and the RNG.
///
/// A snapshot taken from one engine can be restored into another of the
/// same protocol: agents are anonymous, so the counts determine the
/// configuration. Restoring into the *same* engine kind reproduces the
/// exact trajectory (the RNG state travels with the snapshot); restoring
/// across kinds continues the same configuration with that engine's
/// stepping discipline.
#[derive(Debug, Clone)]
pub struct EngineSnapshot {
    pub(crate) agents: Option<Vec<State>>,
    pub(crate) counts: Vec<u32>,
    /// Full-width clock: the count engine's clock legitimately passes
    /// `u64::MAX` at `n ≥ 2³¹`, and restoring must not narrow it.
    pub(crate) interactions: u128,
    pub(crate) productive: u64,
    pub(crate) rng: Xoshiro256,
    /// Count-engine batching control state; `None` for snapshots taken
    /// from other engines (the count engine then restores canonical
    /// control state derived from the counts).
    pub(crate) count_ctl: Option<CountControl>,
}

/// The count engine's batch-scheduling state. Captured in snapshots so
/// restoring into a count engine replays the exact trajectory even when
/// batch mode is active (the batch-size decision depends on this state).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CountControl {
    pub(crate) max_eq_count: u64,
    pub(crate) max_sparse_partner: u64,
    pub(crate) max_sparse_pair_scale: u64,
    pub(crate) batches_since_refresh: u32,
    pub(crate) exact_steps_until_recheck: u32,
}

/// Outcome of a single [`Engine::advance_to`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CappedAdvance {
    /// The configuration is silent; nothing was executed and the clock did
    /// not move.
    Silent,
    /// Productive interaction(s) were applied; the clock advanced past
    /// them (it may exceed the cap only in the count engine's batch mode,
    /// whose null tail is drawn after the batch is committed).
    Applied(u64),
    /// The next productive interaction falls past the cap: the clock was
    /// advanced *to* the cap without executing it. By memorylessness of
    /// the geometric null-gap distribution this truncation is exact — the
    /// time to the next productive interaction measured from the cap is
    /// again geometric under the (possibly updated) weights.
    CapReached,
}

/// Byzantine occupancy overlay shared by the counts-based engines.
///
/// `counts[s]` is the number of *stuck-at* agents currently in state `s`.
/// Agents are anonymous in the counts representation, so whether a sampled
/// participant is Byzantine is itself a random event: given the pair of
/// states `(si, sr)` the initiator is Byzantine with probability
/// `byz[si] / occ[si]`, and the responder analogously (hypergeometric
/// correction when `si == sr`). Byzantine membership is persistent —
/// stuck-at agents never change state, so `byz` is constant over a run and
/// the invariant `counts[s] ≥ byz[s]` is maintained by vetoing their
/// rewrites.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ByzOverlay {
    pub(crate) counts: Vec<u32>,
}

impl ByzOverlay {
    /// Validate a per-state Byzantine specification against the current
    /// occupancy and build the overlay. All-zero specs return `None`.
    pub(crate) fn build(byz: &[u32], counts: &[u32]) -> Option<Self> {
        assert_eq!(
            byz.len(),
            counts.len(),
            "byzantine spec length {} does not match the state space {}",
            byz.len(),
            counts.len()
        );
        for (s, (&b, &c)) in byz.iter().zip(counts).enumerate() {
            assert!(
                b <= c,
                "byzantine spec asks for {b} stuck agents in state {s} but \
                 only {c} are present"
            );
        }
        byz.iter().any(|&b| b > 0).then(|| ByzOverlay {
            counts: byz.to_vec(),
        })
    }

    /// Decide whether the initiator / responder of a sampled productive
    /// pair `(si, sr)` are Byzantine. Consumes exactly two RNG draws when
    /// either state holds Byzantine mass and none otherwise, so the veto
    /// is a deterministic function of (rng, counts).
    pub(crate) fn veto(
        &self,
        rng: &mut Xoshiro256,
        occ: &[u32],
        si: State,
        sr: State,
    ) -> (bool, bool) {
        let bi = self.counts[si as usize] as u64;
        let br = self.counts[sr as usize] as u64;
        if bi == 0 && br == 0 {
            return (false, false);
        }
        let init_byz = rng.below(occ[si as usize] as u64) < bi;
        let mut pool = occ[sr as usize] as u64;
        let mut byz_pool = br;
        if si == sr {
            // Responder is drawn from the same state without replacement.
            pool -= 1;
            if init_byz {
                byz_pool -= 1;
            }
        }
        let resp_byz = rng.below(pool) < byz_pool;
        (init_byz, resp_byz)
    }
}

impl EngineSnapshot {
    /// The captured per-state occupancy counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The captured agent vector, if the engine tracked one.
    pub fn agents(&self) -> Option<&[State]> {
        self.agents.as_deref()
    }

    /// The interaction clock at capture time, full-width: exact past
    /// `u64::MAX` for count-engine snapshots at `n ≥ 2³¹`.
    pub fn interactions_wide(&self) -> u128 {
        self.interactions
    }

    /// The productive-interaction clock at capture time.
    pub fn productive_interactions(&self) -> u64 {
        self.productive
    }
}

/// A population-protocol simulator behind a uniform, object-safe handle.
///
/// All engines share silence semantics (silent ⇔ no ordered pair of agents
/// is productive) and clock semantics (the interaction clock counts
/// *every* scheduler draw, nulls included, exactly — engines that skip
/// nulls account for them stochastically but exactly in distribution).
///
/// An engine implements one stepping primitive,
/// [`advance_to`](Engine::advance_to); [`advance`](Engine::advance) and
/// the run-to-silence methods are provided on top of it.
pub trait Engine {
    /// Population size `n`.
    fn population_size(&self) -> usize;

    /// Current per-state occupancy counts.
    fn counts(&self) -> &[u32];

    /// Total interactions simulated so far (nulls included), full-width:
    /// the count engine's clock legitimately passes `u64::MAX` at
    /// `n ≥ 2³¹`.
    fn interactions_wide(&self) -> u128;

    /// Productive interactions executed so far.
    fn productive_interactions(&self) -> u64;

    /// Whether the configuration is silent.
    fn is_silent(&self) -> bool;

    /// Advance by one natural quantum, but never *start* work at or past
    /// `cap` (an absolute interaction-clock value).
    ///
    /// The quantum differs per engine: the naive engine executes one
    /// scheduler draw (`Applied(0)` for a null), the count engine one
    /// productive interaction plus its preceding nulls (`Applied(1)`) or
    /// — far from silence, with batching on — a whole batch
    /// (`Applied(k)`). At `cap == u128::MAX` nothing is ever clipped,
    /// which is the quantum of [`advance`](Engine::advance) and the run
    /// loop.
    ///
    /// Under a finite cap this is the primitive behind timed fault
    /// execution ([`run_with_plan`](crate::faults::run_with_plan)): a
    /// caller that must apply a fault at clock time `t` calls
    /// `advance_to(t, ..)` in a loop; the engine executes productive
    /// interactions falling before `t` and, when the next one would land
    /// past `t`, truncates the clock to `t` and returns
    /// [`CappedAdvance::CapReached`] — an *exact* operation for exact
    /// stepping by memorylessness of the geometric gap. Batch mode clips
    /// its batch size so a batch's expected drift stays well inside the
    /// cap and falls back to exact stepping for the final approach; only
    /// the stochastic null tail of a committed batch may overshoot the
    /// cap (vanishingly rarely), in which case the caller observes a
    /// clock slightly past `cap`.
    ///
    /// `observer` sees every productive rewrite.
    fn advance_to(&mut self, cap: u128, observer: &mut dyn CountObserver) -> CappedAdvance;

    /// Mark `byz[s]` agents currently in state `s` as Byzantine/stuck-at:
    /// they keep interacting (null gaps and pair sampling are unchanged)
    /// but their own state never updates; their interaction partners still
    /// update normally. The marking is persistent for the rest of the run
    /// — `counts()[s] ≥ byz[s]` becomes an invariant. An all-zero spec
    /// clears the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `byz.len()` differs from the state-space size or
    /// `byz[s] > counts()[s]` for any `s`.
    fn set_byzantine(&mut self, byz: &[u32]);

    /// Number of rank states of the underlying protocol (the observable
    /// prefix whose full occupancy defines a correct ranking).
    fn num_rank_states(&self) -> usize;

    /// Advance the interaction clock by `nulls` scheduler draws without
    /// executing anything. Only meaningful while the configuration is
    /// silent (every draw is then a null with probability 1); used to
    /// fast-forward a silent run to its next scheduled fault. Saturates at
    /// the engine's clock width.
    fn skip_nulls(&mut self, nulls: u128);

    /// Move one agent from state `from` to state `to` (transient-fault
    /// injection). The interaction clock is not advanced. When a Byzantine
    /// overlay is active the moved agent is drawn from the non-Byzantine
    /// occupants of `from` (stuck-at agents never move).
    ///
    /// # Panics
    ///
    /// Panics if `from` has no (non-Byzantine) occupant or either state id
    /// is out of range.
    fn inject_state_fault(&mut self, from: State, to: State);

    /// Capture configuration, clocks and RNG.
    fn snapshot(&self) -> EngineSnapshot;

    /// Restore a snapshot previously taken from an engine of the same
    /// protocol instance.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's shape does not match this protocol.
    fn restore(&mut self, snapshot: &EngineSnapshot);

    /// Advance by one uncapped quantum (see
    /// [`advance_to`](Engine::advance_to)) and return the number of
    /// productive interactions applied, or `None` if the configuration is
    /// silent (nothing was executed).
    fn advance(&mut self) -> Option<u64> {
        match self.advance_to(u128::MAX, &mut NullCountObserver) {
            CappedAdvance::Silent => None,
            CappedAdvance::Applied(k) => Some(k),
            // Only a saturated clock can sit at the unbounded cap.
            CappedAdvance::CapReached => Some(0),
        }
    }

    /// Run until silent or until at least `max_interactions` have elapsed
    /// (`u64::MAX` = unbounded).
    ///
    /// # Errors
    ///
    /// Returns [`StabilisationTimeout`] when the cap is exceeded before a
    /// silent configuration is reached.
    #[inline]
    fn run_until_silent(
        &mut self,
        max_interactions: u64,
    ) -> Result<StabilisationReport, StabilisationTimeout> {
        self.run_until_silent_observed(max_interactions, &mut NullCountObserver)
    }

    /// Like [`run_until_silent`](Engine::run_until_silent), invoking
    /// `observer` on productive interactions (batch mode coalesces
    /// identical rewrites into one call with multiplicity > 1).
    ///
    /// # Errors
    ///
    /// Returns [`StabilisationTimeout`] when the cap is exceeded first.
    #[inline]
    fn run_until_silent_observed(
        &mut self,
        max_interactions: u64,
        observer: &mut dyn CountObserver,
    ) -> Result<StabilisationReport, StabilisationTimeout> {
        let end = run_loop(self, max_interactions, observer, |_| ControlFlow::<()>::Continue(()));
        match end {
            ControlFlow::Continue(verdict) => verdict,
            ControlFlow::Break(()) => unreachable!("the no-op hook never breaks"),
        }
    }

    /// Parallel time elapsed: interactions / n.
    fn parallel_time(&self) -> f64 {
        self.interactions_wide() as f64 / self.population_size() as f64
    }

    /// Build the report for the current (silent) configuration.
    fn report(&self) -> StabilisationReport {
        StabilisationReport {
            interactions_wide: self.interactions_wide(),
            productive_interactions: self.productive_interactions(),
            parallel_time: self.parallel_time(),
        }
    }
}

/// The one run-to-silence loop every engine and the service runner share:
/// check silence, check the cap, advance one uncapped quantum, then hand
/// the engine to `between` — the place for work that must fall between
/// quanta, such as the service's checkpoints. Taking a snapshot there
/// consumes no RNG, so a hooked run follows the unhooked trajectory draw
/// for draw.
///
/// Returns `Continue` with the verdict when the run ends — `Ok` when the
/// configuration went silent within `max_interactions` (`u64::MAX` =
/// unbounded), a [`StabilisationTimeout`] when the cap was reached first
/// or a batch's null tail overshot it on the way to silence — and
/// `Break` when `between` stopped the run.
#[inline]
pub fn run_loop<E, B>(
    engine: &mut E,
    max_interactions: u64,
    observer: &mut dyn CountObserver,
    mut between: impl FnMut(&mut E) -> ControlFlow<B>,
) -> ControlFlow<B, Result<StabilisationReport, StabilisationTimeout>>
where
    E: Engine + ?Sized,
{
    let cap = if max_interactions == u64::MAX {
        u128::MAX
    } else {
        u128::from(max_interactions)
    };
    loop {
        let clock = engine.interactions_wide();
        if engine.is_silent() {
            return ControlFlow::Continue(if clock <= cap {
                Ok(engine.report())
            } else {
                Err(StabilisationTimeout {
                    interactions: max_interactions,
                })
            });
        }
        if clock >= cap {
            return ControlFlow::Continue(Err(StabilisationTimeout {
                interactions: u64::try_from(clock).unwrap_or(u64::MAX),
            }));
        }
        engine.advance_to(u128::MAX, observer);
        between(engine)?;
    }
}

/// Which engine backs a run — the string form is accepted by the CLI and
/// the [`Scenario`](crate::runner::Scenario) runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Pick per protocol instance: [`Count`](EngineKind::Count) for
    /// populations of at least [`EngineKind::AUTO_COUNT_THRESHOLD`],
    /// [`Jump`](EngineKind::Jump) below. The runner's default.
    Auto,
    /// Step-by-step simulation over an agent vector.
    Naive,
    /// Exact null-skipping jump chain over counts: the count engine with
    /// batching off.
    Jump,
    /// Jump chain plus far-from-silence batching over counts.
    Count,
}

impl EngineKind {
    /// All concrete kinds, in documentation order ([`Auto`] resolves to
    /// one of these and is deliberately excluded).
    ///
    /// [`Auto`]: EngineKind::Auto
    pub const ALL: [EngineKind; 3] = [EngineKind::Naive, EngineKind::Jump, EngineKind::Count];

    /// Population size from which [`Auto`](EngineKind::Auto) turns
    /// batching on: below it batches are too small to pay for their
    /// split overhead, above it batching dominates.
    pub const AUTO_COUNT_THRESHOLD: usize = 4096;

    /// Parse `"auto"`, `"naive"`, `"jump"` or `"count"`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "auto" => Ok(EngineKind::Auto),
            "naive" => Ok(EngineKind::Naive),
            "jump" => Ok(EngineKind::Jump),
            "count" => Ok(EngineKind::Count),
            other => Err(format!(
                "unknown engine '{other}' (expected auto|naive|jump|count)"
            )),
        }
    }

    /// The canonical name (`parse` round-trips it).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Naive => "naive",
            EngineKind::Jump => "jump",
            EngineKind::Count => "count",
        }
    }

    /// Resolve [`Auto`](EngineKind::Auto) for a population of size `n`;
    /// concrete kinds resolve to themselves.
    pub fn resolve(self, n: usize) -> EngineKind {
        match self {
            EngineKind::Auto => {
                if n >= Self::AUTO_COUNT_THRESHOLD {
                    EngineKind::Count
                } else {
                    EngineKind::Jump
                }
            }
            concrete => concrete,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Build a boxed engine of the requested kind over a shared protocol
/// ([`EngineKind::Auto`] resolves against the protocol's population size).
///
/// # Errors
///
/// Propagates configuration validation errors from the engine constructor.
pub fn make_engine<'a, P>(
    kind: EngineKind,
    protocol: &'a P,
    config: Vec<State>,
    seed: u64,
) -> Result<Box<dyn Engine + 'a>, crate::error::ConfigError>
where
    P: crate::protocol::InteractionSchema + ?Sized + 'a,
{
    make_engine_threaded(kind, protocol, config, seed, 1)
}

/// [`make_engine`] with a worker-thread budget for the count engine's
/// parallel batch splits (0 = one per available core; the exact kinds
/// ignore it and never spawn a pool). Count-engine trajectories are bit-identical for a fixed seed
/// regardless of `threads` — see
/// [`CountSimulation::with_threads`](crate::count::CountSimulation::with_threads).
///
/// # Errors
///
/// Propagates configuration validation errors from the engine constructor.
pub fn make_engine_threaded<'a, P>(
    kind: EngineKind,
    protocol: &'a P,
    config: Vec<State>,
    seed: u64,
    threads: usize,
) -> Result<Box<dyn Engine + 'a>, crate::error::ConfigError>
where
    P: crate::protocol::InteractionSchema + ?Sized + 'a,
{
    Ok(match kind.resolve(protocol.population_size()) {
        EngineKind::Auto => unreachable!("resolve returns a concrete kind"),
        EngineKind::Naive => Box::new(crate::sim::Simulation::new(protocol, config, seed)?),
        EngineKind::Jump => Box::new(
            crate::count::CountSimulation::new(protocol, config, seed)?.with_batching(false),
        ),
        EngineKind::Count => Box::new(
            crate::count::CountSimulation::new(protocol, config, seed)?.with_threads(threads),
        ),
    })
}

/// Build a boxed engine directly from per-state occupancy counts, skipping
/// the agent vector entirely. The count engine consumes the
/// counts as-is (`O(#states)` construction); the naive engine expands them
/// into a state-sorted agent vector. At `n = 10⁹` this is what keeps a
/// scenario's peak memory at the counts footprint instead of an extra
/// `4n`-byte agent array.
///
/// # Errors
///
/// Propagates configuration validation errors from the engine constructor.
pub fn make_engine_from_counts<'a, P>(
    kind: EngineKind,
    protocol: &'a P,
    counts: Vec<u32>,
    seed: u64,
    threads: usize,
) -> Result<Box<dyn Engine + 'a>, crate::error::ConfigError>
where
    P: crate::protocol::InteractionSchema + ?Sized + 'a,
{
    Ok(match kind.resolve(protocol.population_size()) {
        EngineKind::Auto => unreachable!("resolve returns a concrete kind"),
        EngineKind::Naive => Box::new(crate::sim::Simulation::new(
            protocol,
            crate::init::from_counts(&counts),
            seed,
        )?),
        EngineKind::Jump => Box::new(
            crate::count::CountSimulation::from_counts(protocol, counts, seed)?
                .with_batching(false),
        ),
        EngineKind::Count => Box::new(
            crate::count::CountSimulation::from_counts(protocol, counts, seed)?
                .with_threads(threads),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClassSpec, InteractionSchema, Protocol};

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
    impl InteractionSchema for Ag {
        fn interaction_classes(&self) -> Vec<ClassSpec> {
            vec![ClassSpec::equal_rank()]
        }
    }

    #[test]
    fn kind_parse_round_trips() {
        for kind in EngineKind::ALL.into_iter().chain([EngineKind::Auto]) {
            assert_eq!(EngineKind::parse(kind.name()).unwrap(), kind);
            assert_eq!(format!("{kind}"), kind.name());
        }
        assert!(EngineKind::parse("warp").is_err());
    }

    #[test]
    fn auto_resolves_by_population_size() {
        let t = EngineKind::AUTO_COUNT_THRESHOLD;
        assert_eq!(EngineKind::Auto.resolve(t - 1), EngineKind::Jump);
        assert_eq!(EngineKind::Auto.resolve(t), EngineKind::Count);
        for kind in EngineKind::ALL {
            assert_eq!(kind.resolve(1), kind);
            assert_eq!(kind.resolve(1 << 30), kind);
        }
    }

    #[test]
    fn factory_resolves_auto() {
        // Auto must build exactly the engine its resolution names: the
        // same seed walks the same trajectory, quantum for quantum.
        let trace = |kind, n| {
            let p = Ag { n };
            let mut e = make_engine(kind, &p, vec![0; n], 3).unwrap();
            (0..50)
                .map(|_| (e.advance(), e.interactions_wide()))
                .collect::<Vec<_>>()
        };
        let t = EngineKind::AUTO_COUNT_THRESHOLD;
        assert_eq!(trace(EngineKind::Auto, 24), trace(EngineKind::Jump, 24));
        let big = trace(EngineKind::Auto, t);
        assert_eq!(big, trace(EngineKind::Count, t));
        assert!(big[0].0 > Some(1), "count at the threshold batches a stacked start");
    }

    #[test]
    fn factory_builds_all_kinds_and_they_stabilise() {
        let p = Ag { n: 24 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, vec![0; 24], 9).unwrap();
            assert_eq!(e.population_size(), 24);
            let rep = e.run_until_silent(u64::MAX).unwrap();
            assert!(e.is_silent(), "{kind}");
            assert!(e.counts().iter().all(|&c| c == 1), "{kind}");
            assert!(rep.interactions_wide >= u128::from(rep.productive_interactions));
            assert!(Engine::parallel_time(e.as_ref()) > 0.0);
        }
    }

    #[test]
    fn advance_semantics_per_engine() {
        let p = Ag { n: 16 };
        // Naive: every call executes exactly one interaction.
        let mut naive = make_engine(EngineKind::Naive, &p, vec![0; 16], 3).unwrap();
        let before = naive.interactions_wide();
        let quantum = naive.advance().unwrap();
        assert!(quantum <= 1);
        assert_eq!(naive.interactions_wide(), before + 1);
        // Jump: every call executes exactly one productive interaction.
        let mut jump = make_engine(EngineKind::Jump, &p, vec![0; 16], 3).unwrap();
        assert_eq!(jump.advance(), Some(1));
        assert_eq!(jump.productive_interactions(), 1);
        // Silent engines return None and never advance.
        let mut silent = make_engine(EngineKind::Count, &p, (0..16).collect(), 3).unwrap();
        assert_eq!(silent.advance(), None);
        assert_eq!(silent.interactions_wide(), 0);
    }

    #[test]
    fn run_loop_hook_runs_between_quanta_and_can_stop() {
        let p = Ag { n: 16 };
        let mut e = make_engine(EngineKind::Jump, &p, vec![0; 16], 4).unwrap();
        let mut seen = 0u64;
        let end = run_loop(e.as_mut(), u64::MAX, &mut NullCountObserver, |e| {
            seen += 1;
            if e.productive_interactions() == 5 {
                ControlFlow::Break(e.interactions_wide())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(seen, 5, "one hook call per exact quantum");
        assert_eq!(end, ControlFlow::Break(e.interactions_wide()));
        // The hooked prefix is the unhooked trajectory's prefix.
        let mut plain = make_engine(EngineKind::Jump, &p, vec![0; 16], 4).unwrap();
        for _ in 0..5 {
            plain.advance();
        }
        assert_eq!(plain.interactions_wide(), e.interactions_wide());
    }

    #[test]
    fn observers_see_all_productive_mass() {
        let p = Ag { n: 12 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, vec![0; 12], 5).unwrap();
            let mut seen = 0u64;
            let mut obs = FnCountObserver(|_i, _b, _a, mult, _c: &[u32]| seen += mult);
            let rep = e.run_until_silent_observed(u64::MAX, &mut obs).unwrap();
            let _ = obs;
            assert_eq!(seen, rep.productive_interactions, "{kind}");
        }
    }

    #[test]
    fn fault_injection_and_recovery_through_the_trait() {
        let p = Ag { n: 10 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, (0..10).collect(), 7).unwrap();
            assert!(e.is_silent());
            e.inject_state_fault(0, 4);
            assert!(!e.is_silent(), "{kind}");
            e.run_until_silent(u64::MAX).unwrap();
            assert!(e.counts().iter().all(|&c| c == 1), "{kind}");
        }
    }

    #[test]
    fn snapshot_restore_replays_exactly_per_engine() {
        let p = Ag { n: 12 };
        for kind in EngineKind::ALL {
            let mut e = make_engine(kind, &p, vec![0; 12], 11).unwrap();
            for _ in 0..5 {
                e.advance();
            }
            let snap = e.snapshot();
            assert_eq!(snap.counts().iter().sum::<u32>(), 12);
            let rep_a = e.run_until_silent(u64::MAX).unwrap();
            let counts_a = e.counts().to_vec();
            e.restore(&snap);
            assert_eq!(e.interactions_wide(), snap.interactions_wide());
            let rep_b = e.run_until_silent(u64::MAX).unwrap();
            assert_eq!(rep_a, rep_b, "{kind}");
            assert_eq!(counts_a, e.counts(), "{kind}");
        }
    }

    #[test]
    fn cross_engine_snapshot_restore_continues_the_configuration() {
        let p = Ag { n: 10 };
        let mut jump = make_engine(EngineKind::Jump, &p, vec![0; 10], 13).unwrap();
        jump.advance();
        let snap = jump.snapshot();
        // A count-only snapshot restores into the naive engine too (agents
        // are reconstructed from counts; anonymity makes that equivalent).
        let mut naive = make_engine(EngineKind::Naive, &p, vec![0; 10], 13).unwrap();
        naive.restore(&snap);
        assert_eq!(naive.counts(), snap.counts());
        assert_eq!(naive.interactions_wide(), snap.interactions_wide());
        naive.run_until_silent(u64::MAX).unwrap();
        assert!(naive.is_silent());
    }
}
