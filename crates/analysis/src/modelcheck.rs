//! Exhaustive model checking of the self-stabilisation claims.
//!
//! The paper's protocols are *stable* (correct with probability 1) and
//! *silent* from **every** initial configuration — not merely from the
//! configurations a particular experiment happens to sample. For small
//! instances this is mechanically verifiable: the configuration space of a
//! population protocol is the set of multisets of `n` states drawn from the
//! `num_states`-element state space, which has size `C(n + S − 1, n)` and
//! is fully enumerable.
//!
//! [`verify_stability`] enumerates the **entire** configuration space and
//! checks three properties that together are equivalent to "stable, silent,
//! and correct" in the finite-Markov-chain sense:
//!
//! 1. **silent ⇒ ranked** — every configuration with no productive ordered
//!    pair is a perfect ranking (each rank state occupied exactly once);
//! 2. **ranked ⇒ silent** — the perfect ranking is a fixed point;
//! 3. **silence reachable from everywhere** — from every configuration
//!    there is a path of productive interactions to a silent configuration.
//!    In a finite chain whose every transition has positive probability,
//!    this is equivalent to almost-sure absorption in the silent set.
//!
//! Because *every* configuration is inspected (not just those reachable
//! from one start), this also covers all `k`-distant configurations of §3
//! and all red/green buffer arrangements of §5 at once.
//!
//! # Examples
//!
//! ```
//! use ssr_analysis::modelcheck::verify_stability;
//! use ssr_core::generic::GenericRanking;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cert = verify_stability(&GenericRanking::new(5), 1_000_000)?;
//! assert_eq!(cert.silent_configurations, 1); // only the perfect ranking
//! println!(
//!     "checked {} configurations, {} transitions",
//!     cert.configurations, cert.transitions
//! );
//! # Ok(())
//! # }
//! ```

use crate::exact::Counts;
use ssr_engine::protocol::Protocol;
use std::collections::HashMap;

/// Proof object returned by a successful [`verify_stability`] run.
///
/// The certificate records the size of the exhaustively verified space so
/// that test logs and EXPERIMENTS.md can state exactly what was proved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StabilityCertificate {
    /// Number of configurations enumerated (the full multiset space).
    pub configurations: usize,
    /// How many of them are silent (for a correct ranking protocol: 1).
    pub silent_configurations: usize,
    /// Total productive configuration-graph edges explored.
    pub transitions: u64,
}

impl std::fmt::Display for StabilityCertificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stable: {} configurations, {} silent, {} transitions",
            self.configurations, self.silent_configurations, self.transitions
        )
    }
}

/// A violation of the stability contract found by [`verify_stability`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModelCheckError {
    /// The configuration space `C(n+S−1, n)` exceeds the caller's cap.
    StateSpaceTooLarge {
        /// Number of configurations that would have to be enumerated.
        needed: u128,
        /// The cap that was exceeded.
        limit: usize,
    },
    /// A configuration without productive pairs is not a perfect ranking:
    /// the protocol can die in a wrong configuration.
    SilentNotRanked {
        /// Occupancy counts of the offending configuration.
        counts: Vec<u16>,
    },
    /// The perfect ranking admits a productive pair — the protocol would
    /// never be silent.
    PerfectRankingNotSilent,
    /// Some configuration cannot reach any silent configuration, so the
    /// protocol is not stable (stabilises with probability 0 from there).
    SilenceUnreachable {
        /// Occupancy counts of a configuration trapped outside the basin.
        counts: Vec<u16>,
    },
}

impl std::fmt::Display for ModelCheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelCheckError::StateSpaceTooLarge { needed, limit } => write!(
                f,
                "configuration space has {needed} configurations, exceeding limit {limit}"
            ),
            ModelCheckError::SilentNotRanked { counts } => {
                write!(f, "silent configuration is not a ranking: {counts:?}")
            }
            ModelCheckError::PerfectRankingNotSilent => {
                write!(f, "the perfect ranking configuration is not silent")
            }
            ModelCheckError::SilenceUnreachable { counts } => {
                write!(f, "no silent configuration reachable from {counts:?}")
            }
        }
    }
}

impl std::error::Error for ModelCheckError {}

/// Number of multisets of size `n` over `s` states, `C(n+s−1, n)`,
/// saturating at `u128::MAX`.
fn multiset_count(n: usize, s: usize) -> u128 {
    // C(n+s-1, s-1) computed incrementally; saturate on overflow.
    let k = (s - 1) as u128;
    let mut acc: u128 = 1;
    for i in 1..=k {
        let num = n as u128 + i;
        acc = match acc.checked_mul(num) {
            Some(v) => v / i,
            None => return u128::MAX,
        };
    }
    acc
}

/// Enumerate every composition of `n` into `s` non-negative parts
/// (equivalently: every multiset configuration), invoking `f` on each.
fn for_each_configuration(n: usize, s: usize, f: &mut impl FnMut(&[u16])) {
    let mut counts = vec![0u16; s];
    fill(&mut counts, 0, n as u16, f);
}

fn fill(counts: &mut [u16], idx: usize, remaining: u16, f: &mut impl FnMut(&[u16])) {
    if idx == counts.len() - 1 {
        counts[idx] = remaining;
        f(counts);
        return;
    }
    for v in 0..=remaining {
        counts[idx] = v;
        fill(counts, idx + 1, remaining - v, f);
    }
    counts[idx] = 0;
}

fn is_perfect_ranking_counts(c: &Counts, num_ranks: usize) -> bool {
    c[..num_ranks].iter().all(|&v| v == 1) && c[num_ranks..].iter().all(|&v| v == 0)
}

/// Exhaustively verify the stability contract over the **entire**
/// configuration space of `p` (see module docs for the three properties).
///
/// Cost is `Θ(C(n+S−1, n) · S²)` time and `Θ(C(n+S−1, n))` memory, so this
/// is a tool for small instances (typically `n ≤ 8`); `limit` caps the
/// number of configurations enumerated.
///
/// # Errors
///
/// * [`ModelCheckError::StateSpaceTooLarge`] if the space exceeds `limit`;
/// * [`ModelCheckError::SilentNotRanked`], [`PerfectRankingNotSilent`] or
///   [`SilenceUnreachable`] for genuine protocol violations, each carrying
///   a concrete counterexample configuration.
///
/// [`PerfectRankingNotSilent`]: ModelCheckError::PerfectRankingNotSilent
/// [`SilenceUnreachable`]: ModelCheckError::SilenceUnreachable
pub fn verify_stability<P: Protocol + ?Sized>(
    p: &P,
    limit: usize,
) -> Result<StabilityCertificate, ModelCheckError> {
    let n = p.population_size();
    let s = p.num_states();
    let needed = multiset_count(n, s);
    if needed > limit as u128 {
        return Err(ModelCheckError::StateSpaceTooLarge { needed, limit });
    }

    // Pass 1: index every configuration.
    let mut index: HashMap<Counts, usize> = HashMap::with_capacity(needed as usize);
    let mut configs: Vec<Counts> = Vec::with_capacity(needed as usize);
    for_each_configuration(n, s, &mut |c| {
        index.insert(c.to_vec(), configs.len());
        configs.push(c.to_vec());
    });
    debug_assert_eq!(configs.len() as u128, needed);

    // Pass 2: successor edges, silence flags, local silent-shape checks.
    let m = configs.len();
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut silent = vec![false; m];
    let mut transitions: u64 = 0;
    let num_ranks = p.num_rank_states();
    for (i, c) in configs.iter().enumerate() {
        // Distinct successors under one productive interaction; the pair
        // multiplicities are irrelevant for reachability.
        let succ = crate::exact::transitions(p, c);
        let ranked = is_perfect_ranking_counts(c, num_ranks);
        if succ.is_empty() {
            if !ranked {
                return Err(ModelCheckError::SilentNotRanked { counts: c.clone() });
            }
            silent[i] = true;
        } else if ranked {
            return Err(ModelCheckError::PerfectRankingNotSilent);
        }
        transitions += succ.len() as u64;
        for (t, _) in succ {
            reverse[index[&t]].push(i);
        }
    }

    // Pass 3: reverse BFS from the silent set must cover everything.
    let mut reached = silent.clone();
    let mut queue: std::collections::VecDeque<usize> = (0..m).filter(|&i| silent[i]).collect();
    while let Some(i) = queue.pop_front() {
        for &j in &reverse[i] {
            if !reached[j] {
                reached[j] = true;
                queue.push_back(j);
            }
        }
    }
    if let Some(i) = (0..m).find(|&i| !reached[i]) {
        return Err(ModelCheckError::SilenceUnreachable {
            counts: configs[i].clone(),
        });
    }

    Ok(StabilityCertificate {
        configurations: m,
        silent_configurations: silent.iter().filter(|&&b| b).count(),
        transitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_core::generic::GenericRanking;
    use ssr_core::line::LineOfTraps;
    use ssr_core::ring::RingOfTraps;
    use ssr_core::tree::TreeRanking;
    use ssr_engine::protocol::State;

    #[test]
    fn multiset_count_matches_binomials() {
        assert_eq!(multiset_count(2, 2), 3); // {00,01,11}
        assert_eq!(multiset_count(3, 3), 10);
        assert_eq!(multiset_count(5, 5), 126);
        assert_eq!(multiset_count(6, 12), 12376);
    }

    #[test]
    fn enumeration_is_complete_and_duplicate_free() {
        let mut seen = std::collections::HashSet::new();
        for_each_configuration(4, 3, &mut |c| {
            assert_eq!(c.iter().sum::<u16>(), 4);
            assert!(seen.insert(c.to_vec()), "duplicate {c:?}");
        });
        assert_eq!(seen.len() as u128, multiset_count(4, 3));
    }

    #[test]
    fn generic_protocol_is_stable_for_all_configurations() {
        for n in 2..=7 {
            let cert = verify_stability(&GenericRanking::new(n), 2_000_000).unwrap();
            assert_eq!(cert.silent_configurations, 1, "n = {n}");
        }
    }

    #[test]
    fn ring_of_traps_is_stable_for_all_configurations() {
        for n in [2, 4, 6, 8] {
            let cert = verify_stability(&RingOfTraps::new(n), 2_000_000).unwrap();
            assert_eq!(cert.silent_configurations, 1, "n = {n}");
        }
    }

    #[test]
    fn line_of_traps_is_stable_for_all_configurations() {
        for n in [3, 5, 6] {
            let cert = verify_stability(&LineOfTraps::new(n), 2_000_000).unwrap();
            assert_eq!(cert.silent_configurations, 1, "n = {n}");
        }
    }

    #[test]
    fn tree_ranking_is_stable_for_all_configurations() {
        for n in [3, 4, 5] {
            let p = TreeRanking::with_buffer(n, 2);
            let cert = verify_stability(&p, 2_000_000).unwrap();
            assert_eq!(cert.silent_configurations, 1, "n = {n}");
        }
    }

    #[test]
    fn space_cap_is_enforced() {
        let err = verify_stability(&GenericRanking::new(20), 100).unwrap_err();
        match err {
            ModelCheckError::StateSpaceTooLarge { needed, limit } => {
                assert_eq!(limit, 100);
                assert!(needed > 100);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// A protocol with no rules at all: every configuration is silent,
    /// including non-rankings.
    struct Dead;
    impl Protocol for Dead {
        fn name(&self) -> &str {
            "dead"
        }
        fn population_size(&self) -> usize {
            3
        }
        fn num_states(&self) -> usize {
            3
        }
        fn num_rank_states(&self) -> usize {
            3
        }
        fn transition(&self, _i: State, _r: State) -> Option<(State, State)> {
            None
        }
    }

    #[test]
    fn dead_protocol_rejected_as_silent_not_ranked() {
        let err = verify_stability(&Dead, 1_000).unwrap_err();
        assert!(matches!(err, ModelCheckError::SilentNotRanked { .. }));
        assert!(err.to_string().contains("not a ranking"));
    }

    /// A protocol that keeps churning even on the perfect ranking.
    struct Restless;
    impl Protocol for Restless {
        fn name(&self) -> &str {
            "restless"
        }
        fn population_size(&self) -> usize {
            2
        }
        fn num_states(&self) -> usize {
            2
        }
        fn num_rank_states(&self) -> usize {
            2
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            // 0+1 swaps forever; 0+0/1+1 fix duplicates.
            if i == r {
                Some((i, 1 - r))
            } else {
                Some((r, i))
            }
        }
    }

    #[test]
    fn restless_protocol_rejected() {
        let err = verify_stability(&Restless, 1_000).unwrap_err();
        assert_eq!(err, ModelCheckError::PerfectRankingNotSilent);
    }

    /// Correct on rank duplicates but with an unreachable-silence trap:
    /// agents in the extra states 2/3 churn forever (every configuration
    /// touching them is productive yet none ever drains back to a rank).
    struct Trapped;
    impl Protocol for Trapped {
        fn name(&self) -> &str {
            "trapped"
        }
        fn population_size(&self) -> usize {
            2
        }
        fn num_states(&self) -> usize {
            4
        }
        fn num_rank_states(&self) -> usize {
            2
        }
        fn transition(&self, i: State, r: State) -> Option<(State, State)> {
            let flip = |s: State| if s == 2 { 3 } else { 2 };
            match (i, r) {
                (0, 0) => Some((0, 1)),
                (1, 1) => Some((1, 0)),
                (0, 1) | (1, 0) => None,
                // Any agent in {2, 3} keeps toggling between 2 and 3,
                // never re-entering a rank state.
                (a, b) if a >= 2 && b >= 2 => Some((flip(a), flip(b))),
                (a, b) if b >= 2 => Some((a, flip(b))),
                (a, b) => Some((flip(a), b)),
            }
        }
    }

    #[test]
    fn unreachable_silence_detected_with_counterexample() {
        let err = verify_stability(&Trapped, 1_000).unwrap_err();
        match err {
            ModelCheckError::SilenceUnreachable { counts } => {
                assert!(
                    counts[2] > 0 || counts[3] > 0,
                    "counterexample must involve the churning extra states: {counts:?}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn certificate_display_is_informative() {
        let cert = verify_stability(&GenericRanking::new(3), 1_000).unwrap();
        let s = cert.to_string();
        assert!(s.contains("stable"));
        assert!(s.contains("silent"));
    }
}
