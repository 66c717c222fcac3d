//! Run configurations, their recorded digests, and the two run loops:
//! the engine's own `run_until_silent` (plain) and the benchmark's
//! `advance()` loop with every call timed (traced).

use crate::clock::Stamp;
use crate::trace::Tracer;
use ssr_core::{GenericRanking, LineOfTraps, RingOfTraps, TreeRanking};
use ssr_engine::rng::Xoshiro256;
use ssr_engine::{Engine, EngineSnapshot, Init, InteractionSchema, Scenario};
use ssr_service::{JobInit, JobSpec};
use std::collections::BTreeMap;
use std::sync::OnceLock;

pub type Proto = Box<dyn InteractionSchema + Sync>;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    Generic,
    Ring,
    Line,
    Tree,
}

impl Protocol {
    pub fn build(self, n: usize) -> Proto {
        match self {
            Protocol::Generic => Box::new(GenericRanking::new(n)),
            Protocol::Ring => Box::new(RingOfTraps::new(n)),
            Protocol::Line => Box::new(LineOfTraps::new(n)),
            Protocol::Tree => Box::new(TreeRanking::new(n)),
        }
    }

    /// The protocol's name in the job format.
    fn job_name(self) -> &'static str {
        match self {
            Protocol::Generic => "generic",
            Protocol::Ring => "ring",
            Protocol::Line => "line",
            Protocol::Tree => "tree",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub enum Start {
    Uniform,
    Stacked,
    Perfect,
    KDistant(usize),
}

/// Periodic fault bursts of a fault-plan job: `FAULT_BURSTS` bursts of
/// `FAULTS_PER_BURST` corruptions, one every `FAULT_PERIOD`
/// interactions, and a budget of one more period.
pub const FAULT_PERIOD: u128 = 1 << 34;
pub const FAULT_BURSTS: u32 = 3;
pub const FAULTS_PER_BURST: u32 = 8;

/// One run configuration. Run `i` of a case uses base seed `i`, for `i`
/// in `0..pool`; `digests.txt` holds each one's final clocks. A pool
/// holds at least the runs a 25-second measurement draws from it, so no
/// run repeats within one.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub name: &'static str,
    pub protocol: Protocol,
    pub n: usize,
    pub start: Start,
    /// Interaction budget; `u64::MAX` runs to silence.
    pub budget: u64,
    /// Core budget of the engine.
    pub threads: usize,
    pub pool: u64,
    /// A fault-plan job (periodic bursts to a budget).
    pub faults: bool,
}

const fn case(name: &'static str, protocol: Protocol, n: usize, start: Start) -> Case {
    Case {
        name,
        protocol,
        n,
        start,
        budget: u64::MAX,
        threads: 1,
        pool: 0,
        faults: false,
    }
}

pub const RING_K16: Case = Case {
    pool: 240,
    ..case(
        "ring_k16_n65536",
        Protocol::Ring,
        1 << 16,
        Start::KDistant(16),
    )
};
pub const AG_UNIFORM: Case = Case {
    pool: 240,
    ..case("ag_uniform_n4096", Protocol::Generic, 4096, Start::Uniform)
};
pub const RING_UNIFORM: Case = Case {
    pool: 240,
    ..case("ring_uniform_n4096", Protocol::Ring, 4096, Start::Uniform)
};
/// At 1 thread: on a 2-vCPU host its runs at 2 threads spread by 20–28%
/// across ten runs (at 1 thread by 7–10%), as the pool's second thread
/// shares the machine with everything else. The pool is measured by the
/// traced run's `pool.speedup_t2`.
pub const TREE_BATCH: Case = Case {
    pool: 56,
    ..case(
        "tree_uniform_n524288",
        Protocol::Tree,
        1 << 19,
        Start::Uniform,
    )
};
/// The job of the service's documented use (README, EXPERIMENTS.md
/// "SV"): tree of ranks from a stacked start at n = 65536.
pub const TREE_JOB: Case = Case {
    pool: 72,
    ..case(
        "job_tree_stacked_n65536",
        Protocol::Tree,
        1 << 16,
        Start::Stacked,
    )
};
pub const LINE_JOB: Case = Case {
    pool: 8,
    ..case(
        "job_line_uniform_n4096",
        Protocol::Line,
        4096,
        Start::Uniform,
    )
};
pub const FAULT_JOB: Case = Case {
    pool: 16,
    faults: true,
    budget: ((FAULT_BURSTS as u128 + 1) * FAULT_PERIOD) as u64,
    ..case(
        "job_ring_faults_n4096",
        Protocol::Ring,
        4096,
        Start::Perfect,
    )
};
/// Not measured by any workload: the subject of
/// `--workload explain-ag-stacked`.
pub const AG_STACKED: Case = Case {
    pool: 0,
    ..case("ag_stacked_n4096", Protocol::Generic, 4096, Start::Stacked)
};

pub const ALL: [Case; 7] = [
    RING_K16,
    AG_UNIFORM,
    RING_UNIFORM,
    TREE_BATCH,
    TREE_JOB,
    LINE_JOB,
    FAULT_JOB,
];

impl Case {
    pub fn init(&self) -> Init<'static> {
        match self.start {
            Start::Uniform => Init::Uniform,
            Start::Stacked => Init::Stacked,
            Start::Perfect => Init::Perfect,
            Start::KDistant(k) => Init::KDistant(k),
        }
    }

    pub fn scenario<'a>(
        &self,
        protocol: &'a (dyn InteractionSchema + Sync + 'static),
        seed: u64,
        threads: usize,
    ) -> Scenario<'a, dyn InteractionSchema + Sync> {
        Scenario::new(protocol)
            .init(self.init())
            .base_seed(seed)
            .max_interactions(self.budget)
            .threads(threads)
    }

    /// The job running this case's run `seed` through the service.
    pub fn job(&self, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(self.protocol.job_name(), self.n, seed);
        spec.init = match self.start {
            Start::Uniform => JobInit::Uniform,
            Start::Stacked => JobInit::Stacked,
            Start::Perfect => JobInit::Perfect,
            Start::KDistant(k) => JobInit::KDistant(k),
        };
        spec.max_interactions = self.budget;
        if self.faults {
            spec.bursts = (1..=FAULT_BURSTS)
                .map(|i| (u128::from(i) * FAULT_PERIOD, FAULTS_PER_BURST))
                .collect();
        }
        spec
    }
}

/// Final clocks of a run: `(interactions_wide, productive)`.
pub type Digest = (u128, u64);

fn digests() -> &'static BTreeMap<(String, u64), Digest> {
    static DIGESTS: OnceLock<BTreeMap<(String, u64), Digest>> = OnceLock::new();
    DIGESTS.get_or_init(|| {
        include_str!("../digests.txt")
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                let parse = |i: usize| f.get(i).copied().unwrap_or("");
                (
                    (parse(0).to_string(), parse(1).parse().expect("digest seed")),
                    (
                        parse(2).parse().expect("digest interactions"),
                        parse(3).parse().expect("digest productive"),
                    ),
                )
            })
            .collect()
    })
}

/// The recorded digest of run `seed` of `case`.
pub fn recorded(case: &Case, seed: u64) -> Option<Digest> {
    digests().get(&(case.name.to_string(), seed)).copied()
}

/// Whether `got` is the recorded digest of run `seed` of `case`. A run
/// without a recorded digest does not match.
pub fn digest_matches(case: &Case, seed: u64, got: Digest) -> bool {
    recorded(case, seed) == Some(got)
}

/// `count` runs of `case`, drawn by stratified sampling: the pool sorted
/// by recorded productive work (then by recorded interactions, which
/// alone vary on the tree's stacked start) is cut into `count` strata of adjacent
/// runs and one run is drawn from each, so every seed gets different
/// runs with nearly the same spread of run lengths. Returned in a seeded
/// order; strata are reused in turn when `count` exceeds the pool.
pub fn draw(case: &Case, rng: &mut Xoshiro256, count: usize) -> Vec<u64> {
    let mut pool: Vec<u64> = (0..case.pool).collect();
    pool.sort_by_key(|&s| {
        let (interactions, productive) = recorded(case, s).unwrap_or((0, 0));
        (productive, interactions, s)
    });
    let width = (pool.len() / count.max(1)).max(1);
    let strata: Vec<&[u64]> = pool.chunks(width).collect();
    let mut picks: Vec<u64> = (0..count)
        .map(|i| {
            let stratum = if count <= strata.len() {
                strata[i * strata.len() / count]
            } else {
                strata[i % strata.len()]
            };
            stratum[rng.below_usize(stratum.len())]
        })
        .collect();
    rng.shuffle(&mut picks);
    picks
}

/// A ranking run must end silent with every rank state held once; a
/// budgeted run must have used its budget.
fn outcome_ok(case: &Case, engine: &dyn Engine) -> bool {
    if case.budget != u64::MAX {
        return engine.interactions_wide() >= u128::from(case.budget);
    }
    engine.is_silent()
        && engine.counts()[..engine.num_rank_states()]
            .iter()
            .all(|&c| c == 1)
}

/// One measured run.
pub struct Run {
    pub setup_s: f64,
    pub run_s: f64,
    pub digest: Digest,
    pub ok: bool,
}

/// Build the case and run it with the engine's own `run_until_silent`.
pub fn run_plain(case: &Case, seed: u64, threads: usize) -> Run {
    let start = Stamp::now();
    let protocol = case.protocol.build(case.n);
    let mut engine = case
        .scenario(protocol.as_ref(), seed, threads)
        .build_engine(0)
        .expect("benchmark cases build valid configurations");
    let setup_s = start.secs();
    let run_start = Stamp::now();
    let _ = engine.run_until_silent(case.budget);
    let run_s = run_start.secs();
    let digest = (engine.interactions_wide(), engine.productive_interactions());
    Run {
        setup_s,
        run_s,
        digest,
        ok: outcome_ok(case, engine.as_ref()) && digest_matches(case, seed, digest),
    }
}

/// Per-call timings of one traced run, folded into its span at the end.
#[derive(Default)]
pub struct Quanta {
    pub exact: u64,
    pub exact_ns: u64,
    pub exact_ns_p50: f64,
    pub batches: u64,
    pub batch_ns: u64,
    pub batch_ns_p50: f64,
    pub batch_draws: u64,
    pub loop_ns: u64,
    pub productive: u64,
}

fn median_u32(mut v: Vec<u32>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mid = v.len() / 2;
    let (_, m, _) = v.select_nth_unstable(mid);
    f64::from(*m)
}

/// Build and run the case through the benchmark's own `advance()` loop,
/// timing every call. Returns the run's record, its per-call summary and
/// a snapshot taken once half of the recorded productive work is done.
pub fn run_traced(
    tracer: &mut Tracer,
    case: &Case,
    seed: u64,
    threads: usize,
) -> (Run, Quanta, Option<EngineSnapshot>) {
    let run_span = tracer.begin("run");
    let start = Stamp::now();
    let protocol = tracer.span("core.build", || case.protocol.build(case.n));
    let mut engine = tracer.span("engine.build", || {
        case.scenario(protocol.as_ref(), seed, threads)
            .build_engine(0)
            .expect("benchmark cases build valid configurations")
    });
    let setup_s = start.secs();
    let half = recorded(case, seed).map_or(u64::MAX, |d| d.1 / 2);
    let cap = u128::from(case.budget);
    let mut exact_ns: Vec<u32> = Vec::new();
    let mut batch_ns: Vec<u32> = Vec::new();
    let mut q = Quanta::default();
    let mut snapshot = None;
    let loop_span = tracer.begin("engine.loop");
    let run_start = Stamp::now();
    loop {
        if engine.is_silent() || engine.interactions_wide() >= cap {
            break;
        }
        let call = Stamp::now();
        let k = engine.advance().unwrap_or(0);
        let ns = call.ns();
        let ns32 = u32::try_from(ns).unwrap_or(u32::MAX);
        if k == 1 {
            q.exact += 1;
            q.exact_ns += ns;
            exact_ns.push(ns32);
        } else {
            q.batches += 1;
            q.batch_ns += ns;
            q.batch_draws += k;
            batch_ns.push(ns32);
        }
        if snapshot.is_none() && engine.productive_interactions() >= half {
            snapshot = Some(engine.snapshot());
        }
    }
    let run_s = run_start.secs();
    tracer.end(loop_span);
    q.loop_ns = tracer.duration_ns(loop_span);
    q.productive = engine.productive_interactions();
    q.exact_ns_p50 = median_u32(exact_ns);
    q.batch_ns_p50 = median_u32(batch_ns);
    for (key, value) in [
        ("exact_quanta", q.exact as f64),
        ("exact_ns", q.exact_ns as f64),
        ("batch_quanta", q.batches as f64),
        ("batch_ns", q.batch_ns as f64),
        ("batch_draws", q.batch_draws as f64),
        ("productive", q.productive as f64),
    ] {
        tracer.attr(loop_span, key, value);
    }
    tracer.end(run_span);
    let digest = (engine.interactions_wide(), engine.productive_interactions());
    let run = Run {
        setup_s,
        run_s,
        digest,
        ok: outcome_ok(case, engine.as_ref()) && digest_matches(case, seed, digest),
    };
    (run, q, snapshot)
}
