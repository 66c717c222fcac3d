//! One job execution with durable checkpoints and bit-identical resume.
//!
//! [`run_job`] drives the engine through the same loop every
//! `run_until_silent` uses, [`ssr_engine::run_loop`], and adds only its
//! checkpoint hook, which runs *between* quanta. Taking a snapshot
//! consumes no RNG, so a checkpointed run, a resumed run, and an
//! uninterrupted [`Scenario::run_one`](ssr_engine::Scenario::run_one) all
//! follow the same trajectory draw for draw — at any thread count and any
//! checkpoint cadence. The loop's quanta are uncapped; a clock-capped
//! quantum would not do here, because batch mode clips batch sizes near a
//! cap, which changes the trajectory.
//!
//! The cadence counts *productive* interactions, not the interaction
//! clock. Productive interactions are the count engine's work: a batch or
//! an exact step costs per productive interaction, and skipped nulls cost
//! nothing. Near silence the clock races ahead of the work — a tree job
//! at n = 65536 from a stacked start ends near 10¹⁰ interactions with
//! 524,288 productive ones — so a clock cadence would checkpoint on
//! almost every quantum of the exact tail. Productive ≤ clock on every
//! interval, so the productive cadence never checkpoints more often than
//! a clock cadence of the same value. A resumed run sets its next mark
//! to the restored productive count plus the cadence, as an uninterrupted
//! run does at that checkpoint. The naive engine (used only when a spec
//! asks for it) still spends Θ(nulls) of wall time between productive
//! steps, so its checkpoints are further apart in time.
//!
//! Fault-plan jobs run through
//! [`run_outcome`](ssr_engine::Scenario::run_outcome) without mid-run
//! checkpoints — the fault executor's arrival state is not snapshotable —
//! but remain deterministic per spec, so a re-run after a kill reproduces
//! the identical [`JobResult`].

use crate::spec::{JobResult, JobSpec, JobStatusKind, OutcomeStats};
use crate::store::CheckpointStore;
use crate::ServiceError;
use ssr_engine::wire::SnapshotShape;
use ssr_engine::engine::NullCountObserver;
use ssr_engine::{run_loop, Engine, EngineSnapshot, RunOutcome, Scenario};
use std::ops::ControlFlow;

/// Default checkpoint cadence of [`RunConfig`], [`DaemonConfig`] and
/// `ssr serve --checkpoint-every`: one checkpoint per 2²² productive
/// interactions.
///
/// [`DaemonConfig`]: crate::DaemonConfig
pub const DEFAULT_CHECKPOINT_EVERY: u128 = 1 << 22;

/// Execution knobs of one [`run_job`] call — scheduling and durability
/// policy, none of which affects the trajectory.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Core budget for this job's engine (1 = single-threaded).
    pub threads: usize,
    /// Checkpoint once this many productive interactions have passed
    /// since the last checkpoint (or since start or resume), checked
    /// between quanta; 0 disables checkpointing.
    pub checkpoint_every: u128,
    /// Self-interrupt after this many checkpoints (simulated kill; used
    /// by the daemon's kill/resume drills and tests). `None` = run to
    /// completion.
    pub interrupt_after: Option<u32>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 1,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            interrupt_after: None,
        }
    }
}

/// How a [`run_job`] call ended.
#[derive(Debug, Clone, PartialEq)]
pub enum RunDisposition {
    /// Ran (or resumed) to completion.
    Completed {
        /// The memoisable result.
        result: JobResult,
        /// Whether the run resumed from a stored checkpoint.
        resumed: bool,
    },
    /// Interrupted by [`RunConfig::interrupt_after`]; durable state is in
    /// the store and a later call resumes bit-identically.
    Interrupted {
        /// Checkpoints taken before interrupting (this call only).
        checkpoints: u32,
    },
}

/// Execute one job: restore from the newest checkpoint when one exists,
/// checkpoint every [`RunConfig::checkpoint_every`] productive
/// interactions, memoise nothing (the caller owns the cache).
///
/// # Errors
///
/// [`ServiceError::Spec`]/[`ServiceError::Config`] for unrunnable specs,
/// [`ServiceError::Snapshot`] for undecodable checkpoints,
/// [`ServiceError::Io`] for store failures.
pub fn run_job(
    spec: &JobSpec,
    store: &CheckpointStore,
    cfg: &RunConfig,
) -> Result<RunDisposition, ServiceError> {
    spec.validate()?;
    let key = spec.key()?;
    let protocol = spec.make_protocol()?;
    let shape = SnapshotShape::of(protocol.as_ref());
    let scenario = Scenario::new(protocol.as_ref())
        .engine(spec.engine)
        .init(spec.init.to_init())
        .base_seed(spec.seed)
        .max_interactions(spec.max_interactions)
        .threads(cfg.threads.max(1));

    if let Some(plan) = spec.fault_plan() {
        // Fault executor state is not snapshotable: run in one piece.
        let outcome = scenario.fault_plan(plan).run_outcome(0);
        store.clear(key)?;
        return Ok(RunDisposition::Completed {
            result: outcome_to_result(outcome),
            resumed: false,
        });
    }

    let mut engine = scenario
        .build_engine(0)
        .map_err(|e| ServiceError::Config(e.to_string()))?;
    let mut resumed = false;
    if let Some((_, blob)) = store.latest(key) {
        let snapshot = EngineSnapshot::from_wire(&blob, shape)?;
        engine.restore(&snapshot);
        resumed = true;
    }

    let every = cfg.checkpoint_every;
    let productive = |engine: &dyn Engine| u128::from(engine.productive_interactions());
    let mut next_checkpoint = productive(engine.as_ref()).saturating_add(every);
    let mut taken = 0u32;
    let end = run_loop(
        engine.as_mut(),
        spec.max_interactions,
        &mut NullCountObserver,
        |engine| {
            if every == 0 || productive(engine) < next_checkpoint {
                return ControlFlow::Continue(());
            }
            let blob = engine.snapshot().to_wire(shape);
            if let Err(e) = store.save(key, engine.interactions_wide(), &blob) {
                return ControlFlow::Break(Err(e.into()));
            }
            taken += 1;
            next_checkpoint = productive(engine).saturating_add(every);
            if cfg.interrupt_after == Some(taken) {
                return ControlFlow::Break(Ok(RunDisposition::Interrupted { checkpoints: taken }));
            }
            ControlFlow::Continue(())
        },
    );
    let status = match end {
        ControlFlow::Break(stopped) => return stopped,
        ControlFlow::Continue(Ok(_)) => JobStatusKind::Silent,
        // Cap reached, or a committed batch's null tail overshot the cap
        // before silence was observed.
        ControlFlow::Continue(Err(_)) => JobStatusKind::Timeout,
    };
    store.clear(key)?;
    Ok(RunDisposition::Completed {
        result: report_to_result(engine.as_ref(), status),
        resumed,
    })
}

fn report_to_result(engine: &dyn Engine, status: JobStatusKind) -> JobResult {
    let report = engine.report();
    JobResult {
        status,
        interactions: saturating_u64(report.interactions_wide),
        interactions_wide: report.interactions_wide,
        productive: report.productive_interactions,
        parallel_time: report.parallel_time,
        outcome: None,
    }
}

fn outcome_to_result(outcome: RunOutcome) -> JobResult {
    JobResult {
        status: if outcome.silent {
            JobStatusKind::Silent
        } else {
            JobStatusKind::Timeout
        },
        interactions: saturating_u64(outcome.report.interactions_wide),
        interactions_wide: outcome.report.interactions_wide,
        productive: outcome.report.productive_interactions,
        parallel_time: outcome.report.parallel_time,
        outcome: Some(OutcomeStats {
            availability: outcome.availability,
            mean_k: outcome.mean_k,
            max_k: outcome.max_k,
            faults_injected: outcome.faults_injected,
            churn_events: outcome.churn_events,
            bursts: outcome
                .bursts
                .iter()
                .map(|b| (b.time, b.faults, b.k_after, b.recovery))
                .collect(),
        }),
    }
}

/// The on-disk result keeps its saturating `u64` clock field next to the
/// exact one.
fn saturating_u64(clock: u128) -> u64 {
    u64::try_from(clock).unwrap_or(u64::MAX)
}
