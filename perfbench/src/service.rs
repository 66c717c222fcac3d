//! The job-service workload and the service-layer probes.

use crate::cases::{self, Case, FAULT_JOB, LINE_JOB, TREE_JOB};
use crate::clock::{timed, Stamp};
use crate::stats::median;
use crate::trace::Tracer;
use ssr_engine::rng::{derive_seed, Xoshiro256};
use ssr_engine::{run_with_plan, Scenario};
use ssr_service::daemon::job_result;
use ssr_service::{
    run_job, submit_job, CheckpointStore, Daemon, DaemonConfig, JobKey, JobResult, JobSpec,
    ResultCache, RunConfig, RunDisposition,
};
use std::path::Path;

/// One slot of a closed-loop round.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Slot {
    Cold(usize),
    Hit,
}

/// Job kinds of the mix, by index into `KINDS`.
pub const KINDS: [Case; 3] = [TREE_JOB, LINE_JOB, FAULT_JOB];

/// One round of the closed loop, modelled on the one use of the daemon
/// the repository documents (README "Simulation as a service",
/// EXPERIMENTS.md "SV"): a sweep that submits new points of a grid and
/// re-submits points it has already computed, which the cache serves.
/// Nothing records real traffic, so the shares are synthetic and
/// unverified; each is set by what it must measure, not by use:
///
/// - nine cold tree jobs, the documented job (stacked, n = 65536): the
///   majority, so `job_cold_ms_p50` has ≥ 72 samples at 25 s and the
///   median job is a cold one (with hits near half, `run_ms_p50` would
///   sit on the boundary between ~20 ms hits and ~500 ms cold jobs);
/// - one cold line job (n = 4096): the kind the checkpoint-cadence
///   finding hits hardest; one, because it is the slowest kind per job
///   (at n = 16384 a single job takes ~20 s at the default cadence);
/// - two fault-plan ring jobs: the fault executor (README's
///   `--fault-burst` on submitted jobs), two so the fault path has ≥ 16
///   samples at 25 s;
/// - five re-submissions of earlier tree jobs: the sweep's re-submitted
///   points, enough for `job_hit_ms_p50` to have ≥ 40 samples at 25 s; tree
///   only, so the hit's key derivation is ROADMAP's `service/cache_hit`
///   case.
const ROUND: [Slot; 17] = [
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(0),
    Slot::Cold(1),
    Slot::Cold(2),
    Slot::Cold(2),
    Slot::Hit,
    Slot::Hit,
    Slot::Hit,
    Slot::Hit,
    Slot::Hit,
];

/// The job sequence of `rounds` rounds: each round's slots in a seeded
/// order, cold jobs drawn from their kind's pool by [`cases::draw`], a
/// re-submission naming a uniformly drawn earlier tree job. A round's
/// first job is never a re-submission.
pub fn sequence(seed: u64, rounds: usize) -> Vec<(Case, u64)> {
    let mut rng = Xoshiro256::seed_from_u64(derive_seed(seed, 1));
    let draws: Vec<Vec<u64>> = KINDS
        .iter()
        .enumerate()
        .map(|(k, kind)| {
            let per_round = ROUND.iter().filter(|s| **s == Slot::Cold(k)).count();
            cases::draw(kind, &mut rng, per_round * rounds)
        })
        .collect();
    let mut next = [0usize; KINDS.len()];
    let mut jobs: Vec<(Case, u64)> = Vec::new();
    for _ in 0..rounds {
        let mut round = ROUND;
        rng.shuffle(&mut round);
        let first_tree = round.iter().position(|s| *s == Slot::Cold(0)).unwrap_or(0);
        round.swap(0, first_tree);
        for slot in round {
            match slot {
                Slot::Cold(k) => {
                    jobs.push((KINDS[k], draws[k][next[k]]));
                    next[k] += 1;
                }
                Slot::Hit => {
                    let trees: Vec<(Case, u64)> = jobs
                        .iter()
                        .copied()
                        .filter(|(c, _)| c.name == TREE_JOB.name)
                        .collect();
                    jobs.push(trees[rng.below_usize(trees.len())]);
                }
            }
        }
    }
    jobs
}

/// One job's closed-loop record.
pub struct JobRecord {
    pub case: Case,
    pub latency_s: f64,
    pub from_cache: bool,
    pub ok: bool,
    pub digest: cases::Digest,
}

pub struct Mix {
    pub setup_s: f64,
    pub wall_s: f64,
    pub jobs: Vec<JobRecord>,
    pub hit_ratio: f64,
}

/// The daemon's idle poll (`ssr serve --poll-ms`). The default 20 ms
/// tick would round every cold job's latency up to the next tick and
/// hide changes smaller than a tick.
const POLL_MS: u64 = 1;

/// `DaemonConfig::new` defaults (drain mode, 1 core, checkpoint every
/// 2²² interactions) with the benchmark's poll.
fn daemon_config(dir: &Path) -> DaemonConfig {
    DaemonConfig {
        poll_ms: POLL_MS,
        ..DaemonConfig::new(dir)
    }
}

/// Run the closed loop: one client, one outstanding job. The client
/// submits, drains the daemon, and reads the result back.
pub fn run_mix(work: &Path, jobs: &[(Case, u64)], mut tracer: Option<&mut Tracer>) -> Mix {
    let dir = work.join("spool");
    let mut daemon = Daemon::new(daemon_config(&dir)).expect("spool opens");
    let mut setups = Vec::new();
    let mut done: Vec<((&'static str, u64), JobResult)> = Vec::new();
    let mut records = Vec::new();
    let mut last_stats = ssr_service::DaemonStats::default();
    let start = Stamp::now();
    for &(case, seed) in jobs {
        // The set-up sample: a daemon restarting on the spool, once before
        // every job so the samples spread over the run (between jobs the
        // restart's crash recovery finds nothing to requeue).
        let (restarted, s) = timed(|| Daemon::new(daemon_config(&dir)));
        setups.push(s);
        drop(restarted.expect("spool opens"));
        let spec = case.job(seed);
        let job_start = Stamp::now();
        let (key, stats, result) = match tracer.as_deref_mut() {
            Some(t) => {
                let id = t.begin("job");
                let key = t.span("daemon.submit", || submit_job(&dir, &spec));
                let stats = t.span("daemon.drain", || daemon.run());
                let result = key.as_ref().ok().and_then(|k| job_result(&dir, *k));
                t.end(id);
                (key, stats, result)
            }
            None => {
                let key = submit_job(&dir, &spec);
                let stats = daemon.run();
                let result = key.as_ref().ok().and_then(|k| job_result(&dir, *k));
                (key, stats, result)
            }
        };
        let latency_s = job_start.secs();
        // A daemon error, a rejected submission or a missing result fails
        // the job.
        let (ok, from_cache, digest) = match (stats, key, result) {
            (Ok(stats), Ok(_), Some(result)) => {
                let from_cache = stats.cache_hits > last_stats.cache_hits;
                let digest = (result.interactions_wide, result.productive);
                let earlier = done
                    .iter()
                    .find(|(id, _)| *id == (case.name, seed))
                    .map(|(_, r)| r);
                let ok = stats.failed == last_stats.failed
                    && cases::digest_matches(&case, seed, digest)
                    && match earlier {
                        // A cache hit must return its cold result.
                        Some(cold) => cold == &result,
                        None => !from_cache,
                    };
                if earlier.is_none() {
                    done.push(((case.name, seed), result));
                }
                last_stats = stats;
                (ok, from_cache, digest)
            }
            _ => (false, false, (0, 0)),
        };
        records.push(JobRecord {
            case,
            latency_s,
            from_cache,
            ok,
            digest,
        });
    }
    let wall_s = start.secs() - setups.iter().sum::<f64>();
    let hit_ratio = last_stats.cache_hits as f64 / last_stats.completed.max(1) as f64;
    Mix {
        setup_s: median(&setups),
        wall_s,
        jobs: records,
        hit_ratio,
    }
}

/// Service-layer per-layer figures.
#[derive(Default)]
pub struct ServiceLayers {
    pub key_ms: Vec<f64>,
    pub cache_get_ms: Vec<f64>,
    pub cache_put_ms: Vec<f64>,
    pub checkpoint_share: Vec<f64>,
    pub checkpoints: Vec<f64>,
    pub plan_ms: Vec<f64>,
    pub injected: Vec<f64>,
    pub failed: u64,
    pub attempted: u64,
    /// One line per probed job: its `run_job` times and checkpoints.
    pub notes: Vec<String>,
}

/// Probe the runner and fault layers on `jobs`, and the key and cache
/// layers on its tree jobs.
pub fn probe(tracer: &mut Tracer, work: &Path, jobs: &[(Case, u64)]) -> ServiceLayers {
    let cache = ResultCache::open(work.join("probe-cache")).expect("cache opens");
    let store = CheckpointStore::open(work.join("probe-store")).expect("store opens");
    let mut out = ServiceLayers::default();
    for &(case, seed) in jobs {
        let spec = case.job(seed);
        out.attempted += 1;
        if case.faults {
            if !probe_faults(tracer, &case, seed, &spec, &mut out) {
                out.failed += 1;
            }
            continue;
        }
        let Some(result) = probe_runner(tracer, &case, seed, &spec, &store, &mut out) else {
            out.failed += 1;
            continue;
        };
        if case.name != TREE_JOB.name {
            continue;
        }
        // Key and cache on the jobs the mix re-submits.
        let key = tracer.span("spec.key", || spec.key().expect("valid spec"));
        let put = tracer.span("cache.put", || cache.put(key, &result));
        let got = tracer.span("cache.get", || cache.get(key));
        if put.is_err() || got.as_ref() != Some(&result) {
            out.failed += 1;
        }
    }
    out.key_ms = tracer.durations_ms("spec.key");
    out.cache_put_ms = tracer.durations_ms("cache.put");
    out.cache_get_ms = tracer.durations_ms("cache.get");
    out.plan_ms = tracer.durations_ms("faults.plan");
    out
}

/// `run_job` at its default cadence and at cadence 0 on one spec; both
/// must give the recorded result.
fn probe_runner(
    tracer: &mut Tracer,
    case: &Case,
    seed: u64,
    spec: &JobSpec,
    store: &CheckpointStore,
    out: &mut ServiceLayers,
) -> Option<JobResult> {
    let run = |cfg: &RunConfig| match run_job(spec, store, cfg) {
        Ok(RunDisposition::Completed { result, .. }) => Some(result),
        _ => None,
    };
    let default = RunConfig::default();
    let id = tracer.begin("runner.default_cadence");
    let checkpointed = run(&default);
    tracer.end(id);
    let with = tracer.duration_ns(id) as f64;
    let id = tracer.begin("runner.cadence_0");
    let plain = run(&RunConfig {
        checkpoint_every: 0,
        ..default.clone()
    });
    tracer.end(id);
    let without = tracer.duration_ns(id) as f64;
    out.checkpoint_share.push((with - without).max(0.0) / with);
    let counted = tracer.span("runner.count_checkpoints", || {
        count_checkpoints(spec, store, &default)
    });
    if let Some((taken, _)) = &counted {
        out.checkpoints.push(*taken as f64);
        out.notes.push(format!(
            "run_job {} seed {seed}: cadence 0 {:.1} ms, default cadence {:.1} ms, {taken} checkpoints",
            case.name,
            without / 1e6,
            with / 1e6
        ));
    }
    let plain = plain?;
    let digest = (plain.interactions_wide, plain.productive);
    (checkpointed.as_ref() == Some(&plain)
        && counted.map(|(_, result)| result).as_ref() == Some(&plain)
        && cases::digest_matches(case, seed, digest))
    .then_some(plain)
}

/// The checkpoints `run_job` takes on `spec` under `cfg`, as `run_job`
/// itself reports them, and the job's result. A completed run does not
/// report its count, but `RunConfig::interrupt_after` bounds it: a run
/// from an empty store with `interrupt_after = Some(m)` is interrupted
/// (`RunDisposition::Interrupted`) if it takes `m` checkpoints and
/// completes if it takes fewer. The count is the `c` with `Some(c)`
/// interrupted and `Some(c + 1)` completed. [`sliced_count`] gives the
/// candidate tried first; if the two runs reject it, a doubling and then
/// binary search from scratch finds `c`.
fn count_checkpoints(
    spec: &JobSpec,
    store: &CheckpointStore,
    cfg: &RunConfig,
) -> Option<(u64, JobResult)> {
    let key = spec.key().ok()?;
    // `Ok(())` if a fresh run takes at least `m` checkpoints, else its result.
    let takes_at_least = |m: u32| -> Option<Result<(), JobResult>> {
        store.clear(key).ok()?;
        let capped = RunConfig {
            interrupt_after: Some(m),
            ..cfg.clone()
        };
        match run_job(spec, store, &capped).ok()? {
            RunDisposition::Interrupted { .. } => Some(Ok(())),
            RunDisposition::Completed { result, .. } => Some(Err(result)),
        }
    };
    // The count is in `lo..hi`; `result` is that of a completed run.
    let candidate = sliced_count(spec, store, cfg, key)?;
    let (mut lo, mut hi, mut result) = (0u32, None, None);
    match takes_at_least(candidate + 1)? {
        Ok(()) => lo = candidate + 1,
        Err(r) => (hi, result) = (Some(candidate + 1), Some(r)),
    }
    if candidate > lo {
        match takes_at_least(candidate)? {
            Ok(()) => lo = candidate,
            Err(r) => (hi, result) = (Some(candidate), Some(r)),
        }
    }
    while hi.is_none() {
        let m = lo.max(1).checked_mul(2)?;
        match takes_at_least(m)? {
            Ok(()) => lo = m,
            Err(r) => (hi, result) = (Some(m), Some(r)),
        }
    }
    let mut hi = hi?;
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match takes_at_least(mid)? {
            Ok(()) => lo = mid,
            Err(r) => (hi, result) = (mid, Some(r)),
        }
    }
    store.clear(key).ok()?;
    Some((u64::from(lo), result?))
}

/// A quick estimate of the checkpoint count: the job run in slices of at
/// most `slice` checkpoints, each resuming from the store and adding the
/// `Interrupted { checkpoints }` it reports. A slice that completes took
/// fewer; its starting checkpoint is put back and it is rerun with half
/// the slice, until a slice of one completes having taken none. This is
/// exact only while a resumed run keeps an uninterrupted run's cadence,
/// so [`count_checkpoints`] checks it from scratch.
fn sliced_count(
    spec: &JobSpec,
    store: &CheckpointStore,
    cfg: &RunConfig,
    key: JobKey,
) -> Option<u32> {
    store.clear(key).ok()?;
    let mut slice = 64u32;
    let mut taken = 0u32;
    let mut start: Option<(u128, Vec<u8>)> = None;
    loop {
        let sliced = RunConfig {
            interrupt_after: Some(slice),
            ..cfg.clone()
        };
        match run_job(spec, store, &sliced).ok()? {
            RunDisposition::Interrupted { checkpoints } => {
                taken = taken.checked_add(checkpoints)?;
                start = store.latest(key);
            }
            RunDisposition::Completed { .. } if slice == 1 => return Some(taken),
            RunDisposition::Completed { .. } => {
                slice /= 2;
                if let Some((clock, blob)) = &start {
                    store.save(key, *clock, blob).ok()?;
                }
            }
        }
    }
}

/// `run_with_plan` on a fault-plan job's engine, with the fault stream
/// `Scenario::run_outcome` derives for trial 0; it must reach the job's
/// recorded digest.
fn probe_faults(
    tracer: &mut Tracer,
    case: &Case,
    seed: u64,
    spec: &JobSpec,
    out: &mut ServiceLayers,
) -> bool {
    let protocol = case.protocol.build(case.n);
    let Some(plan) = spec.fault_plan() else {
        return false;
    };
    let Ok(mut engine) = Scenario::new(protocol.as_ref())
        .init(case.init())
        .base_seed(seed)
        .threads(1)
        .build_engine(0)
    else {
        return false;
    };
    let fault_seed = derive_seed(seed, 0) ^ 0xFA17_FA17_FA17_FA17;
    let outcome = tracer.span("faults.plan", || {
        run_with_plan(engine.as_mut(), &plan, fault_seed, case.budget)
    });
    out.injected.push(outcome.faults_injected as f64);
    let digest = (
        outcome.report.interactions_wide,
        outcome.report.productive_interactions,
    );
    cases::digest_matches(case, seed, digest)
}

/// Submit each job cold, then again, to a fresh daemon: the submit and
/// drain calls and the daemon's hit ratio.
pub fn probe_daemon(tracer: &mut Tracer, work: &Path, jobs: &[(Case, u64)]) -> (f64, u64) {
    let dir = work.join("probe-spool");
    let mut daemon = Daemon::new(daemon_config(&dir)).expect("spool opens");
    let mut failed = 0;
    let mut stats = ssr_service::DaemonStats::default();
    for _pass in 0..2 {
        for &(case, seed) in jobs {
            let spec = case.job(seed);
            let key = tracer.span("daemon.submit", || submit_job(&dir, &spec));
            let drained = tracer.span("daemon.drain", || daemon.run());
            let result = key.ok().and_then(|k| job_result(&dir, k));
            let digest = result.map(|r| (r.interactions_wide, r.productive));
            let matched = digest.is_some_and(|d| cases::digest_matches(&case, seed, d));
            if let Ok(s) = drained.as_ref() {
                stats = *s;
            }
            if !matched || drained.is_err() {
                failed += 1;
            }
        }
    }
    let ratio = stats.cache_hits as f64 / stats.completed.max(1) as f64;
    (ratio, failed)
}
