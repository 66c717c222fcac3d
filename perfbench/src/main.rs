//! The repository benchmark: end-to-end metrics per workload with
//! tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact_tail --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod cases;
mod clock;
mod probes;
mod service;
mod stats;
mod trace;

use cases::{Case, Run, AG_STACKED, AG_UNIFORM, RING_K16, RING_UNIFORM, TREE_BATCH};
use ssr_engine::rng::{derive_seed, Xoshiro256};
use ssr_engine::EngineSnapshot;
use stats::{median, tail};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// A workload that runs engines directly: its cases, run once each per
/// round, and how many rounds one second of measurement holds.
struct EngineWorkload {
    cases: &'static [Case],
    rounds_per_second: f64,
}

const EXACT_TAIL: EngineWorkload = EngineWorkload {
    cases: &[RING_K16, AG_UNIFORM, RING_UNIFORM],
    rounds_per_second: 6.0,
};
const BATCH_SCALE: EngineWorkload = EngineWorkload {
    cases: &[TREE_BATCH],
    rounds_per_second: 1.4,
};
fn engine_workload(name: &str) -> Option<&'static EngineWorkload> {
    match name {
        "exact_tail" => Some(&EXACT_TAIL),
        "batch_scale" => Some(&BATCH_SCALE),
        _ => None,
    }
}

/// Closed-loop rounds of the service mix per second.
const SERVICE_ROUNDS_PER_SECOND: f64 = 0.3;

const WORKLOADS: [&str; 3] = ["exact_tail", "batch_scale", "service_mix"];
/// Modes outside the benchmark: `record-digests` prints `digests.txt`;
/// `explain-ag-stacked` traces A_G from a stacked start at n = 4096.
const MAINTENANCE: [&str; 2] = ["record-digests", "explain-ag-stacked"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Metrics in output order: name, value, unit, sample count.
#[derive(Default)]
struct Report {
    metrics: Vec<(&'static str, f64, &'static str, usize)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push((name, value, unit, samples));
    }

    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|_| format!("bad --seconds {value}"))?,
                )
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("bad --trace {value} (expected 0 or 1)")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) && !MAINTENANCE.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (expected {})",
            WORKLOADS.join("|")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(25.0).max(0.1),
        trace: trace.unwrap_or(false),
    })
}

fn rounds(seconds: f64, per_second: f64) -> usize {
    ((seconds * per_second).round() as usize).max(1)
}

/// The run list of an engine workload: each round runs every case once,
/// on runs drawn from its pool by [`cases::draw`].
fn run_list(w: &EngineWorkload, seed: u64, seconds: f64) -> Vec<(Case, u64)> {
    let rounds = rounds(seconds, w.rounds_per_second);
    let draws: Vec<Vec<u64>> = w
        .cases
        .iter()
        .enumerate()
        .map(|(i, case)| {
            let mut rng = Xoshiro256::seed_from_u64(derive_seed(seed, i as u64));
            cases::draw(case, &mut rng, rounds)
        })
        .collect();
    (0..rounds)
        .flat_map(|r| {
            w.cases
                .iter()
                .zip(&draws)
                .map(move |(case, d)| (*case, d[r]))
        })
        .collect()
}

fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Tracing off: every run through the engine's own loop.
fn engine_end_to_end(list: &[(Case, u64)], rep: &mut Report) {
    let mut runs: Vec<Run> = Vec::new();
    for &(case, seed) in list {
        let run = cases::run_plain(&case, seed, case.threads);
        rep.count(run.ok);
        runs.push(run);
    }
    let wall: f64 = runs.iter().map(|r| r.run_s).sum();
    let run_ms: Vec<f64> = runs.iter().map(|r| r.run_s * 1e3).collect();
    let job_ms: Vec<f64> = runs.iter().map(|r| (r.setup_s + r.run_s) * 1e3).collect();
    let n = runs.len();
    let (tail_ms, pct) = tail(&run_ms);
    let interactions: f64 = runs.iter().map(|r| r.digest.0 as f64).sum();
    let productive: f64 = runs.iter().map(|r| r.digest.1 as f64).sum();
    rep.put(
        "setup_s",
        median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        "s",
        n,
    );
    rep.put("wall_s", wall, "s", n);
    rep.put("run_ms_p50", median(&run_ms), "ms", n);
    rep.put("run_ms_tail", tail_ms, "ms", n);
    rep.notes
        .push(format!("run_ms_tail is percentile {pct:.1} of {n} runs"));
    rep.put("interactions_per_s", interactions / wall, "1/s", n);
    rep.put("productive_per_s", productive / wall, "1/s", n);
    rep.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    rep.put("job_cold_ms_p50", median(&job_ms), "ms", n);
    rep.put(
        "jobs_per_s",
        n as f64 / (job_ms.iter().sum::<f64>() / 1e3),
        "1/s",
        n,
    );
}

fn service_end_to_end(list: &[(Case, u64)], work: &Path, rep: &mut Report) {
    let mix = service::run_mix(work, list, None);
    for job in &mix.jobs {
        rep.count(job.ok);
    }
    let all: Vec<f64> = mix.jobs.iter().map(|j| j.latency_s * 1e3).collect();
    let cold: Vec<&service::JobRecord> = mix.jobs.iter().filter(|j| !j.from_cache).collect();
    // Engine-run jobs: cold and without a fault plan (a fault job's clock
    // is its fixed budget, not work the engine chose to do).
    let engine_run: Vec<&service::JobRecord> =
        cold.iter().copied().filter(|j| !j.case.faults).collect();
    let cold_ms: Vec<f64> = engine_run.iter().map(|j| j.latency_s * 1e3).collect();
    let hit_ms: Vec<f64> = mix
        .jobs
        .iter()
        .filter(|j| j.from_cache)
        .map(|j| j.latency_s * 1e3)
        .collect();
    let n = all.len();
    let (tail_ms, pct) = tail(&all);
    let engine_s: f64 = engine_run.iter().map(|j| j.latency_s).sum();
    let interactions: f64 = engine_run.iter().map(|j| j.digest.0 as f64).sum();
    let productive: f64 = engine_run.iter().map(|j| j.digest.1 as f64).sum();
    rep.put("setup_s", mix.setup_s, "s", n);
    rep.put("wall_s", mix.wall_s, "s", n);
    rep.put("run_ms_p50", median(&all), "ms", n);
    rep.put("run_ms_tail", tail_ms, "ms", n);
    rep.notes
        .push(format!("run_ms_tail is percentile {pct:.1} of {n} jobs"));
    for kind in service::KINDS {
        let ms: Vec<f64> = cold
            .iter()
            .filter(|j| j.case.name == kind.name)
            .map(|j| j.latency_s * 1e3)
            .collect();
        rep.notes.push(format!(
            "cold {} jobs: median {:.3} ms of {}",
            kind.name,
            median(&ms),
            ms.len()
        ));
    }
    rep.put(
        "interactions_per_s",
        interactions / engine_s,
        "1/s",
        engine_run.len(),
    );
    rep.put(
        "productive_per_s",
        productive / engine_s,
        "1/s",
        engine_run.len(),
    );
    rep.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    rep.put("job_cold_ms_p50", median(&cold_ms), "ms", cold_ms.len());
    // Printed, not gated: every gated metric must exist on every workload,
    // and the engine workloads have no cache hit whose time is steady
    // enough to hold a bound (a bare `ResultCache::get` of 10–35 µs spread
    // by up to a third across ten runs).
    rep.notes.push(format!(
        "job_hit_ms_p50 {} ms of {} cache-hit jobs",
        median(&hit_ms),
        hit_ms.len()
    ));
    rep.put("jobs_per_s", n as f64 / mix.wall_s, "1/s", n);
}

/// Per-call engine figures of a traced pass.
fn engine_layers(quanta: &[cases::Quanta], rep: &mut Report, tracer: &Tracer) {
    let runs = quanta.len().max(1) as f64;
    let total = |f: fn(&cases::Quanta) -> u64| quanta.iter().map(f).sum::<u64>() as f64;
    let (exact, batches) = (total(|q| q.exact), total(|q| q.batches));
    let loop_ns = total(|q| q.loop_ns);
    let exact_p50: Vec<f64> = quanta
        .iter()
        .filter(|q| q.exact > 0)
        .map(|q| q.exact_ns_p50)
        .collect();
    let batch_p50: Vec<f64> = quanta
        .iter()
        .filter(|q| q.batches > 0)
        .map(|q| q.batch_ns_p50)
        .collect();
    let n = quanta.len();
    rep.put(
        "core.build_ms",
        median(&tracer.durations_ms("core.build")),
        "ms",
        n,
    );
    rep.put(
        "engine.build_ms",
        median(&tracer.durations_ms("engine.build")),
        "ms",
        n,
    );
    rep.put("engine.exact_quanta", exact / runs, "count", n);
    rep.put(
        "engine.exact_ns_p50",
        median(&exact_p50),
        "ns",
        exact_p50.len(),
    );
    rep.put("engine.batch_quanta", batches / runs, "count", n);
    rep.put(
        "engine.batch_us_p50",
        median(&batch_p50) / 1e3,
        "us",
        batch_p50.len(),
    );
    rep.put(
        "engine.draws_per_batch",
        total(|q| q.batch_draws) / batches.max(1.0),
        "count",
        n,
    );
    rep.put(
        "engine.batch_share",
        total(|q| q.batch_ns) / loop_ns,
        "share",
        n,
    );
    rep.put(
        "engine.tail_share",
        total(|q| q.exact_ns) / loop_ns,
        "share",
        n,
    );
    rep.put(
        "engine.ns_per_productive",
        loop_ns / total(|q| q.productive),
        "ns",
        n,
    );
}

/// The traced run: on `service_mix` the closed loop plain and then traced;
/// each engine run plain at both thread counts and traced; then the layer
/// probes.
fn traced(
    args: &Args,
    list: &[(Case, u64)],
    engine_list: &[(Case, u64)],
    work: &Path,
    rep: &mut Report,
) -> Tracer {
    let mut tracer = Tracer::new();
    // Traced time over plain time, per run or job: the tracing overhead.
    let mut slowdowns = Vec::new();
    // On `service_mix`: the traced loop's hit ratio and the plain loop's
    // median cache-hit latency.
    let mix = if args.workload == "service_mix" {
        let plain = service::run_mix(&work.join("plain"), list, None);
        let id = tracer.begin("service_mix");
        let traced = service::run_mix(&work.join("traced"), list, Some(&mut tracer));
        tracer.end(id);
        for job in plain.jobs.iter().chain(&traced.jobs) {
            rep.count(job.ok);
        }
        for (p, t) in plain.jobs.iter().zip(&traced.jobs) {
            slowdowns.push(t.latency_s / p.latency_s);
        }
        let hit_ms: Vec<f64> = plain
            .jobs
            .iter()
            .filter(|j| j.from_cache)
            .map(|j| j.latency_s * 1e3)
            .collect();
        Some((traced.hit_ratio, median(&hit_ms)))
    } else {
        None
    };
    // Each run three times back to back, so drift in the machine's speed
    // cancels out of the ratios: plain at its own thread count and at the
    // other one (every case runs at 1 or 2 threads; alternating which goes
    // first), then traced. All three must reach the same clocks.
    let id = tracer.begin("engine_runs");
    let mut quanta = Vec::new();
    let mut speedups = Vec::new();
    let mut snaps: Vec<(Case, u64, EngineSnapshot)> = Vec::new();
    for (i, &(case, seed)) in engine_list.iter().enumerate() {
        let mut threads = [case.threads, 3 - case.threads];
        if i % 2 == 1 {
            threads.reverse();
        }
        let first = cases::run_plain(&case, seed, threads[0]);
        let second = cases::run_plain(&case, seed, threads[1]);
        let (plain, other) = if i % 2 == 0 {
            (first, second)
        } else {
            (second, first)
        };
        let (run, q, snap) = cases::run_traced(&mut tracer, &case, seed, case.threads);
        rep.count(plain.ok && run.ok && run.digest == plain.digest);
        rep.count(other.ok && other.digest == plain.digest);
        speedups.push(if case.threads == 1 {
            plain.run_s / other.run_s
        } else {
            other.run_s / plain.run_s
        });
        if mix.is_none() {
            slowdowns.push(run.run_s / plain.run_s);
        }
        quanta.push(q);
        if let Some(s) = snap {
            if snaps.iter().filter(|(c, _, _)| c.name == case.name).count() < 2 {
                snaps.push((case, seed, s));
            }
        }
    }
    tracer.end(id);
    engine_layers(&quanta, rep, &tracer);
    rep.put(
        "pool.speedup_t2",
        median(&speedups),
        "ratio",
        speedups.len(),
    );

    let snap_layers = probes::probe(&mut tracer, work, &snaps);
    rep.attempted += snap_layers.attempted;
    rep.failed += snap_layers.failed;
    let s = &snap_layers;
    let k = snaps.len();
    rep.put("rng.binomial_ns", median(&s.binomial_ns), "ns", k);
    rep.put("rng.geometric_ns", median(&s.geometric_ns), "ns", k);
    rep.put("rng.ordered_pair_ns", median(&s.ordered_pair_ns), "ns", k);
    rep.put("wire.encode_ms", median(&s.encode_ms), "ms", k);
    rep.put("wire.decode_ms", median(&s.decode_ms), "ms", k);
    rep.put("wire.restore_ms", median(&s.restore_ms), "ms", k);
    rep.put("wire.blob_bytes", median(&s.blob_bytes), "bytes", k);
    rep.put("store.save_ms", median(&s.save_ms), "ms", k);
    rep.put("store.latest_ms", median(&s.latest_ms), "ms", k);

    // Service layers on two jobs of each kind.
    let jobs = probe_jobs(args.seed, list);
    let svc = service::probe(&mut tracer, work, &jobs);
    rep.attempted += svc.attempted;
    rep.failed += svc.failed;
    rep.notes.extend(svc.notes);
    let j = jobs.len();
    let keyed = svc.key_ms.len();
    rep.put("spec.key_ms", median(&svc.key_ms), "ms", keyed);
    if let Some((_, hit_ms)) = mix {
        // A cache hit derives the key twice: in `submit_job` and in the
        // daemon's scheduling sweep.
        rep.notes.push(format!(
            "job_hit_ms_p50 of the plain loop {hit_ms:.3} ms, of which 2 × spec.key_ms is {:.0}%",
            200.0 * median(&svc.key_ms) / hit_ms
        ));
    }
    rep.put("cache.get_ms", median(&svc.cache_get_ms), "ms", keyed);
    rep.put("cache.put_ms", median(&svc.cache_put_ms), "ms", keyed);
    rep.put(
        "runner.checkpoint_share",
        median(&svc.checkpoint_share),
        "share",
        svc.checkpoint_share.len(),
    );
    rep.put(
        "runner.checkpoints_per_job",
        median(&svc.checkpoints),
        "count",
        svc.checkpoints.len(),
    );
    let hit_ratio = match mix {
        Some((r, _)) => r,
        None => {
            let (ratio, failed) = service::probe_daemon(&mut tracer, work, &jobs);
            rep.attempted += 2 * j as u64;
            rep.failed += failed;
            ratio
        }
    };
    let submits = tracer.durations_ms("daemon.submit");
    let drains = tracer.durations_ms("daemon.drain");
    rep.put("daemon.submit_ms", median(&submits), "ms", submits.len());
    rep.put("daemon.drain_ms", median(&drains), "ms", drains.len());
    rep.put("daemon.hit_ratio", hit_ratio, "share", drains.len());
    rep.put(
        "faults.plan_ms",
        median(&svc.plan_ms),
        "ms",
        svc.plan_ms.len(),
    );
    rep.put(
        "faults.injected",
        median(&svc.injected),
        "count",
        svc.injected.len(),
    );
    // Tracing overhead: the median traced / plain time of the same run
    // (or job, on the service mix), less one.
    rep.put(
        "trace.overhead",
        median(&slowdowns) - 1.0,
        "share",
        slowdowns.len(),
    );
    tracer
}

/// Two jobs of each service kind: the first cold ones of the mix on
/// `service_mix`, seeded draws from the job pools elsewhere.
fn probe_jobs(seed: u64, list: &[(Case, u64)]) -> Vec<(Case, u64)> {
    let pool: Vec<(Case, u64)> = if list.iter().any(|(c, _)| c.name == cases::TREE_JOB.name) {
        list.to_vec()
    } else {
        service::sequence(seed, 2)
    };
    let mut jobs: Vec<(Case, u64)> = Vec::new();
    for kind in service::KINDS {
        for &(case, s) in pool.iter().filter(|(c, _)| c.name == kind.name) {
            if jobs.iter().filter(|(c, _)| c.name == kind.name).count() < 2
                && !jobs.iter().any(|&(c, x)| c.name == case.name && x == s)
            {
                jobs.push((case, s));
            }
        }
    }
    jobs
}

/// Print the recorded digests of every case's pool (maintenance: the
/// output is `digests.txt`).
fn record_digests(work: &Path) {
    println!("# case seed interactions_wide productive");
    for case in cases::ALL {
        for seed in 0..case.pool {
            let (i, p) = if case.faults {
                let store =
                    ssr_service::CheckpointStore::open(work.join("record")).expect("store opens");
                let cfg = ssr_service::RunConfig {
                    checkpoint_every: 0,
                    ..Default::default()
                };
                match ssr_service::run_job(&case.job(seed), &store, &cfg) {
                    Ok(ssr_service::RunDisposition::Completed { result, .. }) => {
                        (result.interactions_wide, result.productive)
                    }
                    other => panic!("fault job {seed} did not complete: {other:?}"),
                }
            } else {
                cases::run_plain(&case, seed, case.threads).digest
            };
            println!("{} {seed} {i} {p}", case.name);
        }
    }
}

/// Where A_G from a stacked start at n = 4096 spends its time: three
/// traced runs, split into batch quanta, exact quanta and loop overhead.
fn explain_ag_stacked() {
    let mut tracer = Tracer::new();
    for seed in 0..3 {
        let (run, q, _) = cases::run_traced(&mut tracer, &AG_STACKED, seed, 1);
        let secs = |ns: u64| ns as f64 / 1e9;
        println!(
            "ag_stacked_n4096 seed {seed}: set-up {:.4} s, run {:.3} s: {} batches of {:.0} draws in {:.3} s, \
             {} exact quanta in {:.3} s, loop overhead {:.3} s; interactions {} productive {}",
            run.setup_s,
            run.run_s,
            q.batches,
            q.batch_draws as f64 / q.batches.max(1) as f64,
            secs(q.batch_ns),
            q.exact,
            secs(q.exact_ns),
            secs(q.loop_ns.saturating_sub(q.batch_ns + q.exact_ns)),
            run.digest.0,
            run.digest.1
        );
    }
}

fn json(rep: &Report) -> String {
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(name, value, unit, _)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.failed == 0,
        rep.attempted,
        rep.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if std::fs::create_dir_all(&work).is_err() {
        eprintln!("perfbench: cannot create {}", work.display());
        return ExitCode::from(2);
    }
    if args.workload == "record-digests" {
        record_digests(&work);
        let _ = std::fs::remove_dir_all(&work);
        return ExitCode::SUCCESS;
    }
    if args.workload == "explain-ag-stacked" {
        explain_ag_stacked();
        let _ = std::fs::remove_dir_all(&work);
        return ExitCode::SUCCESS;
    }
    let mut rep = Report::default();
    let (list, engine_list) = match args.workload.as_str() {
        "service_mix" => {
            let list =
                service::sequence(args.seed, rounds(args.seconds, SERVICE_ROUNDS_PER_SECOND));
            let mut cold: Vec<(Case, u64)> = Vec::new();
            for &(c, s) in &list {
                if !c.faults && !cold.iter().any(|&(d, t)| d.name == c.name && t == s) {
                    cold.push((c, s));
                }
            }
            (list, cold)
        }
        name => {
            let w = engine_workload(name).expect("parse_args checks workload names");
            let list = run_list(w, args.seed, args.seconds);
            (list.clone(), list)
        }
    };
    if args.trace {
        let tracer = traced(&args, &list, &engine_list, &work, &mut rep);
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            rep.failed += 1;
        }
    } else if args.workload == "service_mix" {
        service_end_to_end(&list, &work, &mut rep);
    } else {
        engine_end_to_end(&list, &mut rep);
    }
    let _ = std::fs::remove_dir_all(&work);
    for (name, value, unit, samples) in &rep.metrics {
        println!(
            "workload={} metric={name} value={value} unit={unit} samples={samples}",
            args.workload
        );
    }
    for note in &rep.notes {
        println!("workload={} note: {note}", args.workload);
    }
    println!(
        "workload={} failed_frac={} ({} of {} failed)",
        args.workload,
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    println!("{}", json(&rep));
    ExitCode::SUCCESS
}
