//! Probes of the RNG samplers, the snapshot wire format and the
//! checkpoint store, on snapshots taken from the workload's own runs.

use crate::cases::Case;
use crate::trace::Tracer;
use ssr_engine::rng::Xoshiro256;
use ssr_engine::wire::SnapshotShape;
use ssr_engine::EngineSnapshot;
use ssr_service::{CheckpointStore, JobKey};
use std::hint::black_box;
use std::path::Path;

/// Sampler calls timed per parameter set.
const DRAWS: u64 = 200_000;

#[derive(Default)]
pub struct SnapshotLayers {
    pub binomial_ns: Vec<f64>,
    pub geometric_ns: Vec<f64>,
    pub ordered_pair_ns: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub decode_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub blob_bytes: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub latest_ms: Vec<f64>,
    pub failed: u64,
    pub attempted: u64,
}

fn per_draw_ns(tracer: &mut Tracer, name: &'static str, mut f: impl FnMut() -> u64) -> f64 {
    let id = tracer.begin(name);
    let mut acc = 0u64;
    for _ in 0..DRAWS {
        acc = acc.wrapping_add(f());
    }
    black_box(acc);
    tracer.end(id);
    tracer.attr(id, "calls", DRAWS as f64);
    tracer.duration_ns(id) as f64 / DRAWS as f64
}

/// Time the samplers on parameters read off `snap`: a binomial split of
/// the population at the largest state's share, a geometric null gap at
/// the run's productive fraction so far, and the scheduler's pair draw.
fn rng_probe(tracer: &mut Tracer, snap: &EngineSnapshot, seed: u64, out: &mut SnapshotLayers) {
    let counts = snap.counts();
    let n: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    let largest = counts.iter().copied().max().map_or(0, u64::from);
    let share = largest as f64 / n as f64;
    let productive = snap.productive_interactions() as f64 / snap.interactions_wide().max(1) as f64;
    let pop = usize::try_from(n).expect("population fits usize");
    let mut rng = Xoshiro256::seed_from_u64(seed);
    out.binomial_ns
        .push(per_draw_ns(tracer, "rng.binomial", || {
            rng.binomial(black_box(n), black_box(share))
        }));
    out.geometric_ns
        .push(per_draw_ns(tracer, "rng.geometric", || {
            rng.geometric(black_box(productive.max(1e-12)))
        }));
    out.ordered_pair_ns
        .push(per_draw_ns(tracer, "rng.ordered_pair", || {
            let (i, r) = rng.ordered_pair(black_box(pop));
            (i ^ r) as u64
        }));
}

/// Encode, decode and restore each snapshot, save and re-read it through
/// the checkpoint store, and check every round trip.
pub fn probe(
    tracer: &mut Tracer,
    work: &Path,
    snaps: &[(Case, u64, EngineSnapshot)],
) -> SnapshotLayers {
    let store = CheckpointStore::open(work.join("probe-checkpoints")).expect("store opens");
    let mut out = SnapshotLayers::default();
    for (i, (case, seed, snap)) in snaps.iter().enumerate() {
        out.attempted += 1;
        rng_probe(tracer, snap, *seed, &mut out);
        let protocol = case.protocol.build(case.n);
        let shape = SnapshotShape::of(protocol.as_ref());
        let mut engine = case
            .scenario(protocol.as_ref(), *seed, case.threads)
            .build_engine(0)
            .expect("benchmark cases build valid configurations");
        let blob = tracer.span("wire.encode", || snap.to_wire(shape));
        let decoded = tracer.span("wire.decode", || EngineSnapshot::from_wire(&blob, shape));
        let Ok(decoded) = decoded else {
            out.failed += 1;
            continue;
        };
        tracer.span("wire.restore", || engine.restore(&decoded));
        out.blob_bytes.push(blob.len() as f64);
        let mut key = [0u8; 16];
        key[..8].copy_from_slice(&(i as u64).to_le_bytes());
        let key = JobKey(key);
        let clock = snap.interactions_wide();
        let saved = tracer.span("store.save", || store.save(key, clock, &blob));
        let latest = tracer.span("store.latest", || store.latest(key));
        let round_trip = engine.counts() == snap.counts()
            && engine.interactions_wide() == clock
            && engine.productive_interactions() == snap.productive_interactions()
            && saved.is_ok()
            && latest == Some((clock, blob));
        if !round_trip {
            out.failed += 1;
        }
    }
    let ms = |name| tracer.durations_ms(name);
    out.encode_ms = ms("wire.encode");
    out.decode_ms = ms("wire.decode");
    out.restore_ms = ms("wire.restore");
    out.save_ms = ms("store.save");
    out.latest_ms = ms("store.latest");
    out
}
