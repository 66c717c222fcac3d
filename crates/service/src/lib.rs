//! # ssr-service — simulation-as-a-service
//!
//! A long-running job daemon over the engine substrate: scenario jobs are
//! submitted as small spec files into a spool directory, scheduled across
//! a core budget with admission control
//! ([`Scenario::thread_split`](ssr_engine::Scenario::thread_split)),
//! checkpointed periodically to a durable on-disk store so killed or
//! restarted jobs resume **bit-identically** mid-run, and memoised in a
//! content-addressed result cache keyed by a stable hash of the full job
//! spec — a re-submitted sweep point is served without touching an engine.
//!
//! ## Pieces
//!
//! * [`JobSpec`] / [`JobKey`] — the job description (protocol, n, init,
//!   fault plan, engine kind, seed, budget) with a versioned text codec
//!   and a 128-bit content key built on
//!   [`schema_hash`](ssr_engine::InteractionSchema::schema_hash). The key
//!   deliberately excludes the thread budget: every engine is
//!   bit-identical at any thread count, so thread count is a scheduling
//!   concern, not an identity.
//! * [`CheckpointStore`] — versioned
//!   [`EngineSnapshot`](ssr_engine::EngineSnapshot) wire blobs (including
//!   the count engine's batching control state and the full-width `u128`
//!   interaction clock), written atomically, pruned to the newest two.
//! * [`ResultCache`] — completed [`JobResult`]s, content-addressed by
//!   [`JobKey`]; corrupt entries degrade to cache misses.
//! * [`run_job`] — one job execution: restore from the latest checkpoint
//!   if present, replay the engine's exact run-to-silence loop with
//!   checkpoints interleaved between quanta every `checkpoint_every`
//!   productive interactions (snapshots consume no RNG, so
//!   checkpointed and uninterrupted trajectories are identical), optionally
//!   self-interrupt after k checkpoints to simulate a kill.
//! * [`Daemon`] — the spool-directory scheduler: admission control against
//!   the core budget, worker threads, crash recovery (requeue `running/`
//!   on startup), cache-first serving, graceful drain.
//!
//! ## Spool layout
//!
//! ```text
//! <dir>/pending/<key>.job       submitted, not yet scheduled
//! <dir>/running/<key>.job       claimed by a worker
//! <dir>/done/<key>.result       completed (result codec)
//! <dir>/done/<key>.src          "cache" or "engine" — how it completed
//! <dir>/failed/<key>.err        failed (human-readable reason)
//! <dir>/checkpoints/<key>/      ckpt-<clock>.snap blobs
//! <dir>/cache/<key>.result      memoised results
//! ```
//!
//! Submitting the same spec twice is naturally idempotent: the file name
//! *is* the content key. Job files, checkpoints, cached results and
//! `done/` results are written through one helper that survives power
//! loss, not only process death: tmp file, fsync, rename, fsync of the
//! directory.

// `unsafe_code = "forbid"` comes from [workspace.lints] in the root manifest.
#![warn(missing_docs)]

pub mod cache;
pub mod daemon;
pub mod runner;
pub mod spec;
pub mod store;

pub use cache::ResultCache;
pub use daemon::{submit_job, Daemon, DaemonConfig, DaemonStats, JobStatus};
pub use runner::{run_job, RunConfig, RunDisposition, DEFAULT_CHECKPOINT_EVERY};
pub use spec::{JobInit, JobKey, JobResult, JobSpec, JobStatusKind, OutcomeStats};
pub use store::CheckpointStore;

use ssr_engine::wire::SnapshotDecodeError;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Unified error type of the service layer.
#[derive(Debug)]
pub enum ServiceError {
    /// Filesystem failure in the spool, store, or cache.
    Io(std::io::Error),
    /// Malformed or unsatisfiable job spec.
    Spec(String),
    /// The spec was well-formed but the engine rejected the configuration.
    Config(String),
    /// A checkpoint failed to decode (version/schema/shape/corruption).
    Snapshot(SnapshotDecodeError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "io: {e}"),
            ServiceError::Spec(m) => write!(f, "bad job spec: {m}"),
            ServiceError::Config(m) => write!(f, "bad configuration: {m}"),
            ServiceError::Snapshot(e) => write!(f, "bad checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<std::io::Error> for ServiceError {
    fn from(e: std::io::Error) -> Self {
        ServiceError::Io(e)
    }
}

impl From<SnapshotDecodeError> for ServiceError {
    fn from(e: SnapshotDecodeError) -> Self {
        ServiceError::Snapshot(e)
    }
}

/// Replace `path` with `bytes` so that a crash or power loss leaves
/// either the old file or the new one, never a torn one: write
/// `<path>.tmp`, fsync it, rename it over `path`, then fsync the parent
/// directory so the rename itself is on disk.
///
/// # Errors
///
/// Propagates filesystem failures; on error `path` still holds its old
/// content (a stray `<path>.tmp` may be left behind).
pub(crate) fn write_durably(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_durably_replaces_the_file_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("ssr-durable-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.result");
        write_durably(&path, b"first").unwrap();
        write_durably(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names, ["entry.result"]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
