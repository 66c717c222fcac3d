//! Content-addressed result cache: one [`JobResult`] file per [`JobKey`].
//!
//! The key is a stable hash of the *full* job spec (see
//! [`JobSpec::key`](crate::spec::JobSpec::key)), so a hit is by
//! construction the result of an identical run — same protocol rules
//! (schema hash), same `n`, init, engine, seed, budget and fault plan.
//! Corrupt or truncated entries degrade to misses: the cache is an
//! optimisation, never an oracle.

use crate::spec::{JobKey, JobResult};
use crate::write_durably;
use std::fs;
use std::io;
use std::path::PathBuf;

/// On-disk result cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    root: PathBuf,
}

impl ResultCache {
    /// Open (creating if needed) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(ResultCache { root })
    }

    fn path(&self, key: JobKey) -> PathBuf {
        self.root.join(format!("{}.result", key.hex()))
    }

    /// Look up a memoised result. Missing and undecodable entries are
    /// both misses.
    pub fn get(&self, key: JobKey) -> Option<JobResult> {
        let text = fs::read_to_string(self.path(key)).ok()?;
        JobResult::decode(&text).ok()
    }

    /// Memoise `result` under `key`, atomically and durably.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn put(&self, key: JobKey, result: &JobResult) -> io::Result<()> {
        write_durably(&self.path(key), result.encode().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobStatusKind;

    fn temp_cache(name: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "ssr-cache-test-{}-{name}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    fn result(interactions: u64) -> JobResult {
        JobResult {
            status: JobStatusKind::Silent,
            interactions,
            interactions_wide: interactions as u128,
            productive: interactions / 2,
            parallel_time: interactions as f64 / 64.0,
            outcome: None,
        }
    }

    #[test]
    fn put_get_round_trips_and_overwrites() {
        let cache = temp_cache("roundtrip");
        let key = JobKey([7; 16]);
        assert_eq!(cache.get(key), None);
        cache.put(key, &result(100)).unwrap();
        assert_eq!(cache.get(key), Some(result(100)));
        cache.put(key, &result(200)).unwrap();
        assert_eq!(cache.get(key), Some(result(200)));
    }

    #[test]
    fn corrupt_entries_are_misses() {
        let cache = temp_cache("corrupt");
        let key = JobKey([8; 16]);
        cache.put(key, &result(100)).unwrap();
        fs::write(cache.path(key), "not a result file").unwrap();
        assert_eq!(cache.get(key), None);
    }
}
