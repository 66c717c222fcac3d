//! The benchmark's only wall-clock source.
//!
//! The repository's static analysis forbids wall-clock reads outside
//! timing paths; every read in this package goes through [`Stamp`], so
//! the waivers live on these few lines.

// lint:allow(D003): the benchmark's timing source
use std::time::Instant;

/// A point in time.
#[derive(Clone, Copy)]
// lint:allow(D003): the benchmark's timing source
pub struct Stamp(Instant);

impl Stamp {
    pub fn now() -> Self {
        // lint:allow(D003): the benchmark's timing source
        Stamp(Instant::now())
    }

    /// Seconds since `self`.
    pub fn secs(self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since `self`, saturating.
    pub fn ns(self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Nanoseconds from `origin` to `self`, saturating.
    pub fn ns_since(self, origin: Stamp) -> u64 {
        u64::try_from(self.0.duration_since(origin.0).as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Run `f` and return its result with its duration in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Stamp::now();
    let out = f();
    (out, start.secs())
}
