//! Parameter-sweep driver: protocol × grid × trials → summary rows.
//!
//! Each experiment in the paper reduces to "measure parallel stabilisation
//! time while one parameter (population `n`, distance `k`, …) varies".
//! [`sweep`] runs the trials (in parallel, deterministic seeds), summarises
//! each grid point, and the result converts directly into tables and
//! power-law fits.
//!
//! # Examples
//!
//! ```
//! use ssr_analysis::sweep::{sweep, SweepOptions};
//! use ssr_core::generic::GenericRanking;
//!
//! let res = sweep(
//!     &[16.0, 32.0],
//!     |x| GenericRanking::new(x as usize),
//!     |p, _seed| vec![0; ssr_engine::Protocol::population_size(p)],
//!     &SweepOptions::new(4).with_base_seed(1),
//! );
//! assert_eq!(res.rows.len(), 2);
//! assert!(res.rows[1].mean > res.rows[0].mean);
//! ```

use crate::regression::{fit_power_law, PowerLawFit};
use crate::stats::Summary;
use crate::table::{fmt_f64, Table};
use ssr_engine::protocol::{InteractionSchema, State};
use ssr_engine::rng::derive_seed;
use ssr_engine::runner::{Init, Scenario};
use ssr_engine::EngineKind;

/// Options for a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Trials per grid point.
    pub trials: usize,
    /// Base seed (grid point `i` runs under `derive_seed(base_seed, i)`).
    pub base_seed: u64,
    /// Per-trial interaction cap.
    pub max_interactions: u64,
    /// Worker threads (0 = auto).
    pub threads: usize,
    /// Engine per grid point (`Auto` = batching at large `n`, the exact
    /// chain below, so
    /// heterogeneous grids get the right engine at every point).
    pub engine: EngineKind,
}

impl SweepOptions {
    /// Options with the given trial count and permissive defaults.
    pub fn new(trials: usize) -> Self {
        SweepOptions {
            trials,
            base_seed: 0,
            max_interactions: u64::MAX,
            threads: 0,
            engine: EngineKind::Auto,
        }
    }

    /// Select the engine backing every grid point.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Set the base seed.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Set the per-trial interaction cap.
    pub fn with_max_interactions(mut self, max: u64) -> Self {
        self.max_interactions = max;
        self
    }

    /// Set the core budget (0 = one per available core). Each grid point
    /// splits it across concurrent trials and the count engine's batch
    /// splits via `Scenario::thread_split` — many trials run
    /// trial-parallel, single-trial points hand the whole budget to the
    /// engine's persistent worker pool, and in between both levels get a
    /// share. Results are deterministic in the base seed regardless.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// One grid point's measurements.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The grid value (population size, distance `k`, …).
    pub x: f64,
    /// Mean parallel stabilisation time.
    pub mean: f64,
    /// Median parallel time.
    pub median: f64,
    /// Maximum parallel time (the "whp" proxy over the batch).
    pub max: f64,
    /// 95th percentile parallel time.
    pub p95: f64,
    /// Fraction of trials that stabilised within the cap.
    pub success_rate: f64,
    /// Trials at this point.
    pub trials: usize,
}

/// All grid points of a sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Per-point rows, in grid order.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    /// Grid values.
    pub fn xs(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.x).collect()
    }

    /// Median parallel times per point.
    pub fn medians(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.median).collect()
    }

    /// Mean parallel times per point.
    pub fn means(&self) -> Vec<f64> {
        self.rows.iter().map(|r| r.mean).collect()
    }

    /// Power-law fit `median(x) ≈ c·x^α` over the grid.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points or non-positive medians.
    pub fn fit_median(&self) -> PowerLawFit {
        fit_power_law(&self.xs(), &self.medians())
    }

    /// Serialise all rows as a JSON array (hand-rolled: the workspace is
    /// dependency-free, so there is no serde).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "  {{\"x\": {}, \"mean\": {}, \"median\": {}, \"max\": {}, \
                     \"p95\": {}, \"success_rate\": {}, \"trials\": {}}}",
                    json_f64(r.x),
                    json_f64(r.mean),
                    json_f64(r.median),
                    json_f64(r.max),
                    json_f64(r.p95),
                    json_f64(r.success_rate),
                    r.trials
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }

    /// Render as an aligned table with the given grid-column name.
    pub fn to_table(&self, x_name: &str) -> Table {
        let mut t = Table::new(vec![
            x_name.to_string(),
            "mean".into(),
            "median".into(),
            "p95".into(),
            "max".into(),
            "ok".into(),
        ]);
        for r in &self.rows {
            t.add_row(vec![
                fmt_f64(r.x),
                fmt_f64(r.mean),
                fmt_f64(r.median),
                fmt_f64(r.p95),
                fmt_f64(r.max),
                format!("{:.0}%", r.success_rate * 100.0),
            ]);
        }
        t
    }
}

/// Format an `f64` as a JSON number (finite values only; non-finite maps
/// to `null`).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Run a sweep: for each grid value `x`, build a protocol, run
/// `opts.trials` independent trials from `make_config(&protocol, seed)`
/// starts, and summarise parallel stabilisation times.
///
/// Grid points with **zero** successful trials still produce a row (with
/// zeroed statistics and `success_rate = 0`).
pub fn sweep<P, FP, FC>(
    grid: &[f64],
    make_protocol: FP,
    make_config: FC,
    opts: &SweepOptions,
) -> SweepResult
where
    P: InteractionSchema + Sync,
    FP: Fn(f64) -> P,
    FC: Fn(&P, u64) -> Vec<State> + Sync,
{
    let mut rows = Vec::with_capacity(grid.len());
    for (i, &x) in grid.iter().enumerate() {
        let protocol = make_protocol(x);
        let make = |seed| make_config(&protocol, seed);
        let results = Scenario::new(&protocol)
            .engine(opts.engine)
            .init(Init::Custom(&make))
            .trials(opts.trials)
            .base_seed(derive_seed(opts.base_seed, i as u64))
            .max_interactions(opts.max_interactions)
            .threads(opts.threads)
            .run();
        let times = results.parallel_times();
        let (mean, median, max, p95) = if times.is_empty() {
            (0.0, 0.0, 0.0, 0.0)
        } else {
            let s = Summary::of(&times);
            (s.mean, s.median, s.max, s.p95)
        };
        rows.push(SweepRow {
            x,
            mean,
            median,
            max,
            p95,
            success_rate: results.success_rate(),
            trials: opts.trials,
        });
    }
    SweepResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssr_core::generic::GenericRanking;
    use ssr_engine::Protocol;

    fn stacked(p: &GenericRanking, _seed: u64) -> Vec<State> {
        vec![0; p.population_size()]
    }

    #[test]
    fn sweep_produces_monotone_times_for_ag() {
        let res = sweep(
            &[8.0, 16.0, 32.0],
            |x| GenericRanking::new(x as usize),
            stacked,
            &SweepOptions::new(6).with_base_seed(11),
        );
        assert_eq!(res.rows.len(), 3);
        assert!(res.rows.iter().all(|r| r.success_rate == 1.0));
        assert!(res.rows[2].median > res.rows[0].median);
    }

    #[test]
    fn fit_recovers_roughly_quadratic_ag() {
        let res = sweep(
            &[16.0, 32.0, 64.0, 128.0],
            |x| GenericRanking::new(x as usize),
            stacked,
            &SweepOptions::new(8).with_base_seed(3),
        );
        let fit = res.fit_median();
        assert!(
            (1.3..2.7).contains(&fit.exponent),
            "A_G exponent estimate {:.2} far from 2",
            fit.exponent
        );
    }

    #[test]
    fn timeout_zeroes_rows() {
        let res = sweep(
            &[16.0],
            |x| GenericRanking::new(x as usize),
            stacked,
            &SweepOptions::new(3).with_max_interactions(1),
        );
        assert_eq!(res.rows[0].success_rate, 0.0);
        assert_eq!(res.rows[0].mean, 0.0);
    }

    #[test]
    fn table_renders_all_rows() {
        let res = sweep(
            &[8.0, 16.0],
            |x| GenericRanking::new(x as usize),
            stacked,
            &SweepOptions::new(2),
        );
        let t = res.to_table("n");
        assert_eq!(t.num_rows(), 2);
        assert!(t.render().contains("median"));
    }

    #[test]
    fn serialises_to_json() {
        let res = sweep(
            &[8.0],
            |x| GenericRanking::new(x as usize),
            stacked,
            &SweepOptions::new(2),
        );
        let json = res.to_json();
        assert!(json.contains("\"success_rate\""));
        assert!(json.trim_start().starts_with('['));
        assert!(json.trim_end().ends_with(']'));
    }
}
