//! `gate_mc`: Monte-Carlo multiplier characterisation at paper precision
//! with tighter confidence. One pass extracts the DAS and DVAFS activity
//! profiles (bitsliced gate-level toggle simulation, 7 operand streams)
//! and integrates the Fig. 3b error curves, all on a two-worker executor.
//! No NN code runs here.

use crate::util::{median, percentile};
use crate::{Metric, Report};
use dvafs::sweep::{MultiplierSweep, RmsePoint};
use dvafs_arith::activity::{
    extract_das_profile_with, extract_dvafs_profile_with, ActivityProfile,
};
use dvafs_arith::netlist::Engine;
use dvafs_executor::Executor;
use std::hint::black_box;
use std::time::Instant;

/// Operand pairs per toggle-simulated stream.
pub const TOGGLE_PAIRS: usize = 100_000;
/// Streams per pass: DAS at 16/12/8/4 bits plus DVAFS at 1x16b/2x8b/4x4b.
pub const STREAMS: usize = 7;
/// Monte-Carlo operand pairs per Fig. 3b error model.
pub const RMSE_PAIRS: usize = 1_000_000;
/// Distinct Fig. 3b error models (3 DVAFS precisions, 4 Liu depths,
/// Kulkarni, Kyaw, 5 truncation thresholds).
pub const RMSE_MODELS: usize = 14;
/// Worker threads of the measured passes.
pub const THREADS: usize = 2;
/// Operand pairs of the scalar-engine oracle slice.
const ORACLE_PAIRS: usize = 512;

/// What one pass computes.
#[derive(Debug, Clone)]
pub struct Pass {
    pub das: ActivityProfile,
    pub dvafs: ActivityProfile,
    pub fig3b: Vec<RmsePoint>,
}

impl Pass {
    /// Debug formatting prints every f64 in shortest round-trip form, so
    /// equal fingerprints mean bit-identical results.
    fn fingerprint(&self) -> String {
        format!("{:?}|{:?}|{:?}", self.das, self.dvafs, self.fig3b)
    }
}

/// One characterisation pass on `exec`; returns the results and the
/// seconds spent in toggle simulation and in error integration.
pub fn pass(seed: u64, exec: &Executor) -> (Pass, f64, f64) {
    let t = Instant::now();
    let das = extract_das_profile_with(TOGGLE_PAIRS, seed, Engine::Bitsliced, exec);
    let dvafs = extract_dvafs_profile_with(TOGGLE_PAIRS, seed, Engine::Bitsliced, exec);
    let toggle_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let fig3b = MultiplierSweep::with_seed(seed)
        .with_samples(RMSE_PAIRS)
        .with_executor(exec.clone())
        .fig3b();
    (
        Pass { das, dvafs, fig3b },
        toggle_s,
        t.elapsed().as_secs_f64(),
    )
}

/// The set-up: a characterisation at a tenth of the size. In a fresh
/// process it also builds the multiplier netlists, calibrates the
/// technology model and starts the executor's workers.
pub fn setup(seed: u64, exec: &Executor) {
    black_box(extract_das_profile_with(
        TOGGLE_PAIRS / 10,
        seed,
        Engine::Bitsliced,
        exec,
    ));
    black_box(extract_dvafs_profile_with(
        TOGGLE_PAIRS / 10,
        seed,
        Engine::Bitsliced,
        exec,
    ));
    let sweep = MultiplierSweep::with_seed(seed)
        .with_samples(RMSE_PAIRS / 10)
        .with_executor(exec.clone());
    black_box(sweep.fig3b());
}

/// The workload: an untimed set-up, measured passes for `seconds`, then
/// the checks. It records no spans: the arith layer is measured by the
/// traced run's probes.
pub fn run(seed: u64, seconds: f64) -> Report {
    let exec = Executor::new(THREADS);
    setup(seed, &exec);

    let start = Instant::now();
    let mut passes_ms = Vec::new();
    let (mut toggle_s, mut rmse_s) = (0.0, 0.0);
    let mut results = Vec::new();
    while passes_ms.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let (p, ts, rs) = pass(seed, &exec);
        passes_ms.push(t.elapsed().as_secs_f64() * 1e3);
        toggle_s += ts;
        rmse_s += rs;
        results.push(p);
    }
    let rss = crate::util::peak_rss_mb();

    // Checks: every pass bitwise against a serial pass, and a small slice
    // of the bitsliced engine against the scalar oracle.
    let (reference, _, _) = pass(seed, &Executor::serial());
    let reference = reference.fingerprint();
    let mut failed = results
        .iter()
        .filter(|p| p.fingerprint() != reference)
        .count()
        * 3;
    for engine_pair in [
        (
            extract_das_profile_with(ORACLE_PAIRS, seed, Engine::Scalar, &Executor::serial()),
            extract_das_profile_with(ORACLE_PAIRS, seed, Engine::Bitsliced, &exec),
        ),
        (
            extract_dvafs_profile_with(ORACLE_PAIRS, seed, Engine::Scalar, &Executor::serial()),
            extract_dvafs_profile_with(ORACLE_PAIRS, seed, Engine::Bitsliced, &exec),
        ),
    ] {
        failed += usize::from(format!("{:?}", engine_pair.0) != format!("{:?}", engine_pair.1));
    }
    let attempted = results.len() * 3 + 2;

    let passes = results.len() as f64;
    let toggle_pairs = passes * (TOGGLE_PAIRS * STREAMS) as f64;
    let rmse_pairs = passes * (RMSE_PAIRS * RMSE_MODELS) as f64;
    let mut report = Report::new(attempted as u64, failed as u64);
    report.detail(Metric::new("peak_rss_mb", "MiB", rss, 1));
    report.detail(Metric::new(
        "pass_p50_ms",
        "ms",
        median(&passes_ms),
        passes_ms.len(),
    ));
    report.detail(Metric::new(
        "pass_p90_ms",
        "ms",
        percentile(&passes_ms, 90.0),
        passes_ms.len(),
    ));
    // Work per pass over the median pass, so a host stall during one pass
    // does not move the figure.
    let pass_work = ((TOGGLE_PAIRS * STREAMS) + (RMSE_PAIRS * RMSE_MODELS)) as f64;
    report.push(Metric::new(
        "work_per_s",
        "1/s",
        pass_work / (median(&passes_ms) / 1e3),
        results.len(),
    ));
    report.detail(Metric::new(
        "toggle_pairs_per_s",
        "1/s",
        toggle_pairs / toggle_s,
        results.len(),
    ));
    report.detail(Metric::new(
        "rmse_pairs_per_s",
        "1/s",
        rmse_pairs / rmse_s,
        results.len(),
    ));
    report
}
