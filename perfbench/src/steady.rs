//! Steadiness mode: runs every workload in two sets of `N` fresh
//! processes (seeds `1..=N`, then `N+1..=2N`), then once more on a
//! held-out seed never used while the benchmark was tuned. Per end-to-end
//! metric and set it prints the quartiles, the median and the relative
//! spread `(q3 - q1) / median` against the metric's bound from
//! `BENCHMARK.json`, how far the second set's median lies from the
//! first's, and how far the held-out run lands from the first median. The
//! exit code is non-zero when a run fails, a spread other than
//! `setup_s`'s exceeds its bound, or the medians differ by more than it.

use crate::util::quartiles;
use crate::{END_TO_END, WORKLOADS};
use dvafs::report::json::{self, JsonValue};
use std::process::{Command, ExitCode};

/// The held-out seed.
pub const HELD_OUT_SEED: u64 = 90_210_017;

fn bounds() -> Vec<(String, f64)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let Ok(doc) = json::parse(&text) else {
        return Vec::new();
    };
    match doc.get("end_to_end") {
        Some(JsonValue::Array(items)) => items
            .iter()
            .filter_map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// One run in a fresh process; returns the end-to-end values in
/// [`END_TO_END`] order and whether the run was correct.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Option<(Vec<f64>, bool)> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = json::parse(text.lines().last()?).ok()?;
    let metrics = doc.get("metrics")?;
    let values = END_TO_END
        .iter()
        .map(|name| {
            metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
        })
        .collect::<Option<Vec<f64>>>()?;
    Some((values, doc.get("correct")?.as_bool()?))
}

/// One set: `seeds` in fresh processes; per run the end-to-end values.
fn one_set(
    workload: &str,
    seeds: std::ops::RangeInclusive<u64>,
    seconds: f64,
    ok: &mut bool,
) -> Vec<Vec<f64>> {
    let mut samples = Vec::new();
    for seed in seeds {
        match one_run(workload, seed, seconds) {
            Some((values, correct)) => {
                *ok &= correct;
                samples.push(values);
            }
            None => {
                eprintln!("perfbench: {workload} seed {seed} produced no result");
                *ok = false;
            }
        }
    }
    samples
}

pub fn run(runs: usize, seconds: f64) -> ExitCode {
    let bounds = bounds();
    let mut ok = true;
    for workload in WORKLOADS {
        let n = runs as u64;
        let sets = [
            one_set(workload, 1..=n, seconds, &mut ok),
            one_set(workload, n + 1..=2 * n, seconds, &mut ok),
        ];
        let held_out = one_run(workload, HELD_OUT_SEED, seconds);
        ok &= held_out.as_ref().is_some_and(|(_, correct)| *correct);
        println!("{workload}: 2 sets of {runs} runs of {seconds} s, held-out seed {HELD_OUT_SEED}");
        println!(
            "  {:<12} {:>3} {:>14} {:>14} {:>14} {:>8} {:>7} {:>9}",
            "metric", "set", "q1", "median", "q3", "spread", "bound", "vs set 1"
        );
        for (i, name) in END_TO_END.iter().enumerate() {
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(f64::NAN, |b| b.1);
            let mut first = f64::NAN;
            for (k, set) in sets.iter().enumerate() {
                let values: Vec<f64> = set.iter().map(|s| s[i]).collect();
                if values.is_empty() {
                    continue;
                }
                let [q1, med, q3] = quartiles(&values);
                let spread = (q3 - q1) / med;
                let drift = if k == 0 {
                    first = med;
                    0.0
                } else {
                    med / first - 1.0
                };
                // Bound checks as the benchmark's acceptance makes them:
                // set-up time is exempt from the spread check only.
                ok &= *name == "setup_s" || spread <= bound;
                ok &= drift.abs() <= bound;
                println!(
                    "  {name:<12} {:>3} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.1}% {:>6.0}% {:>+8.1}%",
                    k + 1,
                    spread * 100.0,
                    bound * 100.0,
                    drift * 100.0
                );
            }
            let held = held_out
                .as_ref()
                .map_or(f64::NAN, |(v, _)| v[i] / first - 1.0);
            println!(
                "  {name:<12} held-out run {:>+8.1}% from set 1's median",
                held * 100.0
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
