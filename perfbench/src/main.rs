//! The reproduction's benchmark: three workloads, their end-to-end
//! metrics, and a traced run that gives per-layer metrics.
//!
//! ```text
//! perfbench --workload <serve_mixed|paper_regen|gate_mc> --seed N --seconds S --trace 0|1
//! perfbench --steady N [--seconds S]   # two sets of N runs per workload, then a held-out seed
//! perfbench --cold-setup --workload W   # one set-up in this fresh process; prints its seconds
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics, or with `--trace 1`
//! the per-layer ones). The line before it is a detail record: every
//! metric with its sample count, the host, and the tracing overhead.
//! See README.md for what each workload and metric means.

mod gate_mc;
mod layers;
mod paper_regen;
mod serve_mixed;
mod steady;
mod trace;
mod util;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Trace;

/// The end-to-end metrics every workload reports and BENCHMARK.json
/// bounds (its `end_to_end`, in order). Latencies and peak memory
/// go to the detail record instead: see README.md for why.
pub const END_TO_END: [&str; 2] = ["setup_s", "work_per_s"];

pub const WORKLOADS: [&str; 3] = ["serve_mixed", "paper_regen", "gate_mc"];

/// Set-ups per run, each in a fresh process; `setup_s` is their median.
const SETUPS: usize = 7;

/// One measured value with its unit and sample count.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub n: usize,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64, n: usize) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            n,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Self {
        self.note = note;
        self
    }

    fn detail_json(&self) -> String {
        format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\",\"n\":{}{}}}",
            util::esc(&self.name),
            util::num(self.value),
            self.unit,
            self.n,
            if self.note.is_empty() {
                String::new()
            } else {
                format!(",\"note\":\"{}\"", util::esc(&self.note))
            }
        )
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures that only go into the detail record.
    pub details: Vec<Metric>,
    /// Per-layer metrics measured by the workload's own traced run.
    pub layers: Vec<Metric>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Report {
            attempted,
            failed,
            ..Report::default()
        }
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn detail(&mut self, m: Metric) {
        self.details.push(m);
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

pub fn run_workload(workload: &str, seed: u64, seconds: f64, trace: Option<&Trace>) -> Report {
    match workload {
        "serve_mixed" => serve_mixed::run(seed, seconds, trace),
        "paper_regen" => paper_regen::run(seed, seconds, trace),
        "gate_mc" => gate_mc::run(seed, seconds),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

/// The workload's set-up: what must be built before its first timed
/// request or pass.
fn setup(workload: &str, seed: u64) {
    match workload {
        "serve_mixed" => drop(serve_mixed::warm_state()),
        "paper_regen" => paper_regen::setup(),
        "gate_mc" => gate_mc::setup(seed, &dvafs_executor::Executor::new(gate_mc::THREADS)),
        other => unreachable!("workload {other} was validated by the argument parser"),
    }
}

/// Runs the workload's set-up `SETUPS` times, each in a fresh process so
/// that every one-time cost lands in it. Returns the seconds of the
/// set-ups that succeeded.
fn cold_setups(workload: &str, seed: u64) -> Vec<f64> {
    let Ok(exe) = std::env::current_exe() else {
        return Vec::new();
    };
    (0..SETUPS)
        .filter_map(|_| {
            let out = Command::new(&exe)
                .args(["--cold-setup", "--workload", workload])
                .args(["--seed", &seed.to_string()])
                .stderr(Stdio::inherit())
                .output()
                .ok()?;
            if !out.status.success() {
                return None;
            }
            let text = String::from_utf8_lossy(&out.stdout);
            text.lines().last()?.trim().parse().ok()
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
    cold_setup: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        steady: None,
        cold_setup: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--cold-setup" => args.cold_setup = true,
            "--steady" => {
                args.steady = Some(value()?.parse().map_err(|e| format!("--steady: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.steady.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn object(metrics: &[&Metric]) -> String {
    let fields: Vec<String> = metrics.iter().map(|m| m.detail_json()).collect();
    format!("{{{}}}", fields.join(","))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.steady {
        return steady::run(runs, args.seconds);
    }
    if args.cold_setup {
        let start = Instant::now();
        setup(&args.workload, args.seed);
        println!("{}", start.elapsed().as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let setups = cold_setups(&args.workload, args.seed);

    let (mut report, layer_metrics, overhead) = if args.trace {
        // Half the time untraced, half traced: untraced minus traced
        // end-to-end values is the tracing overhead. The probes then fill
        // in every layer the workload did not exercise.
        let trace = Trace::new();
        layers::calibrate(&trace);
        let plain = run_workload(&args.workload, args.seed, args.seconds / 2.0, None);
        let traced = run_workload(&args.workload, args.seed, args.seconds / 2.0, Some(&trace));
        let mut layer_metrics = traced.layers.clone();
        layer_metrics.extend(layers::probe(&trace, args.seed));
        // Set-up runs in fresh processes, outside either half, so only the
        // workloads' own metrics have an overhead.
        let overhead: Vec<Metric> = traced
            .metrics
            .iter()
            .map(|m| Metric::new(&m.name, m.unit, plain.value(&m.name) - m.value, 1))
            .collect();
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace.write(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        let mut report = traced;
        report.attempted += plain.attempted;
        report.failed += plain.failed;
        (report, layer_metrics, overhead)
    } else {
        (
            run_workload(&args.workload, args.seed, args.seconds, None),
            Vec::new(),
            Vec::new(),
        )
    };

    report.attempted += SETUPS as u64;
    report.failed += (SETUPS - setups.len()) as u64;
    let setup_s = if setups.is_empty() {
        f64::NAN
    } else {
        util::median(&setups)
    };
    report
        .metrics
        .insert(0, Metric::new("setup_s", "s", setup_s, setups.len()));
    report.detail(
        Metric::new(
            "failed_frac",
            "1",
            report.failed as f64 / report.attempted as f64,
            report.attempted as usize,
        )
        .with_note(format!(
            "{} failed of {} attempted",
            report.failed, report.attempted
        )),
    );

    let all: Vec<&Metric> = report.metrics.iter().chain(&report.details).collect();
    println!(
        "{{\"detail\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"host\":{},\"end_to_end\":{},\"per_layer\":{},\"tracing_overhead\":{}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        util::host_record(),
        object(&all),
        object(&layer_metrics.iter().collect::<Vec<_>>()),
        object(&overhead.iter().collect::<Vec<_>>()),
    );

    let reported: Vec<&Metric> = if args.trace {
        layer_metrics.iter().collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|name| report.metrics.iter().find(|m| m.name == *name))
            .collect()
    };
    let fields: Vec<String> = reported
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                util::esc(&m.name),
                util::num(m.value),
                m.unit
            )
        })
        .collect();
    let correct = report.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(",")
    );
    ExitCode::SUCCESS
}
