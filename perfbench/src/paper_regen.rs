//! `paper_regen`: regenerates the paper's artefacts at full size through
//! `scenario::registry()` -> `Scenario::run` -> `scenario::render`, on a
//! two-worker executor, pass after pass. The artefacts are fixed by the
//! paper (their inputs come from the experiment seed), so `--seed` only
//! permutes the order in which a pass regenerates them.

use crate::trace::{timed, Trace};
use crate::util::{median, percentile, Rng};
use crate::{Metric, Report};
use dvafs::scenario::{self, Format, Scenario, ScenarioCtx};
use std::hint::black_box;
use std::time::Instant;

/// Worker threads of the measured passes.
pub const THREADS: usize = 2;

/// Artefacts with a byte-exact fixture under `tests/golden/` (full size,
/// JSON, rendered on two workers).
const GOLDEN: [(&str, &str); 6] = [
    ("fig2", include_str!("../../tests/golden/fig2.json")),
    ("fig3a", include_str!("../../tests/golden/fig3a.json")),
    ("fig3b", include_str!("../../tests/golden/fig3b.json")),
    ("fig6_vgg", include_str!("../../tests/golden/fig6_vgg.json")),
    (
        "cnn_layerwise",
        include_str!("../../tests/golden/cnn_layerwise.json"),
    ),
    ("table3", include_str!("../../tests/golden/table3.json")),
];

/// Every registered artefact except `bench_sweep`, whose output is a
/// wall-clock measurement.
pub fn artefacts() -> Vec<&'static dyn Scenario> {
    scenario::registry()
        .iter()
        .copied()
        .filter(|s| s.id() != "bench_sweep")
        .collect()
}

fn regenerate(
    s: &dyn Scenario,
    ctx: &ScenarioCtx,
    trace: Option<&Trace>,
    parent: Option<usize>,
) -> String {
    let result = timed(trace, &format!("scenario.{}", s.id()), parent, || {
        s.run(ctx)
    });
    timed(trace, "scenario.render", parent, || {
        scenario::render(s.label(), s.title(), &result, Format::Json)
    })
}

/// One pass over every artefact in `order`; returns the rendered outputs
/// in registry order.
pub fn pass(order: &[usize], ctx: &ScenarioCtx, trace: Option<&Trace>) -> Vec<String> {
    let all = artefacts();
    let parent = trace.map(|t| t.open("regen.pass"));
    let mut out = vec![String::new(); all.len()];
    for &i in order {
        out[i] = regenerate(all[i], ctx, trace, parent);
    }
    if let (Some(t), Some(id)) = (trace, parent) {
        t.close(id);
    }
    out
}

/// The set-up: one CI-sized (`--fast`) pass. In a fresh process it also
/// pays every one-time cost of the first regeneration: technology
/// calibration, lazily built tables, per-thread scratch and allocator
/// growth.
pub fn setup() {
    let order: Vec<usize> = (0..artefacts().len()).collect();
    let fast = ScenarioCtx::new().with_threads(THREADS).with_fast(true);
    black_box(pass(&order, &fast, None));
}

/// The workload: an untimed set-up, measured full-size passes for
/// `seconds`, then the byte checks.
pub fn run(seed: u64, seconds: f64, trace: Option<&Trace>) -> Report {
    let all = artefacts();
    let mut rng = Rng::new(seed);
    let mut shuffled = || {
        let mut order: Vec<usize> = (0..all.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        order
    };
    let ctx = ScenarioCtx::new().with_threads(THREADS);
    setup();

    let start = Instant::now();
    let mut passes_ms = Vec::new();
    let mut outputs: Vec<Vec<String>> = Vec::new();
    while passes_ms.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        outputs.push(pass(&shuffled(), &ctx, trace));
        passes_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let rss = crate::util::peak_rss_mb();

    // Checks, outside the timed window: the golden six byte-for-byte, the
    // other six against a serial run; every pass against the reference.
    let serial = ScenarioCtx::new().with_threads(1);
    let reference: Vec<String> = all
        .iter()
        .map(|s| match GOLDEN.iter().find(|(id, _)| *id == s.id()) {
            Some((_, golden)) => (*golden).to_string(),
            None => regenerate(*s, &serial, None, None),
        })
        .collect();
    let attempted = outputs.len() * all.len();
    let failed = outputs
        .iter()
        .flat_map(|pass| pass.iter().zip(&reference))
        .filter(|(got, want)| got != want)
        .count();

    let mut report = Report::new(attempted as u64, failed as u64);
    report.detail(Metric::new("peak_rss_mb", "MiB", rss, 1));
    report.detail(Metric::new(
        "pass_p90_ms",
        "ms",
        percentile(&passes_ms, 90.0),
        passes_ms.len(),
    ));
    // Artefacts per second over the median pass, so a host stall during
    // one pass does not move the figure.
    report.push(Metric::new(
        "work_per_s",
        "1/s",
        all.len() as f64 / (median(&passes_ms) / 1e3),
        passes_ms.len(),
    ));
    report.detail(Metric::new(
        "regen_s",
        "s",
        median(&passes_ms) / 1e3,
        passes_ms.len(),
    ));
    if let Some(t) = trace {
        report.layers.extend(layer_metrics(t));
    }
    report
}

/// Per-artefact run times and the summed render time per pass.
pub fn layer_metrics(t: &Trace) -> Vec<Metric> {
    let mut out: Vec<Metric> = artefacts()
        .iter()
        .map(|s| {
            let ms: Vec<f64> = t
                .secs(&format!("scenario.{}", s.id()))
                .iter()
                .map(|s| s * 1e3)
                .collect();
            Metric::new(
                &format!("scenario.{}_ms", s.id()),
                "ms",
                median(&ms),
                ms.len(),
            )
        })
        .collect();
    let passes = t.named("regen.pass").len().max(1);
    let render: f64 = t.secs("scenario.render").iter().sum();
    out.push(Metric::new(
        "scenario.render_ms",
        "ms",
        render * 1e3 / passes as f64,
        passes,
    ));
    out
}
