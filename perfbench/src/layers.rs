//! The traced run's per-layer probes. Each probe times public calls into
//! one crate (one span per call, recorded by the benchmark) on inputs
//! derived from the seed, and every per-layer metric is computed from
//! those spans. A layer the workload's own traced run already measured
//! (serve on `serve_mixed`, scenarios on `paper_regen`) is not probed
//! again.

use crate::serve_mixed::{self, BITS, MODELS};
use crate::trace::Trace;
use crate::util::{median, Rng};
use crate::Metric;
use dvafs::report::json;
use dvafs::scenario::EXPERIMENT_SEED;
use dvafs_arith::activity::{extract_das_profile, extract_dvafs_profile};
use dvafs_arith::metrics::{precision_sum_squared_error, sum_squared_error};
use dvafs_arith::multiplier::{
    DvafsMultiplier, KulkarniMultiplier, KyawMultiplier, LiuMultiplier, TruncatedMultiplier,
};
use dvafs_arith::netlist::Engine;
use dvafs_arith::{Precision, SubwordMode};
use dvafs_envision::measure::{table3_with, Fig8Sweep};
use dvafs_envision::EnvisionChip;
use dvafs_executor::{Executor, PanicPolicy};
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::layers::Layer;
use dvafs_nn::models::{self, ModelSpec};
use dvafs_nn::precision::{prediction_diversity, Operand, PrecisionSearch};
use dvafs_nn::quant::QuantizedTensor;
use dvafs_nn::sparsity::prune_to_sparsity;
use dvafs_nn::{Network, QuantConfig, Scratch, Tensor};
use dvafs_simd::gemm::{gemm_packed, PackedPanel};
use dvafs_simd::kernels::ConvKernel;
use dvafs_simd::{ProcConfig, Processor};
use dvafs_tech::scaling::{OperatingPoint, ScalingMode};
use dvafs_tech::technology::Technology;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// Samples per forward in the layer-split and GEMM probes.
const BATCH: usize = 16;
/// Bit pair of the layer-split probe.
const SPLIT_BITS: (u32, u32) = (8, 8);
/// Timed runs per suffix forward; each suffix time is their median.
const SUFFIX_RUNS: usize = 5;

fn median_of(t: &Trace, span: &str, scale: f64) -> (f64, usize) {
    let v: Vec<f64> = t.secs(span).iter().map(|s| s * scale).collect();
    (if v.is_empty() { f64::NAN } else { median(&v) }, v.len())
}

/// `tech`: the first `Technology` construction in the process runs the
/// delay-model calibration. Call this before anything else builds one.
pub fn calibrate(t: &Trace) {
    t.time("tech.calibrate", None, || {
        black_box((Technology::lp40(), Technology::fdsoi28()));
    });
}

fn executor_probe(t: &Trace) {
    for threads in [1, 2] {
        let exec = Executor::new(threads);
        let name = format!("executor.par_map.t{threads}");
        for _ in 0..300 {
            t.time(&name, None, || {
                black_box(exec.par_map_indexed(&[1u64, 2], |_, &x| x + 1))
            });
        }
    }
    let exec = Executor::new(2);
    for _ in 0..5 {
        t.span("executor.pipeline", None, || {
            let n = exec.pipeline_ordered_policy(
                PanicPolicy::Isolate,
                32,
                0..2000u64,
                |_, x| x,
                |_, r| {
                    black_box(r.ok());
                },
            );
            ((), n as f64)
        });
    }
}

fn json_probe(t: &Trace, seed: u64) {
    for req in serve_mixed::requests(seed, 400) {
        t.time("json.parse", None, || {
            black_box(json::parse(&req.line).is_ok())
        });
    }
}

/// `nn` serial replay of the serve mix's predicts: resolve, build (first
/// use of a key), warm, dataset, predict.
fn nn_replay_probe(t: &Trace, seed: u64) {
    let mut nets: HashMap<(&str, u64), Network> = HashMap::new();
    for p in serve_mixed::requests(seed, 300)
        .iter()
        .filter_map(|r| r.predict)
    {
        let spec = ModelSpec::resolve(p.model, None, None, p.model_seed)
            .expect("generated specs are valid");
        let net = nets
            .entry((p.model, p.model_seed))
            .or_insert_with(|| t.time(&format!("nn.build.{}", p.model), None, || spec.build()));
        let config = QuantConfig::uniform(net.layer_count(), p.wbits, p.abits);
        t.time(&format!("nn.warm.{}", p.model), None, || {
            net.warm_weights(&config)
        })
        .expect("generated bits are valid");
        let samples = p.samples as f64;
        let data = t.span(&format!("nn.dataset.{}", p.model), None, || {
            (spec.dataset(p.samples, p.data_seed), samples)
        });
        t.span(&format!("nn.predict.{}", p.model), None, || {
            (
                black_box(net.predict_all(&data, &config).expect("predict succeeds")),
                samples,
            )
        });
    }
}

/// `nn` layer split: the inputs of every layer from a `Layer::forward_with`
/// chain, then suffix forwards `forward_batch_from(i)`; layer i's time is
/// the difference of consecutive suffixes, summed per layer kind into the
/// returned `nn.<kind>_ms.<model>` metrics. Also times activation
/// quantization and the packed GEMM on every conv layer's real shape.
fn nn_split_probe(t: &Trace, seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    for model in MODELS {
        let spec = ModelSpec::resolve(model, None, None, 1).expect("default specs are valid");
        let net = spec.build();
        let config = QuantConfig::uniform(net.layer_count(), SPLIT_BITS.0, SPLIT_BITS.1);
        net.warm_weights(&config).expect("valid bits");
        let data = spec.dataset(BATCH, seed);
        let mut scratch = Scratch::new();
        // inputs[i] = the batch entering layer i.
        let mut inputs: Vec<Vec<Tensor>> = vec![data.images().to_vec()];
        for layer in net.layers() {
            let next = inputs
                .last()
                .expect("chain starts with the dataset")
                .iter()
                .map(|x| {
                    layer
                        .forward_with(x, SPLIT_BITS.0, SPLIT_BITS.1, net.kernel(), &mut scratch)
                        .expect("layer forward succeeds")
                        .0
                })
                .collect();
            inputs.push(next);
        }
        let layers = net.layer_count();
        let suffix = |i: usize, scratch: &mut Scratch| -> f64 {
            let runs: Vec<f64> = (0..SUFFIX_RUNS)
                .map(|_| {
                    let start = Instant::now();
                    black_box(
                        net.forward_batch_from(i, &inputs[i], &config, scratch)
                            .expect("suffix forward"),
                    );
                    start.elapsed().as_secs_f64()
                })
                .collect();
            median(&runs)
        };
        let times: Vec<f64> = (0..layers)
            .map(|i| suffix(i, &mut scratch))
            .chain([0.0])
            .collect();
        let start = Instant::now();
        let macs: u64 = net
            .forward_batch_from(0, &inputs[0], &config, &mut scratch)
            .expect("forward")
            .iter()
            .flat_map(|(_, stats)| stats.iter().map(|s| s.macs))
            .sum();
        t.record(
            &format!("nn.forward.{model}"),
            start,
            Instant::now(),
            None,
            None,
            macs as f64,
        );
        let mut kinds: [f64; 3] = [0.0; 3];
        for (i, layer) in net.layers().iter().enumerate() {
            let kind = match layer {
                Layer::Conv2d(_) => 0,
                Layer::Dense(_) => 1,
                _ => 2,
            };
            kinds[kind] += times[i] - times[i + 1];
        }
        for (kind, secs) in ["conv", "dense", "other"].iter().zip(kinds) {
            out.push(Metric::new(
                &format!("nn.{kind}_ms.{model}"),
                "ms",
                secs * 1e3,
                SUFFIX_RUNS,
            ));
        }
        for (i, layer) in net.layers().iter().enumerate() {
            if layer.is_parameterized() {
                t.time(&format!("nn.quantize.{model}"), None, || {
                    for x in &inputs[i] {
                        black_box(
                            QuantizedTensor::quantize(x, SPLIT_BITS.1).expect("finite input"),
                        );
                    }
                });
            }
            if let Layer::Conv2d(conv) = layer {
                let (c, _, _) = inputs[i][0].shape();
                let (oc, oh, ow) = inputs[i + 1][0].shape();
                let kk = conv.kernel();
                gemm_probe(t, oc, c * kk * kk, oh * ow * BATCH, seed ^ i as u64);
            }
        }
    }
    out
}

fn mode(bits: u32) -> SubwordMode {
    SubwordMode::for_precision(Precision::new(bits).expect("probe widths are valid"))
}

fn operands(rng: &mut Rng, len: usize, bits: u32) -> Vec<i16> {
    let lane = mode(bits).lane_bits();
    let span = 1u64 << lane;
    (0..len)
        .map(|_| ((rng.next_u64() % span) as i64 - (span / 2) as i64) as i16)
        .collect()
}

/// `simd`: pack both operand panels and run the packed GEMM of an
/// `m x k x n` conv shape at every bit pair of the serve mix.
fn gemm_probe(t: &Trace, m: usize, k: usize, n: usize, seed: u64) {
    let mut rng = Rng::new(seed);
    for (wbits, abits) in BITS {
        let w = operands(&mut rng, m * k, wbits);
        let a = operands(&mut rng, n * k, abits);
        let (wp, ap) = t.span(&format!("simd.pack.w{wbits}a{abits}"), None, || {
            let panels = (
                PackedPanel::pack(&w, m, k, mode(wbits)),
                PackedPanel::pack(&a, n, k, mode(abits)),
            );
            let bytes = 2
                * (panels.0.rows() * panels.0.words_per_row()
                    + panels.1.rows() * panels.1.words_per_row());
            (panels, bytes as f64)
        });
        let mut out = vec![0i64; m * n];
        t.span(&format!("simd.gemm.w{wbits}a{abits}"), None, || {
            gemm_packed(&wp, &ap, &mut out);
            ((), (m * k * n) as f64)
        });
        black_box(&out);
    }
}

/// `nn` precision searches exactly as the fig6, fig6_vgg and
/// cnn_layerwise artefacts run them (weights, then activations).
fn search_probe(t: &Trace) {
    let s = EXPERIMENT_SEED;
    let exec = Executor::new(2);
    let search = PrecisionSearch::new();
    let mut layerwise = models::lenet5(s + 6);
    prune_to_sparsity(&mut layerwise, 0.3);
    let cases = [
        (
            "fig6_lenet5",
            models::lenet5(s),
            SyntheticDataset::digits(48, s + 1),
        ),
        (
            "fig6_alexnet",
            models::alexnet(67, 0.25, s + 2),
            SyntheticDataset::image_like(24, 67, 10, s + 3),
        ),
        (
            "fig6_vgg16",
            models::vgg16(32, 0.125, s + 4),
            SyntheticDataset::image_like(12, 32, 10, s + 5),
        ),
        (
            "layerwise_lenet5",
            layerwise,
            SyntheticDataset::digits(48, s + 7),
        ),
    ];
    for (name, mut net, data) in cases {
        if prediction_diversity(&net, &data) < 3 {
            net.calibrate_logits(&data);
        }
        t.time(&format!("nn.search.{name}"), None, || {
            black_box(search.search_with(&net, &data, Operand::Weights, &exec));
            black_box(search.search_with(&net, &data, Operand::Activations, &exec));
        });
    }
}

/// `simd` machine: simulated cycles of the fig4/table2 conv kernel.
fn machine_probe(t: &Trace) {
    let kernel = ConvKernel::random(25, 2048, EXPERIMENT_SEED);
    for (mode, bits) in ScalingMode::precision_grid() {
        let cfg = ProcConfig::new(64, mode, bits).expect("valid config");
        let proc = Processor::new(cfg);
        t.span("simd.machine", None, || {
            let r = proc.run_kernel(&kernel).expect("kernel runs");
            ((), r.run.cycles as f64)
        });
    }
}

/// `arith`: toggle simulation per subword mode and error integration per
/// Fig. 3b error-model family, per operand pair.
fn arith_probe(t: &Trace, seed: u64) {
    let mut rng = Rng::new(seed ^ 0xA417);
    let pairs: Vec<(u16, u16)> = (0..20_000)
        .map(|_| (rng.next_u64() as u16, rng.next_u64() as u16))
        .collect();
    let m = DvafsMultiplier::new();
    for (name, mode) in [
        ("x1", SubwordMode::X1),
        ("x2", SubwordMode::X2),
        ("x4", SubwordMode::X4),
    ] {
        t.span(&format!("arith.toggle.{name}"), None, || {
            (
                black_box(m.simulate_stream_with(&pairs, mode, Engine::Bitsliced)),
                pairs.len() as f64,
            )
        });
    }
    let n = pairs.len() as f64;
    t.span("arith.rmse.precision", None, || {
        (black_box(precision_sum_squared_error(8, &pairs)), n)
    });
    t.span("arith.rmse.liu", None, || {
        (
            black_box(sum_squared_error(&LiuMultiplier::new(6), &pairs)),
            n,
        )
    });
    t.span("arith.rmse.kulkarni", None, || {
        (
            black_box(sum_squared_error(&KulkarniMultiplier::new(), &pairs)),
            n,
        )
    });
    t.span("arith.rmse.kyaw", None, || {
        (
            black_box(sum_squared_error(&KyawMultiplier::new(8), &pairs)),
            n,
        )
    });
    t.span("arith.rmse.trunc", None, || {
        (
            black_box(sum_squared_error(&TruncatedMultiplier::new(12), &pairs)),
            n,
        )
    });
}

fn tech_envision_probe(t: &Trace, seed: u64) {
    let tech = Technology::lp40();
    let (das, dvafs) = (
        extract_das_profile(200, seed),
        extract_dvafs_profile(200, seed),
    );
    for _ in 0..20 {
        for (mode, bits) in ScalingMode::precision_grid() {
            t.time("tech.derive", None, || {
                black_box(OperatingPoint::derive(&tech, mode, bits, &das, &dvafs))
            });
        }
    }
    let exec = Executor::new(2);
    for _ in 0..5 {
        t.time("envision.eval", None, || {
            let sweep = Fig8Sweep::new(EnvisionChip::new()).with_executor(exec.clone());
            black_box((
                sweep.fig8a(),
                sweep.fig8b(),
                table3_with(&EnvisionChip::new(), &exec),
            ));
        });
    }
}

/// Runs every probe the workload's own traced run did not cover.
pub fn probe(t: &Trace, seed: u64) -> Vec<Metric> {
    let mut out = Vec::new();
    if t.named("serve.request").is_empty() {
        let (rungs, _) = serve_mixed::ladder(seed, 4.0, None);
        out.extend(serve_mixed::layer_metrics(&rungs));
    }
    if t.named("regen.pass").is_empty() {
        let ctx = dvafs::scenario::ScenarioCtx::new().with_threads(crate::paper_regen::THREADS);
        let order: Vec<usize> = (0..crate::paper_regen::artefacts().len()).collect();
        crate::paper_regen::pass(&order, &ctx, Some(t));
        out.extend(crate::paper_regen::layer_metrics(t));
    }
    executor_probe(t);
    json_probe(t, seed);
    nn_replay_probe(t, seed);
    out.extend(nn_split_probe(t, seed));
    search_probe(t);
    machine_probe(t);
    arith_probe(t, seed);
    tech_envision_probe(t, seed);
    out.extend(metrics(t));
    out
}

/// The per-layer metrics computed from the probe spans.
fn metrics(t: &Trace) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut med = |name: &str, span: &str, unit: &'static str, scale: f64| {
        let (v, n) = median_of(t, span, scale);
        out.push(Metric::new(name, unit, v, n));
    };
    med("executor.par_map_us.t1", "executor.par_map.t1", "us", 1e6);
    med("executor.par_map_us.t2", "executor.par_map.t2", "us", 1e6);
    med("json.parse_us", "json.parse", "us", 1e6);
    med("tech.calibrate_ms", "tech.calibrate", "ms", 1e3);
    med("tech.derive_us", "tech.derive", "us", 1e6);
    med("envision.eval_ms", "envision.eval", "ms", 1e3);
    for model in MODELS {
        med(
            &format!("nn.build_ms.{model}"),
            &format!("nn.build.{model}"),
            "ms",
            1e3,
        );
    }
    for name in [
        "fig6_lenet5",
        "fig6_alexnet",
        "fig6_vgg16",
        "layerwise_lenet5",
    ] {
        med(
            &format!("nn.search_ms.{name}"),
            &format!("nn.search.{name}"),
            "ms",
            1e3,
        );
    }
    let rate = |span: &str| t.rate(span);
    let pipeline = t.named("executor.pipeline");
    let items: f64 = pipeline.iter().map(|s| s.count).sum();
    out.push(Metric::new(
        "executor.pipeline_item_us",
        "us",
        pipeline.iter().map(crate::trace::Span::secs).sum::<f64>() / items * 1e6,
        items as usize,
    ));
    let total_ms = |span: &str| t.secs(span).iter().sum::<f64>() * 1e3;
    for model in MODELS {
        // Weight packing happens on a key's first use of a bit width, so
        // the replay's whole warm time is spread over the models it built.
        let builds = t.named(&format!("nn.build.{model}")).len();
        let warm = total_ms(&format!("nn.warm.{model}"));
        out.push(Metric::new(
            &format!("nn.warm_ms.{model}"),
            "ms",
            warm / builds.max(1) as f64,
            builds,
        ));
        // One batch forward's worth of activation quantization.
        let quantize = format!("nn.quantize.{model}");
        out.push(Metric::new(
            &format!("nn.quantize_ms.{model}"),
            "ms",
            total_ms(&quantize),
            t.named(&quantize).len(),
        ));
        // ms per 16 images, so requests of different sizes pool.
        for (metric, span) in [("predict", "predict"), ("dataset", "dataset")] {
            let name = format!("nn.{span}.{model}");
            out.push(Metric::new(
                &format!("nn.{metric}_ms.{model}"),
                "ms",
                16e3 / rate(&name),
                t.named(&name).len(),
            ));
        }
        let fwd = format!("nn.forward.{model}");
        out.push(Metric::new(
            &format!("nn.gmacs.{model}"),
            "GMAC/s",
            rate(&fwd) / 1e9,
            t.named(&fwd).len(),
        ));
    }
    let mut packs = Vec::new();
    for (w, a) in BITS {
        let gemm = t.named(&format!("simd.gemm.w{w}a{a}"));
        let pack = t.named(&format!("simd.pack.w{w}a{a}"));
        let macs: f64 = gemm.iter().map(|s| s.count).sum();
        let bytes: f64 = pack.iter().map(|s| s.count).sum();
        let secs: f64 = gemm.iter().map(crate::trace::Span::secs).sum();
        out.push(
            Metric::new(
                &format!("simd.gemm_gmacs.w{w}a{a}"),
                "GMAC/s",
                macs / secs / 1e9,
                gemm.len(),
            )
            .with_note(format!(
                "{} ops (2 per MAC) over {} panel bytes",
                2.0 * macs,
                bytes
            )),
        );
        packs.extend(pack.iter().map(crate::trace::Span::secs));
    }
    out.push(Metric::new(
        "simd.pack_ms",
        "ms",
        packs.iter().sum::<f64>() * 1e3 / packs.len().max(1) as f64,
        packs.len(),
    ));
    out.push(Metric::new(
        "simd.machine_cycles_per_s",
        "1/s",
        rate("simd.machine"),
        t.named("simd.machine").len(),
    ));
    for mode in ["x1", "x2", "x4"] {
        let name = format!("arith.toggle.{mode}");
        out.push(Metric::new(
            &format!("arith.toggle_ns_per_pair.{mode}"),
            "ns",
            1e9 / rate(&name),
            1,
        ));
    }
    for model in ["precision", "liu", "kulkarni", "kyaw", "trunc"] {
        let name = format!("arith.rmse.{model}");
        out.push(Metric::new(
            &format!("arith.rmse_ns_per_pair.{model}"),
            "ns",
            1e9 / rate(&name),
            1,
        ));
    }
    out
}
