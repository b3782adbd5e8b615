//! The batch-path equivalence net: the layer-major fused-batch forward
//! (`BatchPath::LayerMajor`, one wide GEMM per layer across samples) must
//! be **bit-identical** to the retained per-sample oracle
//! (`BatchPath::SampleMajor`) — output tensors, the
//! `zero_weight`/`zero_act` guard-skip counters, and argmaxes — over
//! random geometries and precisions, for all three MAC kernels, across
//! the batch boundaries that matter (B = 1, non-dividing B, B larger
//! than the sample count, ragged tails) and thread counts 1..=8. Plus
//! the precision search: the incremental scan's batched prefix and
//! suffix must reproduce the per-sample scan's requirements exactly.

use dvafs_executor::Executor;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::kernel::{BatchPath, NnKernel, Scratch};
use dvafs_nn::layers::{Conv2d, Dense, Layer};
use dvafs_nn::network::{Network, QuantConfig};
use dvafs_nn::precision::{Operand, PrecisionSearch, SearchStrategy};
use dvafs_nn::tensor::Tensor;
use proptest::prelude::*;

/// A small conv-pool-dense cascade (the fig6 shape in miniature).
fn tiny_net(seed: u64, kernel: NnKernel, path: BatchPath, batch: usize) -> Network {
    Network::new(
        "tiny",
        vec![
            Layer::Conv2d(Conv2d::random(1, 6, 3, 1, 1, seed)),
            Layer::ReLU,
            Layer::MaxPool2d { k: 2, stride: 2 },
            Layer::Dense(Dense::random(6 * 6 * 6, 8, seed ^ 1)),
            Layer::ReLU,
            Layer::Dense(Dense::random(8, 4, seed ^ 2)),
        ],
    )
    .with_kernel(kernel)
    .with_batch_path(path)
    .with_batch_size(batch)
}

fn images(count: usize, seed: u64) -> Vec<Tensor> {
    (0..count)
        .map(|i| Tensor::random(1, 12, 12, seed ^ (i as u64) << 8))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `forward_batch`: outputs and per-layer statistics bitwise equal
    /// across both paths for every kernel, any chunk width (including a
    /// single sample and widths past the fusable guard).
    #[test]
    fn forward_batch_paths_agree_bitwise(
        seed in any::<u64>(),
        count in 1usize..=7,
        kernel_idx in 0usize..3,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        let kernel = NnKernel::ALL[kernel_idx];
        let imgs = images(count, seed ^ 0xba7c);
        let cfg = {
            let mut cfg = QuantConfig::uniform(6, 16, 16);
            cfg.set_layer(0, wbits, abits);
            cfg.set_layer(3, abits, wbits);
            cfg
        };
        let sample = tiny_net(seed, kernel, BatchPath::SampleMajor, count);
        let layer = tiny_net(seed, kernel, BatchPath::LayerMajor, count);
        let oracle = sample
            .forward_batch(&imgs, &cfg, &mut Scratch::new())
            .expect("oracle inference");
        let fused = layer
            .forward_batch(&imgs, &cfg, &mut Scratch::new())
            .expect("fused inference");
        prop_assert_eq!(oracle.len(), fused.len());
        for ((out_s, st_s), (out_l, st_l)) in oracle.iter().zip(fused.iter()) {
            prop_assert_eq!(st_s, st_l, "statistics diverged");
            prop_assert_eq!(out_s.shape(), out_l.shape(), "shape diverged");
            let sb: Vec<u32> = out_s.as_slice().iter().map(|v| v.to_bits()).collect();
            let lb: Vec<u32> = out_l.as_slice().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(sb, lb, "outputs diverged bitwise");
        }
    }

    /// `evaluate_batch` / `predict_all_with`: same argmaxes on both paths
    /// over the batch boundaries that matter — B = 1, non-dividing B,
    /// B > sample count (all reachable from the ranges) — and thread
    /// counts 1..=8.
    #[test]
    fn predictions_agree_across_batch_sizes_and_threads(
        seed in any::<u64>(),
        count in 1usize..=9,
        batch in 1usize..=12,
        threads in 1usize..=8,
        kernel_idx in 0usize..3,
        bits in 1u32..=16,
    ) {
        let kernel = NnKernel::ALL[kernel_idx];
        let data = SyntheticDataset::new(count, 4, 1, 12, 12, seed ^ 0xd0d0);
        let cfg = QuantConfig::uniform(6, bits, bits);
        let sample = tiny_net(seed, kernel, BatchPath::SampleMajor, batch);
        let layer = tiny_net(seed, kernel, BatchPath::LayerMajor, batch);
        let oracle = sample
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("oracle inference");
        let fused = layer
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("fused inference");
        prop_assert_eq!(&oracle, &fused, "evaluate_batch diverged");
        let exec = Executor::new(threads);
        let parallel_sample = sample
            .predict_all_with(&data, &cfg, &exec)
            .expect("parallel oracle inference");
        let parallel_layer = layer
            .predict_all_with(&data, &cfg, &exec)
            .expect("parallel fused inference");
        prop_assert_eq!(&oracle, &parallel_sample, "parallel sample-major diverged");
        prop_assert_eq!(&oracle, &parallel_layer, "parallel layer-major diverged");
    }

    /// The incremental precision search on `LayerMajor` (batched prefix
    /// pass, batched candidate layer, batched suffix) reproduces the
    /// per-sample scan's `LayerRequirement`s exactly, which in turn match
    /// the rescan oracle.
    #[test]
    fn precision_search_agrees_across_paths(
        seed in any::<u64>(),
        batch in 1usize..=7,
        threads in 1usize..=4,
        op_idx in 0usize..2,
    ) {
        let op = [Operand::Weights, Operand::Activations][op_idx];
        let data = SyntheticDataset::new(10, 4, 1, 12, 12, seed ^ 0x5ca7);
        let exec = Executor::new(threads);
        let search = PrecisionSearch::new().with_target(0.9);
        let mut results = Vec::new();
        for path in BatchPath::ALL {
            for strategy in SearchStrategy::ALL {
                let net = tiny_net(seed, NnKernel::GemmPacked, path, batch);
                results.push(search.with_strategy(strategy).search_with(&net, &data, op, &exec));
            }
        }
        for r in &results[1..] {
            prop_assert_eq!(&results[0], r, "search diverged across path/strategy");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One `Conv2d` layer over random geometry through the layer-major
    /// fused batch: channel counts 1..=5 and kernels 1..=5 (odd `k·c`
    /// tap runs straddle `X2`/`X4` lane words), strides 1..=5, padding
    /// 0..=5 (padding >= kernel included, so whole output rows read
    /// only padding), batches 1..=5, and widths 1..=16 on both operands
    /// (every `SubwordMode`). Outputs and `LayerStats` must equal the
    /// naive kernel's bit for bit on both GEMM kernels.
    #[test]
    fn conv_batch_random_geometry_matches_naive(
        seed in any::<u64>(),
        in_c in 1usize..=5,
        out_c in 1usize..=4,
        k in 1usize..=5,
        stride in 1usize..=5,
        padding in 0usize..=5,
        h in 1usize..=9,
        w in 1usize..=9,
        b in 1usize..=5,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        // The padded input must hold at least one window.
        let (h, w) = (h.max(k.saturating_sub(2 * padding)), w.max(k.saturating_sub(2 * padding)));
        let imgs: Vec<Tensor> = (0..b)
            .map(|i| {
                let mut t = Tensor::random(in_c, h, w, seed ^ (i as u64 + 1) << 16);
                // Exact zeros at every width, so zero counting is exercised.
                for v in t.as_mut_slice().iter_mut().step_by(5) {
                    *v = 0.0;
                }
                t
            })
            .collect();
        let cfg = QuantConfig::uniform(1, wbits, abits);
        let conv = Conv2d::random(in_c, out_c, k, stride, padding, seed);
        let net = |kernel| {
            Network::new("conv", vec![Layer::Conv2d(conv.clone())])
                .with_kernel(kernel)
                .with_batch_path(BatchPath::LayerMajor)
                .with_batch_size(b)
        };
        let oracle = net(NnKernel::Naive)
            .forward_batch(&imgs, &cfg, &mut Scratch::new())
            .expect("naive inference");
        for kernel in [NnKernel::Gemm, NnKernel::GemmPacked] {
            let got = net(kernel)
                .forward_batch(&imgs, &cfg, &mut Scratch::new())
                .expect("gemm inference");
            prop_assert_eq!(oracle.len(), got.len());
            for ((out_n, st_n), (out_g, st_g)) in oracle.iter().zip(got.iter()) {
                prop_assert_eq!(st_n, st_g, "{} statistics diverged", kernel);
                prop_assert_eq!(out_n.shape(), out_g.shape());
                let nb: Vec<u32> = out_n.as_slice().iter().map(|v| v.to_bits()).collect();
                let gb: Vec<u32> = out_g.as_slice().iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(nb, gb, "{} outputs diverged bitwise", kernel);
            }
        }
    }
}

/// The boundary widths pinned explicitly: B = 1 (every chunk degenerates
/// to the per-sample path), B that does not divide the sample count
/// (ragged tail), and B past the sample count (one short chunk).
#[test]
fn explicit_batch_boundaries_agree() {
    let data = SyntheticDataset::new(7, 4, 1, 12, 12, 404);
    let cfg = QuantConfig::uniform(6, 8, 8);
    let oracle = tiny_net(17, NnKernel::GemmPacked, BatchPath::SampleMajor, 7)
        .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
        .expect("oracle inference");
    for batch in [1usize, 3, 7, 16] {
        let fused = tiny_net(17, NnKernel::GemmPacked, BatchPath::LayerMajor, batch)
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("fused inference");
        assert_eq!(oracle, fused, "batch size {batch} moved a prediction");
    }
}

/// The path is execution strategy, not model identity: it defaults to
/// layer-major, never participates in equality, and `batch_size == 0`
/// reads as the default chunk width.
#[test]
fn batch_path_is_execution_strategy_only() {
    let a = tiny_net(5, NnKernel::GemmPacked, BatchPath::SampleMajor, 1);
    let b = tiny_net(5, NnKernel::GemmPacked, BatchPath::LayerMajor, 9);
    assert_eq!(a, b, "batch path/size must not affect network identity");
    assert_eq!(
        Network::new("n", vec![Layer::ReLU]).batch_path(),
        BatchPath::LayerMajor
    );
    let zero = tiny_net(5, NnKernel::GemmPacked, BatchPath::LayerMajor, 0);
    assert_eq!(zero.batch_size(), dvafs_nn::DEFAULT_BATCH_SIZE);
}
