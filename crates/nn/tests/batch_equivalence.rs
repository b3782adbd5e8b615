//! The batch equivalence net: the batched forward (one wide GEMM per
//! layer across a chunk of samples) must be **bit-identical** for every
//! chunk width — a chunk of one (B = 1, the sample-at-a-time walk),
//! ragged chunks (B that does not divide the sample count, B larger than
//! the sample count) — and to the naive oracle: output tensors, the
//! `zero_weight`/`zero_act` guard-skip counters, and argmaxes, over random
//! geometries and precisions and thread counts 1..=8. Plus the precision
//! search: the incremental scan's batched prefix and suffix must
//! reproduce the requirements of every chunk width and of the rescan
//! oracle exactly.

use dvafs_executor::Executor;
use dvafs_nn::dataset::SyntheticDataset;
use dvafs_nn::kernel::{NnKernel, Scratch};
use dvafs_nn::layers::{Conv2d, Dense, Layer, LayerStats};
use dvafs_nn::network::{Network, QuantConfig};
use dvafs_nn::precision::{Operand, PrecisionSearch, SearchStrategy};
use dvafs_nn::tensor::Tensor;
use proptest::prelude::*;

/// A small conv-pool-dense cascade (the fig6 shape in miniature).
fn tiny_net(seed: u64, kernel: NnKernel, batch: usize) -> Network {
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
    .with_batch_size(batch)
}

fn images(count: usize, seed: u64) -> Vec<Tensor> {
    (0..count)
        .map(|i| Tensor::random(1, 12, 12, seed ^ (i as u64) << 8))
        .collect()
}

/// Runs `inputs` through `net.forward_batch` in chunks of `batch`.
fn forward_chunked(
    net: &Network,
    inputs: &[Tensor],
    cfg: &QuantConfig,
    batch: usize,
) -> Vec<(Tensor, Vec<LayerStats>)> {
    let mut scratch = Scratch::new();
    inputs
        .chunks(batch)
        .flat_map(|chunk| {
            net.forward_batch(chunk, cfg, &mut scratch)
                .expect("inference succeeds")
        })
        .collect()
}

/// Outputs bitwise and statistics exactly equal, sample by sample.
fn assert_same_results(
    oracle: &[(Tensor, Vec<LayerStats>)],
    got: &[(Tensor, Vec<LayerStats>)],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(oracle.len(), got.len());
    for ((out_o, st_o), (out_g, st_g)) in oracle.iter().zip(got) {
        prop_assert_eq!(st_o, st_g, "{} statistics diverged", what);
        prop_assert_eq!(out_o.shape(), out_g.shape(), "{} shape diverged", what);
        let ob: Vec<u32> = out_o.as_slice().iter().map(|v| v.to_bits()).collect();
        let gb: Vec<u32> = out_g.as_slice().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(ob, gb, "{} outputs diverged bitwise", what);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `forward_batch`: outputs and per-layer statistics bitwise equal to
    /// the naive oracle for a chunk of one, a ragged chunk width, and the
    /// whole set as one chunk.
    #[test]
    fn forward_batch_paths_agree_bitwise(
        seed in any::<u64>(),
        count in 1usize..=7,
        batch in 1usize..=9,
        wbits in 1u32..=16,
        abits in 1u32..=16,
    ) {
        let imgs = images(count, seed ^ 0xba7c);
        let cfg = {
            let mut cfg = QuantConfig::uniform(6, 16, 16);
            cfg.set_layer(0, wbits, abits);
            cfg.set_layer(3, abits, wbits);
            cfg
        };
        let oracle = forward_chunked(&tiny_net(seed, NnKernel::Naive, 1), &imgs, &cfg, count);
        let packed = tiny_net(seed, NnKernel::GemmPacked, batch);
        for b in [1, batch, count] {
            let got = forward_chunked(&packed, &imgs, &cfg, b);
            assert_same_results(&oracle, &got, &format!("B = {b}"))?;
        }
    }

    /// `evaluate_batch` / `predict_all_with`: the same argmaxes at B = 1,
    /// at any B — non-dividing and B > sample count are both reachable
    /// from the ranges — and on the naive oracle, for thread counts
    /// 1..=8.
    #[test]
    fn predictions_agree_across_batch_sizes_and_threads(
        seed in any::<u64>(),
        count in 1usize..=9,
        batch in 1usize..=12,
        threads in 1usize..=8,
        bits in 1u32..=16,
    ) {
        let data = SyntheticDataset::new(count, 4, 1, 12, 12, seed ^ 0xd0d0);
        let cfg = QuantConfig::uniform(6, bits, bits);
        let oracle = tiny_net(seed, NnKernel::Naive, 1)
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("oracle inference");
        let exec = Executor::new(threads);
        for net in [
            tiny_net(seed, NnKernel::GemmPacked, 1),
            tiny_net(seed, NnKernel::GemmPacked, batch),
        ] {
            let b = net.batch_size();
            let serial = net
                .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
                .expect("serial inference");
            prop_assert_eq!(&oracle, &serial, "evaluate_batch diverged at B = {}", b);
            let parallel = net
                .predict_all_with(&data, &cfg, &exec)
                .expect("parallel inference");
            prop_assert_eq!(&oracle, &parallel, "predict_all_with diverged at B = {}", b);
        }
    }

    /// The incremental precision search (batched prefix pass, batched
    /// candidate layer, batched suffix) reproduces the rescan oracle's
    /// `LayerRequirement`s exactly at B = 1 and at any other chunk width,
    /// and so does the naive kernel.
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
        for (kernel, b) in [
            (NnKernel::Naive, 1),
            (NnKernel::GemmPacked, 1),
            (NnKernel::GemmPacked, batch),
        ] {
            for strategy in SearchStrategy::ALL {
                let net = tiny_net(seed, kernel, b);
                results.push(search.with_strategy(strategy).search_with(&net, &data, op, &exec));
            }
        }
        for r in &results[1..] {
            prop_assert_eq!(&results[0], r, "search diverged across kernel/batch/strategy");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One `Conv2d` layer over random geometry through the batched
    /// forward: channel counts 1..=5 and kernels 1..=5 (odd `k·c` tap
    /// runs straddle `X2`/`X4` lane words), strides 1..=5, padding 0..=5
    /// (padding >= kernel included, so whole output rows read only
    /// padding), batches 1..=5, and widths 1..=16 on both operands (every
    /// `SubwordMode`). Outputs and `LayerStats` must equal the naive
    /// kernel's bit for bit, for the whole batch as one chunk and for
    /// every sample as a chunk of one.
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
        let net = |kernel| Network::new("conv", vec![Layer::Conv2d(conv.clone())]).with_kernel(kernel);
        let oracle = forward_chunked(&net(NnKernel::Naive), &imgs, &cfg, b);
        let packed = net(NnKernel::GemmPacked);
        assert_same_results(&oracle, &forward_chunked(&packed, &imgs, &cfg, b), "batched")?;
        assert_same_results(&oracle, &forward_chunked(&packed, &imgs, &cfg, 1), "B = 1")?;
    }
}

/// The boundary widths pinned explicitly: B = 1 (every chunk holds one
/// sample), B that does not divide the sample count (ragged tail), and B
/// past the sample count (one short chunk).
#[test]
fn explicit_batch_boundaries_agree() {
    let data = SyntheticDataset::new(7, 4, 1, 12, 12, 404);
    let cfg = QuantConfig::uniform(6, 8, 8);
    let oracle = tiny_net(17, NnKernel::Naive, 7)
        .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
        .expect("oracle inference");
    for batch in [1usize, 3, 7, 16] {
        let fused = tiny_net(17, NnKernel::GemmPacked, batch)
            .evaluate_batch(data.images(), &cfg, &mut Scratch::new())
            .expect("fused inference");
        assert_eq!(oracle, fused, "batch size {batch} moved a prediction");
    }
}

/// The batch size is execution strategy, not model identity: it never
/// participates in equality, defaults to [`DEFAULT_BATCH_SIZE`], and
/// `batch_size == 0` reads as the default chunk width.
///
/// [`DEFAULT_BATCH_SIZE`]: dvafs_nn::DEFAULT_BATCH_SIZE
#[test]
fn batch_path_is_execution_strategy_only() {
    let a = tiny_net(5, NnKernel::GemmPacked, 1);
    let b = tiny_net(5, NnKernel::Naive, 9);
    assert_eq!(a, b, "kernel/batch size must not affect network identity");
    assert_eq!(
        Network::new("n", vec![Layer::ReLU]).batch_size(),
        dvafs_nn::DEFAULT_BATCH_SIZE
    );
    let zero = tiny_net(5, NnKernel::GemmPacked, 0);
    assert_eq!(zero.batch_size(), dvafs_nn::DEFAULT_BATCH_SIZE);
}
