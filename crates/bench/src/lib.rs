//! # dvafs-bench — experiment harness
//!
//! All experiments live in the scenario registry ([`dvafs::scenario`]) and
//! are served by **one** CLI, the `dvafs` binary:
//!
//! ```sh
//! cargo run -p dvafs-bench --release --bin dvafs -- list
//! cargo run -p dvafs-bench --release --bin dvafs -- run fig2 --format json
//! cargo run -p dvafs-bench --release --bin dvafs -- run --all --fast --out artifacts/
//! ```
//!
//! | scenario id | artefact | legacy shim |
//! |---|---|---|
//! | `table1` | Table I (k parameters) | `--bin table1` |
//! | `fig2` | Fig. 2a–d (f, slack, V, activity) | `--bin fig2` |
//! | `fig3a` | Fig. 3a (energy/word, DAS/DVAS/DVAFS) | `--bin fig3a` |
//! | `fig3b` | Fig. 3b (energy vs RMSE vs baselines) | `--bin fig3b` |
//! | `fig4` | Fig. 4 (SIMD energy/word, SW=8/64) | `--bin fig4` |
//! | `table2` | Table II (SIMD power split) | `--bin table2` |
//! | `fig6` | Fig. 6 (per-layer bits, LeNet-5/AlexNet) | `--bin fig6` |
//! | `fig6_vgg` | Fig. 6 at VGG16 scale (16-layer search) | — (registry-only) |
//! | `fig8` | Fig. 8a/8b (Envision energy/word) | `--bin fig8` |
//! | `table3` | Table III (per-layer power on Envision) | `--bin table3` |
//! | `cnn_layerwise` | Sec. IV/V end-to-end tuning on Envision | `cnn_layerwise` example |
//! | `ablations` | design-choice ablation studies | `--bin ablations` |
//! | `bench_sweep` | `BENCH_sweep.json` (wall time per scenario) | `--bin bench_sweep` |
//!
//! The legacy one-binary-per-figure entry points still build; each is a
//! three-line shim that delegates to the registry through [`run_legacy`],
//! so existing commands print **byte-identical stdout** (the smoke tests
//! diff shim output against the in-process scenario rendering).
//!
//! Every scenario accepts `--threads N` (default: `DVAFS_THREADS` or the
//! host's available parallelism) and produces **bit-identical output for
//! any thread count**. `--fast` is uniformly accepted; scenarios that are
//! already CI-sized treat it as a no-op — `dvafs list` documents per
//! scenario what it shrinks.
//!
//! Criterion micro-benchmarks of the simulators live in `benches/`.

#![warn(missing_docs)]

pub mod cli;

use dvafs::executor::Executor;
use dvafs::nn::{NnKernel, SearchStrategy, DEFAULT_BATCH_SIZE};
use dvafs::scenario::{self, ScenarioCtx};

pub use dvafs::report::{bench_sweep_json, median_time_ms, time_ms, SweepTiming};
pub use dvafs::scenario::EXPERIMENT_SEED;

/// Prints the standard experiment banner.
pub fn banner(id: &str, title: &str) {
    print!("{}", scenario::banner_text(id, title));
}

/// Command-line configuration shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Worker count for sweep execution (`--threads N`; defaults to
    /// `DVAFS_THREADS` or the host parallelism).
    pub threads: usize,
    /// Reduced problem sizes for CI smoke runs (`--fast`).
    pub fast: bool,
    /// Output path override for artefact-writing binaries (`--out PATH`).
    pub out: Option<String>,
    /// NN MAC kernel (`--kernel naive|packed`, default packed).
    pub kernel: NnKernel,
    /// Precision-search strategy (`--search rescan|incremental`, default
    /// incremental).
    pub search: SearchStrategy,
    /// Timed repeats per `bench_sweep` measurement (`--repeats N`,
    /// default 3).
    pub repeats: usize,
    /// Samples per batched-forward chunk (`--batch-size N`, default 16;
    /// results are bit-identical for any size).
    pub batch_size: usize,
}

impl BenchArgs {
    /// Parses `std::env::args`. Unknown flags are ignored so smoke tests
    /// can pass a superset of flags to every legacy binary (the `dvafs`
    /// CLI warns instead — see [`cli`]), but a present `--threads` or
    /// `--out` with a missing (or unparseable) value is a hard error —
    /// silently falling back to a default would record results under a
    /// configuration the user never asked for.
    ///
    /// # Panics
    ///
    /// Panics when `--threads` is given without a valid positive integer,
    /// or `--out` without a value.
    #[must_use]
    pub fn parse() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::from_slice(&args)
    }

    /// Parses an explicit argument slice (everything after the program
    /// name). See [`BenchArgs::parse`] for the flag semantics.
    ///
    /// # Panics
    ///
    /// Panics when `--threads` is given without a valid positive integer,
    /// or `--out` without a value.
    #[must_use]
    pub fn from_slice(args: &[String]) -> Self {
        // A value is "missing" when the flag is last or followed by
        // another flag — `--out --fast` must not eat `--fast` as a path.
        let value_of = |flag: &str| -> Option<String> {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .filter(|v| !v.starts_with("--"))
                .cloned()
        };
        let threads = if args.iter().any(|a| a == "--threads") {
            value_of("--threads")
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&t| t > 0)
                .unwrap_or_else(|| {
                    panic!("--threads requires a positive integer value (e.g. --threads 4)")
                })
        } else {
            Executor::from_env().threads()
        };
        let out = if args.iter().any(|a| a == "--out") {
            Some(
                value_of("--out")
                    .unwrap_or_else(|| panic!("--out requires a path value (e.g. --out DIR)")),
            )
        } else {
            None
        };
        let kernel = if args.iter().any(|a| a == "--kernel") {
            let v = value_of("--kernel")
                .unwrap_or_else(|| panic!("--kernel requires a value (naive|packed)"));
            NnKernel::parse(&v).unwrap_or_else(|e| panic!("{e}"))
        } else {
            NnKernel::default()
        };
        let search = if args.iter().any(|a| a == "--search") {
            let v = value_of("--search")
                .unwrap_or_else(|| panic!("--search requires a value (rescan|incremental)"));
            SearchStrategy::parse(&v).unwrap_or_else(|e| panic!("{e}"))
        } else {
            SearchStrategy::default()
        };
        let repeats = if args.iter().any(|a| a == "--repeats") {
            value_of("--repeats")
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    panic!("--repeats requires a positive integer value (e.g. --repeats 3)")
                })
        } else {
            3
        };
        let batch_size = if args.iter().any(|a| a == "--batch-size") {
            value_of("--batch-size")
                .and_then(|v| v.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    panic!("--batch-size requires a positive integer value (e.g. --batch-size 16)")
                })
        } else {
            DEFAULT_BATCH_SIZE
        };
        BenchArgs {
            threads,
            fast: args.iter().any(|a| a == "--fast"),
            out,
            kernel,
            search,
            repeats,
            batch_size,
        }
    }

    /// The executor configured by these arguments.
    #[must_use]
    pub fn executor(&self) -> Executor {
        Executor::new(self.threads)
    }

    /// The scenario context configured by these arguments.
    #[must_use]
    pub fn ctx(&self) -> ScenarioCtx {
        ScenarioCtx::new()
            .with_executor(self.executor())
            .with_fast(self.fast)
            .with_kernel(self.kernel)
            .with_search(self.search)
            .with_repeats(self.repeats)
            .with_batch_size(self.batch_size)
    }
}

/// The body of every legacy figure binary: print the banner, parse the
/// legacy flags (unknown flags ignored), run the scenario, print its
/// presentation text, and write any artifacts (`bench_sweep`'s
/// `BENCH_sweep.json`, honouring `--out` as a file path as the old binary
/// did).
///
/// # Panics
///
/// Panics when `id` is not registered, on invalid `--threads`/`--out`
/// values, or when an artifact cannot be written.
pub fn run_legacy(id: &str) {
    let s = scenario::find(id).unwrap_or_else(|| panic!("scenario {id} not registered"));
    banner(s.label(), s.title());
    let args = BenchArgs::parse();
    let result = s.run(&args.ctx());
    print!("{}", result.text());
    for artifact in result.artifacts() {
        let path = args.out.clone().unwrap_or_else(|| artifact.name.clone());
        std::fs::write(&path, &artifact.contents)
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!();
        println!("wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn seed_is_fixed() {
        assert_eq!(super::EXPERIMENT_SEED, 0xDA7E2017);
    }

    #[test]
    fn from_slice_parses_known_flags() {
        let a = BenchArgs::from_slice(&argv(&[
            "--threads",
            "3",
            "--fast",
            "--out",
            "x.json",
            "--kernel",
            "naive",
            "--search",
            "rescan",
            "--repeats",
            "2",
            "--batch-size",
            "4",
        ]));
        assert_eq!(a.threads, 3);
        assert!(a.fast);
        assert_eq!(a.out.as_deref(), Some("x.json"));
        assert_eq!(a.kernel, NnKernel::Naive);
        assert_eq!(a.search, SearchStrategy::Rescan);
        assert_eq!(a.repeats, 2);
        assert_eq!(a.batch_size, 4);
        assert_eq!(a.executor().threads(), 3);
        let ctx = a.ctx();
        assert!(ctx.fast);
        assert_eq!(ctx.kernel, NnKernel::Naive);
        assert_eq!(ctx.search, SearchStrategy::Rescan);
        assert_eq!(ctx.repeats, 2);
        assert_eq!(ctx.batch_size, 4);
    }

    #[test]
    fn from_slice_ignores_unknown_flags() {
        let a = BenchArgs::from_slice(&argv(&["--bogus", "--threads", "2"]));
        assert_eq!(a.threads, 2);
        assert!(!a.fast);
        assert_eq!(a.batch_size, DEFAULT_BATCH_SIZE);
    }

    #[test]
    #[should_panic(expected = "--threads requires a positive integer")]
    fn missing_threads_value_is_fatal() {
        let _ = BenchArgs::from_slice(&argv(&["--threads"]));
    }

    #[test]
    #[should_panic(expected = "--out requires a path value")]
    fn missing_out_value_is_fatal() {
        let _ = BenchArgs::from_slice(&argv(&["--out", "--fast"]));
    }

    #[test]
    #[should_panic(expected = "unknown kernel")]
    fn bad_kernel_value_is_fatal() {
        let _ = BenchArgs::from_slice(&argv(&["--kernel", "turbo"]));
    }

    #[test]
    #[should_panic(expected = "unknown search strategy")]
    fn bad_search_value_is_fatal() {
        let _ = BenchArgs::from_slice(&argv(&["--search", "magic"]));
    }

    #[test]
    #[should_panic(expected = "--repeats requires a positive integer")]
    fn zero_repeats_is_fatal() {
        let _ = BenchArgs::from_slice(&argv(&["--repeats", "0"]));
    }

    #[test]
    #[should_panic(expected = "--batch-size requires a positive integer")]
    fn zero_batch_size_is_fatal() {
        let _ = BenchArgs::from_slice(&argv(&["--batch-size", "0"]));
    }
}
