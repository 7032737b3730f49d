//! The benchmark's workloads: three private-training jobs, each built
//! from the command-line seed through the public crate APIs.
//!
//! | workload | algorithm | model | tables | batch | access |
//! |---|---|---|---|---|---|
//! | `mlperf-lazydp` | LazyDP, ANS on | MLPerf DLRM ÷100 | in memory | 256 | uniform |
//! | `mlperf-dpsgd-f` | eager DP-SGD(F) | MLPerf DLRM ÷1000 | in memory | 64 | uniform |
//! | `rmc2-stored-ckpt` | LazyDP, ANS on | RMC2 ÷1000 | paged, 25% cache | 64 | Zipf 0.9 |
//!
//! Every job feeds its batches through the asynchronous
//! [`PrefetchLoader`] at `nproc` executor threads; the correctness
//! gate's reference configuration instead uses 1 thread, 1 shard,
//! in-memory tables and the synchronous [`LookaheadLoader`].

use lazydp_core::{Checkpoint, CheckpointStore, LazyDpConfig, LazyDpOptimizer};
use lazydp_data::{
    AccessDistribution, FixedBatchLoader, LookaheadLoader, PrefetchLoader, SyntheticConfig,
    SyntheticDataset,
};
use lazydp_dpsgd::{ClipStyle, DpConfig, EagerDpSgd};
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp_model::{Dlrm, DlrmConfig};
use lazydp_privacy::{Mechanism, RdpAccountant};
use lazydp_rng::counter::CounterNoise;
use lazydp_rng::Xoshiro256PlusPlus;
use lazydp_store::{StorageConfig, StoredTable};
use std::io;
use std::path::Path;

/// The training algorithm a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// LazyDP (Algorithm 1) with aggregated noise sampling.
    LazyDp,
    /// Eager DP-SGD with ghost-norm clipping, the paper's baseline.
    EagerDpSgdF,
}

/// How large the jobs are: the measured size, or a few-row copy of the
/// same shapes for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures.
    Full,
    /// Tiny tables and batches with the same structure.
    Smoke,
}

/// Paged-table geometry of a stored workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreSpec {
    /// Rows per page.
    pub page_rows: usize,
    /// Page-cache capacity as a share of each table's pages.
    pub cache_share: f64,
}

/// One workload: what is trained, how, and why it is in the benchmark.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Name given to `--workload`.
    pub name: &'static str,
    /// Why the workload exists (one line, mirrored in `BENCHMARK.json`).
    pub why: &'static str,
    /// Training algorithm.
    pub algo: Algo,
    /// Model shape.
    pub model: DlrmConfig,
    /// Samples per step.
    pub batch: usize,
    /// Zipf exponent of every table's accesses; `None` is uniform.
    pub zipf: Option<f64>,
    /// Paged tables; `None` keeps them in memory.
    pub store: Option<StoreSpec>,
    /// Checkpoint period in steps; `None` never checkpoints.
    pub ckpt_every: Option<usize>,
    /// Whether the sparse state is split into `nproc` shards.
    pub sharded: bool,
    /// Steps of the prefix the correctness gate trains twice.
    pub gate_steps: usize,
    /// Untimed steps before the measured window.
    pub warmup_steps: usize,
}

/// Names of every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["mlperf-lazydp", "mlperf-dpsgd-f", "rmc2-stored-ckpt"];

impl WorkloadSpec {
    /// The workload called `name` at `scale`, or `None` for an unknown name.
    #[must_use]
    pub fn get(name: &str, scale: Scale) -> Option<Self> {
        let smoke = scale == Scale::Smoke;
        let spec = match name {
            "mlperf-lazydp" => Self {
                name: "mlperf-lazydp",
                why: "LazyDP with ANS on MLPerf DLRM/100 in memory: the paper's headline \
                      algorithm, whose step is bound by dense MLP compute and whose finalize \
                      flushes every table",
                algo: Algo::LazyDp,
                model: if smoke {
                    DlrmConfig::mlperf(100_000)
                } else {
                    DlrmConfig::mlperf(100)
                },
                batch: if smoke { 8 } else { 256 },
                zipf: None,
                store: None,
                ckpt_every: None,
                sharded: false,
                gate_steps: if smoke { 2 } else { 3 },
                warmup_steps: 2,
            },
            "mlperf-dpsgd-f" => Self {
                name: "mlperf-dpsgd-f",
                why: "eager DP-SGD(F) on MLPerf DLRM/1000 in memory: the paper's baseline, \
                      which noises and updates every table row each step",
                algo: Algo::EagerDpSgdF,
                model: if smoke {
                    DlrmConfig::mlperf(1_000_000)
                } else {
                    DlrmConfig::mlperf(1000)
                },
                batch: if smoke { 8 } else { 64 },
                zipf: None,
                store: None,
                ckpt_every: None,
                sharded: false,
                gate_steps: if smoke { 2 } else { 3 },
                warmup_steps: 2,
            },
            "rmc2-stored-ckpt" => Self {
                name: "rmc2-stored-ckpt",
                why: "LazyDP on RMC2/1000 with paged tables (25% page cache, Zipf 0.9) and a \
                      checkpoint every 5 steps: bound by embedding gathers and the page cache",
                algo: Algo::LazyDp,
                model: if smoke {
                    DlrmConfig::rmc2(1_000_000).with_table_rows(vec![256; 4])
                } else {
                    DlrmConfig::rmc2(1000)
                },
                batch: if smoke { 8 } else { 64 },
                zipf: Some(0.9),
                store: Some(StoreSpec {
                    page_rows: if smoke { 16 } else { 64 },
                    cache_share: 0.25,
                }),
                ckpt_every: Some(if smoke { 2 } else { 5 }),
                sharded: true,
                gate_steps: if smoke { 2 } else { 5 },
                warmup_steps: 2,
            },
            _ => return None,
        };
        Some(spec)
    }

    /// Synthetic dataset of this workload for `seed`. Samples are
    /// generated lazily, so its length costs no memory.
    #[must_use]
    pub fn dataset(&self, seed: u64) -> SyntheticDataset {
        let rows = &self.model.table_rows;
        let distributions = rows
            .iter()
            .map(|&r| match self.zipf {
                Some(s) => AccessDistribution::zipf(r, s),
                None => AccessDistribution::uniform(r),
            })
            .collect();
        SyntheticDataset::new(SyntheticConfig {
            num_dense: self.model.num_dense,
            table_rows: rows.clone(),
            pooling: self.model.pooling,
            num_samples: self.batch * DATASET_BATCHES,
            distributions,
            seed: seed ^ 0x5eed_da7a,
        })
    }

    /// Poisson sampling rate used for privacy accounting.
    #[must_use]
    pub fn sampling_rate(&self) -> f64 {
        1.0 / DATASET_BATCHES as f64
    }

    /// The DP hyper-parameters (paper defaults: σ = 1.1, C = 1, η = 0.05).
    #[must_use]
    pub fn dp(&self, threads: usize, shards: usize) -> DpConfig {
        DpConfig::paper_default(self.batch)
            .with_threads(threads)
            .with_shards(shards)
    }

    /// Page-cache configuration of a stored workload, spilling under `dir`.
    #[must_use]
    pub fn storage(&self, dir: &Path) -> Option<StorageConfig> {
        self.store.map(|s| {
            let rows = self.model.table_rows.iter().copied().max().unwrap_or(1) as usize;
            let pages = rows.div_ceil(s.page_rows);
            let cache = ((pages as f64 * s.cache_share).ceil() as usize).max(1);
            StorageConfig::new()
                .with_page_rows(s.page_rows)
                .with_cache_pages(cache)
                .with_spill_dir(dir)
        })
    }
}

/// Batches in each synthetic dataset; the sampling rate is its inverse.
const DATASET_BATCHES: usize = 4096;

/// The DP noise source of a run.
#[must_use]
pub fn noise(seed: u64) -> CounterNoise {
    CounterNoise::new(seed ^ 0x0015_e5ee_d000)
}

/// The model of a run, initialised from `seed`.
#[must_use]
pub fn init_model(spec: &WorkloadSpec, seed: u64) -> Dlrm {
    let mut rng = Xoshiro256PlusPlus::seed_from(seed);
    Dlrm::new(spec.model.clone(), &mut rng)
}

/// Captures a checkpoint of a job's model and optimizer.
pub type CaptureFn<O, T> = fn(&Dlrm<T>, &O) -> Checkpoint;

/// Where and how often a job checkpoints.
#[derive(Debug)]
pub struct Ckpt<O, T: EmbeddingStorage> {
    /// Steps between checkpoints.
    pub every: usize,
    /// The store checkpoints are published to.
    pub store: CheckpointStore,
    /// Capture of the job's state.
    pub capture: CaptureFn<O, T>,
}

/// A private-training job: the state `PrivateTrainer` owns, held here
/// so each call its training loop makes can be timed from outside.
#[derive(Debug)]
pub struct Job<L, O, T: EmbeddingStorage> {
    /// The model being trained.
    pub model: Dlrm<T>,
    /// The training algorithm.
    pub opt: O,
    /// The lookahead input pipeline.
    pub loader: L,
    /// Privacy accountant charged once per step.
    pub accountant: RdpAccountant,
    /// The mechanism each step releases.
    pub mechanism: Mechanism,
    /// Sampling rate charged per step.
    pub q: f64,
    /// Checkpointing, if the workload checkpoints.
    pub ckpt: Option<Ckpt<O, T>>,
}

/// LazyDP with the workload's measured configuration.
pub type LazyJob<T> = Job<PrefetchLoader, LazyDpOptimizer<CounterNoise>, T>;
/// Eager DP-SGD(F) with the workload's measured configuration.
pub type EagerJob = Job<PrefetchLoader, EagerDpSgd<CounterNoise>, EmbeddingTable>;
/// LazyDP in the gate's reference configuration.
pub type LazyRefJob =
    Job<LookaheadLoader<FixedBatchLoader>, LazyDpOptimizer<CounterNoise>, EmbeddingTable>;
/// Eager DP-SGD(F) in the gate's reference configuration.
pub type EagerRefJob =
    Job<LookaheadLoader<FixedBatchLoader>, EagerDpSgd<CounterNoise>, EmbeddingTable>;

fn gaussian(dp: &DpConfig) -> Mechanism {
    Mechanism::Gaussian {
        sigma: dp.noise_multiplier,
    }
}

fn job<L, O, T: EmbeddingStorage>(
    spec: &WorkloadSpec,
    model: Dlrm<T>,
    opt: O,
    loader: L,
    dp: &DpConfig,
) -> Job<L, O, T> {
    Job {
        model,
        opt,
        loader,
        accountant: RdpAccountant::new(),
        mechanism: gaussian(dp),
        q: spec.sampling_rate(),
        ckpt: None,
    }
}

/// Run-wide settings a job is built with.
#[derive(Debug, Clone)]
pub struct RunConfig<'a> {
    /// The workload seed.
    pub seed: u64,
    /// Executor width.
    pub threads: usize,
    /// Directory for spill files.
    pub spill_dir: &'a Path,
    /// Directory for checkpoints, used by checkpointing workloads.
    pub ckpt_dir: &'a Path,
}

/// LazyDP job with in-memory tables (measured configuration).
#[must_use]
pub fn lazy_memory(spec: &WorkloadSpec, rc: &RunConfig) -> LazyJob<EmbeddingTable> {
    let shards = if spec.sharded { rc.threads } else { 1 };
    let dp = spec.dp(rc.threads, shards);
    let model = init_model(spec, rc.seed);
    let loader = PrefetchLoader::new(FixedBatchLoader::new(spec.dataset(rc.seed), spec.batch));
    let opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, noise(rc.seed));
    job(spec, model, opt, loader, &dp)
}

/// LazyDP job with paged tables and checkpoints (measured configuration).
///
/// # Errors
///
/// Propagates spill-file and checkpoint-directory I/O errors.
pub fn lazy_stored(spec: &WorkloadSpec, rc: &RunConfig) -> io::Result<LazyJob<StoredTable>> {
    let shards = if spec.sharded { rc.threads } else { 1 };
    let dp = spec.dp(rc.threads, shards);
    let storage = spec
        .storage(rc.spill_dir)
        .expect("stored workload has a page geometry");
    let model = init_model(spec, rc.seed)
        .try_map_tables(|_, t| StoredTable::from_dense(&t, &storage))
        .map_err(io::Error::other)?;
    let loader = PrefetchLoader::new(FixedBatchLoader::new(spec.dataset(rc.seed), spec.batch));
    let cfg = LazyDpConfig::new(dp, true).with_storage(storage);
    let opt = LazyDpOptimizer::new(cfg, &model, noise(rc.seed));
    let mut j = job(spec, model, opt, loader, &dp);
    if let Some(every) = spec.ckpt_every {
        let store = CheckpointStore::open(rc.ckpt_dir).map_err(io::Error::other)?;
        j.ckpt = Some(Ckpt {
            every,
            store,
            capture: |m, o| Checkpoint::capture(m, o),
        });
    }
    Ok(j)
}

/// Eager DP-SGD(F) job (measured configuration).
#[must_use]
pub fn eager(spec: &WorkloadSpec, rc: &RunConfig) -> EagerJob {
    let dp = spec.dp(rc.threads, 1);
    let model = init_model(spec, rc.seed);
    let loader = PrefetchLoader::new(FixedBatchLoader::new(spec.dataset(rc.seed), spec.batch));
    let opt = EagerDpSgd::new(dp, ClipStyle::Fast, noise(rc.seed));
    job(spec, model, opt, loader, &dp)
}

/// LazyDP in the reference configuration: 1 thread, 1 shard, in-memory
/// tables, synchronous loader.
#[must_use]
pub fn lazy_reference(spec: &WorkloadSpec, seed: u64) -> LazyRefJob {
    let dp = spec.dp(1, 1);
    let model = init_model(spec, seed);
    let loader = LookaheadLoader::new(FixedBatchLoader::new(spec.dataset(seed), spec.batch));
    let opt = LazyDpOptimizer::new(LazyDpConfig::new(dp, true), &model, noise(seed));
    job(spec, model, opt, loader, &dp)
}

/// Eager DP-SGD(F) in the reference configuration.
#[must_use]
pub fn eager_reference(spec: &WorkloadSpec, seed: u64) -> EagerRefJob {
    let dp = spec.dp(1, 1);
    let model = init_model(spec, seed);
    let loader = LookaheadLoader::new(FixedBatchLoader::new(spec.dataset(seed), spec.batch));
    let opt = EagerDpSgd::new(dp, ClipStyle::Fast, noise(seed));
    job(spec, model, opt, loader, &dp)
}
