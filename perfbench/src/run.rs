//! One benchmark run: set-up, warm-up, the measured window(s), release,
//! the per-layer breakdown (traced runs) and the correctness gate.
//!
//! With `trace = false` the run reports end-to-end metrics measured in
//! the default `counters` obs mode. With `trace = true` it first trains
//! half the time in `counters` mode, then half in `trace` mode, and
//! reports per-layer metrics from the traced half: span self times,
//! registry deltas (`capture_metrics().delta_since(..)`), optimizer
//! work counters, and — for eager DP-SGD, which has no spans of its
//! own — replays of its layers' public functions on the workload's
//! real shapes.

use crate::gate::{self, GateReport};
use crate::host::ScratchDir;
use crate::job::{Release, Window};
use crate::metrics::{median, tail, Metrics};
use crate::spans;
use crate::workload::{self, Algo, Job, RunConfig, Scale, WorkloadSpec};
use lazydp_core::AccountedOptimizer;
use lazydp_data::LookaheadSource;
use lazydp_dpsgd::clip::clip_weights_into;
use lazydp_dpsgd::{par_dense_noisy_update, KernelCounters};
use lazydp_embedding::{EmbeddingStorage, EmbeddingTable};
use lazydp_model::Dlrm;
use lazydp_obs::clock::now_ns;
use lazydp_obs::snapshot::capture_metrics;
use lazydp_obs::{MetricsSnapshot, ObsMode};
use lazydp_rng::RowNoise;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

/// End-to-end runs time at least this many set-ups, and keep going
/// until [`SETUP_BUDGET_S`] seconds or [`MAX_SETUPS`] set-ups;
/// `setup_s` is their median.
pub const MIN_SETUPS: usize = 5;
/// Set-up time after which an end-to-end run stops adding set-ups.
pub const SETUP_BUDGET_S: f64 = 2.0;
/// Most set-ups one run times.
pub const MAX_SETUPS: usize = 15;

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload name.
    pub workload: String,
    /// Seed of the model init, the dataset and the noise.
    pub seed: u64,
    /// Length of the measured training, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
    /// Job sizes.
    pub scale: Scale,
    /// Where the trace file and run report go; scratch space is made
    /// and removed under it.
    pub out_dir: PathBuf,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: steps, checkpoint saves, the release and
    /// the gate.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The reported metrics.
    pub metrics: Metrics,
    /// Traced runs only: the end-to-end metrics of the run's
    /// counters-mode half, printed for reading but not reported.
    pub end_to_end: Option<Metrics>,
    /// The correctness gate's findings.
    pub gate: GateReport,
    /// Human-readable lines describing the run.
    pub notes: Vec<String>,
    /// The chrome trace, for traced runs.
    pub trace_file: Option<PathBuf>,
}

/// Runs the workload `opts` names.
///
/// # Errors
///
/// Unknown workload, or a set-up that could not build its job.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let spec = WorkloadSpec::get(&opts.workload, opts.scale)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let threads = lazydp_exec::available_threads();
    lazydp_exec::set_global_threads(threads);
    lazydp_obs::set_mode(ObsMode::Counters);
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("creating out dir: {e}"))?;
    let scratch = ScratchDir::create(&opts.out_dir).map_err(|e| format!("scratch dir: {e}"))?;
    let faults0 = capture_metrics();
    let ctx = Ctx {
        spec: &spec,
        opts,
        threads,
        scratch: &scratch,
    };
    let mut out = match (spec.algo, spec.store.is_some()) {
        (Algo::LazyDp, false) => ctx.measure(
            |rc| Ok(workload::lazy_memory(&spec, rc)),
            |_| None,
            || workload::lazy_reference(&spec, opts.seed),
        ),
        (Algo::LazyDp, true) => ctx.measure(
            |rc| workload::lazy_stored(&spec, rc),
            |_| None,
            || workload::lazy_reference(&spec, opts.seed),
        ),
        (Algo::EagerDpSgdF, _) => ctx.measure(
            |rc| Ok(workload::eager(&spec, rc)),
            |job| Some(replay_eager(job, &spec, opts.seed, threads)),
            || workload::eager_reference(&spec, opts.seed),
        ),
    }?;
    let faults = capture_metrics().delta_since(&faults0);
    for (name, v) in &faults.counters {
        if name.starts_with("fault.") && *v != 0 {
            out.failed += 1;
            out.correct = false;
            out.notes
                .push(format!("FAIL: {name} moved by {v} during the run"));
        }
    }
    if !out.metrics.all_finite() {
        out.correct = false;
        out.notes
            .push("FAIL: a metric is not a finite number".to_string());
    }
    Ok(out)
}

/// Per-step layer times of eager DP-SGD(F), replayed outside the loop.
#[derive(Debug, Clone, Copy)]
struct EagerLayers {
    forward_ms: f64,
    backward_clip_ms: f64,
    dense_noise_ms: f64,
}

struct Ctx<'a> {
    spec: &'a WorkloadSpec,
    opts: &'a Options,
    threads: usize,
    scratch: &'a ScratchDir,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn mkdir(path: &Path) -> io::Result<PathBuf> {
    std::fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}

impl Ctx<'_> {
    fn run_config<'p>(&self, spill: &'p Path, ckpt: &'p Path) -> RunConfig<'p> {
        RunConfig {
            seed: self.opts.seed,
            threads: self.threads,
            spill_dir: spill,
            ckpt_dir: ckpt,
        }
    }

    fn measure<L, O, T, LR, OR>(
        &self,
        build: impl Fn(&RunConfig) -> io::Result<Job<L, O, T>>,
        replay: impl FnOnce(&mut Job<L, O, T>) -> Option<EagerLayers>,
        reference: impl FnOnce() -> Job<LR, OR, EmbeddingTable>,
    ) -> Result<Outcome, String>
    where
        L: LookaheadSource,
        O: AccountedOptimizer<T>,
        T: EmbeddingStorage,
        LR: LookaheadSource,
        OR: AccountedOptimizer<EmbeddingTable>,
    {
        let spec = self.spec;
        let io_err = |e: io::Error| format!("set-up failed: {e}");
        let spill = mkdir(&self.scratch.sub("spill")).map_err(io_err)?;
        let mut notes = vec![format!(
            "workload {}: seed {}, {} threads, batch {}, {} tables, {:.1} MB of tables",
            spec.name,
            self.opts.seed,
            self.threads,
            spec.batch,
            spec.model.num_tables(),
            spec.model.embedding_bytes() as f64 / 1e6
        )];

        // Set-up, timed from job start to the first step. End-to-end
        // runs build the job several times and keep the last build.
        let (min, max) = if self.opts.trace {
            (1, 1)
        } else {
            (MIN_SETUPS, MAX_SETUPS)
        };
        let mut setup_s: Vec<f64> = Vec::new();
        let mut spent = 0.0;
        let mut job = None;
        for i in 0..max {
            if i >= min && spent >= SETUP_BUDGET_S {
                break;
            }
            drop(job.take());
            let ckpt = self.scratch.sub(&format!("ckpt-{i}"));
            let rc = self.run_config(&spill, &ckpt);
            let t0 = now_ns();
            let built = build(&rc).map_err(io_err)?;
            let secs = (now_ns() - t0) as f64 / 1e9;
            spent += secs;
            setup_s.push(secs);
            job = Some(built);
        }
        let mut job = job.expect("at least one set-up");
        let mut attempted = 0u64;
        let mut failed = 0u64;
        attempted += job
            .train(spec.warmup_steps)
            .map_err(|e| format!("warm-up: {e}"))?;

        let mut metrics = Metrics::default();
        let mut trace_file = None;
        let (window, release) = if self.opts.trace {
            let plain = job.window(self.opts.seconds / 2.0);
            let _ = lazydp_obs::trace::take_trace_events();
            lazydp_obs::set_mode(ObsMode::Trace);
            let traced = job.window(self.opts.seconds / 2.0);
            let release = job.release();
            let events = lazydp_obs::trace::take_trace_events();
            lazydp_obs::set_mode(ObsMode::Counters);
            let spans = spans::link(&events);
            let path = self
                .opts
                .out_dir
                .join(format!("trace-{}-seed{}.json", spec.name, self.opts.seed));
            match spans::write_chrome_trace(&path, &spans) {
                Ok(()) => trace_file = Some(path),
                Err(e) => notes.push(format!("could not write the trace: {e}")),
            }
            let eager = replay(&mut job);
            for w in [&plain, &traced] {
                attempted += w.attempted;
                failed += w.failed;
            }
            self.per_layer(
                &mut metrics,
                &mut notes,
                &plain,
                &traced,
                &spans,
                &release,
                eager,
            );
            (plain, release)
        } else {
            let w = job.window(self.opts.seconds);
            attempted += w.attempted;
            failed += w.failed;
            (w, job.release())
        };
        let peak_rss = crate::host::peak_rss_mb().unwrap_or(0.0);
        attempted += 1;
        if release.digest.non_finite > 0 || !release.reads_agree {
            failed += 1;
            notes.push(format!(
                "FAIL: {} released weights are not finite; repeated reads agree: {}",
                release.digest.non_finite, release.reads_agree
            ));
        }
        let mut failures = Vec::new();
        if let Err(e) = gate::check_epsilon(&job) {
            failures.push(format!("measured run: {e}"));
        }
        drop(job);

        let gate = self.gate(&build, reference, failures);
        attempted += 1;
        if !gate.passed() {
            failed += 1;
        }
        notes.push(format!(
            "gate: prefix of {} steps, released digest {} (reference {}), eps {:.6} at delta {}, \
             eval loss {:.6}",
            spec.gate_steps,
            gate.measured.hex(),
            gate.reference.hex(),
            gate.epsilon,
            gate::DELTA,
            gate.eval_loss
        ));
        for f in &gate.failures {
            notes.push(format!("FAIL: {f}"));
        }
        let mut e2e = Metrics::default();
        self.end_to_end(&mut e2e, &mut notes, &window, &setup_s, &release, peak_rss);
        let end_to_end = if self.opts.trace {
            Some(e2e)
        } else {
            metrics = e2e;
            None
        };
        Ok(Outcome {
            correct: failed == 0,
            attempted,
            failed,
            metrics,
            end_to_end,
            gate,
            notes,
            trace_file,
        })
    }

    fn end_to_end(
        &self,
        metrics: &mut Metrics,
        notes: &mut Vec<String>,
        w: &Window,
        setup_s: &[f64],
        release: &Release,
        peak_rss_mb: f64,
    ) {
        let steps: Vec<f64> = w.steps.iter().map(|s| ms(s.total_ns)).collect();
        let (tail_ms, pct, n) = tail(&steps, 10);
        metrics.set(
            "samples_per_s",
            w.samples() as f64 / (w.loop_ns as f64 / 1e9),
        );
        metrics.set("step_ms_p50", median(&steps));
        metrics.set("step_ms_tail", tail_ms);
        metrics.set("setup_s", median(setup_s));
        metrics.set(
            "finalize_s",
            (release.finalize_ns + release.verify_ns) as f64 / 1e9,
        );
        metrics.set("peak_rss_mb", peak_rss_mb);
        notes.push(format!(
            "window: {n} steps, {} checkpoints, {:.2} s; step_ms_tail is p{pct:.1} of {n} steps; \
             setups {setup_s:.3?} s; finalize {:.3} s + verified read {:.3} s",
            w.ckpts.len(),
            w.loop_ns as f64 / 1e9,
            ms(release.finalize_ns) / 1e3,
            ms(release.verify_ns) / 1e3,
        ));
    }

    #[allow(clippy::too_many_arguments)]
    fn per_layer(
        &self,
        metrics: &mut Metrics,
        notes: &mut Vec<String>,
        plain: &Window,
        traced: &Window,
        spans: &[spans::Span],
        release: &Release,
        eager: Option<EagerLayers>,
    ) {
        let steps = traced.steps.len().max(1) as f64;
        let st = spans::self_times(spans);
        let per_step_ms = |names: &[&str]| -> f64 {
            let mut ns = 0u64;
            for n in names {
                ns += st.get(n).copied().unwrap_or(0);
            }
            ns as f64 / 1e6 / steps
        };
        let delta = traced.after.delta_since(&traced.before);
        let per_step = |name: &str| delta.counter(name) as f64 / steps;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

        let advance_ms = per_step_ms(&["bench.data_advance"]);
        let (forward_ms, backward_ms, noise_ms) = match eager {
            Some(e) => (e.forward_ms, e.backward_clip_ms, e.dense_noise_ms),
            None => (
                per_step_ms(&["step.forward"]),
                per_step_ms(&["step.backward_clip"]),
                per_step_ms(&["step.dense_update"]),
            ),
        };
        let flush_ms = per_step_ms(&["step.flush_overlap", "step.flush_seq"]);
        let sparse_ms = per_step_ms(&["step.sparse_update"]);
        let compose_ms = per_step_ms(&["bench.privacy_compose"]);
        let traced_ms: Vec<f64> = traced.steps.iter().map(|s| ms(s.total_ns)).collect();
        let step_ms = crate::metrics::mean(&traced_ms);
        let dim = self.spec.model.embedding_dim;

        metrics.set("data.advance_ms", advance_ms);
        metrics.set("data.producer_stalls", per_step("data.producer_stalls"));
        metrics.set("model.forward_ms", forward_ms);
        metrics.set("model.backward_clip_ms", backward_ms);
        metrics.set("dpsgd.dense_noise_ms", noise_ms);
        metrics.set(
            "rng.fill_msamples_per_s",
            rng_fill_rate(self.opts.seed, dim),
        );
        metrics.set(
            "rng.samples_per_step",
            traced.work.gaussian_samples as f64 / steps,
        );
        metrics.set("core.flush_ms", flush_ms);
        metrics.set(
            "core.noise_plan_rows_per_step",
            per_step("trainer.noise_plan_rows"),
        );
        metrics.set(
            "core.pending_depth_mean",
            histogram_mean(&traced.before, &traced.after, "trainer.pending_depth"),
        );
        metrics.set("core.finalize_rows", release.finalize_rows as f64);
        let ck = |f: fn(&crate::job::CkptRecord) -> u64| -> f64 {
            let xs: Vec<f64> = traced.ckpts.iter().map(|c| f(c) as f64).collect();
            median(&xs)
        };
        metrics.set("core.ckpt_capture_ms", ck(|c| c.capture_ns) / 1e6);
        metrics.set("core.ckpt_save_ms", ck(|c| c.save_ns) / 1e6);
        metrics.set("core.ckpt_bytes", ck(|c| c.bytes));
        metrics.set("embedding.sparse_update_ms", sparse_ms);
        metrics.set(
            "embedding.rows_written_per_step",
            traced.work.table_rows_written as f64 / steps,
        );
        let hits = delta.counter("store.hits");
        let misses = delta.counter("store.misses");
        metrics.set("store.hit_rate", ratio(hits, hits + misses));
        metrics.set("store.misses_per_step", per_step("store.misses"));
        metrics.set("store.evictions_per_step", per_step("store.evictions"));
        metrics.set("store.write_backs_per_step", per_step("store.write_backs"));
        metrics.set(
            "store.mb_loaded_per_step",
            per_step("store.bytes_loaded") / 1e6,
        );
        metrics.set(
            "store.mb_spilled_per_step",
            per_step("store.bytes_spilled") / 1e6,
        );
        metrics.set("exec.par_regions_per_step", per_step("exec.par_regions"));
        metrics.set(
            "exec.chunks_per_region_mean",
            ratio(
                delta.counter("exec.par_chunks"),
                delta.counter("exec.par_regions"),
            ),
        );
        metrics.set("privacy.compose_us", compose_ms * 1e3);
        let p50 = |w: &Window| {
            let xs: Vec<f64> = w.steps.iter().map(|s| ms(s.total_ns)).collect();
            median(&xs)
        };
        let (plain_p50, traced_p50) = (p50(plain), p50(traced));
        metrics.set(
            "bench.trace_overhead_pct",
            100.0 * (traced_p50 / plain_p50 - 1.0),
        );
        let layers = [
            ("data.advance", advance_ms),
            ("model.forward", forward_ms),
            ("model.backward_clip", backward_ms),
            ("dpsgd.dense_noise", noise_ms),
            ("core.flush", flush_ms),
            ("embedding.sparse_update", sparse_ms),
            ("privacy.compose", compose_ms),
        ];
        let mut covered = 0.0;
        for (_, v) in &layers {
            covered += v;
        }
        metrics.set("bench.layer_coverage_pct", 100.0 * covered / step_ms);
        let mut split = format!("layer split of the {step_ms:.2} ms traced step:");
        for (name, v) in &layers {
            split.push_str(&format!(" {name} {:.1}%", 100.0 * v / step_ms));
        }
        notes.push(split);
        notes.push(format!(
            "traced window: {} steps (p50 {traced_p50:.3} ms); counters window: {} steps \
             (p50 {plain_p50:.3} ms){}",
            traced.steps.len(),
            plain.steps.len(),
            if eager.is_some() {
                "; eager forward/backward/noise replayed on the released model"
            } else {
                ""
            }
        ));
    }

    fn gate<L, O, T, LR, OR>(
        &self,
        build: impl Fn(&RunConfig) -> io::Result<Job<L, O, T>>,
        reference: impl FnOnce() -> Job<LR, OR, EmbeddingTable>,
        mut failures: Vec<String>,
    ) -> GateReport
    where
        L: LookaheadSource,
        O: AccountedOptimizer<T>,
        T: EmbeddingStorage,
        LR: LookaheadSource,
        OR: AccountedOptimizer<EmbeddingTable>,
    {
        let k = self.spec.gate_steps;
        let spill = self.scratch.sub("gate-spill");
        let ckpt = self.scratch.sub("gate-ckpt");
        let measured = catch_unwind(AssertUnwindSafe(|| -> Result<_, String> {
            mkdir(&spill).map_err(|e| e.to_string())?;
            let mut job = build(&self.run_config(&spill, &ckpt)).map_err(|e| e.to_string())?;
            job.train(k)?;
            let eps = gate::check_epsilon(&job).map_err(|e| format!("measured prefix: {e}"));
            Ok((job.release(), eps))
        }));
        lazydp_exec::set_global_threads(1);
        let reference = catch_unwind(AssertUnwindSafe(|| {
            let mut job = reference();
            job.train(k).map(|_| ())?;
            let eps = gate::check_epsilon(&job).map_err(|e| format!("reference prefix: {e}"));
            let release = job.release();
            if !release.reads_agree {
                return Err("reference release: repeated reads disagree".to_string());
            }
            let digest = release.digest;
            let ds = self.spec.dataset(self.opts.seed);
            let n = ds.len();
            let ids: Vec<usize> = (n - (4 * self.spec.batch).min(n)..n).collect();
            let loss = job.model.loss(&ds.batch_of(&ids));
            Ok::<_, String>((digest, eps, loss))
        }));
        lazydp_exec::set_global_threads(self.threads);
        let panicked = |what: &str| format!("{what} run panicked");
        let (m_release, m_eps) = match measured {
            Ok(Ok((release, eps))) => (Some(release), eps),
            Ok(Err(e)) => (None, Err(format!("measured run: {e}"))),
            Err(_) => (None, Err(panicked("measured"))),
        };
        let m_digest = m_release.map_or_else(gate::Digest::empty, |r| r.digest);
        if m_release.is_some_and(|r| !r.reads_agree) {
            failures.push("measured release: repeated reads disagree".to_string());
        }
        let (r_digest, r_eps, loss) = match reference {
            Ok(Ok(v)) => v,
            Ok(Err(e)) => (m_digest, Err(format!("reference run: {e}")), f64::NAN),
            Err(_) => (m_digest, Err(panicked("reference")), f64::NAN),
        };
        for eps in [&m_eps, &r_eps] {
            if let Err(e) = eps {
                failures.push(e.clone());
            }
        }
        if let Err(e) = gate::compare(&m_digest, &r_digest) {
            failures.push(e);
        }
        GateReport {
            measured: m_digest,
            reference: r_digest,
            epsilon: m_eps.unwrap_or(f64::NAN),
            eval_loss: loss,
            failures,
        }
    }
}

/// Mean of a registry histogram over a window.
fn histogram_mean(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let (Some(a), Some(b)) = (after.histogram(name), before.histogram(name)) else {
        return 0.0;
    };
    let count = a.count().saturating_sub(b.count());
    if count == 0 {
        0.0
    } else {
        a.sum.saturating_sub(b.sum) as f64 / count as f64
    }
}

/// Throughput of the noise source's fill on rows of `dim`, in
/// Msamples/s: the median of three passes of about 4 M samples.
fn rng_fill_rate(seed: u64, dim: usize) -> f64 {
    let mut noise = workload::noise(seed);
    let mut buf = vec![0.0f32; dim];
    let rows = (4_000_000 / dim).max(1) as u64;
    let mut rates = Vec::new();
    for pass in 0..3 {
        let t0 = now_ns();
        for r in 0..rows {
            noise.fill_unit(0, r, pass, &mut buf);
            std::hint::black_box(&buf);
        }
        let secs = (now_ns() - t0) as f64 / 1e9;
        rates.push((rows * dim as u64) as f64 / secs / 1e6);
    }
    median(&rates)
}

/// Replays eager DP-SGD(F)'s layers on the released model with the
/// workload's real shapes: `Dlrm::forward`, `Dlrm::backward_clipped`,
/// and the dense noise (MLP noise plus `par_dense_noisy_update` over
/// every table). Median of three replays, in ms.
fn replay_eager<L>(
    job: &mut Job<L, lazydp_dpsgd::EagerDpSgd<lazydp_rng::counter::CounterNoise>, EmbeddingTable>,
    spec: &WorkloadSpec,
    seed: u64,
    threads: usize,
) -> EagerLayers {
    let ds = spec.dataset(seed);
    let ids: Vec<usize> = (0..spec.batch).collect();
    let batch = ds.batch_of(&ids);
    let dp = *job.opt.config();
    let std = dp.noise_std_per_coord();
    let mut noise = workload::noise(seed);
    let mut counters = KernelCounters::new();
    let mut buf = Vec::new();
    let (mut fw, mut bw, mut nz) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..3u64 {
        let iter = 1_000_000 + rep;
        let model = &mut job.model;
        let t0 = now_ns();
        let cache = model.forward(&batch);
        let t1 = now_ns();
        let logit_g = Dlrm::logit_grads(&cache, &batch.labels, false);
        let t2 = now_ns();
        let mut update = model.backward_clipped(&cache, &batch, &logit_g, |n, w| {
            clip_weights_into(n, dp.max_grad_norm, w);
        });
        let t3 = now_ns();
        update.scale(1.0 / dp.nominal_batch as f32);
        let _ = update.coalesce();
        let t4 = now_ns();
        model
            .bottom
            .apply_dense_noise_with(&mut noise, iter, 0, std, dp.lr, &mut buf);
        model
            .top
            .apply_dense_noise_with(&mut noise, iter, 64, std, dp.lr, &mut buf);
        for (t, (table, g)) in model
            .tables
            .iter_mut()
            .zip(update.tables.iter())
            .enumerate()
        {
            par_dense_noisy_update(
                t as u32,
                table,
                g,
                &noise,
                iter,
                std,
                dp.lr,
                threads,
                &mut counters,
            );
        }
        let t5 = now_ns();
        fw.push(ms(t1 - t0));
        bw.push(ms(t3 - t2));
        nz.push(ms(t5 - t4));
    }
    EagerLayers {
        forward_ms: median(&fw),
        backward_clip_ms: median(&bw),
        dense_noise_ms: median(&nz),
    }
}
