//! The closed training loop: one trainer runs one step at a time and
//! waits for it, making the calls `PrivateTrainer::train_steps` makes
//! and timing each from outside.
//!
//! Every call is also wrapped in a `lazydp_obs` span, so under
//! `LAZYDP_OBS=trace` the benchmark's spans and the program's own
//! (`step.forward`, `step.sparse_update`, …) land on one timeline.

use crate::gate::{digest, Digest};
use crate::workload::Job;
use lazydp_core::AccountedOptimizer;
use lazydp_data::LookaheadSource;
use lazydp_dpsgd::KernelCounters;
use lazydp_embedding::EmbeddingStorage;
use lazydp_obs::clock::now_ns;
use lazydp_obs::snapshot::capture_metrics;
use lazydp_obs::MetricsSnapshot;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Nanosecond timings of one step, split by the call that took them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StepRecord {
    /// Whole step: advance through compose.
    pub total_ns: u64,
    /// `LookaheadSource::advance`, including the batch copies.
    pub advance_ns: u64,
    /// `Optimizer::step`.
    pub step_ns: u64,
    /// `LookaheadSource::finish_iteration`.
    pub finish_ns: u64,
    /// `RdpAccountant::compose_mechanism`.
    pub compose_ns: u64,
    /// Samples in the step's batch.
    pub samples: u64,
}

/// One checkpoint: capture and publish timings and the bytes published.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CkptRecord {
    /// `Checkpoint::capture`.
    pub capture_ns: u64,
    /// `CheckpointStore::save`.
    pub save_ns: u64,
    /// Size of the published checkpoint file.
    pub bytes: u64,
}

/// A measured stretch of training.
#[derive(Debug, Clone)]
pub struct Window {
    /// Every completed step, in order.
    pub steps: Vec<StepRecord>,
    /// Every checkpoint taken.
    pub ckpts: Vec<CkptRecord>,
    /// Wall time of the whole loop, checkpoints and waits included.
    pub loop_ns: u64,
    /// Operations attempted (steps and checkpoint saves).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Registry counters over the window.
    pub before: MetricsSnapshot,
    /// Registry counters after the window.
    pub after: MetricsSnapshot,
    /// Optimizer work counters over the window.
    pub work: KernelCounters,
}

impl Window {
    /// Samples trained in the window.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.steps.iter().map(|s| s.samples).sum()
    }
}

/// Passes over the released weights a release makes.
pub const VERIFY_READS: usize = 3;

/// The release of a trained model: finalize, then one verified read of
/// every weight (digest and finiteness).
#[derive(Debug, Clone, Copy)]
pub struct Release {
    /// `Optimizer::finalize`.
    pub finalize_ns: u64,
    /// One verified read of the released weights (median of
    /// [`VERIFY_READS`]).
    pub verify_ns: u64,
    /// Digest of the released model.
    pub digest: Digest,
    /// Whether every read produced the same digest.
    pub reads_agree: bool,
    /// `trainer.finalize_rows` over the finalize.
    pub finalize_rows: u64,
}

impl<L, O, T> Job<L, O, T>
where
    L: LookaheadSource,
    O: AccountedOptimizer<T>,
    T: EmbeddingStorage,
{
    /// One closed-loop step, timed call by call.
    pub fn step(&mut self) -> StepRecord {
        lazydp_obs::span!("bench.step");
        let t0 = now_ns();
        let (cur, next) = {
            lazydp_obs::span!("bench.data_advance");
            let (cur, next) = self.loader.advance();
            (cur.clone(), next.clone())
        };
        let t1 = now_ns();
        {
            lazydp_obs::span!("bench.optimizer_step");
            let _ = self.opt.step(&mut self.model, &cur, Some(&next));
        }
        let t2 = now_ns();
        {
            lazydp_obs::span!("bench.finish_iteration");
            let _ = self.loader.finish_iteration();
        }
        let t3 = now_ns();
        {
            lazydp_obs::span!("bench.privacy_compose");
            self.accountant
                .compose_mechanism(&self.mechanism, self.q, 1);
            lazydp_obs::metrics().privacy.compositions.incr();
        }
        let t4 = now_ns();
        StepRecord {
            total_ns: t4 - t0,
            advance_ns: t1 - t0,
            step_ns: t2 - t1,
            finish_ns: t3 - t2,
            compose_ns: t4 - t3,
            samples: cur.batch_size() as u64,
        }
    }

    /// Trains `n` untimed steps (warm-up and the gate's prefix),
    /// checkpointing on schedule. Returns the operations attempted.
    ///
    /// # Errors
    ///
    /// Reports the first failed checkpoint save.
    pub fn train(&mut self, n: usize) -> Result<u64, String> {
        let period = self.ckpt.as_ref().map_or(usize::MAX, |c| c.every);
        let mut ops = 0;
        for i in 1..=n {
            let _ = self.step();
            ops += 1;
            if i % period == 0 {
                if let Some(res) = self.checkpoint() {
                    ops += 1;
                    res?;
                }
            }
        }
        Ok(ops)
    }

    /// Captures and publishes one checkpoint, if the job checkpoints.
    fn checkpoint(&mut self) -> Option<Result<CkptRecord, String>> {
        let ck = self.ckpt.as_mut()?;
        lazydp_obs::span!("bench.checkpoint");
        let t0 = now_ns();
        let snapshot = {
            lazydp_obs::span!("bench.ckpt_capture");
            (ck.capture)(&self.model, &self.opt)
        };
        let t1 = now_ns();
        let saved = {
            lazydp_obs::span!("bench.ckpt_save");
            ck.store.save(&snapshot)
        };
        let t2 = now_ns();
        let bytes = saved.map_err(|e| e.to_string()).and_then(|path| {
            std::fs::metadata(path)
                .map(|m| m.len())
                .map_err(|e| e.to_string())
        });
        Some(bytes.map(|bytes| CkptRecord {
            capture_ns: t1 - t0,
            save_ns: t2 - t1,
            bytes,
        }))
    }

    /// Trains until `seconds` have passed and the step count is a whole
    /// number of checkpoint periods, checkpointing on schedule. A step
    /// that panics counts as failed and ends the window.
    pub fn window(&mut self, seconds: f64) -> Window {
        let period = self.ckpt.as_ref().map_or(1, |c| c.every);
        let budget_ns = (seconds * 1e9) as u64;
        let before = capture_metrics();
        let work0 = self.opt.counters();
        let mut steps = Vec::new();
        let mut ckpts = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let start = now_ns();
        loop {
            attempted += 1;
            match catch_unwind(AssertUnwindSafe(|| self.step())) {
                Ok(rec) => steps.push(rec),
                Err(_) => {
                    failed += 1;
                    break;
                }
            }
            if steps.len() % period == 0 {
                if let Some(res) = self.checkpoint() {
                    attempted += 1;
                    match res {
                        Ok(rec) => ckpts.push(rec),
                        Err(e) => {
                            eprintln!("perfbench: checkpoint failed: {e}");
                            failed += 1;
                        }
                    }
                }
                if now_ns() - start >= budget_ns {
                    break;
                }
            }
        }
        let loop_ns = now_ns() - start;
        Window {
            steps,
            ckpts,
            loop_ns,
            attempted,
            failed,
            before,
            after: capture_metrics(),
            work: self.opt.counters().delta_since(&work0),
        }
    }

    /// Finalizes the model for release and reads every released weight
    /// once. Training may not continue afterwards.
    pub fn release(&mut self) -> Release {
        lazydp_obs::span!("bench.release");
        let rows0 = capture_metrics().counter("trainer.finalize_rows");
        let t0 = now_ns();
        {
            lazydp_obs::span!("bench.finalize");
            self.opt.finalize(&mut self.model);
        }
        let finalize_ns = now_ns() - t0;
        // The read is repeated and its median time kept, so one slow
        // pass over the weights does not decide `finalize_s`.
        let mut reads = Vec::new();
        let mut digests = Vec::new();
        for _ in 0..VERIFY_READS {
            lazydp_obs::span!("bench.verify_release");
            let t = now_ns();
            digests.push(digest(&self.model));
            reads.push((now_ns() - t) as f64);
        }
        Release {
            finalize_ns,
            verify_ns: crate::metrics::median(&reads) as u64,
            digest: digests[0],
            reads_agree: digests.iter().all(|d| *d == digests[0]),
            finalize_rows: capture_metrics().counter("trainer.finalize_rows") - rows0,
        }
    }
}
