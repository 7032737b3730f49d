//! The correctness gate, run outside the timed windows.
//!
//! A short prefix of the workload is trained twice: once in the
//! measured configuration (`nproc` threads and shards, paged tables,
//! asynchronous loader, checkpoints) and once in the reference
//! configuration (1 thread, 1 shard, in-memory tables, synchronous
//! `LookaheadLoader`). The two released models must be bitwise equal,
//! every released weight finite, and the spent ε exactly what a fresh
//! `RdpAccountant` reports for the same (σ, q) composed as many times.

use crate::workload::Job;
use lazydp_core::AccountedOptimizer;
use lazydp_data::LookaheadSource;
use lazydp_embedding::EmbeddingStorage;
use lazydp_model::Dlrm;
use lazydp_privacy::{Mechanism, RdpAccountant};

/// δ at which ε is reported and checked.
pub const DELTA: f64 = 1e-6;

/// Fingerprint of a model's weights: two independent 64-bit hashes of
/// every weight's bits in a fixed order, and a count of non-finite
/// weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    /// FNV-1a over the 32-bit words.
    pub fnv: u64,
    /// Multiply-rotate hash over the same words.
    pub mix: u64,
    /// Weights hashed.
    pub weights: u64,
    /// Weights that are NaN or infinite.
    pub non_finite: u64,
}

impl Digest {
    /// The digest of no weights.
    #[must_use]
    pub fn empty() -> Self {
        Self {
            fnv: 0xcbf2_9ce4_8422_2325,
            mix: 0x9e37_79b9_7f4a_7c15,
            weights: 0,
            non_finite: 0,
        }
    }

    fn absorb(&mut self, values: &[f32]) {
        for &v in values {
            let w = u64::from(v.to_bits());
            self.fnv = (self.fnv ^ w).wrapping_mul(0x0000_0100_0000_01b3);
            self.mix = (self.mix ^ w)
                .wrapping_mul(0xff51_afd7_ed55_8ccd)
                .rotate_left(29);
            if !v.is_finite() {
                self.non_finite += 1;
            }
        }
        self.weights += values.len() as u64;
    }

    /// Hex form recorded in the run report.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.fnv, self.mix)
    }
}

/// Digest of every weight of `model`: MLP layers, then each table in
/// row order.
#[must_use]
pub fn digest<T: EmbeddingStorage>(model: &Dlrm<T>) -> Digest {
    let mut d = Digest::empty();
    for layer in model.bottom.layers().iter().chain(model.top.layers()) {
        d.absorb(layer.weight.as_slice());
        d.absorb(&layer.bias);
    }
    for table in &model.tables {
        for r in 0..table.rows() as u64 {
            table.with_row(r, |row| d.absorb(row));
        }
    }
    d
}

/// Checks a released model against the reference release: bitwise
/// equal digests and no non-finite weight.
///
/// # Errors
///
/// Describes the first check that fails.
pub fn compare(measured: &Digest, reference: &Digest) -> Result<(), String> {
    if measured.non_finite > 0 || reference.non_finite > 0 {
        return Err(format!(
            "released model has non-finite weights: {} measured, {} reference",
            measured.non_finite, reference.non_finite
        ));
    }
    if measured != reference {
        return Err(format!(
            "released models differ: measured {} vs reference {}",
            measured.hex(),
            reference.hex()
        ));
    }
    Ok(())
}

/// Checks two models' weights with [`compare`].
///
/// # Errors
///
/// As [`compare`].
pub fn compare_models<T: EmbeddingStorage, U: EmbeddingStorage>(
    measured: &Dlrm<T>,
    reference: &Dlrm<U>,
) -> Result<(), String> {
    compare(&digest(measured), &digest(reference))
}

/// ε a fresh accountant reports after `steps` compositions of `mechanism`.
#[must_use]
pub fn fresh_epsilon(mechanism: &Mechanism, q: f64, steps: u64) -> f64 {
    let mut acc = RdpAccountant::new();
    acc.compose_mechanism(mechanism, q, steps);
    acc.epsilon(DELTA).0
}

/// Checks that a job's spent ε equals a fresh accountant's for the
/// same steps.
///
/// # Errors
///
/// Describes the mismatch.
pub fn check_epsilon<L, O, T>(job: &Job<L, O, T>) -> Result<f64, String>
where
    L: LookaheadSource,
    O: AccountedOptimizer<T>,
    T: EmbeddingStorage,
{
    let spent = job.accountant.epsilon(DELTA).0;
    let steps = job.accountant.steps();
    let fresh = fresh_epsilon(&job.mechanism, job.q, steps);
    if spent.to_bits() == fresh.to_bits() && spent.is_finite() {
        Ok(spent)
    } else {
        Err(format!(
            "spent ε {spent} after {steps} steps, a fresh accountant reports {fresh}"
        ))
    }
}

/// What the gate saw for one workload and seed.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Digest of the measured-configuration release.
    pub measured: Digest,
    /// Digest of the reference-configuration release.
    pub reference: Digest,
    /// ε spent by the prefix.
    pub epsilon: f64,
    /// Mean BCE of the reference release on a held-out batch.
    pub eval_loss: f64,
    /// Every check that failed.
    pub failures: Vec<String>,
}

impl GateReport {
    /// Whether every check passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}
