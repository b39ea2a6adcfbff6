//! Operation accounting and the correctness gate shared by both run modes.
//!
//! Every fit and every score is one operation.  It fails when it returns
//! `Err`, panics, or fails a check: M, S and F must reach the same final
//! objective, and factorized scores must equal the materialized oracle bit
//! for bit.

use crate::workloads::{GMM_ITERS, GMM_K, NN_EPOCHS, NN_HIDDEN};
use fml_core::fml_store::StoreResult;
use fml_core::prelude::*;
use fml_serve::{GmmScore, Scorer, Scores, Scoring, SessionScoring};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Relative tolerance on the final objective across M, S and F — the
/// log-likelihood trace tolerance of the repository's GMM equivalence suite.
pub const OBJECTIVE_RTOL: f64 = 1e-7;

/// Counts of operations attempted and failed.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Runs one operation.  An `Err` or a panic counts it as failed and
    /// yields `None`.
    pub fn run<T>(&mut self, what: &str, op: impl FnOnce() -> StoreResult<T>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(op)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(e)) => {
                self.fail(what, &e.to_string());
                None
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                self.fail(what, &format!("panicked: {msg}"));
                None
            }
        }
    }

    /// Marks an operation that already ran as failed.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAILED {what}: {why}");
    }
}

/// A model family the benchmark trains and scores.
pub trait Family {
    /// `gmm` or `nn`, the prefix of the family's metric names.
    const NAME: &'static str;
    /// The family's fit.
    type Fit: Scorer;

    /// One `Session::fit` with the benchmark's model configuration.
    fn fit(session: &Session<'_>, alg: Algorithm) -> StoreResult<Trained<Self::Fit>>;
    /// Final log-likelihood (GMM) or training loss (NN).
    fn objective(fit: &Self::Fit) -> f64;
    /// Whether two fits hold bit-identical parameters.
    fn same_model(a: &Self::Fit, b: &Self::Fit) -> bool;
    /// A score row as exact bits: `(cluster, value bits)`.
    fn row_bits(row: &<Self::Fit as Scorer>::Row) -> (u64, u64);
}

/// Gaussian mixture, `K = 5`.
pub struct GmmFamily;

impl Family for GmmFamily {
    const NAME: &'static str = "gmm";
    type Fit = GmmFit;

    fn fit(session: &Session<'_>, alg: Algorithm) -> StoreResult<Trained<GmmFit>> {
        session.fit(
            Gmm::with_k(GMM_K)
                .iterations(GMM_ITERS)
                .tolerance(0.0)
                .algorithm(alg),
        )
    }

    fn objective(fit: &GmmFit) -> f64 {
        fit.final_log_likelihood()
    }

    fn same_model(a: &GmmFit, b: &GmmFit) -> bool {
        a.model.max_param_diff(&b.model).to_bits() == 0.0f64.to_bits()
    }

    fn row_bits(row: &GmmScore) -> (u64, u64) {
        (row.cluster as u64, row.log_likelihood.to_bits())
    }
}

/// One-hidden-layer NN, `n_h = 50`.
pub struct NnFamily;

impl Family for NnFamily {
    const NAME: &'static str = "nn";
    type Fit = NnFit;

    fn fit(session: &Session<'_>, alg: Algorithm) -> StoreResult<Trained<NnFit>> {
        session.fit(Nn::with_hidden(NN_HIDDEN).epochs(NN_EPOCHS).algorithm(alg))
    }

    fn objective(fit: &NnFit) -> f64 {
        fit.final_loss()
    }

    fn same_model(a: &NnFit, b: &NnFit) -> bool {
        a.model.max_param_diff(&b.model).to_bits() == 0.0f64.to_bits()
    }

    fn row_bits(row: &f64) -> (u64, u64) {
        (0, row.to_bits())
    }
}

/// Checks that S and F reach M's final objective; each one that does not
/// counts as a failed operation.  `fits` is in `Algorithm::all()` order.
pub fn check_agreement<F: Family>(ops: &mut Ops, fits: &[Option<Trained<F::Fit>>; 3]) {
    let Some(m) = &fits[0] else { return };
    let reference = F::objective(&m.fit);
    for t in fits[1..].iter().flatten() {
        let got = F::objective(&t.fit);
        let rel = (got - reference).abs() / reference.abs().max(1.0);
        if rel.is_nan() || rel > OBJECTIVE_RTOL {
            ops.fail(
                &format!("{}-{} fit", F::NAME, t.algorithm.label()),
                &format!("final objective {got} vs M's {reference} (relative {rel:e})"),
            );
        }
    }
}

/// Scores sorted by fact key, as exact bits.
pub type ScoreBits = Vec<(u64, (u64, u64))>;

/// Sorts scores by fact key and keeps their bits.
pub fn score_bits<F: Family>(scores: Scores<<F::Fit as Scorer>::Row>) -> ScoreBits {
    scores
        .into_sorted_by_key()
        .into_iter()
        .map(|(k, r)| (k, F::row_bits(&r)))
        .collect()
}

/// The materialized oracle's scores for one model.
pub struct Oracle<F: Family> {
    model: Trained<F::Fit>,
    bits: ScoreBits,
}

/// Checks factorized scores against the materialized oracle bit for bit,
/// (re)computing the oracle when the model differs from the cached one.
/// A mismatch fails the factorized score operation.
pub fn check_scores<F: Family>(
    ops: &mut Ops,
    session: &Session<'_>,
    cache: &mut Option<Oracle<F>>,
    model: &Trained<F::Fit>,
    factorized: ScoreBits,
) where
    F::Fit: Clone,
{
    let fresh = match cache {
        Some(o) => !F::same_model(&o.model.fit, &model.fit),
        None => true,
    };
    if fresh {
        let what = format!("{}-M score (oracle)", F::NAME);
        let opts = Scoring::new().algorithm(Algorithm::Materialized);
        let Some(scores) = ops.run(&what, || session.score_with(model, &opts)) else {
            *cache = None;
            return;
        };
        *cache = Some(Oracle {
            model: model.clone(),
            bits: score_bits::<F>(scores),
        });
    }
    if let Some(o) = cache {
        compare_bits::<F>(ops, &o.bits, &factorized);
    }
}

/// Fails the factorized score operation unless it equals `oracle` exactly.
pub fn compare_bits<F: Family>(ops: &mut Ops, oracle: &ScoreBits, factorized: &ScoreBits) {
    let what = format!("{}-F score", F::NAME);
    if oracle.len() != factorized.len() {
        ops.fail(
            &what,
            &format!("{} rows vs the oracle's {}", factorized.len(), oracle.len()),
        );
    } else if let Some(i) = (0..oracle.len()).find(|&i| oracle[i] != factorized[i]) {
        ops.fail(
            &what,
            &format!(
                "row {i} differs from the oracle: {:?} vs {:?}",
                factorized[i], oracle[i]
            ),
        );
    }
}
