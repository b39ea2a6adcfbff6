//! Factorized batch scoring over normalized data.
//!
//! The paper's central move — push the model computation through the join
//! instead of materializing it — applies at inference time exactly as it does
//! at training time.  A trained model is scored over the base relations with
//! the same three strategies the trainers offer:
//!
//! * **Materialized** — materialize the join as a temporary table, then score
//!   every denormalized row (the oracle the equivalence tests compare
//!   against; pays the join materialization plus a full-width scan).
//! * **Streaming** — join on the fly and score each denormalized row (no
//!   materialization, but every dimension tuple's work is redone per fact).
//! * **Factorized** — the default: per-dimension-tuple score terms are
//!   computed **once per distinct dimension tuple** (once per slot of the join
//!   scan's fact blocks, [`JoinScan`]) and reused for every matching fact row,
//!   reading the base relations without ever densifying the join.
//!
//! ## Exactness contract
//!
//! All three strategies share one *block-decomposed row scorer* per model
//! family (the private `RowCore` implementations below): every per-row quantity is
//! computed block-by-block along the relation partition, combined in a fixed
//! block order, with the same sparse-representation dispatch
//! ([`SparseMode::Auto`] one-hot / CSR detection) on both sides.  The
//! factorized path merely *caches* the dimension-block terms instead of
//! recomputing them per row — the arithmetic per row is literally the same
//! function over the same operands, so factorized scoring equals the
//! materialized-join oracle **bit for bit** under every [`KernelPolicy`] ×
//! [`SparseMode`] combination (the `scoring_equivalence` test suite pins
//! this with `f64::to_bits` comparisons).
//!
//! ## Parallel fan-out
//!
//! Under a parallel kernel policy the factorized strategy fans each scan
//! block out over the persistent worker pool ([`fml_linalg::pool`]) with the
//! resolved `ExecPolicy::threads` workers, the way the trainers do: the
//! block's new slots have their terms built in chunks, then its fact rows
//! are scored in chunks against the shared, read-only slot arena.  Chunk
//! boundaries depend only on block shape and worker count, every row's
//! arithmetic is independent of which chunk ran it (per-chunk scratch, pure
//! `RowCore::dim_terms`), and per-chunk results merge in chunk-index order —
//! so the exactness contract above extends to **every thread count**, and a
//! one-worker run (one chunk per block) is the sequential scorer.  Kernels
//! inside workers run the sequential policy (the pool is entered at the
//! coarse per-chunk level, not per kernel), and observers are notified once
//! per chunk, from the scoring thread, never from workers.

use crate::observe::{ScoreNotifier, ScoreObserver};
use fml_core::{Algorithm, Session, Trained};
use fml_gmm::model::argmax;
use fml_gmm::{GmmFit, Precomputed, SparseFormPre};
use fml_linalg::block::{BlockPartition, BlockQuadraticForm};
use fml_linalg::exec::{ExecPolicy, ExecSettings};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::sparse::{SparseMode, SparseRep};
use fml_linalg::{gemm, vector, KernelPolicy, Matrix};
use fml_nn::{Mlp, NnFit};
use fml_store::batch::BatchScan;
use fml_store::factorized_scan::{JoinScan, SlotArena};
use fml_store::join::materialize_join;
use fml_store::{Database, IoSnapshot, JoinSpec, StoreResult};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for one scoring run: the strategy plus an optional per-batch
/// telemetry observer — the scoring-side analogue of the estimator builders.
#[derive(Clone, Default)]
pub struct Scoring {
    strategy: Algorithm,
    observer: Option<Arc<dyn ScoreObserver>>,
}

impl std::fmt::Debug for Scoring {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scoring")
            .field("strategy", &self.strategy)
            .field("observer", &self.observer.as_ref().map(|_| "<dyn>"))
            .finish()
    }
}

impl Scoring {
    /// Default options: factorized scoring, no observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the scoring strategy (mirrors the estimators' `algorithm`
    /// builder; the default is [`Algorithm::Factorized`]).
    pub fn algorithm(mut self, strategy: Algorithm) -> Self {
        self.strategy = strategy;
        self
    }

    /// Attaches a per-batch telemetry observer.
    pub fn observe(mut self, observer: Arc<dyn ScoreObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// The configured strategy.
    pub fn strategy(&self) -> Algorithm {
        self.strategy
    }

    fn observer(&self) -> Option<&dyn ScoreObserver> {
        self.observer.as_deref()
    }
}

/// The result of scoring a batch: per-row outputs keyed by the fact tuple's
/// primary key, plus the shared accounting every strategy reports (I/O delta,
/// strategy, wall-time) — the scoring-side twin of [`Trained`].
#[derive(Debug, Clone)]
pub struct Scores<R> {
    /// Fact-table primary keys in scan order (the order rows were scored).
    pub keys: Vec<u64>,
    /// Per-row outputs, index-aligned with [`Scores::keys`].
    pub rows: Vec<R>,
    /// The strategy that produced the scores.
    pub strategy: Algorithm,
    /// Storage I/O performed during scoring.
    pub io: IoSnapshot,
    /// Wall-clock time of the whole scoring call.
    pub elapsed: Duration,
}

impl<R> Scores<R> {
    /// Number of scored rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were scored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates `(fact key, row output)` pairs in scan order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &R)> {
        self.keys.iter().copied().zip(self.rows.iter())
    }

    /// Consumes the scores into `(key, row)` pairs sorted by fact key.
    ///
    /// The three strategies traverse the join in different orders (the
    /// factorized group scan groups facts by dimension tuple), so
    /// order-insensitive comparisons — the equivalence suite, result joins —
    /// should go through this.
    pub fn into_sorted_by_key(self) -> Vec<(u64, R)> {
        let mut pairs: Vec<(u64, R)> = self.keys.into_iter().zip(self.rows).collect();
        pairs.sort_by_key(|(k, _)| *k);
        pairs
    }
}

impl Scores<GmmScore> {
    /// Total log-likelihood of the scored batch under the model.
    pub fn total_log_likelihood(&self) -> f64 {
        self.rows.iter().map(|r| r.log_likelihood).sum()
    }
}

impl Scores<f64> {
    /// Mean of the regression outputs (a quick sanity aggregate for benches).
    pub fn mean_output(&self) -> f64 {
        if self.rows.is_empty() {
            return f64::NAN;
        }
        self.rows.iter().sum::<f64>() / self.rows.len() as f64
    }
}

/// Per-row GMM score: the hard cluster assignment plus the row's
/// log-likelihood contribution (what [`fml_gmm::GmmModel::predict_batch`]
/// returns per row, produced here without densifying the join).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GmmScore {
    /// Most probable mixture component.
    pub cluster: usize,
    /// Log-likelihood contribution `ln p(x)` of the row.
    pub log_likelihood: f64,
}

/// A model family that can score a batch of fact rows over a normalized join.
///
/// Implemented per fit type ([`GmmFit`] → responsibilities / cluster
/// assignments, [`NnFit`] → regression outputs); the preferred entry point is
/// [`SessionScoring::score`] on a [`Session`].
pub trait Scorer {
    /// The per-row output (e.g. [`GmmScore`], `f64`).
    type Row;

    /// Scores every fact row of the join described by `spec`, under the
    /// execution policy's kernel/sparse/threads settings and the scoring
    /// options' strategy.
    fn score_batch(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
        opts: &Scoring,
    ) -> StoreResult<Scores<Self::Row>>;
}

/// Extension trait giving [`Session`] a scoring entry point symmetric to
/// [`Session::fit`]: `session.score(&trained)` scores the session's join with
/// the session's execution policy.
pub trait SessionScoring {
    /// Scores a trained model over the session's join with the default
    /// (factorized) strategy.
    ///
    /// # Panics
    /// Panics when the session has no join (same contract as
    /// [`Session::fit`]).
    fn score<F>(&self, trained: &Trained<F>) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer;

    /// [`SessionScoring::score`] with explicit [`Scoring`] options
    /// (strategy, observer).
    fn score_with<F>(&self, trained: &Trained<F>, opts: &Scoring) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer;
}

impl SessionScoring for Session<'_> {
    fn score<F>(&self, trained: &Trained<F>) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer,
    {
        self.score_with(trained, &Scoring::new())
    }

    fn score_with<F>(&self, trained: &Trained<F>, opts: &Scoring) -> StoreResult<Scores<F::Row>>
    where
        F: Scorer,
    {
        let spec = self
            .join_spec()
            .expect("Session::score requires a join: call Session::join(spec) first");
        trained
            .fit
            .score_batch(self.db(), spec, self.exec_policy(), opts)
    }
}

/// Runs `score` bracketed by the shared measurement scaffolding (I/O snapshot
/// delta + wall-time), mirroring [`fml_core::api::fit_measured`].
fn score_measured<R>(
    db: &Database,
    strategy: Algorithm,
    score: impl FnOnce() -> StoreResult<(Vec<u64>, Vec<R>)>,
) -> StoreResult<Scores<R>> {
    let before = db.stats().snapshot();
    let start = Instant::now();
    let (keys, rows) = score()?;
    Ok(Scores {
        keys,
        rows,
        strategy,
        io: db.stats().snapshot().delta_since(&before),
        elapsed: start.elapsed(),
    })
}

/// The per-family row-scoring arithmetic, decomposed along the relation
/// partition.  One implementation serves all three strategies: the
/// factorized path caches [`RowCore::dim_terms`] per distinct dimension
/// tuple, the streaming/materialized paths rebuild them per row from the
/// joined row's slices — same function, same operands, identical bits.
trait RowCore {
    /// Cached per-dimension-tuple terms for one partition block.
    type Dim;
    /// Per-row output.
    type Row;
    /// Reusable per-run scratch buffers, allocated once per scoring run
    /// instead of once per row (the hot path scores millions of rows).
    type Scratch;

    /// Allocates the scratch buffers for one scoring run.
    fn make_scratch(&self) -> Self::Scratch;

    /// Builds the reusable terms for dimension block `block` (1-based; block
    /// 0 is the fact side) from the block's features and its detected sparse
    /// representation.
    fn dim_terms(&self, block: usize, features: &[f64], rep: Option<&SparseRep>) -> Self::Dim;

    /// Scores one fact row given its features, its sparse representation and
    /// the dimension terms of every referenced dimension tuple, in partition
    /// order.
    fn score_row(
        &self,
        fact_features: &[f64],
        fact_rep: Option<&SparseRep>,
        dims: &[&Self::Dim],
        scratch: &mut Self::Scratch,
    ) -> Self::Row;
}

// ---------------------------------------------------------------------------
// GMM row core
// ---------------------------------------------------------------------------

/// Per-dimension-tuple GMM terms, one entry per mixture component: the
/// diagonal quadratic term, the fact-side cross vector, its dot with the
/// fact-block mean (for sparse fact rows), and the centered vector (for the
/// cross terms between distinct dimension blocks — populated only for star
/// joins, where those terms exist; binary joins never read it).
struct GmmDimTerms {
    diag: Vec<f64>,
    cross: Vec<Vec<f64>>,
    mu_dot_cross: Vec<f64>,
    pd: Vec<Vec<f64>>,
}

/// Per-run scratch for [`GmmCore::score_row`]: the log-density buffer and the
/// centered fact vector, reused across every scored row.
struct GmmScratch {
    log_dens: Vec<f64>,
    pd_s: Vec<f64>,
}

/// Shared GMM scoring state: the once-per-batch precomputation (covariance
/// inverses, log-normalizers, partitioned forms, sparse decomposition
/// constants) every row read-only shares — the inference-time analogue of the
/// trainers' once-per-iteration setup.
struct GmmCore {
    pre: Precomputed,
    forms: Vec<BlockQuadraticForm>,
    means_split: Vec<Vec<Vec<f64>>>,
    sparse_pre: Vec<Vec<SparseFormPre>>,
    fact_pre: Vec<SparseFormPre>,
    kp: KernelPolicy,
    k: usize,
    d_s: usize,
    /// Whether cross terms between distinct dimension blocks exist (star
    /// joins, `q > 1`) — only then do [`GmmDimTerms`] carry the centered
    /// vectors those terms read.
    needs_cross: bool,
}

/// Ridge used to repair a non-SPD covariance when building the scoring
/// precomputation — the same default regularization the trainers apply
/// (`GmmConfig::default().ridge`).  Healthy models never take the repair
/// path, so this cannot change their scores; degenerate ones (a collapsed
/// component, a hand-edited persisted file) score instead of panicking.
const SCORING_RIDGE: f64 = 1e-6;

impl GmmCore {
    fn new(fit: &GmmFit, partition: &BlockPartition, ex: &ExecSettings) -> Self {
        let kp = ex.kernel_policy.sequential();
        let pre = Precomputed::from_model(&fit.model, SCORING_RIDGE);
        let forms = pre.block_forms_with(partition, kp);
        let means_split = pre.split_means(partition);
        let (sparse_pre, fact_pre) = if ex.sparse == SparseMode::Auto {
            (
                SparseFormPre::build_all(&forms, &means_split, partition.num_blocks(), kp),
                forms
                    .iter()
                    .enumerate()
                    .map(|(c, form)| SparseFormPre::build_diag(form, 0, &means_split[c][0], kp))
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Self {
            pre,
            forms,
            means_split,
            sparse_pre,
            fact_pre,
            kp,
            k: fit.model.k(),
            d_s: partition.size(0),
            needs_cross: partition.num_blocks() > 2,
        }
    }
}

impl RowCore for GmmCore {
    type Dim = GmmDimTerms;
    type Row = GmmScore;
    type Scratch = GmmScratch;

    fn make_scratch(&self) -> GmmScratch {
        GmmScratch {
            log_dens: vec![0.0; self.k],
            pd_s: vec![0.0; self.d_s],
        }
    }

    fn dim_terms(&self, block: usize, features: &[f64], rep: Option<&SparseRep>) -> GmmDimTerms {
        let mut diag = Vec::with_capacity(self.k);
        let mut cross = Vec::with_capacity(self.k);
        let mut mu_dot_cross = Vec::with_capacity(self.k);
        let mut pd = Vec::with_capacity(if self.needs_cross { self.k } else { 0 });
        for c in 0..self.k {
            let center = || -> Vec<f64> {
                features
                    .iter()
                    .zip(self.means_split[c][block].iter())
                    .map(|(x, m)| x - m)
                    .collect()
            };
            let w = match rep {
                Some(rep) => {
                    let pre = &self.sparse_pre[c][block - 1];
                    diag.push(pre.diag_term(&self.forms[c], block, rep));
                    if self.needs_cross {
                        pd.push(center());
                    }
                    pre.cross_vector(&self.forms[c], block, rep, self.kp)
                }
                None => {
                    let centered = center();
                    diag.push(self.forms[c].term(block, block, &centered, &centered));
                    let mut w = self.forms[c].block_times(0, block, &centered);
                    let w2 = gemm::matvec_transposed_with(
                        self.kp,
                        self.forms[c].block(block, 0),
                        &centered,
                    );
                    vector::axpy(1.0, &w2, &mut w);
                    if self.needs_cross {
                        pd.push(centered);
                    }
                    w
                }
            };
            mu_dot_cross.push(vector::dot(&self.means_split[c][0], &w));
            cross.push(w);
        }
        GmmDimTerms {
            diag,
            cross,
            mu_dot_cross,
            pd,
        }
    }

    fn score_row(
        &self,
        fact_features: &[f64],
        fact_rep: Option<&SparseRep>,
        dims: &[&GmmDimTerms],
        scratch: &mut GmmScratch,
    ) -> GmmScore {
        let GmmScratch { log_dens, pd_s } = scratch;
        for (c, ld) in log_dens.iter_mut().enumerate() {
            // Fact-block diagonal (UL): the mean decomposition for sparse
            // rows, the centered blocked form otherwise.
            let mut quad = match fact_rep {
                Some(rep) => self.fact_pre[c].diag_term(&self.forms[c], 0, rep),
                None => {
                    vector::sub_into(fact_features, &self.means_split[c][0], pd_s);
                    self.forms[c].term(0, 0, pd_s, pd_s)
                }
            };
            // Per dimension block: cached diagonal plus the fact-cross dot
            // (a gather minus the precomputed µᵀw for sparse fact rows).
            for dt in dims {
                quad += dt.diag[c];
                quad += match fact_rep {
                    Some(rep) => rep.gather_dot(&dt.cross[c]) - dt.mu_dot_cross[c],
                    None => vector::dot(pd_s, &dt.cross[c]),
                };
            }
            // Cross terms between distinct dimension blocks (star joins).
            for i in 0..dims.len() {
                for j in 0..dims.len() {
                    if i != j {
                        quad += self.forms[c].term(i + 1, j + 1, &dims[i].pd[c], &dims[j].pd[c]);
                    }
                }
            }
            *ld = self.pre.log_norm[c] - 0.5 * quad;
        }
        let (resp, ll) = self.pre.finish_responsibilities(log_dens);
        GmmScore {
            cluster: argmax(&resp),
            log_likelihood: ll,
        }
    }
}

// ---------------------------------------------------------------------------
// NN row core
// ---------------------------------------------------------------------------

/// Shared NN scoring state: the first layer's weight matrix split into
/// per-relation column blocks (hoisted once per batch, exactly as the
/// factorized trainers hoist it once per epoch).
struct NnCore<'m> {
    model: &'m Mlp,
    w1_blocks: Vec<Matrix>,
    b1: Vec<f64>,
    kp: KernelPolicy,
}

impl<'m> NnCore<'m> {
    fn new(fit: &'m NnFit, partition: &BlockPartition, ex: &ExecSettings) -> Self {
        let model = &fit.model;
        let nh = model.layers()[0].out_dim();
        let w1 = &model.layers()[0].weights;
        let w1_blocks = (0..partition.num_blocks())
            .map(|b| {
                let r = partition.range(b);
                w1.sub_block(0, nh, r.start, r.end)
            })
            .collect();
        Self {
            model,
            w1_blocks,
            b1: model.layers()[0].bias.clone(),
            kp: ex.kernel_policy.sequential(),
        }
    }
}

impl RowCore for NnCore<'_> {
    /// The partial first-layer product `W¹_{R_i}·x_{R_i}` (a column gather
    /// when the dimension tuple is sparse).
    type Dim = Vec<f64>;
    type Row = f64;
    /// The per-row buffers (`a¹` and the layer activations) are produced by
    /// the kernels themselves; nothing to reuse across rows.
    type Scratch = ();

    fn make_scratch(&self) {}

    fn dim_terms(&self, block: usize, features: &[f64], rep: Option<&SparseRep>) -> Vec<f64> {
        match rep {
            Some(rep) => rep.matvec(self.kp, &self.w1_blocks[block]),
            None => gemm::matvec_with(self.kp, &self.w1_blocks[block], features),
        }
    }

    fn score_row(
        &self,
        fact_features: &[f64],
        fact_rep: Option<&SparseRep>,
        dims: &[&Vec<f64>],
        _scratch: &mut (),
    ) -> f64 {
        // a¹ = (W¹_S·x_S + b¹) + Σ_i W¹_{R_i}·x_{R_i}, assembled in fixed
        // partition order so every strategy produces identical bits.
        let mut a1 = match fact_rep {
            Some(rep) => rep.matvec(self.kp, &self.w1_blocks[0]),
            None => gemm::matvec_with(self.kp, &self.w1_blocks[0], fact_features),
        };
        vector::axpy(1.0, &self.b1, &mut a1);
        for partial in dims {
            vector::axpy(1.0, partial, &mut a1);
        }
        self.model
            .forward_from_first_preactivation_with(self.kp, a1)
    }
}

// ---------------------------------------------------------------------------
// Strategy drivers
// ---------------------------------------------------------------------------

/// Scores the join with the options' strategy, fanning each row through the
/// shared [`RowCore`].  Streaming and materialized scoring are sequential —
/// they are the oracles the factorized fan-out is tested against.
fn run_scoring<C>(
    core: &C,
    db: &Database,
    spec: &JoinSpec,
    partition: &BlockPartition,
    ex: &ExecSettings,
    opts: &Scoring,
) -> StoreResult<(Vec<u64>, Vec<C::Row>)>
where
    C: RowCore + Sync,
    C::Dim: Send + Sync,
    C::Row: Send,
{
    match opts.strategy() {
        Algorithm::Factorized => score_factorized(core, db, spec, ex, opts),
        Algorithm::Streaming => score_streamed(core, db, spec, partition, ex, opts),
        Algorithm::Materialized => score_materialized(core, db, spec, partition, ex, opts),
    }
}

/// Factorized scoring: one [`RowCore::dim_terms`] per slot — per distinct
/// dimension tuple — reused for every fact row referencing it.
///
/// Per scan block, the new slots' terms are built into a slot arena and the
/// block's facts are scored against it, both in chunks over `workers` (the
/// resolved thread count under a parallel kernel policy, else one).  Chunks
/// read the arena immutably, score with their own scratch, and merge in
/// chunk-index order, so the output — scan order included — is the same at
/// every worker count.  Observers see one batch per chunk.
///
/// Scoring is a single pass and each slot is built exactly once, so there
/// is nothing for a [`fml_linalg::repcache::RepCache`] to amortize:
/// representations are detected into locals and dropped (still at most once
/// per tuple).
fn score_factorized<C>(
    core: &C,
    db: &Database,
    spec: &JoinSpec,
    ex: &ExecSettings,
    opts: &Scoring,
) -> StoreResult<(Vec<u64>, Vec<C::Row>)>
where
    C: RowCore + Sync,
    C::Dim: Send + Sync,
    C::Row: Send,
{
    let probe = db.stats().io_probe();
    let mut notifier = ScoreNotifier::new(opts.observer(), Some(&probe));
    let workers = ex.workers(ex.kernel_policy.is_parallel());
    let q = spec.num_dimensions();
    let mut keys = Vec::new();
    let mut rows = Vec::new();
    let mut terms: SlotArena<C::Dim> = SlotArena::new(q);
    for block in JoinScan::new(db, spec, ex.block_pages)? {
        let block = block?;
        for (i, tuples) in block.dims.iter().enumerate() {
            let new = par_chunks_with_threads(workers, tuples.len(), 1, |range| {
                tuples[range]
                    .iter()
                    .map(|t| {
                        let rep = ex.sparse.detect(&t.features);
                        core.dim_terms(i + 1, &t.features, rep.as_ref())
                    })
                    .collect::<Vec<_>>()
            });
            terms.extend(i, block.first_slots[i], new.into_iter().flatten());
        }
        let terms_ref = &terms;
        let chunks = par_chunks_with_threads(workers, block.facts.len(), 1, |range| {
            let mut scratch = core.make_scratch();
            let mut dims: Vec<&C::Dim> = Vec::with_capacity(q);
            let mut keys = Vec::with_capacity(range.len());
            let mut rows = Vec::with_capacity(range.len());
            for f in range {
                let fact = &block.facts[f];
                dims.clear();
                dims.extend(
                    block
                        .fact_slots(f)
                        .iter()
                        .enumerate()
                        .map(|(i, &slot)| terms_ref.get(i, slot)),
                );
                let rep = ex.sparse.detect(&fact.features);
                rows.push(core.score_row(&fact.features, rep.as_ref(), &dims, &mut scratch));
                keys.push(fact.key);
            }
            (keys, rows)
        });
        for (chunk_keys, chunk_rows) in chunks {
            // Observers fire from the scoring thread during the ordered merge.
            notifier.notify(chunk_keys.len() as u64);
            keys.extend(chunk_keys);
            rows.extend(chunk_rows);
        }
        if block.closes_slots {
            terms.close();
        }
    }
    Ok((keys, rows))
}

/// Scores one denormalized row by splitting it along the partition and
/// rebuilding every dimension block's terms — the deliberately redundant
/// arithmetic the factorized path avoids, shared by the streaming and
/// materialized strategies.
fn score_joined_row<C: RowCore>(
    core: &C,
    partition: &BlockPartition,
    mode: SparseMode,
    features: &[f64],
    scratch: &mut C::Scratch,
) -> C::Row {
    let parts = partition.split(features);
    let fact_rep = mode.detect(parts[0]);
    let dims: Vec<C::Dim> = (1..partition.num_blocks())
        .map(|b| core.dim_terms(b, parts[b], mode.detect(parts[b]).as_ref()))
        .collect();
    let dim_refs: Vec<&C::Dim> = dims.iter().collect();
    core.score_row(parts[0], fact_rep.as_ref(), &dim_refs, scratch)
}

/// Streaming scoring: join on the fly, score each denormalized row.
fn score_streamed<C: RowCore>(
    core: &C,
    db: &Database,
    spec: &JoinSpec,
    partition: &BlockPartition,
    ex: &ExecSettings,
    opts: &Scoring,
) -> StoreResult<(Vec<u64>, Vec<C::Row>)> {
    let probe = db.stats().io_probe();
    let mut notifier = ScoreNotifier::new(opts.observer(), Some(&probe));
    let mut keys = Vec::new();
    let mut rows = Vec::new();
    let mut scratch = core.make_scratch();
    JoinScan::new(db, spec, ex.block_pages)?.for_each_joined(
        |joined| {
            rows.push(score_joined_row(
                core,
                partition,
                ex.sparse,
                &joined.features,
                &mut scratch,
            ));
            keys.push(joined.key);
            Ok(())
        },
        |batch_rows| notifier.notify(batch_rows as u64),
    )?;
    Ok((keys, rows))
}

/// Materialized scoring: materialize the join as a temporary table (replacing
/// any previous one), then scan and score every denormalized row — the
/// oracle the factorized path is tested against, paying the full
/// materialization and full-width scan I/O.
fn score_materialized<C: RowCore>(
    core: &C,
    db: &Database,
    spec: &JoinSpec,
    partition: &BlockPartition,
    ex: &ExecSettings,
    opts: &Scoring,
) -> StoreResult<(Vec<u64>, Vec<C::Row>)> {
    let t_name = score_table_name(spec);
    if db.contains(&t_name) {
        db.drop_relation(&t_name)?;
    }
    let table = materialize_join(db, spec, t_name, ex.block_pages)?;
    let probe = db.stats().io_probe();
    let mut notifier = ScoreNotifier::new(opts.observer(), Some(&probe));
    let mut keys = Vec::new();
    let mut rows = Vec::new();
    let mut scratch = core.make_scratch();
    for batch in BatchScan::new(table, ex.block_pages) {
        let batch = batch?;
        for tuple in &batch {
            rows.push(score_joined_row(
                core,
                partition,
                ex.sparse,
                &tuple.features,
                &mut scratch,
            ));
            keys.push(tuple.key);
        }
        notifier.notify(batch.len() as u64);
    }
    Ok((keys, rows))
}

/// Name of the temporary join table the materialized strategy scores from.
pub fn score_table_name(spec: &JoinSpec) -> String {
    format!("__T_score_{}", spec.fact)
}

// ---------------------------------------------------------------------------
// Scorer impls
// ---------------------------------------------------------------------------

impl Scorer for GmmFit {
    type Row = GmmScore;

    /// Batch-scores the fitted mixture: per fact row, the hard cluster
    /// assignment and the row's log-likelihood contribution.
    fn score_batch(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
        opts: &Scoring,
    ) -> StoreResult<Scores<GmmScore>> {
        spec.validate(db)?;
        let sizes = spec.feature_partition(db)?;
        let partition = BlockPartition::new(&sizes);
        assert_eq!(
            self.model.dim(),
            partition.total_dim(),
            "model dimension mismatch against the join's feature width"
        );
        let ex = exec.resolve();
        // Kernels invoked under a parallel policy fan out to exactly the
        // resolved thread count while scoring runs.
        let _kernel_threads = ex.kernel_thread_scope();
        // The resolved observability mode governs instrumentation on every
        // thread this run touches (pool workers, storage scans).
        let _obs = ex.obs_scope();
        let _span = fml_obs::span!("score");
        score_measured(db, opts.strategy(), || {
            // Inside the measured closure: the per-batch precomputation
            // (Cholesky inversions, block forms, sparse constants) is part
            // of the scoring call's documented elapsed/I/O accounting.
            let core = GmmCore::new(self, &partition, &ex);
            run_scoring(&core, db, spec, &partition, &ex, opts)
        })
    }
}

impl Scorer for NnFit {
    type Row = f64;

    /// Batch-scores the fitted network: per fact row, the regression output.
    fn score_batch(
        &self,
        db: &Database,
        spec: &JoinSpec,
        exec: &ExecPolicy,
        opts: &Scoring,
    ) -> StoreResult<Scores<f64>> {
        spec.validate(db)?;
        let sizes = spec.feature_partition(db)?;
        let partition = BlockPartition::new(&sizes);
        assert_eq!(
            self.model.input_dim(),
            partition.total_dim(),
            "model dimension mismatch against the join's feature width"
        );
        let ex = exec.resolve();
        // Kernels invoked under a parallel policy fan out to exactly the
        // resolved thread count while scoring runs.
        let _kernel_threads = ex.kernel_thread_scope();
        // The resolved observability mode governs instrumentation on every
        // thread this run touches (pool workers, storage scans).
        let _obs = ex.obs_scope();
        let _span = fml_obs::span!("score");
        score_measured(db, opts.strategy(), || {
            // Inside the measured closure: the first-layer column split is
            // part of the scoring call's documented elapsed accounting.
            let core = NnCore::new(self, &partition, &ex);
            run_scoring(&core, db, spec, &partition, &ex, opts)
        })
    }
}
