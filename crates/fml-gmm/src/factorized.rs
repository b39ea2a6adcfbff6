//! `F-GMM`: EM pushed through the join (Sections V-B and V-C).
//!
//! With `q` dimension tables the feature space is partitioned into `q + 1`
//! blocks `[d_S | d_{R_1} | … | d_{R_q}]`, and every EM quantity decomposes into
//! a `(q+1)×(q+1)` grid of blocks (Equations 19–24, which reduce to Equations
//! 7–18 for a binary join, `q = 1`).  The parts that depend on one dimension
//! tuple only are computed **once per dimension tuple** — once per *slot* of
//! the join scan's fact blocks ([`fml_store::factorized_scan`]) — and reused
//! for every fact tuple referencing it:
//!
//! * **E-step**: the Mahalanobis form splits into the fact term
//!   `PD_Sᵀ I_SS PD_S`, per dimension the diagonal term `PD_Rᵀ I_RR PD_R` and
//!   the cross vector `w = I_SR·PD_R + I_RSᵀ·PD_R` (both per slot, so each fact
//!   only pays a `d_S`-length dot product with `w`), and — for star joins —
//!   the terms between distinct dimension blocks, evaluated per fact from the
//!   slots' centered vectors.
//! * **M-step means** (Equations 13, 22): `Σ γ x` splits into a fact part
//!   (accumulated per tuple) and per dimension `(Σ γ)·x_R`, one AXPY per slot.
//! * **M-step covariances** (Equations 14–18, 23–24): the fact block and the
//!   blocks between distinct dimensions accumulate per fact; the
//!   fact×dimension and dimension-diagonal blocks are added once per slot from
//!   the slot's responsibility mass and its weighted sum of `PD_S`.
//!
//! The decomposition is exact — no approximation — so the resulting model matches
//! `M-GMM` / `S-GMM` up to floating-point rounding.
//!
//! **Sparse detection is cached.**  Under [`SparseMode::Auto`] each tuple's
//! representation ([`fml_linalg::SparseRep`]: one-hot, weighted CSR, or dense)
//! is detected during the first E-step and kept in [`RepCache`]s — facts by
//! scan position, dimension tuples by slot — so detection runs at most **once
//! per tuple** per training run (the regression tests pin this with
//! [`fml_linalg::sparse::detect_calls`]).  Sparse tuples on either side run
//! the mean decomposition of [`crate::sparse`]: gathers and scatters on `x`,
//! dense mean corrections once per pass.
//!
//! **Parallelism.**  Each scan block's new slots and facts are chunked over the
//! worker pool; chunks read the slot terms immutably and their partial
//! statistics merge in chunk order, so the reduction tree is fixed.

use crate::em::{converged, finalize_m_step, means_from_sums, GmmFit};
use crate::init::GmmInit;
use crate::model::Precomputed;
use crate::sparse::{SparseDiagAcc, SparseFormPre, SparseScatterAcc};
use crate::GmmConfig;
use fml_linalg::block::{BlockPartition, BlockQuadraticForm, BlockScatter};
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::RepCache;
use fml_linalg::sparse::{SparseMode, SparseRep};
use fml_linalg::{gemm, vector, KernelPolicy, Matrix, Vector};
use fml_store::factorized_scan::{FactBlock, JoinScan, SlotArena};
use fml_store::{Database, JoinSpec, StoreResult, Tuple};
use std::sync::OnceLock;
use std::time::Instant;

/// Minimum per-tuple work (≈ `k·d²` flops) below which the parallel policy
/// processes a block's facts inline instead of fanning out.
const PAR_MIN_GROUP_FLOPS: usize = 1 << 12;

/// The factorized training strategy (the paper's proposal).
pub struct FactorizedGmm;

/// The shape of one training run and how it executes.
struct Run<'a> {
    db: &'a Database,
    spec: &'a JoinSpec,
    partition: BlockPartition,
    block_pages: usize,
    workers: usize,
    kp: KernelPolicy,
    auto_sparse: bool,
    k: usize,
    d_s: usize,
    q: usize,
}

/// One EM iteration's read-only model constants.
struct Iteration {
    pre: Precomputed,
    forms: Vec<BlockQuadraticForm>,
    means_split: Vec<Vec<Vec<f64>>>,
    /// Per component and dimension block, the sparse-decomposition constants.
    sparse_pre: Vec<Vec<SparseFormPre>>,
    /// Per component, the fact block's diagonal constants.
    fact_pre: Vec<SparseFormPre>,
}

/// E-step terms of one slot (dimension tuple), one entry per component.
struct SlotTerms {
    /// `PD_Rᵀ I_RR PD_R`.
    diag: Vec<f64>,
    /// `I_SR·PD_R + I_RSᵀ·PD_R`.
    cross: Vec<Vec<f64>>,
    /// `PD_R`, kept only when there are cross terms between distinct
    /// dimensions (star joins).
    pd: Vec<Vec<f64>>,
    /// `µ_Sᵀ·cross`, so a sparse fact's `PD_Sᵀ·cross` is a gather minus this;
    /// computed on the slot's first sparse fact.
    mu_dot_cross: OnceLock<Vec<f64>>,
}

/// `x − µ`.
fn centered(x: &[f64], mu: &[f64]) -> Vec<f64> {
    x.iter().zip(mu).map(|(x, m)| x - m).collect()
}

/// The live window of per-slot sums, `width` values per slot, one flat
/// vector per dimension.
fn slot_sums(live: &SlotArena<Tuple>, q: usize, width: usize) -> Vec<Vec<f64>> {
    (0..q)
        .map(|i| vec![0.0; live.live(i).len() * width])
        .collect()
}

/// Adds chunk-local slot sums into the block totals.
fn merge_slot_sums(total: &mut [Vec<f64>], part: &[Vec<f64>]) {
    for (t, p) in total.iter_mut().zip(part) {
        vector::axpy(1.0, p, t);
    }
}

/// Makes `block`'s dimension tuples live in `live`, growing the per-slot
/// sums to match.
fn open_slots(
    block: &mut FactBlock,
    live: &mut SlotArena<Tuple>,
    sums: &mut [Vec<f64>],
    width: usize,
) {
    for (i, tuples) in block.dims.iter_mut().enumerate() {
        let new = sums[i].len() + tuples.len() * width;
        sums[i].resize(new, 0.0);
        live.extend(i, block.first_slots[i], tuples.drain(..));
    }
}

impl FactorizedGmm {
    /// Trains a GMM over the normalized relations without materializing the join
    /// and without repeating dimension-side computation.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &GmmConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<GmmFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        // Kernels invoked under a parallel policy on this thread fan out to
        // exactly the resolved thread count while training runs.
        let _kernel_threads = ex.kernel_thread_scope();
        // The resolved observability mode governs instrumentation on every
        // thread this run touches (pool workers, storage scans).
        let _obs = ex.obs_scope();
        spec.validate(db)?;
        let sizes = spec.feature_partition(db)?;
        let partition = BlockPartition::new(&sizes);
        let d = partition.total_dim();
        let n = spec.fact_relation(db)?.lock().num_tuples();
        let k = config.k;

        let mut model = GmmInit::new(ex.seed, config.init_spread).from_relations(db, spec, k)?;
        assert_eq!(model.dim(), d, "initial model dimension mismatch");
        // Created after the init scan so event 0's I/O delta covers exactly
        // the first EM iteration — the same bracketing as the M/S trainers
        // (whose notifier is created inside the shared dense driver).
        let probe = db.stats().io_probe();
        let mut notifier = FitNotifier::new(exec, Some(&probe));
        let mut log_likelihood = Vec::with_capacity(config.max_iters);
        let mut iterations = 0;
        let mut gammas: Vec<f64> = Vec::with_capacity(n as usize * k);

        // Kernels inside the per-chunk workers run single-threaded; parallelism
        // lives at the fact-chunk level, and only engages when per-fact work is
        // large enough to amortize the fan-out.
        let par = ex.kernel_policy.is_parallel() && k * d * d >= PAR_MIN_GROUP_FLOPS;
        let run = Run {
            db,
            spec,
            block_pages: ex.block_pages,
            workers: ex.workers(par),
            kp: ex.kernel_policy.sequential(),
            auto_sparse: ex.sparse == SparseMode::Auto,
            k,
            d_s: sizes[0],
            q: sizes.len() - 1,
            partition,
        };

        // Filled during the first E-step (no extra scan — F-GMM reads exactly
        // the same pages as S-GMM) and read by every later pass and iteration.
        let mut fact_reps = RepCache::new(ex.sparse);
        let mut dim_reps: Vec<RepCache> = (0..run.q).map(|_| RepCache::new(ex.sparse)).collect();

        for _iter in 0..config.max_iters {
            let it = run.iteration(&model, config.ridge);
            gammas.clear();
            let (nk, ll) = run.e_step(&it, &mut fact_reps, &mut dim_reps, &mut gammas)?;
            fact_reps.finish_fill();
            for reps in &mut dim_reps {
                reps.finish_fill();
            }
            let mean_sums = run.mean_pass(&gammas, &fact_reps, &dim_reps)?;
            let new_means = means_from_sums(&nk, &mean_sums);
            let new_means_split: Vec<Vec<Vec<f64>>> = new_means
                .iter()
                .map(|m| {
                    run.partition
                        .split(m.as_slice())
                        .into_iter()
                        .map(|s| s.to_vec())
                        .collect()
                })
                .collect();
            let scatter = run.scatter_pass(&gammas, &new_means_split, &fact_reps, &dim_reps)?;
            model = finalize_m_step(&nk, mean_sums, scatter, n, config.ridge);
            iterations += 1;
            notifier.notify(ll);

            let prev = log_likelihood.last().copied();
            log_likelihood.push(ll);
            if converged(prev, ll, config.tol) {
                break;
            }
        }

        Ok(GmmFit {
            model,
            iterations,
            log_likelihood,
            n_tuples: n,
            elapsed: start.elapsed(),
        })
    }
}

impl Run<'_> {
    fn scan(&self) -> StoreResult<JoinScan> {
        JoinScan::new(self.db, self.spec, self.block_pages)
    }

    /// The iteration's constants: `O(k·d²)` once, so the per-slot and per-fact
    /// hot paths run pure gathers on the sparse path.
    fn iteration(&self, model: &crate::GmmModel, ridge: f64) -> Iteration {
        let pre = Precomputed::from_model(model, ridge);
        let forms = pre.block_forms_with(&self.partition, self.kp);
        let means_split = pre.split_means(&self.partition);
        let (sparse_pre, fact_pre) = if self.auto_sparse {
            (
                SparseFormPre::build_all(
                    &forms,
                    &means_split,
                    self.partition.num_blocks(),
                    self.kp,
                ),
                forms
                    .iter()
                    .enumerate()
                    .map(|(c, form)| {
                        SparseFormPre::build_diag(form, 0, &means_split[c][0], self.kp)
                    })
                    .collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        Iteration {
            pre,
            forms,
            means_split,
            sparse_pre,
            fact_pre,
        }
    }

    /// E-step terms of one dimension tuple of partition block `block`.
    /// Sparse tuples compute the diagonal and cross terms through the mean
    /// decomposition (gathers only).
    fn slot_terms(
        &self,
        it: &Iteration,
        block: usize,
        x: &[f64],
        rep: Option<&SparseRep>,
    ) -> SlotTerms {
        let needs_pd = self.q > 1;
        let mut terms = SlotTerms {
            diag: Vec::with_capacity(self.k),
            cross: Vec::with_capacity(self.k),
            pd: Vec::with_capacity(if needs_pd { self.k } else { 0 }),
            mu_dot_cross: OnceLock::new(),
        };
        for c in 0..self.k {
            let form = &it.forms[c];
            let center = || centered(x, &it.means_split[c][block]);
            let w = match rep {
                Some(rep) => {
                    let pre = &it.sparse_pre[c][block - 1];
                    terms.diag.push(pre.diag_term(form, block, rep));
                    if needs_pd {
                        terms.pd.push(center());
                    }
                    pre.cross_vector(form, block, rep, self.kp)
                }
                None => {
                    let pd = center();
                    terms.diag.push(form.term(block, block, &pd, &pd));
                    let mut w = form.block_times(0, block, &pd);
                    let w2 = gemm::matvec_transposed_with(self.kp, form.block(block, 0), &pd);
                    vector::axpy(1.0, &w2, &mut w);
                    if needs_pd {
                        terms.pd.push(pd);
                    }
                    w
                }
            };
            terms.cross.push(w);
        }
        terms
    }

    /// Pass 1: responsibilities (appended to `gammas` in fact scan order),
    /// `N_k` and the log-likelihood.
    fn e_step(
        &self,
        it: &Iteration,
        fact_reps: &mut RepCache,
        dim_reps: &mut [RepCache],
        gammas: &mut Vec<f64>,
    ) -> StoreResult<(Vec<f64>, f64)> {
        let (k, d_s, q) = (self.k, self.d_s, self.q);
        let mut nk = vec![0.0; k];
        let mut ll = 0.0;
        let mut terms: SlotArena<SlotTerms> = SlotArena::new(q);
        let mut fact_base = 0usize;
        for block in self.scan()? {
            let block = block?;
            for (i, reps) in dim_reps.iter_mut().enumerate() {
                let first = block.first_slots[i];
                let new = reps.map_rows(
                    self.workers,
                    first,
                    &block.dims[i],
                    |t| &t.features,
                    |t, rep| self.slot_terms(it, i + 1, &t.features, rep),
                );
                terms.extend(i, first, new);
            }
            let (terms_ref, facts) = (&terms, &*fact_reps);
            let parts = par_chunks_with_threads(self.workers, block.facts.len(), 1, |range| {
                let mut seg = facts.segment(fact_base + range.start);
                let mut local_gammas = Vec::with_capacity(range.len() * k);
                let mut local_nk = vec![0.0; k];
                let mut local_ll = 0.0;
                let mut log_dens = vec![0.0; k];
                let mut pd_s = vec![0.0; d_s];
                let mut slots: Vec<&SlotTerms> = Vec::with_capacity(q);
                for f in range {
                    let fact = &block.facts[f];
                    slots.clear();
                    slots.extend(
                        block
                            .fact_slots(f)
                            .iter()
                            .enumerate()
                            .map(|(i, &s)| terms_ref.get(i, s)),
                    );
                    let s_rep = seg.rep_or_detect(fact_base + f, &fact.features);
                    for (c, ld) in log_dens.iter_mut().enumerate() {
                        let form = &it.forms[c];
                        let mut quad = match s_rep {
                            Some(rep) => it.fact_pre[c].diag_term(form, 0, rep),
                            None => {
                                vector::sub_into(&fact.features, &it.means_split[c][0], &mut pd_s);
                                form.term(0, 0, &pd_s, &pd_s)
                            }
                        };
                        for t in &slots {
                            quad += match s_rep {
                                Some(rep) => {
                                    let mu_dot = t.mu_dot_cross.get_or_init(|| {
                                        (0..k)
                                            .map(|c| {
                                                vector::dot(&it.means_split[c][0], &t.cross[c])
                                            })
                                            .collect()
                                    });
                                    rep.gather_dot(&t.cross[c]) - mu_dot[c]
                                }
                                None => vector::dot(&pd_s, &t.cross[c]),
                            };
                            quad += t.diag[c];
                        }
                        // Cross terms between distinct dimension blocks (star joins).
                        for (i, ti) in slots.iter().enumerate() {
                            for (j, tj) in slots.iter().enumerate() {
                                if i != j {
                                    quad += form.term(i + 1, j + 1, &ti.pd[c], &tj.pd[c]);
                                }
                            }
                        }
                        *ld = it.pre.log_norm[c] - 0.5 * quad;
                    }
                    let (resp, tuple_ll) = it.pre.finish_responsibilities(&mut log_dens);
                    vector::axpy(1.0, &resp, &mut local_nk);
                    local_ll += tuple_ll;
                    local_gammas.extend_from_slice(&resp);
                }
                (local_gammas, local_nk, local_ll, seg.into_detected())
            });
            for (local_gammas, local_nk, local_ll, detected) in parts {
                gammas.extend_from_slice(&local_gammas);
                vector::axpy(1.0, &local_nk, &mut nk);
                ll += local_ll;
                fact_reps.merge(detected);
            }
            fact_base += block.facts.len();
            if block.closes_slots {
                terms.close();
            }
        }
        Ok((nk, ll))
    }

    /// Pass 2: `Σ γ x` per component — the fact part per tuple, the dimension
    /// part once per slot from the slot's responsibility mass.
    fn mean_pass(
        &self,
        gammas: &[f64],
        fact_reps: &RepCache,
        dim_reps: &[RepCache],
    ) -> StoreResult<Vec<Vector>> {
        let (k, d_s, q) = (self.k, self.d_s, self.q);
        let mut mean_sums = vec![Vector::zeros(self.partition.total_dim()); k];
        let mut live: SlotArena<Tuple> = SlotArena::new(q);
        // Per slot: Σ γ_c over the facts referencing it.
        let mut slot_gamma: Vec<Vec<f64>> = vec![Vec::new(); q];
        let mut fact_base = 0usize;
        for block in self.scan()? {
            let mut block = block?;
            open_slots(&mut block, &mut live, &mut slot_gamma, k);
            let live_ref = &live;
            let parts = par_chunks_with_threads(self.workers, block.facts.len(), 1, |range| {
                let mut local = vec![vec![0.0; d_s]; k];
                let mut local_slots = slot_sums(live_ref, q, k);
                for f in range {
                    let pos = fact_base + f;
                    let g = &gammas[pos * k..(pos + 1) * k];
                    match fact_reps.get(pos) {
                        Some(rep) => {
                            for c in 0..k {
                                rep.axpy_into(g[c], &mut local[c]);
                            }
                        }
                        None => {
                            for c in 0..k {
                                vector::axpy(g[c], &block.facts[f].features, &mut local[c]);
                            }
                        }
                    }
                    for (i, &slot) in block.fact_slots(f).iter().enumerate() {
                        let at = (slot - live_ref.first_slot(i)) * k;
                        vector::axpy(1.0, g, &mut local_slots[i][at..at + k]);
                    }
                }
                (local, local_slots)
            });
            for (local, local_slots) in parts {
                for c in 0..k {
                    vector::axpy(1.0, &local[c], &mut mean_sums[c].as_mut_slice()[..d_s]);
                }
                merge_slot_sums(&mut slot_gamma, &local_slots);
            }
            fact_base += block.facts.len();
            if block.closes_slots {
                // Dimension part: one scatter-add per active index for sparse
                // tuples, one AXPY otherwise.
                for i in 0..q {
                    let range = self.partition.range(i + 1);
                    let first = live.first_slot(i);
                    for (j, tuple) in live.live(i).iter().enumerate() {
                        let sums = &slot_gamma[i][j * k..(j + 1) * k];
                        for c in 0..k {
                            let out = &mut mean_sums[c].as_mut_slice()[range.clone()];
                            match dim_reps[i].get(first + j) {
                                Some(rep) => rep.axpy_into(sums[c], out),
                                None => vector::axpy(sums[c], &tuple.features, out),
                            }
                        }
                    }
                    slot_gamma[i].clear();
                }
                live.close();
            }
        }
        Ok(mean_sums)
    }

    /// Pass 3: the scatter matrices around the new means.  The fact block and
    /// the blocks between distinct dimensions accumulate per fact; each slot
    /// then adds its fact×dimension and dimension-diagonal blocks once, from
    /// its responsibility mass `Σ γ` and weighted sum `Σ γ·PD_S`.
    fn scatter_pass(
        &self,
        gammas: &[f64],
        means: &[Vec<Vec<f64>>],
        fact_reps: &RepCache,
        dim_reps: &[RepCache],
    ) -> StoreResult<Vec<Matrix>> {
        let (k, d_s, q) = (self.k, self.d_s, self.q);
        let new_scatter = || -> Vec<BlockScatter> {
            (0..k)
                .map(|_| BlockScatter::new_with(self.partition.clone(), self.kp))
                .collect()
        };
        let mut scatter = new_scatter();
        let mut fact_acc: Vec<SparseDiagAcc> = (0..k).map(|_| SparseDiagAcc::new(d_s)).collect();
        let mut dim_acc: Vec<Vec<SparseScatterAcc>> = (0..q)
            .map(|i| {
                (0..k)
                    .map(|_| SparseScatterAcc::new(d_s, self.partition.size(i + 1)))
                    .collect()
            })
            .collect();
        // Per slot and component, in one flat record of `width` values:
        // `Σ γ`, then `Σ γ·PD_S` over its dense facts, then `Σ γ·x_S` and
        // `Σ γ` over its sparse facts — folded into the dense sum once per
        // slot (`Σ γ(x−µ) = Σ γx − (Σ γ)µ`).
        let width = 2 * k + 2 * k * d_s;
        let (wpd, wsp, wsp_gamma) = (k, k + k * d_s, k + 2 * k * d_s);
        let mut live: SlotArena<Tuple> = SlotArena::new(q);
        // Centered dimension vectors under the new means, for the blocks
        // between distinct dimensions (star joins only).
        let mut pd_new: SlotArena<Vec<Vec<f64>>> = SlotArena::new(q);
        let mut aggs: Vec<Vec<f64>> = vec![Vec::new(); q];
        let mut fact_base = 0usize;
        for block in self.scan()? {
            let mut block = block?;
            if q > 1 {
                for (i, tuples) in block.dims.iter().enumerate() {
                    let pds = tuples.iter().map(|t| {
                        (0..k)
                            .map(|c| centered(&t.features, &means[c][i + 1]))
                            .collect()
                    });
                    pd_new.extend(i, block.first_slots[i], pds);
                }
            }
            open_slots(&mut block, &mut live, &mut aggs, width);
            let (live_ref, pd_ref) = (&live, &pd_new);
            let parts = par_chunks_with_threads(self.workers, block.facts.len(), 1, |range| {
                let mut local = new_scatter();
                let mut local_fact: Vec<SparseDiagAcc> =
                    (0..k).map(|_| SparseDiagAcc::new(d_s)).collect();
                let mut local_aggs = slot_sums(live_ref, q, width);
                let mut pd_s = vec![0.0; d_s];
                for f in range {
                    let pos = fact_base + f;
                    let g = &gammas[pos * k..(pos + 1) * k];
                    let fact = &block.facts[f];
                    let slots = block.fact_slots(f);
                    let rep = fact_reps.get(pos);
                    for c in 0..k {
                        match rep {
                            // Fact block: raw γ·x xᵀ pair scatter; the mean
                            // corrections apply once per pass.
                            Some(rep) => local_fact[c].record(&mut local[c], 0, g[c], rep),
                            None => {
                                vector::sub_into(&fact.features, &means[c][0], &mut pd_s);
                                local[c].add_outer(0, 0, g[c], &pd_s, &pd_s);
                            }
                        }
                        for (i, &slot) in slots.iter().enumerate() {
                            let at = (slot - live_ref.first_slot(i)) * width;
                            let agg = &mut local_aggs[i][at..at + width];
                            agg[c] += g[c];
                            match rep {
                                Some(rep) => {
                                    rep.axpy_into(
                                        g[c],
                                        &mut agg[wsp + c * d_s..wsp + (c + 1) * d_s],
                                    );
                                    agg[wsp_gamma + c] += g[c];
                                }
                                None => vector::axpy(
                                    g[c],
                                    &pd_s,
                                    &mut agg[wpd + c * d_s..wpd + (c + 1) * d_s],
                                ),
                            }
                        }
                        // Blocks between distinct dimensions (star joins).
                        for (i, &si) in slots.iter().enumerate() {
                            for (j, &sj) in slots.iter().enumerate() {
                                if i != j {
                                    let (pi, pj) = (&pd_ref.get(i, si)[c], &pd_ref.get(j, sj)[c]);
                                    local[c].add_outer(i + 1, j + 1, g[c], pi, pj);
                                }
                            }
                        }
                    }
                }
                (local, local_fact, local_aggs)
            });
            for (local, local_fact, local_aggs) in parts {
                for c in 0..k {
                    scatter[c].merge_from(&local[c]);
                    fact_acc[c].merge_from(&local_fact[c]);
                }
                merge_slot_sums(&mut aggs, &local_aggs);
            }
            fact_base += block.facts.len();
            if !block.closes_slots {
                continue;
            }
            for i in 0..q {
                let first = live.first_slot(i);
                for (j, tuple) in live.live(i).iter().enumerate() {
                    let agg = &mut aggs[i][j * width..(j + 1) * width];
                    for c in 0..k {
                        let (gamma, sparse_gamma) = (agg[c], agg[wsp_gamma + c]);
                        let (dense, sparse) = agg[wpd..].split_at_mut(k * d_s);
                        let w = &mut dense[c * d_s..(c + 1) * d_s];
                        if self.auto_sparse {
                            vector::axpy(1.0, &sparse[c * d_s..(c + 1) * d_s], w);
                            vector::axpy(-sparse_gamma, &means[c][0], w);
                        }
                        match dim_reps[i].get(first + j) {
                            // Sparse raw-x scatters; the mean corrections are
                            // applied once after the pass.
                            Some(rep) => {
                                dim_acc[i][c].record(&mut scatter[c], i + 1, gamma, w, rep)
                            }
                            None => {
                                let pd = centered(&tuple.features, &means[c][i + 1]);
                                scatter[c].add_outer(0, i + 1, 1.0, w, &pd);
                                scatter[c].add_outer(i + 1, 0, 1.0, &pd, w);
                                scatter[c].add_outer(i + 1, i + 1, gamma, &pd, &pd);
                            }
                        }
                    }
                }
                aggs[i].clear();
            }
            live.close();
            pd_new.close();
        }
        for (i, accs) in dim_acc.iter().enumerate() {
            for (c, acc) in accs.iter().enumerate() {
                acc.finalize(&mut scatter[c], i + 1, &means[c][i + 1]);
            }
        }
        for (c, acc) in fact_acc.iter().enumerate() {
            acc.finalize(&mut scatter[c], 0, &means[c][0]);
        }
        Ok(scatter.into_iter().map(BlockScatter::into_matrix).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialized::MaterializedGmm;
    use crate::streaming::StreamingGmm;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;

    fn workload(n_s: u64, n_r: u64, d_s: usize, d_r: usize, k: usize) -> fml_data::Workload {
        SyntheticConfig {
            n_s,
            n_r,
            d_s,
            d_r,
            k,
            noise_std: 0.8,
            with_target: false,
            seed: 21,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn factorized_matches_materialized_and_streaming() {
        let w = workload(400, 16, 2, 4, 2);
        let config = GmmConfig {
            k: 2,
            max_iters: 5,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            m.model.max_param_diff(&f.model) < 1e-7,
            "M vs F diff {}",
            m.model.max_param_diff(&f.model)
        );
        assert!(s.model.max_param_diff(&f.model) < 1e-7);
        assert_eq!(m.iterations, f.iterations);
        // log-likelihood traces agree too
        for (a, b) in m.log_likelihood.iter().zip(f.log_likelihood.iter()) {
            assert!((a - b).abs() / a.abs().max(1.0) < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn factorized_matches_on_wider_dimension_tables() {
        // Larger d_R relative to d_S is where the factorization matters most.
        let w = workload(300, 10, 3, 12, 3);
        let config = GmmConfig {
            k: 3,
            max_iters: 4,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-7);
    }

    #[test]
    fn log_likelihood_monotone() {
        let w = workload(300, 12, 2, 5, 2);
        let config = GmmConfig {
            k: 2,
            max_iters: 8,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        for pair in f.log_likelihood.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-6, "{:?}", f.log_likelihood);
        }
    }

    #[test]
    fn early_stopping_applies() {
        let w = workload(200, 10, 2, 3, 2);
        let config = GmmConfig {
            k: 2,
            max_iters: 60,
            tol: 1e-3,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(f.iterations < 60);
        assert_eq!(f.iterations, f.log_likelihood.len());
    }

    #[test]
    fn dispatches_multiway_specs() {
        let w = MultiwayConfig {
            n_s: 200,
            d_s: 2,
            dims: vec![DimSpec::new(8, 2), DimSpec::new(4, 3)],
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 2,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 2,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert_eq!(f.model.dim(), 7);
    }

    #[test]
    fn multiway_factorized_matches_materialized() {
        let w = MultiwayConfig {
            n_s: 400,
            d_s: 2,
            dims: vec![DimSpec::new(12, 3), DimSpec::new(6, 4)],
            k: 2,
            noise_std: 0.7,
            with_target: false,
            seed: 17,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 4,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            m.model.max_param_diff(&f.model) < 1e-7,
            "M vs F diff {}",
            m.model.max_param_diff(&f.model)
        );
        assert!(s.model.max_param_diff(&f.model) < 1e-7);
    }

    #[test]
    fn multiway_with_three_dimension_tables() {
        let w = MultiwayConfig {
            n_s: 300,
            d_s: 1,
            dims: vec![DimSpec::new(10, 2), DimSpec::new(5, 3), DimSpec::new(4, 2)],
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 8,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 3,
            ..GmmConfig::default()
        };
        let m = MaterializedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-7);
        assert_eq!(f.model.dim(), 8);
    }

    #[test]
    fn log_likelihood_monotone_multiway() {
        let w = MultiwayConfig {
            n_s: 300,
            d_s: 2,
            dims: vec![DimSpec::new(9, 2), DimSpec::new(6, 2)],
            k: 2,
            noise_std: 0.5,
            with_target: false,
            seed: 13,
        }
        .generate()
        .unwrap();
        let config = GmmConfig {
            k: 2,
            max_iters: 6,
            ..GmmConfig::default()
        };
        let f = FactorizedGmm::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        for pair in f.log_likelihood.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-6);
        }
    }
}
