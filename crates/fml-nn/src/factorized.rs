//! `F-NN`: back-propagation pushed through the join (Sections VI-A and VI-B).
//!
//! With `q` dimension tables the first layer splits along the relation
//! partition `[x_S x_{R_1} … x_{R_q}]` (Equations 31–32, which reduce to the
//! binary split of Section VI-A for `q = 1`):
//!
//! * **Forward, first layer**: the pre-activation splits as
//!   `a¹ = W¹_S·x_S + b¹ + Σ_i W¹_{R_i}·x_{R_i}`.  Each partial product
//!   `W¹_{R_i}·x_{R_i}` depends only on one dimension tuple and the
//!   (epoch-constant) weights, so it is computed once per dimension tuple per
//!   epoch — once per *slot* of the join scan's fact blocks
//!   ([`fml_store::factorized_scan`]) — and reused for every matching fact.
//! * **Forward/backward, layers ≥ 2**: evaluated exactly as in the dense variants
//!   — the paper shows that sharing computation there is only exact for additive
//!   activations and never cheaper (see [`crate::layer_reuse`]).
//! * **Backward, first layer**: `∂E/∂W¹ = δ¹·xᵀ = [PG_S  PG_{R_1} … PG_{R_q}]`
//!   (Equations 29, 32).  The fact block accumulates per tuple; each dimension
//!   block accumulates the per-slot sum of `δ¹` and performs a single outer
//!   product with `x_{R_i}` per dimension tuple.  Either way the features are
//!   read from the base relations (`n_S·d_S + n_R·d_R` fields instead of
//!   `N·d`), the I/O saving of Section VI-A3.
//!
//! Sparse tuples (one-hot or weighted CSR, detected once per tuple and cached
//! in [`RepCache`]s — facts by scan position, dimension tuples by slot) run the
//! first-layer products as column gathers and scatter-adds.  Each scan block's
//! new slots and facts are chunked over the worker pool; per-chunk gradients
//! merge in chunk order.

use crate::materialized::ensure_has_target;
use crate::mlp::Mlp;
use crate::trainer::{NnConfig, NnFit};
use fml_linalg::block::BlockPartition;
use fml_linalg::exec::{ExecPolicy, FitNotifier};
use fml_linalg::policy::par_chunks_with_threads;
use fml_linalg::repcache::RepCache;
use fml_linalg::{gemm, vector, Matrix};
use fml_store::factorized_scan::{JoinScan, SlotArena};
use fml_store::{Database, JoinSpec, StoreResult, Tuple};
use std::time::Instant;

/// Minimum per-example work (≈ `4·|θ|` flops) below which the parallel policy
/// processes a block's facts inline instead of fanning out (mirrors the GMM
/// trainer's gate).
const PAR_MIN_GROUP_FLOPS: usize = 1 << 12;

/// The factorized NN training strategy (the paper's proposal).
pub struct FactorizedNn;

impl FactorizedNn {
    /// Trains the network without materializing the join, reusing the
    /// dimension-side first-layer computation.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        // Kernels invoked under a parallel policy on this thread fan out to
        // exactly the resolved thread count while training runs.
        let _kernel_threads = ex.kernel_thread_scope();
        // The resolved observability mode governs instrumentation on every
        // thread this run touches (pool workers, storage scans).
        let _obs = ex.obs_scope();
        spec.validate(db)?;
        ensure_has_target(db, spec)?;
        let sizes = spec.feature_partition(db)?;
        let partition = BlockPartition::new(&sizes);
        let d_s = sizes[0];
        let q = sizes.len() - 1;
        let n = spec.fact_relation(db)?.lock().num_tuples();
        assert!(n > 0, "cannot train on an empty source");
        let mut model = Mlp::new(
            partition.total_dim(),
            &config.hidden,
            config.activation,
            ex.seed,
        );
        let mut loss_trace = Vec::with_capacity(config.epochs);
        let probe = db.stats().io_probe();
        let mut notifier = FitNotifier::new(exec, Some(&probe));
        let kp = ex.kernel_policy.sequential();
        // Fan out over fact chunks only when per-example work can amortize
        // the dispatch.
        let par = ex.kernel_policy.is_parallel() && 4 * model.num_params() >= PAR_MIN_GROUP_FLOPS;
        let workers = ex.workers(par);

        // Per-tuple representation caches (one-hot / weighted CSR / dense),
        // filled during the first epoch's scan — detection runs at most once
        // per tuple for the whole training run instead of once per epoch.
        let mut fact_reps = RepCache::new(ex.sparse);
        let mut dim_reps: Vec<RepCache> = (0..q).map(|_| RepCache::new(ex.sparse)).collect();

        for _epoch in 0..config.epochs {
            // Weights are constant within an epoch (full-batch update at the end),
            // so the column split of W¹ is hoisted out of the scan.
            let nh = model.layers()[0].out_dim();
            let w1 = &model.layers()[0].weights;
            let w1_blocks: Vec<Matrix> = (0..=q)
                .map(|b| {
                    let r = partition.range(b);
                    w1.sub_block(0, nh, r.start, r.end)
                })
                .collect();
            let b1 = model.layers()[0].bias.clone();

            let mut grads = model.zero_grads();
            // First-layer weight gradient, accumulated block-wise.
            let mut grad_w1: Vec<Matrix> = sizes.iter().map(|&s| Matrix::zeros(nh, s)).collect();
            let mut loss_sum = 0.0;
            // Per slot: the partial product W¹_{R_i}·x_{R_i} (a column gather
            // when x_{R_i} is sparse) and the running sum of first-layer deltas.
            let mut partials: SlotArena<Vec<f64>> = SlotArena::new(q);
            let mut live: SlotArena<Tuple> = SlotArena::new(q);
            let mut delta_sums: Vec<Vec<f64>> = vec![Vec::new(); q];
            let mut fact_base = 0usize;
            for block in JoinScan::new(db, spec, ex.block_pages)? {
                let mut block = block?;
                for (i, reps) in dim_reps.iter_mut().enumerate() {
                    let first = block.first_slots[i];
                    let w = &w1_blocks[i + 1];
                    let new = reps.map_rows(
                        workers,
                        first,
                        &block.dims[i],
                        |t| &t.features,
                        |t, rep| match rep {
                            Some(rep) => rep.matvec(kp, w),
                            None => gemm::matvec_with(kp, w, &t.features),
                        },
                    );
                    partials.extend(i, first, new);
                    let len = delta_sums[i].len() + block.dims[i].len() * nh;
                    delta_sums[i].resize(len, 0.0);
                    live.extend(i, first, block.dims[i].drain(..));
                }
                let (partials_ref, live_ref, facts) = (&partials, &live, &fact_reps);
                let parts = par_chunks_with_threads(workers, block.facts.len(), 1, |range| {
                    let mut local_grads = model.zero_grads();
                    let mut local_w_s = Matrix::zeros(nh, d_s);
                    let mut local_deltas: Vec<Vec<f64>> = (0..q)
                        .map(|i| vec![0.0; live_ref.live(i).len() * nh])
                        .collect();
                    let mut seg = facts.segment(fact_base + range.start);
                    let mut local_loss = 0.0;
                    for f in range {
                        let fact = &block.facts[f];
                        let slots = block.fact_slots(f);
                        // ---- forward, first layer (factorized) ----
                        let s_rep = seg.rep_or_detect(fact_base + f, &fact.features);
                        let mut a1 = match s_rep {
                            Some(rep) => rep.matvec(kp, &w1_blocks[0]),
                            None => gemm::matvec_with(kp, &w1_blocks[0], &fact.features),
                        };
                        vector::axpy(1.0, &b1, &mut a1);
                        for (i, &slot) in slots.iter().enumerate() {
                            vector::axpy(1.0, partials_ref.get(i, slot), &mut a1);
                        }
                        let mut h1 = a1.clone();
                        model.layers()[0].activation.apply_slice(&mut h1);
                        // ---- forward, remaining layers (dense) ----
                        let mut trace_layers = Vec::with_capacity(model.layers().len());
                        trace_layers.push((a1, h1));
                        for layer in &model.layers()[1..] {
                            let (a, h) =
                                layer.forward_with(kp, &trace_layers[trace_layers.len() - 1].1);
                            trace_layers.push((a, h));
                        }
                        let trace = crate::mlp::ForwardTrace {
                            layers: trace_layers,
                        };
                        // ---- backward ----
                        let y = fact.target.unwrap_or(0.0);
                        let (delta1, loss) =
                            model.backward_factorized_with(kp, &trace, y, &mut local_grads);
                        local_loss += loss;
                        // PG_S: per fact tuple — scatter-add into the active
                        // columns for sparse x_S.
                        match s_rep {
                            Some(rep) => rep.ger_cols(kp, 1.0, &delta1, &mut local_w_s),
                            None => {
                                gemm::ger_with(kp, 1.0, &delta1, &fact.features, &mut local_w_s)
                            }
                        }
                        for (i, &slot) in slots.iter().enumerate() {
                            let at = (slot - live_ref.first_slot(i)) * nh;
                            vector::axpy(1.0, &delta1, &mut local_deltas[i][at..at + nh]);
                        }
                    }
                    (
                        local_grads,
                        local_w_s,
                        local_deltas,
                        local_loss,
                        seg.into_detected(),
                    )
                });
                for (local_grads, local_w_s, local_deltas, local_loss, detected) in parts {
                    for (dst, src) in grads.iter_mut().zip(local_grads.iter()) {
                        dst.merge_from(src);
                    }
                    grad_w1[0].add_assign(&local_w_s);
                    for (total, part) in delta_sums.iter_mut().zip(&local_deltas) {
                        vector::axpy(1.0, part, total);
                    }
                    loss_sum += local_loss;
                    fact_reps.merge(detected);
                }
                fact_base += block.facts.len();
                if block.closes_slots {
                    // PG_{R_i}: one outer product (a column scatter-add for
                    // sparse tuples) per dimension tuple.
                    for i in 0..q {
                        let first = live.first_slot(i);
                        for (j, tuple) in live.live(i).iter().enumerate() {
                            let delta_sum = &delta_sums[i][j * nh..(j + 1) * nh];
                            match dim_reps[i].get(first + j) {
                                Some(rep) => rep.ger_cols(kp, 1.0, delta_sum, &mut grad_w1[i + 1]),
                                None => gemm::ger_with(
                                    kp,
                                    1.0,
                                    delta_sum,
                                    &tuple.features,
                                    &mut grad_w1[i + 1],
                                ),
                            }
                        }
                        delta_sums[i].clear();
                    }
                    live.close();
                    partials.close();
                }
            }
            fact_reps.finish_fill();
            for reps in &mut dim_reps {
                reps.finish_fill();
            }

            // Assemble the first layer's weight gradient from its q+1 blocks.
            for (b, gw) in grad_w1.iter().enumerate() {
                let offset = partition.offset(b);
                for i in 0..nh {
                    for j in 0..sizes[b] {
                        grads[0].d_weights[(i, offset + j)] += gw[(i, j)];
                    }
                }
            }
            model.apply_grads(&grads, config.learning_rate, n as f64);
            loss_trace.push(loss_sum / n as f64);
            notifier.notify(loss_sum / n as f64);
        }

        Ok(NnFit {
            model,
            epochs: config.epochs,
            loss_trace,
            n_tuples: n,
            elapsed: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use crate::materialized::MaterializedNn;
    use crate::streaming::StreamingNn;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;

    fn workload(n_s: u64, n_r: u64, d_s: usize, d_r: usize) -> fml_data::Workload {
        SyntheticConfig {
            n_s,
            n_r,
            d_s,
            d_r,
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 19,
        }
        .generate()
        .unwrap()
    }

    #[test]
    fn factorized_matches_materialized_and_streaming() {
        let w = workload(300, 12, 2, 5);
        for act in [Activation::Sigmoid, Activation::Tanh, Activation::Relu] {
            let config = NnConfig {
                hidden: vec![7],
                epochs: 4,
                activation: act,
                ..NnConfig::default()
            };
            let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
            let s = StreamingNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
            let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
            assert!(
                m.model.max_param_diff(&f.model) < 1e-9,
                "{act:?}: M vs F diff {}",
                m.model.max_param_diff(&f.model)
            );
            assert!(s.model.max_param_diff(&f.model) < 1e-9);
            for (a, b) in m.loss_trace.iter().zip(f.loss_trace.iter()) {
                assert!((a - b).abs() < 1e-9, "loss traces diverged: {a} vs {b}");
            }
        }
    }

    #[test]
    fn factorized_matches_with_two_hidden_layers() {
        let w = workload(200, 10, 3, 6);
        let config = NnConfig {
            hidden: vec![6, 4],
            epochs: 3,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-9);
    }

    #[test]
    fn loss_decreases_during_training() {
        let w = workload(400, 16, 2, 4);
        let config = NnConfig {
            hidden: vec![10],
            epochs: 30,
            learning_rate: 0.1,
            ..NnConfig::default()
        };
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            f.final_loss() < f.loss_trace[0],
            "loss did not decrease: {:?}",
            f.loss_trace
        );
    }

    #[test]
    fn factorized_reads_fewer_fields_than_materialized() {
        let w = workload(1000, 10, 2, 10);
        let config = NnConfig {
            hidden: vec![5],
            epochs: 2,
            ..NnConfig::default()
        };
        w.db.stats().reset();
        let _ = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f_fields = w.db.stats().snapshot().fields_read;
        w.db.stats().reset();
        let _ = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let m_fields = w.db.stats().snapshot().fields_read;
        assert!(
            f_fields < m_fields,
            "factorized read {f_fields} fields, materialized {m_fields}"
        );
    }

    #[test]
    fn multiway_factorized_matches_materialized() {
        let w = MultiwayConfig {
            n_s: 300,
            d_s: 2,
            dims: vec![DimSpec::new(12, 3), DimSpec::new(6, 5)],
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 23,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![8],
            epochs: 4,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(
            m.model.max_param_diff(&f.model) < 1e-9,
            "M vs F diff {}",
            m.model.max_param_diff(&f.model)
        );
        assert!(s.model.max_param_diff(&f.model) < 1e-9);
    }

    #[test]
    fn multiway_three_dimensions() {
        let w = MultiwayConfig {
            n_s: 250,
            d_s: 1,
            dims: vec![DimSpec::new(8, 2), DimSpec::new(4, 3), DimSpec::new(3, 2)],
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 29,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![5],
            epochs: 3,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let f = FactorizedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&f.model) < 1e-9);
        assert_eq!(f.model.input_dim(), 8);
    }
}
