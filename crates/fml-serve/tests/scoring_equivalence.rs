//! Scoring-equivalence suite: the factorized batch scorer must equal the
//! materialized-join scoring oracle **bit for bit** (`f64::to_bits`) for both
//! model families, across all three training strategies, every
//! [`KernelPolicy`], sparse and dense modes, and binary as well as star
//! joins.  The streaming strategy sits in between (same row arithmetic, no
//! materialization) and must agree bitwise too.

use fml_core::prelude::*;
use fml_core::Session;
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::SyntheticConfig;
use fml_gmm::Precomputed;
use fml_serve::prelude::*;

fn dense_workload(with_target: bool) -> fml_data::Workload {
    SyntheticConfig {
        n_s: 240,
        n_r: 12,
        d_s: 3,
        d_r: 5,
        k: 2,
        noise_std: 0.7,
        with_target,
        seed: 11,
    }
    .generate()
    .unwrap()
}

/// A star join mixing every block flavor: dense fact block, a categorical
/// (one-hot) dimension, a near-sparse numeric (CSR) dimension and a dense
/// dimension — so the sparse dispatch is exercised per representation.
fn mixed_star_workload(with_target: bool) -> fml_data::Workload {
    MultiwayConfig {
        n_s: 200,
        d_s: 2,
        dims: vec![
            DimSpec::categorical(10, 8),
            DimSpec::sparse_numeric(6, 12, 2),
            DimSpec::new(5, 3),
        ],
        k: 2,
        noise_std: 0.6,
        with_target,
        seed: 23,
    }
    .generate()
    .unwrap()
}

/// A binary join whose dimension block is categorical (one-hot).
fn categorical_binary_workload(with_target: bool) -> fml_data::Workload {
    MultiwayConfig {
        n_s: 220,
        d_s: 2,
        dims: vec![DimSpec::categorical(12, 10)],
        k: 2,
        noise_std: 0.6,
        with_target,
        seed: 31,
    }
    .generate()
    .unwrap()
}

fn exec(kp: KernelPolicy, sparse: SparseMode) -> ExecPolicy {
    ExecPolicy::new()
        .kernel_policy(kp)
        .sparse_mode(sparse)
        .seed(7)
}

fn gmm_bits(s: &Scores<GmmScore>) -> Vec<(u64, usize, u64)> {
    s.clone()
        .into_sorted_by_key()
        .into_iter()
        .map(|(k, r)| (k, r.cluster, r.log_likelihood.to_bits()))
        .collect()
}

fn nn_bits(s: &Scores<f64>) -> Vec<(u64, u64)> {
    s.clone()
        .into_sorted_by_key()
        .into_iter()
        .map(|(k, r)| (k, r.to_bits()))
        .collect()
}

/// Factorized == materialized == streaming, bit for bit, for a GMM over one
/// workload under one policy/mode pair.
fn assert_gmm_equivalence(w: &fml_data::Workload, kp: KernelPolicy, sparse: SparseMode) {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(kp, sparse));
    let trained = session.fit(Gmm::with_k(2).iterations(2)).unwrap();
    let n = w.n_fact().unwrap() as usize;
    let f = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let m = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Materialized))
        .unwrap();
    let s = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Streaming))
        .unwrap();
    assert_eq!(f.len(), n, "{kp:?}/{sparse:?}: every fact row is scored");
    assert_eq!(
        gmm_bits(&f),
        gmm_bits(&m),
        "{kp:?}/{sparse:?}: factorized must equal the materialized oracle bit for bit"
    );
    assert_eq!(
        gmm_bits(&f),
        gmm_bits(&s),
        "{kp:?}/{sparse:?}: factorized must equal streaming bit for bit"
    );
    assert!(f.rows.iter().all(|r| r.log_likelihood.is_finite()));
    assert!(f.rows.iter().all(|r| r.cluster < 2));
}

fn assert_nn_equivalence(w: &fml_data::Workload, kp: KernelPolicy, sparse: SparseMode) {
    let session = Session::new(&w.db).join(&w.spec).exec(exec(kp, sparse));
    let trained = session.fit(Nn::with_hidden(6).epochs(2)).unwrap();
    let n = w.n_fact().unwrap() as usize;
    let f = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let m = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Materialized))
        .unwrap();
    let s = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Streaming))
        .unwrap();
    assert_eq!(f.len(), n, "{kp:?}/{sparse:?}: every fact row is scored");
    assert_eq!(
        nn_bits(&f),
        nn_bits(&m),
        "{kp:?}/{sparse:?}: factorized must equal the materialized oracle bit for bit"
    );
    assert_eq!(
        nn_bits(&f),
        nn_bits(&s),
        "{kp:?}/{sparse:?}: factorized must equal streaming bit for bit"
    );
    assert!(f.rows.iter().all(|o| o.is_finite()));
}

#[test]
fn gmm_binary_dense_every_policy_and_mode() {
    let w = dense_workload(false);
    for kp in KernelPolicy::ALL {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_gmm_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn gmm_binary_categorical_every_policy_and_mode() {
    let w = categorical_binary_workload(false);
    for kp in KernelPolicy::ALL {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_gmm_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn gmm_star_mixed_blocks_every_policy_and_mode() {
    let w = mixed_star_workload(false);
    for kp in KernelPolicy::ALL {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_gmm_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn nn_binary_dense_every_policy_and_mode() {
    let w = dense_workload(true);
    for kp in KernelPolicy::ALL {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_nn_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn nn_binary_categorical_every_policy_and_mode() {
    let w = categorical_binary_workload(true);
    for kp in KernelPolicy::ALL {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_nn_equivalence(&w, kp, sparse);
        }
    }
}

#[test]
fn nn_star_mixed_blocks_every_policy_and_mode() {
    let w = mixed_star_workload(true);
    for kp in KernelPolicy::ALL {
        for sparse in [SparseMode::Auto, SparseMode::Dense] {
            assert_nn_equivalence(&w, kp, sparse);
        }
    }
}

/// Models trained with *each* of the three training strategies score
/// identically through the factorized and oracle paths — the scorer is
/// agnostic to how the fit was produced.
#[test]
fn every_training_strategy_scores_equivalently() {
    let w = dense_workload(true);
    let session = Session::new(&w.db).join(&w.spec);
    for alg in Algorithm::all() {
        let gmm = session
            .fit(Gmm::with_k(2).iterations(2).algorithm(alg))
            .unwrap();
        let f = session
            .score_with(&gmm, &Scoring::new().algorithm(Algorithm::Factorized))
            .unwrap();
        let m = session
            .score_with(&gmm, &Scoring::new().algorithm(Algorithm::Materialized))
            .unwrap();
        assert_eq!(gmm_bits(&f), gmm_bits(&m), "GMM trained with {alg}");

        let nn = session
            .fit(Nn::with_hidden(5).epochs(2).algorithm(alg))
            .unwrap();
        let f = session
            .score_with(&nn, &Scoring::new().algorithm(Algorithm::Factorized))
            .unwrap();
        let m = session
            .score_with(&nn, &Scoring::new().algorithm(Algorithm::Materialized))
            .unwrap();
        assert_eq!(nn_bits(&f), nn_bits(&m), "NN trained with {alg}");
    }
}

/// The factorized scorer's outputs agree with the dense per-row reference
/// computations (`GmmModel::predict_batch` on the joined rows, `Mlp::predict`
/// per joined row) to floating-point tolerance — the block decomposition
/// regroups additions but never approximates.
#[test]
fn scores_match_dense_reference_within_tolerance() {
    let w = dense_workload(true);
    let session = Session::new(&w.db).join(&w.spec);
    let gmm = session.fit(Gmm::with_k(2).iterations(2)).unwrap();
    let nn = session.fit(Nn::with_hidden(5).epochs(2)).unwrap();
    let gmm_scores = session.score(&gmm).unwrap();
    let nn_scores = session.score(&nn).unwrap();

    // Densify the join via the storage engine and score with the dense APIs.
    let table = fml_core::fml_store::join::materialize_join(&w.db, &w.spec, "T_ref", 16).unwrap();
    let mut rows: Vec<fml_core::fml_store::Tuple> = Vec::new();
    for batch in fml_core::fml_store::batch::BatchScan::new(table, 16) {
        rows.extend(batch.unwrap());
    }
    rows.sort_by_key(|t| t.key);

    let pre = Precomputed::from_model(&gmm.fit.model, 0.0);
    let batch = gmm
        .fit
        .model
        .predict_batch(rows.iter().map(|t| t.features.as_slice()), &pre);
    let sorted = gmm_scores.into_sorted_by_key();
    assert_eq!(sorted.len(), rows.len());
    for (i, ((key, score), t)) in sorted.iter().zip(rows.iter()).enumerate() {
        assert_eq!(*key, t.key);
        assert_eq!(score.cluster, batch.assignments[i], "row {i}");
        let diff = (score.log_likelihood - batch.log_likelihoods[i]).abs();
        assert!(diff < 1e-9, "row {i}: ll diff {diff}");
    }

    let sorted = nn_scores.into_sorted_by_key();
    for ((key, out), t) in sorted.iter().zip(rows.iter()) {
        assert_eq!(*key, t.key);
        let reference = nn.fit.model.predict(&t.features);
        assert!((out - reference).abs() < 1e-9, "key {key}");
    }
}

/// Per-batch [`ScoreTrace`] telemetry: every batch reports its rows, the row
/// total covers the join, batches perform I/O, and elapsed is cumulative.
#[test]
fn score_observer_sees_per_batch_events() {
    let w = dense_workload(false);
    let session = Session::new(&w.db).join(&w.spec);
    let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    for alg in Algorithm::all() {
        let trace = ScoreTrace::new();
        let scores = session
            .score_with(
                &trained,
                &Scoring::new().algorithm(alg).observe(trace.clone()),
            )
            .unwrap();
        let events = trace.events();
        assert!(!events.is_empty(), "{alg}: at least one batch");
        assert_eq!(trace.total_rows(), scores.len() as u64, "{alg}");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.batch, i, "{alg}: batch indexes are consecutive");
        }
        assert!(
            events.iter().any(|e| e.pages_io > 0),
            "{alg}: scoring must report storage I/O: {events:?}"
        );
        for pair in events.windows(2) {
            assert!(pair[1].elapsed >= pair[0].elapsed, "{alg}");
        }
        // the run-level accounting is consistent with the strategy
        assert_eq!(scores.strategy, alg);
        assert!(scores.io.pages_read > 0, "{alg}");
        if alg == Algorithm::Materialized {
            assert!(scores.io.pages_written > 0, "materialization writes pages");
        } else {
            assert_eq!(scores.io.pages_written, 0, "{alg} must not write");
        }
    }
}

/// The factorized scorer reads strictly fewer feature fields than the
/// materialized oracle — the Section VI-A3 I/O saving carries over to
/// inference.
#[test]
fn factorized_scoring_reads_fewer_fields_than_materialized() {
    let w = SyntheticConfig {
        n_s: 600,
        n_r: 10,
        d_s: 2,
        d_r: 12,
        k: 2,
        noise_std: 0.6,
        with_target: false,
        seed: 3,
    }
    .generate()
    .unwrap();
    let session = Session::new(&w.db).join(&w.spec);
    let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let f = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Factorized))
        .unwrap();
    let m = session
        .score_with(&trained, &Scoring::new().algorithm(Algorithm::Materialized))
        .unwrap();
    assert!(
        f.io.fields_read < m.io.fields_read,
        "factorized read {} fields, materialized {}",
        f.io.fields_read,
        m.io.fields_read
    );
    assert!(f.io.total_page_io() < m.io.total_page_io());
}

/// `.threads(n)` reaches the scoring path (the kernel thread scope is
/// installed), and scoring under the parallel policy with different thread
/// counts stays bit-identical — the sparse kernels only split
/// output-disjoint row bands.
#[test]
fn scoring_is_stable_across_thread_counts() {
    let w = dense_workload(false);
    let base = Session::new(&w.db).join(&w.spec);
    let trained = base.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let score_with_threads = |n: usize| {
        base.clone()
            .exec(
                ExecPolicy::new()
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .threads(n),
            )
            .score(&trained)
            .unwrap()
    };
    let one = score_with_threads(1);
    let four = score_with_threads(4);
    assert_eq!(gmm_bits(&one), gmm_bits(&four));
}

/// The pool fan-out is bit-identical to the one-worker run — including scan
/// order, not just sorted content — for both families, both join shapes,
/// both sparse modes, at every tested worker count.  Together with the
/// suites above (factorized == materialized oracle) this closes the chain:
/// parallel factorized == the oracle, bit for bit, at any thread count.
#[test]
fn parallel_fanout_is_bit_identical_at_every_worker_count() {
    for sparse in [SparseMode::Auto, SparseMode::Dense] {
        // Binary join (group-chunked fan-out), GMM.
        let w = dense_workload(true);
        let base = Session::new(&w.db).join(&w.spec);
        let gmm = base.fit(Gmm::with_k(2).iterations(2)).unwrap();
        let nn = base.fit(Nn::with_hidden(6).epochs(2)).unwrap();
        let star = mixed_star_workload(true);
        let star_base = Session::new(&star.db).join(&star.spec);
        let star_gmm = star_base.fit(Gmm::with_k(2).iterations(2)).unwrap();
        let star_nn = star_base.fit(Nn::with_hidden(6).epochs(2)).unwrap();
        for (name, session, g, n) in [
            ("binary", &base, &gmm, &nn),
            ("star", &star_base, &star_gmm, &star_nn),
        ] {
            let exec_with = |threads: usize| {
                ExecPolicy::new()
                    .sparse_mode(sparse)
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .threads(threads)
            };
            let seq_g = session.clone().exec(exec_with(1)).score(g).unwrap();
            let seq_n = session.clone().exec(exec_with(1)).score(n).unwrap();
            for threads in [1usize, 2, 4] {
                let par_g = session.clone().exec(exec_with(threads)).score(g).unwrap();
                let par_n = session.clone().exec(exec_with(threads)).score(n).unwrap();
                assert_eq!(
                    par_g.keys, seq_g.keys,
                    "{name}/{sparse:?}/{threads}t: GMM scan order must survive the chunk merge"
                );
                let seq_bits: Vec<(usize, u64)> = seq_g
                    .rows
                    .iter()
                    .map(|r| (r.cluster, r.log_likelihood.to_bits()))
                    .collect();
                let par_bits: Vec<(usize, u64)> = par_g
                    .rows
                    .iter()
                    .map(|r| (r.cluster, r.log_likelihood.to_bits()))
                    .collect();
                assert_eq!(
                    par_bits, seq_bits,
                    "{name}/{sparse:?}/{threads}t: GMM fan-out must be bit-identical"
                );
                assert_eq!(
                    par_n.keys, seq_n.keys,
                    "{name}/{sparse:?}/{threads}t: NN order"
                );
                let seq_bits: Vec<u64> = seq_n.rows.iter().map(|o| o.to_bits()).collect();
                let par_bits: Vec<u64> = par_n.rows.iter().map(|o| o.to_bits()).collect();
                assert_eq!(
                    par_bits, seq_bits,
                    "{name}/{sparse:?}/{threads}t: NN fan-out must be bit-identical"
                );
            }
        }
    }
}

/// Counting probe through the serve surface: under the parallel policy with
/// `.threads(4)`, the observer sees exactly one batch per chunk — four for
/// the binary join's 240 facts, four for the star join's 200 facts (one scan
/// block each, `chunk_ranges(n, 4, 1)`) — and the batches cover every row.
/// Pins that the fan-out actually engages (rather than silently collapsing
/// to one chunk) and that observers keep firing from the scoring thread.
#[test]
fn parallel_fanout_notifies_one_batch_per_chunk() {
    let binary = dense_workload(false);
    let star = mixed_star_workload(false);
    for (name, w) in [("binary", &binary), ("star", &star)] {
        let session = Session::new(&w.db).join(&w.spec).exec(
            ExecPolicy::new()
                .kernel_policy(KernelPolicy::BlockedParallel)
                .threads(4),
        );
        let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
        let trace = ScoreTrace::new();
        let scores = session
            .score_with(&trained, &Scoring::new().observe(trace.clone()))
            .unwrap();
        let events = trace.events();
        assert_eq!(events.len(), 4, "{name}: one observer batch per chunk");
        assert_eq!(trace.total_rows(), scores.len() as u64, "{name}");
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.batch, i, "{name}: batch indexes are consecutive");
        }
        // With one worker, the same run scores each scan block as a single
        // chunk (a single block at this size).
        let trace = ScoreTrace::new();
        session
            .clone()
            .exec(
                ExecPolicy::new()
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .threads(1),
            )
            .score_with(&trained, &Scoring::new().observe(trace.clone()))
            .unwrap();
        assert_eq!(trace.events().len(), 1, "{name}: one chunk per block");
        assert_eq!(
            trace.total_rows(),
            scores.len() as u64,
            "{name}: the one-worker run covers the same rows"
        );
    }
}

/// Scoring runs dispatched *as tasks of an outer pool region* — each itself
/// fanning out over the pool with parallel kernels requested — complete and
/// stay bit-identical.  This is the nested shape help-first draining exists
/// for: a concurrent server scoring many requests over one shared pool.
#[test]
fn scoring_inside_a_pool_region_does_not_deadlock() {
    let w = dense_workload(false);
    let base = Session::new(&w.db).join(&w.spec);
    let trained = base.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let seq_bits = gmm_bits(&base.score(&trained).unwrap());
    let results = fml_linalg::policy::par_chunks_with_threads(2, 2, 1, |_| {
        base.clone()
            .exec(
                ExecPolicy::new()
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .threads(4),
            )
            .score(&trained)
            .unwrap()
    });
    assert_eq!(results.len(), 2);
    for scores in &results {
        assert_eq!(
            gmm_bits(scores),
            seq_bits,
            "nested scoring must match the sequential bits"
        );
    }
}

/// A degenerate model (singular covariance — e.g. a collapsed component or a
/// hand-edited persisted file) is repaired with the trainers' default ridge
/// at scoring time instead of panicking in the public API.
#[test]
fn scoring_repairs_degenerate_covariances_instead_of_panicking() {
    let w = dense_workload(false);
    let session = Session::new(&w.db).join(&w.spec);
    let mut trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let d = trained.fit.model.dim();
    trained.fit.model.covariances[0] = fml_linalg::Matrix::zeros(d, d);
    let scores = session.score(&trained).unwrap();
    assert_eq!(scores.len(), w.n_fact().unwrap() as usize);
    assert!(scores.rows.iter().all(|r| r.log_likelihood.is_finite()));
}

#[test]
#[should_panic(expected = "Session::score requires a join")]
fn scoring_without_join_panics() {
    let w = dense_workload(false);
    let session = Session::new(&w.db).join(&w.spec);
    let trained = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
    let _ = Session::new(&w.db).score(&trained);
}

#[test]
#[should_panic(expected = "model dimension mismatch")]
fn scoring_a_model_over_the_wrong_join_panics() {
    let w = dense_workload(false);
    let other = SyntheticConfig {
        n_s: 100,
        n_r: 5,
        d_s: 1,
        d_r: 2,
        k: 2,
        noise_std: 0.5,
        with_target: false,
        seed: 9,
    }
    .generate()
    .unwrap();
    let trained = Session::new(&w.db)
        .join(&w.spec)
        .fit(Gmm::with_k(2).iterations(1))
        .unwrap();
    let _ = Session::new(&other.db).join(&other.spec).score(&trained);
}
