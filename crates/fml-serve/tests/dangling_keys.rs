//! One pinned semantics for dangling foreign keys: a fact whose foreign key
//! matches no dimension tuple makes every strategy (M, S, F) of both model
//! families fail with `StoreError::DanglingForeignKey`, for fitting and for
//! scoring, on binary and star joins alike — never a silently dropped row.

use fml_core::fml_store::{StoreError, Tuple};
use fml_core::prelude::*;
use fml_core::Session;
use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::SyntheticConfig;
use fml_serve::prelude::*;

/// A binary join whose `R` spans several one-page join blocks, so the group
/// scan only knows a key is missing after probing its last block.
fn binary() -> fml_data::Workload {
    SyntheticConfig {
        n_s: 400,
        n_r: 300,
        d_s: 2,
        d_r: 15,
        k: 2,
        noise_std: 0.6,
        with_target: true,
        seed: 5,
    }
    .generate()
    .unwrap()
}

fn star() -> fml_data::Workload {
    MultiwayConfig {
        n_s: 300,
        d_s: 2,
        dims: vec![DimSpec::new(10, 2), DimSpec::new(6, 3)],
        k: 2,
        noise_std: 0.6,
        with_target: true,
        seed: 6,
    }
    .generate()
    .unwrap()
}

/// Appends one fact whose last foreign key references no dimension tuple.
fn add_dangling_fact(w: &fml_data::Workload) {
    let fact = w.spec.fact_relation(&w.db).unwrap();
    let mut fact = fact.lock();
    let q = w.spec.num_dimensions();
    let d_s = fact.schema().num_features;
    let mut fks = vec![0; q];
    fks[q - 1] = 1 << 40;
    let t = Tuple::fact_with_target(fact.num_tuples() + 1_000_000, fks, 0.0, vec![0.5; d_s]);
    fact.append_all(&[t]).unwrap();
}

fn assert_dangling<T>(what: &str, result: Result<T, StoreError>) {
    match result {
        Err(StoreError::DanglingForeignKey { key, .. }) => assert_eq!(key, 1 << 40, "{what}"),
        Err(e) => panic!("{what}: expected DanglingForeignKey, got {e}"),
        Ok(_) => panic!("{what}: expected DanglingForeignKey, got Ok"),
    }
}

#[test]
fn every_strategy_rejects_dangling_foreign_keys() {
    for (shape, w) in [("binary", binary()), ("star", star())] {
        let session = Session::new(&w.db)
            .join(&w.spec)
            .exec(ExecPolicy::new().block_pages(1));
        // Models trained before the bad row arrives, to score with after.
        let gmm = session.fit(Gmm::with_k(2).iterations(1)).unwrap();
        let nn = session.fit(Nn::with_hidden(4).epochs(1)).unwrap();
        add_dangling_fact(&w);
        for alg in Algorithm::all() {
            assert_dangling(
                &format!("{shape} GMM-{alg} fit"),
                session.fit(Gmm::with_k(2).iterations(1).algorithm(alg)),
            );
            assert_dangling(
                &format!("{shape} NN-{alg} fit"),
                session.fit(Nn::with_hidden(4).epochs(1).algorithm(alg)),
            );
            let opts = Scoring::new().algorithm(alg);
            assert_dangling(
                &format!("{shape} GMM-{alg} score"),
                session.score_with(&gmm, &opts),
            );
            assert_dangling(
                &format!("{shape} NN-{alg} score"),
                session.score_with(&nn, &opts),
            );
        }
    }
}
