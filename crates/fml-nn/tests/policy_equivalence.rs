//! Cross-policy integration tests: every training variant must learn the same
//! network under every kernel policy (the policies reorder floating-point
//! additions but never change the computation).

use fml_data::multiway::{DimSpec, MultiwayConfig};
use fml_data::SyntheticConfig;
use fml_linalg::{ExecPolicy, KernelPolicy};
use fml_nn::{FactorizedNn, MaterializedNn, NnConfig, StreamingNn};

#[test]
fn policies_learn_the_same_network_binary() {
    let w = SyntheticConfig {
        n_s: 250,
        n_r: 10,
        d_s: 2,
        d_r: 5,
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 41,
    }
    .generate()
    .unwrap();
    let base = NnConfig {
        hidden: vec![6],
        epochs: 3,
        ..NnConfig::default()
    };
    let reference = MaterializedNn::train(
        &w.db,
        &w.spec,
        &base,
        &ExecPolicy::new().kernel_policy(KernelPolicy::Naive),
    )
    .unwrap();
    for policy in KernelPolicy::ALL {
        let exec = ExecPolicy::new().kernel_policy(policy);
        let m = MaterializedNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        let s = StreamingNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        let f = FactorizedNn::train(&w.db, &w.spec, &base, &exec).unwrap();
        for (label, fit) in [("M", &m), ("S", &s), ("F", &f)] {
            let diff = reference.model.max_param_diff(&fit.model);
            assert!(
                diff < 1e-8,
                "{label}-NN under {policy} diverged from naive reference: {diff}"
            );
        }
    }
}

#[test]
fn policies_learn_the_same_network_multiway() {
    let w = MultiwayConfig {
        n_s: 200,
        d_s: 2,
        dims: vec![DimSpec::new(8, 2), DimSpec::new(4, 3)],
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 43,
    }
    .generate()
    .unwrap();
    let base = NnConfig {
        hidden: vec![5],
        epochs: 3,
        ..NnConfig::default()
    };
    let reference = FactorizedNn::train(
        &w.db,
        &w.spec,
        &base,
        &ExecPolicy::new().kernel_policy(KernelPolicy::Naive),
    )
    .unwrap();
    for policy in [KernelPolicy::Blocked, KernelPolicy::BlockedParallel] {
        let f = FactorizedNn::train(
            &w.db,
            &w.spec,
            &base,
            &ExecPolicy::new().kernel_policy(policy),
        )
        .unwrap();
        let diff = reference.model.max_param_diff(&f.model);
        assert!(
            diff < 1e-8,
            "F-NN under {policy} diverged on a star join: {diff}"
        );
    }
}

#[test]
fn parallel_fanout_engages_at_larger_networks() {
    // hidden=[128] gives ~1281 parameters, clearing both NN fan-out gates
    // (4·|θ| ≥ 4096 for the factorized group path, 4·|θ|·batch ≥ 2²² for the
    // dense batch path), so the gradient-merge machinery actually runs.
    let w = SyntheticConfig {
        n_s: 200,
        n_r: 10,
        d_s: 2,
        d_r: 5,
        k: 2,
        noise_std: 0.5,
        with_target: true,
        seed: 47,
    }
    .generate()
    .unwrap();
    let base = NnConfig {
        hidden: vec![128],
        epochs: 2,
        ..NnConfig::default()
    };
    for train in [MaterializedNn::train, FactorizedNn::train] {
        let blocked = train(
            &w.db,
            &w.spec,
            &base,
            &ExecPolicy::new().kernel_policy(KernelPolicy::Blocked),
        )
        .unwrap();
        let parallel = train(
            &w.db,
            &w.spec,
            &base,
            &ExecPolicy::new().kernel_policy(KernelPolicy::BlockedParallel),
        )
        .unwrap();
        let diff = blocked.model.max_param_diff(&parallel.model);
        assert!(diff < 1e-8, "engaged parallel NN diverged: {diff}");
    }
}
