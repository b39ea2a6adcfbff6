//! The three workloads: how each is generated from the seed, the execution
//! policy it runs under, and the shape it must keep.

use fml_core::fml_data::{EmulatedDataset, SyntheticConfig, Workload};
use fml_core::prelude::{ExecPolicy, KernelPolicy};

/// GMM components `K` (the paper's default).
pub const GMM_K: usize = 5;
/// EM iterations per GMM fit (`tol = 0`, so every strategy runs all of them).
pub const GMM_ITERS: usize = 2;
/// Hidden width `n_h` of the NN (the paper's default).
pub const NN_HIDDEN: usize = 50;
/// Epochs per NN fit.
pub const NN_EPOCHS: usize = 2;

/// `binary-dense`: dimension-table cardinality.  At `d_R = 15` a page holds
/// 63 `R` tuples, so 4 200 tuples span 67 pages: more than one 64-page join
/// block, so `S` is re-read once per block.
const DENSE_N_R: u64 = 4_200;
/// `binary-dense`: tuple ratio `n_S / n_R`.
const DENSE_RR: u64 = 20;
/// `binary-onehot`: scale of emulated Walmart (Sparse).
const ONEHOT_SCALE: f64 = 0.012;
/// `star-3way`: scale of emulated Movies-3way.
const STAR_SCALE: f64 = 0.03;

/// One benchmark workload.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// The base execution policy every fit and score runs under.
    pub exec: ExecPolicy,
    /// Generates the workload's database from a seed.
    build: fn(u64) -> Workload,
    /// Expected `(n_S, n_{R_1})` after generation.
    expect: (u64, u64),
    /// The tuple ratio at the paper's full scale, which the scaled-down
    /// workload must keep within 1 %.
    paper_rr: f64,
}

impl WorkloadDef {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<WorkloadDef> {
        let onehot = EmulatedDataset::WalmartSparse.shape();
        let star = EmulatedDataset::Movies3Way.shape();
        let def = match name {
            "binary-dense" => WorkloadDef {
                name: "binary-dense",
                exec: ExecPolicy::new(),
                build: build_binary_dense,
                expect: (DENSE_N_R * DENSE_RR, DENSE_N_R),
                paper_rr: DENSE_RR as f64,
            },
            "binary-onehot" => WorkloadDef {
                name: "binary-onehot",
                exec: ExecPolicy::new(),
                build: build_binary_onehot,
                expect: (
                    scaled(onehot.n_s, ONEHOT_SCALE),
                    scaled(onehot.dims[0].0, ONEHOT_SCALE),
                ),
                paper_rr: onehot.n_s as f64 / onehot.dims[0].0 as f64,
            },
            "star-3way" => WorkloadDef {
                name: "star-3way",
                exec: ExecPolicy::new()
                    .kernel_policy(KernelPolicy::BlockedParallel)
                    .threads(2),
                build: build_star_3way,
                expect: (
                    scaled(star.n_s, STAR_SCALE),
                    scaled(star.dims[0].0, STAR_SCALE),
                ),
                paper_rr: star.n_s as f64 / star.dims[0].0 as f64,
            },
            _ => return None,
        };
        Some(def)
    }

    /// Generates the workload and checks that it has the expected shape: the
    /// exact fact and dimension cardinalities, and a tuple ratio within 1 %
    /// of the paper's.
    pub fn build(&self, seed: u64) -> Result<Workload, String> {
        let w = (self.build)(seed);
        let n_s = w.n_fact().map_err(|e| e.to_string())?;
        let n_r = w.n_dim(0).map_err(|e| e.to_string())?;
        let rr = w.tuple_ratio().map_err(|e| e.to_string())?;
        if (n_s, n_r) != self.expect {
            return Err(format!(
                "{}: generated n_S={n_s}, n_R={n_r}, expected {:?}",
                self.name, self.expect
            ));
        }
        if (rr - self.paper_rr).abs() > 0.01 * self.paper_rr {
            return Err(format!(
                "{}: tuple ratio {rr} is not the paper's {}",
                self.name, self.paper_rr
            ));
        }
        Ok(w)
    }
}

/// The emulated generator's count scaling (`round(n·scale)`).
fn scaled(n: u64, scale: f64) -> u64 {
    (n as f64 * scale).round() as u64
}

fn build_binary_dense(seed: u64) -> Workload {
    SyntheticConfig {
        n_s: 0,
        n_r: DENSE_N_R,
        d_s: 5,
        d_r: 15,
        k: GMM_K,
        noise_std: 1.0,
        with_target: true,
        seed,
    }
    .with_tuple_ratio(DENSE_RR)
    .generate()
    .expect("generate binary-dense")
}

fn build_binary_onehot(seed: u64) -> Workload {
    EmulatedDataset::WalmartSparse
        .generate(ONEHOT_SCALE, seed)
        .expect("generate binary-onehot")
}

fn build_star_3way(seed: u64) -> Workload {
    EmulatedDataset::Movies3Way
        .generate(STAR_SCALE, seed)
        .expect("generate star-3way")
}
