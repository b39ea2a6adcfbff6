//! `S-NN`: join on the fly each epoch, feed the denormalized tuples to the
//! unchanged trainer.

use crate::materialized::ensure_has_target;
use crate::mlp::Mlp;
use crate::trainer::{train_supervised_from, NnConfig, NnFit, SupervisedSource};
use fml_linalg::exec::ExecPolicy;
use fml_store::factorized_scan::JoinScan;
use fml_store::{Database, JoinSpec, StoreResult};
use std::time::Instant;

/// The streaming (join-on-the-fly) NN training strategy.
pub struct StreamingNn;

impl StreamingNn {
    /// Trains the network joining the base relations on the fly each epoch.
    pub fn train(
        db: &Database,
        spec: &JoinSpec,
        config: &NnConfig,
        exec: &ExecPolicy,
    ) -> StoreResult<NnFit> {
        let start = Instant::now();
        let ex = exec.resolve();
        spec.validate(db)?;
        ensure_has_target(db, spec)?;
        let d = spec.total_features(db)?;
        let initial = Mlp::new(d, &config.hidden, config.activation, ex.seed);
        let probe = db.stats().io_probe();
        let mut source = StreamSupervisedSource::new(db, spec.clone(), ex.block_pages)?;
        let mut fit = train_supervised_from(&mut source, config, exec, initial, Some(&probe))?;
        fit.elapsed = start.elapsed();
        Ok(fit)
    }
}

/// Supervised source over the join scan: denormalizes every fact on the fly.
pub struct StreamSupervisedSource<'a> {
    db: &'a Database,
    spec: JoinSpec,
    block_pages: usize,
    dim: usize,
    n: u64,
}

impl<'a> StreamSupervisedSource<'a> {
    /// Creates the source.
    pub fn new(db: &'a Database, spec: JoinSpec, block_pages: usize) -> StoreResult<Self> {
        spec.validate(db)?;
        let dim = spec.total_features(db)?;
        let n = spec.fact_relation(db)?.lock().num_tuples();
        Ok(Self {
            db,
            spec,
            block_pages,
            dim,
            n,
        })
    }
}

impl SupervisedSource for StreamSupervisedSource<'_> {
    fn for_each(&mut self, f: &mut dyn FnMut(&[f64], f64)) -> StoreResult<()> {
        JoinScan::new(self.db, &self.spec, self.block_pages)?.for_each_joined(
            |joined| {
                f(&joined.features, joined.target.unwrap_or(0.0));
                Ok(())
            },
            |_| {},
        )
    }

    fn num_tuples(&self) -> u64 {
        self.n
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialized::MaterializedNn;
    use fml_data::multiway::{DimSpec, MultiwayConfig};
    use fml_data::SyntheticConfig;

    #[test]
    fn streaming_matches_materialized_binary() {
        let w = SyntheticConfig {
            n_s: 250,
            n_r: 10,
            d_s: 2,
            d_r: 4,
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 9,
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
        assert!(
            m.model.max_param_diff(&s.model) < 1e-9,
            "M-NN vs S-NN diff {}",
            m.model.max_param_diff(&s.model)
        );
        for (a, b) in m.loss_trace.iter().zip(s.loss_trace.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn streaming_multiway() {
        let w = MultiwayConfig {
            n_s: 200,
            d_s: 2,
            dims: vec![DimSpec::new(10, 2), DimSpec::new(5, 3)],
            k: 2,
            noise_std: 0.5,
            with_target: true,
            seed: 12,
        }
        .generate()
        .unwrap();
        let config = NnConfig {
            hidden: vec![6],
            epochs: 3,
            ..NnConfig::default()
        };
        let m = MaterializedNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        let s = StreamingNn::train(&w.db, &w.spec, &config, &ExecPolicy::new()).unwrap();
        assert!(m.model.max_param_diff(&s.model) < 1e-9);
        assert_eq!(s.model.input_dim(), 7);
    }
}
