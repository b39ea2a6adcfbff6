//! PK/FK equi-joins: specification, dimension caching and materialization.
//!
//! The fact table `S` carries one foreign key per dimension table `R_i`
//! (`S.FK_i → R_i.RID`).  [`JoinSpec`] names the participating relations;
//! [`materialize_join`] produces the denormalized table `T` used by the `M-*`
//! algorithms; [`DimCache`] loads the (small) dimension tables into memory so the
//! streaming / factorized scans can resolve foreign keys without re-reading pages
//! for every fact tuple.

use crate::catalog::{Database, RelationHandle};
use crate::error::{StoreError, StoreResult};
use crate::factorized_scan::{GroupScan, StarScan};
use crate::schema::Schema;
use crate::tuple::Tuple;
use std::collections::HashMap;

/// Names the relations participating in a star join.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinSpec {
    /// Fact relation `S` (holds the foreign keys and, for NN training, the target).
    pub fact: String,
    /// Dimension relations `R_1 … R_q`; `S.FK_i` references `dimensions[i]`.
    pub dimensions: Vec<String>,
}

impl JoinSpec {
    /// Binary join `R ⋈ S`.
    pub fn binary(fact: impl Into<String>, dimension: impl Into<String>) -> Self {
        Self {
            fact: fact.into(),
            dimensions: vec![dimension.into()],
        }
    }

    /// Multi-way join `R_1 ⋈ … ⋈ R_q ⋈ S`.
    pub fn multiway(fact: impl Into<String>, dimensions: Vec<String>) -> Self {
        Self {
            fact: fact.into(),
            dimensions,
        }
    }

    /// Number of dimension tables (`q`).
    pub fn num_dimensions(&self) -> usize {
        self.dimensions.len()
    }

    /// Resolves the fact relation handle.
    pub fn fact_relation(&self, db: &Database) -> StoreResult<RelationHandle> {
        db.relation(&self.fact)
    }

    /// Resolves all dimension relation handles, in join order.
    pub fn dimension_relations(&self, db: &Database) -> StoreResult<Vec<RelationHandle>> {
        self.dimensions.iter().map(|d| db.relation(d)).collect()
    }

    /// Validates that the relations exist and the fact table has one foreign key
    /// per dimension table.
    pub fn validate(&self, db: &Database) -> StoreResult<()> {
        let fact = self.fact_relation(db)?;
        let nfk = fact.lock().schema().num_foreign_keys;
        if nfk != self.dimensions.len() {
            return Err(StoreError::SchemaMismatch {
                relation: self.fact.clone(),
                detail: format!(
                    "fact table has {} foreign keys but the join names {} dimension tables",
                    nfk,
                    self.dimensions.len()
                ),
            });
        }
        for d in &self.dimensions {
            db.relation(d)?;
        }
        Ok(())
    }

    /// Schema of the materialized join result.
    pub fn result_schema(&self, db: &Database, name: impl Into<String>) -> StoreResult<Schema> {
        let fact = self.fact_relation(db)?;
        let dims = self.dimension_relations(db)?;
        let dim_schemas: Vec<Schema> = dims.iter().map(|d| d.lock().schema().clone()).collect();
        let dim_refs: Vec<&Schema> = dim_schemas.iter().collect();
        let fact_guard = fact.lock();
        Ok(fact_guard.schema().join_result(name, &dim_refs))
    }

    /// Total feature dimensionality `d = d_S + Σ d_{R_i}` of the joined tuples.
    pub fn total_features(&self, db: &Database) -> StoreResult<usize> {
        let fact = self.fact_relation(db)?;
        let dims = self.dimension_relations(db)?;
        let mut d = fact.lock().schema().num_features;
        for dim in dims {
            d += dim.lock().schema().num_features;
        }
        Ok(d)
    }

    /// Per-relation feature sizes `[d_S, d_{R_1}, …, d_{R_q}]` — the block
    /// partition the factorized algorithms operate on.
    pub fn feature_partition(&self, db: &Database) -> StoreResult<Vec<usize>> {
        let fact = self.fact_relation(db)?;
        let dims = self.dimension_relations(db)?;
        let mut sizes = vec![fact.lock().schema().num_features];
        for dim in dims {
            sizes.push(dim.lock().schema().num_features);
        }
        Ok(sizes)
    }
}

/// All dimension tables of a join loaded into memory, in scan order.
///
/// Dimension tables are small by construction (`n_R ≪ n_S`); loading them once per
/// training pass is exactly what the paper's streaming and factorized variants do.
/// A tuple's position in its table's scan order is its *slot* in
/// [`crate::factorized_scan::StarScan`]'s fact blocks.
pub struct DimCache {
    tuples: Vec<Vec<Tuple>>,
    slots: Vec<HashMap<u64, usize>>,
    names: Vec<String>,
}

impl DimCache {
    /// Loads every dimension relation, charging the page reads to the shared stats.
    pub fn load(dims: &[RelationHandle]) -> StoreResult<Self> {
        let mut tuples = Vec::with_capacity(dims.len());
        let mut slots = Vec::with_capacity(dims.len());
        let mut names = Vec::with_capacity(dims.len());
        for dim in dims {
            let mut rel = dim.lock();
            names.push(rel.name().to_string());
            let all = rel.read_all()?;
            slots.push(all.iter().enumerate().map(|(i, t)| (t.key, i)).collect());
            tuples.push(all);
        }
        Ok(Self {
            tuples,
            slots,
            names,
        })
    }

    /// Number of dimension tables cached.
    pub fn num_dims(&self) -> usize {
        self.tuples.len()
    }

    /// Number of tuples cached for dimension `i`.
    pub fn dim_len(&self, i: usize) -> usize {
        self.tuples[i].len()
    }

    /// The tuples of dimension `i`, in scan (slot) order.
    pub fn tuples(&self, i: usize) -> &[Tuple] {
        &self.tuples[i]
    }

    /// The slot of the tuple of dimension `i` with primary key `key`.
    ///
    /// # Errors
    /// Returns [`StoreError::DanglingForeignKey`] when no tuple has that key.
    pub fn slot(&self, i: usize, key: u64) -> StoreResult<usize> {
        self.slots
            .get(i)
            .and_then(|m| m.get(&key))
            .copied()
            .ok_or_else(|| StoreError::DanglingForeignKey {
                relation: self.names.get(i).cloned().unwrap_or_default(),
                key,
            })
    }

    /// Resolves the dimension tuples referenced by a fact tuple, in join order.
    ///
    /// # Errors
    /// Returns [`StoreError::DanglingForeignKey`] when a foreign key has no match.
    pub fn resolve<'a>(&'a self, fact: &Tuple) -> StoreResult<Vec<&'a Tuple>> {
        fact.fks
            .iter()
            .enumerate()
            .map(|(i, fk)| Ok(&self.tuples[i][self.slot(i, *fk)?]))
            .collect()
    }
}

/// Materializes the projected join `T(SID, [Y], [x_S x_R1 … x_Rq])` as a new
/// relation named `output`, returning its handle.
///
/// For a **binary** join the implementation follows the paper's block-nested-loop
/// plan with `R` as the outer relation ([`GroupScan`]), appending each match as
/// `S` streams by: `|R| + ⌈|R|/BlockSize⌉·|S|` page reads (Section V-A) plus
/// `|T|` page writes.  For **multi-way** joins the dimension tables are cached in
/// memory ([`StarScan`]) and `S` is scanned once.
///
/// # Errors
/// Returns [`StoreError::DanglingForeignKey`] when a fact's foreign key
/// matches no dimension tuple.
pub fn materialize_join(
    db: &Database,
    spec: &JoinSpec,
    output: impl Into<String>,
    block_pages: usize,
) -> StoreResult<RelationHandle> {
    spec.validate(db)?;
    let output = output.into();
    let schema = spec.result_schema(db, output.clone())?;
    let out_rel = db.create_relation(schema)?;
    {
        let mut out = out_rel.lock();
        let mut joined = Tuple::dimension(0, Vec::new());
        let mut append = |fact: &Tuple, dims: &[&Tuple]| {
            joined.set_joined(fact, dims);
            out.append(&joined)
        };
        if spec.num_dimensions() == 1 {
            GroupScan::from_spec(db, spec, block_pages)?
                .for_each_match(|r_tuple, fact| append(&fact, &[r_tuple]))?;
        } else {
            let scan = StarScan::new(db, spec, block_pages)?;
            for block in scan.blocks() {
                for fact in block? {
                    append(&fact, &scan.cache().resolve(&fact)?)?;
                }
            }
        }
        out.flush()?;
    }
    Ok(out_rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// Builds a tiny star schema: 4 dimension tuples, 12 fact tuples.
    fn star(db: &Database) -> JoinSpec {
        let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
        let s = db
            .create_relation(Schema::fact_with_target("S", 1, 1))
            .unwrap();
        {
            let mut r = r.lock();
            for k in 0..4u64 {
                r.append(&Tuple::dimension(k, vec![k as f64 * 10.0, 1.0]))
                    .unwrap();
            }
            r.flush().unwrap();
        }
        {
            let mut s = s.lock();
            for i in 0..12u64 {
                s.append(&Tuple::fact_with_target(
                    i,
                    vec![i % 4],
                    i as f64,
                    vec![i as f64],
                ))
                .unwrap();
            }
            s.flush().unwrap();
        }
        JoinSpec::binary("S", "R")
    }

    #[test]
    fn spec_validation() {
        let db = Database::in_memory();
        let spec = star(&db);
        assert!(spec.validate(&db).is_ok());
        assert_eq!(spec.num_dimensions(), 1);
        assert_eq!(spec.total_features(&db).unwrap(), 3);
        assert_eq!(spec.feature_partition(&db).unwrap(), vec![1, 2]);

        let bad = JoinSpec::binary("S", "missing");
        assert!(bad.validate(&db).is_err());
        let wrong_arity = JoinSpec::multiway("S", vec!["R".into(), "R".into()]);
        assert!(wrong_arity.validate(&db).is_err());
    }

    #[test]
    fn materialize_binary_join_produces_every_fact_tuple_once() {
        let db = Database::in_memory();
        let spec = star(&db);
        let t = materialize_join(&db, &spec, "T", 4).unwrap();
        let mut t_rel = t.lock();
        assert_eq!(t_rel.num_tuples(), 12);
        let schema = t_rel.schema().clone();
        assert_eq!(schema.num_features, 3);
        assert_eq!(schema.num_foreign_keys, 0);
        assert!(schema.has_target);
        let tuples = t_rel.read_all().unwrap();
        // every joined tuple carries the dimension features of its fk
        for t in &tuples {
            let fk = (t.features[0] as u64) % 4;
            assert_eq!(t.features[1], fk as f64 * 10.0);
            assert_eq!(t.features[2], 1.0);
            assert_eq!(t.target, Some(t.features[0]));
        }
        // keys unique
        let keys: std::collections::HashSet<u64> = tuples.iter().map(|t| t.key).collect();
        assert_eq!(keys.len(), 12);
    }

    #[test]
    fn materialize_multiway_join() {
        let db = Database::in_memory();
        let r1 = db.create_relation(Schema::dimension("users", 2)).unwrap();
        let r2 = db.create_relation(Schema::dimension("movies", 3)).unwrap();
        let s = db
            .create_relation(Schema::fact_with_target("ratings", 1, 2))
            .unwrap();
        for k in 0..5u64 {
            r1.lock()
                .append(&Tuple::dimension(k, vec![k as f64, 0.0]))
                .unwrap();
        }
        for k in 0..3u64 {
            r2.lock()
                .append(&Tuple::dimension(k, vec![0.0, k as f64, 1.0]))
                .unwrap();
        }
        for i in 0..30u64 {
            s.lock()
                .append(&Tuple::fact_with_target(
                    i,
                    vec![i % 5, i % 3],
                    1.0,
                    vec![i as f64],
                ))
                .unwrap();
        }
        r1.lock().flush().unwrap();
        r2.lock().flush().unwrap();
        s.lock().flush().unwrap();

        let spec = JoinSpec::multiway("ratings", vec!["users".into(), "movies".into()]);
        let t = materialize_join(&db, &spec, "T", 8).unwrap();
        let mut t = t.lock();
        assert_eq!(t.num_tuples(), 30);
        assert_eq!(t.schema().num_features, 6);
        let rows = t.read_all().unwrap();
        for row in rows {
            let i = row.features[0] as u64;
            assert_eq!(row.features[1], (i % 5) as f64); // users feature 0
            assert_eq!(row.features[4], (i % 3) as f64); // movies feature 1
        }
    }

    #[test]
    fn dangling_fk_detected_in_multiway() {
        let db = Database::in_memory();
        let r1 = db.create_relation(Schema::dimension("d1", 1)).unwrap();
        let r2 = db.create_relation(Schema::dimension("d2", 1)).unwrap();
        let s = db.create_relation(Schema::fact("f", 1, 2)).unwrap();
        r1.lock().append(&Tuple::dimension(0, vec![0.0])).unwrap();
        r2.lock().append(&Tuple::dimension(0, vec![0.0])).unwrap();
        s.lock()
            .append(&Tuple::fact(0, vec![0, 99], vec![1.0]))
            .unwrap();
        r1.lock().flush().unwrap();
        r2.lock().flush().unwrap();
        s.lock().flush().unwrap();
        let spec = JoinSpec::multiway("f", vec!["d1".into(), "d2".into()]);
        let err = materialize_join(&db, &spec, "T", 4).unwrap_err();
        assert!(matches!(
            err,
            StoreError::DanglingForeignKey { key: 99, .. }
        ));
    }

    #[test]
    fn dangling_fk_detected_in_binary() {
        // Two R blocks of one page each: the fact's missing key is known
        // only once the last block has been probed.
        let db = Database::in_memory();
        let spec = star(&db);
        let r = db.relation("R").unwrap();
        {
            let mut r = r.lock();
            let per_page = r.tuples_per_page() as u64;
            for k in 4..per_page + 4 {
                r.append(&Tuple::dimension(k, vec![0.0, 0.0])).unwrap();
            }
            r.flush().unwrap();
            assert_eq!(r.num_pages(), 2);
        }
        db.relation("S")
            .unwrap()
            .lock()
            .append_all(&[Tuple::fact_with_target(12, vec![1 << 40], 0.0, vec![0.0])])
            .unwrap();
        let r_pages = 2;
        let s_pages = db.relation("S").unwrap().lock().num_pages();
        db.stats().reset();
        let err = materialize_join(&db, &spec, "T", 1).unwrap_err();
        assert!(matches!(
            err,
            StoreError::DanglingForeignKey { key, .. } if key == 1 << 40
        ));
        assert_eq!(
            db.stats().snapshot().pages_read as usize,
            r_pages + r_pages * s_pages,
            "detection reads no extra pages"
        );
    }

    #[test]
    fn dim_cache_resolution() {
        let db = Database::in_memory();
        let spec = star(&db);
        let dims = spec.dimension_relations(&db).unwrap();
        let cache = DimCache::load(&dims).unwrap();
        assert_eq!(cache.num_dims(), 1);
        assert_eq!(cache.dim_len(0), 4);
        assert!(cache.slot(0, 7).is_err());
        assert_eq!(cache.tuples(0).len(), 4);
        assert_eq!(cache.slot(0, 2).unwrap(), 2, "slots follow scan order");

        let fact = Tuple::fact_with_target(0, vec![3], 0.0, vec![0.0]);
        let resolved = cache.resolve(&fact).unwrap();
        assert_eq!(resolved[0].key, 3);

        let dangling = Tuple::fact_with_target(0, vec![9], 0.0, vec![0.0]);
        assert!(cache.resolve(&dangling).is_err());
    }

    #[test]
    fn materialized_join_page_cost_follows_bnl_shape() {
        // With R as outer in blocks, S is re-scanned ceil(|R|/block) times.
        let db = Database::in_memory();
        let spec = star(&db);
        let r_pages = db.relation("R").unwrap().lock().num_pages();
        let s_pages = db.relation("S").unwrap().lock().num_pages();
        db.stats().reset();
        let t = materialize_join(&db, &spec, "T", 1).unwrap();
        let t_pages = t.lock().num_pages();
        let snap = db.stats().snapshot();
        let expected_reads = r_pages + r_pages.div_ceil(1) * s_pages;
        assert_eq!(snap.pages_read as usize, expected_reads);
        assert_eq!(snap.pages_written as usize, t_pages);
    }
}
