//! Tuples and their fixed-width binary encoding.

use crate::error::{StoreError, StoreResult};
use crate::schema::Schema;
use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

/// Physical address of a tuple inside a relation's heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TupleId {
    /// Page index within the heap file.
    pub page: u32,
    /// Slot index within the page.
    pub slot: u16,
}

impl TupleId {
    /// Creates a tuple id.
    pub fn new(page: u32, slot: u16) -> Self {
        Self { page, slot }
    }
}

/// An in-memory tuple.
///
/// The field layout follows the schemas of Section IV of the paper: a primary key,
/// optional foreign keys, an optional supervised target and dense `f64` features.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Primary key (`SID` for fact tables, `RID` for dimension tables).
    pub key: u64,
    /// Foreign keys `FK_1 … FK_q` (empty for dimension tables).
    pub fks: Vec<u64>,
    /// Supervised target `Y` (only present when the schema has a target).
    pub target: Option<f64>,
    /// Feature vector `x`.
    pub features: Vec<f64>,
}

impl Tuple {
    /// Creates a dimension-table tuple `R(RID, x_R)`.
    pub fn dimension(key: u64, features: Vec<f64>) -> Self {
        Self {
            key,
            fks: Vec::new(),
            target: None,
            features,
        }
    }

    /// Creates an unsupervised fact-table tuple `S(SID, x_S, FK…)`.
    pub fn fact(key: u64, fks: Vec<u64>, features: Vec<f64>) -> Self {
        Self {
            key,
            fks,
            target: None,
            features,
        }
    }

    /// Creates a supervised fact-table tuple `S(SID, Y, x_S, FK…)`.
    pub fn fact_with_target(key: u64, fks: Vec<u64>, target: f64, features: Vec<f64>) -> Self {
        Self {
            key,
            fks,
            target: Some(target),
            features,
        }
    }

    /// Checks the tuple against a schema.
    pub fn validate(&self, schema: &Schema) -> StoreResult<()> {
        if self.features.len() != schema.num_features {
            return Err(StoreError::SchemaMismatch {
                relation: schema.name.clone(),
                detail: format!(
                    "expected {} features, got {}",
                    schema.num_features,
                    self.features.len()
                ),
            });
        }
        if self.fks.len() != schema.num_foreign_keys {
            return Err(StoreError::SchemaMismatch {
                relation: schema.name.clone(),
                detail: format!(
                    "expected {} foreign keys, got {}",
                    schema.num_foreign_keys,
                    self.fks.len()
                ),
            });
        }
        if self.target.is_some() != schema.has_target {
            return Err(StoreError::SchemaMismatch {
                relation: schema.name.clone(),
                detail: format!(
                    "target presence mismatch (schema has_target={}, tuple target={:?})",
                    schema.has_target, self.target
                ),
            });
        }
        Ok(())
    }

    /// Encodes the tuple into `out` using the schema's fixed-width layout.
    pub fn encode(&self, schema: &Schema, out: &mut Vec<u8>) {
        debug_assert!(self.validate(schema).is_ok());
        out.put_u64_le(self.key);
        for fk in &self.fks {
            out.put_u64_le(*fk);
        }
        if schema.has_target {
            out.put_f64_le(self.target.unwrap_or(0.0));
        }
        for f in &self.features {
            out.put_f64_le(*f);
        }
    }

    /// Decodes a tuple from a fixed-width record.
    pub fn decode(schema: &Schema, mut buf: &[u8]) -> StoreResult<Self> {
        if buf.len() < schema.record_size() {
            return Err(StoreError::Corrupt(format!(
                "record for '{}' needs {} bytes, got {}",
                schema.name,
                schema.record_size(),
                buf.len()
            )));
        }
        let key = buf.get_u64_le();
        let mut fks = Vec::with_capacity(schema.num_foreign_keys);
        for _ in 0..schema.num_foreign_keys {
            fks.push(buf.get_u64_le());
        }
        let target = if schema.has_target {
            Some(buf.get_f64_le())
        } else {
            None
        };
        let mut features = Vec::with_capacity(schema.num_features);
        for _ in 0..schema.num_features {
            features.push(buf.get_f64_le());
        }
        Ok(Self {
            key,
            fks,
            target,
            features,
        })
    }

    /// Builds the joined ("denormalized") tuple for `T(SID, [Y], [x_S x_R1 … x_Rq])`
    /// from a fact tuple and its matching dimension tuples, concatenating feature
    /// vectors in join order.
    pub fn joined(fact: &Tuple, dims: &[&Tuple]) -> Tuple {
        let mut t = Tuple::dimension(0, Vec::new());
        t.set_joined(fact, dims);
        t
    }

    /// Overwrites `self` with the joined tuple of `fact` and `dims` (see
    /// [`Tuple::joined`]), reusing its feature buffer.
    pub fn set_joined(&mut self, fact: &Tuple, dims: &[&Tuple]) {
        self.key = fact.key;
        self.fks.clear();
        self.target = fact.target;
        self.features.clear();
        self.features.extend_from_slice(&fact.features);
        for d in dims {
            self.features.extend_from_slice(&d.features);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let schema = Schema::fact_with_target("s", 3, 2);
        let t = Tuple::fact_with_target(7, vec![11, 13], 0.5, vec![1.0, -2.0, 3.5]);
        let mut buf = Vec::new();
        t.encode(&schema, &mut buf);
        assert_eq!(buf.len(), schema.record_size());
        let back = Tuple::decode(&schema, &buf).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn decode_short_buffer_is_error() {
        let schema = Schema::dimension("r", 2);
        let err = Tuple::decode(&schema, &[0u8; 4]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
    }

    #[test]
    fn validate_detects_mismatches() {
        let schema = Schema::fact_with_target("s", 2, 1);
        assert!(Tuple::fact_with_target(1, vec![2], 1.0, vec![0.0, 0.0])
            .validate(&schema)
            .is_ok());
        // wrong feature count
        assert!(Tuple::fact_with_target(1, vec![2], 1.0, vec![0.0])
            .validate(&schema)
            .is_err());
        // wrong fk count
        assert!(Tuple::fact_with_target(1, vec![], 1.0, vec![0.0, 0.0])
            .validate(&schema)
            .is_err());
        // missing target
        assert!(Tuple::fact(1, vec![2], vec![0.0, 0.0])
            .validate(&schema)
            .is_err());
    }

    #[test]
    fn joined_concatenates_features_in_order() {
        let s = Tuple::fact_with_target(3, vec![10, 20], 1.5, vec![1.0, 2.0]);
        let r1 = Tuple::dimension(10, vec![3.0]);
        let r2 = Tuple::dimension(20, vec![4.0, 5.0]);
        let t = Tuple::joined(&s, &[&r1, &r2]);
        assert_eq!(t.key, 3);
        assert_eq!(t.target, Some(1.5));
        assert!(t.fks.is_empty());
        assert_eq!(t.features, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn tuple_id_ordering() {
        let a = TupleId::new(0, 5);
        let b = TupleId::new(1, 0);
        assert!(a < b);
    }
}
