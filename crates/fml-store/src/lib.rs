//! # fml-store
//!
//! A small paged relational storage engine — the substrate on which the paper's
//! three training strategies (materialize / stream / factorize) are compared.
//! It replaces the PostgreSQL + psycopg2 layer used by the original evaluation
//! with a self-contained Rust implementation that exposes exactly the primitives
//! the algorithms need:
//!
//! * **Slotted pages & heap files** ([`page`], [`heap`]): fixed-size 8 KiB pages
//!   holding fixed-width records, stored either on disk or in memory.
//! * **Relations, schemas & catalog** ([`schema`], [`mod@tuple`], [`relation`],
//!   [`catalog`]): typed relations with a `u64` primary key, optional foreign keys,
//!   an optional training target, and `f64` feature columns.
//! * **Batch scans** ([`batch`]): block-wise iteration (a "block" is a fixed number
//!   of pages) as assumed by the paper's block-nested-loop cost analysis.
//! * **Joins** ([`join`], [`factorized_scan`]): PK/FK equi-joins read as one
//!   stream of fact blocks whose facts carry dense per-dimension slot ids —
//!   materialized as a new relation (`M-*` algorithms), denormalized on the fly
//!   (`S-*`), or consumed slot by slot with per-dimension-tuple reuse (`F-*`).
//! * **I/O accounting** ([`stats`]): page read/write and field read counters so the
//!   paper's I/O cost formulas can be validated against observed behaviour.
//!
//! The engine is intentionally single-threaded per relation (training is
//! sequential in the paper); interior mutability uses `parking_lot` locks so scans
//! can share the catalog.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod catalog;
pub mod csv;
pub mod error;
pub mod factorized_scan;
pub mod heap;
pub mod join;
pub mod page;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;

pub use catalog::Database;
pub use error::{StoreError, StoreResult};
pub use join::JoinSpec;
pub use relation::Relation;
pub use schema::Schema;
pub use stats::{IoSnapshot, IoStats};
pub use tuple::{Tuple, TupleId};

/// Size of a storage page in bytes (matches the PostgreSQL default the paper's
/// cost analysis implicitly assumes).
pub const PAGE_SIZE: usize = 8192;

/// Default number of pages read together as one "block" by block-nested-loop
/// style scans (`BlockSize` in the paper's I/O cost formulas).
pub const DEFAULT_BLOCK_PAGES: usize = 64;
