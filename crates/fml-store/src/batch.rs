//! Block-wise scans over a single relation.
//!
//! A "block" is a fixed number of pages read together, mirroring the
//! block-nested-loop reading pattern the paper's cost analysis assumes
//! (`BlockSize` pages of the outer relation per probe pass over the inner one).

use crate::catalog::RelationHandle;
use crate::error::StoreResult;
use crate::tuple::Tuple;

/// Iterator over a relation's tuples in blocks of `block_pages` pages.
pub struct BatchScan {
    relation: RelationHandle,
    block_pages: usize,
    next_page: usize,
    total_pages: usize,
}

impl BatchScan {
    /// Creates a scan over `relation` reading `block_pages` pages per step.
    pub fn new(relation: RelationHandle, block_pages: usize) -> Self {
        let total_pages = relation.lock().num_pages();
        Self {
            relation,
            block_pages: block_pages.max(1),
            next_page: 0,
            total_pages,
        }
    }

    /// Number of blocks this scan will yield.
    pub fn num_blocks(&self) -> usize {
        self.total_pages.div_ceil(self.block_pages)
    }

    /// Pages per block.
    pub fn block_pages(&self) -> usize {
        self.block_pages
    }

    /// Whether every block has been yielded, i.e. the block just returned
    /// was the last one.
    pub fn is_done(&self) -> bool {
        self.next_page >= self.total_pages
    }
}

impl Iterator for BatchScan {
    type Item = StoreResult<Vec<Tuple>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_page >= self.total_pages {
            return None;
        }
        let end = (self.next_page + self.block_pages).min(self.total_pages);
        let mut out = Vec::new();
        let mut rel = self.relation.lock();
        for p in self.next_page..end {
            match rel.read_page_tuples(p) {
                Ok(tuples) => out.extend(tuples),
                Err(e) => {
                    self.next_page = self.total_pages; // poison further iteration
                    return Some(Err(e));
                }
            }
        }
        self.next_page = end;
        Some(Ok(out))
    }
}

/// Convenience: scans the whole relation, returning all tuples batch by batch
/// already collected (used by tests and small dimension tables).
pub fn scan_all(relation: &RelationHandle, block_pages: usize) -> StoreResult<Vec<Tuple>> {
    let mut out = Vec::new();
    for batch in BatchScan::new(relation.clone(), block_pages) {
        out.extend(batch?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::schema::Schema;

    fn build(n: u64) -> (Database, RelationHandle) {
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("r", 8)).unwrap();
        {
            let mut rel = r.lock();
            for i in 0..n {
                rel.append(&Tuple::dimension(i, vec![i as f64; 8])).unwrap();
            }
            rel.flush().unwrap();
        }
        (db, r)
    }

    #[test]
    fn scan_covers_every_tuple_once() {
        let (_db, r) = build(3000);
        let mut seen = 0u64;
        let mut keys = std::collections::HashSet::new();
        for batch in BatchScan::new(r.clone(), 2) {
            let batch = batch.unwrap();
            seen += batch.len() as u64;
            for t in &batch {
                assert!(keys.insert(t.key), "duplicate key {}", t.key);
            }
        }
        assert_eq!(seen, 3000);
        assert_eq!(keys.len(), 3000);
    }

    #[test]
    fn block_size_controls_batches() {
        let (_db, r) = build(3000);
        let pages = r.lock().num_pages();
        let scan = BatchScan::new(r.clone(), 1);
        assert_eq!(scan.num_blocks(), pages);
        assert_eq!(scan.count(), pages);

        let mut scan = BatchScan::new(r.clone(), usize::MAX);
        assert_eq!(scan.num_blocks(), 1);
        assert!(!scan.is_done());
        assert!(scan.next().is_some());
        assert!(scan.is_done(), "the only block was the last one");
        let batches: Vec<_> = BatchScan::new(r, 1_000_000).collect();
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn zero_block_pages_is_clamped() {
        let (_db, r) = build(100);
        let scan = BatchScan::new(r, 0);
        assert_eq!(scan.block_pages(), 1);
    }

    #[test]
    fn empty_relation_yields_nothing() {
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("empty", 1)).unwrap();
        assert_eq!(BatchScan::new(r, 4).count(), 0);
    }

    #[test]
    fn scan_all_collects_everything() {
        let (_db, r) = build(257);
        assert_eq!(scan_all(&r, 3).unwrap().len(), 257);
    }

    #[test]
    fn scan_charges_page_reads() {
        let (db, r) = build(3000);
        db.stats().reset();
        let pages = r.lock().num_pages();
        let _ = scan_all(&r, 4).unwrap();
        assert_eq!(db.stats().snapshot().pages_read as usize, pages);
    }
}
