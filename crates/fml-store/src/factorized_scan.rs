//! Join access paths for the streaming (`S-*`) and factorized (`F-*`) algorithms.
//!
//! [`JoinScan`] turns a [`JoinSpec`] into a stream of [`FactBlock`]s — the one
//! shape every trainer and scorer consumes, whatever the number `q` of
//! dimension tables.  A block carries the dimension tuples that become visible
//! with it, under dense per-dimension **slot** ids, plus its fact tuples with a
//! flat `q`-wide array of slot ids.  Consumers keep per-dimension-tuple state
//! (the factorized terms computed once per dimension tuple and reused for
//! every matching fact) in slot-indexed vectors ([`SlotArena`]) and never
//! look a foreign key up: the scans are the only place that maps keys to
//! slots.  Slot ids are a pure function of the stored data, so every pass of
//! a training run assigns the same ones.
//!
//! The access path is picked from `q` alone:
//!
//! * [`GroupScan`] (`q = 1`) — the paper's block-nested loop: the dimension
//!   table `R` is read in blocks and the fact table `S` is rescanned once per
//!   block, `|R| + ⌈|R|/BlockSize⌉·|S|` page reads per pass (Section V-A).
//!   Each block's `R` tuples become visible with it, its facts come grouped
//!   by `R` tuple, and only its facts reference them, so every block closes
//!   its slots.
//! * [`StarScan`] (`q ≥ 2`) — the dimension tables are cached in memory
//!   ([`DimCache`]) and all become visible with the first fact block; `S` is
//!   scanned once, and the slots close with the last block.
//!
//! Both report a fact whose foreign key matches no dimension tuple as
//! [`StoreError::DanglingForeignKey`]; the group scan finds such facts with
//! one "matched" bit per fact scan position, checked while probing the last
//! `R` block, so detection costs no extra page reads.
//!
//! The streaming variants read the same blocks through
//! [`JoinScan::for_each_joined`], which denormalizes every fact by slot,
//! paying the redundant computation the factorized variants avoid.

use crate::batch::BatchScan;
use crate::catalog::RelationHandle;
use crate::error::{StoreError, StoreResult};
use crate::join::{DimCache, JoinSpec};
use crate::tuple::Tuple;
use crate::Database;
use std::collections::HashMap;

/// One block of a join pass: the dimension tuples that become visible with
/// it and the fact tuples it covers, each fact tagged with one slot per
/// dimension.
#[derive(Debug, Clone)]
pub struct FactBlock {
    /// Per dimension `i`, the tuples that become visible with this block, in
    /// slot order: `dims[i][j]` has slot `first_slots[i] + j`.
    pub dims: Vec<Vec<Tuple>>,
    /// Per dimension, the slot of the first newly visible tuple (the number
    /// of tuples of that dimension made visible by earlier blocks).
    pub first_slots: Vec<usize>,
    /// The block's fact tuples, in scan order.
    pub facts: Vec<Tuple>,
    /// Flat `facts.len() × q` slot ids: fact `f` references slot
    /// `slots[f·q + i]` of dimension `i`.
    pub slots: Vec<usize>,
    /// Whether no later block of the pass references a slot visible now, so
    /// per-slot state can be folded and dropped after this block.
    pub closes_slots: bool,
}

impl FactBlock {
    /// Number of dimension tables (`q`).
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// The slots referenced by fact `f`, one per dimension.
    pub fn fact_slots(&self, f: usize) -> &[usize] {
        let q = self.num_dims();
        &self.slots[f * q..(f + 1) * q]
    }
}

/// Per-dimension state indexed by slot, for the slots that are live: visible
/// and not yet closed.
///
/// Consumers [`SlotArena::extend`] it with each block's newly visible slots and
/// [`SlotArena::close`] it after a block that closes its slots, so a binary
/// join holds the state of one `R` block at a time.
#[derive(Debug, Clone)]
pub struct SlotArena<T> {
    first: Vec<usize>,
    items: Vec<Vec<T>>,
}

impl<T> SlotArena<T> {
    /// An empty arena over `q` dimensions.
    pub fn new(q: usize) -> Self {
        Self {
            first: vec![0; q],
            items: (0..q).map(|_| Vec::new()).collect(),
        }
    }

    /// Appends the state of dimension `dim`'s slots from `first_slot` on (the
    /// block's [`FactBlock::first_slots`] entry).
    pub fn extend(&mut self, dim: usize, first_slot: usize, items: impl IntoIterator<Item = T>) {
        debug_assert_eq!(
            self.first[dim] + self.items[dim].len(),
            first_slot,
            "slots must arrive densely, in order"
        );
        self.items[dim].extend(items);
    }

    /// The state of `slot` of dimension `dim`.
    pub fn get(&self, dim: usize, slot: usize) -> &T {
        &self.items[dim][slot - self.first[dim]]
    }

    /// The live slots' state of dimension `dim`, from [`SlotArena::first_slot`] on.
    pub fn live(&self, dim: usize) -> &[T] {
        &self.items[dim]
    }

    /// The first live slot of dimension `dim`.
    pub fn first_slot(&self, dim: usize) -> usize {
        self.first[dim]
    }

    /// Drops the state of every live slot.
    pub fn close(&mut self) {
        for (first, items) in self.first.iter_mut().zip(&mut self.items) {
            *first += items.len();
            items.clear();
        }
    }
}

/// One dimension tuple together with every fact tuple referencing it.
#[derive(Debug, Clone)]
pub struct JoinGroup {
    /// The dimension (`R`) tuple.
    pub r_tuple: Tuple,
    /// All fact (`S`) tuples whose foreign key equals `r_tuple.key`.
    pub s_tuples: Vec<Tuple>,
}

impl JoinGroup {
    /// Number of joined tuples this group expands to.
    pub fn len(&self) -> usize {
        self.s_tuples.len()
    }

    /// Whether the group has no matching fact tuples.
    pub fn is_empty(&self) -> bool {
        self.s_tuples.is_empty()
    }
}

/// Block-nested-loop scan of a binary join: one [`FactBlock`] per block of
/// the dimension table `R`.
///
/// As an iterator it yields each block grouped by dimension tuple
/// ([`JoinGroup`]).
pub struct GroupScan {
    s: RelationHandle,
    r_name: String,
    block_pages: usize,
    r_scan: BatchScan,
    /// An empty `R` still probes `S` once, so its facts report as dangling.
    probe_empty: bool,
    next_slot: usize,
    /// One bit per fact scan position: set once an `R` block matched the fact.
    matched: Vec<u64>,
}

impl GroupScan {
    /// Creates a group scan from a [`JoinSpec`].
    ///
    /// # Errors
    /// Returns [`StoreError::SchemaMismatch`] unless the join is binary.
    pub fn from_spec(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        spec.validate(db)?;
        if spec.num_dimensions() != 1 {
            return Err(StoreError::SchemaMismatch {
                relation: spec.fact.clone(),
                detail: format!(
                    "GroupScan needs a binary join but the join names {} dimension tables; \
                     use StarScan",
                    spec.num_dimensions()
                ),
            });
        }
        let r = db.relation(&spec.dimensions[0])?;
        let r_scan = BatchScan::new(r, block_pages);
        Ok(Self {
            s: db.relation(&spec.fact)?,
            r_name: spec.dimensions[0].clone(),
            block_pages,
            probe_empty: r_scan.num_blocks() == 0,
            r_scan,
            next_slot: 0,
            matched: Vec::new(),
        })
    }

    /// The next `R` block.  An empty `R` still yields one empty block, so
    /// `S` is probed once and its facts report as dangling.
    fn next_r_block(&mut self) -> StoreResult<Option<Vec<Tuple>>> {
        match self.r_scan.next() {
            Some(block) => block.map(Some),
            None if std::mem::take(&mut self.probe_empty) => Ok(Some(Vec::new())),
            None => Ok(None),
        }
    }

    /// Rescans `S` for the facts matching one `R` block, handing each to
    /// `matched` in scan order with the index of its `R` tuple in the block.
    /// While probing the last block, a fact that no block matched is
    /// dangling.  Returns the slot of the block's first `R` tuple.
    fn probe(
        &mut self,
        r_block: &[Tuple],
        mut matched: impl FnMut(usize, Tuple) -> StoreResult<()>,
    ) -> StoreResult<usize> {
        let first = self.next_slot;
        self.next_slot += r_block.len();
        let last = self.r_scan.is_done();
        let index: HashMap<u64, usize> = r_block
            .iter()
            .enumerate()
            .map(|(i, t)| (t.key, i))
            .collect();
        let mut pos = 0usize;
        for s_batch in BatchScan::new(self.s.clone(), self.block_pages) {
            for s_tuple in s_batch? {
                let (word, bit) = (pos / 64, 1u64 << (pos % 64));
                pos += 1;
                let fk = s_tuple.fks[0];
                if let Some(&i) = index.get(&fk) {
                    if word >= self.matched.len() {
                        self.matched.resize(word + 1, 0);
                    }
                    self.matched[word] |= bit;
                    matched(i, s_tuple)?;
                } else if last && self.matched.get(word).is_none_or(|w| w & bit == 0) {
                    return Err(StoreError::DanglingForeignKey {
                        relation: self.r_name.clone(),
                        key: fk,
                    });
                }
            }
        }
        Ok(first)
    }

    /// Hands every `(R tuple, matching fact)` pair of the pass to `f` as the
    /// block-nested loop finds it — `S` scan order within each `R` block —
    /// without holding a block of facts (the materialization's order and
    /// memory footprint).
    pub(crate) fn for_each_match(
        &mut self,
        mut f: impl FnMut(&Tuple, Tuple) -> StoreResult<()>,
    ) -> StoreResult<()> {
        while let Some(r_block) = self.next_r_block()? {
            self.probe(&r_block, |i, fact| f(&r_block[i], fact))?;
        }
        Ok(())
    }

    /// The next block, its facts grouped by dimension tuple (each group in
    /// scan order) so a slot's facts are contiguous.
    fn next_block(&mut self) -> Option<StoreResult<FactBlock>> {
        let r_block = match self.next_r_block() {
            Ok(Some(block)) => block,
            Ok(None) => return None,
            Err(e) => return Some(Err(e)),
        };
        // Reserving `|S|` up front touches only the memory the matches fill.
        let n_s = self.s.lock().num_tuples() as usize;
        let (mut facts, mut slots) = (Vec::with_capacity(n_s), Vec::with_capacity(n_s));
        let first = match self.probe(&r_block, |i, fact| {
            facts.push(fact);
            slots.push(i);
            Ok(())
        }) {
            Ok(first) => first,
            Err(e) => return Some(Err(e)),
        };
        group_by_slot(&mut facts, &mut slots, r_block.len());
        slots.iter_mut().for_each(|s| *s += first);
        Some(Ok(FactBlock {
            dims: vec![r_block],
            first_slots: vec![first],
            facts,
            slots,
            closes_slots: true,
        }))
    }
}

/// Stably reorders `facts` by their dimension index (`slots[j] < n`): a
/// counting sort applied in place, which leaves `slots` sorted.
fn group_by_slot(facts: &mut [Tuple], slots: &mut [usize], n: usize) {
    let mut next = vec![0usize; n + 1];
    for &s in slots.iter() {
        next[s + 1] += 1;
    }
    for i in 0..n {
        next[i + 1] += next[i];
    }
    // The grouped position of each fact, then the permutation applied by
    // following its cycles.
    let mut dest: Vec<usize> = slots
        .iter()
        .map(|&s| {
            next[s] += 1;
            next[s] - 1
        })
        .collect();
    for j in 0..facts.len() {
        while dest[j] != j {
            let d = dest[j];
            facts.swap(j, d);
            slots.swap(j, d);
            dest.swap(j, d);
        }
    }
}

impl Iterator for GroupScan {
    type Item = StoreResult<Vec<JoinGroup>>;

    fn next(&mut self) -> Option<Self::Item> {
        Some(self.next_block()?.map(|block| {
            let first = block.first_slots[0];
            let mut groups: Vec<JoinGroup> = block
                .dims
                .into_iter()
                .flatten()
                .map(|r_tuple| JoinGroup {
                    r_tuple,
                    s_tuples: Vec::new(),
                })
                .collect();
            for (fact, slot) in block.facts.into_iter().zip(block.slots) {
                groups[slot - first].s_tuples.push(fact);
            }
            groups
        }))
    }
}

/// Scan of a multi-way star join: fact tuples plus a dimension cache.
pub struct StarScan {
    fact: RelationHandle,
    cache: DimCache,
    block_pages: usize,
}

impl StarScan {
    /// Loads the dimension tables of `spec` into memory and prepares a fact scan.
    pub fn new(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        spec.validate(db)?;
        let dims = spec.dimension_relations(db)?;
        let cache = DimCache::load(&dims)?;
        Ok(Self {
            fact: spec.fact_relation(db)?,
            cache,
            block_pages,
        })
    }

    /// The cached dimension tables.
    pub fn cache(&self) -> &DimCache {
        &self.cache
    }

    /// Iterates over fact-table blocks.  Each block is a `Vec<Tuple>` whose foreign
    /// keys can be resolved against [`Self::cache`].
    pub fn blocks(&self) -> BatchScan {
        BatchScan::new(self.fact.clone(), self.block_pages)
    }

    /// Tags one fact block with slots: a tuple's slot is its position in the
    /// cache, and the whole cache becomes visible with the first block.
    fn slot_block(&self, facts: Vec<Tuple>, first: bool, last: bool) -> StoreResult<FactBlock> {
        let q = self.cache.num_dims();
        let mut slots = Vec::with_capacity(facts.len() * q);
        for fact in &facts {
            for (i, fk) in fact.fks.iter().enumerate() {
                slots.push(self.cache.slot(i, *fk)?);
            }
        }
        let (dims, first_slots) = (0..q)
            .map(|i| match first {
                true => (self.cache.tuples(i).to_vec(), 0),
                false => (Vec::new(), self.cache.dim_len(i)),
            })
            .unzip();
        Ok(FactBlock {
            dims,
            first_slots,
            facts,
            slots,
            closes_slots: last,
        })
    }
}

enum Path {
    Group(GroupScan),
    Star {
        scan: StarScan,
        facts: BatchScan,
        first: bool,
    },
}

/// One pass over a join as [`FactBlock`]s, through [`GroupScan`] when the
/// join is binary and [`StarScan`] otherwise.
pub struct JoinScan(Path);

impl JoinScan {
    /// Prepares one pass over the join of `spec`, reading `block_pages` pages
    /// per block.
    pub fn new(db: &Database, spec: &JoinSpec, block_pages: usize) -> StoreResult<Self> {
        Ok(Self(if spec.num_dimensions() == 1 {
            Path::Group(GroupScan::from_spec(db, spec, block_pages)?)
        } else {
            let scan = StarScan::new(db, spec, block_pages)?;
            Path::Star {
                facts: scan.blocks(),
                scan,
                first: true,
            }
        }))
    }

    /// Number of dimension tables (`q`).
    pub fn num_dims(&self) -> usize {
        match &self.0 {
            Path::Group(_) => 1,
            Path::Star { scan, .. } => scan.cache.num_dims(),
        }
    }

    /// Visits the pass as denormalized joined tuples
    /// `T(SID, [Y], [x_S x_R1 … x_Rq])` — what the `S-*` algorithms feed to
    /// the unchanged learner — one at a time in a reused buffer, in block
    /// order (a binary join's facts grouped by dimension tuple).  `row` sees
    /// every joined tuple; `end_block` runs after each block with its number
    /// of rows.
    pub fn for_each_joined(
        self,
        mut row: impl FnMut(&Tuple) -> StoreResult<()>,
        mut end_block: impl FnMut(usize),
    ) -> StoreResult<()> {
        let mut live: SlotArena<Tuple> = SlotArena::new(self.num_dims());
        let mut joined = Tuple::dimension(0, Vec::new());
        for block in self {
            let mut block = block?;
            for (i, tuples) in block.dims.iter_mut().enumerate() {
                live.extend(i, block.first_slots[i], tuples.drain(..));
            }
            let mut dims: Vec<&Tuple> = Vec::with_capacity(block.num_dims());
            for (f, fact) in block.facts.iter().enumerate() {
                dims.clear();
                let slots = block.fact_slots(f).iter().enumerate();
                dims.extend(slots.map(|(i, &slot)| live.get(i, slot)));
                joined.set_joined(fact, &dims);
                row(&joined)?;
            }
            drop(dims);
            end_block(block.facts.len());
            if block.closes_slots {
                live.close();
            }
        }
        Ok(())
    }
}

impl Iterator for JoinScan {
    type Item = StoreResult<FactBlock>;

    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.0 {
            Path::Group(scan) => scan.next_block(),
            Path::Star { scan, facts, first } => Some(match facts.next()? {
                Ok(block) => scan.slot_block(block, std::mem::take(first), facts.is_done()),
                Err(e) => Err(e),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    /// 3 dimension tuples, 30 fact tuples, fk = key % 3.
    fn setup() -> (Database, JoinSpec) {
        let db = Database::in_memory();
        let r = db.create_relation(Schema::dimension("R", 2)).unwrap();
        let s = db.create_relation(Schema::fact("S", 1, 1)).unwrap();
        for k in 0..3u64 {
            r.lock()
                .append(&Tuple::dimension(k, vec![k as f64, -(k as f64)]))
                .unwrap();
        }
        for i in 0..30u64 {
            s.lock()
                .append(&Tuple::fact(i, vec![i % 3], vec![i as f64]))
                .unwrap();
        }
        r.lock().flush().unwrap();
        s.lock().flush().unwrap();
        (db, JoinSpec::binary("S", "R"))
    }

    /// Two dimension tables (4 and 2 tuples), 20 facts.
    fn star() -> (Database, JoinSpec) {
        let db = Database::in_memory();
        let r1 = db.create_relation(Schema::dimension("d1", 1)).unwrap();
        let r2 = db.create_relation(Schema::dimension("d2", 2)).unwrap();
        let s = db
            .create_relation(Schema::fact_with_target("f", 1, 2))
            .unwrap();
        for k in 0..4u64 {
            r1.lock()
                .append(&Tuple::dimension(k, vec![k as f64]))
                .unwrap();
        }
        for k in 0..2u64 {
            r2.lock()
                .append(&Tuple::dimension(k, vec![10.0 * k as f64, 1.0]))
                .unwrap();
        }
        for i in 0..20u64 {
            s.lock()
                .append(&Tuple::fact_with_target(
                    i,
                    vec![i % 4, i % 2],
                    0.5,
                    vec![i as f64],
                ))
                .unwrap();
        }
        r1.lock().flush().unwrap();
        r2.lock().flush().unwrap();
        s.lock().flush().unwrap();
        (db, JoinSpec::multiway("f", vec!["d1".into(), "d2".into()]))
    }

    #[test]
    fn group_scan_bnl_covers_every_fact_tuple_once() {
        let (db, spec) = setup();
        let scan = GroupScan::from_spec(&db, &spec, 4).unwrap();
        let mut total = 0;
        let mut seen_r = std::collections::HashSet::new();
        for block in scan {
            for g in block.unwrap() {
                assert!(seen_r.insert(g.r_tuple.key));
                assert_eq!(g.len(), 10);
                assert!(!g.is_empty());
                assert!(g.s_tuples.iter().all(|s| s.fks[0] == g.r_tuple.key));
                total += g.len();
            }
        }
        assert_eq!(total, 30);
        assert_eq!(seen_r.len(), 3);
    }

    #[test]
    fn denormalize_duplicates_dimension_features() {
        let (db, spec) = setup();
        let r = db.relation("R").unwrap().lock().read_all().unwrap();
        let (mut n, mut blocks) = (0, 0);
        JoinScan::new(&db, &spec, 8)
            .unwrap()
            .for_each_joined(
                |t| {
                    let r_tuple = &r[t.key as usize % 3];
                    assert_eq!(
                        t.features,
                        [&[t.key as f64][..], &r_tuple.features].concat()
                    );
                    n += 1;
                    Ok(())
                },
                |rows| {
                    assert_eq!(rows, 30);
                    blocks += 1;
                },
            )
            .unwrap();
        assert_eq!((n, blocks), (30, 1));
    }

    #[test]
    fn group_scan_rejects_multiway_joins() {
        let (db, spec) = star();
        assert!(matches!(
            GroupScan::from_spec(&db, &spec, 4),
            Err(StoreError::SchemaMismatch { .. })
        ));
    }

    #[test]
    fn star_scan_resolves_multiway_fks() {
        let (db, spec) = star();
        let scan = StarScan::new(&db, &spec, 4).unwrap();
        assert_eq!(scan.cache().num_dims(), 2);
        let mut count = 0;
        for block in scan.blocks() {
            for fact in block.unwrap() {
                let dims = scan.cache().resolve(&fact).unwrap();
                assert_eq!(dims[0].key, fact.fks[0]);
                assert_eq!(dims[1].key, fact.fks[1]);
                count += 1;
            }
        }
        assert_eq!(count, 20);
    }

    #[test]
    fn join_scan_slots_point_at_each_facts_dimension_tuples() {
        for (db, spec) in [setup(), star()] {
            let q = spec.num_dimensions();
            let mut live: SlotArena<Tuple> = SlotArena::new(q);
            let mut facts = 0;
            for block in JoinScan::new(&db, &spec, 1).unwrap() {
                let block = block.unwrap();
                for i in 0..q {
                    live.extend(i, block.first_slots[i], block.dims[i].iter().cloned());
                }
                for (f, fact) in block.facts.iter().enumerate() {
                    for (i, &slot) in block.fact_slots(f).iter().enumerate() {
                        assert_eq!(live.get(i, slot).key, fact.fks[i]);
                    }
                    facts += 1;
                }
                if q == 1 {
                    // Grouped by slot, each group in scan (key) order.
                    let order: Vec<(usize, u64)> = (0..block.facts.len())
                        .map(|f| (block.slots[f], block.facts[f].key))
                        .collect();
                    assert!(order.windows(2).all(|p| p[0] < p[1]), "{order:?}");
                }
                if block.closes_slots {
                    live.close();
                }
            }
            assert_eq!(facts, db.relation(&spec.fact).unwrap().lock().num_tuples());
        }
    }

    #[test]
    fn group_scan_reports_dangling_fks_on_the_last_block() {
        let (db, spec) = setup();
        db.relation("S")
            .unwrap()
            .lock()
            .append_all(&[Tuple::fact(30, vec![7], vec![0.0])])
            .unwrap();
        let mut scan = GroupScan::from_spec(&db, &spec, 4).unwrap();
        assert!(matches!(
            scan.next(),
            Some(Err(StoreError::DanglingForeignKey { key: 7, .. }))
        ));

        // An empty dimension table leaves every fact dangling.
        let db = Database::in_memory();
        db.create_relation(Schema::dimension("R", 1)).unwrap();
        let s = db.create_relation(Schema::fact("S", 1, 1)).unwrap();
        s.lock()
            .append_all(&[Tuple::fact(0, vec![3], vec![0.0])])
            .unwrap();
        let err = JoinScan::new(&db, &spec, 4).unwrap().next().unwrap();
        assert!(matches!(
            err,
            Err(StoreError::DanglingForeignKey { key: 3, .. })
        ));
    }

    #[test]
    fn group_scan_io_cost_matches_bnl_formula() {
        let (db, spec) = setup();
        let r_pages = db.relation("R").unwrap().lock().num_pages();
        let s_pages = db.relation("S").unwrap().lock().num_pages();
        db.stats().reset();
        let scan = GroupScan::from_spec(&db, &spec, 1).unwrap();
        for block in scan {
            block.unwrap();
        }
        let reads = db.stats().snapshot().pages_read as usize;
        assert_eq!(reads, r_pages + r_pages * s_pages);
    }
}
