//! Per-tuple sparse-representation caches shared by every trainer.
//!
//! Under [`SparseMode::Auto`] the trainers detect each tuple's representation
//! ([`SparseRep`]: one-hot, weighted CSR, or dense) **once** and reuse the
//! result for every later pass and iteration — detection is a full scan of
//! the feature row, and the feature data is immutable, so re-detecting per
//! pass would be pure waste (the learner crates' counter tests pin "at most
//! one detection per tuple").
//!
//! One cache shape covers every trainer: [`RepCache`] is indexed by **scan
//! position**.  The dense-pass trainers (`M`/`S`) replay joined rows and the
//! factorized trainers replay fact tuples in a deterministic scan order, and
//! a dimension tuple's position is its slot in the join scan's fact blocks
//! (dense, in order, identical on every pass), so the cache is a
//! position-indexed vector filled lazily during the first pass.  The fill
//! protocol supports the trainers' chunked parallel loops: workers detect
//! into private [`RepSegment`]s which the caller merges back **in
//! chunk-index order**, keeping the cache layout identical to the sequential
//! fill ([`RepCache::map_rows`] packages the whole round trip).
//!
//! The cache reads as "always dense" under [`SparseMode::Dense`] without ever
//! invoking detection, which is how the forced-dense baseline stays silent in
//! the kernel-counter tests.

use crate::policy::par_chunks_with_threads;
use crate::sparse::{SparseMode, SparseRep};

/// A lazily filled, scan-order cache of per-tuple sparse representations.
///
/// Lifecycle: construct with the run's [`SparseMode`]; during the **fill
/// pass** (the first pass over the data) call [`RepCache::rep_or_detect`] for
/// every tuple in scan order (or fan out with [`RepCache::segment`] /
/// [`RepCache::merge`]); call [`RepCache::finish_fill`] when the pass
/// completes; every later pass reads with [`RepCache::get`] (or
/// `rep_or_detect`, which reads once filling is done).
#[derive(Debug, Default)]
pub struct RepCache {
    mode: SparseMode,
    reps: Vec<Option<SparseRep>>,
    filling: bool,
}

impl RepCache {
    /// Creates a cache for one training run.  Under [`SparseMode::Dense`] the
    /// cache is born finished: nothing is ever detected and every lookup
    /// reads as dense.
    pub fn new(mode: SparseMode) -> Self {
        Self {
            mode,
            reps: Vec::new(),
            filling: mode == SparseMode::Auto,
        }
    }

    /// The detection mode this cache was built with.
    pub fn mode(&self) -> SparseMode {
        self.mode
    }

    /// Whether the cache is still in its fill pass.
    pub fn filling(&self) -> bool {
        self.filling
    }

    /// Number of cached positions.
    pub fn len(&self) -> usize {
        self.reps.len()
    }

    /// Whether the cache holds no positions (always true under `Dense`).
    pub fn is_empty(&self) -> bool {
        self.reps.is_empty()
    }

    /// Reads the representation cached at scan position `index`; positions
    /// beyond the cache (the forced-dense mode caches nothing) read as dense.
    pub fn get(&self, index: usize) -> Option<&SparseRep> {
        self.reps.get(index).and_then(Option::as_ref)
    }

    /// Fill-or-read: during the fill pass, detects `features` and appends the
    /// result (positions must arrive in scan order); afterwards, a plain
    /// [`RepCache::get`].
    pub fn rep_or_detect(&mut self, index: usize, features: &[f64]) -> Option<&SparseRep> {
        if self.filling {
            debug_assert_eq!(
                index,
                self.reps.len(),
                "RepCache fill must follow scan order"
            );
            let rep = self.mode.detect(features);
            self.reps.push(rep);
        }
        self.get(index)
    }

    /// Opens a worker-local view for one chunk of the fill pass, starting at
    /// absolute scan position `base`.  Outside the fill pass the segment is a
    /// read-only cursor over the shared cache.
    pub fn segment(&self, base: usize) -> RepSegment<'_> {
        RepSegment {
            cache: self,
            base,
            detected: Vec::new(),
        }
    }

    /// Merges one chunk's detections back into the cache.  Chunks **must** be
    /// merged in chunk-index order — the whole point of the protocol is that
    /// the merged layout matches the sequential scan order exactly.
    pub fn merge(&mut self, detected: Vec<Option<SparseRep>>) {
        debug_assert!(
            self.filling || detected.is_empty(),
            "RepCache::merge outside the fill pass"
        );
        self.reps.extend(detected);
    }

    /// Marks the fill pass complete; later passes only read.
    pub fn finish_fill(&mut self) {
        self.filling = false;
    }

    /// Maps `f` over `rows`, which sit at scan positions `base..`, in chunks
    /// fanned out over `workers`: each row's representation is detected (fill
    /// pass) or read, then handed to `f` with the row.  Results and
    /// detections keep position order at every worker count.
    pub fn map_rows<R, T>(
        &mut self,
        workers: usize,
        base: usize,
        rows: &[R],
        features: impl Fn(&R) -> &[f64] + Sync,
        f: impl Fn(&R, Option<&SparseRep>) -> T + Sync,
    ) -> Vec<T>
    where
        R: Sync,
        T: Send,
    {
        let this = &*self;
        let parts = par_chunks_with_threads(workers, rows.len(), 1, |range| {
            let mut seg = this.segment(base + range.start);
            let out: Vec<T> = range
                .map(|j| f(&rows[j], seg.rep_or_detect(base + j, features(&rows[j]))))
                .collect();
            (out, seg.into_detected())
        });
        let mut out = Vec::with_capacity(rows.len());
        for (part, detected) in parts {
            out.extend(part);
            self.merge(detected);
        }
        out
    }
}

/// A worker-local view over one chunk of a [`RepCache`] fill pass.
///
/// During the fill pass, [`RepSegment::rep_or_detect`] detects into a private
/// buffer (the shared cache is only borrowed immutably, so chunks run in
/// parallel); once filling is done it reads straight from the shared cache.
/// The worker returns [`RepSegment::into_detected`] as part of its chunk
/// result, and the driver merges the buffers in chunk order.
#[derive(Debug)]
pub struct RepSegment<'a> {
    cache: &'a RepCache,
    base: usize,
    detected: Vec<Option<SparseRep>>,
}

impl RepSegment<'_> {
    /// Fill-or-read at absolute scan position `index` (positions must arrive
    /// in scan order within the chunk).
    pub fn rep_or_detect(&mut self, index: usize, features: &[f64]) -> Option<&SparseRep> {
        if self.cache.filling {
            debug_assert_eq!(
                index,
                self.base + self.detected.len(),
                "RepSegment fill must follow scan order"
            );
            self.detected.push(self.cache.mode.detect(features));
            self.detected.last().and_then(Option::as_ref)
        } else {
            self.cache.get(index)
        }
    }

    /// The chunk's detections, for [`RepCache::merge`] (empty outside the
    /// fill pass).
    pub fn into_detected(self) -> Vec<Option<SparseRep>> {
        self.detected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::detect_calls;

    fn onehot_row() -> Vec<f64> {
        vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0]
    }

    fn dense_row() -> Vec<f64> {
        vec![1.5, 2.5, 3.5, 0.5, 1.0, 2.0]
    }

    #[test]
    fn sequential_fill_then_read() {
        let mut cache = RepCache::new(SparseMode::Auto);
        assert!(cache.filling());
        assert!(cache.rep_or_detect(0, &onehot_row()).is_some());
        assert!(cache.rep_or_detect(1, &dense_row()).is_none());
        cache.finish_fill();
        assert!(!cache.filling());
        assert_eq!(cache.len(), 2);
        // later passes read the cached reps without re-detecting
        let before = detect_calls();
        assert!(cache.rep_or_detect(0, &onehot_row()).is_some());
        assert!(cache.get(1).is_none());
        assert_eq!(detect_calls(), before, "read pass must not re-detect");
    }

    #[test]
    fn dense_mode_never_detects_and_reads_as_dense() {
        let before = detect_calls();
        let mut cache = RepCache::new(SparseMode::Dense);
        assert!(!cache.filling(), "Dense caches are born finished");
        assert!(cache.rep_or_detect(0, &onehot_row()).is_none());
        assert!(cache.get(12345).is_none());
        assert!(cache.is_empty());
        assert_eq!(detect_calls(), before);
    }

    #[test]
    fn chunked_fill_merges_in_chunk_order() {
        // Simulate the trainers' parallel fill: two chunks detect privately,
        // the driver merges in chunk order, and the final layout matches the
        // sequential fill exactly.
        let rows = [onehot_row(), dense_row(), onehot_row(), dense_row()];
        let mut sequential = RepCache::new(SparseMode::Auto);
        for (i, row) in rows.iter().enumerate() {
            sequential.rep_or_detect(i, row);
        }
        sequential.finish_fill();

        let mut chunked = RepCache::new(SparseMode::Auto);
        let mut buffers = Vec::new();
        for chunk in [0..2usize, 2..4] {
            let mut seg = chunked.segment(chunk.start);
            for i in chunk {
                seg.rep_or_detect(i, &rows[i]);
            }
            buffers.push(seg.into_detected());
        }
        for buf in buffers {
            chunked.merge(buf);
        }
        chunked.finish_fill();

        assert_eq!(chunked.len(), sequential.len());
        for i in 0..rows.len() {
            assert_eq!(chunked.get(i), sequential.get(i), "position {i}");
        }
    }

    #[test]
    fn segments_read_through_after_fill() {
        let mut cache = RepCache::new(SparseMode::Auto);
        cache.rep_or_detect(0, &onehot_row());
        cache.rep_or_detect(1, &dense_row());
        cache.finish_fill();
        let before = detect_calls();
        let mut seg = cache.segment(0);
        assert!(seg.rep_or_detect(0, &onehot_row()).is_some());
        assert!(seg.rep_or_detect(1, &dense_row()).is_none());
        assert!(
            seg.into_detected().is_empty(),
            "read-only segments buffer nothing"
        );
        assert_eq!(detect_calls(), before);
    }
}
