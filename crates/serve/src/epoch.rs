//! Epoch publication: immutable index snapshots behind one atomic load.
//!
//! The write side ([`EpochWriter`]) owns the only [`DynamicIndex`]; an
//! apply there assembles the next index beside the serving one, and
//! after every commit the writer publishes the engine's own
//! `Arc<KdashIndex>` to the [`EpochStore`] — a pointer copy, no index
//! bytes move. The read side pins the current snapshot (one `Arc`
//! clone under a mutex held for a pointer copy) and thereafter detects
//! staleness with a single atomic load — queries on a pinned epoch run
//! against memory no writer will ever touch again, so readers are
//! wait-free with respect to writers.

use crate::{lock_unpoisoned, ServeMetrics};
use kdash_core::{KdashIndex, Result};
use kdash_dynamic::{DynamicIndex, UpdateBatch, UpdateReport};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The publication point for immutable index epochs.
///
/// Holds the current serving snapshot and two epoch counters: the
/// **serving** epoch (what [`pin`](Self::pin) returns) and the
/// **acked** epoch (the newest write the writer has acknowledged —
/// for a journaled writer, acknowledged means durable). Their
/// difference is the instantaneous freshness lag.
#[derive(Debug)]
pub struct EpochStore {
    /// Update epoch of the currently published snapshot. Mirrors
    /// `current`'s epoch so readers can check staleness without the
    /// mutex: one `Acquire` load.
    epoch: AtomicU64,
    /// Newest epoch the writer has acknowledged (monotone).
    acked: AtomicU64,
    /// The published snapshot. The mutex is held only for the pointer
    /// swap/clone — never across a query or an apply.
    current: Mutex<Arc<KdashIndex>>,
}

impl EpochStore {
    /// Publishes `index` as the initial epoch.
    pub fn new(index: KdashIndex) -> Self {
        Self::from_shared(Arc::new(index))
    }

    /// Publishes an index someone else also holds — the writer's engine.
    pub(crate) fn from_shared(index: Arc<KdashIndex>) -> Self {
        let epoch = index.update_epoch();
        EpochStore {
            epoch: AtomicU64::new(epoch),
            acked: AtomicU64::new(epoch),
            current: Mutex::new(index),
        }
    }

    /// The serving epoch — the epoch [`pin`](Self::pin) would return
    /// right now. One atomic load; this is the reader's staleness
    /// check.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The newest acknowledged write epoch.
    pub fn acked_epoch(&self) -> u64 {
        self.acked.load(Ordering::Acquire)
    }

    /// Instantaneous freshness lag: acked epochs not yet serving.
    /// Non-zero only inside the swap-install window (one pointer swap);
    /// converges to zero when the publish lands.
    pub fn freshness_lag(&self) -> u64 {
        self.acked_epoch().saturating_sub(self.epoch())
    }

    /// Pins the current snapshot: an `Arc` clone the caller can query
    /// for as long as it likes — published epochs are immutable, the
    /// writer only ever swaps the pointer. Pair with
    /// [`epoch`](Self::epoch) to notice when a newer epoch lands.
    pub fn pin(&self) -> Arc<KdashIndex> {
        Arc::clone(&lock_unpoisoned(&self.current))
    }

    /// Marks `epoch` acknowledged (monotone maximum).
    pub(crate) fn mark_acked(&self, epoch: u64) {
        self.acked.fetch_max(epoch, Ordering::AcqRel);
    }

    /// Publishes a new snapshot and then advances the serving epoch —
    /// in that order, so a reader that observes the new epoch and pins
    /// is guaranteed a snapshot at least that new.
    pub(crate) fn publish(&self, index: Arc<KdashIndex>) {
        let epoch = index.update_epoch();
        *lock_unpoisoned(&self.current) = index;
        self.epoch.store(epoch, Ordering::Release);
    }
}

/// The single-writer update path: owns the [`DynamicIndex`] and
/// publishes its index after every committed apply.
///
/// Epoch N+1 is prepared entirely *off the serving path*: the engine
/// assembles a new index from the patched components (readers keep
/// serving epoch N, which nothing ever writes to), then the writer
/// shares the engine's `Arc` with the store. That publish is the
/// swap-install latency recorded in [`ServeMetrics`] — the only window
/// in which freshness lag is non-zero, and it is a pointer swap.
///
/// Journaled engines work unchanged: the write-ahead append+fsync
/// happens inside the engine *before* it switches to the new index, so
/// by the time an epoch publishes, it is durable.
#[derive(Debug)]
pub struct EpochWriter {
    engine: DynamicIndex,
    store: Arc<EpochStore>,
    metrics: Option<Arc<ServeMetrics>>,
}

impl EpochWriter {
    /// Wraps `engine` and creates the store serving its current index
    /// as the initial epoch.
    pub fn new(engine: DynamicIndex) -> (EpochWriter, Arc<EpochStore>) {
        let store = Arc::new(EpochStore::from_shared(engine.shared_index()));
        (EpochWriter { engine, store: Arc::clone(&store), metrics: None }, store)
    }

    /// Records swap-install latency into `metrics` (typically the
    /// [`crate::ServeLoop`]'s, so one snapshot shows both sides).
    pub fn attach_metrics(&mut self, metrics: Arc<ServeMetrics>) {
        self.metrics = Some(metrics);
    }

    /// The store this writer publishes to.
    pub fn store(&self) -> Arc<EpochStore> {
        Arc::clone(&self.store)
    }

    /// The wrapped engine (read-only; applies go through the writer so
    /// every commit publishes).
    pub fn engine(&self) -> &DynamicIndex {
        &self.engine
    }

    /// The writer's current epoch (= the engine's index epoch).
    pub fn epoch(&self) -> u64 {
        self.engine.index().update_epoch()
    }

    /// Applies one batch and publishes the resulting epoch. See
    /// [`DynamicIndex::apply`] for the update semantics.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateReport> {
        self.apply_coalesced(std::slice::from_ref(batch))
    }

    /// Applies a coalesced queue of batches in one pass and publishes
    /// the resulting epoch. See [`DynamicIndex::apply_coalesced`].
    pub fn apply_coalesced(&mut self, batches: &[UpdateBatch]) -> Result<UpdateReport> {
        let before = self.engine.index().update_epoch();
        let result = self.engine.apply_coalesced(batches);
        // Publish whenever the engine committed — which an error does
        // not always preclude: an auto-checkpoint failure surfaces as
        // `Err` *after* the apply itself committed and became durable.
        let after = self.engine.index().update_epoch();
        if after > before {
            self.store.mark_acked(after);
            let t = Instant::now();
            self.store.publish(self.engine.shared_index());
            if let Some(metrics) = &self.metrics {
                metrics.record_swap(t.elapsed());
            }
        }
        result
    }

    /// Checkpoints a journaled engine (see [`DynamicIndex::checkpoint`]).
    pub fn checkpoint<P: AsRef<Path>>(
        &mut self,
        path: P,
    ) -> std::result::Result<(), kdash_dynamic::JournalError> {
        self.engine.checkpoint(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdash_core::{IndexOptions, Searcher};
    use kdash_dynamic::UpdateBatch;
    use kdash_graph::{EdgeEdit, GraphBuilder};

    fn small_index() -> KdashIndex {
        let mut b = GraphBuilder::new(12);
        for v in 0..12u32 {
            b.add_edge(v, (v + 1) % 12, 1.0);
            b.add_edge(v, (v + 5) % 12, 0.5);
        }
        KdashIndex::build(&b.build().unwrap(), IndexOptions::default()).unwrap()
    }

    #[test]
    fn pin_is_stable_across_publishes() {
        let engine = DynamicIndex::new(small_index()).unwrap();
        let (mut writer, store) = EpochWriter::new(engine);
        let pinned = store.pin();
        let epoch0 = pinned.update_epoch();
        assert_eq!(store.epoch(), epoch0);

        let mut searcher = Searcher::new(&pinned);
        let before = searcher.top_k(0, 5).unwrap();

        let batch =
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 0, dst: 7, weight: 2.0 }]).unwrap();
        writer.apply(&batch).unwrap();

        assert_eq!(store.epoch(), epoch0 + 1, "store serves the new epoch");
        assert_eq!(store.acked_epoch(), epoch0 + 1);
        assert_eq!(store.freshness_lag(), 0, "lag converges once published");

        // The old pin is untouched: same answer, bit for bit.
        let after = searcher.top_k(0, 5).unwrap();
        assert_eq!(before.nodes(), after.nodes());
        for (a, b) in before.items.iter().zip(&after.items) {
            assert_eq!(a.proximity.to_bits(), b.proximity.to_bits());
        }

        // A fresh pin sees the new epoch — and is the engine's own index,
        // shared, not a copy of it.
        let fresh = store.pin();
        assert_eq!(fresh.update_epoch(), epoch0 + 1);
        assert!(Arc::ptr_eq(&fresh, &writer.engine().shared_index()));

        // Three further applies move the engine on and leave that epoch
        // exactly as it was published.
        let mut fresh_searcher = Searcher::new(&fresh);
        let published = fresh_searcher.top_k(0, 5).unwrap();
        for (src, dst) in [(1, 8), (2, 9), (3, 10)] {
            let batch =
                UpdateBatch::new(vec![EdgeEdit::Insert { src, dst, weight: 1.5 }]).unwrap();
            writer.apply(&batch).unwrap();
            assert!(Arc::ptr_eq(&store.pin(), &writer.engine().shared_index()));
        }
        assert_eq!(store.epoch(), epoch0 + 4);
        assert_eq!(fresh.update_epoch(), epoch0 + 1);
        assert!(!Arc::ptr_eq(&fresh, &store.pin()));
        let still = fresh_searcher.top_k(0, 5).unwrap();
        assert_eq!(published.nodes(), still.nodes());
        for (a, b) in published.items.iter().zip(&still.items) {
            assert_eq!(a.proximity.to_bits(), b.proximity.to_bits());
        }
    }

    #[test]
    fn coalesced_apply_advances_by_batch_count() {
        let engine = DynamicIndex::new(small_index()).unwrap();
        let (mut writer, store) = EpochWriter::new(engine);
        let epoch0 = store.epoch();
        let b1 =
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 1, dst: 8, weight: 1.0 }]).unwrap();
        let b2 =
            UpdateBatch::new(vec![EdgeEdit::Insert { src: 2, dst: 9, weight: 1.0 }]).unwrap();
        writer.apply_coalesced(&[b1, b2]).unwrap();
        assert_eq!(store.epoch(), epoch0 + 2);
        assert_eq!(writer.epoch(), epoch0 + 2);
    }
}
