//! The zero-copy batch fabric: typed, arena-backed tuple containers.
//!
//! BriskStream's pass-by-reference design (Section 5.2, Figure 17) keeps
//! data movement off the hot path. The original port approximated it with
//! an `Arc<dyn Any>` *per tuple*, so allocation, refcount traffic and drop
//! still rode every queue crossing. This module replaces the per-tuple
//! handle with a per-*container* one:
//!
//! * A **slab** (`SlabCore`, private) owns the payloads of one batch as a
//!   single contiguous `Vec<T>`, plus parallel `event_ns` / `key` lanes.
//!   It is refcounted (`Arc`) and type-erased behind three function
//!   pointers chosen at seal time, so the downcast happens once per batch
//!   instead of once per tuple.
//! * A [`Batch`] is a cheap view `(slab, start, len)` over a slab.
//!   `Batch::clone` is a refcount bump — broadcast to N consumers shares
//!   one slab N ways. Sub-ranges ([`Batch::slice`]) share it too, which is
//!   how quarantine keeps the un-poisoned remainder of a batch without
//!   cloning payloads.
//! * A [`BatchBuilder`] accumulates typed pushes into an open slab and
//!   seals it into a `Batch`. Slab storage is recycled through a
//!   per-producer [`SlabPool`]: when the last `Batch` handle drops —
//!   usually on the consumer's thread — the `Vec`s travel back to the
//!   producer's pool *as they are*, old payloads included, and the
//!   producer's next fill overwrites them slot by slot. **A payload is
//!   allocated, overwritten and freed only by the task that emits it**:
//!   the consumer borrows and never runs a payload destructor, so a
//!   `String` payload's buffer is reused in place
//!   ([`BatchBuilder::push_with`]) instead of being `malloc`ed on one
//!   thread and `free`d on another. The one visible consequence: a
//!   payload's `Drop` runs when its slot is reused or the engine is torn
//!   down, not when the consumer finishes the batch. (Two cold paths drop
//!   payloads elsewhere: a slab returned to a pool already holding
//!   `MAX_POOLED_SLABS` is freed where it was released, and so is a
//!   pool-less [`Batch::from_rows`] batch.)
//! * Operators read tuples through [`TupleView`] (a borrowed payload plus
//!   the lane values) or, batch-at-a-time, through [`BatchCursor`] /
//!   [`Batch::payloads`], which exposes the contiguous `&[T]` directly.

use crate::tuple::Tuple;
use std::any::{Any, TypeId};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Storage slabs a pool retains for reuse beyond this count are dropped
/// instead (bounds pool memory when a producer bursts far above steady
/// state).
const MAX_POOLED_SLABS: usize = 64;

type AnyPayloads = Box<dyn Any + Send + Sync>;
type ViewFn = for<'a> fn(&'a (dyn Any + Send + Sync), usize) -> &'a (dyn Any + Send + Sync);
type PayloadFn = fn(&(dyn Any + Send + Sync), usize) -> Arc<dyn Any + Send + Sync>;

/// The two type-erased operations a slab needs after its element type is
/// forgotten: borrow element `i` as `&dyn Any`, and clone element `i` into
/// an owned [`Tuple`] payload.
#[derive(Clone, Copy)]
struct SlabOps {
    view: ViewFn,
    payload: PayloadFn,
}

fn view_slab<T: Any + Send + Sync>(
    p: &(dyn Any + Send + Sync),
    i: usize,
) -> &(dyn Any + Send + Sync) {
    &p.downcast_ref::<Vec<T>>().expect("slab payload type")[i]
}

fn payload_slab<T: Any + Send + Sync + Clone>(
    p: &(dyn Any + Send + Sync),
    i: usize,
) -> Arc<dyn Any + Send + Sync> {
    Arc::new(p.downcast_ref::<Vec<T>>().expect("slab payload type")[i].clone())
}

fn ops_for<T: Any + Send + Sync + Clone>() -> SlabOps {
    SlabOps {
        view: view_slab::<T>,
        payload: payload_slab::<T>,
    }
}

/// Allocation counters of one [`SlabPool`].
///
/// `outstanding` counts slabs (open in a builder or sealed into live
/// batches) whose storage is checked out of the pool; summed over an
/// engine's pools it must return to zero by teardown — the leak tripwire
/// CI's leak-check job asserts.
#[derive(Debug, Default)]
pub struct SlabStats {
    allocated: AtomicU64,
    recycled: AtomicU64,
    outstanding: AtomicU64,
}

impl SlabStats {
    /// Slabs whose storage was freshly allocated (pool miss).
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Slabs whose storage was reused from a pool (pool hit) — the
    /// steady-state path.
    pub fn recycled(&self) -> u64 {
        self.recycled.load(Ordering::Relaxed)
    }

    /// Slabs currently checked out (open or referenced by live batches).
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }
}

/// The storage of one slab: contiguous payloads (a type-erased `Vec<T>`)
/// plus the parallel metadata lanes. The three `Vec`s always have one
/// length. How much of it is *filled* is the holder's business
/// ([`OpenSlab::len`], [`Batch`]'s `(start, len)`): in a pool, and past
/// the fill level of an open or sealed slab, the slots hold whatever an
/// earlier fill left there.
struct SlabStorage {
    payloads: AnyPayloads,
    event_ns: Vec<u64>,
    keys: Vec<u64>,
    elem_type: TypeId,
}

/// A per-producer arena of recyclable slab storage.
///
/// The producer's [`BatchBuilder`] draws storage from here instead of
/// allocating; when the last [`Batch`] over a slab drops — typically on a
/// consumer thread — the storage travels back, uncleared, through the
/// `Arc`'d pool handle embedded in the slab, and the stale payloads in it
/// are overwritten (and so dropped) by the producer's next fill. Storage
/// is only reused for the exact same element type, so recycled capacity —
/// the `Vec`s' and each old payload's own — is immediately useful. Each
/// pool keeps its own [`SlabStats`], so producers do not share a counter
/// cache line.
pub struct SlabPool {
    free: Mutex<Vec<SlabStorage>>,
    stats: SlabStats,
}

impl SlabPool {
    /// A new, empty pool with its own counters.
    pub fn standalone() -> Arc<SlabPool> {
        Arc::new(SlabPool {
            free: Mutex::new(Vec::new()),
            stats: SlabStats::default(),
        })
    }

    /// This pool's counters.
    pub fn stats(&self) -> &SlabStats {
        &self.stats
    }

    fn take(&self, elem_type: TypeId) -> Option<SlabStorage> {
        let mut free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        let idx = free.iter().rposition(|s| s.elem_type == elem_type)?;
        Some(free.swap_remove(idx))
    }

    /// Take `store` back as it is. Beyond [`MAX_POOLED_SLABS`] it is
    /// dropped here instead, payloads and all, on the caller's thread.
    fn give(&self, store: SlabStorage) {
        self.stats.outstanding.fetch_sub(1, Ordering::Relaxed);
        let mut free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        if free.len() < MAX_POOLED_SLABS {
            free.push(store);
        }
    }
}

/// The refcounted storage behind one batch. Dropping the last handle
/// returns the storage to its producer's pool without touching a payload:
/// the dropping thread is usually a consumer's, and payload memory belongs
/// to the producer.
struct SlabCore {
    store: SlabStorage,
    ops: SlabOps,
    /// `None` for pool-less slabs ([`Batch::from_rows`]); their storage
    /// is simply dropped and they do not count toward any [`SlabStats`].
    pool: Option<Arc<SlabPool>>,
}

impl Drop for SlabCore {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            let hollow = SlabStorage {
                payloads: Box::new(()),
                event_ns: Vec::new(),
                keys: Vec::new(),
                elem_type: self.store.elem_type,
            };
            pool.give(std::mem::replace(&mut self.store, hollow));
        }
    }
}

/// A typed, arena-backed batch of tuples: the unit of exchange on the
/// data plane.
///
/// A `Batch` is a `(slab, start, len)` view. Cloning bumps the slab
/// refcount; [`Batch::slice`] shares it too. Payloads stay contiguous in
/// the slab, so a consumer that knows the element type reads them as a
/// plain `&[T]` via [`Batch::payloads`] — one downcast per batch, not per
/// tuple.
pub struct Batch {
    slab: Arc<SlabCore>,
    start: usize,
    len: usize,
}

impl Clone for Batch {
    /// A refcount bump on the shared slab — no payload copies.
    fn clone(&self) -> Batch {
        Batch {
            slab: Arc::clone(&self.slab),
            start: self.start,
            len: self.len,
        }
    }
}

impl Batch {
    /// Number of tuples in this view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Event time lane value of tuple `i`.
    pub fn event_ns(&self, i: usize) -> u64 {
        self.event_ns_lane()[i]
    }

    /// Partitioning key lane value of tuple `i`.
    pub fn key(&self, i: usize) -> u64 {
        self.key_lane()[i]
    }

    /// The contiguous event-time lane for this view.
    pub fn event_ns_lane(&self) -> &[u64] {
        &self.slab.store.event_ns[self.start..self.start + self.len]
    }

    /// The contiguous partitioning-key lane for this view.
    pub fn key_lane(&self) -> &[u64] {
        &self.slab.store.keys[self.start..self.start + self.len]
    }

    /// The contiguous payload slice, if the batch's element type is `T`.
    /// This is the zero-copy fast path: one downcast for the whole batch.
    pub fn payloads<T: Any>(&self) -> Option<&[T]> {
        self.slab
            .store
            .payloads
            .downcast_ref::<Vec<T>>()
            .map(|v| &v[self.start..self.start + self.len])
    }

    /// Borrow tuple `i` as a [`TupleView`].
    pub fn view(&self, i: usize) -> TupleView<'_> {
        assert!(i < self.len, "batch index out of range");
        let idx = self.start + i;
        TupleView {
            payload: (self.slab.ops.view)(self.slab.store.payloads.as_ref(), idx),
            event_ns: self.slab.store.event_ns[idx],
            key: self.slab.store.keys[idx],
        }
    }

    /// Clone tuple `i` out into an owned [`Tuple`] (profiling / capture
    /// bridges; allocates).
    pub fn to_tuple(&self, i: usize) -> Tuple {
        assert!(i < self.len, "batch index out of range");
        let idx = self.start + i;
        Tuple {
            payload: (self.slab.ops.payload)(self.slab.store.payloads.as_ref(), idx),
            event_ns: self.slab.store.event_ns[idx],
            key: self.slab.store.keys[idx],
        }
    }

    /// A sub-view of `len` tuples starting at `start`, sharing the same
    /// slab (refcount bump, no copies). Quarantine uses this to keep the
    /// un-poisoned remainder of a shared batch.
    pub fn slice(&self, start: usize, len: usize) -> Batch {
        assert!(
            start + len <= self.len,
            "slice out of range: {start}+{len} > {}",
            self.len
        );
        Batch {
            slab: Arc::clone(&self.slab),
            start: self.start + start,
            len,
        }
    }

    /// Iterate the batch as [`TupleView`]s.
    pub fn iter(&self) -> impl Iterator<Item = TupleView<'_>> {
        (0..self.len).map(move |i| self.view(i))
    }

    /// Number of live handles on the underlying slab (tests: proves
    /// broadcast is a refcount bump).
    pub fn slab_refs(&self) -> usize {
        Arc::strong_count(&self.slab)
    }

    /// Identity of the underlying slab (tests: proves two batches share
    /// storage).
    pub fn slab_id(&self) -> usize {
        Arc::as_ptr(&self.slab) as *const () as usize
    }

    /// Build a pool-less typed batch from `(value, event_ns, key)` rows
    /// (test and bench bridge; not recycled, not counted in any
    /// [`SlabStats`]).
    pub fn from_rows<T, I>(rows: I) -> Batch
    where
        T: Any + Send + Sync + Clone,
        I: IntoIterator<Item = (T, u64, u64)>,
    {
        let mut payloads = Vec::new();
        let mut event_ns = Vec::new();
        let mut keys = Vec::new();
        for (value, e, k) in rows {
            payloads.push(value);
            event_ns.push(e);
            keys.push(k);
        }
        let len = payloads.len();
        Batch {
            slab: Arc::new(SlabCore {
                store: SlabStorage {
                    payloads: Box::new(payloads),
                    event_ns,
                    keys,
                    elem_type: TypeId::of::<T>(),
                },
                ops: ops_for::<T>(),
                pool: None,
            }),
            start: 0,
            len,
        }
    }
}

impl std::fmt::Debug for Batch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Batch")
            .field("len", &self.len)
            .field("slab_refs", &self.slab_refs())
            .finish_non_exhaustive()
    }
}

/// A borrowed view of one tuple: payload reference plus the lane values.
/// This is what [`crate::operator::DynBolt::execute`] receives — no `Arc`
/// handle, no per-tuple allocation.
#[derive(Clone, Copy)]
pub struct TupleView<'a> {
    payload: &'a (dyn Any + Send + Sync),
    /// Event origination time, nanoseconds since engine start.
    pub event_ns: u64,
    /// Partitioning key hash.
    pub key: u64,
}

impl<'a> TupleView<'a> {
    /// Downcast the payload. The returned borrow lives as long as the
    /// underlying batch, not just this view.
    pub fn value<T: Any>(&self) -> Option<&'a T> {
        self.payload.downcast_ref::<T>()
    }

    /// View an owned [`Tuple`] (profiling replay).
    pub fn of_tuple(t: &'a Tuple) -> TupleView<'a> {
        TupleView {
            payload: &*t.payload,
            event_ns: t.event_ns,
            key: t.key,
        }
    }

    /// View a bare value with explicit lane values (inline fused
    /// deliveries).
    pub fn of_value<T: Any + Send + Sync>(value: &'a T, event_ns: u64, key: u64) -> TupleView<'a> {
        TupleView {
            payload: value,
            event_ns,
            key,
        }
    }
}

impl std::fmt::Debug for TupleView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TupleView")
            .field("event_ns", &self.event_ns)
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Batch-at-a-time input handed to [`crate::operator::DynBolt::consume`],
/// tracking completion so the supervisor can pin a poison tuple exactly.
///
/// **Contract:** either drain the cursor with [`BatchCursor::next`] until
/// it returns `None`, or process the batch wholesale (e.g. via
/// [`BatchCursor::payloads`]) and call [`BatchCursor::mark_done`] as
/// tuples complete. Returning normally from `consume` counts the whole
/// batch as processed; if `consume` panics, tuple [`BatchCursor::done`] is
/// quarantined and everything after it is replayed.
pub struct BatchCursor<'a> {
    batch: &'a Batch,
    next_idx: Cell<usize>,
    completed: Cell<usize>,
}

impl<'a> BatchCursor<'a> {
    /// A cursor over `batch`, positioned at the first tuple.
    pub fn new(batch: &'a Batch) -> BatchCursor<'a> {
        BatchCursor {
            batch,
            next_idx: Cell::new(0),
            completed: Cell::new(0),
        }
    }

    /// The next tuple view, or `None` when the batch is drained. Asking
    /// for tuple `i` marks tuple `i - 1` complete; the final `None` marks
    /// the whole batch complete.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&self) -> Option<TupleView<'a>> {
        let i = self.next_idx.get();
        self.completed.set(i.max(self.completed.get()));
        if i >= self.batch.len() {
            return None;
        }
        self.next_idx.set(i + 1);
        Some(self.batch.view(i))
    }

    /// Tuples known complete (the supervisor's quarantine boundary).
    pub fn done(&self) -> usize {
        self.completed.get()
    }

    /// Record that the first `n` tuples completed — for batch-wholesale
    /// consumers that bypass [`BatchCursor::next`]. Clamped to the batch
    /// length; never moves backwards.
    pub fn mark_done(&self, n: usize) {
        let n = n.min(self.batch.len());
        self.completed.set(n.max(self.completed.get()));
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }

    /// The contiguous payload slice if the element type is `T` — the
    /// per-batch downcast fast path.
    pub fn payloads<T: Any>(&self) -> Option<&'a [T]> {
        // Re-borrow through the batch reference so the slice outlives the
        // cursor itself.
        self.batch
            .slab
            .store
            .payloads
            .downcast_ref::<Vec<T>>()
            .map(|v| &v[self.batch.start..self.batch.start + self.batch.len])
    }

    /// The contiguous event-time lane.
    pub fn event_ns_lane(&self) -> &'a [u64] {
        &self.batch.slab.store.event_ns[self.batch.start..self.batch.start + self.batch.len]
    }

    /// The contiguous partitioning-key lane.
    pub fn key_lane(&self) -> &'a [u64] {
        &self.batch.slab.store.keys[self.batch.start..self.batch.start + self.batch.len]
    }

    /// The underlying batch.
    pub fn batch(&self) -> &'a Batch {
        self.batch
    }
}

/// Open, typed slab storage under construction. Slots `0..len` are this
/// fill's tuples; recycled storage may hold stale slots past `len`, which
/// the next pushes overwrite.
struct OpenSlab {
    store: SlabStorage,
    ops: SlabOps,
    len: usize,
}

/// Accumulates typed pushes into an open slab and seals them into
/// [`Batch`]es, drawing storage from (and returning it to) a [`SlabPool`].
///
/// A builder holds at most one open slab of one element type at a time;
/// pushing a different type seals the open slab first and hands it back
/// (heterogeneous streams stay ordered, in shorter type-homogeneous
/// batches).
pub struct BatchBuilder {
    pool: Arc<SlabPool>,
    open: Option<OpenSlab>,
}

impl BatchBuilder {
    /// A builder drawing slab storage from `pool`.
    pub fn new(pool: Arc<SlabPool>) -> BatchBuilder {
        BatchBuilder { pool, open: None }
    }

    /// Tuples in the open (unsealed) slab.
    pub fn len(&self) -> usize {
        self.open.as_ref().map_or(0, |o| o.len)
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one tuple. If the open slab holds a different element type
    /// it is sealed and returned — ship it before the new batch to
    /// preserve stream order.
    ///
    /// On recycled storage the value overwrites the slot's stale payload,
    /// which is dropped here, on the producer's thread.
    #[must_use = "a returned batch is sealed output that must be shipped"]
    pub fn push<T: Any + Send + Sync + Clone>(
        &mut self,
        value: T,
        event_ns: u64,
        key: u64,
    ) -> Option<Batch> {
        let sealed = if self.holds_other::<T>() {
            self.seal()
        } else {
            None
        };
        let open = self.open_for::<T>();
        let payloads = open
            .store
            .payloads
            .downcast_mut::<Vec<T>>()
            .expect("slab payload type");
        let i = open.len;
        if i < payloads.len() {
            payloads[i] = value;
            open.store.event_ns[i] = event_ns;
            open.store.keys[i] = key;
        } else {
            payloads.push(value);
            open.store.event_ns.push(event_ns);
            open.store.keys.push(key);
        }
        open.len = i + 1;
        sealed
    }

    /// Append one tuple by writing it into the slot itself: `fill`
    /// receives the slot's current value — `T::default()` on fresh
    /// storage, an earlier emission on recycled storage — and must
    /// overwrite every field. Overwriting in place (`String::clone_from`,
    /// `clear` + `push_str`) reuses the allocations the stale value owns,
    /// which [`BatchBuilder::push`] would free and the caller allocate
    /// again.
    ///
    /// The tuple counts only once `fill` returns: if it panics, the
    /// builder is as it was (the half-written slot stays out of reach past
    /// the fill level). Returns a sealed batch on an element-type switch,
    /// as `push` does.
    #[must_use = "a returned batch is sealed output that must be shipped"]
    pub fn push_with<T: Any + Send + Sync + Clone + Default>(
        &mut self,
        event_ns: u64,
        key: u64,
        fill: impl FnOnce(&mut T),
    ) -> Option<Batch> {
        if self.holds_other::<T>() {
            // Type switch: run `fill` before the open slab is sealed, so a
            // panic in it cannot take that sealed batch down with it.
            let mut value = T::default();
            fill(&mut value);
            return self.push(value, event_ns, key);
        }
        let open = self.open_for::<T>();
        let payloads = open
            .store
            .payloads
            .downcast_mut::<Vec<T>>()
            .expect("slab payload type");
        let i = open.len;
        if i == payloads.len() {
            payloads.push(T::default());
            open.store.event_ns.push(0);
            open.store.keys.push(0);
        }
        fill(&mut payloads[i]);
        open.store.event_ns[i] = event_ns;
        open.store.keys[i] = key;
        open.len = i + 1;
        None
    }

    /// Seal the open slab into an immutable, refcounted [`Batch`]
    /// (`None` when nothing is buffered).
    pub fn seal(&mut self) -> Option<Batch> {
        let o = self.open.take()?;
        if o.len == 0 {
            // Opened by a `push_with` whose `fill` panicked.
            self.pool.give(o.store);
            return None;
        }
        Some(Batch {
            slab: Arc::new(SlabCore {
                store: o.store,
                ops: o.ops,
                pool: Some(Arc::clone(&self.pool)),
            }),
            start: 0,
            len: o.len,
        })
    }

    /// Whether the open slab holds another element type than `T` and has
    /// to be sealed before a `T` can be pushed.
    fn holds_other<T: Any>(&self) -> bool {
        self.open
            .as_ref()
            .is_some_and(|o| o.store.elem_type != TypeId::of::<T>())
    }

    /// The open slab, drawn from the pool if none is open.
    fn open_for<T: Any + Send + Sync + Clone>(&mut self) -> &mut OpenSlab {
        self.open.get_or_insert_with(|| {
            let elem_type = TypeId::of::<T>();
            let stats = &self.pool.stats;
            stats.outstanding.fetch_add(1, Ordering::Relaxed);
            let store = match self.pool.take(elem_type) {
                Some(store) => {
                    stats.recycled.fetch_add(1, Ordering::Relaxed);
                    store
                }
                None => {
                    stats.allocated.fetch_add(1, Ordering::Relaxed);
                    SlabStorage {
                        payloads: Box::new(Vec::<T>::new()),
                        event_ns: Vec::new(),
                        keys: Vec::new(),
                        elem_type,
                    }
                }
            };
            OpenSlab {
                store,
                ops: ops_for::<T>(),
                len: 0,
            }
        })
    }
}

impl Drop for BatchBuilder {
    fn drop(&mut self) {
        // Return unsealed storage so teardown balances `outstanding`.
        if let Some(o) = self.open.take() {
            self.pool.give(o.store);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_read_typed_payloads() {
        let pool = SlabPool::standalone();
        let mut b = BatchBuilder::new(Arc::clone(&pool));
        for i in 0..5u64 {
            assert!(b.push(i * 10, i, i * 7).is_none());
        }
        let batch = b.seal().expect("non-empty");
        assert_eq!(batch.len(), 5);
        assert_eq!(
            batch.payloads::<u64>().expect("typed"),
            &[0, 10, 20, 30, 40]
        );
        assert_eq!(batch.event_ns_lane(), &[0, 1, 2, 3, 4]);
        assert_eq!(batch.key(3), 21);
        assert!(batch.payloads::<String>().is_none());
        let v = batch.view(2);
        assert_eq!(v.value::<u64>(), Some(&20));
        assert_eq!(v.event_ns, 2);
    }

    #[test]
    fn clone_is_refcount_bump_and_slice_shares_slab() {
        let pool = SlabPool::standalone();
        let mut b = BatchBuilder::new(Arc::clone(&pool));
        for i in 0..4u32 {
            let _ = b.push(i, 0, 0);
        }
        let batch = b.seal().expect("non-empty");
        assert_eq!(batch.slab_refs(), 1);
        let copy = batch.clone();
        let tail = batch.slice(1, 3);
        assert_eq!(batch.slab_refs(), 3);
        assert_eq!(copy.slab_id(), batch.slab_id());
        assert_eq!(tail.slab_id(), batch.slab_id());
        assert_eq!(tail.payloads::<u32>().expect("typed"), &[1, 2, 3]);
        assert_eq!(pool.stats().allocated(), 1, "one slab for all three views");
    }

    #[test]
    fn storage_recycles_through_the_pool() {
        let pool = SlabPool::standalone();
        let mut b = BatchBuilder::new(Arc::clone(&pool));
        let _ = b.push(1u64, 0, 0);
        drop(b.seal());
        assert_eq!(pool.stats().allocated(), 1);
        assert_eq!(pool.stats().outstanding(), 0);
        let _ = b.push(2u64, 0, 0);
        let batch = b.seal().expect("non-empty");
        assert_eq!(pool.stats().recycled(), 1, "second slab reuses storage");
        assert_eq!(pool.stats().allocated(), 1);
        assert_eq!(pool.stats().outstanding(), 1);
        drop(batch);
        assert_eq!(pool.stats().outstanding(), 0);
    }

    #[test]
    fn type_switch_seals_previous_slab() {
        let pool = SlabPool::standalone();
        let mut b = BatchBuilder::new(pool);
        assert!(b.push(1u64, 0, 0).is_none());
        let sealed = b.push(String::from("x"), 1, 0).expect("type switch seals");
        assert_eq!(sealed.payloads::<u64>().expect("typed"), &[1]);
        let second = b.seal().expect("non-empty");
        assert_eq!(
            second.view(0).value::<String>().map(String::as_str),
            Some("x")
        );
        assert_eq!(second.event_ns(0), 1);
    }

    #[test]
    fn cursor_tracks_completion() {
        let pool = SlabPool::standalone();
        let mut b = BatchBuilder::new(pool);
        for i in 0..3u8 {
            let _ = b.push(i, 0, 0);
        }
        let batch = b.seal().expect("non-empty");
        let cur = BatchCursor::new(&batch);
        assert_eq!(cur.done(), 0);
        assert!(cur.next().is_some()); // working on tuple 0
        assert_eq!(cur.done(), 0);
        assert!(cur.next().is_some()); // tuple 0 complete, working on 1
        assert_eq!(cur.done(), 1);
        assert!(cur.next().is_some());
        assert!(cur.next().is_none()); // drained: everything complete
        assert_eq!(cur.done(), 3);
        let cur2 = BatchCursor::new(&batch);
        cur2.mark_done(2);
        assert_eq!(cur2.done(), 2);
        assert_eq!(cur2.payloads::<u8>().expect("typed"), &[0, 1, 2]);
    }

    #[test]
    fn owned_tuples_round_trip_through_views() {
        let batch = Batch::from_rows([(String::from("w"), 5, 9)]);
        let owned = batch.to_tuple(0);
        let v = TupleView::of_tuple(&owned);
        assert_eq!(v.value::<String>().map(String::as_str), Some("w"));
        assert_eq!((v.event_ns, v.key), (5, 9));
    }
}
