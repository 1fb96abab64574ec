//! Tuples and jumbo tuples.
//!
//! BriskStream passes tuples by reference (Section 5.2, Figure 17). Since
//! the zero-copy batch fabric landed, the unit of exchange is a typed,
//! arena-backed [`crate::batch::Batch`]: payloads live contiguously in one
//! refcounted slab, and a [`JumboTuple`] — one batch under a shared header
//! — costs a single queue insertion to move. [`Tuple`] (one `Arc` handle
//! per tuple) remains as the owned bridge type the profiler materialises
//! sample inputs into ([`Batch::to_tuple`]).

use crate::batch::Batch;
use std::any::Any;
use std::sync::Arc;

/// A single owned stream tuple: shared payload + minimal per-tuple
/// metadata. Operators read tuples through [`crate::batch::TupleView`];
/// `Tuple` is the owned bridge for profiling and capture
/// ([`Batch::to_tuple`], [`crate::batch::TupleView::of_tuple`]).
#[derive(Clone)]
pub struct Tuple {
    /// The payload, shared by reference.
    pub payload: Arc<dyn Any + Send + Sync>,
    /// Event origination time, nanoseconds since engine start (set when the
    /// spout emits; carried through so sinks can report end-to-end latency).
    pub event_ns: u64,
    /// Partitioning key hash (used by key-by edges).
    pub key: u64,
}

impl Tuple {
    /// Hash an arbitrary key into the 64-bit partitioning key space
    /// (FNV-1a; stable across runs, unlike `DefaultHasher` with random
    /// seeds).
    pub fn hash_key(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }

    /// Re-mix an already-numeric partitioning key through the FNV-1a hash.
    ///
    /// Key-by routing must not take `key % consumers` on a raw key:
    /// strided key spaces (all-even sensor ids, multiples of a shard
    /// count) alias with the consumer count and park entire replicas.
    /// Mixing the key bytes first spreads any arithmetic structure across
    /// the whole 64-bit space, while staying deterministic per key.
    pub fn mix_key(key: u64) -> u64 {
        Tuple::hash_key(&key.to_le_bytes())
    }
}

impl std::fmt::Debug for Tuple {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tuple")
            .field("event_ns", &self.event_ns)
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// A batch of tuples sharing one header: same producer replica, same logical
/// output stream, same destination. The payload is a refcounted
/// [`Batch`] view — broadcast clones of a jumbo share one slab.
#[derive(Debug)]
pub struct JumboTuple {
    /// Global replica index of the producer.
    pub producer: usize,
    /// Index of the logical edge (into `LogicalTopology::edges`) these
    /// tuples travel on.
    pub logical_edge: usize,
    /// The batched tuples.
    pub batch: Batch,
}

impl JumboTuple {
    /// Bundle `batch` under a producer/edge header.
    pub fn new(producer: usize, logical_edge: usize, batch: Batch) -> JumboTuple {
        JumboTuple {
            producer,
            logical_edge,
            batch,
        }
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.batch.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.batch.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_shared_not_copied() {
        let t = Tuple {
            payload: Arc::new(String::from("hello")),
            event_ns: 42,
            key: 0,
        };
        let clone = t.clone();
        // Arc::ptr_eq proves pass-by-reference: both handles point at the
        // same allocation.
        assert!(Arc::ptr_eq(&t.payload, &clone.payload));
        assert_eq!(clone.event_ns, 42);
    }

    #[test]
    fn fnv_hash_is_stable() {
        // FNV-1a of "a" is a fixed constant; guards against accidental
        // hasher swaps that would break cross-run determinism.
        assert_eq!(Tuple::hash_key(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Tuple::hash_key(b""), 0xcbf29ce484222325);
        assert_ne!(Tuple::hash_key(b"word"), Tuple::hash_key(b"word2"));
    }

    #[test]
    fn jumbo_len() {
        let j = JumboTuple::new(0, 0, Batch::from_rows([(1u8, 0, 0), (2u8, 0, 0)]));
        assert_eq!(j.len(), 2);
        assert!(!j.is_empty());
        // The batch shares its slab with clones of the jumbo's view.
        assert_eq!(j.batch.clone().slab_id(), j.batch.slab_id());
    }
}
