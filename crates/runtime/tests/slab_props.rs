//! Property tests for the slab refcount lifecycle behind the zero-copy
//! batch fabric.
//!
//! A random interleaving of builder pushes, seals, clones, slices and
//! drops is replayed against a plain-`Vec` model. Two failure classes are
//! hunted:
//!
//! * **Leaks** — every sealed slab must return to the pool once its last
//!   handle drops: `outstanding` returns to zero at the end of every
//!   sequence, however clones and slices extended the slab's life.
//! * **Use-after-recycle** — a live batch must keep reading its own
//!   payloads and lanes even while *other* slabs are recycled and their
//!   storage is re-filled by later builders. Any aliasing between a
//!   recycled slab's new contents and a live batch's view shows up as a
//!   content mismatch against the model.
//! * **Stale tails** — slabs recycle uncleared, so a slab refilled with
//!   fewer tuples than its previous fill still holds the old ones past
//!   its length. A sealed batch must bound every read by its own length:
//!   its payload slice and lanes are exactly as long as the fill, and
//!   viewing one past the end panics.
//!
//! The sequence runs over `u64` and over `String` payloads (the stale
//! value owns memory and is overwritten in place), pushing by value and
//! through [`BatchBuilder::push_with`].

use brisk_runtime::{Batch, BatchBuilder, SlabPool};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::any::Any;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A payload type the lifecycle sequence can run over.
trait Payload: Any + Send + Sync + Clone + Default + PartialEq + Debug {
    fn make(x: u64) -> Self;
    /// Overwrite `self` with `make(x)`, reusing what it owns.
    fn refill(&mut self, x: u64);
}

impl Payload for u64 {
    fn make(x: u64) -> u64 {
        x
    }
    fn refill(&mut self, x: u64) {
        *self = x;
    }
}

impl Payload for String {
    fn make(x: u64) -> String {
        format!("payload-{x}")
    }
    fn refill(&mut self, x: u64) {
        use std::fmt::Write;
        self.clear();
        write!(self, "payload-{x}").expect("writing to a String");
    }
}

/// One step of a lifecycle sequence, decoded from fuzzer integers so
/// every random vector is a valid program.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Push `n` tuples (1..=8) and seal into a live batch.
    Seal { n: u8, tag: u8 },
    /// Clone live batch `i % live.len()`.
    Clone { i: u8 },
    /// Slice a proper suffix of live batch `i % live.len()`.
    Slice { i: u8 },
    /// Drop live batch `i % live.len()`.
    Drop { i: u8 },
}

fn decode(raw: (u8, u8, u8)) -> Op {
    let (kind, i, tag) = raw;
    match kind % 4 {
        0 => Op::Seal {
            n: (i % 8) + 1,
            tag,
        },
        1 => Op::Clone { i },
        2 => Op::Slice { i },
        _ => Op::Drop { i },
    }
}

/// A live batch paired with the payload/lane contents the model expects
/// it to keep showing until it drops.
struct Live<T> {
    batch: Batch,
    expect: Vec<(T, u64, u64)>, // (payload, event_ns, key)
}

fn check<T: Payload>(live: &Live<T>) {
    let payloads = live.batch.payloads::<T>().expect("element type is T");
    assert_eq!(payloads.len(), live.expect.len());
    assert_eq!(live.batch.event_ns_lane().len(), live.expect.len());
    assert_eq!(live.batch.key_lane().len(), live.expect.len());
    for (i, (p, e, k)) in live.expect.iter().enumerate() {
        assert_eq!(&payloads[i], p, "payload {i} changed under a live view");
        assert_eq!(live.batch.event_ns(i), *e, "event lane {i} changed");
        assert_eq!(live.batch.key(i), *k, "key lane {i} changed");
    }
}

/// Whether reading tuple `i` of `batch` panics (it must, from `len` on:
/// a recycled slab may still hold an older fill's tuple there).
fn view_panics(batch: &Batch, i: usize) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        batch.view(i);
    }))
    .is_err()
}

/// No leak, no use-after-recycle, no stale tail in view, for any
/// alloc/clone/slice/drop interleaving over payload type `T`.
fn lifecycle_matches_model<T: Payload>(raw_ops: Vec<(u8, u8, u8)>) -> Result<(), TestCaseError> {
    let pool = SlabPool::standalone();
    let mut builder = BatchBuilder::new(Arc::clone(&pool));
    let mut live: Vec<Live<T>> = Vec::new();
    let mut serial: u64 = 0;

    for op in raw_ops.into_iter().map(decode) {
        match op {
            Op::Seal { n, tag } => {
                let mut expect = Vec::new();
                for _ in 0..n {
                    serial += 1;
                    // Distinct per-seal contents: recycled storage that
                    // leaked into an older live view cannot match.
                    let (x, e, k) = (serial ^ ((tag as u64) << 32), serial * 3, serial * 7);
                    // Mix both push forms within one slab.
                    let sealed = if (serial + tag as u64) % 2 == 0 {
                        builder.push(T::make(x), e, k)
                    } else {
                        builder.push_with(e, k, |slot: &mut T| slot.refill(x))
                    };
                    prop_assert!(sealed.is_none());
                    expect.push((T::make(x), e, k));
                }
                let batch = builder.seal().expect("non-empty seal");
                // Storage recycled from a longer fill keeps its tail; the
                // batch must not show it.
                let n = n as usize;
                prop_assert_eq!(batch.len(), n);
                prop_assert_eq!(batch.payloads::<T>().expect("typed").len(), n);
                prop_assert!(view_panics(&batch, n));
                live.push(Live { batch, expect });
            }
            Op::Clone { i } => {
                if live.is_empty() {
                    continue;
                }
                let src = &live[i as usize % live.len()];
                live.push(Live {
                    batch: src.batch.clone(),
                    expect: src.expect.clone(),
                });
            }
            Op::Slice { i } => {
                if live.is_empty() {
                    continue;
                }
                let src = &live[i as usize % live.len()];
                if src.expect.len() < 2 {
                    continue;
                }
                let start = 1 + (i as usize % (src.expect.len() - 1));
                let len = src.expect.len() - start;
                live.push(Live {
                    batch: src.batch.slice(start, len),
                    expect: src.expect[start..].to_vec(),
                });
            }
            Op::Drop { i } => {
                if live.is_empty() {
                    continue;
                }
                let idx = i as usize % live.len();
                live.swap_remove(idx);
            }
        }
        // Every live view still reads exactly what the model says,
        // whatever recycling happened on dead slabs meanwhile.
        for l in &live {
            check(l);
        }
        // The pool's leak tripwire never exceeds what is actually
        // reachable: outstanding counts distinct live slabs plus the
        // builder's open slab (none here — every seal closes it).
        let mut slabs: Vec<usize> = live.iter().map(|l| l.batch.slab_id()).collect();
        slabs.sort_unstable();
        slabs.dedup();
        // outstanding must equal the number of distinct live slabs
        prop_assert_eq!(pool.stats().outstanding() as usize, slabs.len());
    }

    let seals = pool.stats().allocated() + pool.stats().recycled();
    drop(live);
    drop(builder);
    prop_assert_eq!(pool.stats().outstanding(), 0); // no slab leaked
                                                    // Sanity: the sequence really exercised the arena.
    prop_assert!(pool.stats().allocated() <= seals);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lifecycle over `Copy` payloads.
    #[test]
    fn slab_lifecycle_matches_model(
        raw_ops in vec((0u8..=255, 0u8..=255, 0u8..=255), 1..120),
    ) {
        lifecycle_matches_model::<u64>(raw_ops)?;
    }

    /// The lifecycle over payloads that own memory: a stale `String` in a
    /// recycled slot is overwritten, never shown.
    #[test]
    fn slab_lifecycle_matches_model_with_owning_payloads(
        raw_ops in vec((0u8..=255, 0u8..=255, 0u8..=255), 1..120),
    ) {
        lifecycle_matches_model::<String>(raw_ops)?;
    }

    /// Dropping handles in any order releases the slab exactly once, and
    /// recycled storage is reused rather than reallocated.
    #[test]
    fn recycle_reuses_storage_without_fresh_allocation(
        clones in 1usize..6,
        rounds in 2usize..10,
    ) {
        let pool = SlabPool::standalone();
        let mut builder = BatchBuilder::new(Arc::clone(&pool));
        for round in 0..rounds {
            prop_assert!(builder.push(round as u64, 0, 0).is_none());
            let batch = builder.seal().expect("non-empty");
            let copies: Vec<Batch> = (0..clones).map(|_| batch.clone()).collect();
            prop_assert_eq!(batch.slab_refs(), clones + 1);
            prop_assert_eq!(pool.stats().outstanding(), 1);
            drop(batch);
            drop(copies);
            prop_assert_eq!(pool.stats().outstanding(), 0);
        }
        // Round 1 allocates; every later round reuses that storage.
        prop_assert_eq!(pool.stats().allocated(), 1);
        prop_assert_eq!(pool.stats().recycled(), rounds as u64 - 1);
    }
}

/// The stale-tail case, spelled out: a slab filled with eight tuples and
/// recycled still holds them when three are pushed over it.
#[test]
fn refill_shorter_than_the_previous_fill_hides_the_stale_tail() {
    let pool = SlabPool::standalone();
    let mut builder = BatchBuilder::new(Arc::clone(&pool));
    for i in 0..8u64 {
        let _ = builder.push(format!("old-{i}"), i, i);
    }
    drop(builder.seal());
    for i in 0..3u64 {
        let _ = builder.push_with(100 + i, 200 + i, |slot: &mut String| {
            assert_eq!(
                *slot,
                format!("old-{i}"),
                "the slot is handed over as it is"
            );
            slot.clear();
            slot.push_str("new");
        });
    }
    let batch = builder.seal().expect("non-empty");
    assert_eq!(
        pool.stats().recycled(),
        1,
        "the second fill reused the slab"
    );
    assert_eq!(batch.len(), 3);
    assert_eq!(batch.payloads::<String>().expect("typed"), ["new"; 3]);
    assert_eq!(batch.event_ns_lane(), [100, 101, 102]);
    assert_eq!(batch.key_lane(), [200, 201, 202]);
    assert_eq!(batch.iter().count(), 3);
    assert!(view_panics(&batch, 3));
    assert!(catch_unwind(AssertUnwindSafe(|| batch.slice(0, 4))).is_err());
}

/// A `fill` that panics leaves the builder as it was, whether or not a
/// slab was open, and the next push lands in the slot it was writing.
#[test]
fn panicking_fill_leaves_the_builder_unchanged() {
    let pool = SlabPool::standalone();
    let mut builder = BatchBuilder::new(Arc::clone(&pool));
    let poison = |builder: &mut BatchBuilder| {
        catch_unwind(AssertUnwindSafe(|| {
            let _ = builder.push_with(9, 9, |slot: &mut String| {
                slot.push_str("half-written");
                panic!("fill failed");
            });
        }))
        .expect_err("fill panics")
    };

    // Nothing open yet: the builder stays empty and leaks no slab.
    poison(&mut builder);
    assert_eq!(builder.len(), 0);
    assert!(builder.seal().is_none());
    assert_eq!(pool.stats().outstanding(), 0);

    let _ = builder.push(String::from("a"), 1, 1);
    poison(&mut builder);
    assert_eq!(builder.len(), 1);
    let _ = builder.push(String::from("b"), 2, 2);
    let batch = builder.seal().expect("non-empty");
    assert_eq!(batch.payloads::<String>().expect("typed"), ["a", "b"]);
    assert_eq!(batch.event_ns_lane(), [1, 2]);

    // A type switch runs `fill` before sealing: the open batch survives.
    let _ = builder.push(7u64, 3, 3);
    poison(&mut builder);
    assert_eq!(builder.len(), 1);
    assert_eq!(
        builder.seal().expect("kept").payloads::<u64>(),
        Some(&[7][..])
    );
}
