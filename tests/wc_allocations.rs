//! Word Count's data path does not call the allocator in steady state.
//!
//! Slabs recycle uncleared and WC's bolts overwrite payloads in place
//! (`Collector::send_with`), so once the pools and the counters' word
//! table are warm, the only allocations left are the spout's own `String`
//! per sentence and one `Arc` per sealed batch. A counting global
//! allocator measures it inside one sized run through the queued
//! `[1, 1, 2, 2, 1]` plan: allocator calls between two sink-progress
//! marks, over the sentences between them. The first half of the run is
//! warm-up (recycled slabs keep growing to the longest batch a
//! back-pressured slice ever built, and every new slot allocates its
//! payload once). Emitting owned payloads (`sentence.clone()`,
//! `word.to_string()`, an owned `entry` key and an owned `(word, n)` per
//! word) cost 32 per sentence.
//!
//! One test in this binary, so no other test's allocations are counted.

use briskstream::apps::word_count;
use briskstream::runtime::{Engine, EngineConfig, RunLimit, Scheduler};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers to `System` for every call, unchanged; the only addition
// is a relaxed counter bump.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this `layout`; the
        // caller upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const SENTENCES: u64 = 120_000;
const WORDS: u64 = word_count::WORDS_PER_SENTENCE as u64;

#[test]
fn steady_state_word_count_allocates_only_the_spouts_sentence() {
    // Queues short enough that no producer ever has more slabs in flight
    // than its pool keeps (64): a slab returned to a full pool is freed
    // and its successor allocated afresh, payloads and all — the one cold
    // path this test is not about.
    let config = EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers: 2 })
        .fusion(false)
        .queue_capacity(16)
        .build();
    let engine = Engine::new(
        word_count::app_sized(SENTENCES),
        vec![1, 1, 2, 2, 1],
        config,
    )
    .expect("valid engine config");
    let handle = engine.start(RunLimit::Events {
        events: u64::MAX,
        timeout: Duration::from_secs(120),
    });
    // (sink events, allocator calls) once the sinks have seen `words`.
    let mark = |words: u64| loop {
        let seen = handle.sink_events();
        if seen >= words {
            return (seen, ALLOCATIONS.load(Ordering::Relaxed));
        }
        assert!(!handle.is_finished(), "drained before {words} words");
        std::thread::sleep(Duration::from_millis(1));
    };
    let (words_a, allocs_a) = mark(SENTENCES * WORDS / 2);
    let (words_b, allocs_b) = mark(SENTENCES * WORDS * 9 / 10);
    let report = handle.join();
    assert_eq!(report.sink_events, SENTENCES * WORDS, "the run drained");

    let sentences = (words_b - words_a) as f64 / WORDS as f64;
    let per_sentence = (allocs_b - allocs_a) as f64 / sentences;
    println!(
        "{} allocator calls over {sentences:.0} sentences: {per_sentence:.2} per sentence \
         ({} slabs sealed, {} of them fresh, over the whole run)",
        allocs_b - allocs_a,
        report.slab_allocs + report.slab_recycled,
        report.slab_allocs
    );
    // One for the spout's sentence, a fraction for the batches' `Arc`s;
    // the slack is for the tail of the warm-up.
    assert!(
        per_sentence <= 3.0,
        "{per_sentence:.2} allocations per sentence on WC's data path (≈ 1.2 expected)"
    );
}
