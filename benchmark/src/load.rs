//! The benchmark's own load generator and measuring sink.
//!
//! Both are installed over `brisk_apps::*::app()` with
//! `AppRuntime::{spout, sink}` (the builder methods overwrite), so the
//! operators in between are the applications' real ones and the engine sees
//! nothing but generated inputs.
//!
//! The input is a fixed set of [`LANES`] seeded generator lanes. A spout
//! replica owns the lanes congruent to its index, so the *multiset* of
//! generated events — and with it every count and digest the verification
//! compares — is the same under any replication of the spout.

use brisk_apps::generators::{
    LrEvent, LrGenerator, SensorGenerator, SensorReading, SentenceGenerator,
};
use brisk_apps::replica_share;
use brisk_metrics::Histogram;
use brisk_runtime::{
    AppRuntime, BatchCursor, BoltContext, Collector, DynBolt, DynSpout, SpoutStatus, TupleView,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Generator lanes per workload; also the largest spout replication the
/// load can feed (further replicas would own no lane).
pub const LANES: usize = 8;

/// Bucket growth of every latency and lateness histogram: 1 % resolution.
pub const HIST_GROWTH: f64 = 1.01;

/// One seeded source of input events.
pub trait EventGen: Send + 'static {
    /// Payload type the application's first bolt expects.
    type Item: Clone + Send + Sync + 'static;
    /// A generator for one lane.
    fn new(seed: u64) -> Self;
    /// The next event: payload, partitioning key, and the number of sink
    /// tuples the application must deliver for it (its conservation law).
    fn next(&mut self) -> (Self::Item, u64, u64);
}

/// Word Count input: ten-word sentences over a 1000-word Zipf vocabulary.
pub struct Sentences(SentenceGenerator);

impl EventGen for Sentences {
    type Item = String;
    fn new(seed: u64) -> Self {
        Sentences(SentenceGenerator::new(
            seed,
            1000,
            brisk_apps::word_count::WORDS_PER_SENTENCE,
        ))
    }
    fn next(&mut self) -> (String, u64, u64) {
        (
            self.0.next_sentence(),
            0,
            brisk_apps::word_count::WORDS_PER_SENTENCE as u64,
        )
    }
}

/// Spike Detection input: readings from 256 devices, 2 % spikes.
pub struct Readings(SensorGenerator);

impl EventGen for Readings {
    type Item = SensorReading;
    fn new(seed: u64) -> Self {
        Readings(SensorGenerator::new(seed, 256))
    }
    fn next(&mut self) -> (SensorReading, u64, u64) {
        let r = self.0.next_reading();
        (r, r.device as u64, 1)
    }
}

/// Linear Road input: 99 % position reports, 1 % account queries.
pub struct RoadEvents(LrGenerator);

impl EventGen for RoadEvents {
    type Item = LrEvent;
    fn new(seed: u64) -> Self {
        RoadEvents(LrGenerator::new(seed, 10_000))
    }
    fn next(&mut self) -> (LrEvent, u64, u64) {
        let e = self.0.next_event();
        match e {
            // A position report reaches the sink three times: as a toll
            // answer, through the vehicle count and through the segment
            // speed chain (accident notifications come on top, see
            // `Workload::content_dependent_op`).
            LrEvent::Position { vehicle, .. } => (e, vehicle as u64, 3),
            LrEvent::AccountBalance { vehicle } | LrEvent::DailyExpenditure { vehicle } => {
                (e, vehicle as u64, 1)
            }
        }
    }
}

/// How the spouts offer input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Exactly this many events in total, then exhaust (verification).
    Sized(u64),
    /// Closed loop: emit whenever back-pressure admits.
    Saturated,
    /// Open loop on a fixed absolute schedule.
    Paced(Schedule),
}

/// The open-loop schedule: global event `g` is due at
/// `start_ns + g × 10⁹ / rate` on the engine clock, whatever the engine is
/// doing. Lane `l` owns the events with `g ≡ l (mod LANES)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Total input rate over all lanes, events per second.
    pub rate: u64,
    /// Engine-clock time the first event is due.
    pub start_ns: u64,
}

impl Schedule {
    /// Due time of global event `g`, engine-clock nanoseconds.
    pub fn due_ns(&self, g: u64) -> u64 {
        self.start_ns + (g as u128 * 1_000_000_000 / self.rate as u128) as u64
    }

    /// Global index of the `i`-th event of `lane`.
    pub fn global_index(lane: usize, i: u64) -> u64 {
        i * LANES as u64 + lane as u64
    }
}

/// The lanes replica `replica` of `replicas` owns, ascending. A replica's
/// share of the paced rate is its lane count over [`LANES`].
pub fn lanes_of(replica: usize, replicas: usize) -> Vec<usize> {
    (0..LANES).filter(|l| l % replicas == replica).collect()
}

/// The measured part of a timed phase on the engine clock: `count` windows
/// of `width_ns` starting at `start_ns` (the end of the warm-up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Windows {
    /// End of the discarded warm-up.
    pub start_ns: u64,
    /// Width of one window.
    pub width_ns: u64,
    /// Number of windows.
    pub count: usize,
}

impl Windows {
    /// No windows: nothing is recorded (sized and set-up runs).
    pub const NONE: Windows = Windows {
        start_ns: 0,
        width_ns: 1,
        count: 0,
    };

    /// The window engine-clock time `now_ns` falls in, if any.
    pub fn index(&self, now_ns: u64) -> Option<usize> {
        let w = (now_ns.checked_sub(self.start_ns)? / self.width_ns) as usize;
        (w < self.count).then_some(w)
    }
}

/// Order-independent digest of a multiset of keys.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Number of keys.
    pub count: u64,
    /// Xor of the mixed keys.
    pub xor: u64,
    /// Wrapping sum of the mixed keys.
    pub sum: u64,
}

impl Digest {
    /// Fold one key in.
    pub fn add(&mut self, key: u64) {
        // splitmix64 finalizer: equal multisets agree, and a swapped,
        // dropped or duplicated key moves both lanes.
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        self.count += 1;
        self.xor ^= z;
        self.sum = self.sum.wrapping_add(z);
    }

    /// Fold another digest in.
    pub fn merge(&mut self, other: &Digest) {
        self.count += other.count;
        self.xor ^= other.xor;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// What one spout replica generated.
#[derive(Debug, Default)]
pub struct SpoutTally {
    /// Events emitted.
    pub emitted: u64,
    /// Sink tuples those events must produce.
    pub expected_sink: u64,
    /// Generator lateness (emit time − due time) inside the windows, ns.
    pub late: Option<Histogram>,
    /// Per window: summed lateness and event count.
    pub late_by_window: Vec<(f64, u64)>,
}

/// What one sink replica received.
#[derive(Debug, Default)]
pub struct SinkTally {
    /// Digest (and count) of every delivered tuple's key.
    pub digest: Digest,
    /// Engine-clock reads made to time deliveries.
    pub clock_reads: u64,
    /// Due-time → sink latency per window, ns.
    pub by_window: Vec<Histogram>,
}

/// Where replicas leave their tallies when the engine drops them.
#[derive(Debug, Default)]
pub struct LoadShared {
    /// One entry per retired spout replica.
    pub spouts: Mutex<Vec<SpoutTally>>,
    /// One entry per retired sink replica.
    pub sinks: Mutex<Vec<SinkTally>>,
    /// Spout and sink instances built and not yet dropped; zero once
    /// `EngineHandle::join` has returned.
    pub live: AtomicUsize,
}

struct Lane<G> {
    generator: G,
    lane: usize,
    emitted: u64,
    budget: u64,
}

/// The benchmark's spout: one instance per spout replica.
pub struct LoadSpout<G: EventGen> {
    lanes: Vec<Lane<G>>,
    cursor: usize,
    input: Input,
    windows: Windows,
    tally: SpoutTally,
    shared: Arc<LoadShared>,
}

impl<G: EventGen> LoadSpout<G> {
    fn new(
        ctx: BoltContext,
        seed: u64,
        input: Input,
        windows: Windows,
        shared: Arc<LoadShared>,
    ) -> Self {
        assert!(
            ctx.replicas <= LANES,
            "{} spout replicas, but the load has {LANES} lanes",
            ctx.replicas
        );
        let lanes = lanes_of(ctx.replica, ctx.replicas)
            .into_iter()
            .map(|lane| Lane {
                // Distinct, seed-dependent stream per lane.
                generator: G::new(seed.wrapping_mul(LANES as u64 + 1) + lane as u64),
                lane,
                emitted: 0,
                budget: match input {
                    Input::Sized(total) => replica_share(total, lane, LANES),
                    _ => u64::MAX,
                },
            })
            .collect();
        shared.live.fetch_add(1, Ordering::SeqCst);
        LoadSpout {
            lanes,
            cursor: 0,
            input,
            windows,
            tally: SpoutTally {
                late: matches!(input, Input::Paced(_)).then(|| Histogram::with_growth(HIST_GROWTH)),
                late_by_window: vec![(0.0, 0); windows.count],
                ..SpoutTally::default()
            },
            shared,
        }
    }
}

impl<G: EventGen> DynSpout for LoadSpout<G> {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        // Lanes are visited round-robin in ascending order, which is also
        // ascending due time: every owned lane has emitted the same number
        // of events when the cursor wraps.
        let n = self.lanes.len();
        let Some(slot) = (0..n)
            .map(|k| (self.cursor + k) % n)
            .find(|&s| self.lanes[s].emitted < self.lanes[s].budget)
        else {
            return SpoutStatus::Exhausted;
        };
        let lane = &mut self.lanes[slot];
        let event_ns = match self.input {
            Input::Paced(schedule) => {
                let due = schedule.due_ns(Schedule::global_index(lane.lane, lane.emitted));
                // A fresh clock read per event: the stamp is the due time,
                // so whatever the generator is late by is inside the
                // measured latency, and the lateness itself is recorded.
                let now = collector.now_ns();
                if due > now {
                    return SpoutStatus::Idle;
                }
                if let Some(w) = self.windows.index(now) {
                    let late = (now - due) as f64;
                    if let Some(h) = self.tally.late.as_mut() {
                        h.record(late);
                    }
                    self.tally.late_by_window[w].0 += late;
                    self.tally.late_by_window[w].1 += 1;
                }
                due
            }
            Input::Sized(_) | Input::Saturated => 0,
        };
        let (item, key, sink_tuples) = lane.generator.next();
        lane.emitted += 1;
        self.cursor = (slot + 1) % n;
        self.tally.emitted += 1;
        self.tally.expected_sink += sink_tuples;
        collector.send_default(item, event_ns, key);
        SpoutStatus::Emitted(1)
    }
}

impl<G: EventGen> Drop for LoadSpout<G> {
    fn drop(&mut self) {
        if let Ok(mut spouts) = self.shared.spouts.lock() {
            spouts.push(std::mem::take(&mut self.tally));
        }
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The benchmark's sink: counts and digests every delivery and, in a paced
/// phase, times it against the event's due time.
pub struct LoadSink {
    latency: bool,
    windows: Windows,
    tally: SinkTally,
    shared: Arc<LoadShared>,
}

impl LoadSink {
    fn new(latency: bool, windows: Windows, shared: Arc<LoadShared>) -> Self {
        shared.live.fetch_add(1, Ordering::SeqCst);
        LoadSink {
            latency,
            windows,
            tally: SinkTally {
                by_window: if latency {
                    (0..windows.count)
                        .map(|_| Histogram::with_growth(HIST_GROWTH))
                        .collect()
                } else {
                    Vec::new()
                },
                ..SinkTally::default()
            },
            shared,
        }
    }

    /// The window to record into, from a clock read made *now* — never a
    /// value cached from an earlier delivery, which would read as latency 0.
    fn window_now(&mut self, collector: &Collector) -> Option<(usize, u64)> {
        if !self.latency {
            return None;
        }
        self.tally.clock_reads += 1;
        let now = collector.now_ns();
        self.windows.index(now).map(|w| (w, now))
    }
}

impl DynBolt for LoadSink {
    /// The fused path delivers tuple by tuple: one clock read per call.
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        self.tally.digest.add(tuple.key);
        if let Some((w, now)) = self.window_now(collector) {
            self.tally.by_window[w].record(now.saturating_sub(tuple.event_ns) as f64);
        }
    }

    /// The queued path delivers a batch: one clock read per batch.
    fn consume(&mut self, input: &BatchCursor<'_>, collector: &mut Collector) {
        for &key in input.key_lane() {
            self.tally.digest.add(key);
        }
        if let Some((w, now)) = self.window_now(collector) {
            let hist = &mut self.tally.by_window[w];
            for &event_ns in input.event_ns_lane() {
                hist.record(now.saturating_sub(event_ns) as f64);
            }
        }
        input.mark_done(input.len());
    }
}

impl Drop for LoadSink {
    fn drop(&mut self) {
        if let Ok(mut sinks) = self.shared.sinks.lock() {
            sinks.push(std::mem::take(&mut self.tally));
        }
        self.shared.live.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Generate `n` events with `G` outside any engine and return a checksum of
/// their keys — the generator rung of the layer ladder.
pub fn generate<G: EventGen>(seed: u64, n: u64) -> u64 {
    let mut generator = G::new(seed);
    (0..n).fold(0u64, |acc, _| acc.wrapping_add(generator.next().1))
}

/// Everything one engine run's load needs.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Workload seed (`--seed`).
    pub seed: u64,
    /// Input mode.
    pub input: Input,
    /// Measured windows (`Windows::NONE` outside the timed phases).
    pub windows: Windows,
}

/// Replace `app`'s spout and sink with the benchmark's, generating with `G`.
pub fn install<G: EventGen>(app: AppRuntime, config: LoadConfig) -> (AppRuntime, Arc<LoadShared>) {
    let spout = app.topology.spouts()[0];
    let sink = app.topology.sinks()[0];
    let shared = Arc::new(LoadShared::default());
    let (for_spout, for_sink) = (Arc::clone(&shared), Arc::clone(&shared));
    let latency = matches!(config.input, Input::Paced(_));
    let app = app
        .spout(spout, move |ctx| {
            LoadSpout::<G>::new(
                ctx,
                config.seed,
                config.input,
                config.windows,
                Arc::clone(&for_spout),
            )
        })
        .sink(sink, move |_| {
            LoadSink::new(latency, config.windows, Arc::clone(&for_sink))
        });
    (app, shared)
}
