//! Word Count (WC) — Figure 2 of the paper.
//!
//! `spout → parser → splitter → counter → sink`. The spout generates
//! sentences of ten random words; the parser drops invalid tuples
//! (selectivity 1 on this workload); the splitter emits each word as its own
//! tuple (selectivity 10); the counter maintains a keyed hashmap and emits
//! `(word, count)` per input word; the sink counts results.
//!
//! Cost calibration: the paper's Table 3 reports the measured local
//! per-tuple times on Server A — Splitter 1612.8 ns, Counter 612.3 ns — and
//! Figure 8 isolates small "Others" components under BriskStream; remaining
//! operators are set so that the RLAS-optimized 8-socket plan lands near the
//! paper's 96.4M events/s (Table 4).

use crate::generators::SentenceGenerator;
use crate::CALIBRATION_GHZ;
use brisk_dag::{CostProfile, LogicalTopology, Partitioning, TopologyBuilder, DEFAULT_STREAM};
use brisk_runtime::{
    AppRuntime, Collector, DynBolt, DynSpout, SpoutStatus, StateEntry, Tuple, TupleView,
};
use std::collections::HashMap;

/// Operator names, in pipeline order.
pub const OPERATORS: [&str; 5] = ["spout", "parser", "splitter", "counter", "sink"];

/// Words per generated sentence (the paper uses ten).
pub const WORDS_PER_SENTENCE: usize = 10;

/// The WC logical topology with calibrated cost profiles.
pub fn topology() -> LogicalTopology {
    let ghz = CALIBRATION_GHZ;
    let mut b = TopologyBuilder::new("word_count");
    // (exec ns, others ns, M bytes/tuple, N output bytes) at 1.2 GHz.
    let spout = b.add_spout(
        "spout",
        CostProfile::from_ns_at_ghz(450.0, 50.0, 160.0, 100.0, ghz),
    );
    let parser = b.add_bolt(
        "parser",
        CostProfile::from_ns_at_ghz(180.0, 40.0, 120.0, 100.0, ghz),
    );
    let splitter = b.add_bolt(
        "splitter",
        CostProfile::from_ns_at_ghz(1500.0, 112.8, 320.0, 32.0, ghz),
    );
    let counter = b.add_bolt(
        "counter",
        CostProfile::from_ns_at_ghz(550.0, 62.3, 96.0, 32.0, ghz),
    );
    let sink = b.add_sink(
        "sink",
        CostProfile::from_ns_at_ghz(40.0, 10.0, 32.0, 16.0, ghz),
    );
    b.connect_shuffle(spout, parser);
    b.connect_shuffle(parser, splitter);
    // The same word must reach the same counter: key partitioning.
    b.connect(splitter, DEFAULT_STREAM, counter, Partitioning::KeyBy);
    b.connect_shuffle(counter, sink);
    // Each sentence splits into ten words.
    b.set_selectivity(splitter, None, DEFAULT_STREAM, WORDS_PER_SENTENCE as f64);
    // The counter emits (word, count) under the word's own key — keyed
    // exactly like its input (the splitter's hash), so a downstream KeyBy
    // at equal counts would align. The parser forwards tuples verbatim.
    b.set_key_preserving(parser);
    b.set_key_preserving(counter);
    b.build().expect("WC topology is valid")
}

struct WcSpout {
    replica: u64,
    seed: u64,
    skew_shift: Option<(u64, f64)>,
    generator: SentenceGenerator,
    remaining: u64,
}

impl WcSpout {
    fn build_generator(seed: u64, skew_shift: Option<(u64, f64)>) -> SentenceGenerator {
        let g = SentenceGenerator::new(seed, 1000, WORDS_PER_SENTENCE);
        match skew_shift {
            Some((after, exponent)) => g.with_skew_shift(after, exponent),
            None => g,
        }
    }
}

impl DynSpout for WcSpout {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        if self.remaining == 0 {
            return SpoutStatus::Exhausted;
        }
        self.remaining -= 1;
        let sentence = self.generator.next_sentence();
        let now = collector.now_ns();
        collector.send_default(sentence, now, 0);
        SpoutStatus::Emitted(1)
    }

    fn extract_state(&mut self) -> Option<Vec<StateEntry>> {
        Some(vec![(
            self.replica,
            crate::spout_state::encode(self.seed, self.generator.produced(), self.remaining),
        )])
    }

    fn install_state(&mut self, entries: Vec<StateEntry>) {
        if let Some((seed, emitted, remaining)) = crate::spout_state::merge(&entries) {
            self.seed = seed;
            self.generator = Self::build_generator(seed, self.skew_shift);
            self.generator.skip_sentences(emitted);
            self.remaining = remaining;
        } else {
            // Empty hand-off: this replica got no share of the migrated
            // budget. Keeping the factory default would emit it twice.
            self.remaining = 0;
        }
    }
}

struct WcParser;

impl DynBolt for WcParser {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        let Some(sentence) = tuple.value::<String>() else {
            return;
        };
        // Drop invalid (empty) tuples; selectivity is 1 on this workload.
        if !sentence.is_empty() {
            collector.send_with(
                DEFAULT_STREAM,
                tuple.event_ns,
                tuple.key,
                |out: &mut String| out.clone_from(sentence),
            );
        }
    }
}

struct WcSplitter;

impl DynBolt for WcSplitter {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        let Some(sentence) = tuple.value::<String>() else {
            return;
        };
        for word in sentence.split(' ') {
            let key = Tuple::hash_key(word.as_bytes());
            collector.send_with(DEFAULT_STREAM, tuple.event_ns, key, |out: &mut String| {
                out.clear();
                out.push_str(word);
            });
        }
    }
}

struct WcCounter {
    counts: HashMap<String, u64>,
}

impl DynBolt for WcCounter {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        let Some(word) = tuple.value::<String>() else {
            return;
        };
        // `entry` would need an owned key — an allocation per word, freed
        // at once whenever the word is already counted.
        let count = match self.counts.get_mut(word.as_str()) {
            Some(count) => {
                *count += 1;
                *count
            }
            None => {
                self.counts.insert(word.clone(), 1);
                1
            }
        };
        collector.send_with(
            DEFAULT_STREAM,
            tuple.event_ns,
            tuple.key,
            |out: &mut (String, u64)| {
                out.0.clone_from(word);
                out.1 = count;
            },
        );
    }

    fn extract_state(&mut self) -> Option<Vec<StateEntry>> {
        // One entry per word, keyed exactly like the splitter keys the
        // word's tuples, so redistribution lands each count on the replica
        // that will keep counting that word under the new plan.
        Some(
            self.counts
                .drain()
                .map(|(word, count)| {
                    let mut bytes = count.to_le_bytes().to_vec();
                    bytes.extend_from_slice(word.as_bytes());
                    (Tuple::hash_key(word.as_bytes()), bytes)
                })
                .collect(),
        )
    }

    fn install_state(&mut self, entries: Vec<StateEntry>) {
        for (_, bytes) in entries {
            if bytes.len() < 8 {
                continue;
            }
            let count = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
            let Ok(word) = std::str::from_utf8(&bytes[8..]) else {
                continue;
            };
            *self.counts.entry(word.to_string()).or_insert(0) += count;
        }
    }
}

struct WcSink;

impl DynBolt for WcSink {
    fn execute(&mut self, _tuple: &TupleView<'_>, _collector: &mut Collector) {}
}

/// The runnable WC application (threaded engine form), generating sentences
/// until stopped.
pub fn app() -> AppRuntime {
    app_sized(u64::MAX)
}

/// The runnable WC application with a deterministic input budget: the
/// spouts emit exactly `total_events` sentences in total (split across
/// replicas), then exhaust.
pub fn app_sized(total_events: u64) -> AppRuntime {
    app_sized_skewed(total_events, None)
}

/// [`app_sized`] with an optional mid-run key-skew shift: after each spout
/// replica has produced `after` sentences, its word distribution is rebuilt
/// with Zipf exponent `exponent` (the default is 1.0), moving the hot keys'
/// load between counter replicas — the drifting workload the elastic
/// runtime's skew-aware re-weighting reacts to.
pub fn app_sized_skewed(total_events: u64, skew_shift: Option<(u64, f64)>) -> AppRuntime {
    let t = topology();
    let ids: Vec<_> = OPERATORS
        .iter()
        .map(|n| t.find(n).expect("operator exists"))
        .collect();
    AppRuntime::new(t)
        .spout(ids[0], move |ctx| {
            let seed = 0x5747_u64 ^ ctx.replica as u64;
            WcSpout {
                replica: ctx.replica as u64,
                seed,
                skew_shift,
                generator: WcSpout::build_generator(seed, skew_shift),
                remaining: crate::replica_share(total_events, ctx.replica, ctx.replicas),
            }
        })
        .bolt(ids[1], |_| WcParser)
        .bolt(ids[2], |_| WcSplitter)
        .bolt(ids[3], |_| WcCounter {
            counts: HashMap::new(),
        })
        .sink(ids[4], |_| WcSink)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_shape() {
        let t = topology();
        assert_eq!(t.operator_count(), 5);
        let splitter = t.find("splitter").expect("exists");
        assert_eq!(
            t.operator(splitter).selectivity(None, DEFAULT_STREAM),
            WORDS_PER_SENTENCE as f64
        );
        // Splitter's local time matches Table 3: 1612.8 ns at 1.2 GHz.
        let total_ns =
            t.operator(splitter).cost.exec_ns(1.2e9) + t.operator(splitter).cost.overhead_ns(1.2e9);
        assert!((total_ns - 1612.8).abs() < 0.1);
        let counter = t.find("counter").expect("exists");
        let counter_ns =
            t.operator(counter).cost.exec_ns(1.2e9) + t.operator(counter).cost.overhead_ns(1.2e9);
        assert!((counter_ns - 612.3).abs() < 0.1);
    }

    #[test]
    fn counter_edge_is_keyed() {
        let t = topology();
        let splitter = t.find("splitter").expect("exists");
        let edge = t.outgoing_edges(splitter).next().expect("edge");
        assert_eq!(edge.partitioning, Partitioning::KeyBy);
    }

    #[test]
    fn app_validates() {
        assert!(app().validate().is_ok());
    }
}
