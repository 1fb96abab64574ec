//! Quickstart: define a topology, let RLAS plan it, then run it both ways —
//! simulated on the paper's Server A and threaded for real on this host.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use briskstream::core::BriskStream;
use briskstream::dag::{CostProfile, TopologyBuilder};
use briskstream::numa::Machine;
use briskstream::runtime::{
    AppRuntime, Collector, DynBolt, DynSpout, EngineConfig, SpoutStatus, TupleView,
};
use briskstream::sim::SimConfig;
use std::time::Duration;

struct NumberSpout {
    next: u64,
}

impl DynSpout for NumberSpout {
    fn next(&mut self, collector: &mut Collector) -> SpoutStatus {
        let now = collector.now_ns();
        collector.send_default(self.next, now, self.next);
        self.next += 1;
        SpoutStatus::Emitted(1)
    }
}

struct SquareBolt;

impl DynBolt for SquareBolt {
    fn execute(&mut self, tuple: &TupleView<'_>, collector: &mut Collector) {
        let v = *tuple.value::<u64>().expect("u64 payload");
        collector.send_default(v.wrapping_mul(v), tuple.event_ns, tuple.key);
    }
}

struct NullSink;

impl DynBolt for NullSink {
    fn execute(&mut self, _tuple: &TupleView<'_>, _collector: &mut Collector) {}
}

fn main() {
    // 1. Describe the application: spout -> square -> sink, with profiled
    //    per-tuple costs (cycles, memory traffic, tuple bytes).
    let mut builder = TopologyBuilder::new("quickstart");
    let spout = builder.add_spout("numbers", CostProfile::new(200.0, 30.0, 64.0, 64.0));
    let square = builder.add_bolt("square", CostProfile::new(600.0, 40.0, 64.0, 64.0));
    let sink = builder.add_sink("sink", CostProfile::new(60.0, 10.0, 32.0, 16.0));
    builder.connect_shuffle(spout, square);
    builder.connect_shuffle(square, sink);
    let topology = builder.build().expect("valid DAG");

    // 2. Optimize an execution plan for the paper's 8-socket Server A.
    let machine = Machine::server_a();
    println!("{machine}");
    let mut system = BriskStream::new(machine);
    let report = system.submit(&topology).expect("feasible plan");
    let graph = briskstream::dag::ExecutionGraph::new(
        &topology,
        &report.plan.replication,
        report.plan.compress_ratio,
    );
    println!(
        "RLAS plan after {} scaling iterations — predicted {:.1}k events/s",
        report.iterations,
        report.predicted_throughput / 1e3
    );
    print!("{}", report.plan.describe(&graph));

    // 3. "Measure" the plan on the virtual machine.
    let sim = system
        .simulate(&topology, &report.plan, SimConfig::default())
        .expect("simulates");
    println!(
        "simulated: {:.1}k events/s (p99 latency {:.2} ms)",
        sim.k_events_per_sec(),
        sim.latency_ns.percentile(99.0) / 1e6
    );

    // 4. Run the real threaded engine on this host for half a second, with
    //    a small host-friendly plan.
    let host_machine = Machine::server_a().restrict_sockets(1);
    let mut host = BriskStream::with_options(
        host_machine,
        briskstream::rlas::ScalingOptions {
            compress_ratio: 1,
            max_total_replicas: Some(6),
            ..Default::default()
        },
    );
    let host_plan = host.submit(&topology).expect("feasible host plan");
    let app = AppRuntime::new(topology.clone())
        .spout(spout, |_| NumberSpout { next: 0 })
        .bolt(square, |_| SquareBolt)
        .sink(sink, |_| NullSink);
    let run = host
        .execute(
            app,
            &host_plan.plan,
            EngineConfig::default(),
            Duration::from_millis(500),
        )
        .expect("engine runs");
    println!(
        "threaded on this host: {:.1}k events/s over {:?} ({} tuples, p99 {:.2} ms)",
        run.k_events_per_sec(),
        run.elapsed,
        run.sink_events,
        run.latency_ns.percentile(99.0) / 1e6
    );
}
