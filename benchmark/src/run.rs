//! One workload, measured in fixed steps (see the README): paper-scale plan →
//! one set-up pass → verify → the remaining set-up repetitions → saturated
//! phase → paced phase.

use crate::estimator::{hist_percentile, median, quiet_high, quiet_low};
use crate::host::{self, Usage};
use crate::layers;
use crate::load::{Digest, Input, LoadConfig, LoadShared, Schedule, Windows, HIST_GROWTH};
use crate::trace::Tracer;
use crate::workload::Workload;
use brisk_core::profiler::{instantiate, live_profile, OperatorProfile};
use brisk_dag::{ExecutionPlan, LogicalTopology};
use brisk_metrics::{Cdf, Histogram};
use brisk_numa::Machine;
use brisk_rlas::{optimize, spawned_executors, OptimizedPlan, PlacementOptions, ScalingOptions};
use brisk_runtime::{Engine, EngineConfig, EngineHandle, RunLimit, RunReport, Scheduler};
use std::time::{Duration, Instant};

/// Samples per operator for live profiling.
pub const PROFILE_SAMPLES: usize = 20_000;
/// Input events of each verification run.
pub const VERIFY_EVENTS: u64 = 200_000;
/// Discarded at the start of each timed phase.
pub const WARMUP: Duration = Duration::from_secs(2);
/// Width of one measurement window.
pub const WINDOW: Duration = Duration::from_millis(500);
/// Set-up repetitions: at least this many and at least [`SETUP_MIN`] long.
pub const SETUP_REPS: usize = 5;
/// Least total set-up time over all repetitions, seconds.
pub const SETUP_MIN: f64 = 2.0;
/// Paper-scale planning: at least this many calls and [`PLAN_MIN`] long.
pub const PLAN_CALLS: usize = 3;
/// Least total time spent planning at paper scale.
pub const PLAN_MIN: Duration = Duration::from_secs(2);
/// Due time of the first paced event on the engine clock.
const PACED_START_NS: u64 = 10_000_000;

/// Command-line options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds, split evenly between the two timed phases.
    pub seconds: u64,
    /// Traced run: record spans and compute the per-layer metrics.
    pub trace: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named and united as in `BENCHMARK.json`.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Input events of the verification runs and both timed phases.
    pub attempted: u64,
    /// Sink tuples missing or extra, plus quarantined tuples.
    pub failed: u64,
    /// Why the run is invalid, if it is.
    pub problems: Vec<String>,
    /// End-to-end metrics (always measured).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
}

impl Outcome {
    /// Every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// The machine the run plan is optimized for and the engine charges fetch
/// costs against: Server A restricted to two sockets.
pub fn run_machine() -> Machine {
    Machine::server_a().restrict_sockets(2)
}

/// The engine configuration every run uses: work-stealing pool sized to the
/// host, default queue fabric, fusion on.
pub fn engine_config(workers: usize) -> EngineConfig {
    EngineConfig::builder()
        .scheduler(Scheduler::CorePool { workers })
        .build()
}

/// RLAS options for the run plan: executor budget 8 (or one more than the
/// all-ones plan spawns, if that is larger), compression 2, 6000 B&B nodes.
pub fn run_plan_options(topology: &LogicalTopology) -> ScalingOptions {
    let all_ones = vec![1usize; topology.operator_count()];
    let floor = spawned_executors(topology, &all_ones) + 1;
    ScalingOptions {
        compress_ratio: 2,
        max_total_replicas: Some(floor.max(8)),
        placement: PlacementOptions {
            max_nodes: 6_000,
            ..PlacementOptions::default()
        },
        ..ScalingOptions::default()
    }
}

/// What the set-up step leaves behind.
pub struct Setup {
    /// Median wall time of one repetition, seconds.
    pub median_s: f64,
    /// The plan every later step executes (from calibrated costs).
    pub plan: ExecutionPlan,
    /// The application topology calibrated with this host's profiled costs
    /// (for predictions about this host; the plan is not made from it).
    pub topology: LogicalTopology,
    /// Profiled median per-tuple time of each operator, ns.
    pub body_ns: Vec<f64>,
    /// Mean time from `Engine::start` returning to the first sink tuple, ms.
    pub first_event_ms: f64,
    /// Mean time from `request_stop` to `join` returning, ms.
    pub drain_ms: f64,
}

/// Start → first sink tuple → stop → drained; returns (first event, drain)
/// in milliseconds.
fn first_event_and_drain(handle: EngineHandle, tracer: &Tracer) -> (f64, f64) {
    let t0 = Instant::now();
    {
        let _s = tracer.enter("runtime.first_event");
        while handle.sink_events() == 0 && t0.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    let first_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t1 = Instant::now();
    let _s = tracer.enter("runtime.drain");
    handle.request_stop();
    handle.join();
    (first_ms, t1.elapsed().as_secs_f64() * 1e3)
}

/// One repetition of step 1.
struct SetupRep {
    /// Wall time from building the application to `Engine::start` returning.
    secs: f64,
    /// Profiled median per-tuple time of each operator, ns.
    body_ns: Vec<f64>,
    /// `Engine::start` returning → first sink tuple, ms.
    first_event_ms: f64,
    /// `request_stop` → `join` returning, ms.
    drain_ms: f64,
}

/// Step 1, once: profile → instantiate → optimize → wire → start.
fn setup_once(w: &Workload, opts: &RunOptions, tracer: &Tracer) -> SetupRep {
    let machine = run_machine();
    let _rep = tracer.enter("bench.setup");
    let t0 = Instant::now();
    let (app, _) = (w.install)(
        (w.app)(),
        LoadConfig {
            seed: opts.seed,
            input: Input::Saturated,
            windows: Windows::NONE,
        },
    );
    let mut profiles = {
        let _s = tracer.enter("core.live_profile");
        live_profile(&app, PROFILE_SAMPLES)
    };
    let topology = {
        let _s = tracer.enter("core.instantiate");
        instantiate(&app.topology, &mut profiles, machine.clock_hz())
    };
    let planned = {
        let _s = tracer.enter("rlas.optimize_run_plan");
        optimize(&machine, &topology, &run_plan_options(&topology))
            .expect("the run machine hosts every workload")
    };
    let engine = {
        let _s = tracer.enter("runtime.with_plan");
        Engine::with_plan(app, &planned.plan, &machine, engine_config(0))
            .expect("the run plan is executable")
    };
    let handle = {
        let _s = tracer.enter("runtime.start");
        engine.start(RunLimit::Duration(Duration::from_secs(3600)))
    };
    let secs = t0.elapsed().as_secs_f64();
    let (first_event_ms, drain_ms) = first_event_and_drain(handle, tracer);
    SetupRep {
        secs,
        body_ns: profiles.iter_mut().map(|p| p.median_ns()).collect(),
        first_event_ms,
        drain_ms,
    }
}

/// The plan steps 3–5 execute. It is made from the application's calibrated
/// cost profiles, not from a live profile: profile noise alone tips RLAS
/// between near-tied replications (on `sd`, one runs at 1.9 M events/s and
/// the other at 5.9 M), and a plan that changes between runs of the same
/// code would make every downstream metric bimodal.
fn run_plan(w: &Workload) -> ExecutionPlan {
    let topology = (w.app)().topology;
    optimize(&run_machine(), &topology, &run_plan_options(&topology))
        .expect("the run machine hosts every workload")
        .plan
}

/// Fold the repetitions of step 1 into what later steps need.
fn finish_setup(w: &Workload, reps: &[SetupRep], plan: ExecutionPlan) -> Setup {
    let column = |f: fn(&SetupRep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
    // This host's view of the operators — the per-operator median over all
    // repetitions — feeds the model-accuracy and body rungs.
    let app = (w.app)();
    let body_ns: Vec<f64> = (0..app.topology.operator_count())
        .map(|op| median(&reps.iter().map(|r| r.body_ns[op]).collect::<Vec<_>>()))
        .collect();
    let mut pooled: Vec<OperatorProfile> = app
        .topology
        .operators()
        .map(|(id, spec)| OperatorProfile {
            name: spec.name.clone(),
            te_ns: Cdf::from_samples([body_ns[id.0]]),
        })
        .collect();
    Setup {
        median_s: median(&column(|r| r.secs)),
        plan,
        topology: instantiate(&app.topology, &mut pooled, run_machine().clock_hz()),
        body_ns,
        first_event_ms: brisk_metrics::stats::mean(&column(|r| r.first_event_ms)),
        drain_ms: brisk_metrics::stats::mean(&column(|r| r.drain_ms)),
    }
}

/// What the paper-scale planning step leaves behind.
pub struct PaperPlan {
    /// Wall time of one `optimize` call, seconds: quiet quartile over calls.
    pub call_s: f64,
    /// The plan (evaluated, never executed).
    pub plan: OptimizedPlan,
    /// The machine it was planned for.
    pub machine: Machine,
    /// The application topology with its calibrated (static) costs.
    pub topology: LogicalTopology,
}

/// Step 2: RLAS with default options on the workload's full machine.
fn paper_plan(w: &Workload, tracer: &Tracer) -> PaperPlan {
    let machine = (w.plan_machine)();
    let topology = (w.app)().topology;
    let options = ScalingOptions::default();
    let began = Instant::now();
    let mut calls = Vec::new();
    let mut plan = None;
    while calls.len() < PLAN_CALLS || began.elapsed() < PLAN_MIN {
        let _s = tracer.enter("rlas.optimize");
        let t0 = Instant::now();
        plan = optimize(&machine, &topology, &options);
        calls.push(t0.elapsed().as_secs_f64());
    }
    PaperPlan {
        call_s: quiet_low(&calls),
        plan: plan.expect("the paper machine hosts every workload"),
        machine,
        topology,
    }
}

/// Everything the load's replicas tallied in one engine run, merged.
#[derive(Debug, Default)]
pub struct Tally {
    /// Input events the spouts emitted.
    pub emitted: u64,
    /// Sink tuples the conservation law demands for them.
    pub expected_sink: u64,
    /// Digest and count of what the sinks received.
    pub sink: Digest,
    /// Sink tuples missing or extra, plus quarantined tuples.
    pub failed: u64,
    /// Faults the engine recorded.
    pub faults: u64,
    /// Tuples the engine quarantined.
    pub quarantined: u64,
    /// Engine-clock reads the sinks made.
    pub clock_reads: u64,
    /// Generator lateness inside the windows, ns.
    pub late: Histogram,
    /// Mean generator lateness per window, ns.
    pub late_mean_by_window: Vec<f64>,
    /// Latency per window, ns.
    pub by_window: Vec<Histogram>,
}

/// Merge the replicas' tallies of a finished run and check conservation.
fn collect(
    w: &Workload,
    shared: &LoadShared,
    report: &RunReport,
    windows: Windows,
    problems: &mut Vec<String>,
    what: &str,
) -> Tally {
    let live = shared.live.load(std::sync::atomic::Ordering::SeqCst);
    assert_eq!(live, 0, "{what}: {live} load replicas outlived the engine");
    let mut t = Tally {
        late: Histogram::with_growth(HIST_GROWTH),
        by_window: (0..windows.count)
            .map(|_| Histogram::with_growth(HIST_GROWTH))
            .collect(),
        ..Tally::default()
    };
    let mut late_sums = vec![(0.0f64, 0u64); windows.count];
    for s in shared.spouts.lock().expect("spout tallies").iter() {
        t.emitted += s.emitted;
        t.expected_sink += s.expected_sink;
        if let Some(h) = &s.late {
            t.late.merge(h);
        }
        for (acc, w) in late_sums.iter_mut().zip(&s.late_by_window) {
            acc.0 += w.0;
            acc.1 += w.1;
        }
    }
    t.late_mean_by_window = late_sums
        .iter()
        .map(|&(sum, n)| if n == 0 { 0.0 } else { sum / n as f64 })
        .collect();
    for s in shared.sinks.lock().expect("sink tallies").iter() {
        t.sink.merge(&s.digest);
        t.clock_reads += s.clock_reads;
        for (acc, h) in t.by_window.iter_mut().zip(&s.by_window) {
            acc.merge(h);
        }
    }
    if let Some(name) = w.content_dependent_op {
        let topology = (w.app)().topology;
        let op = topology.find(name).expect("content-dependent operator");
        t.expected_sink += report.operator(op.0).emitted;
    }
    let summary = report.fault_summary();
    t.faults = summary.faults.len() as u64;
    t.quarantined = summary.quarantined;
    t.failed = t.sink.count.abs_diff(t.expected_sink) + t.quarantined;
    if t.sink.count != report.sink_events {
        t.failed += t.sink.count.abs_diff(report.sink_events);
        problems.push(format!(
            "{what}: the sink saw {} tuples, the engine reports {}",
            t.sink.count, report.sink_events
        ));
    }
    if t.failed > 0 {
        problems.push(format!(
            "{what}: {} input events must give {} sink tuples, got {} ({} quarantined)",
            t.emitted, t.expected_sink, t.sink.count, t.quarantined
        ));
    }
    t
}

/// Step 3: the run plan against a single-worker all-ones reference on the
/// same sized input. Returns (input events, failures).
fn verify(
    w: &Workload,
    plan: &ExecutionPlan,
    opts: &RunOptions,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> (u64, u64) {
    let _s = tracer.enter("bench.verify");
    let load = LoadConfig {
        seed: opts.seed,
        input: Input::Sized(VERIFY_EVENTS),
        windows: Windows::NONE,
    };
    let limit = RunLimit::Events {
        events: u64::MAX,
        timeout: Duration::from_secs(120),
    };
    let (app, shared) = (w.install)((w.app)(), load);
    let report = Engine::with_plan(app, plan, &run_machine(), engine_config(0))
        .expect("the run plan is executable")
        .run(limit);
    let planned = collect(
        w,
        &shared,
        &report,
        Windows::NONE,
        problems,
        "verify (run plan)",
    );

    let (app, shared) = (w.install)((w.app)(), load);
    let ones = vec![1usize; app.topology.operator_count()];
    let report = Engine::new(app, ones, engine_config(1))
        .expect("the all-ones plan is executable")
        .run(limit);
    let reference = collect(
        w,
        &shared,
        &report,
        Windows::NONE,
        problems,
        "verify (reference)",
    );

    let mut failed = planned.failed + reference.failed;
    if planned.emitted != VERIFY_EVENTS || reference.emitted != VERIFY_EVENTS {
        failed +=
            planned.emitted.abs_diff(VERIFY_EVENTS) + reference.emitted.abs_diff(VERIFY_EVENTS);
        problems.push(format!(
            "verify: {} and {} events generated, {VERIFY_EVENTS} asked for",
            planned.emitted, reference.emitted
        ));
    }
    if planned.sink != reference.sink {
        failed += planned.sink.count.abs_diff(reference.sink.count).max(1);
        problems.push(format!(
            "verify: run plan delivered {:?}, the single-worker reference {:?}",
            planned.sink, reference.sink
        ));
    }
    (planned.emitted + reference.emitted, failed)
}

/// One timed phase: the engine under `plan`, warm-up discarded, then
/// windows sampled from outside.
pub struct Phase {
    /// The engine's report after the drain.
    pub report: RunReport,
    /// The load's merged tallies.
    pub tally: Tally,
    /// Sink events per second, per window.
    pub rates: Vec<f64>,
    /// Process CPU nanoseconds per sink event, per window.
    pub cpu_ns_per_event: Vec<f64>,
    /// Resource use over all windows.
    pub usage: Usage,
    /// Wall time over all windows, seconds.
    pub wall_s: f64,
    /// Sink events over all windows.
    pub events: u64,
}

impl Phase {
    /// Share of the host's CPU capacity used during the windows.
    pub fn cpu_util(&self) -> f64 {
        self.usage.cpu_ns as f64 / 1e9 / (self.wall_s * host::nproc() as f64)
    }

    /// Context switches per thousand sink events.
    pub fn ctx_per_kevent(&self) -> f64 {
        self.usage.ctx_switches as f64 / (self.events as f64 / 1e3)
    }
}

fn sleep_until(handle: &EngineHandle, at: Duration) {
    if let Some(left) = at.checked_sub(handle.elapsed()) {
        std::thread::sleep(left);
    }
}

/// Run one timed phase. With `alternate_tracing`, spans are recorded in the
/// even windows only, so that the odd ones measure the untraced engine in
/// the same run.
#[allow(clippy::too_many_arguments)]
fn timed_phase(
    w: &Workload,
    engine: Engine,
    shared: &LoadShared,
    windows: Windows,
    tracer: &Tracer,
    alternate_tracing: bool,
    problems: &mut Vec<String>,
    what: &'static str,
) -> Phase {
    let _phase = tracer.enter(what);
    let handle = {
        let _s = tracer.enter("runtime.start");
        engine.start(RunLimit::Duration(Duration::from_secs(3600)))
    };
    let start = Duration::from_nanos(windows.start_ns);
    let width = Duration::from_nanos(windows.width_ns);
    sleep_until(&handle, start);
    let first = (handle.elapsed(), handle.sink_events(), Usage::now());
    let mut prev = first;
    let (mut rates, mut cpu_ns_per_event) = (Vec::new(), Vec::new());
    for k in 0..windows.count {
        if alternate_tracing {
            tracer.set_enabled(k % 2 == 0);
        }
        let _s = tracer.enter("bench.window");
        sleep_until(&handle, start + width * (k as u32 + 1));
        let now = (handle.elapsed(), handle.sink_events(), Usage::now());
        let events = (now.1 - prev.1) as f64;
        rates.push(events / (now.0 - prev.0).as_secs_f64());
        cpu_ns_per_event.push(now.2.since(&prev.2).cpu_ns as f64 / events);
        prev = now;
    }
    if alternate_tracing {
        tracer.set_enabled(true);
    }
    let report = {
        let _s = tracer.enter("runtime.drain");
        handle.request_stop();
        handle.join()
    };
    let tally = collect(w, shared, &report, windows, problems, what);
    Phase {
        report,
        tally,
        rates,
        cpu_ns_per_event,
        usage: prev.2.since(&first.2),
        wall_s: (prev.0 - first.0).as_secs_f64(),
        events: prev.1 - first.1,
    }
}

fn phase_windows(count: usize) -> Windows {
    Windows {
        start_ns: WARMUP.as_nanos() as u64,
        width_ns: WINDOW.as_nanos() as u64,
        count,
    }
}

/// Step 4: closed loop, spouts emit whenever back-pressure admits.
pub fn saturated_phase(
    w: &Workload,
    engine: impl FnOnce(brisk_runtime::AppRuntime) -> Engine,
    seed: u64,
    count: usize,
    tracer: &Tracer,
    alternate_tracing: bool,
    problems: &mut Vec<String>,
) -> Phase {
    let windows = phase_windows(count);
    let (app, shared) = (w.install)(
        (w.app)(),
        LoadConfig {
            seed,
            input: Input::Saturated,
            windows,
        },
    );
    timed_phase(
        w,
        engine(app),
        &shared,
        windows,
        tracer,
        alternate_tracing,
        problems,
        "bench.saturated_phase",
    )
}

/// Step 5: open loop at the workload's frozen rate.
fn paced_phase(
    w: &Workload,
    plan: &ExecutionPlan,
    opts: &RunOptions,
    count: usize,
    tracer: &Tracer,
    problems: &mut Vec<String>,
) -> Phase {
    let windows = phase_windows(count);
    let (app, shared) = (w.install)(
        (w.app)(),
        LoadConfig {
            seed: opts.seed,
            input: Input::Paced(Schedule {
                rate: w.paced_rate,
                start_ns: PACED_START_NS,
            }),
            windows,
        },
    );
    let engine = Engine::with_plan(app, plan, &run_machine(), engine_config(0))
        .expect("the run plan is executable");
    let phase = timed_phase(
        w,
        engine,
        &shared,
        windows,
        tracer,
        false,
        problems,
        "bench.paced_phase",
    );
    // An open loop above the sustainable rate shows as lateness that keeps
    // growing; latency read off such a run is backlog, not latency.
    let late = &phase.tally.late_mean_by_window;
    if let (Some(&first), Some(&last)) = (late.first(), late.last()) {
        if last > 100e6 && last > 10.0 * first {
            problems.push(format!(
                "paced phase: generator lateness grew from {:.1} ms to {:.1} ms — \
                 {} events/s is above what this host sustains",
                first / 1e6,
                last / 1e6,
                w.paced_rate
            ));
        }
    }
    phase
}

/// Per-window latency percentile `p` of a paced phase, microseconds.
pub fn window_latency_us(phase: &Phase, p: f64) -> Vec<f64> {
    phase
        .tally
        .by_window
        .iter()
        .filter(|h| !h.is_empty())
        .map(|h| hist_percentile(h, p) / 1e3)
        .collect()
}

/// Run every step of `w` and assemble its metrics.
pub fn run(w: &Workload, opts: &RunOptions) -> (Outcome, Tracer) {
    let tracer = Tracer::new(opts.trace);
    let mut problems = Vec::new();
    // Half the measured seconds go to each timed phase.
    let count = ((opts.seconds as f64 / 2.0 / WINDOW.as_secs_f64()) as usize).max(4);

    // Planning first: its allocation-heavy search reads several percent
    // slower, and far less steadily, on the heap the profiler leaves behind.
    let paper = paper_plan(w, &tracer);
    let mut reps = vec![setup_once(w, opts, &tracer)];
    let run_plan = run_plan(w);
    let (verify_events, verify_failed) = verify(w, &run_plan, opts, &tracer, &mut problems);
    // The high-water mark is read here, when every fixed-size step has run
    // exactly once. Later it depends on timing: how much an engine that a
    // set-up repetition started got to allocate before it was stopped (and
    // its arena kept) moved the mark on `lr` between 63 and 98 MiB, and what
    // the timed phases allocate grows with the events they get through.
    let sized_peak_rss = host::peak_rss_mib();
    while reps.len() < SETUP_REPS || reps.iter().map(|r| r.secs).sum::<f64>() < SETUP_MIN {
        reps.push(setup_once(w, opts, &tracer));
    }
    let setup = finish_setup(w, &reps, run_plan);
    let plan = &setup.plan;
    let sat = saturated_phase(
        w,
        |app| {
            let _s = tracer.enter("runtime.with_plan");
            Engine::with_plan(app, plan, &run_machine(), engine_config(0))
                .expect("the run plan is executable")
        },
        opts.seed,
        count,
        &tracer,
        opts.trace,
        &mut problems,
    );
    let paced = paced_phase(w, plan, opts, count, &tracer, &mut problems);

    let p50 = window_latency_us(&paced, 50.0);
    let p99 = window_latency_us(&paced, 99.0);
    if p50.len() < count {
        problems.push(format!(
            "paced phase: only {} of {count} windows received tuples",
            p50.len()
        ));
    }
    let throughput = quiet_high(&sat.rates);
    let end_to_end = vec![
        Metric::new("throughput_eps", throughput, "1/s"),
        Metric::new("latency_p50_us", quiet_low(&p50), "us"),
        Metric::new("latency_p99_us", quiet_low(&p99), "us"),
        Metric::new("cpu_ns_per_event", quiet_low(&sat.cpu_ns_per_event), "ns"),
        Metric::new("plan_time_s", paper.call_s, "s"),
        Metric::new("plan_predicted_eps", paper.plan.throughput, "1/s"),
        Metric::new("setup_s", setup.median_s, "s"),
        Metric::new("peak_rss_mb", sized_peak_rss, "MiB"),
    ];

    let per_layer = if opts.trace {
        layers::per_layer(
            w,
            opts,
            &setup,
            &paper,
            &sat,
            &paced,
            throughput,
            &p99,
            &tracer,
            &mut problems,
        )
    } else {
        Vec::new()
    };

    let attempted = verify_events + sat.tally.emitted + paced.tally.emitted;
    let failed = verify_failed + sat.tally.failed + paced.tally.failed;
    (
        Outcome {
            attempted,
            failed,
            problems,
            end_to_end,
            per_layer,
        },
        tracer,
    )
}
