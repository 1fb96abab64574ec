//! Command line of the repo benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of standard output is the
//!     result as JSON (end-to-end metrics untraced, per-layer metrics traced)
//! benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!     every workload, each in a fresh child process
//! benchmark --repeat <N> [--seed <n>] [--seconds <s>]
//!     N untraced runs per workload on seeds n, n+1, …; prints the noise
//!     table and fails when a metric's spread between quartiles exceeds its
//!     bound
//! benchmark --emit-spec
//!     print BENCHMARK.json
//! ```

use brisk_benchmark::estimator::{iqr_spread, median, range_spread};
use brisk_benchmark::run::{self, Metric, RunOptions};
use brisk_benchmark::{host, spec, trace, workload};
use std::process::{Command, ExitCode, Stdio};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: Option<usize>,
    emit_spec: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        repeat: None,
        emit_spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-spec" {
            args.emit_spec = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.clamp(1, 60),
            "--trace" => args.trace = number()? != 0,
            "--repeat" => args.repeat = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(args)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Run one workload in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let Some(w) = workload::find(name) else {
        eprintln!("unknown workload {name:?}; known: wc, sd, lr");
        return ExitCode::from(2);
    };
    host::pin_mmap_threshold();
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let (mut outcome, tracer) = run::run(w, &opts);
    let printed = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    // The program must print exactly what the contract names.
    let named: Vec<&str> = if args.trace {
        spec::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.0).collect()
    };
    assert_eq!(
        printed.iter().map(|m| m.name).collect::<Vec<_>>(),
        named,
        "printed metrics and spec.rs disagree"
    );
    for m in printed {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is {}", m.name, m.value));
        }
    }

    eprintln!(
        "workload {name}  seed {}  seconds {}",
        args.seed, args.seconds
    );
    for m in outcome.end_to_end.iter().chain(&outcome.per_layer) {
        eprintln!("  {:<38} {:>18.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "  {:<38} {:>18}\n  {:<38} {:>18}",
        "events_attempted", outcome.attempted, "events_failed", outcome.failed
    );
    if args.trace {
        let spans = tracer.spans();
        eprint!("{}", trace::self_time_report(&spans));
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out/trace.json");
        match trace::write_trace(&path, name, &trace::span_lines(&spans, name)) {
            Ok(()) => eprintln!("{} spans written to {}", spans.len(), path.display()),
            Err(e) => {
                outcome
                    .problems
                    .push(format!("writing {}: {e}", path.display()));
            }
        }
    }
    for p in &outcome.problems {
        eprintln!("INVALID: {p}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(printed)
    );
    exit_code(outcome.correct())
}

/// `(name, value)` pairs out of a result line this program printed.
fn parse_metrics(line: &str) -> Vec<(String, f64)> {
    let Some((_, metrics)) = line.split_once("\"metrics\": {") else {
        return Vec::new();
    };
    metrics
        .split("\": {\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .filter_map(|pair| {
            let name = pair[0].rsplit('"').next()?;
            let value = pair[1].split(',').next()?.parse().ok()?;
            Some((name.to_string(), value))
        })
        .collect()
}

/// One workload in a fresh child process, so that no run inherits another's
/// heap or peak resident set. Returns the child's result line.
fn run_child(name: &str, seed: u64, args: &Args, quiet: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("path of this executable");
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(if quiet {
            Stdio::null()
        } else {
            Stdio::inherit()
        })
        .output()
        .expect("start a child run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last()?.to_string();
    (output.status.success() && line.contains("\"correct\": true")).then_some(line)
}

/// Every workload once.
fn run_all(args: &Args) -> ExitCode {
    let mut ok = true;
    for name in workload::ALL.iter().map(|w| w.name) {
        match run_child(name, args.seed, args, false) {
            Some(line) => println!("{name} {line}"),
            None => {
                eprintln!("{name}: run failed");
                ok = false;
            }
        }
    }
    exit_code(ok)
}

/// The noise table: per workload and metric, the spread over `repeat` runs
/// on consecutive seeds, against the metric's bound.
fn run_repeat(args: &Args, repeat: usize) -> ExitCode {
    let mut ok = true;
    println!("| workload | metric | median | min | max | (max−min)/median | IQR/median | bound |");
    println!("|---|---|---:|---:|---:|---:|---:|---:|");
    for name in workload::ALL.iter().map(|w| w.name) {
        let mut runs: Vec<Vec<(String, f64)>> = Vec::new();
        for k in 0..repeat {
            match run_child(name, args.seed + k as u64, args, true) {
                Some(line) => runs.push(parse_metrics(&line)),
                None => {
                    eprintln!("{name}: run {k} failed");
                    ok = false;
                }
            }
        }
        if runs.len() < 2 {
            continue;
        }
        for (metric, _, _, bound) in spec::END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
                .collect();
            let (range, iqr) = (range_spread(&values), iqr_spread(&values));
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
                    (lo.min(v), hi.max(v))
                });
            println!(
                "| {name} | {metric} | {:.6} | {:.6} | {:.6} | {range:.4} | {iqr:.4} | {bound} |",
                median(&values),
                lo,
                hi
            );
            // The driver's acceptance rule: the spread between quartiles
            // must stay within the metric's bound. The whole range is
            // printed beside it so that a single bad run in N still shows.
            if iqr > bound {
                eprintln!("{name} {metric}: spread {iqr:.4} exceeds its bound {bound}");
                ok = false;
            }
        }
    }
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_spec {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    match (&args.workload, args.repeat) {
        (Some(name), _) => run_one(name, &args),
        (None, Some(repeat)) => run_repeat(&args, repeat),
        (None, None) => run_all(&args),
    }
}
