//! mfpabench: one benchmark for the MFPA serving and retraining paths.
//!
//! ```text
//! cargo run --release --manifest-path mfpabench/Cargo.toml -- \
//!     --workload serve_ingest --seed 1 --seconds 10 --trace 0 [--threads 1]
//! ```
//!
//! Workloads (see `README.md` for why each exists):
//! * `serve_ingest`  — a narrow, long fleet replayed through
//!   `FleetMonitor::ingest_batch` with checkpoints and sweeps off;
//! * `serve_durable` — a wide fleet at production cadence (checkpoint
//!   every 8 batches, sweep every 16), killed at 3/5 and restored.
//!
//! Every pass refits the serving model (prepare → train → compile →
//! evaluate), and every run rescores its fleet once with
//! `deploy::score_fleet`.
//!
//! `--trace 0` prints the end-to-end metrics, measured untraced.
//! `--trace 1` runs untraced and traced passes of the same work and
//! prints the per-layer metrics from the traced ones, plus the tracing
//! overhead; its spans are written to `.mfpabench/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it, `repeat: {"digest": .., "counters": {..}}`, holds
//! the final-score digest and work counters, which must be the same in
//! every run of one seed (`steadiness.py` compares them).
//! Any failed correctness gate prints `correct: false` and exits 1.

mod common;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Outcome, Report};

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        threads: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value {value:?} for {flag}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            "--threads" => args.threads = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if args.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let threads = args.threads.min(nproc);
    println!(
        "workload={} seed={} seconds={} trace={} threads={threads} (asked {}, available_parallelism {nproc})",
        args.workload, args.seed, args.seconds, args.trace as u8, args.threads
    );
    // Scratch space for checkpoints and the span dump, inside the
    // working directory; the per-process subdirectory is removed on exit.
    let out_dir = PathBuf::from(".mfpabench");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    let ctx = common::Ctx {
        seed: args.seed,
        seconds: args.seconds,
        threads,
        work: work.clone(),
        tracer: trace::Tracer::new(args.trace),
    };
    let jiffies = common::cpu_jiffies();
    let result = match args.workload.as_str() {
        "serve_ingest" => serve::run(ctx, &serve::INGEST),
        "serve_durable" => serve::run(ctx, &serve::DURABLE),
        other => Err(format!(
            "unknown workload {other:?} (serve_ingest, serve_durable)"
        )),
    };
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(Outcome { mut report, tracer }) => {
            if let (Some((t0, s0)), Some((t1, s1))) = (jiffies, common::cpu_jiffies()) {
                let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
                report.note(format!("host steal: {:.1}% of CPU time", share * 100.0));
            }
            if args.trace {
                let path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
                if let Err(e) = std::fs::write(&path, tracer.to_json()) {
                    eprintln!("error: cannot write {}: {e}", path.display());
                    return ExitCode::from(1);
                }
                println!(
                    "spans: {} written to {}",
                    tracer.spans().len(),
                    path.display()
                );
            }
            finish(&report, args.trace)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

/// Prints the human-readable summary and the final JSON line.
fn finish(report: &Report, traced: bool) -> ExitCode {
    report.print_summary();
    let metrics = if traced {
        report.per_layer_json()
    } else {
        report.end_to_end_json()
    };
    let metrics = match metrics {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    let correct = report.correct();
    match report.repeat_json() {
        Some(repeat) => println!("repeat: {repeat}"),
        None => {
            eprintln!("error: no digest or work counters were recorded");
            return ExitCode::from(1);
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        report.ledger.attempted(),
        report.ledger.failed()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
