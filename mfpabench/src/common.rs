//! Shared pieces: run context, metric catalog, failure ledger, result
//! report, statistics, and the training pipeline every workload uses.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use mfpa_core::labeling::label_failures;
use mfpa_core::preprocess::preprocess;
use mfpa_core::sanitize::sanitize;
use mfpa_core::windows::build_samples_for;
use mfpa_core::{Algorithm, FeatureGroup, Mfpa, MfpaConfig, TrainedMfpa};
use mfpa_dataset::split::timepoint_split_fraction;
use mfpa_dataset::{FeatureFrame, RandomUnderSampler};
use mfpa_fleetsim::{FaultConfig, FleetConfig, SimulatedFleet};
use mfpa_ml::BinnedMatrix;
use mfpa_par::Workers;

use crate::trace::Tracer;

/// Set-ups per run; `setup_s` is their fast mean.
pub const SETUPS: usize = 5;
/// Batches in a pass, so that at least ten lie beyond their p99.
pub const MIN_P99_SAMPLES: usize = 1000;
/// Passes an untraced run makes before it stops.
pub const MIN_PASSES: usize = 4;
/// Share of each end-to-end wall time the layer spans must cover.
pub const MIN_COVERAGE: f64 = 0.95;
/// Untraced/traced pass pairs in a traced run.
pub const TRACE_PAIRS: u32 = 3;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("records_per_s", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p99_ms", "ms"),
    ("recovery_ms", "ms"),
    ("retrain_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`; a
/// layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("fleetsim.generate_ms", "ms"),
    ("fleetsim.replay_build_ms", "ms"),
    ("fleetsim.drives", "count"),
    ("fleetsim.records", "count"),
    ("fleetsim.batches", "count"),
    ("fleet_monitor.ingest_ms", "ms"),
    ("fleet_monitor.ingest_p50_ms", "ms"),
    ("fleet_monitor.ingest_p99_ms", "ms"),
    ("fleet_monitor.ingest_calls", "count"),
    ("fleet_monitor.records_received", "count"),
    ("fleet_monitor.records_accepted", "count"),
    ("fleet_monitor.rejected_corrupt", "count"),
    ("fleet_monitor.rejected_late", "count"),
    ("fleet_monitor.dropped_quarantined", "count"),
    ("fleet_monitor.shed_overflow", "count"),
    ("fleet_monitor.quarantines", "count"),
    ("fleet_monitor.readmissions", "count"),
    ("fleet_monitor.drives", "count"),
    ("fleet_monitor.accept_ratio", "ratio"),
    ("fleet_monitor.shard_skew", "ratio"),
    ("fleet_monitor.sweep_ms", "ms"),
    ("fleet_monitor.sweeps", "count"),
    ("fleet_monitor.sweep_rows", "count"),
    ("fleet_monitor.drain_ms", "ms"),
    ("compile.predict_ms", "ms"),
    ("compile.predict_rows", "count"),
    ("checkpoint.write_ms", "ms"),
    ("checkpoint.write_p50_ms", "ms"),
    ("checkpoint.writes", "count"),
    ("checkpoint.bytes", "bytes"),
    ("checkpoint.restore_ms", "ms"),
    ("checkpoint.restore_bytes", "bytes"),
    ("pipeline.prepare_ms", "ms"),
    ("pipeline.raw_records", "count"),
    ("pipeline.samples", "count"),
    ("sanitize.ms", "ms"),
    ("sanitize.quarantined", "count"),
    ("sanitize.repaired", "count"),
    ("preprocess.ms", "ms"),
    ("labeling.ms", "ms"),
    ("windows.ms", "ms"),
    ("binning.ms", "ms"),
    ("ml.fit_ms", "ms"),
    ("ml.train_rows", "count"),
    ("compile.ms", "ms"),
    ("compile.nodes", "count"),
    ("compile.artifact_bytes", "bytes"),
    ("pipeline.evaluate_ms", "ms"),
    ("pipeline.eval_rows", "count"),
    ("deploy.score_fleet_ms", "ms"),
    ("deploy.records_scored", "count"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.spans", "count"),
];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub work: PathBuf,
    pub tracer: Tracer,
}

/// A finished workload: its report and the spans it recorded.
pub struct Outcome {
    pub report: Report,
    pub tracer: Tracer,
}

/// Attempted and failed operations, per phase.
#[derive(Debug, Default)]
pub struct Ledger {
    phases: BTreeMap<&'static str, (u64, u64)>,
}

impl Ledger {
    /// Counts one operation of `phase`.
    pub fn record(&mut self, phase: &'static str, ok: bool) {
        self.add(phase, 1, u64::from(!ok));
    }

    pub fn add(&mut self, phase: &'static str, attempted: u64, failed: u64) {
        let e = self.phases.entry(phase).or_default();
        e.0 += attempted;
        e.1 += failed;
    }

    pub fn attempted(&self) -> u64 {
        self.phases.values().map(|p| p.0).sum()
    }

    pub fn failed(&self) -> u64 {
        self.phases.values().map(|p| p.1).sum()
    }
}

/// Metric values, correctness gates and summary lines of one run.
#[derive(Debug, Default)]
pub struct Report {
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    gates: Vec<(String, bool)>,
    pub ledger: Ledger,
    notes: Vec<String>,
    /// Final-score digest and work counters; runs of one seed must print
    /// the same values, traced or not.
    repeat: Option<(u64, Counters)>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "{name} is not an end-to-end metric"
        );
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.layer.insert(name, value);
    }

    /// Records a correctness gate; a failed gate fails the run.
    pub fn gate(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            eprintln!("GATE FAILED: {name}");
        }
        self.gates.push((name, ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records what must repeat exactly across processes of one seed.
    pub fn repeatable(&mut self, digest: u64, counters: Counters) {
        self.repeat = Some((digest, counters));
    }

    /// The digest and work counters as one JSON object, for comparing
    /// runs of one seed: `{"digest": "0x..", "counters": {..}}`.
    pub fn repeat_json(&self) -> Option<String> {
        let (digest, counters) = self.repeat.as_ref()?;
        let parts: Vec<String> = counters
            .iter()
            .map(|(name, v)| format!("\"{name}\": {v}"))
            .collect();
        Some(format!(
            "{{\"digest\": \"{digest:#018x}\", \"counters\": {{{}}}}}",
            parts.join(", ")
        ))
    }

    pub fn correct(&self) -> bool {
        !self.gates.is_empty() && self.gates.iter().all(|(_, ok)| *ok)
    }

    pub fn print_summary(&self) {
        for line in &self.notes {
            println!("  {line}");
        }
        for (phase, (attempted, failed)) in &self.ledger.phases {
            println!(
                "  ops {phase:<14} attempted {attempted:>9}  succeeded {:>9}  failed {failed}",
                attempted - failed
            );
        }
        for (name, ok) in &self.gates {
            println!("  gate {} {name}", if *ok { "ok  " } else { "FAIL" });
        }
        for (name, unit) in END_TO_END {
            if let Some(v) = self.e2e.get(name) {
                println!("  {name:<28} {v:>16.4} {unit}");
            }
        }
        for (name, unit) in PER_LAYER {
            if let Some(v) = self.layer.get(name) {
                println!("  {name:<34} {v:>16.4} {unit}");
            }
        }
    }

    /// The end-to-end metrics as a JSON object; every one must be a
    /// positive finite measurement.
    pub fn end_to_end_json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in END_TO_END {
            let v = *self
                .e2e
                .get(name)
                .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!(
                    "end-to-end metric {name} = {v} is not a positive number"
                ));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// The per-layer metrics as a JSON object; idle layers report 0.
    pub fn per_layer_json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, unit) in PER_LAYER {
            let v = self.layer.get(name).copied().unwrap_or(0.0);
            if !v.is_finite() {
                return Err(format!("per-layer metric {name} = {v} is not finite"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

/// Deterministic work counters of one pass; two passes over the same
/// seed must produce identical maps.
pub type Counters = BTreeMap<&'static str, u64>;

/// FNV-1a digest (the `mfpa-bytes` checksum) over result bits.
#[derive(Default)]
pub struct Digest(Vec<u8>);

impl Digest {
    pub fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn finish(&self) -> u64 {
        mfpa_bytes::fnv1a64(&self.0)
    }
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 1]` of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A time (lower is better) read as the fast mean of its samples: the
/// mean of the fastest three quarters.
///
/// On a shared virtual machine the host only ever adds time to a sample,
/// so the slowest quarter, where preemption spikes land, is dropped. The
/// host also switches between a fast and a slow state (≈30% apart) that
/// can last from seconds to a whole run. Any single quantile jumps by
/// that whole gap when the share of slow samples crosses it; a mean moves
/// in proportion to the share.
pub fn fast_mean(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len() - v.len() / 4);
    v.iter().sum::<f64>() / v.len() as f64
}

/// The closed-loop calls of one pass: each call's milliseconds and the
/// records it carried.
#[derive(Debug, Default, Clone)]
pub struct Calls {
    pub ms: Vec<f64>,
    pub records: Vec<f64>,
}

impl Calls {
    pub fn push(&mut self, ms: f64, records: usize) {
        self.ms.push(ms);
        self.records.push(records as f64);
    }

    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }
}

/// Batch metrics of a run whose passes all replay the same batches in
/// the same order. Each batch's time is the fast mean of its times
/// over the passes, which drops the host's preemptions unless they hit
/// that batch in most passes. Returns records per second (a pass's
/// records over the sum of the batch times) and the p50 and p99 of the
/// batch times; a pass must hold at least `MIN_P99_SAMPLES` batches.
pub fn batch_metrics(report: &mut Report, passes: &[&Calls]) -> Result<(f64, f64, f64), String> {
    let first = passes.first().ok_or("no calls were timed")?;
    let n = first.ms.len();
    if n < MIN_P99_SAMPLES {
        return Err(format!("p99 needs {MIN_P99_SAMPLES} batches, have {n}"));
    }
    if passes.iter().any(|c| c.records != first.records) {
        return Err("passes replayed different batches".into());
    }
    let batch_ms: Vec<f64> = (0..n)
        .map(|b| fast_mean(&passes.iter().map(|c| c.ms[b]).collect::<Vec<_>>()))
        .collect();
    report.note(format!(
        "{} passes of {n} batches, each batch read at its fast mean",
        passes.len()
    ));
    let records: f64 = first.records.iter().sum();
    Ok((
        records * 1e3 / batch_ms.iter().sum::<f64>(),
        percentile(&batch_ms, 0.5),
        percentile(&batch_ms, 0.99),
    ))
}

/// The process's resident-set high-water mark, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Machine-wide `(total, steal)` CPU jiffies from `/proc/stat`, to show
/// how much of a run's CPU time the hypervisor took away (steal).
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Every workload's telemetry carries the uniform 2% fault mix.
pub fn fleet_config(base: FleetConfig, threads: usize) -> FleetConfig {
    base.with_faults(FaultConfig::uniform(0.02))
        .with_threads(threads)
}

pub fn generate(cfg: &FleetConfig, tr: &mut Tracer) -> SimulatedFleet {
    tr.time("fleetsim.generate", || SimulatedFleet::generate(cfg))
}

pub fn fleet_counters(fleet: &SimulatedFleet) -> Counters {
    let records: usize = fleet.drives().iter().map(|d| d.raw_records().len()).sum();
    Counters::from([
        ("fleetsim.drives", fleet.drives().len() as u64),
        ("fleetsim.records", records as u64),
    ])
}

pub fn mfpa(ctx: &Ctx) -> Mfpa {
    Mfpa::new(
        MfpaConfig::new(FeatureGroup::Sfwb, Algorithm::RandomForest)
            .with_seed(ctx.seed)
            .with_threads(ctx.threads),
    )
}

/// A model fitted by the paper-default pipeline.
pub struct Fitted {
    pub trained: TrainedMfpa,
    /// Wall seconds of prepare + train + compile + evaluate.
    pub retrain_s: f64,
    /// Work counters, and a digest of the compiled test-row
    /// probabilities (`compile.predict_digest`).
    pub counters: Counters,
    /// Compiled probabilities equal the uncompiled ones bit for bit.
    pub compiled_matches: bool,
}

/// Telemetry to an evaluated, compiled model: `prepare` → `train_rows`
/// on the 70% time split → `compile` → `evaluate_rows` on the 30% test
/// split. The uncompiled-vs-compiled check runs outside the timed calls.
pub fn fit_model(
    fleet: &SimulatedFleet,
    ctx: &mut Ctx,
    ledger: &mut Ledger,
) -> Result<Fitted, String> {
    let mfpa = mfpa(ctx);
    let tr = &mut ctx.tracer;
    let t = Instant::now();
    tr.enter("retrain");
    let prepared = tr.time("pipeline.prepare", || mfpa.prepare(fleet));
    ledger.record("prepare", prepared.is_ok());
    let prepared = prepared.map_err(|e| format!("prepare: {e}"))?;
    let split = timepoint_split_fraction(&prepared.samples().flat.times(), 0.7)
        .map_err(|e| format!("split: {e}"))?;
    let trained = tr.time("ml.fit", || mfpa.train_rows(&prepared, &split.train));
    ledger.record("train", trained.is_ok());
    let mut trained = trained.map_err(|e| format!("train_rows: {e}"))?;
    tr.exit();
    let mut elapsed = t.elapsed().as_secs_f64();

    let uncompiled = tr
        .time("check.uncompiled_predict", || {
            trained.predict_rows(&prepared, &split.test)
        })
        .map_err(|e| format!("predict_rows: {e}"))?;

    let t = Instant::now();
    tr.enter("retrain");
    let compiled = tr.time("compile", || trained.compile());
    ledger.record("compile", compiled);
    let eval = tr.time("pipeline.evaluate", || {
        trained.evaluate_rows(&prepared, &split.test, "SFWB+RF")
    });
    ledger.record("evaluate", eval.is_ok());
    eval.map_err(|e| format!("evaluate_rows: {e}"))?;
    tr.exit();
    elapsed += t.elapsed().as_secs_f64();
    if !compiled {
        return Err("random forest did not compile".into());
    }

    let probs = tr
        .time("check.compiled_predict", || {
            trained.predict_rows(&prepared, &split.test)
        })
        .map_err(|e| format!("predict_rows: {e}"))?;
    let compiled_matches = probs.len() == uncompiled.len()
        && probs
            .iter()
            .zip(&uncompiled)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    let mut digest = Digest::default();
    probs.iter().for_each(|&p| digest.f64(p));

    let engine = trained.compiled().expect("compiled above");
    let artifact = trained.compiled_artifact().expect("compiled above");
    let report = prepared.sanitize_report();
    let counters = Counters::from([
        ("pipeline.raw_records", prepared.n_raw_records() as u64),
        ("pipeline.samples", prepared.n_rows() as u64),
        ("sanitize.quarantined", report.total_quarantined() as u64),
        ("sanitize.repaired", report.total_repaired() as u64),
        ("ml.train_rows", trained.n_train_rows() as u64),
        ("compile.nodes", engine.n_nodes() as u64),
        ("compile.artifact_bytes", artifact.len() as u64),
        ("pipeline.eval_rows", split.test.len() as u64),
        ("compile.predict_rows", probs.len() as u64),
        ("compile.predict_digest", digest.finish()),
    ]);

    if tr.enabled() {
        breakdown(fleet, &mfpa, &split.train, &prepared.samples().flat, tr)?;
    }
    Ok(Fitted {
        trained,
        retrain_s: elapsed,
        counters,
        compiled_matches,
    })
}

/// Traced runs only: re-runs `prepare`'s stage functions and the
/// training binning one at a time from outside, so each gets a span of
/// its own (summed single-thread work, not wall time), and checks that
/// they reproduce `prepare`'s sample count.
fn breakdown(
    fleet: &SimulatedFleet,
    mfpa: &Mfpa,
    train_rows: &[usize],
    frame: &FeatureFrame,
    tr: &mut Tracer,
) -> Result<(), String> {
    let cfg = mfpa.config();
    let sanitize_cfg = cfg.sanitize.ok_or("sanitize is on by default")?;
    tr.enter("breakdown");
    let mut series = Vec::new();
    for drive in fleet.drives() {
        let (history, _) = tr.time("sanitize", || {
            sanitize(
                drive.serial(),
                drive.history().model(),
                drive.raw_records(),
                &sanitize_cfg,
            )
        });
        if let Some(s) = tr.time("preprocess", || {
            preprocess(&history, drive.firmware(), &cfg.preprocess)
        }) {
            series.push(s);
        }
    }
    let failure_days = tr.time("labeling", || {
        label_failures(&series, fleet.tickets(), &cfg.labeling)
    });
    let samples = tr
        .time("windows", || {
            build_samples_for(&series, &failure_days, &cfg.window, false)
        })
        .map_err(|e| format!("build_samples_for: {e}"))?;

    let labels: Vec<bool> = train_rows.iter().map(|&i| frame.labels()[i]).collect();
    let ratio = cfg
        .undersample_ratio
        .ok_or("under-sampling is on by default")?;
    let kept: Vec<usize> = RandomUnderSampler::new(ratio, cfg.seed)
        .map_err(|e| format!("sampler: {e}"))?
        .sample(&labels)
        .into_iter()
        .map(|i| train_rows[i])
        .collect();
    let cols: Vec<usize> = cfg
        .selected_features()
        .iter()
        .map(mfpa_core::FeatureId::full_index)
        .collect();
    let sub = frame.select_rows(&kept).select_cols(&cols);
    let binned = tr.time("binning", || {
        BinnedMatrix::build(sub.matrix(), cfg.max_bins, Workers::new(cfg.n_threads))
    });
    tr.exit();
    if samples.flat.n_rows() != frame.n_rows() || binned.n_rows() != kept.len() {
        return Err(format!(
            "stage functions disagree with prepare: {} vs {} samples",
            samples.flat.n_rows(),
            frame.n_rows()
        ));
    }
    Ok(())
}

/// Runs one measured pass. In a traced run odd passes run untraced and
/// even passes traced, so the same work is timed both ways and the
/// difference is the tracing overhead. Returns whether it was traced.
pub fn run_pass<T>(ctx: &mut Ctx, run_id: u32, f: impl FnOnce(&mut Ctx) -> T) -> (T, bool) {
    if ctx.tracer.enabled() && run_id % 2 == 1 {
        let real = std::mem::replace(&mut ctx.tracer, Tracer::new(false));
        let out = f(ctx);
        ctx.tracer = real;
        (out, false)
    } else {
        ctx.tracer.set_run(run_id);
        let traced = ctx.tracer.enabled();
        (f(ctx), traced)
    }
}

/// Whether another pass is due: a traced run makes `TRACE_PAIRS` pairs;
/// an untraced one measures for `--seconds` and makes at least
/// `MIN_PASSES` passes.
pub fn more_passes(ctx: &Ctx, run_id: u32, start: Instant, passes: usize) -> bool {
    if ctx.tracer.enabled() {
        run_id < 2 * TRACE_PAIRS
    } else {
        passes < MIN_PASSES || start.elapsed().as_secs_f64() < ctx.seconds
    }
}

/// Copies the pipeline's layer times and counters out of a traced run.
pub fn pipeline_layers(report: &mut Report, layers: &LayerTimes, counters: &Counters) {
    for (metric, span) in [
        ("pipeline.prepare_ms", "pipeline.prepare"),
        ("sanitize.ms", "sanitize"),
        ("preprocess.ms", "preprocess"),
        ("labeling.ms", "labeling"),
        ("windows.ms", "windows"),
        ("binning.ms", "binning"),
        ("ml.fit_ms", "ml.fit"),
        ("compile.ms", "compile"),
        ("pipeline.evaluate_ms", "pipeline.evaluate"),
    ] {
        report.layer(metric, layers.ms(span));
    }
    for (name, value) in counters {
        if PER_LAYER.iter().any(|(n, _)| n == name) {
            report.layer(name, *value as f64);
        }
    }
}

/// Per-layer self times of a traced run: each layer's total per pass,
/// as the median over the traced passes it appears in.
pub struct LayerTimes {
    per_run: BTreeMap<&'static str, Vec<f64>>,
    calls: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerTimes {
    pub fn new(tr: &Tracer, runs: &[u32]) -> Self {
        let mut per_run: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut calls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for &run in runs {
            for (name, layer) in tr.layers(&[run]) {
                per_run.entry(name).or_default().push(layer.total_ms());
                calls.entry(name).or_default().extend(&layer.self_ms);
            }
        }
        LayerTimes { per_run, calls }
    }

    /// Median per-pass self time of `span`, 0 when it never ran.
    pub fn ms(&self, span: &str) -> f64 {
        self.per_run.get(span).map_or(0.0, |v| median(v))
    }

    /// Per-call self times of `span`.
    pub fn calls(&self, span: &str) -> &[f64] {
        self.calls.get(span).map_or(&[], Vec::as_slice)
    }
}

/// Tracing overhead and coverage, shared by every workload's traced run.
pub fn trace_layers(
    report: &mut Report,
    tr: &Tracer,
    untraced_ms: &[f64],
    traced_ms: &[f64],
    roots: &[(&str, &[u32])],
) {
    let base = median(untraced_ms);
    let overhead = median(traced_ms) - base;
    report.layer("trace.overhead_ms", overhead);
    report.layer("trace.overhead_share", overhead / base);
    report.layer("trace.spans", tr.spans().len() as f64);
    let mut worst = 1.0f64;
    for (root, runs) in roots {
        let cov = tr.coverage(root, runs);
        report.note(format!("coverage of {root}: {:.4}", cov));
        worst = worst.min(cov);
    }
    report.layer("trace.coverage", worst);
    report.gate(
        format!("layer self times cover >= {MIN_COVERAGE} of every end-to-end wall"),
        worst >= MIN_COVERAGE,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json names exactly the metrics this binary reports.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let names: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|s| s.split('"').next())
            .collect();
        let mut listed: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        listed.extend(["serve_ingest", "serve_durable"]);
        let mut names_sorted = names.clone();
        names_sorted.sort_unstable();
        listed.sort_unstable();
        assert_eq!(names_sorted, listed);
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{entry} missing");
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 500.0);
        assert_eq!(percentile(&v, 0.99), 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(fast_mean(&[1.0, 3.0]), 2.0);
        assert_eq!(fast_mean(&[10.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn batches_read_at_their_fast_mean_over_passes() {
        let pass = |ms: f64| Calls {
            ms: (0..1000)
                .map(|b| if b == 999 { 9.0 * ms } else { ms })
                .collect(),
            records: vec![10.0; 1000],
        };
        let (a, b, c, d, e) = (pass(1.0), pass(1.0), pass(2.0), pass(3.0), pass(4.0));
        let mut report = Report::default();
        let (rate, p50, p99) = batch_metrics(&mut report, &[&c, &a, &d, &b, &e]).unwrap();
        assert_eq!((p50, p99), (1.75, 1.75));
        assert_eq!(rate, 10_000.0 * 1e3 / (999.0 * 1.75 + 9.0 * 1.75));
        let short = Calls {
            ms: vec![1.0; 999],
            records: vec![10.0; 999],
        };
        assert!(batch_metrics(&mut report, &[&short]).is_err());
        let other = Calls {
            ms: vec![1.0; 1000],
            records: vec![11.0; 1000],
        };
        assert!(batch_metrics(&mut report, &[&a, &other]).is_err());
    }
}
