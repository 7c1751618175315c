//! The serve workloads: arrival-ordered telemetry replayed through a
//! sharded `FleetMonitor` by one closed-loop caller.

use std::path::Path;
use std::time::Instant;

use mfpa_core::checkpoint::{latest_checkpoint, restore, write_checkpoint};
use mfpa_core::deploy::score_fleet;
use mfpa_core::fleet_monitor::{
    CheckpointOutcome, FleetMonitor, FleetMonitorConfig, FleetScore, QuarantineInfo, ShardReport,
    SweepOutcome,
};
use mfpa_core::{CoreError, TrainedMfpa};
use mfpa_dataset::Matrix;
use mfpa_fleetsim::replay::{arrival_stream, flip_one_byte, into_batches, TransportFaultConfig};
use mfpa_fleetsim::{ArrivalEvent, FleetConfig, SimulatedFleet};
use mfpa_telemetry::{
    DailyRecord, DayStamp, FirmwareVersion, SerialNumber, SmartAttr, SmartValues, Vendor,
};

use crate::common::{
    self, fast_mean, fit_model, median, ms_since, percentile, Calls, Counters, Ctx, Digest,
    LayerTimes, Ledger, Outcome, Report, SETUPS,
};
use crate::trace::Tracer;

/// Monitor shards (also the transport burst-loss target space).
const N_SHARDS: usize = 8;
/// Synthetic poison drives (sentinel SMART pages) added to every batch.
const N_POISON: u64 = 4;
/// Serial-id offset that keeps poison drives disjoint from the fleet.
const POISON_ID_BASE: u64 = 9_000_000_000;
/// Restores timed after every untraced pass; `recovery_ms` is the fast
/// mean of them all. Like the batches, they are spread over the whole
/// run: one burst of restores read whatever state the host was in for
/// those two seconds, and spread 0.10-0.14 of its median across runs.
const RESTORES_PER_PASS: usize = 10;
/// Restores timed in a traced run, for the `checkpoint.restore` layer.
const RESTORES: usize = 50;
/// Trace run id of the recovery phase (set-up is run 0, passes 1..).
const RECOVER_RUN: u32 = 999;
/// Trace run id of the rescoring phase.
const RESCORE_RUN: u32 = 998;
/// Drives per `score_fleet` call: the rescoring job walks the fleet in
/// chunks, one closed-loop call each.
const CHUNK_DRIVES: usize = 16;

/// One serve workload's fleet shape and monitor cadence.
pub struct Shape {
    fraction: f64,
    horizon_days: i64,
    /// Records per `ingest_batch` call.
    batch_size: usize,
    /// Checkpoint every this many batches (0 = off).
    checkpoint_every: u64,
    /// Sweep every this many batches (0 = off).
    sweep_every: u64,
    /// Kill at 3/5 of the stream, restore, and replay the rest.
    crash: bool,
    /// Replays of the whole stream per refit of the serving model.
    replays: usize,
}

/// Few drives (2.9k), a year of daily records each; ingestion only.
/// A replay takes less time than a refit, so each refit is followed by
/// three replays, to time each batch more often per run.
pub const INGEST: Shape = Shape {
    fraction: 0.00125,
    horizon_days: 365,
    batch_size: 512,
    checkpoint_every: 0,
    sweep_every: 0,
    crash: false,
    replays: 3,
};

/// Many drives (4.7k), 120 days each, at production cadence. Batches of
/// 320 records give a pass the 1000 batches a p99 needs.
pub const DURABLE: Shape = Shape {
    fraction: 0.002,
    horizon_days: 120,
    batch_size: 320,
    checkpoint_every: 8,
    sweep_every: 16,
    crash: true,
    replays: 1,
};

impl Shape {
    /// Every drive of the population reports telemetry (an unbounded
    /// healthy-per-failure ratio), so the fleet's size does not depend on
    /// how many failures a seed draws and runs of different seeds do the
    /// same amount of work. The hazard boost of `FleetConfig::tiny` keeps
    /// enough failures in the 70% training window to fit the model.
    fn fleet_config(&self, ctx: &Ctx) -> FleetConfig {
        let cfg = FleetConfig::new(ctx.seed)
            .with_population_fraction(self.fraction)
            .with_horizon_days(self.horizon_days)
            .with_healthy_per_failure(f64::INFINITY)
            .with_hazard_boost(120.0);
        common::fleet_config(cfg, ctx.threads)
    }

    /// The monitor configuration. A traced run turns the in-monitor
    /// intervals off and calls `write_checkpoint` / `sweep_now` itself
    /// on the same ticks, so both can be timed from outside.
    fn monitor_config(&self, dir: &Path, traced: bool, threads: usize) -> FleetMonitorConfig {
        let (ck, sw) = if traced {
            (0, 0)
        } else {
            (self.checkpoint_every, self.sweep_every)
        };
        FleetMonitorConfig::default()
            .with_shards(N_SHARDS)
            .with_threads(threads)
            .with_checkpointing(dir, ck)
            .with_sweep_interval(sw)
    }
}

fn poison_serial(p: u64) -> SerialNumber {
    SerialNumber::new(Vendor::I, POISON_ID_BASE + p)
}

/// A sentinel-page record from poison drive `p` at batch `tick`.
fn poison_event(p: u64, tick: usize) -> ArrivalEvent {
    let mut smart = SmartValues::default();
    for attr in SmartAttr::ALL {
        smart.set(attr, u64::MAX as f64);
    }
    ArrivalEvent {
        serial: poison_serial(p),
        record: DailyRecord {
            day: DayStamp::new(tick as i64),
            smart,
            firmware: FirmwareVersion::new(Vendor::I, 1),
            w_counts: [0; 9],
            b_counts: [0; 23],
        },
    }
}

/// Generated inputs: the fleet (the model is fitted on it every pass)
/// and its arrival stream cut into batches.
struct Setup {
    fleet: SimulatedFleet,
    batches: Vec<Vec<ArrivalEvent>>,
    counters: Counters,
}

/// Fleet generation and the arrival stream cut into batches with
/// transport faults and poison drives.
fn setup(shape: &Shape, ctx: &mut Ctx) -> Setup {
    let cfg = shape.fleet_config(ctx);
    let transport = TransportFaultConfig {
        batch_truncation_rate: 0.02,
        burst_loss_rate: 0.01,
        burst_len: 3,
        n_shards: N_SHARDS,
    };
    let tr = &mut ctx.tracer;
    tr.enter("setup");
    let fleet = common::generate(&cfg, tr);
    let batches = tr.time("fleetsim.replay_build", || {
        let stream = arrival_stream(&fleet);
        let (bare, _) = into_batches(stream, shape.batch_size, &transport, ctx.seed);
        bare.into_iter()
            .enumerate()
            .map(|(tick, mut batch)| {
                batch.extend((0..N_POISON).map(|p| poison_event(p, tick)));
                batch
            })
            .collect::<Vec<_>>()
    });
    tr.exit();
    let mut counters = common::fleet_counters(&fleet);
    counters.insert("fleetsim.batches", batches.len() as u64);
    Setup {
        fleet,
        batches,
        counters,
    }
}

/// What one pass over (part of) the stream observed.
#[derive(Default)]
struct Pass {
    /// Each tick's time and the records delivered to its `ingest_batch`.
    ticks: Calls,
    counters: Counters,
    /// Sweep scores re-predicted from outside equal the sweep's: the
    /// final sweep of every pass, and in a traced run every in-stream one.
    predict_matches: bool,
    /// Seconds to refit the serving model, on the first replay after
    /// each refit.
    retrain_s: Option<f64>,
    compiled_matches: bool,
}

fn bump(counters: &mut Counters, name: &'static str, by: u64) {
    *counters.entry(name).or_default() += by;
}

/// Feeds `batches` through `fm`, one closed-loop `ingest_batch` call per
/// tick, timing each tick with its due checkpoint and sweep.
fn run_ticks(
    fm: &mut FleetMonitor,
    batches: &[Vec<ArrivalEvent>],
    shape: &Shape,
    trained: &TrainedMfpa,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Pass {
    let mut pass = Pass {
        predict_matches: true,
        ..Pass::default()
    };
    let traced = tr.enabled();
    for batch in batches {
        let t = Instant::now();
        tr.enter("tick");
        let out = tr.time("fleet_monitor.ingest", || {
            fm.ingest_batch(batch, Some(trained))
        });
        let mut written = None;
        let mut scores = None;
        let tick = fm.tick();
        if traced {
            if shape.checkpoint_every > 0 && tick.is_multiple_of(shape.checkpoint_every) {
                written = Some(
                    tr.time("checkpoint.write", || write_checkpoint(fm))
                        .map_err(|e| e.to_string()),
                );
            }
            if shape.sweep_every > 0 && tick.is_multiple_of(shape.sweep_every) {
                scores = Some(if fm.is_degraded() {
                    Err("shed".to_string())
                } else {
                    tr.time("fleet_monitor.sweep", || fm.sweep_now(trained))
                        .map_err(|e| e.to_string())
                });
            }
        }
        tr.exit();
        pass.ticks.push(ms_since(t), batch.len());

        ledger.record("ingest_batch", out.is_ok());
        if let Ok(out) = out {
            match out.checkpoint {
                CheckpointOutcome::Written { path, .. } => written = Some(Ok(path)),
                CheckpointOutcome::Failed { detail } => written = Some(Err(detail)),
                CheckpointOutcome::NotDue => {}
            }
            match out.sweep {
                SweepOutcome::Scores(s) => scores = Some(Ok(s)),
                SweepOutcome::Shed => scores = Some(Err("shed".to_string())),
                SweepOutcome::NotDue => {}
            }
        }
        if let Some(w) = written {
            ledger.record("checkpoint", w.is_ok());
            if let Ok(path) = w {
                bump(&mut pass.counters, "checkpoint.writes", 1);
                let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
                bump(&mut pass.counters, "checkpoint.bytes", bytes);
            }
        }
        if let Some(s) = scores {
            ledger.record("sweep", s.is_ok());
            if let Ok(s) = s {
                bump(&mut pass.counters, "fleet_monitor.sweeps", 1);
                bump(
                    &mut pass.counters,
                    "fleet_monitor.sweep_rows",
                    s.len() as u64,
                );
                if traced {
                    pass.predict_matches &= predict_probe(fm, trained, &s, tr);
                }
            }
        }
    }
    pass
}

/// Re-scores a sweep's rows through `predict_matrix` alone, so the
/// sweep's column gather shows as sweep minus predict. Returns whether
/// the probabilities equal the sweep's bit for bit.
fn predict_probe(
    fm: &FleetMonitor,
    trained: &TrainedMfpa,
    scores: &[FleetScore],
    tr: &mut Tracer,
) -> bool {
    let rows: Option<Vec<Vec<f64>>> = scores
        .iter()
        .map(|s| {
            let row = fm.drive_row(s.serial).ok()??;
            Some(
                trained
                    .features()
                    .iter()
                    .map(|f| row[f.full_index()])
                    .collect(),
            )
        })
        .collect();
    let Some(rows) = rows else { return false };
    if rows.is_empty() {
        return true;
    }
    let Ok(x) = Matrix::from_rows(&rows) else {
        return false;
    };
    match tr.time("compile.predict", || trained.predict_matrix(&x)) {
        Ok(p) => p
            .iter()
            .zip(scores)
            .all(|(a, s)| a.to_bits() == s.score.to_bits()),
        Err(_) => false,
    }
}

/// End-of-stream state compared across passes and against the restored
/// run: final scores, quarantine set, fleet accounting.
#[derive(Debug, PartialEq)]
struct Final {
    scores: Vec<FleetScore>,
    quarantined: Vec<(SerialNumber, QuarantineInfo)>,
    report: ShardReport,
    conserved: bool,
}

impl Final {
    fn digest(&self) -> u64 {
        let mut d = Digest::default();
        for s in &self.scores {
            d.u64(s.serial.id());
            d.f64(s.score);
        }
        for (serial, q) in &self.quarantined {
            d.u64(serial.id());
            d.u64(q.since_tick);
            d.u64(q.until_tick.unwrap_or(u64::MAX));
        }
        let r = &self.report;
        for v in [
            r.received,
            r.accepted,
            r.rejected_corrupt,
            r.rejected_late,
            r.shed_overflow,
            r.dropped_quarantined,
            r.quarantines,
            r.readmissions,
            r.pending,
            r.drives,
        ] {
            d.u64(v);
        }
        d.finish()
    }
}

/// Drains the reorder windows, checks conservation on every shard, and
/// takes the final sweep and re-predicts its rows (outside the timed
/// ticks and untraced: they are only checked).
fn finish(
    fm: &mut FleetMonitor,
    trained: &TrainedMfpa,
    pass: &mut Pass,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Final, String> {
    tr.time("fleet_monitor.drain", || fm.drain());
    let shards = fm.shard_reports();
    let conserved = shards.iter().all(|r| r.is_conserved() && r.pending == 0);
    let scores = fm.sweep_now(trained);
    ledger.record("final_sweep", scores.is_ok());
    if let Ok(s) = &scores {
        pass.predict_matches &= predict_probe(fm, trained, s, &mut Tracer::new(false));
    }
    let report = fm.fleet_report();
    ledger.add("records", report.received, report.shed_overflow);
    let received: Vec<f64> = shards.iter().map(|r| r.received as f64).collect();
    let mean = received.iter().sum::<f64>() / received.len() as f64;
    let skew = received.iter().copied().fold(0.0, f64::max) / mean;
    let c = &mut pass.counters;
    for (name, v) in [
        ("fleet_monitor.ingest_calls", pass.ticks.ms.len() as u64),
        ("fleet_monitor.records_received", report.received),
        ("fleet_monitor.records_accepted", report.accepted),
        ("fleet_monitor.rejected_corrupt", report.rejected_corrupt),
        ("fleet_monitor.rejected_late", report.rejected_late),
        (
            "fleet_monitor.dropped_quarantined",
            report.dropped_quarantined,
        ),
        ("fleet_monitor.shed_overflow", report.shed_overflow),
        ("fleet_monitor.quarantines", report.quarantines),
        ("fleet_monitor.readmissions", report.readmissions),
        ("fleet_monitor.drives", report.drives),
        // Ratios travel as exact bit patterns so counter equality holds.
        ("fleet_monitor.shard_skew", skew.to_bits()),
    ] {
        c.insert(name, v);
    }
    Ok(Final {
        scores: scores.map_err(|e| format!("final sweep: {e}"))?,
        quarantined: fm.quarantined(),
        report,
        conserved,
    })
}

/// One replay of the whole stream: what it observed and its end state.
type Replay = (Pass, Final);

/// One iteration of the measured loop: refit the serving model on the
/// fleet, then replay the whole stream `shape.replays` times, each
/// through a fresh monitor. Returns each replay's pass and final state,
/// the last replay's monitor, and the model.
fn full_pass(
    shape: &Shape,
    s: &Setup,
    ctx: &mut Ctx,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<(Vec<Replay>, FleetMonitor, TrainedMfpa), String> {
    let fitted = fit_model(&s.fleet, ctx, ledger)?;
    let trained = fitted.trained;
    let mut replays = Vec::with_capacity(shape.replays);
    let mut last = None;
    for i in 0..shape.replays {
        let _ = std::fs::remove_dir_all(dir);
        let cfg = shape.monitor_config(dir, ctx.tracer.enabled(), ctx.threads);
        let mut fm = FleetMonitor::new(cfg).map_err(|e| format!("monitor config: {e}"))?;
        let mut pass = run_ticks(
            &mut fm,
            &s.batches,
            shape,
            &trained,
            &mut ctx.tracer,
            ledger,
        );
        let fin = finish(&mut fm, &trained, &mut pass, &mut ctx.tracer, ledger)?;
        pass.retrain_s = (i == 0).then_some(fitted.retrain_s);
        pass.compiled_matches = fitted.compiled_matches;
        pass.counters.extend(fitted.counters.clone());
        replays.push((pass, fin));
        last = Some(fm);
    }
    let fm = last.ok_or("a pass needs at least one replay")?;
    Ok((replays, fm, trained))
}

/// Restores the newest snapshot in `fm`'s directory `n` times: the
/// restore a monitor pays after a crash near the end of the stream. On
/// serve_durable that is the replay's last in-stream checkpoint; a
/// workload that checkpoints nothing in-stream snapshots its final state
/// first. Returns the first restored monitor with the restore times.
fn restore_newest(
    shape: &Shape,
    fm: &FleetMonitor,
    n: usize,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    counters: &mut Counters,
) -> Result<(FleetMonitor, Vec<f64>), String> {
    if shape.checkpoint_every == 0 {
        let w = tr.time("checkpoint.write", || write_checkpoint(fm));
        ledger.record("checkpoint", w.is_ok());
        w.map_err(|e| format!("write_checkpoint: {e}"))?;
    }
    restore_repeatedly(fm.config(), n, tr, ledger, counters)
}

/// Replays the batches after a restored monitor's tick and finishes the
/// stream, for comparison with the uninterrupted run.
fn resume(
    mut fm: FleetMonitor,
    s: &Setup,
    shape: &Shape,
    trained: &TrainedMfpa,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<Final, String> {
    let rest = s
        .batches
        .get(fm.tick() as usize..)
        .ok_or("restored tick beyond the stream")?;
    let mut pass = run_ticks(&mut fm, rest, shape, trained, tr, ledger);
    finish(&mut fm, trained, &mut pass, tr, ledger)
}

/// Times `n` restores of the newest snapshot in `cfg`'s directory and
/// returns the first restored monitor with the times.
fn restore_repeatedly(
    cfg: &FleetMonitorConfig,
    n: usize,
    tr: &mut Tracer,
    ledger: &mut Ledger,
    counters: &mut Counters,
) -> Result<(FleetMonitor, Vec<f64>), String> {
    let dir = cfg.checkpoint_dir.clone().ok_or("no checkpoint dir")?;
    let mut first = None;
    let mut times = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        tr.enter("recover");
        let restored = match tr.time("checkpoint.list", || latest_checkpoint(&dir)) {
            Ok(Some(p)) => {
                let m = tr.time("checkpoint.restore", || restore(cfg.clone(), &p));
                let bytes = std::fs::metadata(&p).map_or(0, |m| m.len());
                counters.insert("checkpoint.restore_bytes", bytes);
                m.map(Some)
            }
            Ok(None) => Ok(None),
            Err(e) => Err(e),
        };
        tr.exit();
        times.push(ms_since(t));
        ledger.record("restore", matches!(restored, Ok(Some(_))));
        let fm = restored
            .map_err(|e| format!("restore: {e}"))?
            .ok_or("no checkpoint to restore")?;
        first.get_or_insert(fm);
    }
    Ok((first.ok_or("no restore was asked for")?, times))
}

/// Flips one bit of the newest snapshot in `dir`; restoring must fail
/// with `CheckpointCorrupt`.
fn bit_flip_refused(cfg: &FleetMonitorConfig, seed: u64) -> Result<bool, String> {
    let dir = cfg.checkpoint_dir.clone().ok_or("no checkpoint dir")?;
    let path = latest_checkpoint(&dir)
        .map_err(|e| e.to_string())?
        .ok_or("no checkpoint to damage")?;
    let mut bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    flip_one_byte(&mut bytes, seed ^ 0xBADC_0FFE).ok_or("empty checkpoint")?;
    std::fs::write(&path, &bytes).map_err(|e| e.to_string())?;
    Ok(matches!(
        FleetMonitor::restore_latest(cfg.clone()),
        Err(CoreError::CheckpointCorrupt { .. })
    ))
}

/// Rescores the whole fleet with `deploy::score_fleet`, once per run
/// after the replay, and returns the records scored and a digest of the
/// scores. Its cost per record depends on the model a seed trains: in a
/// 3.7k-drive, 180-day fleet, the same records rescored 2.0-2.5x faster
/// under a model fitted on seed 5 than under one fitted on seed 8. No
/// end-to-end bound holds that, so
/// it is a layer only, the retraining path's counterpart of the sweeps
/// in the same `DriveMonitor` and tree code.
fn rescore(
    fleet: &SimulatedFleet,
    trained: &TrainedMfpa,
    threads: usize,
    tr: &mut Tracer,
    ledger: &mut Ledger,
) -> Result<(u64, u64), String> {
    let mut scored = 0u64;
    let mut digest = Digest::default();
    for chunk in fleet.drives().chunks(CHUNK_DRIVES) {
        tr.enter("rescore");
        let scores = tr.time("deploy.score_fleet", || {
            score_fleet(chunk, trained, threads)
        });
        tr.exit();
        ledger.record("score_fleet", scores.is_ok());
        let scores = scores.map_err(|e| format!("score_fleet: {e}"))?;
        if scores.len() != chunk.len() {
            return Err(format!(
                "score_fleet scored {} of {} drives",
                scores.len(),
                chunk.len()
            ));
        }
        for s in &scores {
            scored += s.n_scored as u64;
            digest.u64(s.serial.id());
            digest.f64(s.max_score);
            digest.f64(s.last_score);
        }
    }
    Ok((scored, digest.finish()))
}

/// Runs one serve workload.
pub fn run(mut ctx: Ctx, shape: &Shape) -> Result<Outcome, String> {
    let mut report = Report::default();
    let traced = ctx.tracer.enabled();
    let n_setups = if traced { 1 } else { SETUPS };

    let mut setup_s = Vec::new();
    let mut setup_counters = Vec::new();
    let mut s = None;
    for _ in 0..n_setups {
        drop(s.take()); // free the previous set-up before building the next
        let t = Instant::now();
        let built = setup(shape, &mut ctx);
        setup_s.push(t.elapsed().as_secs_f64());
        setup_counters.push(built.counters.clone());
        s = Some(built);
    }
    let s = s.expect("at least one set-up");
    report.gate(
        "set-up work counters repeat exactly",
        setup_counters.iter().all(|c| *c == s.counters),
    );

    let dir = ctx.work.join("uninterrupted");
    let mut passes: Vec<(Pass, u64)> = Vec::new();
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut traced_runs = Vec::new();
    let mut restore_ms = Vec::new();
    let start = Instant::now();
    let mut run_id = 0u32;
    let (mut conserved, mut quarantined, mut rejected) = (true, true, true);
    let (uninterrupted, fm_last, trained) = loop {
        run_id += 1;
        let (result, traced_pass) = common::run_pass(&mut ctx, run_id, |ctx| {
            full_pass(shape, &s, ctx, &dir, &mut report.ledger)
        });
        let (replays, fm, trained) = result?;
        if traced_pass {
            traced_runs.push(run_id);
        }
        let mut last = None;
        for (pass, fin) in replays {
            conserved &= fin.conserved;
            quarantined &= (0..N_POISON).all(|p| {
                fin.quarantined
                    .iter()
                    .any(|(serial, _)| *serial == poison_serial(p))
            });
            rejected &= fin.report.rejected_corrupt > 0;
            if traced {
                // Replay wall time is the ticks' time; the traced run's
                // predict probes between ticks are excluded.
                let ms = pass.ticks.total_ms();
                if traced_pass {
                    traced_ms.push(ms);
                } else {
                    untraced_ms.push(ms);
                }
            }
            passes.push((pass, fin.digest()));
            last = Some(fin);
        }
        let fin = last.expect("full_pass returns at least one replay");
        if !traced {
            let (_, times) = restore_newest(
                shape,
                &fm,
                RESTORES_PER_PASS,
                &mut ctx.tracer,
                &mut report.ledger,
                &mut Counters::new(),
            )?;
            restore_ms.extend(times);
        }
        if !common::more_passes(&ctx, run_id, start, passes.len()) {
            break (fin, fm, trained);
        }
    };
    let (first_pass, first_digest) = &passes[0];
    report.gate(
        "every shard conserved, pending == 0 after drain, in every pass",
        conserved,
    );
    report.gate("poison drives quarantined in every pass", quarantined);
    report.gate("corrupt records rejected in every pass", rejected);
    report.gate(
        "work counters repeat exactly across passes (traced and untraced)",
        passes
            .iter()
            .all(|(p, _)| p.counters == first_pass.counters),
    );
    report.gate(
        "final-score digest repeats across passes (traced and untraced)",
        passes.iter().all(|(_, d)| d == first_digest),
    );
    report.gate(
        "sweep scores == predict_matrix on the same rows",
        passes.iter().all(|(p, _)| p.predict_matches),
    );
    report.gate(
        "compiled == uncompiled probabilities on the test rows",
        passes.iter().all(|(p, _)| p.compiled_matches),
    );

    // Recovery. Every workload restores the newest snapshot of its last
    // replay (in a traced run `RESTORES` times, for the
    // `checkpoint.restore` layer) and replays the rest of the stream.
    // serve_durable also kills a monitor at 3/5 of the stream and resumes
    // it from its newest snapshot. Either way the resumed monitor must end
    // bit-identical to the uninterrupted run.
    let mut restore_counters = Counters::new();
    ctx.tracer.set_run(RECOVER_RUN);
    let n_restores = if traced { RESTORES } else { 1 };
    let (fm, _) = restore_newest(
        shape,
        &fm_last,
        n_restores,
        &mut ctx.tracer,
        &mut report.ledger,
        &mut restore_counters,
    )?;
    let resumed = resume(fm, &s, shape, &trained, &mut ctx.tracer, &mut report.ledger)?;
    report.gate(
        "restore of the newest snapshot + replay bit-identical to the uninterrupted run (scores, quarantine set, fleet_report)",
        resumed == uninterrupted,
    );
    if shape.crash {
        let dir_b = ctx.work.join("killed");
        let _ = std::fs::remove_dir_all(&dir_b);
        let cfg = shape.monitor_config(&dir_b, traced, ctx.threads);
        let kill_at = s.batches.len() * 3 / 5;
        {
            let mut fm = FleetMonitor::new(cfg.clone()).map_err(|e| e.to_string())?;
            run_ticks(
                &mut fm,
                &s.batches[..kill_at],
                shape,
                &trained,
                &mut ctx.tracer,
                &mut report.ledger,
            );
            // dropped here: the crash; only the snapshots survive
        }
        let (fm, _) = restore_repeatedly(
            &cfg,
            1,
            &mut Tracer::new(false),
            &mut report.ledger,
            &mut Counters::new(),
        )?;
        let tick = fm.tick() as usize;
        report.note(format!("killed at batch {kill_at}, resumed at tick {tick}"));
        report.gate(
            "restored tick within the kill point",
            tick <= kill_at && tick > 0,
        );
        let fin = resume(fm, &s, shape, &trained, &mut ctx.tracer, &mut report.ledger)?;
        report.gate(
            "restore + replay after a kill at 3/5 bit-identical to the uninterrupted run (scores, quarantine set, fleet_report)",
            fin == uninterrupted,
        );
    }
    report.gate(
        "bit-flipped snapshot refused with CheckpointCorrupt",
        bit_flip_refused(fm_last.config(), ctx.seed)?,
    );
    ctx.tracer.set_run(RESCORE_RUN);
    let (scored, score_digest) = rescore(
        &s.fleet,
        &trained,
        ctx.threads,
        &mut ctx.tracer,
        &mut report.ledger,
    )?;
    report.gate("score_fleet scored records of the fleet", scored > 0);
    let mut counters = s.counters.clone();
    counters.extend(&first_pass.counters);
    counters.extend(&restore_counters);
    counters.insert("deploy.records_scored", scored);
    counters.insert("deploy.score_digest", score_digest);
    report.repeatable(*first_digest, counters);

    let calls: Vec<&Calls> = passes.iter().map(|(p, _)| &p.ticks).collect();
    report.note(format!(
        "{} passes, {} batches of {} (+{N_POISON} poison), {} ticks timed",
        passes.len(),
        s.batches.len(),
        shape.batch_size,
        calls.iter().map(|c| c.ms.len()).sum::<usize>()
    ));
    if traced {
        layers(
            &mut report,
            &ctx.tracer,
            &s,
            first_pass,
            &restore_counters,
            scored,
            &traced_runs,
        );
        common::trace_layers(
            &mut report,
            &ctx.tracer,
            &untraced_ms,
            &traced_ms,
            &[
                ("setup", &[0]),
                ("retrain", &traced_runs),
                ("tick", &traced_runs),
                ("recover", &[RECOVER_RUN]),
                ("rescore", &[RESCORE_RUN]),
            ],
        );
    } else {
        let per_pass: Vec<f64> = calls
            .iter()
            .map(|c| c.records.iter().sum::<f64>() * 1e3 / c.total_ms())
            .collect();
        let retrain_s: Vec<f64> = passes.iter().filter_map(|(p, _)| p.retrain_s).collect();
        report.note(format!(
            "per-pass records/s: {per_pass:.0?}, retrain_s: {retrain_s:.3?}"
        ));
        let (rate, p50, p99) = common::batch_metrics(&mut report, &calls)?;
        report.e2e("setup_s", fast_mean(&setup_s));
        report.e2e("records_per_s", rate);
        report.e2e("batch_p50_ms", p50);
        report.e2e("batch_p99_ms", p99);
        report.e2e("recovery_ms", fast_mean(&restore_ms));
        report.e2e("retrain_s", fast_mean(&retrain_s));
        report.e2e("peak_rss_mb", common::peak_rss_mb()?);
    }
    Ok(Outcome {
        report,
        tracer: ctx.tracer,
    })
}

/// Per-layer metrics of a traced serve run.
fn layers(
    report: &mut Report,
    tr: &Tracer,
    s: &Setup,
    pass: &Pass,
    restore_counters: &Counters,
    scored: u64,
    traced_runs: &[u32],
) {
    let setup = LayerTimes::new(tr, &[0]);
    let ticks = LayerTimes::new(tr, traced_runs);
    common::pipeline_layers(report, &ticks, &pass.counters);
    report.layer("fleetsim.generate_ms", setup.ms("fleetsim.generate"));
    report.layer(
        "fleetsim.replay_build_ms",
        setup.ms("fleetsim.replay_build"),
    );
    for (name, v) in &s.counters {
        report.layer(name, *v as f64);
    }
    let recover = LayerTimes::new(tr, &[RECOVER_RUN]);
    report.layer(
        "checkpoint.restore_ms",
        median(recover.calls("checkpoint.restore")),
    );
    for (name, v) in restore_counters {
        report.layer(name, *v as f64);
    }
    let rescore = LayerTimes::new(tr, &[RESCORE_RUN]);
    report.layer("deploy.score_fleet_ms", rescore.ms("deploy.score_fleet"));
    report.layer("deploy.records_scored", scored as f64);

    let ingest = ticks.calls("fleet_monitor.ingest");
    report.layer("fleet_monitor.ingest_ms", ticks.ms("fleet_monitor.ingest"));
    report.layer("fleet_monitor.ingest_p50_ms", percentile(ingest, 0.5));
    report.layer("fleet_monitor.ingest_p99_ms", percentile(ingest, 0.99));
    report.layer("fleet_monitor.sweep_ms", ticks.ms("fleet_monitor.sweep"));
    report.layer("fleet_monitor.drain_ms", ticks.ms("fleet_monitor.drain"));
    report.layer("compile.predict_ms", ticks.ms("compile.predict"));
    report.layer("checkpoint.write_ms", ticks.ms("checkpoint.write"));
    let writes = ticks.calls("checkpoint.write");
    if !writes.is_empty() {
        report.layer("checkpoint.write_p50_ms", percentile(writes, 0.5));
    }
    let c = &pass.counters;
    report.layer(
        "fleet_monitor.shard_skew",
        f64::from_bits(c["fleet_monitor.shard_skew"]),
    );
    let received = c["fleet_monitor.records_received"] as f64;
    let accepted = c["fleet_monitor.records_accepted"] as f64;
    report.layer("fleet_monitor.accept_ratio", accepted / received);
    let swept = c.get("fleet_monitor.sweep_rows").copied().unwrap_or(0);
    report.layer("compile.predict_rows", swept as f64);
}
