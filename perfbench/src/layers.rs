//! Per-layer probes: the benchmark times its own calls into each crate's
//! public functions, in process, and reads the telemetry the program
//! already exposes. Nothing here adds a span inside the program.

use std::io::BufRead;
use std::path::Path;
use std::time::Instant;

use nvpim::service::{Journal, JournalRecord};
use nvpim::sweep::{
    execution_backend, prepare_campaign, prepare_campaign_with_telemetry, CampaignControl,
    ProtectionConfig, ScheduleCache, TelemetryCounter, TrialArena, TrialHarness,
};
use nvpim::telemetry::Phase;
use nvpim::{ProtectionScheme, SimBackend, SweepPlan, Telemetry};

use crate::trace::span;

/// Trials per sliced batch and per daemon chunk.
const LANES: usize = 64;
/// The daemon's default `--chunk-trials`.
const DAEMON_CHUNK: usize = 64;

/// A named per-layer value.
pub type Metric = (&'static str, &'static str, f64);

fn ms(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// The plan's representative protected point: its first workload and
/// technology, its first protection other than the unprotected baseline,
/// and its highest gate error rate.
fn protected_point(plan: &SweepPlan) -> (ProtectionConfig, f64) {
    let protection = plan
        .protections
        .iter()
        .copied()
        .find(|p| p.scheme != ProtectionScheme::Unprotected)
        .unwrap_or(plan.protections[0]);
    let rate = plan.gate_error_rates.iter().copied().fold(0.0, f64::max);
    (protection, rate)
}

/// Mean microseconds per 64-trial batch of `harness`, over at least eight
/// batches and 0.2 seconds.
fn batch_us(harness: &TrialHarness, sliced: bool, seed: u64, name: &'static str) -> f64 {
    let mut arena = TrialArena::new();
    let started = Instant::now();
    let mut batches = 0u64;
    while batches < 8 || started.elapsed().as_secs_f64() < 0.2 {
        let first = batches * LANES as u64;
        span(name, 0, || {
            if sliced {
                std::hint::black_box(harness.run_trial_batch(seed, first, LANES, &mut arena));
            } else {
                for trial in first..first + LANES as u64 {
                    std::hint::black_box(harness.run_trial(seed, trial, &mut arena));
                }
            }
        });
        batches += 1;
    }
    started.elapsed().as_secs_f64() * 1e6 / batches as f64
}

/// Engine-level probes on `plan` (sim, core, compiler, sweep layers).
pub fn engine(plan: &SweepPlan) -> Result<Vec<Metric>, String> {
    let err = |e: nvpim::sweep::SweepError| e.to_string();
    let mut out = Vec::new();

    // sim / core: one protected point in 64-trial batches, clean versus at
    // the workload's rate, every trial simulated in full.
    let (protection, rate) = protected_point(plan);
    let config = protection.design_config(plan.technologies[0]);
    let sliced = nvpim::scheme_capabilities()
        .iter()
        .any(|(scheme, caps)| *scheme == protection.scheme && caps.sliceable);
    let harness = |r: f64| {
        TrialHarness::new(plan.workloads[0], protection, config.clone(), r)
            .map(TrialHarness::without_analytic_fast_path)
            .map_err(err)
    };
    let gate = batch_us(&harness(0.0)?, sliced, plan.campaign_seed, "sim.gate_batch");
    let protected = batch_us(
        &harness(rate)?,
        sliced,
        plan.campaign_seed,
        "core.protected_batch",
    );
    out.push(("sim.gate_batch_us", "us", gate));
    out.push(("core.protected_batch_us", "us", protected));
    out.push(("core.check_share", "share", 1.0 - gate / protected));

    // compiler: cold compiles, as the program's own telemetry times them.
    let telemetry = Telemetry::new();
    let mut cache = ScheduleCache::new();
    span("sweep.prepare_cold", 0, || {
        prepare_campaign_with_telemetry(plan, &mut cache, telemetry.clone())
    })
    .map_err(err)?;
    let snapshot = telemetry.snapshot();
    let compiles = snapshot.phase_count(Phase::ScheduleCompile).max(1);
    out.push((
        "compiler.compile_ms",
        "ms",
        snapshot.phase_nanos(Phase::ScheduleCompile) as f64 / 1e6 / compiles as f64,
    ));

    // sweep: warm-cache prepare, chunked run, splice, serialization.
    let mut prepare = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        span("sweep.prepare", 0, || prepare_campaign(plan, &mut cache)).map_err(err)?;
        prepare.push(ms(started));
    }
    out.push(("sweep.prepare_ms", "ms", crate::stats::median(&prepare)));

    // The run is repeated (at least three times and one second) and its
    // median reported; the outcomes and counters of the last one are kept.
    let mut runs = Vec::new();
    let started_all = Instant::now();
    let (prepared, telemetry, report, outcomes, chunks) = loop {
        let telemetry = Telemetry::new();
        let prepared = prepare_campaign(plan, &mut cache)
            .map_err(err)?
            .with_telemetry(telemetry.clone());
        let mut outcomes = Vec::new();
        let mut chunks = 0u64;
        let started = Instant::now();
        let report = span("sweep.run", 0, || {
            prepared.run_chunked_resumable(
                execution_backend(SimBackend::default()),
                DAEMON_CHUNK,
                Vec::new(),
                |checkpoint| {
                    chunks += 1;
                    outcomes.extend_from_slice(checkpoint.new_outcomes);
                    CampaignControl::Continue
                },
            )
        })
        .map_err(err)?;
        runs.push(ms(started));
        if runs.len() >= 3 && started_all.elapsed().as_secs_f64() >= 1.0 {
            break (prepared, telemetry, report, outcomes, chunks);
        }
    };
    let trials = plan.trial_count() as f64;
    let settled = telemetry
        .snapshot()
        .counter(TelemetryCounter::CleanSettledTrials);
    out.push(("sweep.run_ms", "ms", crate::stats::median(&runs)));
    out.push(("sweep.chunks", "count", chunks as f64));
    out.push(("sweep.settled_share", "share", settled as f64 / trials));

    let started = Instant::now();
    let spliced = span("sweep.splice", 0, || {
        prepared.report_from_outcomes(&outcomes)
    })
    .map_err(err)?;
    out.push(("sweep.splice_ms", "ms", ms(started)));
    let started = Instant::now();
    let json = span("sweep.serialize", 0, || report.to_json());
    out.push(("sweep.serialize_ms", "ms", ms(started)));
    out.push(("sweep.report_bytes", "B", json.len() as f64));
    if spliced.to_json() != json {
        return Err("the spliced report differs from the chunked run's report".into());
    }
    Ok(out)
}

/// Milliseconds per accuracy trial, over every point of the
/// accuracy-quick grid, each run as a one-point campaign on a warm cache.
pub fn accuracy_trial_ms(seed: u64) -> Result<f64, String> {
    let grid = SweepPlan::accuracy_quick();
    let mut cache = ScheduleCache::new();
    let mut per_trial = Vec::new();
    for &protection in &grid.protections {
        for &rate in &grid.gate_error_rates {
            let mut plan = grid.clone();
            plan.protections = vec![protection];
            plan.gate_error_rates = vec![rate];
            plan.seeds_per_point = 2;
            plan.campaign_seed = seed;
            let prepared = prepare_campaign(&plan, &mut cache).map_err(|e| e.to_string())?;
            let started = Instant::now();
            span("sim.accuracy_point", 0, || prepared.run()).map_err(|e| e.to_string())?;
            per_trial.push(ms(started) / plan.trial_count() as f64);
        }
    }
    Ok(crate::stats::mean(&per_trial))
}

/// Re-appends up to `limit` of the daemon's own journal records to a
/// scratch journal that never syncs. Returns (records read, mean
/// microseconds per append).
pub fn journal_append(journal: &Path, scratch: &Path, limit: usize) -> Result<(u64, f64), String> {
    let file = std::fs::File::open(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let mut records = Vec::new();
    let mut total = 0u64;
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        total += 1;
        if records.len() < limit {
            records.push(JournalRecord::from_line(&line)?);
        }
    }
    let mut copy = Journal::open(scratch, 0).map_err(|e| e.to_string())?;
    let started = Instant::now();
    for record in &records {
        span("journal.append", 0, || copy.append(record)).map_err(|e| e.to_string())?;
    }
    let us = started.elapsed().as_secs_f64() * 1e6 / records.len().max(1) as f64;
    Ok((total, us))
}
