//! `nvpim-perfbench` — end-to-end and per-layer benchmark of every path a
//! user runs a campaign through: `nvpim-cli run`, the daemon, the
//! journaled daemon and a one-worker fleet.
//!
//! ```text
//! nvpim-perfbench --workload ecim-200k|job-stream --seed N
//!                 --seconds S --trace 0|1 --bin-dir DIR [--commit REV]
//! ```
//!
//! Prints a host record and run details as JSON lines, then one final
//! line `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `README.md` next to this crate for what each metric measures.

mod calib;
mod layers;
mod paths;
mod procs;
mod stats;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use nvpim::sweep::{ProtectionConfig, SweepWorkload};
use nvpim::SweepPlan;
use serde::Value;

use paths::{set_up, Bins, Runner};
use procs::ScratchDir;
use stats::{median, pooled_rate};

/// Set-ups per run, spread over it; the median is reported.
const SETUPS: usize = 21;
/// Steps every run makes, however long they take.
const MIN_STEPS: u64 = 3;
/// Journal records re-appended by the journal probe.
const JOURNAL_PROBE_RECORDS: usize = 4096;

/// SplitMix64 finalizer: derives independent seeds from one.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    /// The reference plan: ECiM m-o, MAC 8×4, STT-MRAM, gate rate 1e-4,
    /// 200k trials in one campaign.
    Ecim200k,
    /// Small campaigns on the paper-scale grid, one after another.
    JobStream,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "ecim-200k" => Some(Self::Ecim200k),
            "job-stream" => Some(Self::JobStream),
            _ => None,
        }
    }

    fn index(self) -> u64 {
        self as u64
    }

    /// The workload's plan under `campaign_seed`.
    fn plan(self, campaign_seed: u64) -> SweepPlan {
        let mut plan = match self {
            Self::Ecim200k => {
                let mut plan = SweepPlan::quick();
                plan.workloads = vec![SweepWorkload::Mac {
                    acc_bits: 8,
                    mul_bits: 4,
                }];
                plan.protections = vec![ProtectionConfig::ECIM];
                plan.gate_error_rates = vec![1e-4];
                plan.seeds_per_point = 200_000;
                plan
            }
            Self::JobStream => SweepPlan::paper_scale(),
        };
        plan.campaign_seed = campaign_seed;
        plan
    }

    /// New campaigns per step. Each goes through `direct`, the daemon
    /// stream and the journaled daemon. The host's speed drifts over
    /// seconds, so `ecim-200k`, whose campaigns take seconds, makes one
    /// per step: its samples then spread over the run instead of coming
    /// in clusters. `job-stream` sends three back to back.
    fn campaigns_per_step(self) -> u64 {
        match self {
            Self::Ecim200k => 1,
            Self::JobStream => 3,
        }
    }

    /// A smaller plan of the same shape for warming caches.
    fn warm_plan(self, campaign_seed: u64) -> SweepPlan {
        let mut plan = self.plan(campaign_seed);
        plan.seeds_per_point = match self {
            Self::Ecim200k => 256,
            Self::JobStream => plan.seeds_per_point,
        };
        plan
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload_name = value("--workload")?;
    let workload =
        Workload::parse(&workload_name).ok_or(format!("unknown workload `{workload_name}`"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} expects a whole number"))
    };
    Ok(Args {
        workload,
        workload_name,
        seed: number("--seed")?,
        seconds: number("--seconds")? as f64,
        trace: number("--trace")? == 1,
        bin_dir: PathBuf::from(value("--bin-dir")?),
        commit: value("--commit").unwrap_or_else(|_| "unknown".into()),
    })
}

fn metric(name: &str, unit: &str, value: f64) -> (String, Value) {
    (
        name.to_string(),
        Value::Object(vec![
            ("value".into(), Value::Float(value)),
            ("unit".into(), Value::Str(unit.into())),
        ]),
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn print_line(key: &str, value: Value) {
    let line = Value::Object(vec![(key.into(), value)]);
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(procs::REAP_FLAG) {
        procs::reap(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let bins = Bins::in_dir(&args.bin_dir);
    for bin in [&bins.cli, &bins.serviced, &bins.coordinator] {
        if !bin.is_file() {
            return Err(format!("missing binary {}", bin.display()));
        }
    }
    let scratch = ScratchDir::create().map_err(|e| format!("scratch directory: {e}"))?;
    let base = mix(args.seed ^ mix(args.workload.index()));
    let template = args.workload.plan(base);

    // The first set-up gives the fixture the run uses; the others are
    // spread evenly over the measured steps and discarded, so that a burst
    // of load on the host moves few of them.
    let (fixture, seconds) = set_up(&bins, &scratch, 0, &template)?;
    let mut setups = vec![seconds];
    let set_up_until = |setups: &mut Vec<f64>, due: usize| -> Result<(), String> {
        while setups.len() < due.min(SETUPS) {
            let (_, seconds) = set_up(&bins, &scratch, setups.len(), &template)?;
            setups.push(seconds);
        }
        Ok(())
    };

    let mut runner = Runner::new(&bins, &scratch, &fixture, mix(base ^ 1), args.trace)?;
    let warm = args.workload.warm_plan(mix(base ^ 2));
    runner.warm_up(&warm)?;

    let mut layer_metrics = Vec::new();
    if args.trace {
        trace::set_enabled(true);
        layer_metrics = layers::engine(&template)?;
        let accuracy_ms = layers::accuracy_trial_ms(template.campaign_seed)?;
        layer_metrics.push(("sim.accuracy_trial_ms", "ms", accuracy_ms));
        trace::set_enabled(false);
    }

    // The measured steps; a traced run alternates the span recorder on
    // and off to measure its overhead. A step starts only if it would end
    // less than half a step past the deadline, so a run measures close to
    // `--seconds` however long its steps take.
    let started = Instant::now();
    let mut step = 0u64;
    let more = |step: u64| {
        let elapsed = started.elapsed().as_secs_f64();
        step < MIN_STEPS || elapsed + 0.5 * elapsed / step as f64 <= args.seconds
    };
    while more(step) {
        let plans: Vec<SweepPlan> = (0..args.workload.campaigns_per_step())
            .map(|j| args.workload.plan(mix(base ^ mix(1000 + 8 * step + j))))
            .collect();
        runner.step(&plans, args.trace && step.is_multiple_of(2))?;
        step += 1;
        let share = started.elapsed().as_secs_f64() / args.seconds;
        set_up_until(&mut setups, 1 + (share * (SETUPS - 1) as f64) as usize)?;
    }
    let measured_s = started.elapsed().as_secs_f64();
    set_up_until(&mut setups, SETUPS)?;
    let service = runner.daemon_stats()?;
    let daemon_rss_mb = fixture.daemon.peak_rss_mb().unwrap_or(f64::NAN);
    let s = &runner.samples;

    let (tail_ms, tail_percentile, tail_samples) = stats::tail(&s.new_ms);
    let slowdown = runner.calibration.slowdown();
    print_line(
        "host",
        Value::Object(vec![
            (
                "nproc".into(),
                Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get()) as u64),
            ),
            ("cpu_model".into(), Value::Str(cpu_model())),
            (
                "rayon_num_threads".into(),
                Value::Str(std::env::var("RAYON_NUM_THREADS").unwrap_or_default()),
            ),
            ("daemon_workers".into(), Value::UInt(1)),
            ("fleet_workers".into(), Value::UInt(1)),
            ("commit".into(), Value::Str(args.commit.clone())),
            ("workload".into(), Value::Str(args.workload_name.clone())),
            ("seed".into(), Value::UInt(args.seed)),
            ("trace".into(), Value::Bool(args.trace)),
            (
                "trials_per_campaign".into(),
                Value::UInt(template.trial_count()),
            ),
            ("steps".into(), Value::UInt(s.steps)),
            ("stream_jobs".into(), Value::UInt(s.stream_jobs)),
            ("setups".into(), Value::UInt(setups.len() as u64)),
            (
                "new_campaign_samples".into(),
                Value::UInt(s.new_ms.len() as u64),
            ),
            (
                "store_hit_samples".into(),
                Value::UInt(s.hit_ms.len() as u64),
            ),
            ("measured_s".into(), Value::Float(measured_s)),
            ("host_slowdown".into(), Value::Float(slowdown)),
            (
                "correction".into(),
                Value::Float(runner.calibration.correction()),
            ),
            (
                "calibration_samples".into(),
                Value::UInt(runner.calibration.samples().len() as u64),
            ),
            ("tail_percentile".into(), Value::Float(tail_percentile)),
            ("tail_samples".into(), Value::UInt(tail_samples as u64)),
        ]),
    );

    let floats = |values: &[f64]| Value::Array(values.iter().map(|&v| Value::Float(v)).collect());
    print_line(
        "samples",
        Value::Object(vec![
            ("calibration_s".into(), floats(runner.calibration.samples())),
            ("setup_s".into(), floats(&setups)),
            ("direct.trials_per_s".into(), floats(&s.direct_tps)),
            ("daemon.trials_per_s".into(), floats(&s.daemon_tps)),
            ("journaled.trials_per_s".into(), floats(&s.journaled_tps)),
            ("fleet.trials_per_s".into(), floats(&s.fleet_tps)),
            ("stream.new_ms".into(), floats(&s.new_ms)),
            ("stream.hit_ms".into(), floats(&s.hit_ms)),
        ]),
    );

    let mut metrics = Vec::new();
    if args.trace {
        let stat = |key: &str| service.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let summary = |key: &str, field: &str| {
            service
                .get(key)
                .and_then(|s| s.get(field))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        let run_ms = layer_metrics
            .iter()
            .find(|m| m.0 == "sweep.run_ms")
            .map_or(0.0, |m| m.2);
        let (records, append_us) = layers::journal_append(
            &fixture.journal,
            &scratch.join("scratch.journal"),
            JOURNAL_PROBE_RECORDS,
        )?;
        let journaled_trials = s.journal_trials + warm.trial_count();
        layer_metrics.extend([
            ("service.accept_ms", "ms", median(&s.accept_ms)),
            (
                "service.queue_wait_us",
                "us",
                summary("queue_wait", "p50_us"),
            ),
            (
                "service.run_latency_ms",
                "ms",
                summary("run_latency", "p50_us") / 1e3,
            ),
            ("service.result_ms", "ms", median(&s.result_ms)),
            ("service.wire_bytes_per_job", "B", median(&s.job_wire_bytes)),
            (
                "service.progress_events_per_job",
                "count",
                median(&s.progress_events),
            ),
            ("service.overhead_ms", "ms", median(&s.new_ms) - run_ms),
            (
                "service.store_hit_share",
                "share",
                stat("report_cache_hits") / stat("jobs_submitted"),
            ),
            (
                "journal.records_per_trial",
                "count",
                records as f64 / journaled_trials as f64,
            ),
            ("journal.append_us", "us", append_us),
            ("daemon.peak_rss_mb", "MiB", daemon_rss_mb),
            ("journal.overhead_ms", "ms", median(&s.journal_overhead_ms)),
            ("coordinator.cpu_s", "s", median(&s.coordinator_cpu_s)),
            ("coordinator.worker_busy_s", "s", median(&s.worker_busy_s)),
            ("coordinator.worker_idle_s", "s", median(&s.worker_idle_s)),
            ("service.jobs_rejected", "count", stat("jobs_rejected")),
            ("service.jobs_retried", "count", stat("jobs_retried")),
            (
                "coordinator.heartbeat_misses",
                "count",
                s.heartbeat_misses as f64,
            ),
            ("coordinator.reassignments", "count", s.reassignments as f64),
            (
                "trace.overhead_pct",
                "%",
                100.0 * (median(&s.traced_step_s) / median(&s.untraced_step_s) - 1.0),
            ),
        ]);
        for (name, unit, value) in &layer_metrics {
            metrics.push(metric(name, unit, *value));
        }
        let spans = serde_json::to_string(&trace::to_json()).unwrap_or_default();
        let out = PathBuf::from(".bench_out");
        let written = std::fs::create_dir_all(&out).and_then(|()| {
            std::fs::write(
                out.join(format!(
                    "trace-{}-seed{}.json",
                    args.workload_name, args.seed
                )),
                spans,
            )
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing spans: {e}");
        }
        let spans: Vec<Value> = trace::summary()
            .into_iter()
            .map(|(name, (count, mean_ms))| {
                Value::Object(vec![
                    ("span".into(), Value::Str(name.into())),
                    ("count".into(), Value::UInt(count as u64)),
                    ("mean_ms".into(), Value::Float(mean_ms)),
                ])
            })
            .collect();
        print_line("spans", Value::Array(spans));
    } else {
        // Times are divided by the host-speed correction over the run and
        // rates multiplied by it (see `calib`). Store hits on `ecim-200k`
        // wait out a fixed 40 ms TCP timer that host speed does not move,
        // so their latency is not corrected; nor are byte counts and memory.
        let jobs_per_s = s.stream_jobs as f64 / s.stream_s;
        let ok_share = (s.attempted - s.failed) as f64 / s.attempted as f64;
        let c = runner.calibration.correction();
        let raw = [
            ("setup_s", "s", median(&setups), c),
            ("direct.trials_per_s", "1/s", pooled_rate(&s.direct_tps), c),
            ("daemon.trials_per_s", "1/s", pooled_rate(&s.daemon_tps), c),
            (
                "journaled.trials_per_s",
                "1/s",
                pooled_rate(&s.journaled_tps),
                c,
            ),
            ("fleet.trials_per_s", "1/s", pooled_rate(&s.fleet_tps), c),
            ("stream.jobs_per_s", "1/s", jobs_per_s, c),
            ("stream.latency_p50_ms", "ms", median(&s.new_ms), c),
            ("stream.latency_tail_ms", "ms", tail_ms, c),
            ("stream.hit_latency_p50_ms", "ms", median(&s.hit_ms), 1.0),
        ];
        print_line(
            "unnormalized",
            Value::Object(
                raw.iter()
                    .map(|&(name, unit, value, _)| metric(name, unit, value))
                    .collect(),
            ),
        );
        metrics = raw
            .iter()
            .map(|&(name, unit, value, correction)| {
                let normalized = if unit == "1/s" {
                    value * correction
                } else {
                    value / correction
                };
                metric(name, unit, normalized)
            })
            .collect();
        metrics.extend([
            metric("direct.peak_rss_mb", "MiB", median(&s.direct_rss_mb)),
            metric("fleet.peak_rss_mb", "MiB", median(&s.fleet_rss_mb)),
            metric(
                "journal.bytes_per_trial",
                "B",
                s.journal_bytes as f64 / s.journal_trials as f64,
            ),
            metric(
                "fleet.wire_bytes_per_trial",
                "B",
                s.wire_bytes as f64 / s.fleet_trials as f64,
            ),
            metric("ok_share", "share", ok_share),
        ]);
    }

    // A metric without a finite value (no successful sample) fails the run.
    let mut finite = true;
    for (name, m) in &metrics {
        if !m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite)
        {
            eprintln!("perfbench: FAILED metric {name} has no finite value");
            finite = false;
        }
    }
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(s.failed == 0 && finite)),
        ("attempted".into(), Value::UInt(s.attempted.max(1))),
        ("failed".into(), Value::UInt(s.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}
