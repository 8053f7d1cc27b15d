//! The four user paths, driven one step at a time and checked against the
//! direct report byte for byte.
//!
//! One *step* runs new campaigns with fresh seeds through `direct`
//! (spawned `nvpim-cli run`, the reference), the daemon stream, the
//! journaled daemon (the same submit to a daemon with a journal) and, for
//! every third new campaign, `fleet` (spawned `nvpim-coordinator` with one
//! worker daemon). The stream is one client on one connection in a closed
//! loop: it sends the step's new campaigns to the plain daemon back to
//! back, resubmitting an earlier plan after every third, which must be
//! served from the store with the bytes of its first submission. The
//! other paths run outside that block, so the daemon is never idle inside
//! it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use nvpim::service::client::{request, Client};
use nvpim::sweep::{prepare_campaign, ScheduleCache};
use nvpim::SweepPlan;
use serde::{Serialize, Value};

use crate::calib::Calibration;
use crate::procs::{run_to_end, Daemon, ScratchDir};
use crate::trace::span;

/// Every how many new campaigns one also goes through the fleet, whose
/// campaigns take several times longer than the other paths' on
/// `ecim-200k`.
const FLEET_EVERY: u64 = 3;

/// The program's binaries.
#[derive(Debug)]
pub struct Bins {
    /// `nvpim-cli`.
    pub cli: PathBuf,
    /// `nvpim-serviced`.
    pub serviced: PathBuf,
    /// `nvpim-coordinator`.
    pub coordinator: PathBuf,
}

impl Bins {
    /// The binaries in `dir`.
    pub fn in_dir(dir: &Path) -> Self {
        Self {
            cli: dir.join("nvpim-cli"),
            serviced: dir.join("nvpim-serviced"),
            coordinator: dir.join("nvpim-coordinator"),
        }
    }
}

/// The three daemons a workload runs against.
#[derive(Debug)]
pub struct Fixture {
    /// Plain in-memory daemon.
    pub daemon: Daemon,
    /// Daemon with `--state-dir` and `--journal-fsync-every 0`.
    pub journaled: Daemon,
    /// The fleet's only worker.
    pub worker: Daemon,
    /// The journaled daemon's journal file.
    pub journal: PathBuf,
}

/// Spawns the workload's daemons, waits until all answer `ping`, and
/// prepares `plan` on a cold schedule cache. Returns the fixture and the
/// seconds that took.
pub fn set_up(
    bins: &Bins,
    scratch: &ScratchDir,
    attempt: usize,
    plan: &SweepPlan,
) -> Result<(Fixture, f64), String> {
    let started = Instant::now();
    let state = scratch.join(&format!("state-{attempt}"));
    let state_arg = state.to_string_lossy().into_owned();
    let spawn = |extra: &[&str]| {
        Daemon::spawn(&bins.serviced, extra).map_err(|e| format!("spawning daemon: {e}"))
    };
    let mut daemon = spawn(&[])?;
    let mut journaled = spawn(&["--state-dir", &state_arg, "--journal-fsync-every", "0"])?;
    let mut worker = spawn(&[])?;
    daemon.ready()?;
    journaled.ready()?;
    worker.ready()?;
    prepare_campaign(plan, &mut ScheduleCache::new()).map_err(|e| e.to_string())?;
    let seconds = started.elapsed().as_secs_f64();
    let fixture = Fixture {
        daemon,
        journaled,
        worker,
        journal: state.join("jobs.journal"),
    };
    Ok((fixture, seconds))
}

/// A `submit` with `wait:true`, as the client saw it.
#[derive(Debug)]
pub struct Reply {
    /// Job id.
    pub job: u64,
    /// Whether the store served it.
    pub cached: bool,
    /// Pretty report JSON, as `nvpim-cli run` prints it.
    pub report: String,
    /// Milliseconds from sending the request to the `accepted` line.
    pub accept_ms: f64,
    /// Milliseconds from sending the request to the result line.
    pub wall_ms: f64,
    /// Progress lines streamed before the result.
    pub progress_events: u64,
    /// Bytes sent plus received on the connection for this job.
    pub wire_bytes: u64,
}

fn ok_or_error(line: &Value) -> Result<(), String> {
    if line.get("ok").and_then(Value::as_bool) == Some(true) {
        return Ok(());
    }
    let code = line
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Value::as_str)
        .unwrap_or("unknown");
    Err(format!("ok:false ({code})"))
}

/// Submits `plan` and waits for its report.
pub fn submit(client: &mut Client, plan: &Value) -> Result<Reply, String> {
    let bytes_before = client.bytes_sent() + client.bytes_received();
    let started = Instant::now();
    let submit = request(
        "submit",
        vec![
            ("plan".to_string(), plan.clone()),
            ("wait".to_string(), Value::Bool(true)),
        ],
    );
    let io = |e: std::io::Error| format!("submit: {e}");
    let closed = || "submit: connection closed".to_string();
    client.send(&submit).map_err(io)?;
    let accepted = client.recv().map_err(io)?.ok_or_else(closed)?;
    let accept_ms = started.elapsed().as_secs_f64() * 1e3;
    ok_or_error(&accepted)?;
    let mut progress_events = 0;
    loop {
        let line = client.recv().map_err(io)?.ok_or_else(closed)?;
        ok_or_error(&line)?;
        match line.get("event").and_then(Value::as_str) {
            Some("progress") => progress_events += 1,
            Some("result") => {
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                let report = line.get("report").ok_or("result without report")?;
                return Ok(Reply {
                    job: accepted.get("job").and_then(Value::as_u64).unwrap_or(0),
                    cached: accepted.get("cached").and_then(Value::as_bool) == Some(true),
                    report: serde_json::to_string_pretty(report).map_err(|e| e.to_string())?,
                    accept_ms,
                    wall_ms,
                    progress_events,
                    wire_bytes: client.bytes_sent() + client.bytes_received() - bytes_before,
                });
            }
            other => return Err(format!("unexpected event {other:?}")),
        }
    }
}

/// Checks a path's report against the direct report.
fn matches(reference: Option<&str>, report: &str) -> Result<(), String> {
    match reference {
        Some(expected) if expected == report => Ok(()),
        Some(_) => Err("report differs from the direct report".into()),
        None => Err("no direct report to check against".into()),
    }
}

/// A new campaign of a step.
#[derive(Debug)]
struct Campaign {
    /// Names it in failure messages and spans.
    id: u64,
    /// Its plan file.
    path: PathBuf,
    /// Its plan as a protocol value.
    value: Value,
    trials: f64,
    /// The direct report, if `nvpim-cli run` succeeded.
    reference: Option<String>,
}

/// Everything one run measured on the paths.
#[derive(Debug, Default)]
pub struct Samples {
    pub direct_tps: Vec<f64>,
    pub direct_rss_mb: Vec<f64>,
    pub daemon_tps: Vec<f64>,
    pub journaled_tps: Vec<f64>,
    pub fleet_tps: Vec<f64>,
    pub fleet_rss_mb: Vec<f64>,
    /// Jobs the stream completed, and the seconds its blocks took.
    pub stream_jobs: u64,
    pub stream_s: f64,
    /// Daemon latency of new campaigns, ms.
    pub new_ms: Vec<f64>,
    /// Daemon latency of store hits, ms.
    pub hit_ms: Vec<f64>,
    /// Journaled minus plain daemon latency of the same campaign, ms.
    pub journal_overhead_ms: Vec<f64>,
    pub journal_bytes: u64,
    pub journal_trials: u64,
    pub wire_bytes: u64,
    pub fleet_trials: u64,
    pub coordinator_cpu_s: Vec<f64>,
    pub worker_busy_s: Vec<f64>,
    pub worker_idle_s: Vec<f64>,
    pub reassignments: u64,
    pub heartbeat_misses: u64,
    pub accept_ms: Vec<f64>,
    pub result_ms: Vec<f64>,
    pub job_wire_bytes: Vec<f64>,
    pub progress_events: Vec<f64>,
    /// Step wall times with the span recorder on and off.
    pub traced_step_s: Vec<f64>,
    pub untraced_step_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub steps: u64,
}

/// Drives steps against a fixture, accumulating [`Samples`].
#[derive(Debug)]
pub struct Runner<'a> {
    bins: &'a Bins,
    scratch: &'a ScratchDir,
    fixture: &'a Fixture,
    daemon: Client,
    journaled: Client,
    /// Every new campaign's plan so far, with the bytes the plain daemon
    /// first returned for it (`None` if that submission failed).
    history: Vec<(Value, Option<String>)>,
    /// Campaigns started so far (names each in failure messages).
    campaigns: u64,
    rng: u64,
    /// Also time bare `result` round trips (traced runs only).
    probe_results: bool,
    pub samples: Samples,
    /// Host-speed samples, one before each path call.
    pub calibration: Calibration,
}

impl<'a> Runner<'a> {
    /// Connects one client to each daemon; `rng_seed` picks the repeats.
    pub fn new(
        bins: &'a Bins,
        scratch: &'a ScratchDir,
        fixture: &'a Fixture,
        rng_seed: u64,
        probe_results: bool,
    ) -> Result<Self, String> {
        Ok(Self {
            bins,
            scratch,
            fixture,
            daemon: fixture.daemon.connect()?,
            journaled: fixture.journaled.connect()?,
            history: Vec::new(),
            campaigns: 0,
            rng: rng_seed,
            probe_results,
            samples: Samples::default(),
            calibration: Calibration::default(),
        })
    }

    /// Counts one operation; a failure is printed by name.
    fn record(&mut self, what: &str, id: u64, outcome: Result<(), String>) {
        self.samples.attempted += 1;
        if let Err(why) = outcome {
            self.samples.failed += 1;
            eprintln!("perfbench: FAILED {what} campaign {id}: {why}");
        }
    }

    /// Submits `plan` to the plain and journaled daemons and to the fleet
    /// without recording anything, to warm their caches and code.
    pub fn warm_up(&mut self, plan: &SweepPlan) -> Result<(), String> {
        let value = plan.to_json();
        submit(&mut self.daemon, &value)?;
        submit(&mut self.journaled, &value)?;
        let path = self.scratch.join("plan-warm.json");
        std::fs::write(
            &path,
            serde_json::to_string(plan).map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
        self.fleet(&path)?;
        Ok(())
    }

    fn fleet(&self, plan_path: &Path) -> Result<(crate::procs::Finished, Value), String> {
        let stats_path = self.scratch.join("fleet-stats.json");
        let plan_arg = format!("@{}", plan_path.to_string_lossy());
        let stats_arg = stats_path.to_string_lossy().into_owned();
        let args = [
            "--fleet",
            &self.fixture.worker.addr,
            "--plan",
            &plan_arg,
            "--stats-out",
            &stats_arg,
        ];
        let finished =
            run_to_end(&self.bins.coordinator, &args).map_err(|e| format!("spawn: {e}"))?;
        if !finished.success {
            return Err(format!(
                "nvpim-coordinator exited nonzero: {}",
                finished.stderr.trim()
            ));
        }
        let stats = std::fs::read_to_string(&stats_path).map_err(|e| e.to_string())?;
        let stats = serde_json::from_str(&stats).map_err(|e| e.to_string())?;
        Ok((finished, stats))
    }

    /// Runs one step: every plan through `direct`, then the stream block
    /// on the plain daemon, then every plan through the journaled daemon
    /// and every third new campaign through the fleet.
    pub fn step(&mut self, plans: &[SweepPlan], traced: bool) -> Result<(), String> {
        crate::trace::set_enabled(traced);
        let started = Instant::now();
        let mut campaigns = Vec::new();
        for plan in plans {
            let id = self.campaigns;
            self.campaigns += 1;
            let path = self.scratch.join(&format!("plan-{id}.json"));
            std::fs::write(
                &path,
                serde_json::to_string(plan).map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?;
            let trials = plan.trial_count() as f64;
            let reference = self.direct(id, &path, trials);
            campaigns.push(Campaign {
                id,
                path,
                value: plan.to_json(),
                trials,
                reference,
            });
        }
        let daemon_ms = self.stream(&campaigns)?;
        for (campaign, ms) in campaigns.iter().zip(daemon_ms) {
            self.journaled(campaign, ms);
        }
        for campaign in campaigns.iter().filter(|c| c.id % FLEET_EVERY == 0) {
            self.fleet_step(campaign);
        }
        let wall = started.elapsed().as_secs_f64();
        if traced {
            self.samples.traced_step_s.push(wall);
        } else {
            self.samples.untraced_step_s.push(wall);
        }
        self.samples.steps += 1;
        crate::trace::set_enabled(false);
        Ok(())
    }

    /// `nvpim-cli run`: returns the reference report.
    fn direct(&mut self, id: u64, path: &Path, trials: f64) -> Option<String> {
        let path_arg = path.to_string_lossy().into_owned();
        self.calibration.sample();
        let run = span("direct.run", id, || {
            run_to_end(&self.bins.cli, &["run", "--plan", &path_arg])
        });
        let outcome = run.map_err(|e| e.to_string()).and_then(|run| {
            if !run.success {
                return Err(format!("nvpim-cli exited nonzero: {}", run.stderr.trim()));
            }
            self.samples.direct_tps.push(trials / run.wall_s);
            self.samples.direct_rss_mb.push(run.peak_rss_mb);
            Ok(run.stdout.trim_end_matches('\n').to_string())
        });
        match outcome {
            Ok(report) => {
                self.record("direct", id, Ok(()));
                Some(report)
            }
            Err(why) => {
                self.record("direct", id, Err(why));
                None
            }
        }
    }

    /// The stream block: the new campaigns on the plain daemon back to
    /// back, each third followed by a repeat. Returns each new campaign's
    /// latency in ms.
    fn stream(&mut self, campaigns: &[Campaign]) -> Result<Vec<Option<f64>>, String> {
        self.calibration.sample();
        let started = Instant::now();
        let mut jobs = 0;
        let mut latencies = Vec::new();
        for campaign in campaigns {
            let ms = self.daemon(campaign)?;
            jobs += u64::from(ms.is_some());
            latencies.push(ms);
            if self.history.len().is_multiple_of(3) {
                jobs += u64::from(self.repeat(campaign.id));
            }
        }
        self.samples.stream_s += started.elapsed().as_secs_f64();
        self.samples.stream_jobs += jobs;
        Ok(latencies)
    }

    /// A new campaign on the plain daemon: returns its latency in ms.
    fn daemon(&mut self, campaign: &Campaign) -> Result<Option<f64>, String> {
        let id = campaign.id;
        let reply = span("daemon.submit", id, || {
            submit(&mut self.daemon, &campaign.value)
        });
        let outcome = reply.and_then(|reply| {
            matches(campaign.reference.as_deref(), &reply.report)?;
            if reply.cached {
                return Err("a new campaign was served from the store".into());
            }
            Ok(reply)
        });
        let reply = match outcome {
            Ok(reply) => reply,
            Err(why) => {
                self.record("daemon", id, Err(why));
                self.history.push((campaign.value.clone(), None));
                return Ok(None);
            }
        };
        self.record("daemon", id, Ok(()));
        let s = &mut self.samples;
        s.daemon_tps.push(campaign.trials / (reply.wall_ms / 1e3));
        s.new_ms.push(reply.wall_ms);
        s.accept_ms.push(reply.accept_ms);
        s.job_wire_bytes.push(reply.wire_bytes as f64);
        s.progress_events.push(reply.progress_events as f64);
        if self.probe_results {
            self.probe_result(reply.job, id)?;
        }
        self.history
            .push((campaign.value.clone(), Some(reply.report)));
        Ok(Some(reply.wall_ms))
    }

    /// The same campaign on the journaled daemon.
    fn journaled(&mut self, campaign: &Campaign, daemon_ms: Option<f64>) {
        let id = campaign.id;
        let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        let before = size(&self.fixture.journal);
        self.calibration.sample();
        let reply = span("journaled.submit", id, || {
            submit(&mut self.journaled, &campaign.value)
        });
        let grown = size(&self.fixture.journal).saturating_sub(before);
        let reference = campaign.reference.as_deref();
        match reply.and_then(|reply| matches(reference, &reply.report).map(|()| reply)) {
            Ok(reply) => {
                self.record("journaled", id, Ok(()));
                let s = &mut self.samples;
                s.journaled_tps
                    .push(campaign.trials / (reply.wall_ms / 1e3));
                s.journal_bytes += grown;
                s.journal_trials += campaign.trials as u64;
                if let Some(ms) = daemon_ms {
                    s.journal_overhead_ms.push(reply.wall_ms - ms);
                }
            }
            Err(why) => {
                self.record("journaled", id, Err(why));
            }
        }
    }

    /// The same campaign through `nvpim-coordinator` and its one worker.
    fn fleet_step(&mut self, campaign: &Campaign) {
        let (id, trials) = (campaign.id, campaign.trials);
        self.calibration.sample();
        let run = span("fleet.run", id, || self.fleet(&campaign.path));
        let outcome = run.and_then(|(run, stats)| {
            matches(
                campaign.reference.as_deref(),
                run.stdout.trim_end_matches('\n'),
            )?;
            let count = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
            let (reassigned, misses) = (count("shards_reassigned"), count("heartbeat_misses"));
            self.samples.reassignments += reassigned;
            self.samples.heartbeat_misses += misses;
            if reassigned > 0 {
                return Err(format!("{reassigned} shard(s) reassigned"));
            }
            Ok((run, stats))
        });
        let (run, stats) = match outcome {
            Ok(ok) => ok,
            Err(why) => {
                self.record("fleet", id, Err(why));
                return;
            }
        };
        self.record("fleet", id, Ok(()));
        let workers = match stats.get("workers") {
            Some(Value::Array(workers)) => workers.clone(),
            _ => Vec::new(),
        };
        let field = |w: &Value, key: &str| w.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let busy: f64 = workers.iter().map(|w| field(w, "busy_seconds")).sum();
        let bytes: f64 = workers
            .iter()
            .map(|w| field(w, "bytes_sent") + field(w, "bytes_received"))
            .sum();
        let s = &mut self.samples;
        s.fleet_tps.push(trials / run.wall_s);
        s.fleet_rss_mb.push(run.peak_rss_mb);
        s.coordinator_cpu_s.push(run.cpu_s);
        s.worker_busy_s.push(busy);
        s.worker_idle_s.push(run.wall_s - busy);
        s.wire_bytes += bytes as u64;
        s.fleet_trials += trials as u64;
    }

    /// Resubmits a uniformly chosen earlier plan to the plain daemon;
    /// returns whether it was served correctly.
    fn repeat(&mut self, id: u64) -> bool {
        self.rng = crate::mix(self.rng);
        let pick = (self.rng % self.history.len() as u64) as usize;
        let (value, first) = self.history[pick].clone();
        let reply = span("daemon.repeat", id, || submit(&mut self.daemon, &value));
        let outcome = reply.and_then(|reply| {
            match &first {
                Some(bytes) if *bytes == reply.report => {}
                Some(_) => return Err("store hit differs from its first submission".into()),
                None => return Err("its first submission failed".into()),
            }
            if !reply.cached {
                return Err("the repeat missed the store".into());
            }
            Ok(reply)
        });
        if let Ok(reply) = &outcome {
            self.samples.hit_ms.push(reply.wall_ms);
        }
        let served = outcome.is_ok();
        self.record("daemon repeat", id, outcome.map(|_| ()));
        served
    }

    /// Times a bare `result` request for a finished job.
    fn probe_result(&mut self, job: u64, id: u64) -> Result<(), String> {
        let started = Instant::now();
        let response = span("daemon.result", id, || {
            self.daemon
                .request(&request("result", vec![("job".into(), Value::UInt(job))]))
        })
        .map_err(|e| format!("result: {e}"))?;
        ok_or_error(&response)?;
        self.samples
            .result_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    /// The plain daemon's `stats` object.
    pub fn daemon_stats(&mut self) -> Result<Value, String> {
        let response = self
            .daemon
            .request(&request("stats", vec![]))
            .map_err(|e| format!("stats: {e}"))?;
        ok_or_error(&response)?;
        response
            .get("stats")
            .cloned()
            .ok_or("stats without payload".into())
    }
}
