//! Hermetic process handling: daemons on OS-assigned loopback ports that
//! die with the benchmark, one-shot commands reaped with their resource
//! usage, and a scratch directory removed on exit.

use std::io::{BufRead, BufReader, Read};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use nvpim::service::client::{request, Client};
use serde::Value;

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then fourteen longs of
/// which only `ru_maxrss` (kibibytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Every spawned program runs with one compute thread.
fn command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    cmd.env("RAYON_NUM_THREADS", "1");
    // SAFETY: `prctl` is async-signal-safe and touches no Rust state; it
    // asks the kernel to SIGKILL the child if the benchmark dies first,
    // so no stray process survives a crash to skew the next run.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
    cmd
}

/// What a reaped one-shot command left behind.
#[derive(Debug)]
pub struct Finished {
    /// Whether it exited with status 0.
    pub success: bool,
    /// Everything it printed on stdout.
    pub stdout: String,
    /// Everything it printed on stderr.
    pub stderr: String,
    /// Wall time from spawn to reap.
    pub wall_s: f64,
    /// User plus system CPU time.
    pub cpu_s: f64,
    /// Peak resident set size, MiB.
    pub peak_rss_mb: f64,
}

/// Flag that runs this program as [`reap`].
pub const REAP_FLAG: &str = "--reap";
/// Prefix of the usage line [`reap`] prints last on stderr.
const USAGE_MARK: &str = "perfbench-usage";

/// Runs `bin args` to completion and returns its output and usage.
///
/// A forked child's `ru_maxrss` starts from the resident set of the
/// process that forked it, which here would be the benchmark's own,
/// growing with every report it keeps. So the command is started by a
/// fresh copy of this program in [`reap`] mode, whose resident set is
/// small and the same in every run.
pub fn run_to_end(bin: &Path, args: &[&str]) -> std::io::Result<Finished> {
    let mut child = command(&std::env::current_exe()?)
        .arg(REAP_FLAG)
        .arg(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    // Drain stderr on a thread so neither pipe can fill and stall the child.
    let mut stderr_pipe = child.stderr.take().expect("stderr is piped");
    let stderr = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr_pipe.read_to_string(&mut text);
        text
    });
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let status = child.wait();
    let mut stderr = stderr.join().unwrap_or_default();
    let status = status?;
    read?;
    let bad = |why: &str| std::io::Error::other(format!("{why}: {stderr:?}"));
    let start = stderr
        .rfind(USAGE_MARK)
        .ok_or_else(|| bad("no usage line from the reaper"))?;
    let usage: Vec<f64> = stderr[start + USAGE_MARK.len()..]
        .split_whitespace()
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|_| bad("malformed usage line"))?;
    let [wall_s, cpu_s, peak_rss_mb] = usage[..] else {
        return Err(bad("malformed usage line"));
    };
    stderr.truncate(start);
    Ok(Finished {
        success: status.success(),
        stdout,
        stderr,
        wall_s,
        cpu_s,
        peak_rss_mb,
    })
}

/// `nvpim-perfbench --reap BIN ARGS…`: runs `BIN ARGS…` with this
/// process's standard streams, reaps it with `wait4` so its CPU time and
/// peak RSS are its own, prints `perfbench-usage <wall s> <cpu s> <peak
/// MiB>` last on stderr and exits with the command's status.
pub fn reap(args: &[String]) -> ! {
    let Some((bin, rest)) = args.split_first() else {
        eprintln!("perfbench: {REAP_FLAG} needs a program");
        std::process::exit(2);
    };
    let started = Instant::now();
    let child = match command(Path::new(bin)).args(rest).spawn() {
        Ok(child) => child,
        Err(e) => {
            eprintln!("perfbench: spawning {bin}: {e}");
            std::process::exit(127);
        }
    };
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are valid, exclusively borrowed
        // out-parameters of the layout the kernel writes.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            eprintln!("perfbench: reaping {bin}: {err}");
            std::process::exit(127);
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    let seconds = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 / 1e6;
    let cpu_s = seconds(&usage.ru_utime) + seconds(&usage.ru_stime);
    let peak_rss_mb = usage.ru_maxrss as f64 / 1024.0;
    eprintln!("{USAGE_MARK} {wall_s} {cpu_s} {peak_rss_mb}");
    let signal = status & 0x7f;
    std::process::exit(if signal != 0 {
        128 + signal
    } else {
        (status >> 8) & 0xff
    });
}

/// A running `nvpim-serviced`, killed and reaped when dropped.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The address it listens on, once [`Daemon::ready`] returned.
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon on an OS-assigned loopback port with one worker.
    pub fn spawn(bin: &Path, extra: &[&str]) -> std::io::Result<Self> {
        let mut child = command(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", "1"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Self {
            child,
            stdout,
            addr: String::new(),
        })
    }

    /// Waits for the `listening on` line, then for a `pong`.
    pub fn ready(&mut self) -> Result<(), String> {
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading daemon banner: {e}"))?;
        self.addr = line
            .trim()
            .rsplit(' ')
            .next()
            .filter(|_| line.contains("listening on"))
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        let mut client = self.connect()?;
        let pong = client
            .request(&request("ping", vec![]))
            .map_err(|e| format!("ping {}: {e}", self.addr))?;
        if pong.get("ok").and_then(Value::as_bool) != Some(true) {
            return Err(format!("ping {} answered {pong:?}", self.addr));
        }
        Ok(())
    }

    /// A fresh protocol connection with a generous read timeout, so a
    /// wedged daemon fails the run instead of hanging it.
    pub fn connect(&self) -> Result<Client, String> {
        Client::connect_with_timeouts(
            &self.addr,
            Some(Duration::from_secs(5)),
            Some(Duration::from_secs(150)),
        )
        .map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    /// The daemon's peak resident set size over its lifetime (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib / 1024.0)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A scratch directory under the working directory, removed when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `.bench_tmp/run-<pid>` afresh.
    pub fn create() -> std::io::Result<Self> {
        let path = PathBuf::from(".bench_tmp").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly if another
        // run is using it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}
