//! The release `qdelay serve` binary as a child process: spawn, find its
//! ephemeral ports in the stderr banner, read its `/proc` counters, and
//! never leave it running.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a child may take from spawn to its "serving on" banner.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// One `qdelay serve` child. Dropping it kills and reaps the process, so a
/// panic anywhere in the generator leaves no orphan behind.
pub struct Server {
    child: Child,
    pub json_addr: SocketAddr,
    pub bin_addr: SocketAddr,
    pub repl_addr: Option<SocketAddr>,
    /// The flags the child was started with (recorded in the result file).
    pub flags: Vec<String>,
    /// Spawn to banner.
    pub boot: Duration,
}

impl Server {
    /// Starts `qdelay serve` with two shards on ephemeral ports plus
    /// `extra` flags, and waits for its banner. stderr goes to `log` so the
    /// child can never block on a full pipe.
    pub fn spawn(bin: &Path, extra: &[String], log: &Path) -> io::Result<Server> {
        let mut flags: Vec<String> = [
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--listen-binary",
            "127.0.0.1:0",
            "--shards",
            "2",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        flags.extend_from_slice(extra);
        let stderr = fs::File::create(log)?;
        let started = Instant::now();
        let child = Command::new(bin)
            .args(&flags)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()?;
        // From here on the guard owns the child: an early return reaps it.
        let mut server = Server {
            child,
            json_addr: ([127, 0, 0, 1], 0).into(),
            bin_addr: ([127, 0, 0, 1], 0).into(),
            repl_addr: None,
            flags,
            boot: Duration::ZERO,
        };
        loop {
            let text = fs::read_to_string(log)?;
            // Only whole lines: the child may be halfway through the banner.
            let whole = text.split_inclusive('\n').filter(|l| l.ends_with('\n'));
            if let Some(line) = whole.map(str::trim_end).find(|l| l.contains("serving on ")) {
                server.boot = started.elapsed();
                server.json_addr = addr_after(line, "serving on ")?;
                server.bin_addr = addr_after(line, "(binary on ")?;
                server.repl_addr = addr_after(line, "(replication on ").ok();
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "qdelay serve exited before serving ({status}): {}",
                    text.trim()
                )));
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "no banner from qdelay serve",
                ));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// CPU seconds the child's live threads have run, from the scheduler's
    /// own nanosecond accounting (`schedstat`). The `utime`/`stime` ticks of
    /// `/proc/<pid>/stat` are sampled 100 times a second, which for threads
    /// that run in microsecond bursts is a coin toss per tick: it put ±5 %
    /// of noise on CPU per operation all by itself.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let mut ns = 0u64;
        for task in fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            // A thread may exit between the listing and the read.
            if let Ok(stat) = fs::read_to_string(task?.path().join("schedstat")) {
                ns += stat
                    .split_whitespace()
                    .next()
                    .and_then(|n| n.parse().ok())
                    .unwrap_or(0);
            }
        }
        if ns > 0 {
            Ok(ns as f64 / 1e9)
        } else {
            // No schedstat on this kernel: fall back to the tick counters.
            cpu_seconds_of(&format!("/proc/{}/stat", self.pid()))
        }
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        peak_rss_mib_of(&format!("/proc/{}/status", self.pid()))
    }

    /// Voluntary context switches summed over every thread of the child.
    pub fn voluntary_switches(&self) -> io::Result<u64> {
        let mut total = 0;
        for task in fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            // A thread may exit between the listing and the read.
            if let Ok(status) = fs::read_to_string(task?.path().join("status")) {
                total += status_field(&status, "voluntary_ctxt_switches:").unwrap_or(0);
            }
        }
        Ok(total)
    }

    /// `SIGKILL`, then reap: the crash the durability check is about.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

fn addr_after(line: &str, marker: &str) -> io::Result<SocketAddr> {
    let rest = line
        .split_once(marker)
        .ok_or_else(|| io::Error::other(format!("banner lacks '{marker}': {line}")))?
        .1;
    let end = rest.find([' ', ')']).unwrap_or(rest.len());
    rest[..end]
        .parse()
        .map_err(|e| io::Error::other(format!("bad address in banner '{line}': {e}")))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

fn cpu_seconds_of(stat_path: &str) -> io::Result<f64> {
    let stat = fs::read_to_string(stat_path)?;
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis, where field 3 (state) follows.
    let after = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or(&stat);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok());
    match (ticks(11), ticks(12)) {
        // USER_HZ is 100 on every Linux ABI this runs on.
        (Some(utime), Some(stime)) => Ok((utime + stime) as f64 / 100.0),
        _ => Err(io::Error::other("unreadable /proc stat")),
    }
}

/// CPU seconds of the generator itself (the `replay-catalog` workload runs
/// in-process, so its server is this process).
pub fn own_cpu_seconds() -> io::Result<f64> {
    cpu_seconds_of("/proc/self/stat")
}

pub fn own_peak_rss_mib() -> io::Result<f64> {
    peak_rss_mib_of("/proc/self/status")
}

fn peak_rss_mib_of(status_path: &str) -> io::Result<f64> {
    let status = fs::read_to_string(status_path)?;
    status_field(&status, "VmHWM:")
        .map(|kib| kib as f64 / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// A scratch directory under `benchmark/out/`, emptied on creation.
pub fn fresh_dir(path: &Path) -> io::Result<PathBuf> {
    if path.exists() {
        fs::remove_dir_all(path)?;
    }
    fs::create_dir_all(path)?;
    Ok(path.to_path_buf())
}
