//! Runs the built `monomapd` for the `daemon-mix` workload: binds port
//! 0, scrapes the readiness line, and keeps draining stdout for the
//! daemon's whole life. `monomapd` prints more lines right after the
//! readiness line and panics (`failed printing to stdout: Broken
//! pipe`) if nobody reads them — a known defect of the daemon, worked
//! around here rather than fixed.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// Pool sizes the daemon runs with (recorded in the summary row).
pub struct Pools {
    pub workers: usize,
    pub cheap_workers: usize,
    pub queue_bound: usize,
    pub batch_parallelism: usize,
}

impl Pools {
    pub fn describe(&self) -> String {
        format!(
            "workers={} cheap={} queue={} batch={}",
            self.workers, self.cheap_workers, self.queue_bound, self.batch_parallelism
        )
    }
}

pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    drain: Option<JoinHandle<Vec<String>>>,
}

const READY: &str = "monomapd listening on http://";

/// The last CPU this process may use, when `Cpus_allowed_list` is a
/// single CPU or one range.
pub fn last_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
        .trim();
    let last = list.rsplit_once('-').map_or(list, |(_, hi)| hi);
    last.parse::<usize>().ok().map(|cpu| cpu.to_string())
}

/// Pins every thread of this process, and the threads it creates
/// later, to `cpus` (with `taskset`). Returns whether it worked.
pub fn pin_self(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

impl Daemon {
    /// Starts `bin`, on `cpus` when given (through `taskset`, which
    /// execs the daemon in place, so the child is the daemon).
    pub fn spawn(
        bin: &str,
        cache_dir: &Path,
        pools: &Pools,
        cpus: Option<&str>,
    ) -> io::Result<Daemon> {
        let mut command = match cpus {
            Some(cpus) => {
                let mut c = Command::new("taskset");
                c.args(["-c", cpus, bin]);
                c
            }
            None => Command::new(bin),
        };
        let mut child = command
            .args(["--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .args(["--workers", &pools.workers.to_string()])
            .args(["--cheap-workers", &pools.cheap_workers.to_string()])
            .args(["--queue-bound", &pools.queue_bound.to_string()])
            .args(["--batch-parallelism", &pools.batch_parallelism.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut lines = BufReader::new(child.stdout.take().expect("stdout is piped")).lines();
        let addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.strip_prefix(READY) {
                        break rest.trim().parse::<SocketAddr>().map_err(|e| {
                            io::Error::new(io::ErrorKind::InvalidData, format!("{line}: {e}"))
                        });
                    }
                }
                Some(Err(e)) => break Err(e),
                None => {
                    break Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "monomapd exited before its readiness line",
                    ))
                }
            }
        };
        let addr = match addr {
            Ok(a) => a,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };
        let drain = std::thread::spawn(move || lines.map_while(Result::ok).collect());
        Ok(Daemon {
            child,
            addr,
            drain: Some(drain),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Terminates the daemon (SIGTERM, then SIGKILL if that cannot be
    /// sent), waits for it, and returns the stdout lines it printed
    /// after the readiness line.
    pub fn stop(mut self) -> Vec<String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Vec<String> {
        let termed = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if !termed {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        self.drain
            .take()
            .map(|h| h.join().unwrap_or_default())
            .unwrap_or_default()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.drain.is_some() {
            self.shutdown();
        }
    }
}
