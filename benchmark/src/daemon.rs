//! The daemons under test, as child processes.
//!
//! The end-to-end path knows a daemon only by its flags (`--listen`,
//! `--platforms`, `--seed`, `--queue-capacity`, `--shards`), the address it
//! prints on its first stdout line, and its `/v1` JSON.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt as _;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use confbench_httpd::{Client, Method, Request};

extern "C" {
    /// `prctl(2)` from the C library `std` already links.
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// Kills and reaps the child when dropped, so a panic anywhere in the
/// benchmark leaves no daemon behind; and asks the kernel to kill the child
/// should the benchmark itself be killed, when no destructor runs.
pub struct ChildGuard(Child);

impl ChildGuard {
    pub fn spawn(command: &mut Command) -> std::io::Result<ChildGuard> {
        // SAFETY: the closure runs in the forked child before `exec` and
        // calls only `prctl`, a plain system call that takes no lock and
        // allocates nothing, which is what `pre_exec` requires; the
        // arguments are integer constants valid for PR_SET_PDEATHSIG.
        unsafe {
            command.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        command.spawn().map(ChildGuard)
    }

    pub fn id(&self) -> u32 {
        self.0.id()
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Paths of the release-built daemons.
#[derive(Debug, Clone)]
pub struct Binaries {
    pub gateway: PathBuf,
    pub fleetd: PathBuf,
}

/// Builds `confbench-gateway` and `confbench-fleetd` from the checkout in
/// the current directory (a no-op when they are fresh) and returns their
/// paths. Build time is not part of any metric.
pub fn build_daemons() -> Result<Binaries, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates").is_dir() {
        return Err("run from the repository root (Cargo.toml and crates/ expected here)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--bin", "confbench-gateway", "--bin", "confbench-fleetd"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the daemons failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    let bin = |name: &str| {
        let path = target.join("release").join(name);
        path.is_file().then_some(path.clone()).ok_or(format!("{} was not built", path.display()))
    };
    Ok(Binaries { gateway: bin("confbench-gateway")?, fleetd: bin("confbench-fleetd")? })
}

/// Extracts the bound address from a daemon's first stdout line, e.g.
/// `confbench gateway listening on http://127.0.0.1:34151`.
pub fn parse_listen_line(line: &str) -> Option<SocketAddr> {
    line.trim().rsplit_once("http://")?.1.parse().ok()
}

/// A running daemon. Dropping it stops the process.
pub struct Daemon {
    child: ChildGuard,
    addr: SocketAddr,
    // Held open: the daemons keep printing their route table after the
    // first line and would die on a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Starts `binary` on an ephemeral loopback port and waits until
    /// `health_path` answers 200.
    pub fn spawn(binary: &Path, args: &[String], health_path: &str) -> Result<Daemon, String> {
        let started = Instant::now();
        let mut command = Command::new(binary);
        command
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = ChildGuard::spawn(&mut command)
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.0.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line).map_err(|e| format!("daemon stdout: {e}"))?;
        let addr = parse_listen_line(&line)
            .ok_or_else(|| format!("no listen address in daemon's first line: {line:?}"))?;
        let client = Client::new(addr).timeout(Duration::from_secs(5));
        let health = Request::new(Method::Get, health_path);
        let give_up = started + Duration::from_secs(30);
        loop {
            if client.send(&health).is_ok_and(|r| r.status == 200) {
                break;
            }
            if Instant::now() > give_up {
                return Err(format!("daemon at {addr} never answered {health_path}"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(Daemon { child, addr, _stdout: stdout })
    }

    /// One keep-alive connection to the daemon per returned client.
    pub fn client(&self) -> Client {
        Client::new(self.addr).timeout(Duration::from_secs(60))
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map_or(0.0, |kb| kb / 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_line_parses_both_daemons_and_rejects_noise() {
        let gw = "confbench gateway listening on http://127.0.0.1:34151\n";
        assert_eq!(parse_listen_line(gw), Some("127.0.0.1:34151".parse().unwrap()));
        let fleet = "confbench fleet listening on http://127.0.0.1:7710";
        assert_eq!(parse_listen_line(fleet), Some("127.0.0.1:7710".parse().unwrap()));
        assert_eq!(parse_listen_line("booting local host for tdx"), None);
        assert_eq!(parse_listen_line("listening on http://nowhere"), None);
        assert_eq!(parse_listen_line(""), None);
    }

    #[test]
    fn a_panic_while_a_child_runs_leaves_no_orphan() {
        let (tx, rx) = std::sync::mpsc::channel();
        let result = std::thread::spawn(move || {
            let guard = ChildGuard::spawn(Command::new("sleep").arg("600")).expect("spawn sleep");
            tx.send(guard.id()).expect("report pid");
            panic!("benchmark died mid-run");
        })
        .join();
        assert!(result.is_err(), "the thread panicked");
        let pid = rx.recv().expect("pid was reported");
        // Reaped by the guard during unwinding: the pid is gone (or, if
        // the kernel recycled it at once, no longer our `sleep`).
        let comm = std::fs::read_to_string(format!("/proc/{pid}/comm")).unwrap_or_default();
        assert_ne!(comm.trim(), "sleep", "child {pid} survived the panic");
    }
}
