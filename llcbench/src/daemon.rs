//! The `nvm-llcd` child process: start on a free loopback port, wait
//! until it answers, stop with SIGTERM, and never leave it running.

use std::net::{SocketAddr, TcpListener};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::SyncClient;

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
}

const SIGTERM: i32 = 15;
const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;

/// A running daemon. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` on a free port, with `--store-dir` when given, its
    /// log going to `log`. Returns once `/healthz` answers 200.
    pub fn start(bin: &Path, store_dir: Option<&Path>, log: &Path) -> Result<Daemon, String> {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?;
        let log = std::fs::File::create(log).map_err(|e| format!("daemon log: {e}"))?;
        let mut cmd = Command::new(bin);
        // SAFETY: runs in the forked child before exec and only makes
        // the prctl(2) system call, which is async-signal-safe. It asks
        // the kernel to kill the daemon if this process dies first, so
        // not even a killed benchmark leaves a daemon behind.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64);
                Ok(())
            });
        }
        cmd.arg("--addr").arg(addr.to_string());
        if let Some(dir) = store_dir {
            cmd.arg("--store-dir").arg(dir);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon { child, addr };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited at start-up: {status}"));
            }
            if SyncClient::new(addr)
                .get("/healthz")
                .is_ok_and(|r| r.status == 200)
            {
                return Ok(daemon);
            }
            if Instant::now() > deadline {
                return Err("daemon did not answer /healthz within 20 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's process id, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGTERM, then wait for the graceful drain (SIGKILL after 20 s).
    pub fn stop(mut self) -> Result<(), String> {
        let pid = i32::try_from(self.child.id()).map_err(|_| "pid out of range")?;
        // SAFETY: kill(2) takes plain integers; `pid` is our own child,
        // not yet reaped, so it cannot name another process.
        unsafe {
            kill(pid, SIGTERM);
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => return Err("daemon did not drain within 20 s of SIGTERM".to_owned()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
