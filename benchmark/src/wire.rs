//! Driving a `sciborq-served` process over its stdio pipes.
//!
//! The driver's main thread writes request lines; one reader thread stamps
//! each reply line the moment it is read and hands it over a channel, so
//! every wait for a reply has a timeout and a dead server is a counted
//! failure, never a hang.

use std::io::{BufRead, BufReader, Write};
use std::ops::Range;
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the driver waits for any single reply (the slowest designed
/// request takes ~10 ms; start-up takes < 1 s).
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);
/// How long a server gets to exit after its stdin closes.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// Resident (now and at its peak) and virtual size of a process, from
/// `/proc/<pid>/status`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSize {
    pub rss_kib: f64,
    pub peak_rss_kib: f64,
    pub vm_kib: f64,
}

pub fn proc_size(pid: u32) -> Option<ProcSize> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let field = |name: &str| -> Option<f64> {
        status
            .lines()
            .find_map(|line| line.strip_prefix(name))?
            .split_whitespace()
            .next()?
            .parse()
            .ok()
    };
    Some(ProcSize {
        rss_kib: field("VmRSS:")?,
        peak_rss_kib: field("VmHWM:")?,
        vm_kib: field("VmSize:")?,
    })
}

/// A running `sciborq-served` child.
pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    replies: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
    pub spawned: Instant,
}

impl Server {
    pub fn spawn(binary: &Path, flags: &[String]) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(binary)
            .args(flags)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Server {
            child,
            stdin,
            replies,
            reader: Some(reader),
            spawned,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn size(&self) -> Option<ProcSize> {
        proc_size(self.pid())
    }

    /// Write one request line. An error means the server is gone.
    pub fn send(&mut self, line: &str) -> std::io::Result<()> {
        let stdin = self.stdin.as_mut().expect("stdin open until shutdown");
        stdin.write_all(line.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()
    }

    /// The next reply line and when it was read; `None` on timeout or when
    /// the server closed its stdout.
    pub fn recv(&self) -> Option<(Instant, String)> {
        self.replies.recv_timeout(REPLY_TIMEOUT).ok()
    }

    /// One request, one reply (gate traffic and start-up probes).
    pub fn ask(&mut self, line: &str) -> Result<String, String> {
        self.send(line)
            .map_err(|e| format!("server pipe closed: {e}"))?;
        self.recv()
            .map(|(_, reply)| reply)
            .ok_or_else(|| "no reply from server".to_owned())
    }

    /// Close stdin, wait for the process to end (kill it if it does not) and
    /// join the reader. Returns whether the server exited cleanly by itself.
    pub fn shutdown(mut self) -> bool {
        self.stop()
    }

    fn stop(&mut self) -> bool {
        drop(self.stdin.take());
        let deadline = Instant::now() + EXIT_TIMEOUT;
        let clean = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status.success(),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    break false;
                }
            }
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        clean
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.reader.is_some() {
            self.stop();
        }
    }
}

/// One request of a closed-loop run.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub sent: Instant,
    pub received: Option<Instant>,
    pub reply: Option<String>,
}

/// What a closed-loop run over some lines of the request file produced.
#[derive(Debug)]
pub struct Window {
    /// Id of the first exchange; exchange `i` is request id `first_id + i`.
    pub first_id: usize,
    pub exchanges: Vec<Exchange>,
    /// Replies whose id was not an outstanding request's (duplicates, junk).
    pub strays: usize,
    /// Process size when `mark` replies had arrived (or at the end, when
    /// fewer did).
    pub size_at_mark: Option<ProcSize>,
}

/// The id a reply line echoes: every reply starts `{"id":<n>,`.
pub fn reply_id(reply: &str) -> Option<usize> {
    let digits = reply.strip_prefix("{\"id\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// Send lines `ids` of the request file (`line(id)` renders one) keeping
/// `in_flight` outstanding, each next request only after a reply arrives.
/// Stops issuing at `deadline` (when given) or at the end of `ids`, then
/// drains what is outstanding. A dead or silent server ends the run early;
/// the unanswered exchanges stay `reply: None`.
pub fn closed_loop(
    server: &mut Server,
    line: impl Fn(usize) -> String,
    ids: Range<usize>,
    in_flight: usize,
    deadline: Option<Instant>,
    mark: usize,
) -> Window {
    let first_id = ids.start;
    let mut exchanges: Vec<Exchange> = Vec::new();
    let mut outstanding = 0usize;
    let mut answered = 0usize;
    let mut strays = 0usize;
    let mut size_at_mark = None;
    let mut alive = true;

    let open = |exchanges: &Vec<Exchange>| {
        first_id + exchanges.len() < ids.end && deadline.is_none_or(|d| Instant::now() < d)
    };
    loop {
        while alive && outstanding < in_flight && open(&exchanges) {
            let text = line(first_id + exchanges.len());
            let sent = Instant::now();
            if server.send(&text).is_err() {
                alive = false;
                break;
            }
            exchanges.push(Exchange {
                sent,
                received: None,
                reply: None,
            });
            outstanding += 1;
        }
        if outstanding == 0 {
            break;
        }
        let Some((received, reply)) = server.recv() else {
            break;
        };
        let slot = reply_id(&reply)
            .and_then(|id| id.checked_sub(first_id))
            .and_then(|i| exchanges.get_mut(i))
            .filter(|exchange| exchange.reply.is_none());
        match slot {
            Some(exchange) => {
                exchange.received = Some(received);
                exchange.reply = Some(reply);
                outstanding -= 1;
                answered += 1;
                if answered == mark {
                    size_at_mark = server.size();
                }
            }
            None => strays += 1,
        }
    }
    if size_at_mark.is_none() {
        size_at_mark = server.size();
    }
    Window {
        first_id,
        exchanges,
        strays,
        size_at_mark,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_ids_parse_from_the_line_prefix() {
        assert_eq!(reply_id(r#"{"id":17,"status":"ok"}"#), Some(17));
        assert_eq!(reply_id(r#"{"id":null,"status":"error"}"#), None);
        assert_eq!(reply_id("garbage"), None);
    }

    #[test]
    fn own_process_size_is_readable() {
        let size = proc_size(std::process::id()).unwrap();
        assert!(size.rss_kib > 0.0 && size.vm_kib >= size.rss_kib);
    }
}
