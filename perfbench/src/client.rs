//! Driving a real `chainnet-serve` process: spawn, synchronous calls,
//! the open-loop generator, and `/proc` readings of its processes.

use chainnet_serve::protocol::{Outcome, Request, RequestBody, Response};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running daemon and one client connection to it. Dropping it kills
/// the process and waits for it.
pub struct Daemon {
    child: Child,
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Start `binary` with `args` on an ephemeral TCP port and connect.
    pub fn spawn(binary: &Path, args: &[String], log: &Path) -> Result<Self, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("create {log:?}: {e}"))?;
        let mut child = Command::new(binary)
            .args(["--bind", "127.0.0.1:0", "--quiet"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(stderr))
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let announce = child.stdout.take().ok_or("daemon stdout missing")?;
        let mut line = String::new();
        let read = BufReader::new(announce).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line.trim().rsplit(' ').next().unwrap_or("").to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("daemon did not announce its address; see {log:?}"));
            }
        };
        let connected = TcpStream::connect(&addr).and_then(|s| {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            let r = s.try_clone()?;
            Ok((s, r))
        });
        match connected {
            Ok((stream, r)) => Ok(Self {
                child,
                stream,
                reader: BufReader::new(r),
            }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("connect {addr}: {e}"))
            }
        }
    }

    /// OS process id of the daemon (the supervisor in pool mode).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send one request and wait for its answer.
    pub fn call(&mut self, id: u64, body: RequestBody) -> Result<Response, String> {
        let req = Request {
            id,
            deadline_ms: None,
            body,
        };
        let line = serde_json::to_string(&req).map_err(|e| format!("serialize: {e}"))?;
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let resp = read_response(&mut self.reader)?.ok_or("daemon closed the connection")?;
        if resp.id != id {
            return Err(format!("answer for id {} while waiting for {id}", resp.id));
        }
        Ok(resp)
    }

    /// The daemon's `Stats` answer.
    pub fn stats(&mut self, id: u64) -> Result<Outcome, String> {
        Ok(self.call(id, RequestBody::Stats)?.outcome)
    }

    /// Graceful shutdown: `Shutdown`, then wait for a clean exit.
    pub fn shutdown(mut self, id: u64) -> Result<(), String> {
        self.call(id, RequestBody::Shutdown)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("daemon did not exit after Shutdown".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }

    /// Run an open-loop schedule on this connection: one writer sends
    /// each request when it is due, one reader collects the answers.
    /// `due` is seconds from the start; ids are `first_id..`.
    pub fn open_loop(
        &mut self,
        first_id: u64,
        schedule: &[(f64, RequestBody)],
    ) -> Result<OpenLoopRun, String> {
        let lines: Vec<(f64, String)> = schedule
            .iter()
            .enumerate()
            .map(|(i, (due, body))| {
                let req = Request {
                    id: first_id + i as u64,
                    deadline_ms: None,
                    body: body.clone(),
                };
                serde_json::to_string(&req)
                    .map(|l| (*due, format!("{l}\n")))
                    .map_err(|e| format!("serialize: {e}"))
            })
            .collect::<Result<_, _>>()?;
        let n = lines.len();
        let mut writer = self.stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        let reader = &mut self.reader;
        let start = Instant::now() + Duration::from_millis(20);
        std::thread::scope(|scope| {
            let sender = scope.spawn(move || -> Result<Vec<Instant>, String> {
                let mut sent = Vec::with_capacity(n);
                for (due, line) in &lines {
                    let at = start + Duration::from_secs_f64(*due);
                    if let Some(wait) = at.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    writer
                        .write_all(line.as_bytes())
                        .map_err(|e| format!("send: {e}"))?;
                    sent.push(Instant::now());
                }
                Ok(sent)
            });
            let mut answers: BTreeMap<u64, Vec<(Instant, Outcome)>> = BTreeMap::new();
            let mut received = 0usize;
            let mut read_err = None;
            while received < n {
                match read_response(reader) {
                    Ok(Some(resp)) => {
                        received += 1;
                        answers
                            .entry(resp.id)
                            .or_default()
                            .push((Instant::now(), resp.outcome));
                    }
                    Ok(None) => {
                        read_err = Some("daemon closed the connection".to_string());
                        break;
                    }
                    Err(e) => {
                        read_err = Some(e);
                        break;
                    }
                }
            }
            let sent = sender
                .join()
                .map_err(|_| "sender thread panicked".to_string())??;
            Ok(OpenLoopRun {
                start,
                sent,
                answers,
                lost_connection: read_err,
            })
        })
    }
}

/// Read one response line; `Ok(None)` at end of stream.
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Option<Response>, String> {
    let mut line = String::new();
    match reader.read_line(&mut line) {
        Ok(0) => Ok(None),
        Ok(_) => serde_json::from_str(line.trim_end())
            .map(Some)
            .map_err(|e| format!("bad response {line:?}: {e}")),
        Err(e) => Err(format!("receive: {e}")),
    }
}

/// What an open-loop run observed.
pub struct OpenLoopRun {
    /// The instant due times are measured from.
    pub start: Instant,
    /// When each request actually left, in schedule order.
    pub sent: Vec<Instant>,
    /// Every answer received, by request id, with its arrival time.
    pub answers: BTreeMap<u64, Vec<(Instant, Outcome)>>,
    /// Set when the connection died before every answer arrived.
    pub lost_connection: Option<String>,
}

/// Resident-set high-water mark of a process, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    read_status_kb(pid, "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn read_status_kb(pid: u32, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// CPU time (user + system) a process has used so far, in seconds.
/// Linux reports it in clock ticks of 1/100 s.
pub fn cpu_seconds(pid: u32) -> f64 {
    let Ok(text) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let Some(rest) = text.rfind(')').map(|i| &text[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}
