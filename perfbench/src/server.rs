//! The serving process under test.
//!
//! The benchmark binary re-executes itself as `perfbench serve <args>`,
//! which calls the `phishinghook` command line's entry point
//! (`phishinghook_cli::run`) exactly as the `phishinghook` binary does:
//! the snapshot is restored once, `ServeConfig` keeps its default tuning,
//! and `serve::run` serves stdin, a JSONL TCP listener or the HTTP gateway.

use crate::inputs::{http_predict, jsonl_request, PROBE_HEX};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a server may take to print its listener banner.
const BANNER_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a server may take to exit once its input is closed.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a client waits for a response before giving up on it.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Scheduling niceness of the serving process (the generator runs at 0).
pub const SERVER_NICENESS: &str = "10";

/// Which front-end the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Front {
    /// `phishinghook serve` reading JSONL on stdin (lossless Block admission).
    Stdin,
    /// `--tcp 127.0.0.1:0`: JSONL over the nonblocking TCP transport.
    Tcp,
    /// `--http 127.0.0.1:0`: the HTTP gateway.
    Http,
}

/// A running serving process.
pub struct Server {
    child: Child,
    front: Front,
    started: Instant,
    /// Listener address (TCP and HTTP fronts).
    pub addr: Option<SocketAddr>,
    /// The request stream (stdin front).
    pub stdin: Option<ChildStdin>,
    /// The response stream (stdin front).
    pub stdout: Option<BufReader<ChildStdout>>,
    stderr: Option<JoinHandle<String>>,
    exited: bool,
}

/// The address in a `serving … on tcp://ADDR …` / `http://ADDR` banner.
fn banner_addr(line: &str) -> Option<SocketAddr> {
    let rest = line
        .split_once(" on tcp://")
        .or_else(|| line.split_once(" on http://"))?
        .1;
    rest.split_whitespace().next()?.parse().ok()
}

impl Server {
    /// Starts `phishinghook serve --model <snapshot>` on `front`, returning
    /// once a listener is bound (stdin: once spawned).
    pub fn start(snapshot: &Path, front: Front) -> io::Result<Server> {
        // The server runs niced: on a 2-CPU box its busy threads would
        // otherwise delay the load generator's wake-ups by whole scheduler
        // slices, and an open loop must send on its schedule. The server
        // still gets every cycle the generator does not use.
        let mut cmd = Command::new("nice");
        cmd.args(["-n", SERVER_NICENESS])
            .arg(std::env::current_exe()?)
            .arg("serve")
            .arg("--model")
            .arg(snapshot);
        match front {
            Front::Stdin => cmd.stdin(Stdio::piped()).stdout(Stdio::piped()),
            Front::Tcp => cmd
                .args(["--tcp", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null()),
            Front::Http => cmd
                .args(["--http", "127.0.0.1:0"])
                .stdin(Stdio::null())
                .stdout(Stdio::null()),
        };
        cmd.stderr(Stdio::piped());
        let started = Instant::now();
        let mut child = cmd.spawn()?;
        let stderr = child.stderr.take().expect("stderr is piped");
        let (tx, rx) = mpsc::channel();
        // Drains stderr for the process's whole life (a full pipe would
        // stall it) and keeps the tail for error messages.
        let drain = std::thread::spawn(move || {
            let mut tail = String::new();
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(addr) = banner_addr(&line) {
                    let _ = tx.send(addr);
                }
                if tail.len() > 4096 {
                    tail.drain(..2048);
                }
                tail.push_str(&line);
                tail.push('\n');
            }
            tail
        });
        let mut server = Server {
            stdin: child.stdin.take(),
            stdout: child.stdout.take().map(BufReader::new),
            child,
            front,
            started,
            addr: None,
            stderr: Some(drain),
            exited: false,
        };
        if front != Front::Stdin {
            match rx.recv_timeout(BANNER_TIMEOUT) {
                Ok(addr) => server.addr = Some(addr),
                Err(_) => {
                    let tail = server.stop();
                    return Err(io::Error::other(format!(
                        "server printed no listener banner:\n{tail}"
                    )));
                }
            }
        }
        Ok(server)
    }

    /// Sends the set-up probe and waits for its verdict. Returns seconds
    /// from process start to that first answer: snapshot decode,
    /// quantized-mirror rebuild, bind and one scored request.
    pub fn probe(&mut self) -> io::Result<f64> {
        let mut line = Vec::new();
        jsonl_request(&mut line, 0, PROBE_HEX);
        let answer = match self.front {
            Front::Stdin => {
                let stdin = self.stdin.as_mut().expect("stdin front");
                stdin.write_all(&line)?;
                stdin.flush()?;
                let mut answer = String::new();
                self.stdout
                    .as_mut()
                    .expect("stdin front")
                    .read_line(&mut answer)?;
                answer
            }
            Front::Tcp => {
                let mut stream = connect(self.addr.expect("tcp front"))?;
                stream.write_all(&line)?;
                let mut answer = String::new();
                BufReader::new(stream).read_line(&mut answer)?;
                answer
            }
            Front::Http => {
                let stream = connect(self.addr.expect("http front"))?;
                let mut request = Vec::new();
                http_predict(&mut request, line.trim_ascii_end());
                (&stream).write_all(&request)?;
                read_http_response(&mut BufReader::new(&stream))?.1
            }
        };
        let secs = self.started.elapsed().as_secs_f64();
        if !answer.contains("\"verdict\"") {
            return Err(io::Error::other(format!(
                "set-up probe got no verdict: {answer:?}"
            )));
        }
        Ok(secs)
    }

    /// Peak resident memory (VmHWM) of the serving process, in MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        peak_rss_mb(self.pid())
    }

    /// The serving process's id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes stdin, waits for the process to exit (killing it after
    /// [`EXIT_TIMEOUT`]; listeners serve forever, so they are killed at
    /// once) and returns the tail of its stderr.
    pub fn stop(mut self) -> String {
        self.shutdown();
        self.stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default()
    }

    fn shutdown(&mut self) {
        if self.exited {
            return;
        }
        drop(self.stdin.take());
        if self.front == Front::Stdin {
            let deadline = Instant::now() + EXIT_TIMEOUT;
            while Instant::now() < deadline {
                if let Ok(Some(_)) = self.child.try_wait() {
                    self.exited = true;
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        self.exited = true;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// A client connection: Nagle off, and reads that give up after
/// [`READ_TIMEOUT`] instead of hanging on a wedged server.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// Peak resident memory (VmHWM) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other("no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// Reads one `Content-Length`-framed HTTP response: `(status, body)`.
pub fn read_http_response(reader: &mut impl BufRead) -> io::Result<(u16, String)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed",
        ));
    }
    let status = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
    let mut length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof in headers",
            ));
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| io::Error::other("bad Content-Length"))?;
            }
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body)?;
    Ok((status, String::from_utf8_lossy(&body).into_owned()))
}

/// Starts `count` fresh servers one after another, timing each one's
/// set-up probe.
pub fn setup_times(snapshot: &Path, front: Front, count: usize) -> io::Result<Vec<f64>> {
    (0..count)
        .map(|_| {
            let mut server = Server::start(snapshot, front)?;
            let secs = server.probe();
            server.stop();
            secs
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_listener_banners() {
        let tcp = "serving Random Forest on tcp://127.0.0.1:40123 (V2, 1 shard(s), batch 64)";
        assert_eq!(banner_addr(tcp), Some("127.0.0.1:40123".parse().unwrap()));
        let http = "serving Random Forest on http://127.0.0.1:8080 (POST /predict, GET /healthz)";
        assert_eq!(banner_addr(http), Some("127.0.0.1:8080".parse().unwrap()));
        assert_eq!(banner_addr("loaded Random Forest snapshot"), None);
    }

    #[test]
    fn reads_framed_http_responses() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: application/json\r\ncontent-length: 4\r\nRetry-After: 1\r\n\r\nbusyHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let mut r = BufReader::new(&raw[..]);
        assert_eq!(
            read_http_response(&mut r).unwrap(),
            (503, "busy".to_owned())
        );
        assert_eq!(read_http_response(&mut r).unwrap(), (200, "ok".to_owned()));
        assert!(read_http_response(&mut r).is_err());
    }
}
