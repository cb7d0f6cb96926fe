//! Load generator: keep-alive HTTP/1.1 clients driving a closed loop.
//!
//! Responses are read through a `BufReader`, so framing costs a few
//! syscalls per response instead of one per byte; what the client still
//! spends on its own work (decoding and checking answers) is timed
//! separately as `gen.client_us` in traced runs.

use crate::layers;
use crate::stats::Samples;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A response slower than this counts as a failed op.
const TIMEOUT: Duration = Duration::from_secs(5);

pub struct Client {
    stream: BufReader<TcpStream>,
    out: Vec<u8>,
    line: Vec<u8>,
    body: Vec<u8>,
}

fn malformed(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        Ok(Client {
            stream: BufReader::with_capacity(16 * 1024, stream),
            out: Vec::with_capacity(1024),
            line: Vec::with_capacity(128),
            body: Vec::with_capacity(1024),
        })
    }

    /// Sends one request and reads its whole response: `(status, body)`.
    pub fn call(&mut self, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, &[u8])> {
        self.out.clear();
        write!(
            self.out,
            "{method} {path} HTTP/1.1\r\nHost: e2ebench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )?;
        self.out.extend_from_slice(body);
        self.stream.get_mut().write_all(&self.out)?;

        self.line.clear();
        if self.stream.read_until(b'\n', &mut self.line)? == 0 {
            return Err(malformed("connection closed before the status line"));
        }
        let status = self
            .line
            .strip_prefix(b"HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| std::str::from_utf8(code).ok())
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| malformed("bad status line"))?;
        let mut length = None;
        loop {
            self.line.clear();
            if self.stream.read_until(b'\n', &mut self.line)? == 0 {
                return Err(malformed("connection closed inside the headers"));
            }
            if self.line == b"\r\n" {
                break;
            }
            let header =
                std::str::from_utf8(&self.line).map_err(|_| malformed("non-UTF-8 header"))?;
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse::<usize>().ok();
                }
            }
        }
        let length = length.ok_or_else(|| malformed("no Content-Length"))?;
        self.body.resize(length, 0);
        self.stream.read_exact(&mut self.body)?;
        Ok((status, &self.body))
    }
}

/// One closed loop: `conns` connections, each sending its next request
/// only after the previous answer arrived, cycling through `bodies`.
/// The cycle carries on where the previous `run` stopped.
pub struct Load<'a> {
    addr: SocketAddr,
    conns: usize,
    path: &'static str,
    bodies: &'a [Vec<u8>],
    next: AtomicUsize,
}

/// What a closed loop measured over one window.
#[derive(Debug, Default)]
pub struct LoadResult {
    pub samples: Samples,
    pub attempted: u64,
    pub failed: u64,
}

impl LoadResult {
    pub fn absorb(&mut self, other: LoadResult) {
        self.samples.absorb(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Per-connection state handed to the answer check (e.g. the last
/// snapshot generation seen on this connection).
#[derive(Debug, Default)]
pub struct ConnState {
    pub last_generation: u64,
}

impl<'a> Load<'a> {
    pub fn new(addr: SocketAddr, conns: usize, path: &'static str, bodies: &'a [Vec<u8>]) -> Self {
        Load {
            addr,
            conns,
            path,
            bodies,
            next: AtomicUsize::new(0),
        }
    }

    /// Runs the loop until `done()` turns true. Op `i` sends
    /// `bodies[i % bodies.len()]`; `check(i, body, state)` validates its
    /// 200 answer. An `Err` (or a non-200 status, transport error or
    /// timeout) counts the op as failed.
    pub fn run<D, C>(&self, done: D, check: C) -> Result<LoadResult, String>
    where
        D: Fn() -> bool + Sync,
        C: Fn(usize, &[u8], &mut ConnState) -> Result<(), String> + Sync,
    {
        let next = &self.next;
        let reported = Mutex::new(0usize);
        let report = |msg: String| {
            let mut n = reported.lock().expect("report lock");
            if *n < 5 {
                eprintln!("e2ebench: failed op: {msg}");
            }
            *n += 1;
        };
        let started = Instant::now();
        let parts: Vec<Result<LoadResult, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.conns)
                .map(|_| {
                    scope.spawn(|| {
                        let mut client = Client::connect(self.addr).map_err(|e| e.to_string())?;
                        let mut state = ConnState::default();
                        let mut out = LoadResult::default();
                        while !done() {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let body = &self.bodies[i % self.bodies.len()];
                            out.attempted += 1;
                            let sent = Instant::now();
                            let answer = client.call("POST", self.path, body);
                            let latency_us = sent.elapsed().as_secs_f64() * 1e6;
                            let _span = layers::span("bench.client");
                            let verdict = match answer {
                                Ok((200, bytes)) => check(i, bytes, &mut state),
                                Ok((status, bytes)) => Err(format!(
                                    "status {status}: {}",
                                    String::from_utf8_lossy(bytes)
                                )),
                                Err(e) => {
                                    let msg = format!("transport: {e}");
                                    client =
                                        Client::connect(self.addr).map_err(|e| e.to_string())?;
                                    Err(msg)
                                }
                            };
                            match verdict {
                                Ok(()) => out.samples.record(latency_us),
                                Err(msg) => {
                                    out.failed += 1;
                                    report(msg);
                                }
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".into()))
                })
                .collect()
        });
        let mut total = LoadResult::default();
        for part in parts {
            total.absorb(part?);
        }
        total.samples.seconds = started.elapsed().as_secs_f64();
        Ok(total)
    }
}
