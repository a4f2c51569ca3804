//! Open-loop load generator over the wire protocol.
//!
//! Requests are sent at fixed due times whatever the server's progress,
//! one thread and one TCP connection per lane (two lanes at most, so the
//! generator never takes more threads than a two-core host has). The
//! server answers a connection's requests in order, so responses are
//! matched to requests first-in first-out. Latency is taken from each
//! request's due time, which charges a stall to every request queued
//! behind it; how late the generator itself sent is recorded beside it.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One request line and the moment it is due, in seconds after the
/// phase starts.
#[derive(Debug, Clone)]
pub struct Req {
    pub line: String,
    pub due: f64,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
pub struct Sent {
    pub due: f64,
    /// When the line was written (seconds after phase start).
    pub sent: f64,
    /// When the full response line arrived; `None` if it never did.
    pub recv: Option<f64>,
    pub response: Option<String>,
}

impl Sent {
    /// Due-to-response seconds.
    pub fn latency(&self) -> Option<f64> {
        self.recv.map(|r| r - self.due)
    }
}

/// Runs every lane until all its responses arrive or `grace` seconds pass
/// after its last due time, while `beside` runs on the calling thread.
/// `watch` is called at each send and its largest value is returned (the
/// engine queue depth).
pub fn run(
    addr: SocketAddr,
    lanes: Vec<Vec<Req>>,
    start: Instant,
    grace: f64,
    watch: &(dyn Fn() -> usize + Sync),
    beside: impl FnOnce(),
) -> std::io::Result<(Vec<Vec<Sent>>, usize)> {
    let peak = AtomicUsize::new(0);
    let results: Vec<std::io::Result<Vec<Sent>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .into_iter()
            .map(|reqs| {
                let peak = &peak;
                scope.spawn(move || run_lane(addr, reqs, start, grace, watch, peak))
            })
            .collect();
        beside();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    let lanes = results.into_iter().collect::<std::io::Result<Vec<_>>>()?;
    Ok((lanes, peak.load(Ordering::Relaxed)))
}

fn run_lane(
    addr: SocketAddr,
    reqs: Vec<Req>,
    start: Instant,
    grace: f64,
    watch: &(dyn Fn() -> usize + Sync),
    peak: &AtomicUsize,
) -> std::io::Result<Vec<Sent>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let last_due = reqs.last().map_or(0.0, |r| r.due);
    let deadline = last_due + grace;
    let mut out: Vec<Sent> = reqs
        .iter()
        .map(|r| Sent {
            due: r.due,
            ..Sent::default()
        })
        .collect();
    let mut next = 0usize;
    let mut waiting: VecDeque<usize> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut chunk = vec![0u8; 1 << 16];
    loop {
        let now = start.elapsed().as_secs_f64();
        while next < reqs.len() && reqs[next].due <= now {
            let mut line = reqs[next].line.clone();
            line.push('\n');
            stream.write_all(line.as_bytes())?;
            out[next].sent = start.elapsed().as_secs_f64();
            peak.fetch_max(watch(), Ordering::Relaxed);
            waiting.push_back(next);
            next += 1;
        }
        if next == reqs.len() && waiting.is_empty() {
            break;
        }
        let now = start.elapsed().as_secs_f64();
        if now > deadline {
            break; // unanswered requests stay `recv: None` and count as failed
        }
        let until = if next < reqs.len() {
            reqs[next].due
        } else {
            deadline
        };
        let wait = (until - now).clamp(20e-6, 0.05);
        if waiting.is_empty() {
            std::thread::sleep(Duration::from_secs_f64(wait));
            continue;
        }
        stream.set_read_timeout(Some(Duration::from_secs_f64(wait)))?;
        match stream.read(&mut chunk) {
            Ok(0) => break, // server closed the connection
            Ok(n) => {
                let at = start.elapsed().as_secs_f64();
                buf.extend_from_slice(&chunk[..n]);
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let Some(i) = waiting.pop_front() else { break };
                    out[i].recv = Some(at);
                    out[i].response = Some(String::from_utf8_lossy(&line[..pos]).into_owned());
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Sends one line on a fresh connection and waits for its response.
pub fn round_trip(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    round_trip_on(&mut stream, line)
}

/// Sends one line on `stream` and reads one response line.
pub fn round_trip_on(stream: &mut TcpStream, line: &str) -> std::io::Result<String> {
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.write_all(format!("{line}\n").as_bytes())?;
    let mut buf = Vec::new();
    let mut byte = [0u8; 4096];
    loop {
        let n = stream.read(&mut byte)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        buf.extend_from_slice(&byte[..n]);
        if let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            buf.truncate(pos);
            return Ok(String::from_utf8_lossy(&buf).into_owned());
        }
    }
}

/// Evenly spaced due times for `count` requests at `rate` per second,
/// starting at `offset` seconds.
pub fn schedule(count: usize, rate: f64, offset: f64) -> Vec<f64> {
    (0..count).map(|i| offset + i as f64 / rate).collect()
}

/// Deals requests round-robin onto `lanes` connections.
pub fn deal(reqs: Vec<Req>, lanes: usize) -> Vec<Vec<Req>> {
    let mut out: Vec<Vec<Req>> = vec![Vec::new(); lanes];
    for (i, r) in reqs.into_iter().enumerate() {
        out[i % lanes].push(r);
    }
    out
}
