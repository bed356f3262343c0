//! A minimal HTTP/1.1 client and the open-loop load generator.
//!
//! Deliberately not the repository's own `serve::http` client: every
//! request here is one `write` on a `TCP_NODELAY` socket, so the numbers
//! measure the server's transport (including its accept poll), not the
//! client library's buffering.
//!
//! The generator is one thread driving non-blocking sockets with
//! `ppoll(2)`, pipelining on the keep-alive connections. Requests are
//! either sent when due whether or not earlier ones have been answered
//! (an open loop; each response is timed from its request's scheduled
//! send), or sent as soon as fewer than a fixed number are outstanding
//! (a closed loop, timed from the actual send).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

use crate::mix::{Planned, Route};
use crate::stats::Timing;

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Whether the server announced `Connection: close`.
    pub close: bool,
    /// Body bytes (exactly `Content-Length`).
    pub body: Vec<u8>,
}

/// Largest response head accepted.
const MAX_HEAD: usize = 16 * 1024;

/// Parses one complete response off the front of `buf`. `Ok(None)` when
/// more bytes are needed; `Ok(Some((response, consumed)))` otherwise.
pub fn parse_response(buf: &[u8]) -> Result<Option<(Response, usize)>, String> {
    let Some(head_end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
        return if buf.len() > MAX_HEAD {
            Err("response head too large".to_owned())
        } else {
            Ok(None)
        };
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "non-UTF-8 head")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {status_line:?}"))?;
    let mut length = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            length = Some(
                value
                    .parse::<usize>()
                    .map_err(|_| format!("bad content-length {value:?}"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or("response without content-length")?;
    let start = head_end + 4;
    if buf.len() < start + length {
        return Ok(None);
    }
    let body = buf[start..start + length].to_vec();
    Ok(Some((
        Response {
            status,
            close,
            body,
        },
        start + length,
    )))
}

fn request_bytes(target: &str, close: bool) -> Vec<u8> {
    let connection = if close { "Connection: close\r\n" } else { "" };
    format!("GET {target} HTTP/1.1\r\nHost: llcbench\r\n{connection}\r\n").into_bytes()
}

/// A blocking keep-alive connection for set-up traffic and scrapes.
#[derive(Debug)]
pub struct SyncClient {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

impl SyncClient {
    /// A client for `addr`; connects on first use.
    pub fn new(addr: SocketAddr) -> SyncClient {
        SyncClient {
            addr,
            stream: None,
            buf: Vec::new(),
        }
    }

    /// One request, reconnecting once if the idle connection was closed.
    pub fn get(&mut self, target: &str) -> std::io::Result<Response> {
        match self.try_get(target) {
            Ok(r) => Ok(r),
            Err(_) => {
                self.stream = None;
                self.try_get(target)
            }
        }
    }

    fn try_get(&mut self, target: &str) -> std::io::Result<Response> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(60)))?;
            self.stream = Some(s);
            self.buf.clear();
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(&request_bytes(target, false))?;
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match parse_response(&self.buf) {
                Ok(Some((response, used))) => {
                    self.buf.drain(..used);
                    if response.close {
                        self.stream = None;
                    }
                    return Ok(response);
                }
                Ok(None) => {}
                Err(e) => return Err(std::io::Error::new(ErrorKind::InvalidData, e)),
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(ErrorKind::UnexpectedEof.into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
    }
}

/// First body seen per key; later bodies must match it byte for byte.
#[derive(Debug, Default)]
pub struct BodyCheck {
    first: HashMap<String, Vec<u8>>,
    /// Bodies that differed from their key's first body.
    pub mismatches: u64,
}

impl BodyCheck {
    /// Records `body` for `key`; `false` if it differs from the first.
    pub fn check(&mut self, key: &str, body: &[u8]) -> bool {
        match self.first.get(key) {
            Some(first) if first.as_slice() == body => true,
            Some(_) => {
                self.mismatches += 1;
                false
            }
            None => {
                self.first.insert(key.to_owned(), body.to_vec());
                true
            }
        }
    }

    /// The first body served for `key`.
    pub fn first(&self, key: &str) -> Option<&[u8]> {
        self.first.get(key).map(Vec::as_slice)
    }
}

/// How one scheduled request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Due, sent, and completion instants.
    pub timing: Timing,
    /// Response status; 0 for a transport failure or timeout.
    pub status: u16,
    /// 200 with a body equal to its key's first body.
    pub ok: bool,
}

/// One open-loop step.
#[derive(Debug)]
pub struct StepResult {
    /// Per planned request; `None` if never sent (the step was cut).
    pub outcomes: Vec<Option<Outcome>>,
    /// Whether an open-loop step stopped sending early because it was
    /// overloaded (see [`Cut`]).
    pub cut: bool,
}

/// Keep-alive connections are replaced after this many requests, well
/// under the daemon's default per-connection cap.
const ROTATE_AFTER: usize = 500;

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    inbuf: Vec<u8>,
    inflight: VecDeque<usize>,
    sent: usize,
    /// The keep-alive slot it serves (`None` for a fresh connection).
    slot: Option<usize>,
    /// No more requests go out on it (fresh, rotated, or closed by peer).
    retired: bool,
    closed: bool,
}

impl Conn {
    fn open(addr: SocketAddr, slot: Option<usize>) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
            sent: 0,
            slot,
            retired: false,
            closed: false,
        })
    }

    fn flush(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

fn wait_ready(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // pollfd-layout structs; `ts` outlives the call; a null signal mask
    // leaves the mask unchanged. An error return (EINTR) just re-polls.
    unsafe {
        ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null());
    }
}

/// How a step paces its sends.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Each request when due, giving up early past the limits in [`Cut`].
    Open(Cut),
    /// Requests in plan order, due times ignored, keeping `outstanding`
    /// unanswered until `length` has passed; the rest then have `drain`
    /// to complete.
    Closed {
        /// Requests kept in flight.
        outstanding: usize,
        /// How long to keep sending.
        length: Duration,
        /// After the last send, unanswered requests fail after this long.
        drain: Duration,
    },
}

/// When an open-loop step gives up early.
#[derive(Debug, Clone, Copy)]
pub struct Cut {
    /// Stop sending once this many fresh connections are unanswered.
    pub fresh: usize,
    /// Stop sending once the oldest unanswered request is this old.
    pub age: Duration,
    /// After the last send, unanswered requests fail after this long.
    pub drain: Duration,
}

/// Runs `plan` against `addr` as `pace` says and returns one outcome per
/// sent request. A keep-alive request goes out on the keep-alive
/// connection with the fewest requests outstanding (its planned one on a
/// tie), as a connection pool hands out its least busy connection, so one
/// slow request holds up only the requests already queued behind it. An
/// open-loop step stops sending early (it is cut) once waiting fresh
/// connections or the oldest unanswered request pass its limits.
pub fn drive(addr: SocketAddr, plan: &[Planned], check: &mut BodyCheck, pace: Pace) -> StepResult {
    let mut outcomes: Vec<Option<Outcome>> = vec![None; plan.len()];
    let mut due_at: Vec<Duration> = plan.iter().map(|p| p.due).collect();
    let mut sent_at: Vec<Duration> = vec![Duration::ZERO; plan.len()];
    let drain = match pace {
        Pace::Open(cut_at) => cut_at.drain,
        Pace::Closed { drain, .. } => drain,
    };
    let keepalive_slots = plan
        .iter()
        .filter_map(|p| match p.route {
            Route::KeepAlive(k) => Some(k + 1),
            Route::Fresh => None,
        })
        .max()
        .unwrap_or(0);
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut slots: HashMap<usize, usize> = HashMap::new();
    let mut next = 0;
    let mut cut = false;
    let mut ended = false;
    let mut last_send = Duration::ZERO;
    let start = Instant::now();
    let fail = |outcomes: &mut Vec<Option<Outcome>>,
                due_at: &[Duration],
                i: usize,
                sent: Duration,
                now: Duration| {
        outcomes[i] = Some(Outcome {
            timing: Timing {
                due: due_at[i],
                sent,
                done: now,
            },
            status: 0,
            ok: false,
        });
    };

    loop {
        let now = start.elapsed();
        // Send everything due (open) or what the window allows (closed).
        while !cut && !ended && next < plan.len() {
            match pace {
                Pace::Open(cut_at) => {
                    if plan[next].due > now {
                        break;
                    }
                    let fresh_waiting = conns
                        .iter()
                        .flatten()
                        .filter(|c| c.slot.is_none() && !c.inflight.is_empty())
                        .count();
                    let oldest = conns
                        .iter()
                        .flatten()
                        .filter_map(|c| c.inflight.front())
                        .map(|&i| due_at[i])
                        .min();
                    if fresh_waiting >= cut_at.fresh
                        || oldest.is_some_and(|due| now.saturating_sub(due) > cut_at.age)
                    {
                        cut = true;
                        break;
                    }
                }
                Pace::Closed {
                    outstanding,
                    length,
                    ..
                } => {
                    if now >= length {
                        ended = true;
                        break;
                    }
                    let backlog: usize = conns.iter().flatten().map(|c| c.inflight.len()).sum();
                    if backlog >= outstanding {
                        break;
                    }
                    due_at[next] = now;
                }
            }
            let i = next;
            next += 1;
            sent_at[i] = now;
            let fresh = plan[i].route == Route::Fresh;
            let slot = match plan[i].route {
                Route::Fresh => None,
                Route::KeepAlive(k) => {
                    let busy = |s: usize| {
                        slots
                            .get(&s)
                            .and_then(|&c| conns[c].as_ref())
                            .map_or(0, |conn| conn.inflight.len())
                    };
                    (0..keepalive_slots).min_by_key(|&s| (busy(s), s != k))
                }
            };
            let owned = |c: &usize| conns[*c].as_ref().filter(|conn| conn.slot == slot);
            let current = slot
                .and_then(|k| slots.get(&k).copied())
                .filter(|c| owned(c).is_some());
            let reusable = current
                .filter(|c| owned(c).is_some_and(|conn| !conn.retired && conn.sent < ROTATE_AFTER));
            let index = match reusable {
                Some(c) => c,
                None => match Conn::open(addr, slot) {
                    Ok(conn) => {
                        if let Some(old) = current.and_then(|c| conns[c].as_mut()) {
                            old.retired = true;
                        }
                        let c = match free.pop() {
                            Some(c) => {
                                conns[c] = Some(conn);
                                c
                            }
                            None => {
                                conns.push(Some(conn));
                                conns.len() - 1
                            }
                        };
                        if let Some(k) = slot {
                            slots.insert(k, c);
                        }
                        c
                    }
                    Err(_) => {
                        fail(&mut outcomes, &due_at, i, now, start.elapsed());
                        continue;
                    }
                },
            };
            let conn = conns[index].as_mut().expect("live connection");
            conn.out
                .extend_from_slice(&request_bytes(&plan[i].target, fresh));
            conn.inflight.push_back(i);
            conn.sent += 1;
            conn.retired |= fresh;
            if conn.flush().is_err() {
                conn.closed = true;
            }
            last_send = now;
        }

        // Retire finished connections; fail requests on dead ones.
        let now = start.elapsed();
        for (c, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry else { continue };
            if conn.closed {
                for i in conn.inflight.drain(..) {
                    fail(&mut outcomes, &due_at, i, sent_at[i], now);
                }
            }
            if conn.closed || (conn.retired && conn.inflight.is_empty()) {
                *entry = None;
                free.push(c);
            }
        }
        let outstanding = conns.iter().flatten().any(|c| !c.inflight.is_empty());
        let sending = !cut && !ended && next < plan.len();
        if !sending && !outstanding {
            break;
        }
        if !sending && now.saturating_sub(last_send) > drain {
            for conn in conns.iter_mut().flatten() {
                for i in conn.inflight.drain(..) {
                    fail(&mut outcomes, &due_at, i, sent_at[i], now);
                }
            }
            break;
        }

        // Wait for the next due send or for socket readiness.
        let live: Vec<usize> = (0..conns.len()).filter(|&c| conns[c].is_some()).collect();
        let mut fds: Vec<PollFd> = live
            .iter()
            .map(|&c| {
                let conn = conns[c].as_ref().expect("live connection");
                PollFd {
                    fd: conn.stream.as_raw_fd(),
                    events: POLLIN | if conn.out.is_empty() { 0 } else { POLLOUT },
                    revents: 0,
                }
            })
            .collect();
        let timeout = match pace {
            Pace::Open(_) if sending => plan[next].due.saturating_sub(now),
            Pace::Closed { length, .. } if sending => {
                length.saturating_sub(now).min(Duration::from_millis(20))
            }
            _ => Duration::from_millis(20),
        };
        wait_ready(&mut fds, timeout);

        let mut chunk = [0u8; 64 * 1024];
        for (fd, &c) in fds.iter().zip(&live) {
            if fd.revents == 0 {
                continue;
            }
            let conn = conns[c].as_mut().expect("live connection");
            if !conn.out.is_empty() && conn.flush().is_err() {
                conn.closed = true;
                continue;
            }
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.closed = true;
                        break;
                    }
                    Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
            let done = start.elapsed();
            loop {
                match parse_response(&conn.inbuf) {
                    Ok(Some((response, used))) => {
                        conn.inbuf.drain(..used);
                        let Some(i) = conn.inflight.pop_front() else {
                            conn.closed = true;
                            break;
                        };
                        let ok =
                            response.status == 200 && check.check(&plan[i].target, &response.body);
                        outcomes[i] = Some(Outcome {
                            timing: Timing {
                                due: due_at[i],
                                sent: sent_at[i],
                                done,
                            },
                            status: response.status,
                            ok,
                        });
                        if response.close {
                            conn.retired = true;
                            if !conn.inflight.is_empty() {
                                conn.closed = true;
                            }
                        }
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.closed = true;
                        break;
                    }
                }
            }
        }
    }
    StepResult { outcomes, cut }
}
