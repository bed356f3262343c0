//! Pooled keep-alive upstream connections.
//!
//! A [`Pool`] holds idle [`http::ClientConn`]s to one upstream address.
//! [`Pool::get`] checks one out (or dials a fresh connection), runs a
//! single request-response round trip, and returns the connection to
//! the pool when the upstream kept it alive. A request that fails on a
//! *reused* connection is retried once on a fresh one — the idle
//! connection may simply have been closed by the upstream's
//! max-requests or idle-timeout policy, which is not an upstream
//! failure.
//!
//! The router and the shard-to-shard proxy path both sit on this: each
//! peer gets one `Pool`, so steady-state forwarding costs zero TCP
//! handshakes.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use crate::http::ClientConn;

/// Upper bound on idle connections retained per upstream; extras are
/// dropped (closed) on check-in.
const MAX_IDLE: usize = 16;

/// Dial/IO timeout for one upstream hop — proxying must fail fast
/// enough that the local fallback still answers a patient client.
const UPSTREAM_TIMEOUT: Duration = Duration::from_secs(10);

/// A keep-alive connection pool to one upstream `host:port`.
#[derive(Debug)]
pub struct Pool {
    addr: String,
    idle: Mutex<Vec<ClientConn>>,
}

impl Pool {
    /// A pool for `addr` (nothing is dialed until the first request).
    pub fn new(addr: impl Into<String>) -> Pool {
        Pool {
            addr: addr.into(),
            idle: Mutex::new(Vec::new()),
        }
    }

    /// The upstream address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Idle connections currently parked (for stats).
    pub fn idle(&self) -> usize {
        self.idle.lock().expect("pool lock").len()
    }

    fn resolve(&self) -> io::Result<SocketAddr> {
        self.addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "upstream did not resolve"))
    }

    fn dial(&self) -> io::Result<ClientConn> {
        let stream = TcpStream::connect_timeout(&self.resolve()?, UPSTREAM_TIMEOUT)?;
        stream.set_read_timeout(Some(UPSTREAM_TIMEOUT))?;
        stream.set_write_timeout(Some(UPSTREAM_TIMEOUT))?;
        stream.set_nodelay(true).ok();
        Ok(ClientConn::from_stream(stream))
    }

    fn check_out(&self) -> Option<ClientConn> {
        self.idle.lock().expect("pool lock").pop()
    }

    fn check_in(&self, conn: ClientConn) {
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < MAX_IDLE {
            idle.push(conn);
        }
    }

    fn round_trip(
        &self,
        conn: &mut ClientConn,
        target: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<crate::http::Response> {
        conn.send(target, headers)?;
        conn.flush()?;
        conn.recv()
    }

    /// One `GET target` round trip over a pooled connection, returning
    /// the full parsed response (status, headers, body). Reused
    /// connections that fail retry once on a fresh dial; only the fresh
    /// connection's error propagates (a genuinely down upstream).
    pub fn request(
        &self,
        target: &str,
        headers: &[(&str, &str)],
    ) -> io::Result<crate::http::Response> {
        if let Some(mut conn) = self.check_out() {
            match self.round_trip(&mut conn, target, headers) {
                Ok(response) => {
                    if !response.close {
                        self.check_in(conn);
                    }
                    return Ok(response);
                }
                Err(_) => {
                    // Stale idle connection; fall through to a fresh dial.
                }
            }
        }
        let mut conn = self.dial()?;
        let response = self.round_trip(&mut conn, target, headers)?;
        if !response.close {
            self.check_in(conn);
        }
        Ok(response)
    }

    /// [`Pool::request`] reduced to `(status, body)` — the common
    /// proxying shape.
    pub fn get(&self, target: &str, headers: &[(&str, &str)]) -> io::Result<(u16, String)> {
        let response = self.request(target, headers)?;
        Ok((response.status, response.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::TcpListener;

    /// A tiny single-threaded upstream: answers `n` keep-alive requests
    /// per connection, then closes.
    fn upstream(max_per_conn: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { break };
                for served in 1..=max_per_conn {
                    let mut buf = crate::http::ConnBuffer::new();
                    let request = loop {
                        match buf.next_request() {
                            Ok(Some(r)) => break Some(r),
                            Ok(None) => match buf.fill(&mut stream) {
                                Ok(0) | Err(_) => break None,
                                Ok(_) => {}
                            },
                            Err(_) => break None,
                        }
                    };
                    let Some(request) = request else { break };
                    if request.path == "/quit" {
                        return;
                    }
                    let keep = served < max_per_conn && !request.close;
                    let body = format!("pong:{}", request.raw_target);
                    let mut out = Vec::new();
                    crate::http::push_response(&mut out, 200, "text/plain", &body, keep, &[]);
                    stream.write_all(&out).unwrap();
                    if !keep {
                        break;
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn pool_reuses_connections_and_recovers_from_upstream_close() {
        let (addr, handle) = upstream(3);
        let pool = Pool::new(addr.to_string());
        // Seven requests over a 3-requests-per-connection upstream:
        // every one must succeed, transparently re-dialing as needed.
        for i in 0..7 {
            let (status, body) = pool.get(&format!("/r{i}"), &[]).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, format!("pong:/r{i}"));
        }
        assert!(pool.idle() <= 1, "at most the live connection is parked");
        let _ = pool.get("/quit", &[]);
        handle.join().unwrap();
    }

    #[test]
    fn pool_propagates_a_dead_upstream() {
        // Bind then drop: nothing listens there afterwards.
        let addr = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let pool = Pool::new(addr.to_string());
        assert!(pool.get("/x", &[]).is_err());
    }
}
