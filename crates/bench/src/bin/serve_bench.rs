//! Loopback load measurements for the `nvm-llcd` evaluation service,
//! dumped to `BENCH_serve.json` at the repository root.
//!
//! The generator runs the daemon in-process on an ephemeral loopback
//! port and measures the three request regimes a deployment sees:
//!
//! * **cold** — first-ever `/row` for a workload: trace generation, one
//!   functional pass, eleven timing replays, store write-back;
//! * **warm (memory)** — the same daemon again: the coalescing map has
//!   moved on, but every cell hits the in-memory result slots rebuilt
//!   from the tape/result tiers;
//! * **warm (store)** — a restarted daemon on the same `--store-dir`:
//!   every cell is a disk hit, no simulation at all.
//!
//! A **transport** phase compares close-per-request against pipelined
//! keep-alive over `/healthz` — the two modes run *interleaved in the
//! same process on the same daemon*, so scheduler drift hits both
//! equally. A **burst** phase drives 16 concurrent clients over the
//! warm workloads. A **cluster** phase stands up a 3-shard
//! consistent-hash cluster plus a router on loopback and checks that
//! routed rows are byte-identical to a standalone daemon's.
//!
//! Each `/row` regime also gets a **phase budget** (`phase_us`): the
//! client's mean round trip split into the server's own per-request
//! phases — accept-queue wait and handler, and inside the handler trace
//! generation, tape fetch, replay and store I/O — read as deltas of the
//! server's histograms (the registry `/metricsz` renders, read
//! in-process so the reading adds no request of its own). Queue wait
//! and handler are disjoint and sum to the attributed time; the handler
//! phases nest inside the handler and may overlap each other (a tape's
//! store read or write happens inside its tape fetch). What no phase
//! covers is `unattributed_us`: connect, request and response transfer,
//! accept, close. A **drain** phase runs the daemon as a child
//! process (this binary, re-executed with `--daemon`), holds one idle
//! keep-alive connection to it, and times SIGTERM to exit.
//!
//! Acceptance bars: every response is 200, the warm-store mean beats
//! the cold mean (persistence must pay for itself), keep-alive beats
//! close-per-request by at least 2x (connection reuse must pay for
//! itself), every routed row matches the standalone bytes, unattributed
//! time stays under [`MAX_UNATTRIBUTED_FRAC`] of every regime's client
//! time, and every drain stays under [`DRAIN_BOUND_MS`].

use std::net::{SocketAddr, TcpListener};
use std::process::{Command, Stdio};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use nvm_llc::serve::cluster::RouterConfig;
use nvm_llc::serve::{cluster, http, ServeConfig, Server};
use nvm_llc::sim::persist;

const BASE_ACCESSES: usize = 20_000;
const WORKLOADS: [&str; 4] = ["tonto", "x264", "milc", "leela"];
const BURST_CLIENTS: usize = 16;
const BURST_ROUNDS: usize = 8;

/// Passes over [`WORKLOADS`] in each warm regime (cold rows happen once
/// per workload by definition).
const WARM_PASSES: usize = 10;

/// Ceiling on the share of a regime's mean client round trip that no
/// server phase accounts for. Above it the bench is timing the
/// transport, not the server: a 10 ms accept poll puts warm rows at
/// 0.91-0.96, while connect, transfer and close on a blocking accept
/// leave 0.25-0.32 of a ~0.5 ms warm row on an idle 2-vCPU container
/// (up to 0.55 with a compile running alongside).
const MAX_UNATTRIBUTED_FRAC: f64 = 0.75;

/// SIGTERM-to-exit rounds against a daemon holding one idle keep-alive
/// connection.
const DRAIN_ROUNDS: usize = 5;

/// Ceiling on one drain. What bounds it: the daemon polls its signal
/// flag every 100 ms, and the worker holding the idle keep-alive
/// connection re-checks the stop flag once per 200 ms read poll.
const DRAIN_BOUND_MS: f64 = 500.0;

/// Transport comparison shape: `TRANSPORT_ROUNDS` interleaved
/// (close, keep-alive) pairs of `TRANSPORT_REQUESTS` each, keep-alive
/// pipelined `PIPELINE_DEPTH` requests ahead.
const TRANSPORT_ROUNDS: usize = 4;
const TRANSPORT_REQUESTS: usize = 200;
const PIPELINE_DEPTH: usize = 25;

/// Cluster phase: per-shard evaluation size, small enough that three
/// cold shard evaluations stay cheap.
const CLUSTER_ACCESSES: usize = 6_000;

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

fn timed_get(addr: SocketAddr, target: &str) -> f64 {
    let start = Instant::now();
    let (status, body) = http::get(addr, target).expect("loopback request");
    assert_eq!(status, 200, "{target}: {body}");
    start.elapsed().as_secs_f64() * 1e3
}

fn row_target(workload: &str) -> String {
    format!("/row?workload={workload}&accesses={BASE_ACCESSES}")
}

/// One unmeasured pass over the warm rows, after a `/healthz` on every
/// worker thread: per-thread and first-touch set-up (allocator arenas,
/// page faults, mapped store pages) is paid once per daemon, not per
/// request, so it stays out of the warm budgets.
fn warm_up(addr: SocketAddr) {
    for _ in 0..2 * BURST_CLIENTS {
        timed_get(addr, "/healthz");
    }
    for workload in WORKLOADS {
        timed_get(addr, &row_target(workload));
    }
}

/// The server histograms a `/row` phase budget reads, in the order of
/// [`Budget::phases`]: top-level phases first (their sum is the
/// attributed time), then the handler's nested sub-phases.
const PHASE_HISTOGRAMS: [&str; 7] = [
    "nvmllc_serve_queue_wait_seconds",
    "nvmllc_serve_handle_seconds",
    "nvmllc_trace_generate_seconds",
    "nvmllc_tape_fetch_seconds",
    "nvmllc_tape_replay_batch_seconds",
    "nvmllc_store_get_seconds",
    "nvmllc_store_put_seconds",
];

/// Cumulative seconds recorded by each of [`PHASE_HISTOGRAMS`] (all
/// registered when a server starts).
fn phase_seconds() -> [f64; PHASE_HISTOGRAMS.len()] {
    PHASE_HISTOGRAMS.map(|name| nvm_llc::obs::metrics::histogram(name, "").sum())
}

/// One regime's client round trip, split into server phases (per
/// request, microseconds).
struct Budget {
    requests: usize,
    client_us: f64,
    /// Per-request time in each [`PHASE_HISTOGRAMS`] entry, µs.
    phases: [f64; PHASE_HISTOGRAMS.len()],
}

impl Budget {
    /// Queue wait plus handler: the disjoint top-level phases.
    fn attributed_us(&self) -> f64 {
        self.phases[0] + self.phases[1]
    }

    fn unattributed_us(&self) -> f64 {
        self.client_us - self.attributed_us()
    }

    fn unattributed_frac(&self) -> f64 {
        self.unattributed_us() / self.client_us
    }

    fn json(&self) -> String {
        let p = &self.phases;
        format!(
            "{{\"requests\": {}, \"client_us\": {:.1}, \"queue_wait_us\": {:.1}, \
             \"handler_us\": {:.1}, \"trace_generate_us\": {:.1}, \"tape_fetch_us\": {:.1}, \
             \"replay_us\": {:.1}, \"store_us\": {:.1}, \"unattributed_us\": {:.1}, \
             \"unattributed_frac\": {:.3}}}",
            self.requests,
            self.client_us,
            p[0],
            p[1],
            p[2],
            p[3],
            p[4],
            p[5] + p[6],
            self.unattributed_us(),
            self.unattributed_frac(),
        )
    }
}

/// Times `passes` sequential close-per-request passes of `/row` over
/// [`WORKLOADS`] and budgets them against the server's phase
/// histograms. Nothing else may talk to the server meanwhile.
fn row_regime(addr: SocketAddr, passes: usize) -> (Vec<f64>, Budget) {
    let before = phase_seconds();
    let client_ms: Vec<f64> = (0..passes)
        .flat_map(|_| WORKLOADS.iter())
        .map(|w| timed_get(addr, &row_target(w)))
        .collect();
    let after = phase_seconds();
    let requests = client_ms.len();
    let per_request_us = |i: usize| (after[i] - before[i]) * 1e6 / requests as f64;
    let budget = Budget {
        requests,
        client_us: mean(&client_ms) * 1e3,
        phases: std::array::from_fn(per_request_us),
    };
    (client_ms, budget)
}

/// `TRANSPORT_REQUESTS` close-per-request `/healthz` round trips:
/// every request pays connect + request + response + teardown.
fn close_round(addr: SocketAddr) -> f64 {
    let start = Instant::now();
    for _ in 0..TRANSPORT_REQUESTS {
        let (status, _) = http::get(addr, "/healthz").expect("close-mode request");
        assert_eq!(status, 200);
    }
    start.elapsed().as_secs_f64()
}

/// `TRANSPORT_REQUESTS` `/healthz` round trips over one keep-alive
/// connection, pipelined `PIPELINE_DEPTH` at a time.
fn keepalive_round(addr: SocketAddr) -> f64 {
    let start = Instant::now();
    let mut conn = http::ClientConn::connect(addr).expect("keep-alive connect");
    let mut sent = 0;
    while sent < TRANSPORT_REQUESTS {
        let batch = PIPELINE_DEPTH.min(TRANSPORT_REQUESTS - sent);
        for _ in 0..batch {
            conn.send("/healthz", &[]).expect("pipeline send");
        }
        conn.flush().expect("pipeline flush");
        for _ in 0..batch {
            let response = conn.recv().expect("pipeline recv");
            assert_eq!(response.status, 200);
            assert!(!response.close, "server closed a keep-alive connection");
        }
        sent += batch;
    }
    start.elapsed().as_secs_f64()
}

/// Picks one `(workload, accesses)` row request owned by each shard, so
/// the cluster phase provably exercises every shard. The ring is
/// deterministic, so this search is too.
fn rows_covering_all_shards(shard_count: usize) -> Vec<(String, usize)> {
    let map = cluster::ShardMap::new(shard_count);
    let mut picks: Vec<Option<(String, usize)>> = vec![None; shard_count];
    for workload in WORKLOADS {
        for step in 0..shard_count {
            let accesses = CLUSTER_ACCESSES + step * 500;
            let key = persist::request_key(
                "fixed_capacity",
                workload,
                None,
                accesses,
                nvm_llc::sim::PolicyKind::Lru,
            );
            let owner = map.owner(&key);
            if picks[owner].is_none() {
                picks[owner] = Some((workload.to_owned(), accesses));
            }
        }
    }
    picks
        .into_iter()
        .map(|p| p.expect("a row owned by every shard"))
        .collect()
}

/// Reserves `n` distinct loopback ports: bind, record, drop. The gap
/// between drop and the shard's own bind is a benign race on loopback.
fn reserve_ports(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("reserved addr"))
        .collect()
}

struct ClusterReport {
    shard_requests: Vec<u64>,
    rows_checked: usize,
    router_row_ms: f64,
}

/// Stands up shards + router, routes one row per shard through the
/// router, and checks byte-identity against a standalone daemon.
fn cluster_phase(tmp: &std::path::Path, standalone: SocketAddr) -> ClusterReport {
    const SHARDS: usize = 3;
    let addrs = reserve_ports(SHARDS);
    let peers: Vec<String> = addrs.iter().map(|a| a.to_string()).collect();
    let shards: Vec<Server> = (0..SHARDS)
        .map(|id| {
            Server::start(ServeConfig {
                addr: peers[id].clone(),
                workers: 4,
                base_accesses: CLUSTER_ACCESSES,
                store_dir: Some(tmp.join(format!("shard-{id}"))),
                cluster: Some(cluster::ClusterConfig {
                    shard_id: id,
                    shard_count: SHARDS,
                    peers: peers.clone(),
                }),
                ..ServeConfig::default()
            })
            .expect("start shard")
        })
        .collect();
    let router = Server::start_router(RouterConfig {
        addr: "127.0.0.1:0".into(),
        peers: peers.clone(),
        ..RouterConfig::default()
    })
    .expect("start router");

    let rows = rows_covering_all_shards(SHARDS);
    let mut router_ms = Vec::new();
    for (workload, accesses) in &rows {
        let target = format!("/row?workload={workload}&accesses={accesses}");
        let start = Instant::now();
        let (status, via_router) = http::get(router.addr(), &target).expect("routed row");
        router_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(status, 200, "{target}: {via_router}");
        let (status, direct) = http::get(standalone, &target).expect("standalone row");
        assert_eq!(status, 200, "{target}: {direct}");
        assert_eq!(
            via_router, direct,
            "routed row must be byte-identical to the standalone daemon ({target})"
        );
    }

    // Every shard must have answered at least one routed request.
    let shard_requests: Vec<u64> = shards
        .iter()
        .map(|shard| {
            let (status, stats) = http::get(shard.addr(), "/statsz").expect("shard statsz");
            assert_eq!(status, 200);
            let field = stats
                .split("\"requests\":")
                .nth(1)
                .expect("requests field in shard statsz");
            let digits: String = field.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().expect("numeric requests field")
        })
        .collect();
    for (id, &served) in shard_requests.iter().enumerate() {
        // >= 2: the routed row plus this /statsz probe itself.
        assert!(served >= 2, "shard {id} served nothing: {shard_requests:?}");
    }

    router.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    ClusterReport {
        shard_requests,
        rows_checked: rows.len(),
        router_row_ms: mean(&router_ms),
    }
}

#[cfg(unix)]
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// Sends SIGTERM to `child`.
#[cfg(unix)]
fn terminate(child: &std::process::Child) {
    const SIGTERM: i32 = 15;
    let pid = i32::try_from(child.id()).expect("pid fits in pid_t");
    // SAFETY: kill(2) takes plain integers; `pid` is our own child, not
    // yet reaped, so it cannot name another process.
    unsafe {
        kill(pid, SIGTERM);
    }
}

/// Without signals, the drain cannot be asked for gracefully.
#[cfg(not(unix))]
fn terminate(child: &std::process::Child) {
    let _ = child;
    unimplemented!("the drain phase sends SIGTERM, which needs unix");
}

/// Starts this binary as a daemon (`--daemon`) on a free loopback port,
/// holds one idle keep-alive connection to it, then times SIGTERM to
/// process exit, in milliseconds.
fn drain_round() -> f64 {
    let addr = reserve_ports(1)[0];
    let mut child = Command::new(std::env::current_exe().expect("own executable"))
        .args(["--daemon", "--addr", &addr.to_string(), "--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn daemon");
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut conn = loop {
        if let Ok(mut conn) = http::ClientConn::connect(addr) {
            if conn.get("/healthz").is_ok_and(|(status, _)| status == 200) {
                break conn;
            }
        }
        assert!(Instant::now() < deadline, "daemon did not come up");
        std::thread::sleep(Duration::from_millis(5));
    };
    // The connection stays open and idle, pinning a worker in its read.
    let (status, _) = conn.get("/healthz").expect("keep-alive request");
    assert_eq!(status, 200);
    let start = Instant::now();
    terminate(&child);
    let exit = child.wait().expect("wait for daemon");
    let drain_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(exit.success(), "daemon exited with {exit}");
    drop(conn);
    drain_ms
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--daemon") {
        let config = ServeConfig::parse_args(&args[1..]).expect("daemon flags");
        nvm_llc::serve::run(config).expect("daemon");
        return;
    }
    let tmp = std::env::temp_dir().join(format!("nvm-llcd-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let dir = tmp.join("standalone");
    let config = || ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: BURST_CLIENTS,
        max_evals: 4,
        base_accesses: BASE_ACCESSES,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };

    // Cold and warm-memory regimes on the first daemon.
    let first = Server::start(config()).expect("start daemon");
    let addr = first.addr();
    let (cold_ms, cold_budget) = row_regime(addr, 1);
    warm_up(addr);
    let (warm_memory_ms, warm_memory_budget) = row_regime(addr, WARM_PASSES);
    first.shutdown();

    // Warm-store regime: a restarted daemon, same directory.
    let second = Server::start(config()).expect("restart daemon");
    let addr = second.addr();
    warm_up(addr);
    let (warm_store_ms, warm_store_budget) = row_regime(addr, WARM_PASSES);

    // Transport comparison: strict alternation, so both modes sample
    // the same machine state.
    let mut close_s = 0.0;
    let mut keepalive_s = 0.0;
    for _ in 0..TRANSPORT_ROUNDS {
        close_s += close_round(addr);
        keepalive_s += keepalive_round(addr);
    }
    let transport_requests = (TRANSPORT_ROUNDS * TRANSPORT_REQUESTS) as f64;
    let rps_close = transport_requests / close_s;
    let rps_keepalive = transport_requests / keepalive_s;
    let speedup = rps_keepalive / rps_close;

    // Burst: concurrent clients cycling over the warm workloads.
    let barrier = Arc::new(Barrier::new(BURST_CLIENTS));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..BURST_CLIENTS {
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                barrier.wait();
                for round in 0..BURST_ROUNDS {
                    let workload = WORKLOADS[(client + round) % WORKLOADS.len()];
                    timed_get(addr, &row_target(workload));
                }
            });
        }
    });
    let burst_s = start.elapsed().as_secs_f64();
    let burst_requests = BURST_CLIENTS * BURST_ROUNDS;
    let throughput = burst_requests as f64 / burst_s;

    // Cluster: 3 shards + router, byte-compared against this daemon.
    let report = cluster_phase(&tmp, addr);

    let (status, statsz) = http::get(addr, "/statsz").expect("statsz");
    assert_eq!(status, 200);
    second.shutdown();
    let _ = std::fs::remove_dir_all(&tmp);

    let mut drain_ms: Vec<f64> = (0..DRAIN_ROUNDS).map(|_| drain_round()).collect();
    drain_ms.sort_by(f64::total_cmp);
    let drain_median = drain_ms[DRAIN_ROUNDS / 2];
    let drain_max = drain_ms[DRAIN_ROUNDS - 1];
    let budgets = [
        ("cold", &cold_budget),
        ("warm_memory", &warm_memory_budget),
        ("warm_store", &warm_store_budget),
    ];
    let phase_json: Vec<String> = budgets
        .iter()
        .map(|(regime, budget)| format!("    \"{regime}\": {}", budget.json()))
        .collect();

    let cold = mean(&cold_ms);
    let warm_memory = mean(&warm_memory_ms);
    let warm_store = mean(&warm_store_ms);
    let shard_requests: Vec<String> = report.shard_requests.iter().map(u64::to_string).collect();
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"config\": {{\n    \"workloads\": {},\n    \"warm_passes\": {},\n    \"base_accesses\": {},\n    \"workers\": {},\n    \"burst_clients\": {},\n    \"burst_requests\": {},\n    \"transport_requests_per_mode\": {},\n    \"pipeline_depth\": {}\n  }},\n  \"row_latency_ms\": {{\n    \"cold\": {:.3},\n    \"warm_memory\": {:.3},\n    \"warm_store\": {:.3},\n    \"cold_over_warm_store\": {:.2}\n  }},\n  \"phase_us\": {{\n{},\n    \"max_unattributed_frac\": {}\n  }},\n  \"transport\": {{\n    \"requests_per_sec_close\": {:.1},\n    \"requests_per_sec_keepalive\": {:.1},\n    \"keepalive_speedup\": {:.2}\n  }},\n  \"burst\": {{\n    \"requests_per_sec\": {:.1},\n    \"wall_s\": {:.3}\n  }},\n  \"cluster\": {{\n    \"shards\": {},\n    \"rows_checked\": {},\n    \"rows_byte_identical\": true,\n    \"router_row_ms\": {:.3},\n    \"shard_requests\": [{}]\n  }},\n  \"drain_ms\": {{\n    \"median\": {:.1},\n    \"max\": {:.1},\n    \"bound\": {},\n    \"rounds\": {}\n  }},\n  \"statsz\": {}\n}}\n",
        WORKLOADS.len(),
        WARM_PASSES,
        BASE_ACCESSES,
        BURST_CLIENTS,
        BURST_CLIENTS,
        burst_requests,
        TRANSPORT_ROUNDS * TRANSPORT_REQUESTS,
        PIPELINE_DEPTH,
        cold,
        warm_memory,
        warm_store,
        cold / warm_store,
        phase_json.join(",\n"),
        MAX_UNATTRIBUTED_FRAC,
        rps_close,
        rps_keepalive,
        speedup,
        throughput,
        burst_s,
        report.shard_requests.len(),
        report.rows_checked,
        report.router_row_ms,
        shard_requests.join(", "),
        drain_median,
        drain_max,
        DRAIN_BOUND_MS,
        DRAIN_ROUNDS,
        statsz.trim_end(),
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, &json).expect("write BENCH_serve.json");
    print!("{json}");

    assert!(
        warm_store < cold,
        "a restarted daemon must serve warm rows faster than cold ones \
         (cold {cold:.1} ms, warm-store {warm_store:.1} ms)"
    );
    for (regime, budget) in budgets {
        assert!(
            budget.unattributed_frac() <= MAX_UNATTRIBUTED_FRAC,
            "{regime} rows: {:.0} of {:.0} us per request sit in no server phase \
             ({:.2} > {MAX_UNATTRIBUTED_FRAC}) — the bench is timing the transport",
            budget.unattributed_us(),
            budget.client_us,
            budget.unattributed_frac(),
        );
    }
    assert!(
        drain_max <= DRAIN_BOUND_MS,
        "SIGTERM drain with an idle keep-alive connection took {drain_max:.0} ms \
         (bound {DRAIN_BOUND_MS} ms): {drain_ms:?}"
    );
    assert!(
        speedup >= 2.0,
        "keep-alive must at least double close-per-request throughput \
         (close {rps_close:.0} rps, keep-alive {rps_keepalive:.0} rps, {speedup:.2}x)"
    );
}
