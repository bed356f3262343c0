//! The seeded request mix of the serve workloads: which endpoint, which
//! key, which connection, and when — all derived from `--seed`, so the
//! same seed replays the same traffic.

use std::time::Duration;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream depends only on `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Which connection a request travels on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// A connection opened for this request alone (`Connection: close`).
    Fresh,
    /// One of the long-lived pipelined keep-alive connections: the one
    /// planned, unless another has fewer requests outstanding when it is
    /// sent.
    KeepAlive(usize),
}

/// Which endpoint a request hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `/eval`: one technology's cell.
    Eval,
    /// `/row`: SRAM plus every technology for one workload.
    Row,
    /// `/healthz`: a liveness probe.
    Healthz,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// When it is due, from the start of its step.
    pub due: Duration,
    /// Request target (path and query); also its correctness key.
    pub target: String,
    /// Endpoint.
    pub kind: Kind,
    /// Connection.
    pub route: Route,
    /// Matrix cells a 200 answer carries (row 11, eval 1, probe 0).
    pub cells: u32,
    /// Whether the key has never been requested before (cold work).
    pub never_seen: bool,
}

/// Replacement policies a never-seen key may name.
const POLICIES: [&str; 6] = ["lru", "random", "srrip", "drrip", "ship", "endurance"];

/// Never-seen keys are numbered `k = 0, 1, ...` and mapped to `(a·k + b)
/// mod NEW_KEY_SPAN`, a bijection on `k < NEW_KEY_SPAN` (the span is
/// prime), which is then split into a policy (the remainder by the
/// policy count) and an `accesses` value (`NEW_ACCESSES_LOW` plus the
/// quotient, below the daemon's default of 20 000). No two never-seen
/// keys of one run are equal, and none is a repeatable key.
const NEW_ACCESSES_LOW: u64 = 2_000;
const NEW_KEY_SPAN: u64 = 30_011;

/// Shares and key spaces of one traffic mix.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Workload names keys draw from.
    pub workloads: Vec<String>,
    /// Technology names `/eval` keys draw from.
    pub techs: Vec<String>,
    /// Share of evaluation requests asking for a whole `/row` (the rest
    /// ask for one `/eval` cell).
    pub row_share: f64,
    /// Share of evaluations asking for the fixed-area model set.
    pub fixed_area_share: f64,
    /// Share of evaluation requests sent on a fresh connection.
    pub fresh_conn_share: f64,
    /// Long-lived keep-alive connections.
    pub keepalive_conns: usize,
    /// Share of `/eval` requests for a never-seen key.
    pub never_seen_share: f64,
    /// One `/healthz` probe per period, each on a fresh connection,
    /// whatever the evaluation rate.
    pub probe_period: Duration,
}

impl Mix {
    /// Every repeatable evaluation key of the mix: the rows (both model
    /// sets) whose warm-up also warms every `/eval` cell of the row.
    pub fn warm_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for w in &self.workloads {
            rows.push(row_target(w, false));
            rows.push(row_target(w, true));
        }
        rows
    }
}

fn models_param(fixed_area: bool) -> &'static str {
    if fixed_area {
        "&models=fixed_area"
    } else {
        ""
    }
}

fn row_target(workload: &str, fixed_area: bool) -> String {
    format!("/row?workload={workload}{}", models_param(fixed_area))
}

/// Turns a seed into schedules, step after step. The generator carries
/// its state across steps, so never-seen keys stay unique for the run.
#[derive(Debug, Clone)]
pub struct Generator {
    mix: Mix,
    rng: Rng,
    next_keepalive: usize,
    never_seen: u64,
    perm: (u64, u64),
}

impl Generator {
    /// A generator for `mix` seeded with `seed`.
    pub fn new(seed: u64, mix: Mix) -> Generator {
        let mut rng = Rng::new(seed);
        let a = 1 + rng.next_u64() % (NEW_KEY_SPAN - 1);
        let b = rng.next_u64() % NEW_KEY_SPAN;
        Generator {
            mix,
            rng,
            next_keepalive: 0,
            never_seen: 0,
            perm: (a, b),
        }
    }

    /// Evaluation requests arriving as a Poisson process at `rate` per
    /// second for `length`, merged with the periodic `/healthz` probes.
    pub fn schedule(&mut self, rate: f64, length: Duration) -> Vec<Planned> {
        let mut plan = Vec::new();
        let mut t = 0.0;
        loop {
            t += -(1.0 - self.rng.unit()).ln() / rate;
            if t >= length.as_secs_f64() {
                break;
            }
            plan.push(self.evaluation(Duration::from_secs_f64(t)));
        }
        let period = self.mix.probe_period;
        if !period.is_zero() {
            let probes = (1..)
                .map(|k| period * k)
                .take_while(|&due| due < length)
                .map(|due| Planned {
                    due,
                    target: "/healthz".to_owned(),
                    kind: Kind::Healthz,
                    route: Route::Fresh,
                    cells: 0,
                    never_seen: false,
                });
            plan.extend(probes);
            plan.sort_by_key(|p| p.due);
        }
        plan
    }

    fn evaluation(&mut self, due: Duration) -> Planned {
        let route = if self.rng.unit() < self.mix.fresh_conn_share {
            Route::Fresh
        } else {
            let conn = self.next_keepalive % self.mix.keepalive_conns.max(1);
            self.next_keepalive += 1;
            Route::KeepAlive(conn)
        };
        let row = self.rng.unit() < self.mix.row_share;
        let workload = self.mix.workloads[self.rng.below(self.mix.workloads.len())].clone();
        let fixed_area = self.rng.unit() < self.mix.fixed_area_share;
        let (target, kind, cells, never_seen) = if row {
            (row_target(&workload, fixed_area), Kind::Row, 11, false)
        } else {
            let tech = self.mix.techs[self.rng.below(self.mix.techs.len())].clone();
            if self.rng.unit() < self.mix.never_seen_share {
                (
                    self.never_seen_target(&workload, &tech),
                    Kind::Eval,
                    1,
                    true,
                )
            } else {
                let target = format!(
                    "/eval?workload={workload}&tech={tech}{}",
                    models_param(fixed_area)
                );
                (target, Kind::Eval, 1, false)
            }
        };
        Planned {
            due,
            target,
            kind,
            route,
            cells,
            never_seen,
        }
    }

    fn never_seen_target(&mut self, workload: &str, tech: &str) -> String {
        let k = self.never_seen;
        self.never_seen += 1;
        assert!(k < NEW_KEY_SPAN, "more never-seen keys than the key space");
        let (a, b) = self.perm;
        let key = (a * k + b) % NEW_KEY_SPAN;
        let policies = POLICIES.len() as u64;
        let accesses = NEW_ACCESSES_LOW + key / policies;
        let policy = POLICIES[(key % policies) as usize];
        format!("/eval?workload={workload}&tech={tech}&accesses={accesses}&policy={policy}")
    }
}
