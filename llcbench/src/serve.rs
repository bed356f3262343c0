//! `serve-warm` and `serve-store`: open-loop traffic against the shipped
//! `nvm-llcd` daemon, run as a child process.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use nvm_llc::circuit::reference;
use nvm_llc::experiments::Configuration;
use nvm_llc::serve::{json, ServeConfig};
use nvm_llc::sim::{persist, Evaluator};
use nvm_llc::store::Store;
use nvm_llc::trace::{workloads, WorkloadProfile};

use crate::awake::KeepAwake;
use crate::client::{drive, BodyCheck, Cut, Pace, StepResult, SyncClient};
use crate::daemon::Daemon;
use crate::matrix::{cell_system, freq_hz, row_models};
use crate::metricsz::Scrape;
use crate::mix::{Generator, Kind, Mix, Planned, Rng, Route};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{latencies_ms, lateness_ms, median, ms, tail, Tail};

/// The latency limit: only requests answered within it count toward
/// `max_rps` and `cells_per_s`.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(100);

/// An open-loop request unanswered this long has failed.
const GIVE_UP: Duration = Duration::from_secs(1);

/// The evaluation rate `p50_ms` and `p99_ms` are reported at
/// (requests/s; the periodic probes come on top).
pub const REFERENCE_RATE: f64 = 400.0;

/// Share of the run given to the reference step; the capacity step gets
/// the rest.
const REFERENCE_SHARE: f64 = 0.5;

/// Requests the capacity step keeps in flight.
pub const OUTSTANDING: usize = 16;

/// The capacity step's plan is drawn at this nominal rate. Its requests
/// go out in plan order as soon as the window allows, so the rate only
/// bounds how many there are: several times what the daemon answers.
const PLAN_RATE: f64 = 10_000.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// An open-loop step is cut (stops sending, and fails) once half the
/// daemon's accept queue is taken by waiting fresh connections or a
/// request has waited [`GIVE_UP`]: the daemon has fallen behind for good,
/// and piling on would only fill the accept queue until it refuses
/// connections.
fn open_pace() -> Pace {
    Pace::Open(Cut {
        fresh: ServeConfig::default().queue_capacity / 2,
        age: GIVE_UP,
        drain: Duration::from_secs(10),
    })
}

/// The daemon's trace seed (requests carry no seed).
const DAEMON_SEED: u64 = nvm_llc::sim::runner::DEFAULT_SEED;

/// Which serve workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// No store: every request is a tape-cache hit plus replay.
    Warm,
    /// A restarted daemon on a populated store, plus never-seen keys.
    Store,
}

/// The traffic model. Evaluation keys are drawn uniformly over what the
/// daemon serves of the paper's Fig 1 / Fig 2 matrix: every workload,
/// both model sets, and per row its ten NVM cells plus the whole row — so
/// one evaluation in eleven is a `/row` and half ask for fixed area.
/// The fresh-connection share, the probe period, the never-seen share and
/// scale, and [`REFERENCE_RATE`] are assumptions: nothing in the
/// repository records real usage.
fn mix(flavor: Flavor) -> Mix {
    let techs: Vec<String> = reference::fixed_capacity()
        .iter()
        .filter(|m| m.name != "SRAM")
        .map(|m| m.name.clone())
        .collect();
    Mix {
        workloads: workloads::all()
            .iter()
            .map(|w| w.name().to_owned())
            .collect(),
        row_share: 1.0 / (techs.len() + 1) as f64,
        techs,
        fixed_area_share: 1.0 / Configuration::ALL.len() as f64,
        fresh_conn_share: 0.1,
        keepalive_conns: 2,
        never_seen_share: match flavor {
            Flavor::Warm => 0.0,
            Flavor::Store => 0.05,
        },
        probe_period: Duration::from_millis(250),
    }
}

fn daemon_bin() -> Result<PathBuf, String> {
    let bin = std::env::var_os("LLCBENCH_DAEMON")
        .map(PathBuf::from)
        .ok_or("LLCBENCH_DAEMON must name the nvm-llcd binary (run.sh sets it)")?;
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no daemon binary at {}", bin.display()))
    }
}

/// Requests every warm-up row once, checking each body.
fn warm(addr: std::net::SocketAddr, mix: &Mix, check: &mut BodyCheck, report: &mut Report) {
    let mut client = SyncClient::new(addr);
    for row in mix.warm_rows() {
        let ok = client
            .get(&row)
            .is_ok_and(|r| r.status == 200 && check.check(&row, &r.body));
        report.tally(ok);
    }
}

/// One set-up: a daemon whose caches (and, for `Store`, store) hold
/// every warm-up row. `Store` populates the store with a first daemon,
/// stops it, and warms a second one on the same directory.
fn setup_once(
    flavor: Flavor,
    work: &Path,
    index: usize,
    mix: &Mix,
    check: &mut BodyCheck,
    report: &mut Report,
) -> Result<(Daemon, Option<PathBuf>), String> {
    let bin = daemon_bin()?;
    let log = work.join(format!("daemon-{index}.log"));
    match flavor {
        Flavor::Warm => {
            let daemon = Daemon::start(&bin, None, &log)?;
            warm(daemon.addr, mix, check, report);
            Ok((daemon, None))
        }
        Flavor::Store => {
            let dir = work.join(format!("store-{index}"));
            let first = Daemon::start(
                &bin,
                Some(&dir),
                &work.join(format!("populate-{index}.log")),
            )?;
            warm(first.addr, mix, check, report);
            first.stop()?;
            let daemon = Daemon::start(&bin, Some(&dir), &log)?;
            warm(daemon.addr, mix, check, report);
            Ok((daemon, Some(dir)))
        }
    }
}

/// One open-loop step at `rate` for `length`, with the CPUs kept out of
/// idle (see [`crate::awake`]). Every sent request is
/// tallied, and if the step was cut, so is every request it left unsent,
/// as failed.
fn step(
    daemon: &Daemon,
    generator: &mut Generator,
    rate: f64,
    length: Duration,
    check: &mut BodyCheck,
    report: &mut Report,
) -> (Vec<Planned>, StepResult) {
    let plan = generator.schedule(rate, length);
    let awake = KeepAwake::start();
    let result = drive(daemon.addr, &plan, check, open_pace());
    drop(awake);
    for outcome in &result.outcomes {
        report.tally(outcome.is_some_and(|o| o.ok));
    }
    (plan, result)
}

/// `p50_ms` and `p99_ms` of the reference step, over all of it: the
/// serve-store tail is set by the few cold keys, so it needs every one of
/// them. A failed request misses every limit.
fn reference_latency(result: &StepResult) -> (f64, Option<Tail>) {
    let latencies: Vec<f64> = result
        .outcomes
        .iter()
        .flatten()
        .map(|o| {
            if o.ok {
                ms(o.timing.latency())
            } else {
                f64::INFINITY
            }
        })
        .collect();
    (median(&latencies), tail(&latencies, 99.0))
}

/// The capacity step: the mix in plan order with [`OUTSTANDING`]
/// requests in flight for `length` (a closed loop, so the backlog cannot
/// grow). Returns the requests and matrix cells per second answered
/// within `length` and within [`LATENCY_LIMIT`], and the step's tail
/// latency.
fn capacity(
    daemon: &Daemon,
    generator: &mut Generator,
    length: Duration,
    check: &mut BodyCheck,
    report: &mut Report,
) -> (f64, f64, Option<Tail>) {
    let plan = generator.schedule(PLAN_RATE, length);
    let pace = Pace::Closed {
        outstanding: OUTSTANDING,
        length,
        drain: Duration::from_secs(10),
    };
    let awake = KeepAwake::start();
    let result = drive(daemon.addr, &plan, check, pace);
    drop(awake);
    let (mut answered, mut cells) = (0u64, 0u64);
    for (p, o) in plan.iter().zip(&result.outcomes) {
        let Some(o) = o else { continue };
        report.tally(o.ok);
        if o.ok && o.timing.done <= length && o.timing.latency() <= LATENCY_LIMIT {
            answered += 1;
            cells += u64::from(p.cells);
        }
    }
    let timings: Vec<_> = result.outcomes.iter().flatten().map(|o| o.timing).collect();
    let secs = length.as_secs_f64();
    (
        answered as f64 / secs,
        cells as f64 / secs,
        tail(&latencies_ms(&timings), 99.0),
    )
}

/// The daemon default every request without `accesses` runs at.
fn default_accesses() -> usize {
    ServeConfig::default().base_accesses
}

fn param<'a>(target: &'a str, name: &str) -> Option<&'a str> {
    let query = target.split_once('?')?.1;
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
}

fn profile(target: &str) -> Option<WorkloadProfile> {
    workloads::by_name(param(target, "workload")?)
}

fn configuration(target: &str) -> Configuration {
    match param(target, "models") {
        Some("fixed_area") => Configuration::FixedArea,
        _ => Configuration::FixedCapacity,
    }
}

/// Trace length and post-warm-up events of a request's trace.
fn trace_events(target: &str) -> (u64, u64) {
    let Some(w) = profile(target) else {
        return (0, 0);
    };
    let accesses = param(target, "accesses")
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(default_accesses);
    let len = w.scaled_accesses(accesses) * usize::from(w.threads().max(1));
    let warm = ((len as f64 * nvm_llc::sim::runner::DEFAULT_WARMUP) as usize).min(len);
    (len as u64, (len - warm) as u64)
}

/// Every `"field":<number>` value in a JSON body.
fn field_values(body: &str, field: &str) -> Vec<f64> {
    let needle = format!("\"{field}\":");
    body.match_indices(&needle)
        .filter_map(|(at, _)| {
            let rest = &body[at + needle.len()..];
            let end = rest.find([',', '}']).unwrap_or(rest.len());
            rest[..end].parse::<f64>().ok()
        })
        .collect()
}

/// Rebuilds a row or cell in process and compares it with the first
/// body the daemon served for it.
fn in_process_check(target: &str, check: &BodyCheck, report: &mut Report) {
    let Some(w) = profile(target) else {
        report.tally(false);
        return;
    };
    let models = row_models(configuration(target));
    let (baseline, rest) = models.split_first().expect("SRAM first");
    let nvms: Vec<_> = match param(target, "tech") {
        Some(tech) => rest.iter().filter(|m| m.name == tech).cloned().collect(),
        None => rest.to_vec(),
    };
    let row = Evaluator::new(baseline.clone(), nvms)
        .base_accesses(default_accesses())
        .threads(1)
        .run_workload(&w);
    let body = match param(target, "tech") {
        Some(_) => row
            .entries
            .first()
            .map(|e| json::render_cell(&row.workload, e)),
        None => Some(json::render_row(&row)),
    };
    let ok = body.is_some_and(|b| check.first(target) == Some(b.as_bytes()));
    if !ok {
        report.broken.push(format!(
            "{target}: served body differs from in-process evaluation"
        ));
    }
    report.tally(ok);
}

/// Work directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(name: &str) -> Result<WorkDir, String> {
        let dir = PathBuf::from(".bench_work").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

fn name(flavor: Flavor) -> &'static str {
    match flavor {
        Flavor::Warm => "serve-warm",
        Flavor::Store => "serve-store",
    }
}

/// The untraced run: [`SETUPS`] set-ups, the open-loop reference step,
/// then the closed-loop capacity step.
pub fn run(flavor: Flavor, seed: u64, seconds: Duration) -> Result<Report, String> {
    let work = WorkDir::new(name(flavor))?;
    let mix = mix(flavor);
    let mut report = Report::default();
    let mut check = BodyCheck::default();
    let mut setups = Vec::new();
    let mut kept: Option<(Daemon, Option<PathBuf>)> = None;
    for index in 0..SETUPS {
        if let Some((daemon, dir)) = kept.take() {
            daemon.stop()?;
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
        let t = Instant::now();
        kept = Some(setup_once(
            flavor,
            &work.0,
            index,
            &mix,
            &mut check,
            &mut report,
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (daemon, _) = kept.expect("at least one set-up");

    let mut generator = Generator::new(seed, mix.clone());
    let length = seconds.mul_f64(REFERENCE_SHARE);
    let (_, result) = step(
        &daemon,
        &mut generator,
        REFERENCE_RATE,
        length,
        &mut check,
        &mut report,
    );
    let (p50_ms, p99) = reference_latency(&result);
    let p99_ms = p99.map_or(f64::INFINITY, |t| t.value);
    eprintln!(
        "{}: {REFERENCE_RATE} req/s: p50 {p50_ms:.3} ms, p{:.1} {p99_ms:.3} ms over {} samples, \
         cut {}",
        name(flavor),
        p99.map_or(0.0, |t| t.percentile),
        p99.map_or(0, |t| t.samples),
        result.cut
    );
    // Read before the capacity step, whose never-seen keys depend on how
    // fast the daemon answers.
    let peak = peak_rss_mb(&daemon.pid());
    let (max_rps, cells_per_s, t) = capacity(
        &daemon,
        &mut generator,
        seconds.saturating_sub(length),
        &mut check,
        &mut report,
    );
    eprintln!(
        "{}: capacity with {OUTSTANDING} in flight: {max_rps:.1} req/s, {cells_per_s:.1} cells/s, \
         p{:.1} {:.3} ms",
        name(flavor),
        t.map_or(0.0, |t| t.percentile),
        t.map_or(0.0, |t| t.value)
    );
    spot_checks(seed, &mix, &daemon, &mut check, &mut report);
    daemon.stop()?;

    report.set("setup_s", median(&setups));
    report.set("cells_per_s", cells_per_s);
    report.set("p50_ms", p50_ms);
    report.set("p99_ms", p99_ms);
    report.set("max_rps", max_rps);
    report.set("peak_rss_mb", peak);
    Ok(report)
}

/// A seeded row and cell, fetched once more and rebuilt in process.
fn spot_checks(seed: u64, mix: &Mix, daemon: &Daemon, check: &mut BodyCheck, report: &mut Report) {
    let mut rng = Rng::new(seed ^ 0xc4ec);
    let workload = &mix.workloads[rng.below(mix.workloads.len())];
    let tech = &mix.techs[rng.below(mix.techs.len())];
    let targets = [
        format!("/row?workload={workload}&models=fixed_area"),
        format!("/eval?workload={workload}&tech={tech}"),
    ];
    let mut client = SyncClient::new(daemon.addr);
    for target in &targets {
        let ok = client
            .get(target)
            .is_ok_and(|r| r.status == 200 && check.check(target, &r.body));
        report.tally(ok);
        in_process_check(target, check, report);
    }
}

fn scrape(daemon: &Daemon) -> Result<Scrape, String> {
    let r = SyncClient::new(daemon.addr)
        .get("/metricsz")
        .map_err(|e| format!("/metricsz: {e}"))?;
    Ok(Scrape::parse(&String::from_utf8_lossy(&r.body)))
}

/// Latencies (µs) of the answered requests of a step.
fn answered_us(result: &StepResult) -> Vec<f64> {
    result
        .outcomes
        .iter()
        .flatten()
        .filter(|o| o.ok)
        .map(|o| o.timing.latency().as_secs_f64() * 1e6)
        .collect()
}

fn class_p50(plan: &[Planned], result: &StepResult, keep: impl Fn(&Planned) -> bool) -> f64 {
    let timings: Vec<_> = plan
        .iter()
        .zip(&result.outcomes)
        .filter(|(p, _)| keep(p))
        .filter_map(|(_, o)| o.filter(|o| o.ok).map(|o| o.timing))
        .collect();
    median(&latencies_ms(&timings))
}

/// The traced run: one set-up, an untraced reference-rate step, then a
/// step bracketed by `/metricsz` scrapes whose deltas split it into
/// layers. `Store` also times the store over the run's directory after
/// the daemon exits.
pub fn run_traced(flavor: Flavor, seed: u64, seconds: Duration) -> Result<Report, String> {
    let work = WorkDir::new(name(flavor))?;
    let mix = mix(flavor);
    let mut report = Report::default();
    let mut check = BodyCheck::default();
    let (daemon, dir) = setup_once(flavor, &work.0, 0, &mix, &mut check, &mut report)?;
    let mut generator = Generator::new(seed, mix.clone());
    let length = seconds.mul_f64(0.4);
    let (_, untraced) = step(
        &daemon,
        &mut generator,
        REFERENCE_RATE,
        length,
        &mut check,
        &mut report,
    );
    let before = scrape(&daemon)?;
    let t = Instant::now();
    let (plan, result) = step(
        &daemon,
        &mut generator,
        REFERENCE_RATE,
        length,
        &mut check,
        &mut report,
    );
    let wall = t.elapsed();
    let after = scrape(&daemon)?;
    daemon.stop()?;
    let d = after.delta(&before);

    // Work the answered requests imply: functional passes (never-seen
    // keys only) and replayed event x technology pairs.
    let mut accesses_walked = 0u64;
    let mut event_techs = 0u64;
    let mut served: Vec<&str> = Vec::new();
    for (p, o) in plan.iter().zip(&result.outcomes) {
        if !o.is_some_and(|o| o.ok) || p.kind == Kind::Healthz {
            continue;
        }
        served.push(&p.target);
        let (len, events) = trace_events(&p.target);
        if p.never_seen {
            accesses_walked += len;
        }
        if flavor == Flavor::Warm || p.never_seen {
            let systems = if p.kind == Kind::Row { 11 } else { 2 };
            event_techs += events * systems;
        }
    }
    served.sort_unstable();
    served.dedup();
    let hz = freq_hz();
    let (mut misses, mut writebacks, mut cycles) = (0.0, 0.0, 0.0);
    for target in &served {
        let body = String::from_utf8_lossy(check.first(target).unwrap_or_default()).into_owned();
        misses += field_values(&body, "llc_misses").iter().sum::<f64>();
        writebacks += field_values(&body, "dram_writebacks").iter().sum::<f64>();
        cycles += field_values(&body, "exec_time_s")
            .iter()
            .map(|s| (s * hz).round())
            .sum::<f64>();
    }

    let answered = answered_us(&result);
    let client_mean = answered.iter().sum::<f64>() / answered.len().max(1) as f64;
    let handle_us = d.mean("nvmllc_serve_request_seconds") * 1e6;
    let generate = d.get("nvmllc_trace_generate_seconds_sum");
    let record = d.get("nvmllc_tape_record_seconds_sum");
    let decode = d.get("nvmllc_tape_decode_seconds_sum");
    let replay =
        d.get("nvmllc_tape_replay_seconds_sum") + d.get("nvmllc_tape_replay_batch_seconds_sum");
    let run_all = d.get("nvmllc_eval_run_all_seconds_sum");
    let ratio = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    let timings: Vec<_> = result.outcomes.iter().flatten().map(|o| o.timing).collect();

    report.set("trace.generate_ms", generate * 1e3);
    report.set("sim.record_ms", record * 1e3);
    report.set(
        "sim.record_ns_per_access",
        if accesses_walked > 0 {
            record * 1e9 / accesses_walked as f64
        } else {
            0.0
        },
    );
    report.set("sim.records", d.get("nvmllc_tape_record_seconds_count"));
    report.set("tape.decode_ms", decode * 1e3);
    report.set("tape.bytes", after.get("nvmllc_tape_cache_resident_bytes"));
    report.set(
        "tape.cache_hit_ratio",
        ratio(
            d.get("nvmllc_tape_cache_hits_total"),
            d.get("nvmllc_tape_cache_misses_total"),
        ),
    );
    report.set("sim.replay_ms", replay * 1e3);
    report.set(
        "sim.replay_ns_per_event_tech",
        if event_techs > 0 {
            replay * 1e9 / event_techs as f64
        } else {
            0.0
        },
    );
    report.set("runner.wall_ms", run_all * 1e3);
    report.set(
        "runner.unattributed_ms",
        (run_all - generate - record - decode - replay) * 1e3,
    );
    report.set(
        "store.hit_ratio",
        ratio(
            d.get("nvmllc_store_hits_total"),
            d.get("nvmllc_store_misses_total"),
        ),
    );
    report.set(
        "store.bytes_written",
        d.get("nvmllc_store_bytes_written_total"),
    );
    report.set("store.bytes_read", d.get("nvmllc_store_bytes_read_total"));
    report.set(
        "serve.new_conn_p50_ms",
        class_p50(&plan, &result, |p| p.route == Route::Fresh),
    );
    report.set(
        "serve.keepalive_p50_ms",
        class_p50(&plan, &result, |p| p.route != Route::Fresh),
    );
    report.set(
        "serve.healthz_p50_ms",
        class_p50(&plan, &result, |p| p.kind == Kind::Healthz),
    );
    report.set(
        "serve.queue_wait_us",
        d.mean("nvmllc_serve_queue_wait_seconds") * 1e6,
    );
    report.set("serve.handle_us", handle_us);
    report.set("serve.unattributed_us", client_mean - handle_us);
    report.set("serve.client_mean_us", client_mean);
    report.set(
        "serve.rejected",
        d.family_sum("nvmllc_serve_rejected_total"),
    );
    report.set(
        "serve.coalesce_hits",
        d.get("nvmllc_serve_coalesce_waiters_total"),
    );
    report.set("serve.samples", timings.len() as f64);
    report.set("sim.llc_misses", misses);
    report.set("sim.dram_writebacks", writebacks);
    report.set("sim.exec_cycles", cycles);
    report.set(
        "serve.gen_late_ms",
        tail(&lateness_ms(&timings), 99.0).map_or(0.0, |t| t.value),
    );
    report.set(
        "bench.trace_overhead_pct",
        (median(&answered) / median(&answered_us(&untraced)) - 1.0) * 100.0,
    );
    report.set("bench.wall_ms", ms(wall));
    if let Some(dir) = dir {
        time_store(&dir, &work.0, &mix, &check, &mut report)?;
    }
    Ok(report)
}

/// Times `Store::get_mapped` + `persist::decode_result` over every
/// warm-up cell in the run's store directory, checks each decoded result
/// against the body served for its row, then times `Store::put` of the
/// same payloads into a fresh directory.
fn time_store(
    dir: &Path,
    work: &Path,
    mix: &Mix,
    check: &BodyCheck,
    report: &mut Report,
) -> Result<(), String> {
    let store = Store::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut payloads = Vec::new();
    let mut get_s = 0.0;
    for row in mix.warm_rows() {
        let w = profile(&row).ok_or("warm row without a workload")?;
        let trace = w.generate_shared(DAEMON_SEED, w.scaled_accesses(default_accesses()));
        let body = String::from_utf8_lossy(check.first(&row).unwrap_or_default()).into_owned();
        for llc in row_models(configuration(&row)) {
            let key = persist::result_store_key(&cell_system(&llc), &trace);
            let t = Instant::now();
            let payload = store.get_mapped(&key);
            let result = payload.as_deref().and_then(persist::decode_result);
            get_s += t.elapsed().as_secs_f64();
            let ok = result.is_some_and(|r| body.contains(&json::render_result(&r)));
            if !ok {
                report.broken.push(format!(
                    "{row}: stored {} result missing or unlike the served one",
                    llc.name
                ));
            }
            report.tally(ok);
            if let Some(p) = payload {
                payloads.push((key, p.to_vec()));
            }
        }
    }
    let fresh = Store::open(work.join("put-timing")).map_err(|e| format!("put store: {e}"))?;
    let t = Instant::now();
    for (key, payload) in &payloads {
        fresh.put(key, payload).map_err(|e| format!("put: {e}"))?;
    }
    let put_s = t.elapsed().as_secs_f64();
    let n = payloads.len().max(1) as f64;
    report.set("store.get_us", get_s * 1e6 / n);
    report.set("store.put_us", put_s * 1e6 / n);
    Ok(())
}
