//! `matrix-cold`: the paper's Fig 1 + Fig 2 matrix in batch, in process,
//! from cold caches — what a researcher runs with `nvm-llc fig1|fig2`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use nvm_llc::experiments::{self, fig1, Configuration};
use nvm_llc::sim::runner::DEFAULT_WARMUP;
use nvm_llc::sim::tape::{self, OutcomeTape, TapeKey};
use nvm_llc::sim::{ArchConfig, MatrixEntry, MatrixRow, PolicyKind, SimResult, System};
use nvm_llc::trace::{self as trace_crate, workloads, WorkloadProfile};
use nvm_llc::Scale;

use crate::mix::Rng;
use crate::report::{peak_rss_mb, Report};
use crate::stats::{median, ms, tail};

/// Cells of the traced run checked against the fused `System::run`.
const FUSED_SAMPLE: usize = 4;

/// The CLI's default scale with the run's seed as the trace seed.
fn scale(seed: u64) -> Scale {
    Scale {
        seed,
        ..Scale::DEFAULT
    }
}

/// The two panels of one configuration, single-threaded first.
type Panels = [Vec<WorkloadProfile>; 2];

fn panels() -> Panels {
    [workloads::single_threaded(), workloads::multi_threaded()]
}

/// A whole matrix: per configuration, every row of both panels.
type Matrix = Vec<Vec<MatrixRow>>;

fn cells(matrix: &Matrix) -> usize {
    matrix.iter().flatten().map(|r| 1 + r.entries.len()).sum()
}

/// Cells of `got` that are not bit-identical to `want` (a missing row
/// counts all of its cells).
fn mismatched(want: &Matrix, got: &Matrix) -> u64 {
    let mut bad = 0;
    for (w, g) in want.iter().flatten().zip(got.iter().flatten()) {
        bad += u64::from(w.baseline != g.baseline || w.workload != g.workload);
        bad += w
            .entries
            .iter()
            .zip(&g.entries)
            .filter(|(a, b)| a != b)
            .count() as u64;
        bad += w.entries.len().abs_diff(g.entries.len()) as u64;
    }
    bad + cells(want).abs_diff(cells(got)) as u64
}

fn clear_caches() {
    trace_crate::cache::clear();
    tape::cache::clear();
}

/// The system the evaluator builds for one cell.
pub(crate) fn cell_system(llc: &nvm_llc::circuit::LlcModel) -> System {
    System::new(ArchConfig::gainestown(llc.clone()))
        .with_warmup(DEFAULT_WARMUP)
        .with_replacement(PolicyKind::Lru)
}

/// SRAM first, then the ten NVMs in Table III order: the cell order of
/// a matrix row.
pub(crate) fn row_models(config: Configuration) -> Vec<nvm_llc::circuit::LlcModel> {
    let models = config.models();
    let sram = models.iter().filter(|m| m.name == "SRAM").cloned();
    sram.chain(models.iter().filter(|m| m.name != "SRAM").cloned())
        .collect()
}

fn cell_of(row: &MatrixRow, column: usize) -> &SimResult {
    if column == 0 {
        &row.baseline
    } else {
        &row.entries[column - 1].result
    }
}

/// Re-runs `samples` seeded cells of `matrix` (traces from
/// `trace_seed`) through the fused single-pass `System::run`; each must
/// be bit-identical.
fn fused_check(
    trace_seed: u64,
    matrix: &Matrix,
    samples: usize,
    rng: &mut Rng,
    report: &mut Report,
) {
    let s = scale(trace_seed);
    let profiles: Vec<WorkloadProfile> = panels().into_iter().flatten().collect();
    for _ in 0..samples {
        let ci = rng.below(Configuration::ALL.len());
        let models = row_models(Configuration::ALL[ci]);
        let wi = rng.below(profiles.len());
        let column = rng.below(models.len());
        let w = &profiles[wi];
        let trace = w.generate(s.seed, w.scaled_accesses(s.base_accesses));
        let fused = cell_system(&models[column]).run(&trace);
        let ok = matrix[ci]
            .get(wi)
            .is_some_and(|row| *cell_of(row, column) == fused);
        if !ok {
            report.broken.push(format!(
                "fused System::run differs on {} column {column}",
                w.name()
            ));
        }
        report.tally(ok);
    }
}

/// The simulated core clock, Hz.
pub(crate) fn freq_hz() -> f64 {
    ArchConfig::gainestown(nvm_llc::circuit::reference::sram_baseline()).freq_ghz * 1e9
}

/// Simulated totals over every cell: LLC misses, DRAM writebacks, and
/// execution cycles.
fn simulated_totals(matrix: &Matrix) -> (u64, u64, u64) {
    let hz = freq_hz();
    let mut totals = (0, 0, 0);
    for row in matrix.iter().flatten() {
        for column in 0..=row.entries.len() {
            let r = cell_of(row, column);
            totals.0 += r.stats.llc_misses;
            totals.1 += r.stats.dram_writebacks;
            totals.2 += (r.exec_time.value() * hz).round() as u64;
        }
    }
    totals
}

/// Nominal length of one cold matrix on a 2-CPU host; `--seconds`
/// buys this many seconds per round, so the round count (and with it
/// the inputs) depends on the arguments alone, not on host speed.
const NOMINAL_ROUND: Duration = Duration::from_secs(4);

/// The trace seeds of a run's rounds: every round but the last runs its
/// own seed, so one run covers several sets of traces; the last repeats
/// the first seed and must reproduce the first matrix bit for bit.
fn round_seeds(seed: u64, seconds: Duration) -> Vec<u64> {
    let rounds = (seconds.as_secs_f64() / NOMINAL_ROUND.as_secs_f64())
        .ceil()
        .max(2.0) as usize;
    let mut rng = Rng::new(seed);
    let mut seeds: Vec<u64> = (0..rounds - 1).map(|_| rng.next_u64()).collect();
    seeds.push(seeds[0]);
    seeds
}

/// The untraced run: whole cold matrices, back to back.
pub fn run(seed: u64, seconds: Duration) -> Report {
    let mut report = Report::default();
    let mut rng = Rng::new(seed ^ 0xf05e);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut first: Option<Matrix> = None;
    let mut last: Option<Matrix> = None;
    let mut total_cells = 0usize;
    let seeds = round_seeds(seed, seconds);
    for (round, &trace_seed) in seeds.iter().enumerate() {
        let t = Instant::now();
        clear_caches();
        // The first round has nothing to clear.
        if round > 0 {
            setups.push(t.elapsed().as_secs_f64());
        }
        let t = Instant::now();
        let matrix: Matrix = Configuration::ALL
            .iter()
            .map(|&c| {
                let figure = fig1::run_configuration(c, scale(trace_seed));
                let mut rows = figure.single_threaded;
                rows.extend(figure.multi_threaded);
                rows
            })
            .collect();
        walls.push(t.elapsed());
        let n = cells(&matrix);
        total_cells += n;
        report.attempted += n as u64;
        fused_check(trace_seed, &matrix, 1, &mut rng, &mut report);
        if round == 0 {
            first = Some(matrix);
        } else {
            last = Some(matrix);
        }
    }
    let first = first.expect("at least one round");
    let repeat = mismatched(&first, last.as_ref().expect("at least two rounds"));
    if repeat > 0 {
        report.broken.push(format!(
            "{repeat} cells differ when the first seed is re-run"
        ));
    }
    report.failed += repeat;

    let wall: Duration = walls.iter().sum();
    let wall_ms: Vec<f64> = walls.iter().map(|&d| ms(d)).collect();
    // Too few matrices for a percentile with ten samples beyond it: the
    // tail is the slowest matrix of the run.
    let slowest = tail(&wall_ms, 99.0)
        .map(|t| t.value)
        .unwrap_or_else(|| wall_ms.iter().copied().fold(0.0, f64::max));
    let cells_per_s = total_cells as f64 / wall.as_secs_f64();
    eprintln!(
        "matrix-cold: {} cold matrices of {} cells: median {:.1} ms, slowest {:.1} ms",
        walls.len(),
        cells(&first),
        median(&wall_ms),
        slowest
    );
    // The result line must carry every end-to-end metric. A batch has no
    // set-up beyond returning to cold caches, and no arrival process, so
    // `setup_s` is the median clear and `max_rps` repeats `cells_per_s`.
    report.set("setup_s", median(&setups));
    report.set("cells_per_s", cells_per_s);
    report.set("p50_ms", median(&wall_ms));
    report.set("p99_ms", slowest);
    report.set("max_rps", cells_per_s);
    report.set("peak_rss_mb", peak_rss_mb("self"));
    report
}

/// Layer self times of one traced re-drive, in seconds.
#[derive(Debug, Default)]
struct Layers {
    generate: f64,
    record: f64,
    decode: f64,
    replay: f64,
    records: u64,
    accesses_walked: u64,
    event_techs: u64,
    tape_bytes: u64,
}

impl Layers {
    /// Two re-drives were accumulated; keep one's worth.
    fn halve(&mut self) {
        for t in [
            &mut self.generate,
            &mut self.record,
            &mut self.decode,
            &mut self.replay,
        ] {
            *t /= 2.0;
        }
        for n in [
            &mut self.records,
            &mut self.accesses_walked,
            &mut self.event_techs,
            &mut self.tape_bytes,
        ] {
            *n /= 2;
        }
    }
}

fn timed<T>(slot: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// Re-drives the matrix from public calls — `generate_shared` →
/// `System::record` → `OutcomeTape::decoded` → `System::replay_batch`
/// (`System::replay` for a technology alone in its tape group) —
/// serially, timing each call. Tapes are shared across configurations
/// by tape key, as the evaluator's tape cache shares them.
fn redrive(seed: u64, layers: &mut Layers) -> Matrix {
    let s = scale(seed);
    let mut tapes: HashMap<TapeKey, OutcomeTape> = HashMap::new();
    let mut matrix = Matrix::new();
    for config in Configuration::ALL {
        let models = row_models(config);
        let systems: Vec<System> = models.iter().map(cell_system).collect();
        let mut rows = Vec::new();
        for w in panels().iter().flatten() {
            let trace = timed(&mut layers.generate, || {
                w.generate_shared(s.seed, w.scaled_accesses(s.base_accesses))
            });
            let mut groups: Vec<(TapeKey, Vec<usize>)> = Vec::new();
            for (column, system) in systems.iter().enumerate() {
                let key = system.tape_key(&trace);
                match groups.iter_mut().find(|(k, _)| *k == key) {
                    Some((_, columns)) => columns.push(column),
                    None => groups.push((key, vec![column])),
                }
            }
            let mut results: Vec<Option<SimResult>> = vec![None; systems.len()];
            for (key, columns) in groups {
                let tape = tapes.entry(key).or_insert_with(|| {
                    let tape = timed(&mut layers.record, || systems[columns[0]].record(&trace));
                    layers.records += 1;
                    layers.accesses_walked += trace.len() as u64;
                    layers.tape_bytes += tape.bytes() as u64;
                    tape
                });
                layers.event_techs += (tape.len() * columns.len()) as u64;
                // As in `run_all`: a lone technology replays the packed tape,
                // a group decodes it once and replays in a batch.
                let out = if let [column] = columns[..] {
                    vec![timed(&mut layers.replay, || systems[column].replay(tape))]
                } else {
                    timed(&mut layers.decode, || {
                        tape.decoded();
                    });
                    let group: Vec<&System> = columns.iter().map(|&c| &systems[c]).collect();
                    timed(&mut layers.replay, || System::replay_batch(&group, tape))
                };
                for (&c, r) in columns.iter().zip(out) {
                    results[c] = Some(r);
                }
            }
            let mut results = results
                .into_iter()
                .map(|r| r.expect("every column replayed"));
            let baseline = results.next().expect("SRAM column");
            let entries = results
                .map(|result| MatrixEntry {
                    llc: result.llc_name.clone(),
                    speedup: result.speedup_vs(&baseline),
                    energy: result.energy_vs(&baseline),
                    ed2p: result.ed2p_vs(&baseline),
                    result,
                })
                .collect();
            rows.push(MatrixRow {
                workload: w.name().to_owned(),
                baseline,
                entries,
            });
        }
        matrix.push(rows);
    }
    matrix
}

/// The traced run: untraced serial `run_all` matrices for the wall time
/// and timed re-drives, both from cold caches, in the order untraced,
/// traced, traced, untraced so that a steady drift in host speed cancels
/// between the halves. Every figure is the mean of the two passes.
pub fn run_traced(seed: u64) -> Report {
    let seed = round_seeds(seed, NOMINAL_ROUND)[0];
    let mut report = Report::default();
    let mut reference: Option<Matrix> = None;
    let mut layers = Layers::default();
    let (mut run_all_wall, mut traced_wall) = (0.0, 0.0);
    let (mut hits, mut fetches) = (0, 0);
    for traced in [false, true, true, false] {
        clear_caches();
        let before = tape::cache::stats();
        let t = Instant::now();
        let matrix: Matrix = if traced {
            redrive(seed, &mut layers)
        } else {
            Configuration::ALL
                .iter()
                .map(|&c| {
                    let eval = experiments::evaluator(c, scale(seed)).threads(1);
                    panels().iter().flat_map(|p| eval.run_all(p)).collect()
                })
                .collect()
        };
        let wall = t.elapsed().as_secs_f64();
        if traced {
            traced_wall += wall / 2.0;
        } else {
            run_all_wall += wall / 2.0;
            let after = tape::cache::stats();
            hits += after.hits - before.hits;
            fetches += (after.hits + after.misses) - (before.hits + before.misses);
        }
        match &reference {
            None => reference = Some(matrix),
            Some(want) => {
                report.attempted += cells(&matrix) as u64;
                report.failed += mismatched(want, &matrix);
            }
        }
    }
    clear_caches();
    let reference = reference.expect("the first pass ran");
    fused_check(
        seed,
        &reference,
        FUSED_SAMPLE,
        &mut Rng::new(seed ^ 0x5eed),
        &mut report,
    );
    layers.halve();

    let self_time = layers.generate + layers.record + layers.decode + layers.replay;
    let (llc_misses, writebacks, cycles) = simulated_totals(&reference);
    report.set("trace.generate_ms", layers.generate * 1e3);
    report.set("sim.record_ms", layers.record * 1e3);
    report.set(
        "sim.record_ns_per_access",
        layers.record * 1e9 / layers.accesses_walked.max(1) as f64,
    );
    report.set("sim.records", layers.records as f64);
    report.set("tape.decode_ms", layers.decode * 1e3);
    report.set("tape.bytes", layers.tape_bytes as f64);
    report.set("tape.cache_hit_ratio", hits as f64 / fetches.max(1) as f64);
    report.set("sim.replay_ms", layers.replay * 1e3);
    report.set(
        "sim.replay_ns_per_event_tech",
        layers.replay * 1e9 / layers.event_techs.max(1) as f64,
    );
    report.set("runner.wall_ms", run_all_wall * 1e3);
    report.set("runner.unattributed_ms", (run_all_wall - self_time) * 1e3);
    report.set("sim.llc_misses", llc_misses as f64);
    report.set("sim.dram_writebacks", writebacks as f64);
    report.set("sim.exec_cycles", cycles as f64);
    report.set("bench.wall_ms", traced_wall * 1e3);
    report.set(
        "bench.trace_overhead_pct",
        (traced_wall / run_all_wall - 1.0) * 100.0,
    );
    eprintln!(
        "matrix-cold traced: run_all {:.0} ms = generate {:.0} + record {:.0} + decode {:.0} \
         + replay {:.0} + unattributed {:.0} (ms); re-drive {:.0} ms",
        run_all_wall * 1e3,
        layers.generate * 1e3,
        layers.record * 1e3,
        layers.decode * 1e3,
        layers.replay * 1e3,
        (run_all_wall - self_time) * 1e3,
        traced_wall * 1e3
    );
    report
}
