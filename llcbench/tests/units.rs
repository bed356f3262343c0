//! Unit tests of the benchmark's own arithmetic and parsers.

use std::collections::HashSet;
use std::time::Duration;

use llcbench::client::{parse_response, BodyCheck};
use llcbench::metricsz::Scrape;
use llcbench::mix::{Generator, Kind, Mix, Route};
use llcbench::report::{Report, END_TO_END, PER_LAYER};
use llcbench::stats::{latencies_ms, lateness_ms, median, tail, Timing};

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let t = tail(&samples, 99.0).unwrap();
    assert_eq!(t.percentile, 99.0);
    assert_eq!(t.value, 990.0);
    assert_eq!(t.samples, 1000);
    assert_eq!(samples.iter().filter(|&&v| v > t.value).count(), 10);

    // 500 samples cannot support p99: ten beyond leaves p98.
    let samples: Vec<f64> = (1..=500).rev().map(f64::from).collect();
    let t = tail(&samples, 99.0).unwrap();
    assert_eq!(t.percentile, 98.0);
    assert_eq!(t.value, 490.0);
    assert_eq!(t.samples, 500);

    // The cap binds when there are plenty of samples.
    let samples: Vec<f64> = (1..=10_000).map(f64::from).collect();
    assert_eq!(tail(&samples, 99.0).unwrap().value, 9_900.0);
}

#[test]
fn tail_needs_more_than_ten_samples() {
    let ten: Vec<f64> = (0..10).map(f64::from).collect();
    assert_eq!(tail(&ten, 99.0), None);
    let eleven: Vec<f64> = (0..11).map(f64::from).collect();
    let t = tail(&eleven, 99.0).unwrap();
    assert_eq!(t.value, 0.0);
    assert_eq!(t.samples, 11);
}

#[test]
fn failed_requests_sort_past_every_latency() {
    let mut samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    samples.extend([f64::INFINITY; 11]);
    assert!(tail(&samples, 99.0).unwrap().value.is_infinite());
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
}

#[test]
fn open_loop_latency_counts_from_the_scheduled_send() {
    let ms = Duration::from_millis;
    // The generator stalled: requests due at 0, 1 and 2 ms all went out
    // at 10 ms and were answered at 11, 12 and 13 ms.
    let timings = [
        Timing {
            due: ms(0),
            sent: ms(10),
            done: ms(11),
        },
        Timing {
            due: ms(1),
            sent: ms(10),
            done: ms(12),
        },
        Timing {
            due: ms(2),
            sent: ms(10),
            done: ms(13),
        },
    ];
    // Users waited from when they wanted to send, not from the send.
    assert_eq!(latencies_ms(&timings), vec![11.0, 11.0, 11.0]);
    // The stall shows as lateness, so a late generator is visible.
    assert_eq!(lateness_ms(&timings), vec![10.0, 9.0, 8.0]);
    let on_time = Timing {
        due: ms(5),
        sent: ms(5),
        done: ms(6),
    };
    assert_eq!(on_time.lateness(), Duration::ZERO);
    assert_eq!(on_time.latency(), ms(1));
}

const BEFORE: &str = "\
# HELP nvmllc_serve_request_seconds Handler latency.
# TYPE nvmllc_serve_request_seconds histogram
nvmllc_serve_request_seconds_bucket{le=\"0.001\"} 3
nvmllc_serve_request_seconds_bucket{le=\"+Inf\"} 4
nvmllc_serve_request_seconds_sum 0.004
nvmllc_serve_request_seconds_count 4
nvmllc_serve_rejected_total{reason=\"queue_full\"} 1
nvmllc_serve_rejected_total{reason=\"busy\"} 0
nvmllc_serve_rejected_totally_unrelated 7
nvmllc_tape_cache_resident_bytes 100
";

const AFTER: &str = "\
nvmllc_serve_request_seconds_bucket{le=\"0.001\"} 9
nvmllc_serve_request_seconds_bucket{le=\"+Inf\"} 10
nvmllc_serve_request_seconds_sum 0.01
nvmllc_serve_request_seconds_count 10
nvmllc_serve_rejected_total{reason=\"queue_full\"} 3
nvmllc_serve_rejected_total{reason=\"busy\"} 2
nvmllc_serve_rejected_totally_unrelated 7
nvmllc_tape_cache_resident_bytes 60
nvmllc_store_hits_total 5e2
not a sample line
";

#[test]
fn metricsz_parses_series_and_skips_comments() {
    let s = Scrape::parse(BEFORE);
    assert_eq!(s.get("nvmllc_serve_request_seconds_count"), 4.0);
    assert_eq!(
        s.get("nvmllc_serve_request_seconds_bucket{le=\"+Inf\"}"),
        4.0
    );
    assert_eq!(
        s.get("nvmllc_serve_rejected_total{reason=\"queue_full\"}"),
        1.0
    );
    assert_eq!(s.get("missing_series"), 0.0);
    assert_eq!(Scrape::parse(AFTER).get("nvmllc_store_hits_total"), 500.0);
}

#[test]
fn metricsz_delta_gives_the_window_and_its_means() {
    let d = Scrape::parse(AFTER).delta(&Scrape::parse(BEFORE));
    assert_eq!(d.get("nvmllc_serve_request_seconds_count"), 6.0);
    assert!((d.mean("nvmllc_serve_request_seconds") - 0.001).abs() < 1e-12);
    // Summed over labels, but not over a family that merely shares the
    // prefix.
    assert_eq!(d.family_sum("nvmllc_serve_rejected_total"), 4.0);
    // A gauge's delta is its change; a series new in the window counts
    // from zero.
    assert_eq!(d.get("nvmllc_tape_cache_resident_bytes"), -40.0);
    assert_eq!(d.get("nvmllc_store_hits_total"), 500.0);
    // No traffic: a zero count gives a zero mean, not NaN.
    let same = Scrape::parse(BEFORE).delta(&Scrape::parse(BEFORE));
    assert_eq!(same.mean("nvmllc_serve_request_seconds"), 0.0);
}

fn mix(never_seen_share: f64) -> Mix {
    Mix {
        workloads: ["tonto", "leela", "gobmk"].map(String::from).to_vec(),
        techs: ["Jan", "Oh", "Zhang"].map(String::from).to_vec(),
        row_share: 0.25,
        fixed_area_share: 0.3,
        fresh_conn_share: 0.1,
        keepalive_conns: 2,
        never_seen_share,
        probe_period: Duration::from_millis(250),
    }
}

#[test]
fn the_same_seed_gives_the_same_request_mix() {
    let one_second = Duration::from_secs(1);
    let run = |seed| {
        let mut g = Generator::new(seed, mix(0.05));
        let mut plan = g.schedule(500.0, one_second);
        plan.extend(g.schedule(1_000.0, one_second));
        plan
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn the_mix_follows_its_shares() {
    let plan = Generator::new(3, mix(0.0)).schedule(20_000.0, Duration::from_secs(1));
    // Probes come every 250 ms whatever the rate: at 0.25, 0.5 and 0.75 s.
    let probes: Vec<_> = plan.iter().filter(|p| p.kind == Kind::Healthz).collect();
    assert_eq!(
        probes.iter().map(|p| p.due).collect::<Vec<_>>(),
        [250, 500, 750].map(Duration::from_millis)
    );
    assert!(probes.iter().all(|p| p.route == Route::Fresh));
    let evaluations: Vec<_> = plan.iter().filter(|p| p.kind != Kind::Healthz).collect();
    let n = evaluations.len() as f64;
    assert!((n - 20_000.0).abs() < 600.0, "{n} arrivals");
    let share = |f: &dyn Fn(&llcbench::mix::Planned) -> bool| {
        evaluations.iter().filter(|p| f(p)).count() as f64 / n
    };
    assert!((share(&|p| p.kind == Kind::Row) - 0.25).abs() < 0.02);
    assert!((share(&|p| p.target.contains("fixed_area")) - 0.3).abs() < 0.02);
    assert!((share(&|p| p.route == Route::Fresh) - 0.1).abs() < 0.02);
    assert!(plan.iter().all(|p| p.cells
        == match p.kind {
            Kind::Eval => 1,
            Kind::Row => 11,
            Kind::Healthz => 0,
        }));
    assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
    assert!(plan.iter().all(|p| !p.never_seen));
    // Keep-alive requests alternate over exactly the configured slots.
    let slots: HashSet<_> = plan
        .iter()
        .filter_map(|p| match p.route {
            Route::KeepAlive(k) => Some(k),
            Route::Fresh => None,
        })
        .collect();
    assert_eq!(slots, HashSet::from([0, 1]));
}

#[test]
fn never_seen_keys_never_repeat_and_never_meet_the_warm_set() {
    let m = mix(0.5);
    let warm: HashSet<String> = m.warm_rows().into_iter().collect();
    let mut g = Generator::new(11, m);
    let mut seen = HashSet::new();
    for _ in 0..3 {
        for p in g.schedule(1_000.0, Duration::from_secs(1)) {
            if p.never_seen {
                assert!(p.target.contains("&accesses="), "{}", p.target);
                assert!(seen.insert(p.target.clone()), "repeated {}", p.target);
                assert!(!warm.contains(&p.target));
            }
        }
    }
    assert!(seen.len() > 500);
}

#[test]
fn responses_parse_across_split_reads_and_pipelines() {
    let one = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nok\n";
    let two =
        b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 2\r\nConnection: close\r\n\r\n{}";
    let mut wire = one.to_vec();
    wire.extend_from_slice(two);
    for cut in 0..one.len() {
        assert_eq!(parse_response(&wire[..cut]).unwrap(), None);
    }
    let (first, used) = parse_response(&wire).unwrap().unwrap();
    assert_eq!(
        (first.status, first.close, first.body.as_slice()),
        (200, false, &b"ok\n"[..])
    );
    let (second, rest) = parse_response(&wire[used..]).unwrap().unwrap();
    assert_eq!(
        (second.status, second.close, second.body.as_slice()),
        (503, true, &b"{}"[..])
    );
    assert_eq!(used + rest, wire.len());
    assert!(parse_response(b"HTTP/1.1 200 OK\r\n\r\n").is_err());
}

#[test]
fn bodies_must_repeat_byte_for_byte() {
    let mut check = BodyCheck::default();
    assert!(check.check("/row?workload=tonto", b"{\"a\":1}"));
    assert!(check.check("/row?workload=tonto", b"{\"a\":1}"));
    assert!(!check.check("/row?workload=tonto", b"{\"a\":2}"));
    assert_eq!(check.mismatches, 1);
    assert_eq!(check.first("/row?workload=tonto"), Some(&b"{\"a\":1}"[..]));
}

#[test]
fn the_result_line_lists_every_metric_of_its_kind() {
    let mut report = Report::default();
    report.tally(true);
    report.set("p50_ms", 1.5);
    let line = report.to_json(false);
    assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
    for (name, unit) in END_TO_END {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name}"
        );
        assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit}");
    }
    assert!(line.contains("\"p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
    let traced = report.to_json(true);
    assert!(PER_LAYER.iter().all(|(name, _)| traced.contains(name)));
    report.tally(false);
    assert!(report
        .to_json(false)
        .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
}
