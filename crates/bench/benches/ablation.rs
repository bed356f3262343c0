//! Ablation benches for the design choices DESIGN.md §6 calls out:
//! off-critical-path LLC writes (the paper's §V-A.7 assumption) and
//! replacement policy sensitivity.

use criterion::{criterion_group, criterion_main, Criterion};
use nvm_llc::circuit::reference;
use nvm_llc::sim::{simulate_hybrid, ArchConfig, HybridConfig, LlcWritePolicy, PolicyKind, System};
use nvm_llc::trace::workloads;
use nvm_llc_bench::print_artifact;

fn bench(c: &mut Criterion) {
    // --- Off-critical-path ablation -------------------------------------
    let mut body =
        String::from("Write-policy ablation: slowdown vs off-critical-path (paper §V-A.7)\n");
    body.push_str(&format!(
        "{:<12} {:>16} {:>16} {:>12}\n",
        "technology", "port-contention", "blocking", "write [ns]"
    ));
    let trace = workloads::by_name("mg").unwrap().generate(2019, 40_000);
    for name in ["SRAM", "Xue", "Hayakawa", "Kang", "Zhang"] {
        let llc = reference::by_name(&reference::fixed_capacity(), name).unwrap();
        let run = |policy| {
            System::new(ArchConfig::gainestown(llc.clone()).with_llc_write_policy(policy))
                .with_warmup(0.25)
                .run(&trace)
                .exec_time
                .value()
        };
        let off = run(LlcWritePolicy::OffCriticalPath);
        let port = run(LlcWritePolicy::PortContention);
        let blocking = run(LlcWritePolicy::Blocking);
        body.push_str(&format!(
            "{:<12} {:>15.2}x {:>15.2}x {:>12.1}\n",
            llc.display_name(),
            port / off,
            blocking / off,
            llc.write_latency().value()
        ));
    }
    print_artifact("Ablation — LLC write criticality", &body);

    // --- Replacement-policy ablation -------------------------------------
    let mut body = String::from("Replacement ablation: LLC mpki, LRU vs random\n");
    let llc = reference::by_name(&reference::fixed_capacity(), "SRAM").unwrap();
    for name in ["gobmk", "leela", "mg"] {
        let trace = workloads::by_name(name).unwrap().generate(2019, 40_000);
        let mpki = |replacement| {
            System::new(ArchConfig::gainestown(llc.clone()))
                .with_replacement(replacement)
                .with_warmup(0.25)
                .run(&trace)
                .stats
                .llc_mpki()
        };
        body.push_str(&format!(
            "{:<8} LRU {:>8.2}  random {:>8.2}\n",
            name,
            mpki(PolicyKind::Lru),
            mpki(PolicyKind::Random)
        ));
    }
    print_artifact("Ablation — replacement policy", &body);

    // --- Write-reduction techniques ----------------------------------
    let mut body = String::from(
        "Technique ablation on Kang_P (PCRAM), deepsjeng: normalized LLC dynamic energy
",
    );
    let kang = reference::by_name(&reference::fixed_capacity(), "Kang").unwrap();
    let trace = workloads::by_name("deepsjeng")
        .unwrap()
        .generate(2019, 60_000);
    let base = System::new(ArchConfig::gainestown(kang.clone()))
        .with_warmup(0.25)
        .run(&trace);
    let cases: [(&str, ArchConfig); 3] = [
        (
            "differential writes (40% flips)",
            ArchConfig::gainestown(kang.clone()).with_differential_writes(0.4),
        ),
        (
            "dead-block bypass",
            ArchConfig::gainestown(kang.clone()).with_llc_bypass(),
        ),
        (
            "detailed DRAM backend",
            ArchConfig::gainestown(kang.clone()).with_detailed_dram(),
        ),
    ];
    body.push_str(&format!(
        "{:<32} {:>10} {:>10} {:>10}
",
        "technique", "energy", "time", "fills"
    ));
    for (label, config) in cases {
        let r = System::new(config).with_warmup(0.25).run(&trace);
        body.push_str(&format!(
            "{:<32} {:>9.3}x {:>9.3}x {:>10}
",
            label,
            r.llc_dynamic_energy.value() / base.llc_dynamic_energy.value(),
            r.exec_time.value() / base.exec_time.value(),
            r.stats.llc_fills,
        ));
    }
    print_artifact("Ablation — write-reduction techniques", &body);

    // --- Hybrid SRAM/NVM LLC ------------------------------------------
    let mut body = String::from(
        "Hybrid 4-SRAM/12-NVM-way LLC vs pure configurations (ft, write-balanced)
",
    );
    let models = reference::fixed_capacity();
    let sram = reference::by_name(&models, "SRAM").unwrap();
    let xue = reference::by_name(&models, "Xue").unwrap();
    let trace = workloads::by_name("ft").unwrap().generate(2019, 15_000);
    let arch = ArchConfig::gainestown(sram.clone());
    let hybrid = simulate_hybrid(
        &arch,
        &HybridConfig::four_of_sixteen(sram.clone(), xue.clone()),
        &trace,
    );
    let pure_sram = System::new(ArchConfig::gainestown(sram)).run(&trace);
    let pure_nvm = System::new(ArchConfig::gainestown(xue)).run(&trace);
    for (label, r) in [
        ("pure SRAM", &pure_sram),
        ("pure Xue_S", &pure_nvm),
        ("hybrid", &hybrid.result),
    ] {
        body.push_str(&format!(
            "{:<12} time {:>9.4} ms   LLC energy {:>9.4} mJ
",
            label,
            r.exec_time.value() * 1e3,
            r.llc_energy().value() * 1e3,
        ));
    }
    body.push_str(&format!(
        "hybrid internals: {} SRAM hits, {} NVM hits, {} migrations, {} NVM array writes
",
        hybrid.hybrid.sram_hits,
        hybrid.hybrid.nvm_hits,
        hybrid.hybrid.migrations,
        hybrid.hybrid.nvm_writes
    ));
    print_artifact("Ablation — hybrid SRAM/NVM LLC", &body);

    // --- Microarchitectural fidelity knobs -----------------------------
    let mut body = String::from(
        "Fidelity knobs on the SRAM baseline, cg (miss-heavy): time vs default model
",
    );
    let llc = reference::by_name(&reference::fixed_capacity(), "SRAM").unwrap();
    let trace = workloads::by_name("cg").unwrap().generate(2019, 40_000);
    let base = System::new(ArchConfig::gainestown(llc.clone()))
        .with_warmup(0.25)
        .run(&trace);
    let knob_cases: [(&str, ArchConfig); 4] = [
        (
            "10 MSHRs",
            ArchConfig::gainestown(llc.clone()).with_mshrs(10),
        ),
        (
            "1 MSHR (serialized misses)",
            ArchConfig::gainestown(llc.clone()).with_mshrs(1),
        ),
        (
            "inclusive LLC",
            ArchConfig::gainestown(llc.clone()).with_inclusive_llc(),
        ),
        (
            "L2 next-line prefetch",
            ArchConfig::gainestown(llc.clone()).with_l2_prefetch(),
        ),
    ];
    body.push_str(&format!(
        "{:<30} {:>8} {:>10} {:>14}
",
        "knob", "time", "mpki", "note"
    ));
    for (label, config) in knob_cases {
        let r = System::new(config).with_warmup(0.25).run(&trace);
        let note = if r.stats.prefetches > 0 {
            format!("{} prefetches", r.stats.prefetches)
        } else if r.stats.inclusion_invalidations > 0 {
            format!("{} invalidations", r.stats.inclusion_invalidations)
        } else {
            String::new()
        };
        body.push_str(&format!(
            "{:<30} {:>7.3}x {:>10.1} {:>14}
",
            label,
            r.exec_time.value() / base.exec_time.value(),
            r.stats.llc_mpki(),
            note,
        ));
    }
    print_artifact("Ablation — microarchitectural fidelity knobs", &body);

    c.bench_function("blocking_writes_zhang_mg_20k", |b| {
        let llc = reference::by_name(&reference::fixed_capacity(), "Zhang").unwrap();
        let trace = workloads::by_name("mg").unwrap().generate(2019, 5_000);
        let system = System::new(
            ArchConfig::gainestown(llc).with_llc_write_policy(LlcWritePolicy::Blocking),
        );
        b.iter(|| std::hint::black_box(system.run(&trace)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench
}
criterion_main!(benches);
