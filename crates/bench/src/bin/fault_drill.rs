//! Deterministic corruption soak for the serving stack.
//!
//! Executes seeded fault plans from `en_wire::faultsim` against a freshly
//! built snapshot and asserts *error-not-crash* at every layer:
//!
//! 1. **Load drill** — truncation at every section boundary, a single-bit
//!    flip in every header bit, seeded bit flips inside every section, and
//!    scrambled offset columns; every fault must be rejected by
//!    `FlatScheme::from_bytes` with a structured error.
//! 2. **Forged-checksum drill** — the same kinds of section damage (seeded
//!    bit flips and offset scrambles), with the checksums re-sealed around
//!    them as a forger would, so only `from_bytes`' structural proof can
//!    reject them; every forged snapshot must be rejected, or be served at
//!    1/2/8 threads with zero shard panics and identical outcomes.
//!    A near-value drill then forges every section field of a small
//!    snapshot to each value next to the ones the proof compares against
//!    (`faultsim::near_value_plan`), with the same pass criterion; its
//!    tally is printed on its own line.
//! 3. **Hot-swap race** — a `SchemeStore` swaps between two valid epochs
//!    while corrupt publishes are fired at it and reader threads route
//!    batches off pinned epochs; every reader batch must be bit-identical
//!    to exactly the epoch it pinned, and no corrupt publish may land.
//! 4. **Determinism check** — on the pristine snapshot, batch outcomes at
//!    1/2/8 threads must be bit-identical and fault counters must be zero.
//!
//! Usage: `cargo run --release -p en_bench --bin fault_drill [-- --smoke]`
//!
//! `--smoke` shrinks the graph and iteration counts for CI. Exits non-zero
//! (with a failing summary) if any fault goes undetected or any invariant
//! breaks.
//!
//! `--obs-out <path>` installs an [`en_obs::MetricsRegistry`] for the run
//! and writes its `en-obs/v1` JSON-lines dump to `<path>` on completion:
//! every phase summary that is printed for humans is mirrored as a
//! structured `drill.*` event, and the drill's fault totals land as
//! `drill.*` counters alongside the instrumented-library metrics.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_wire::checksum::fnv1a_words;
use en_wire::faultsim::{
    drill_forged, drill_loads, header_flip_plan, near_value_plan, offset_scramble_plan,
    section_flip_plan, truncation_plan, FaultReport,
};
use en_wire::{
    generate_pairs, BatchOutcome, FlatScheme, MappedSnapshot, PairWorkload, QueryEngine,
    SchemeStore,
};

/// Folds a batch's observable outcome into one word, so "bit-identical"
/// is a single comparison.
fn digest(batch: &BatchOutcome) -> u64 {
    let mut words: Vec<u64> = Vec::new();
    for out in &batch.outcomes {
        match out {
            Ok(o) => {
                words.push(1);
                words.push(o.tree_root as u64);
                words.push(o.level as u64);
                words.push(o.length);
                words.extend(o.path.nodes().iter().map(|&v| v as u64));
            }
            Err(_) => words.push(0),
        }
    }
    fnv1a_words(&words)
}

fn build_snapshot(n: usize, k: usize, graph_seed: u64, build_seed: u64) -> Vec<u8> {
    let g = erdos_renyi_connected(
        &GeneratorConfig::new(n, graph_seed).with_weights(1, 50),
        8.0 / n as f64,
    );
    let built = build_routing_scheme(&g, &ConstructionConfig::new(k, build_seed)).unwrap();
    en_wire::serialize(&built.scheme)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let obs_out = args.iter().position(|a| a == "--obs-out").map(|i| {
        std::path::PathBuf::from(args.get(i + 1).expect("--obs-out requires a path argument"))
    });
    let obs_registry = obs_out
        .as_ref()
        .map(|_| Arc::new(en_obs::MetricsRegistry::new()));
    // The closure (not a bare fn path) forces the Arc<dyn Recorder> coercion.
    #[allow(clippy::redundant_closure)]
    let _obs_guard = obs_registry.clone().map(|r| en_obs::install(r));

    let n = if smoke { 120 } else { 600 };
    let k = 2;
    let flips_per_section = if smoke { 4 } else { 24 };
    let scrambles = if smoke { 16 } else { 96 };
    let pairs_len = if smoke { 400 } else { 4_000 };

    let g = erdos_renyi_connected(
        &GeneratorConfig::new(n, 42).with_weights(1, 50),
        8.0 / n as f64,
    );
    let built = build_routing_scheme(&g, &ConstructionConfig::new(k, 42)).unwrap();
    let bytes = en_wire::serialize(&built.scheme);
    let manifest = FlatScheme::from_bytes(&bytes)
        .expect("pristine snapshot validates")
        .manifest();
    println!(
        "fault_drill: n={n} k={k}, snapshot {} bytes, {} sections{}",
        bytes.len(),
        manifest.sections.len(),
        if smoke { " (smoke)" } else { "" }
    );

    let mut failures: Vec<String> = Vec::new();
    let mut report = FaultReport::default();

    // --- Phase 1: load drill -------------------------------------------------
    report.merge(drill_loads(&bytes, &truncation_plan(&manifest)));
    report.merge(drill_loads(&bytes, &header_flip_plan()));
    report.merge(drill_loads(
        &bytes,
        &section_flip_plan(&manifest, 0xFA01, flips_per_section),
    ));
    report.merge(drill_loads(
        &bytes,
        &offset_scramble_plan(&manifest, 0xFA02, scrambles),
    ));
    println!("  load drill: {}", report.summary());
    if en_obs::active() {
        en_obs::event(
            en_obs::Level::Info,
            "drill.load",
            &[
                ("injected", (report.injected as u64).into()),
                ("detected", (report.detected as u64).into()),
                ("undetected", (report.undetected.len() as u64).into()),
            ],
        );
    }
    for name in &report.undetected {
        failures.push(format!("load fault validated clean: {name}"));
    }
    // The v3 member-slot rank index must actually be drilled, not just exist:
    // the manifest-driven plans cover every section, so its name shows up in
    // both the flip and the scramble plans.
    for plan_name in ["flip member_slots", "scramble member_slots"] {
        let covered = section_flip_plan(&manifest, 0xFA01, flips_per_section)
            .iter()
            .chain(&offset_scramble_plan(&manifest, 0xFA02, scrambles))
            .any(|c| c.name.starts_with(plan_name));
        if !covered {
            failures.push(format!("fault plans never target \"{plan_name}\""));
        }
    }

    // --- Phase 1b: mmap open drill -------------------------------------------
    // The mapped open's SIGBUS-safety contract: a boundary-truncated file is
    // never mapped (the pre-map length check routes it to the heap fallback)
    // and still fails validation; the pristine file maps and validates.
    let tmp = std::path::Path::new("target/tmp");
    std::fs::create_dir_all(tmp).expect("scratch dir under target/");
    let pristine_path = tmp.join("fault_drill_pristine.enwire");
    std::fs::write(&pristine_path, &bytes).expect("write pristine snapshot");
    match MappedSnapshot::open(&pristine_path) {
        Ok(snap) => {
            if snap.bytes() != &bytes[..] {
                failures.push("mmap drill: pristine bytes differ after open".into());
            }
            let mappable = cfg!(all(
                target_os = "linux",
                any(target_arch = "x86_64", target_arch = "aarch64")
            ));
            if mappable && !snap.is_mapped() {
                failures.push("mmap drill: pristine snapshot did not map".into());
            }
            if FlatScheme::from_bytes(snap.bytes()).is_err() {
                failures.push("mmap drill: pristine mapped snapshot failed validation".into());
            }
        }
        Err(e) => failures.push(format!("mmap drill: pristine open failed: {e}")),
    }
    std::fs::remove_file(&pristine_path).ok();
    let mut mmap_cases = 0usize;
    for (i, case) in truncation_plan(&manifest).iter().enumerate() {
        let corrupt = case.apply(&bytes);
        let p = tmp.join(format!("fault_drill_mmap_{i}.enwire"));
        std::fs::write(&p, &corrupt).expect("write truncated snapshot");
        match MappedSnapshot::open(&p) {
            Ok(snap) => {
                if snap.is_mapped() {
                    failures.push(format!("mmap drill: {} was mapped", case.name));
                }
                if snap.bytes() != &corrupt[..] {
                    failures.push(format!("mmap drill: {} bytes differ", case.name));
                }
                if FlatScheme::from_bytes(snap.bytes()).is_ok() {
                    failures.push(format!("mmap drill: {} validated clean", case.name));
                }
            }
            Err(e) => failures.push(format!("mmap drill: {} open failed: {e}", case.name)),
        }
        std::fs::remove_file(&p).ok();
        mmap_cases += 1;
    }
    println!(
        "  mmap drill: pristine mapped + validated, \
         {mmap_cases} boundary truncations opened unmapped and rejected"
    );
    if en_obs::active() {
        en_obs::event(
            en_obs::Level::Info,
            "drill.mmap",
            &[("truncation_cases", (mmap_cases as u64).into())],
        );
    }

    // --- Phase 2: forged-checksum drill -------------------------------------
    // Damage re-sealed with recomputed checksums: only the structural proof
    // stands between these bytes and the server. A forged snapshot that
    // validates is served at 1/2/8 threads and must never panic a shard or
    // answer differently with the thread count.
    let pairs = generate_pairs(&g, &PairWorkload::Uniform, pairs_len, 7);
    let forged_plan = {
        let mut plan = section_flip_plan(&manifest, 0xFA03, flips_per_section);
        plan.extend(offset_scramble_plan(&manifest, 0xFA04, scrambles));
        plan
    };
    let forged = drill_forged(&bytes, &g, &pairs, &forged_plan);
    let forged_served = forged.degraded + forged.survived;
    println!(
        "  forged drill: {} forged snapshots, {} rejected by from_bytes, \
         {forged_served} served ({} with failed queries) with 0 shard panics \
         and identical outcomes at 1/2/8 threads",
        forged.injected, forged.detected, forged.degraded
    );
    if en_obs::active() {
        en_obs::event(
            en_obs::Level::Info,
            "drill.forged",
            &[
                ("injected", (forged.injected as u64).into()),
                ("rejected", (forged.detected as u64).into()),
                ("served", (forged_served as u64).into()),
                ("undetected", (forged.undetected.len() as u64).into()),
            ],
        );
    }
    for name in &forged.undetected {
        failures.push(format!(
            "forged snapshot panicked a shard or varied: {name}"
        ));
    }
    if forged.injected == 0 {
        failures.push("forged drill injected nothing".into());
    }
    report.merge(forged);

    // --- Phase 2b: near-value drill -------------------------------------------
    // Every section field of a small snapshot rewritten to each value next
    // to the ones the structural proof compares against (v±1, 0, 1, n−1,
    // n, NULL, a neighbouring field's value), re-sealed and drilled like
    // phase 2. Its tally is reported on its own line.
    let near_sizes: &[(usize, usize)] = if smoke {
        &[(24, 2)]
    } else {
        &[(24, 2), (40, 3)]
    };
    for &(near_n, near_k) in near_sizes {
        let near_g = erdos_renyi_connected(
            &GeneratorConfig::new(near_n, 24).with_weights(1, 50),
            8.0 / near_n as f64,
        );
        let near_bytes = en_wire::serialize(
            &build_routing_scheme(&near_g, &ConstructionConfig::new(near_k, 24))
                .unwrap()
                .scheme,
        );
        let near_pairs = generate_pairs(&near_g, &PairWorkload::Uniform, 200, 5);
        let near = drill_forged(
            &near_bytes,
            &near_g,
            &near_pairs,
            &near_value_plan(&near_bytes),
        );
        println!(
            "  near-value drill (n={near_n} k={near_k}, {} pairs): {}",
            near_pairs.len(),
            near.summary()
        );
        if en_obs::active() {
            en_obs::event(
                en_obs::Level::Info,
                "drill.near_value",
                &[
                    ("n", (near_n as u64).into()),
                    ("injected", (near.injected as u64).into()),
                    ("rejected", (near.detected as u64).into()),
                    ("served", ((near.degraded + near.survived) as u64).into()),
                    ("undetected", (near.undetected.len() as u64).into()),
                ],
            );
        }
        for name in &near.undetected {
            failures.push(format!(
                "near-value forgery panicked a shard or varied: {name}"
            ));
        }
    }

    // --- Phase 3: hot-swap race ----------------------------------------------
    let bytes_b = build_snapshot(n, k, 42, 43); // same graph, different scheme
    let store = Arc::new(SchemeStore::new(bytes.clone()).expect("epoch 0 validates"));
    let race_pairs = generate_pairs(&g, &PairWorkload::Uniform, pairs_len.min(500), 11);
    let digest_for = |snapshot: &[u8]| {
        let flat = FlatScheme::from_bytes(snapshot).expect("epoch bytes validate");
        let engine = QueryEngine::new(flat, &g).expect("same graph");
        digest(&engine.route_batch(&race_pairs, None, 2))
    };
    let digest_a = digest_for(&bytes);
    let digest_b = digest_for(&bytes_b);
    let publishes = if smoke { 20 } else { 200 };
    let stop = AtomicBool::new(false);
    let race_result: Result<(usize, Vec<String>), String> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let store = Arc::clone(&store);
                let stop = &stop;
                let g = &g;
                let race_pairs = &race_pairs;
                scope.spawn(move || {
                    let mut batches = 0usize;
                    let mut bad: Vec<String> = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let epoch = store.current();
                        let flat = epoch.scheme();
                        let engine = QueryEngine::new(flat, g).expect("same graph");
                        let d = digest(&engine.route_batch(race_pairs, None, 2));
                        let expect = if epoch.id() % 2 == 0 {
                            digest_a
                        } else {
                            digest_b
                        };
                        if d != expect {
                            bad.push(format!(
                                "epoch {} served a torn/mixed view (digest {d:#x})",
                                epoch.id()
                            ));
                        }
                        batches += 1;
                    }
                    (batches, bad)
                })
            })
            .collect();

        // Writer: alternate valid epochs (even ids get A, odd get B) while
        // firing corrupt candidates that must all be rejected in place.
        let mut corrupt_rejected = 0usize;
        for i in 0..publishes {
            let next = if store.current_id() % 2 == 0 {
                &bytes_b
            } else {
                &bytes
            };
            let id = store.publish(next.clone()).expect("valid publish lands");
            assert_eq!(id, store.current_id());
            let mut junk = next.clone();
            let at = (i * 997) % junk.len();
            junk[at] ^= 0x10;
            match store.publish(junk) {
                Err(_) => corrupt_rejected += 1,
                Ok(id) => return Err(format!("corrupt publish landed as epoch {id}")),
            }
        }
        stop.store(true, Ordering::Relaxed);
        let mut total_batches = 0usize;
        let mut bad = Vec::new();
        for r in readers {
            let (batches, mut b) = r.join().expect("reader panicked");
            total_batches += batches;
            bad.append(&mut b);
        }
        assert_eq!(corrupt_rejected, publishes);
        Ok((total_batches, bad))
    });
    match race_result {
        Ok((total_batches, bad)) => {
            println!(
                "  hot-swap race: {publishes} publishes + {publishes} corrupt rejects, \
                 {total_batches} reader batches, {} torn views",
                bad.len()
            );
            if en_obs::active() {
                en_obs::event(
                    en_obs::Level::Info,
                    "drill.hotswap",
                    &[
                        ("publishes", (publishes as u64).into()),
                        ("corrupt_rejects", (publishes as u64).into()),
                        ("reader_batches", (total_batches as u64).into()),
                        ("torn_views", (bad.len() as u64).into()),
                    ],
                );
            }
            failures.extend(bad);
            let stats = store.stats();
            if stats.rejected != publishes as u64 || stats.published != publishes as u64 {
                failures.push(format!("store counters off: {stats:?}"));
            }
        }
        Err(e) => failures.push(e),
    }

    // --- Phase 4: pristine determinism + fault counters stay zero ------------
    let flat = FlatScheme::from_bytes(&bytes).expect("pristine snapshot validates");
    let engine = QueryEngine::new(flat, &g).expect("same graph");
    let batches: Vec<BatchOutcome> = [1usize, 2, 8]
        .iter()
        .map(|&t| engine.route_batch(&pairs, None, t))
        .collect();
    let d0 = digest(&batches[0]);
    for (b, t) in batches.iter().zip([1usize, 2, 8]) {
        if digest(b) != d0 {
            failures.push(format!("pristine outcomes differ at {t} threads"));
        }
        if b.stats.shard_panics != 0 || b.stats.retried != 0 || b.stats.degraded != 0 {
            failures.push(format!(
                "pristine batch reports fault counters at {t} threads: {:?}",
                b.stats
            ));
        }
        if b.stats.failed != 0 {
            failures.push(format!("pristine batch failed queries at {t} threads"));
        }
    }
    println!("  determinism: outcomes bit-identical at 1/2/8 threads, fault counters zero");
    if en_obs::active() {
        en_obs::event(
            en_obs::Level::Info,
            "drill.determinism",
            &[
                ("thread_counts", 3u64.into()),
                ("bit_identical", (failures.is_empty()).into()),
            ],
        );
        en_obs::counter_add("drill.faults_injected", report.injected as u64);
        en_obs::counter_add("drill.faults_detected", report.detected as u64);
        en_obs::counter_add("drill.faults_degraded", report.degraded as u64);
        en_obs::counter_add("drill.faults_survived", report.survived as u64);
        en_obs::counter_add("drill.failures", failures.len() as u64);
    }
    if let (Some(path), Some(reg)) = (&obs_out, &obs_registry) {
        en_bench::write_obs_dump(path, reg).expect("write obs dump");
        println!("wrote obs dump to {}", path.display());
    }

    println!("fault_drill summary: {}", report.summary());
    if report.undetected.is_empty() && failures.is_empty() {
        println!("fault_drill: PASS (every fault detected, or forged and served panic-free)");
    } else {
        for f in &failures {
            eprintln!("fault_drill FAILURE: {f}");
        }
        eprintln!("fault_drill: FAIL ({} failures)", failures.len());
        std::process::exit(1);
    }
}
