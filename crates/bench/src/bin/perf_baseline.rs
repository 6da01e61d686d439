//! Records the repo's perf trajectory: wall time per construction phase at
//! the standard bench sizes, written to `BENCH_construction.json`.
//!
//! Per `(n, k)` point the harness times each phase the quickstart exercises —
//! workload generation, the Theorem-1 batched kernel on the acceptance
//! workload shape (|V'| = 32, B = 16), the end-to-end
//! `build_routing_scheme`, and a routing + sketch query batch — and, once per
//! run, the batched-vs-reference kernel ratios the acceptance bars track:
//! Theorem 1 batched vs naive (`≥ 5×`) and the `clusters` workload — the
//! batched restricted multi-source cluster growing against the retained
//! per-centre restricted Dijkstra oracle at k = 2, recorded both for the
//! whole exact family and for the spanning top level alone (the recorded
//! bar: spanning `≥ 3×`; family growth is tracked alongside and currently
//! sits near parity, because ~30-member level-0 clusters keep the
//! per-centre heap search cheap). Each measurement is a best-of-N (N = 3
//! for phases, 9 for the kernel comparisons and the serving
//! throughput/ratio numbers), so the committed JSON stays comparable
//! across machines with noisy schedulers.
//!
//! The `assemble` workload tracks the Section-4 tables/labels assembly over
//! a prebuilt exact family at `n ∈ {500, 1000, 10000}`, `k ∈ {2, 3}`,
//! alongside a bytes gauge of the family's compact-forest footprint
//! (`ClusterFamily::cluster_bytes`) — the pair of numbers the arena-backed
//! cluster forest is accountable to (recorded bars: assemble ≥ 2× vs the
//! pre-forest assembly at n = 1000/k = 2, footprint ≥ 5× below the old
//! `O(n · #clusters)` representation's ~14 MB there). The `entries` sweep
//! includes the n = 10000 end-to-end build the compact family unlocked.
//!
//! The `queries` workload tracks the `en_wire` serving path: per `(n, k)`
//! at `n ∈ {1000, 10000}` it snapshots the built scheme and times the
//! open-path costs *separately* — `read_us`, the buffer copy alone (what
//! an owned open pays to get the bytes in hand), `mmap_open_us`, the
//! page-cache alternative (`MappedSnapshot::open` alone, no copy), and
//! `validate_us`, `FlatScheme::from_bytes` — the checksum and structure
//! pass, the per-publish integrity tax, also reported as GB/s — then
//! measures batched routing
//! throughput off the flat columns
//! (single-threaded and sharded over scoped threads) and, on the very
//! same pairs, the in-memory `RoutingScheme` single-threaded throughput,
//! recording `flat_vs_inmem` (flat single-thread ÷ in-memory routes/sec;
//! the unified-kernel goal is 1.0). Beside the uniform pairs it records
//! the Zipf-hotspot workload's throughput (exponent 1.2, both endpoints
//! skewed), the repeated-pair traffic shape. All of it is written to
//! `BENCH_queries.json` together with the snapshot size and the host's
//! CPU count (the multi-thread number only shows real scaling on a
//! multi-core host).
//!
//! Alongside the throughput numbers the queries entry records the
//! observability tax both ways: `obs_noop_overhead`, the uniform
//! single-thread batch re-measured with **no recorder installed** (the
//! production default — the instrumented path differs from uninstrumented
//! code by one relaxed atomic load per chunk; the committed bar is ≤ 1.02,
//! with base and no-op runs interleaved pair-wise so host noise cannot
//! skew the ratio),
//! and `obs_active_overhead`, the same batch with a live
//! `en_obs::MetricsRegistry` installed (per-route latency/hops histograms
//! and batch counters actually recording — informational, not a bar).
//!
//! Usage: `cargo run --release -p en_bench --bin perf_baseline [--smoke]
//! [--obs-out <path>]`
//!
//! `--smoke` restricts the sweep to the smallest size and skips the file
//! writes — the CI smoke check that keeps this bin (and the phase plumbing
//! it exercises, including the queries/serving path) green. `--obs-out
//! <path>` installs a process-global metrics registry for the whole run and
//! writes its `en-obs/v1` JSON-lines dump to `<path>` on exit (CI's
//! obs-smoke step validates that dump with the `obs_check` bin; committed
//! BENCH numbers are recorded *without* this flag, so the serving numbers
//! stay on the uninstrumented path).

use std::fmt::Write as _;
use std::time::Instant;

use en_wire::{generate_pairs, FlatScheme, MappedSnapshot, PairWorkload, QueryEngine};

use en_bench::warn_if_round_limit_hit;
use en_congest_algos::theorem1::{multi_source_hop_bounded, multi_source_hop_bounded_reference};
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::{ClusterForestBuilder, CsrGraph, WeightedGraph};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::exact::{
    exact_cluster_family, exact_pivots, grow_exact_cluster_csr, grow_exact_clusters,
    membership_thresholds,
};
use en_routing::scheme::RoutingScheme;
use en_routing::{Hierarchy, SchemeParams};

const OUTPUT: &str = "BENCH_construction.json";
const QUERIES_OUTPUT: &str = "BENCH_queries.json";
/// Worker threads for the sharded batch measurement (recorded in the JSON;
/// only meaningful as a speedup on a host with that many cores).
const QUERY_THREADS: usize = 8;

fn best_of<R>(runs: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::MAX;
    let mut out = None;
    for _ in 0..runs {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_secs_f64());
        out = Some(r);
    }
    (best * 1e3, out.expect("runs >= 1"))
}

fn workload(n: usize) -> WeightedGraph {
    erdos_renyi_connected(
        &GeneratorConfig::new(n, 42).with_weights(1, 100),
        8.0 / n as f64,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let obs_out = args.iter().position(|a| a == "--obs-out").map(|i| {
        std::path::PathBuf::from(args.get(i + 1).expect("--obs-out requires a path argument"))
    });
    let obs_registry = obs_out
        .as_ref()
        .map(|_| std::sync::Arc::new(en_obs::MetricsRegistry::new()));
    #[allow(clippy::redundant_closure)] // closure forces the Arc<dyn> coercion
    let _obs_guard = obs_registry.clone().map(|r| en_obs::install(r));
    let sizes: &[usize] = if smoke {
        &[200]
    } else {
        &[200, 500, 1000, 10000]
    };
    let runs = if smoke { 1 } else { 3 };

    // The acceptance-bar kernel comparison: batched vs retained naive on a
    // 1000-vertex graph, |V'| = 32, B = 16 (200 vertices in smoke mode).
    let kn = if smoke { 200 } else { 1000 };
    let kg = erdos_renyi_connected(
        &GeneratorConfig::new(kn, 7).with_weights(1, 100),
        8.0 / kn as f64,
    );
    let ksources: Vec<usize> = (0..32).map(|i| i * 31 % kn).collect();
    let kernel_runs = if smoke { 3 } else { 9 };
    let (kernel_batched_ms, _) = best_of(kernel_runs, || {
        multi_source_hop_bounded(&kg, &ksources, 16, 0.25, 10)
    });
    let (kernel_naive_ms, _) = best_of(kernel_runs, || {
        multi_source_hop_bounded_reference(&kg, &ksources, 16)
    });
    let kernel_speedup = kernel_naive_ms / kernel_batched_ms;
    println!(
        "theorem1 kernel (n={kn}, |V'|=32, B=16): batched {kernel_batched_ms:.3} ms, \
         naive {kernel_naive_ms:.3} ms, speedup {kernel_speedup:.1}x"
    );

    // The clusters workload: batched restricted multi-source cluster growing
    // vs the retained per-centre restricted Dijkstra oracle at k = 2 on the
    // same graph — the whole exact cluster family (every level), plus the
    // spanning top level alone (threshold = ∞ for every vertex, the shape
    // where source regions overlap completely and batching pays most).
    let cparams = SchemeParams::new(2, kn, 42);
    let chierarchy = Hierarchy::sample(&cparams);
    let ccsr = CsrGraph::from_graph(&kg);
    let cpivots = exact_pivots(&ccsr, &chierarchy);
    let per_level: Vec<(usize, Vec<usize>, Vec<u64>)> = (0..chierarchy.k())
        .map(|i| {
            (
                i,
                chierarchy.centers_at(i),
                membership_thresholds(&cpivots, i),
            )
        })
        .collect();
    let num_centers: usize = per_level.iter().map(|(_, c, _)| c.len()).sum();
    // One level's batched growth into a fresh forest.
    let grow = |centers: &[usize], level: usize, threshold: &[u64]| {
        let mut builder = ClusterForestBuilder::new(kn);
        grow_exact_clusters(&ccsr, centers, level, threshold, &cpivots, &mut builder);
        builder.finish().num_clusters()
    };
    let (clusters_batched_ms, _) = best_of(kernel_runs, || {
        per_level
            .iter()
            .map(|(i, centers, threshold)| grow(centers, *i, threshold))
            .sum::<usize>()
    });
    let (clusters_per_centre_ms, _) = best_of(kernel_runs, || {
        per_level
            .iter()
            .map(|(i, centers, threshold)| {
                centers
                    .iter()
                    .map(|&c| grow_exact_cluster_csr(&ccsr, c, *i, threshold).size())
                    .sum::<usize>()
            })
            .sum::<usize>()
    });
    let clusters_speedup = clusters_per_centre_ms / clusters_batched_ms;
    let (top_level, top_centers, top_threshold) = per_level.last().expect("k >= 1");
    let (spanning_batched_ms, _) =
        best_of(kernel_runs, || grow(top_centers, *top_level, top_threshold));
    let (spanning_per_centre_ms, _) = best_of(kernel_runs, || {
        top_centers
            .iter()
            .map(|&c| grow_exact_cluster_csr(&ccsr, c, *top_level, top_threshold).size())
            .sum::<usize>()
    });
    let spanning_speedup = spanning_per_centre_ms / spanning_batched_ms;
    println!(
        "clusters family (n={kn}, k=2, {num_centers} centres): batched \
         {clusters_batched_ms:.3} ms, per-centre {clusters_per_centre_ms:.3} ms, \
         speedup {clusters_speedup:.1}x"
    );
    println!(
        "clusters spanning level (n={kn}, {} centres): batched \
         {spanning_batched_ms:.3} ms, per-centre {spanning_per_centre_ms:.3} ms, \
         speedup {spanning_speedup:.1}x",
        top_centers.len()
    );

    // The assemble workload: Section-4 tables/labels assembly over a
    // prebuilt exact family, plus the family's compact-forest byte footprint.
    let assemble_sizes: &[usize] = if smoke { &[200] } else { &[500, 1000, 10000] };
    let mut assemble_entries = String::new();
    for &n in assemble_sizes {
        let g = workload(n);
        for k in [2usize, 3] {
            let params = SchemeParams::new(k, n, 42);
            let hierarchy = Hierarchy::sample(&params);
            let family = exact_cluster_family(&g, &hierarchy);
            let family_bytes = family.cluster_bytes();
            let (assemble_ms, _) = best_of(runs, || RoutingScheme::assemble(&family, &g, 42));
            println!(
                "assemble n={n} k={k}: {assemble_ms:.3} ms, {} clusters, \
                 total members {}, family footprint {:.2} MB",
                family.num_clusters(),
                family.total_cluster_size(),
                family_bytes as f64 / 1e6
            );
            if !assemble_entries.is_empty() {
                assemble_entries.push_str(",\n");
            }
            let _ = write!(
                assemble_entries,
                "    {{\"n\": {n}, \"k\": {k}, \"assemble_ms\": {assemble_ms:.3}, \
                 \"clusters\": {}, \"total_members\": {}, \"family_bytes\": {family_bytes}}}",
                family.num_clusters(),
                family.total_cluster_size()
            );
        }
    }

    // The queries workload: the en_wire serving path — snapshot size,
    // zero-copy load time, and batched routing throughput off the flat
    // columns, single-threaded vs sharded.
    let query_sizes: &[usize] = if smoke { &[200] } else { &[1000, 10000] };
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let query_pairs = if smoke { 2_000 } else { 20_000 };
    let mut query_entries = String::new();
    for &n in query_sizes {
        let g = workload(n);
        for k in [2usize, 3] {
            let built = build_routing_scheme(&g, &ConstructionConfig::new(k, 42)).unwrap();
            let (serialize_ms, bytes) = best_of(runs, || en_wire::serialize(&built.scheme));
            // Open-path costs, kept apart so each optimisation is
            // attributable: `read_us` is the buffer copy alone (what an
            // owned open pays to get the bytes in hand), `mmap_open_us`
            // the page-cache open (`MappedSnapshot::open` alone — no copy,
            // the bytes stay in the kernel page cache), and `validate_us`
            // `from_bytes`, the checksum and structure pass — the
            // per-publish integrity tax.
            let (read_ms, _) = best_of(kernel_runs, || bytes.clone().len());
            let tmp = std::path::Path::new("target/tmp");
            std::fs::create_dir_all(tmp).expect("scratch dir under target/");
            let snap_path = tmp.join(format!("perf_baseline_{n}_{k}.enwire"));
            std::fs::write(&snap_path, &bytes).expect("write snapshot scratch file");
            let (mmap_ms, mapped) = best_of(kernel_runs, || {
                MappedSnapshot::open(&snap_path)
                    .expect("snapshot opens")
                    .is_mapped()
            });
            std::fs::remove_file(&snap_path).ok();
            let (validate_ms, _) = best_of(kernel_runs, || {
                FlatScheme::from_bytes(&bytes)
                    .expect("snapshot validates")
                    .n()
            });
            let validate_gbps = if validate_ms > 0.0 {
                bytes.len() as f64 / 1e9 / (validate_ms / 1e3)
            } else {
                0.0
            };
            let flat = FlatScheme::from_bytes(&bytes).expect("snapshot validates");
            let engine = QueryEngine::new(flat, &g).expect("graph matches snapshot");
            let pairs = generate_pairs(&g, &PairWorkload::Uniform, query_pairs, 7);
            // Throughput and ratio numbers are acceptance-tracked; give them
            // the kernel-comparison best-of-N so one noisy scheduler slice
            // does not move the committed trajectory.
            let (single_ms, delivered) = best_of(kernel_runs, || {
                engine.route_batch(&pairs, None, 1).stats.delivered
            });
            assert_eq!(delivered, pairs.len(), "all pairs must deliver");
            let (multi_ms, _) = best_of(kernel_runs, || {
                engine
                    .route_batch(&pairs, None, QUERY_THREADS)
                    .stats
                    .delivered
            });
            // The same pairs through the in-memory scheme, single-threaded
            // and with the same exact=0 shortcut, so `flat_vs_inmem` is the
            // flat columns against the owned structures with the identical
            // forwarding kernel on both sides.
            let (inmem_ms, inmem_delivered) = best_of(kernel_runs, || {
                pairs
                    .iter()
                    .filter(|&&(u, v)| built.scheme.route_with_exact(&g, u, v, 0).is_ok())
                    .count()
            });
            assert_eq!(inmem_delivered, pairs.len(), "all pairs must deliver");
            let single_rps = pairs.len() as f64 / (single_ms / 1e3);
            let multi_rps = pairs.len() as f64 / (multi_ms / 1e3);
            let inmem_rps = pairs.len() as f64 / (inmem_ms / 1e3);
            let flat_vs_inmem = single_rps / inmem_rps;
            // The observability tax, measured on the very same uniform
            // single-thread batch. No-op: nothing installed (unless the
            // whole run carries --obs-out), so the gate branch-predicts
            // false and the only added work is one relaxed load per chunk —
            // the committed bar is ≤ 1.02. Both sides of the ratio run the
            // identical code path, so the runs are INTERLEAVED pair-wise
            // (base, noop, base, noop, …) and each side keeps its own
            // best-of: scheduler drift on the noisy single-CPU recording
            // host then lands on both sides instead of skewing whichever
            // block ran second. Active: a scoped registry actually
            // recording per-route histograms and batch counters
            // (informational, same interleaved base).
            let mut noop_base_ms = f64::MAX;
            let mut obs_noop_ms = f64::MAX;
            for _ in 0..kernel_runs {
                let t = Instant::now();
                engine.route_batch(&pairs, None, 1);
                noop_base_ms = noop_base_ms.min(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                engine.route_batch(&pairs, None, 1);
                obs_noop_ms = obs_noop_ms.min(t.elapsed().as_secs_f64() * 1e3);
            }
            let obs_noop_overhead = obs_noop_ms / noop_base_ms;
            let obs_scoped = std::sync::Arc::new(en_obs::MetricsRegistry::new());
            let (obs_active_ms, _) = {
                let _g = en_obs::install(obs_scoped.clone());
                best_of(kernel_runs, || {
                    engine.route_batch(&pairs, None, 1).stats.delivered
                })
            };
            let obs_active_overhead = obs_active_ms / noop_base_ms;
            assert_eq!(
                obs_scoped.counter_value("wire.batch.delivered"),
                (kernel_runs * pairs.len()) as u64,
                "active-recorder pass must account every delivered route"
            );
            // The Zipf-hotspot workload (both endpoints skewed, exponent
            // 1.2): repeated pairs over the same snapshot.
            let zipf_exponent = 1.2;
            let zipf_pairs = generate_pairs(
                &g,
                &PairWorkload::ZipfHotspot {
                    exponent: zipf_exponent,
                },
                query_pairs,
                7,
            );
            let (zipf_ms, _) = best_of(kernel_runs, || {
                engine.route_batch(&zipf_pairs, None, 1).stats.delivered
            });
            let zipf_rps = zipf_pairs.len() as f64 / (zipf_ms / 1e3);
            println!(
                "queries n={n} k={k}: snapshot {} bytes ({:.1}/vertex), serialize \
                 {serialize_ms:.3} ms, read {:.1} us, \
                 mmap open {:.1} us (mapped: {mapped}), validate {:.1} us \
                 ({validate_gbps:.2} GB/s), \
                 {} pairs: single {single_ms:.3} ms \
                 ({single_rps:.0} routes/s), {QUERY_THREADS} threads {multi_ms:.3} ms \
                 ({multi_rps:.0} routes/s, {:.2}x), in-memory {inmem_ms:.3} ms \
                 ({inmem_rps:.0} routes/s, flat/inmem {flat_vs_inmem:.2})",
                bytes.len(),
                bytes.len() as f64 / n as f64,
                read_ms * 1e3,
                mmap_ms * 1e3,
                validate_ms * 1e3,
                pairs.len(),
                multi_rps / single_rps
            );
            println!(
                "          zipf s={zipf_exponent}: {zipf_ms:.3} ms \
                 ({zipf_rps:.0} routes/s)"
            );
            println!(
                "          obs overhead (single-thread): no-op recorder \
                 {obs_noop_ms:.3} ms ({obs_noop_overhead:.3}x, bar <= 1.02), \
                 active registry {obs_active_ms:.3} ms ({obs_active_overhead:.3}x)"
            );
            if !query_entries.is_empty() {
                query_entries.push_str(",\n");
            }
            let _ = write!(
                query_entries,
                "    {{\"n\": {n}, \"k\": {k}, \"snapshot_bytes\": {}, \
                 \"serialize_ms\": {serialize_ms:.3}, \"read_us\": {:.1}, \
                 \"mmap_open_us\": {:.1}, \
                 \"mmap_mapped\": {mapped}, \
                 \"validate_us\": {:.1}, \"validate_gb_per_s\": {validate_gbps:.2}, \
                 \"pairs\": {}, \"single_thread_ms\": {single_ms:.3}, \
                 \"single_routes_per_sec\": {single_rps:.0}, \
                 \"multi_thread_ms\": {multi_ms:.3}, \
                 \"multi_routes_per_sec\": {multi_rps:.0}, \
                 \"multi_vs_single\": {:.2}, \
                 \"inmem_thread_ms\": {inmem_ms:.3}, \
                 \"inmem_routes_per_sec\": {inmem_rps:.0}, \
                 \"flat_vs_inmem\": {flat_vs_inmem:.2}, \
                 \"zipf_exponent\": {zipf_exponent}, \
                 \"zipf_routes_per_sec\": {zipf_rps:.0}, \
                 \"obs_noop_overhead\": {obs_noop_overhead:.3}, \
                 \"obs_active_overhead\": {obs_active_overhead:.3}}}",
                bytes.len(),
                read_ms * 1e3,
                mmap_ms * 1e3,
                validate_ms * 1e3,
                pairs.len(),
                multi_rps / single_rps
            );
        }
    }

    let mut entries = String::new();
    for &n in sizes {
        // The n = 10000 end-to-end point is a single timed run (it exists to
        // prove the size completes and track its ballpark, not to win a
        // best-of race).
        let runs = if n >= 10_000 { 1 } else { runs };
        for k in [2usize, 3] {
            let (gen_ms, g) = best_of(runs, || workload(n));
            let sources: Vec<usize> = (0..32).map(|i| i * 31 % n).collect();
            let (kernel_ms, _) = best_of(runs, || {
                multi_source_hop_bounded(&g, &sources, 16, 0.25, 10)
            });
            let (build_ms, built) = best_of(runs, || {
                build_routing_scheme(&g, &ConstructionConfig::new(k, 42)).unwrap()
            });
            warn_if_round_limit_hit(&built);
            let (route_ms, _) = best_of(runs, || {
                let mut total = 0u64;
                for (src, dst) in [(0, n - 1), (n / 7, n / 2), (n / 3, n - 2)] {
                    total += built.scheme.route(&g, src, dst).unwrap().length;
                    total += built.sketches.query(src, dst).unwrap().estimate;
                }
                total
            });
            println!(
                "n={n} k={k}: generate {gen_ms:.3} ms, theorem1 {kernel_ms:.3} ms, \
                 build {build_ms:.3} ms ({} rounds charged), route+sketch {route_ms:.3} ms",
                built.total_rounds()
            );
            if !entries.is_empty() {
                entries.push_str(",\n");
            }
            let _ = write!(
                entries,
                "    {{\"n\": {n}, \"k\": {k}, \"generate_ms\": {gen_ms:.3}, \
                 \"theorem1_kernel_ms\": {kernel_ms:.3}, \"build_ms\": {build_ms:.3}, \
                 \"charged_rounds\": {}, \"route_and_sketch_ms\": {route_ms:.3}}}",
                built.total_rounds()
            );
        }
    }

    // The obs dump is written in smoke mode too — CI's obs-smoke step runs
    // `--smoke --obs-out` and validates the emitted file.
    if let (Some(path), Some(reg)) = (&obs_out, &obs_registry) {
        en_bench::write_obs_dump(path, reg).expect("write obs dump");
        println!("wrote obs dump to {}", path.display());
    }

    if smoke {
        println!("smoke mode: skipping {OUTPUT} and {QUERIES_OUTPUT} writes");
        return;
    }
    let queries_json = format!(
        "{{\n  \"schema\": \"en-bench/queries-v6\",\n  \"workload\": \
         \"uniform + zipf(1.2) pairs over erdos-renyi avg-degree 8, \
         weights 1..=100, seed 42\",\n  \
         \"host_cpus\": {host_cpus},\n  \"multi_threads\": {QUERY_THREADS},\n  \
         \"entries\": [\n{query_entries}\n  ]\n}}\n"
    );
    std::fs::write(QUERIES_OUTPUT, queries_json).expect("write BENCH_queries.json");
    println!("wrote {QUERIES_OUTPUT}");
    let json = format!(
        "{{\n  \"schema\": \"en-bench/construction-v1\",\n  \"workload\": \
         \"erdos-renyi avg-degree 8, weights 1..=100, seed 42\",\n  \
         \"host_cpus\": {host_cpus},\n  \
         \"theorem1_kernel\": {{\"n\": {kn}, \"sources\": 32, \"hop_bound\": 16, \
         \"batched_ms\": {kernel_batched_ms:.3}, \"naive_ms\": {kernel_naive_ms:.3}, \
         \"speedup\": {kernel_speedup:.2}}},\n  \
         \"clusters_kernel\": {{\"n\": {kn}, \"k\": 2, \"centers\": {num_centers}, \
         \"family_batched_ms\": {clusters_batched_ms:.3}, \
         \"family_per_centre_ms\": {clusters_per_centre_ms:.3}, \
         \"family_speedup\": {clusters_speedup:.2}, \
         \"spanning_batched_ms\": {spanning_batched_ms:.3}, \
         \"spanning_per_centre_ms\": {spanning_per_centre_ms:.3}, \
         \"spanning_speedup\": {spanning_speedup:.2}}},\n  \
         \"assemble\": [\n{assemble_entries}\n  ],\n  \"entries\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(OUTPUT, json).expect("write BENCH_construction.json");
    println!("wrote {OUTPUT}");
}
