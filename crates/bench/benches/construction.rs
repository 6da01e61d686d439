//! End-to-end construction bench plus the Theorem-1 kernel comparison.
//!
//! Two groups:
//!
//! * `construction`: wall time of the end-to-end build at
//!   `n ∈ {200, 500, 1000}`, `k ∈ {2, 3}`, along a threads axis — the
//!   sequential oracle (`threads = 1`) vs the host's full parallelism — the
//!   repo's headline perf trajectory (the `perf_baseline` harness bin
//!   records the same numbers, plus the per-thread work accounting, into
//!   `BENCH_construction.json`; the two axes produce bit-identical schemes,
//!   so the gap is pure construction wall time).
//! * `theorem1_kernel`: the batched frontier/CSR `multi_source_hop_bounded`
//!   against the retained naive reference on the acceptance workload
//!   (1000 vertices, |V'| = 32, B = 16); the batched kernel must stay ≥ 5×
//!   faster.
//! * `clusters`: the batched restricted multi-source cluster growing
//!   (`grow_exact_clusters_batched_with_pivots`) against the retained
//!   per-centre restricted Dijkstra oracle, whole exact family at n = 1000,
//!   k = 2. The recorded bar (BENCH_construction.json): the spanning top
//!   level must stay ≥ 3× faster batched; whole-family growth is tracked
//!   alongside (currently ~parity — level-0 clusters average ~30 members at
//!   degree 8, where the per-centre heap search is already cheap).
//! * `assemble`: `RoutingScheme::assemble` over a prebuilt exact cluster
//!   family at `n ∈ {500, 1000, 10000}`, `k ∈ {2, 3}` — the Section-4
//!   tables/labels assembly the compact-forest membership CSR rewrote; the
//!   recorded bar (BENCH_construction.json) is ≥ 2× vs the pre-forest
//!   assembly at n = 1000, k = 2.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use en_congest_algos::theorem1::{multi_source_hop_bounded, multi_source_hop_bounded_reference};
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::{BuildOptions, CsrGraph};
use en_routing::construction::{build_routing_scheme_with, ConstructionConfig};
use en_routing::exact::{
    exact_cluster_family, exact_pivots_csr, grow_exact_cluster_csr,
    grow_exact_clusters_batched_with_pivots, membership_thresholds,
};
use en_routing::scheme::RoutingScheme;
use en_routing::{Hierarchy, SchemeParams};

fn bench_construction(c: &mut Criterion) {
    let mut group = c.benchmark_group("construction");
    group.sample_size(10);
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    for n in [200usize, 500, 1000] {
        let g = erdos_renyi_connected(
            &GeneratorConfig::new(n, 42).with_weights(1, 100),
            8.0 / n as f64,
        );
        for k in [2usize, 3] {
            for (axis, threads) in [("t1", 1usize), ("tmax", host_cpus)] {
                group.bench_with_input(
                    BenchmarkId::new(
                        "build_routing_scheme",
                        format!("n{n}_k{k}_{axis}x{threads}"),
                    ),
                    &(k, threads),
                    |b, &(k, threads)| {
                        b.iter(|| {
                            build_routing_scheme_with(
                                &g,
                                &ConstructionConfig::new(k, 42),
                                &BuildOptions::new(threads),
                            )
                            .unwrap()
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

fn bench_theorem1_kernel(c: &mut Criterion) {
    let n = 1000;
    let g = erdos_renyi_connected(
        &GeneratorConfig::new(n, 7).with_weights(1, 100),
        8.0 / n as f64,
    );
    let sources: Vec<usize> = (0..32).map(|i| i * 31 % n).collect();
    let mut group = c.benchmark_group("theorem1_kernel");
    group.sample_size(20);
    group.bench_function("batched_n1000_s32_b16", |b| {
        b.iter(|| multi_source_hop_bounded(&g, &sources, 16, 0.25, 10))
    });
    group.bench_function("naive_reference_n1000_s32_b16", |b| {
        b.iter(|| multi_source_hop_bounded_reference(&g, &sources, 16))
    });
    group.finish();
}

fn bench_clusters_kernel(c: &mut Criterion) {
    let n = 1000;
    let g = erdos_renyi_connected(
        &GeneratorConfig::new(n, 7).with_weights(1, 100),
        8.0 / n as f64,
    );
    let params = SchemeParams::new(2, n, 42);
    let hierarchy = Hierarchy::sample(&params);
    let csr = CsrGraph::from_graph(&g);
    let pivots = exact_pivots_csr(&csr, &hierarchy);
    let per_level: Vec<(usize, Vec<usize>, Vec<u64>)> = (0..hierarchy.k())
        .map(|i| {
            (
                i,
                hierarchy.centers_at(i),
                membership_thresholds(&pivots, i),
            )
        })
        .collect();
    let mut group = c.benchmark_group("clusters");
    group.sample_size(10);
    group.bench_function("batched_family_n1000_k2", |b| {
        b.iter(|| {
            per_level
                .iter()
                .map(|(i, centers, threshold)| {
                    grow_exact_clusters_batched_with_pivots(&csr, centers, *i, threshold, &pivots)
                        .num_clusters()
                })
                .sum::<usize>()
        })
    });
    group.bench_function("per_centre_oracle_n1000_k2", |b| {
        b.iter(|| {
            per_level
                .iter()
                .map(|(i, centers, threshold)| {
                    centers
                        .iter()
                        .map(|&c| grow_exact_cluster_csr(&csr, c, *i, threshold).size())
                        .sum::<usize>()
                })
                .sum::<usize>()
        })
    });
    group.finish();
}

fn bench_assemble(c: &mut Criterion) {
    let mut group = c.benchmark_group("assemble");
    group.sample_size(10);
    for n in [500usize, 1000, 10000] {
        let g = erdos_renyi_connected(
            &GeneratorConfig::new(n, 42).with_weights(1, 100),
            8.0 / n as f64,
        );
        for k in [2usize, 3] {
            let params = SchemeParams::new(k, n, 42);
            let hierarchy = Hierarchy::sample(&params);
            let family = exact_cluster_family(&g, &hierarchy);
            group.bench_with_input(
                BenchmarkId::new("assemble", format!("n{n}_k{k}")),
                &family,
                |b, family| b.iter(|| RoutingScheme::assemble(family, &g, 42)),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_construction,
    bench_theorem1_kernel,
    bench_clusters_kernel,
    bench_assemble
);
criterion_main!(benches);
