//! Figure B bench: cost of assembling tables/labels from a cluster family, and
//! of measuring their sizes, as `k` varies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use en_bench::Workload;
use en_routing::exact::exact_cluster_family;
use en_routing::hierarchy::Hierarchy;
use en_routing::params::SchemeParams;
use en_routing::scheme::RoutingScheme;

fn bench_assembly(c: &mut Criterion) {
    let n = 128;
    let g = Workload::ErdosRenyi.generate(n, 7);
    let mut group = c.benchmark_group("scheme_assembly");
    group.sample_size(10);
    for k in [2usize, 4] {
        let params = SchemeParams::new(k, n, 7);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        group.bench_with_input(BenchmarkId::new("assemble", k), &k, |b, _| {
            b.iter(|| RoutingScheme::assemble(&family, &g, 7))
        });
        let scheme = RoutingScheme::assemble(&family, &g, 7);
        group.bench_with_input(BenchmarkId::new("measure_table_words", k), &k, |b, _| {
            b.iter(|| (scheme.max_table_words(), scheme.max_label_words()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_assembly);
criterion_main!(benches);
