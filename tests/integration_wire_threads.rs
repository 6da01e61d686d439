//! Multi-thread determinism of the `en_wire` query engine: the same batch
//! sharded across 1, 2, and 8 scoped worker threads yields identical
//! per-pair outcomes *and* identical aggregate statistics (the stats are
//! folded in input order, so even the floating-point sums cannot depend on
//! the sharding).

use en_graph::dijkstra::dijkstra;
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::Dist;
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_wire::{generate_pairs, serialize, FlatScheme, PairWorkload, QueryEngine};

#[test]
fn batch_outcomes_are_identical_across_thread_counts() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(200, 17).with_weights(1, 40), 0.05);
    let built = build_routing_scheme(&g, &ConstructionConfig::new(3, 17)).unwrap();
    let bytes = serialize(&built.scheme);
    let flat = FlatScheme::from_bytes(&bytes).expect("snapshot validates");
    let engine = QueryEngine::new(flat, &g).expect("sizes match");

    // A mixed workload with precomputed exact distances, so the aggregate
    // stretch statistics are meaningful.
    let pairs = generate_pairs(
        &g,
        &PairWorkload::NearFar {
            near_fraction: 0.4,
            walk_hops: 2,
        },
        600,
        99,
    );
    let exacts: Vec<Dist> = {
        // One Dijkstra per distinct source, reused across its pairs.
        let mut cache: std::collections::HashMap<usize, Vec<Dist>> = Default::default();
        pairs
            .iter()
            .map(|&(u, v)| {
                cache
                    .entry(u)
                    .or_insert_with(|| dijkstra(&g, u).dist.clone())[v]
            })
            .collect()
    };

    // Per-shard accounting: at every thread count the shard totals must
    // reconstruct the batch exactly, and the fault counters stay zero on a
    // healthy snapshot.
    let check_shards = |batch: &en_wire::BatchOutcome, threads: usize| {
        let queries: usize = batch.shards.iter().map(|s| s.queries).sum();
        let errors: usize = batch.shards.iter().map(|s| s.errors).sum();
        let retries: usize = batch.shards.iter().map(|s| s.retries).sum();
        assert_eq!(queries, batch.stats.pairs, "{threads} threads");
        assert_eq!(errors, batch.stats.failed, "{threads} threads");
        assert_eq!(retries, batch.stats.retried, "{threads} threads");
        assert!(
            batch.shards.iter().all(|s| !s.panicked),
            "healthy snapshot panicked a shard at {threads} threads"
        );
        assert_eq!(batch.stats.shard_panics, 0, "{threads} threads");
        assert_eq!(batch.stats.retried, 0, "{threads} threads");
        assert_eq!(batch.stats.degraded, 0, "{threads} threads");
    };

    let single = engine.route_batch(&pairs, Some(&exacts), 1);
    assert_eq!(single.stats.pairs, pairs.len());
    assert_eq!(single.stats.failed, 0, "all pairs must deliver");
    assert!(single.stats.max_stretch >= 1.0);
    assert!(single.stats.total_hops > 0);
    assert_eq!(single.shards.len(), 1, "one shard on one thread");
    check_shards(&single, 1);

    for threads in [2usize, 8] {
        let sharded = engine.route_batch(&pairs, Some(&exacts), threads);
        assert_eq!(sharded.shards.len(), threads, "{threads} threads");
        check_shards(&sharded, threads);
        assert_eq!(
            sharded.outcomes.len(),
            single.outcomes.len(),
            "{threads} threads"
        );
        for (i, (a, b)) in single.outcomes.iter().zip(&sharded.outcomes).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.tree_root, b.tree_root, "pair {i}, {threads} threads");
            assert_eq!(a.level, b.level, "pair {i}");
            assert_eq!(a.path, b.path, "pair {i}, {threads} threads");
            assert_eq!(a.length, b.length, "pair {i}");
            assert_eq!(a.exact, b.exact, "pair {i}");
            assert_eq!(
                a.stretch.to_bits(),
                b.stretch.to_bits(),
                "pair {i}, {threads} threads"
            );
        }
        // Aggregates are computed in input order: identical too, compared
        // whole (the stretch fields bit for bit).
        assert_eq!(single.stats, sharded.stats, "{threads} threads");
        assert_eq!(
            single.stats.max_stretch.to_bits(),
            sharded.stats.max_stretch.to_bits(),
            "{threads} threads"
        );
        assert_eq!(
            single.stats.mean_stretch.to_bits(),
            sharded.stats.mean_stretch.to_bits(),
            "{threads} threads"
        );
    }

    // Degenerate shardings behave too: more threads than pairs, zero
    // threads, and remainders where ceil-sized chunks don't fill the last
    // shard (5 pairs over 4 threads leaves shard 3 empty).
    let tiny = &pairs[..3];
    let a = engine.route_batch(tiny, Some(&exacts[..3]), 16);
    let b = engine.route_batch(tiny, Some(&exacts[..3]), 0);
    assert_eq!(a.stats, b.stats);
    for (len, threads) in [(5usize, 4usize), (7, 5), (9, 7), (11, 8)] {
        let uneven = engine.route_batch(&pairs[..len], Some(&exacts[..len]), threads);
        assert_eq!(
            uneven.stats.pairs, len,
            "{len} pairs over {threads} threads"
        );
        assert_eq!(
            uneven.stats,
            engine
                .route_batch(&pairs[..len], Some(&exacts[..len]), 1)
                .stats
        );
        // Shard accounting also reconstructs uneven batches exactly.
        assert_eq!(
            uneven.shards.iter().map(|s| s.queries).sum::<usize>(),
            len,
            "{len} pairs over {threads} threads"
        );
    }
    let empty = engine.route_batch(&[], None, 4);
    assert_eq!(empty.stats.pairs, 0);
    assert_eq!(empty.stats.delivered, 0);
    assert_eq!(empty.shards.iter().map(|s| s.queries).sum::<usize>(), 0);

    // Out-of-range vertex ids on the flat read surface degrade gracefully
    // (the engine's own route path reports NodeOutOfRange for them).
    let flat = engine.flat();
    assert_eq!(flat.trees_of(flat.n()).len(), 0);
    assert!(flat.trees_of(flat.n() + 100).is_empty());
    assert!(flat.own_label(flat.n(), 0).is_none());
    assert_eq!(flat.own_label_count(flat.n() + 1), 0);
    assert_eq!(flat.label_entries_of(flat.n()).count(), 0);
    assert!(flat.cluster_of_center(flat.n() + 5).is_none());
}

#[test]
fn batch_without_exacts_reports_placeholder_stretch() {
    let g = erdos_renyi_connected(&GeneratorConfig::new(80, 3).with_weights(1, 20), 0.1);
    let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 3)).unwrap();
    let bytes = serialize(&built.scheme);
    let flat = FlatScheme::from_bytes(&bytes).unwrap();
    let engine = QueryEngine::new(flat, &g).unwrap();
    let pairs = generate_pairs(&g, &PairWorkload::Uniform, 100, 1);
    let batch = engine.route_batch(&pairs, None, 2);
    assert_eq!(batch.stats.failed, 0);
    for out in &batch.outcomes {
        let out = out.as_ref().unwrap();
        assert_eq!(out.exact, 0, "no exacts supplied");
        assert_eq!(out.stretch, 1.0, "placeholder stretch");
    }
}
