//! Fault tolerance of the serving stack, end to end: snapshot integrity
//! rejects corruption at load, the structural proof rejects corruption
//! whose checksums were forged or else serves it without a panic, and the
//! epoch store hot-swaps without tearing concurrent readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use en_graph::bfs::is_connected;
use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::WeightedGraph;
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::error::RoutingError;
use en_wire::faultsim::{
    drill_forged, drill_loads, offset_scramble_plan, section_flip_plan, truncation_plan,
};
use en_wire::{generate_pairs, serialize, FlatScheme, PairWorkload, QueryEngine, SchemeStore};

fn graph(n: usize, seed: u64) -> WeightedGraph {
    erdos_renyi_connected(
        &GeneratorConfig::new(n, seed).with_weights(1, 30),
        8.0 / n as f64,
    )
}

fn snapshot_of(g: &WeightedGraph, k: usize, seed: u64) -> Vec<u8> {
    let built = build_routing_scheme(g, &ConstructionConfig::new(k, seed)).unwrap();
    serialize(&built.scheme)
}

/// Every seeded fault plan is rejected at load time with a structured
/// error — zero panics, zero silently-accepted corruption.
#[test]
fn corruption_is_detected_at_load() {
    let g = graph(150, 5);
    let bytes = snapshot_of(&g, 2, 5);
    let manifest = FlatScheme::from_bytes(&bytes).unwrap().manifest();

    let mut report = drill_loads(&bytes, &truncation_plan(&manifest));
    report.merge(drill_loads(&bytes, &section_flip_plan(&manifest, 21, 6)));
    report.merge(drill_loads(
        &bytes,
        &offset_scramble_plan(&manifest, 22, 32),
    ));
    assert!(
        report.all_handled(),
        "undetected faults: {:?}",
        report.undetected
    );
    assert_eq!(report.detected, report.injected);
    assert!(
        report.injected > 20,
        "the plans must actually inject faults"
    );
}

/// Section damage with the checksums re-sealed around it leaves only the
/// structural proof in `from_bytes` to stop it: every forged snapshot is
/// rejected, or validates and is served at 1, 2 and 8 threads with zero
/// shard panics and identical outcomes.
#[test]
fn forged_corruption_is_rejected_or_served_panic_free() {
    let g = graph(150, 6);
    let bytes = snapshot_of(&g, 2, 6);
    let manifest = FlatScheme::from_bytes(&bytes).unwrap().manifest();
    let pairs = generate_pairs(&g, &PairWorkload::Uniform, 300, 3);

    let mut plan = section_flip_plan(&manifest, 31, 4);
    plan.extend(offset_scramble_plan(&manifest, 32, 16));
    let report = drill_forged(&bytes, &g, &pairs, &plan);
    assert!(
        report.all_handled(),
        "forged snapshots that panicked a shard or varied with the thread count: {:?}",
        report.undetected
    );
    assert!(report.detected > 0, "the structural proof must reject some");
    assert!(
        report.degraded + report.survived > 0,
        "some forged damage is consistent and must be served"
    );
}

/// A snapshot served against a different graph of the same size:
/// `QueryEngine::new` can only compare vertex counts, so every route must
/// either weigh its path in the graph it was given or fail with a
/// structured `NonEdgeHop` — never report a length the graph does not
/// have. The in-memory scheme and the snapshot agree on every pair.
#[test]
fn wrong_graph_of_the_same_size_fails_non_edge_hops() {
    let g = graph(120, 7);
    // The same vertices with every edge re-weighted and every fourth edge
    // dropped: routes that avoid the dropped edges deliver, weighed in the
    // new weights, and the others cross a non-edge.
    let other = WeightedGraph::from_edges(
        g.num_nodes(),
        g.edges()
            .enumerate()
            .filter(|(i, _)| i % 4 != 3)
            .map(|(_, e)| (e.u, e.v, 31 - e.weight)),
    )
    .unwrap();
    assert!(is_connected(&other), "a connected foreign graph");
    let built = build_routing_scheme(&g, &ConstructionConfig::new(3, 7)).unwrap();
    let bytes = serialize(&built.scheme);
    let flat = FlatScheme::from_bytes(&bytes).unwrap();
    let engine = QueryEngine::new(flat, &other).expect("same n passes the constructor");
    let (mut weighed, mut non_edge) = (0usize, 0usize);
    for &(u, v) in &generate_pairs(&other, &PairWorkload::Uniform, 300, 9) {
        let flat = engine.route(u, v);
        let in_memory = built.scheme.route(&other, u, v);
        match (&flat, &in_memory) {
            (Ok(a), Ok(c)) => {
                assert_eq!(a.path.length_in(&other), Some(a.length), "{u}->{v}");
                // A real path of `other` is never shorter than its
                // shortest path: no stretch below 1 can be reported.
                assert!(a.length >= a.exact, "{u}->{v}");
                assert_eq!(c.tree_root, a.tree_root, "{u}->{v}");
                assert_eq!((&c.path, c.length), (&a.path, a.length), "{u}->{v}");
                assert_eq!(c.stretch.to_bits(), a.stretch.to_bits(), "{u}->{v}");
                weighed += 1;
            }
            (Err(e @ RoutingError::NonEdgeHop { from, to }), _) => {
                assert!(!other.has_edge(*from, *to), "{u}->{v}: {from}->{to}");
                assert!(
                    g.has_edge(*from, *to),
                    "the hop is a tree edge of the built graph"
                );
                assert_eq!(
                    in_memory.as_ref().err(),
                    Some(e),
                    "{u}->{v}: in-memory scheme"
                );
                non_edge += 1;
            }
            other_outcome => panic!("{u}->{v}: unexpected outcome {other_outcome:?}"),
        }
    }
    assert!(non_edge > 0, "a dropped edge must break some route");
    assert!(weighed > 0, "a route on kept edges must deliver");
}

/// The hot-swap property: concurrent readers always observe a whole epoch
/// (old or new, never a mix), failed publishes leave the prior epoch
/// serving, and pinned epochs outlive the swap.
#[test]
fn hot_swap_never_tears_concurrent_readers() {
    let g = graph(150, 8);
    let bytes_a = snapshot_of(&g, 2, 8);
    let bytes_b = snapshot_of(&g, 2, 9);
    let pairs = generate_pairs(&g, &PairWorkload::Uniform, 150, 13);

    let outcomes_for = |bytes: &[u8]| -> Vec<Option<(usize, u64)>> {
        let flat = FlatScheme::from_bytes(bytes).unwrap();
        let engine = QueryEngine::new(flat, &g).unwrap();
        engine
            .route_batch(&pairs, None, 2)
            .outcomes
            .iter()
            .map(|o| o.as_ref().ok().map(|r| (r.tree_root, r.length)))
            .collect()
    };
    let expect_a = outcomes_for(&bytes_a);
    let expect_b = outcomes_for(&bytes_b);

    let store = Arc::new(SchemeStore::new(bytes_a.clone()).unwrap());
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::clone(&store);
                let (stop, g, pairs) = (&stop, &g, &pairs);
                let (expect_a, expect_b) = (&expect_a, &expect_b);
                scope.spawn(move || {
                    let mut batches = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let epoch = store.current();
                        let engine = QueryEngine::new(epoch.scheme(), g).unwrap();
                        let got: Vec<Option<(usize, u64)>> = engine
                            .route_batch(pairs, None, 2)
                            .outcomes
                            .iter()
                            .map(|o| o.as_ref().ok().map(|r| (r.tree_root, r.length)))
                            .collect();
                        // Even epochs serve A, odd epochs serve B — and the
                        // batch must match its pinned epoch exactly.
                        let expect = if epoch.id() % 2 == 0 {
                            expect_a
                        } else {
                            expect_b
                        };
                        assert_eq!(&got, expect, "torn view at epoch {}", epoch.id());
                        batches += 1;
                    }
                    batches
                })
            })
            .collect();

        let pinned = store.current();
        for i in 0..30u64 {
            let next = if store.current_id() % 2 == 0 {
                &bytes_b
            } else {
                &bytes_a
            };
            store.publish(next.clone()).expect("valid publish lands");
            // A corrupt candidate must be rejected without disturbing the
            // serving epoch.
            let mut junk = next.clone();
            let at = (i as usize * 131) % junk.len();
            junk[at] ^= 0x04;
            let before = store.current_id();
            // The exact error depends on where the flip lands (BadMagic in
            // word 0, ChecksumMismatch elsewhere) — what matters is that it
            // is an error, not a swap.
            assert!(store.publish(junk).is_err());
            assert_eq!(store.current_id(), before, "failed publish must not swap");
        }
        stop.store(true, Ordering::Relaxed);
        let total: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers must have routed at least one batch");

        // The epoch pinned before all 30 swaps is still whole and servable.
        assert_eq!(pinned.id(), 0);
        assert_eq!(pinned.bytes(), &bytes_a[..]);
        let engine = QueryEngine::new(pinned.scheme(), &g).unwrap();
        assert_eq!(engine.route_batch(&pairs, None, 1).stats.failed, 0);

        let stats = store.stats();
        assert_eq!(stats.published, 30);
        assert_eq!(stats.rejected, 30);
        assert_eq!(stats.current_epoch, 30);
    });
}
