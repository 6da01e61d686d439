//! Observability reconciliation: the `en_obs` metrics published by the
//! instrumented layers must agree *exactly* with the accounting the layers
//! already expose (`RoundLedger`, `BatchStats` at every serving thread
//! count, `StoreStats`, the snapshot manifest), and instrumentation must
//! never perturb outcomes.
//!
//! The recorder seam is process-global, so every test that installs a
//! registry serializes on [`OBS_LOCK`].

use std::sync::{Arc, Mutex, MutexGuard};

use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_graph::WeightedGraph;
use en_obs::MetricsRegistry;
use en_routing::construction::{build_routing_scheme, BuiltScheme, ConstructionConfig};
use en_wire::checksum::fnv1a_words;
use en_wire::{generate_pairs, BatchOutcome, FlatScheme, PairWorkload, QueryEngine, SchemeStore};

/// Serializes tests that install the process-global recorder.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn obs_lock() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn workload() -> WeightedGraph {
    erdos_renyi_connected(
        &GeneratorConfig::new(96, 17).with_weights(1, 50),
        8.0 / 96.0,
    )
}

fn build(g: &WeightedGraph) -> BuiltScheme {
    build_routing_scheme(g, &ConstructionConfig::new(2, 17))
        .expect("construction on a connected workload succeeds")
}

/// Folds a batch's observable outcome into one word for bit-identity checks.
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

#[test]
fn build_gauges_reconcile_with_the_round_ledger() {
    let _serial = obs_lock();
    let g = workload();
    let registry = Arc::new(MetricsRegistry::new());
    let built = {
        let _guard = en_obs::install(registry.clone());
        build(&g)
    };
    assert_eq!(
        registry.gauge_value("congest.rounds_charged"),
        built.ledger.total_rounds() as u64,
        "congest.rounds_charged vs RoundLedger"
    );
    assert_eq!(
        registry.gauge_value("congest.phases_charged"),
        built.ledger.len() as u64,
        "congest.phases_charged vs RoundLedger"
    );
}

#[test]
fn batch_counters_reconcile_and_outcomes_stay_bit_identical() {
    let _serial = obs_lock();
    let g = workload();
    let built = build(&g);
    let bytes = en_wire::serialize(&built.scheme);
    let flat = FlatScheme::from_bytes(&bytes).expect("snapshot validates");
    let engine = QueryEngine::new(flat, &g).expect("same graph");
    let pairs = generate_pairs(&g, &PairWorkload::Uniform, 300, 7);

    // Baseline digests with no recorder installed.
    let base: Vec<u64> = [1usize, 2, 8]
        .iter()
        .map(|&t| digest(&engine.route_batch(&pairs, None, t)))
        .collect();

    for (i, threads) in [1usize, 2, 8].into_iter().enumerate() {
        let registry = Arc::new(MetricsRegistry::new());
        let batch = {
            let _guard = en_obs::install(registry.clone());
            engine.route_batch(&pairs, None, threads)
        };
        assert_eq!(
            digest(&batch),
            base[i],
            "instrumentation changed outcomes at {threads} threads"
        );
        let s = &batch.stats;
        for (name, want) in [
            ("wire.batch.pairs", s.pairs as u64),
            ("wire.batch.delivered", s.delivered as u64),
            ("wire.batch.failed", s.failed as u64),
            ("wire.batch.hops_total", s.total_hops),
            ("wire.batch.length_total", s.total_length),
            ("wire.shard.panics", s.shard_panics as u64),
            ("wire.shard.retried", s.retried as u64),
            ("wire.shard.degraded", s.degraded as u64),
        ] {
            assert_eq!(
                registry.counter_value(name),
                want,
                "{name} vs BatchStats at {threads} threads"
            );
        }
        // Every routed pair lands in the latency histogram; every delivery
        // lands in the hops histogram.
        assert_eq!(
            registry.histogram("wire.route_latency_ns").count(),
            s.pairs as u64,
            "latency histogram count at {threads} threads"
        );
        let hops = registry.histogram("wire.route_hops");
        assert_eq!(
            hops.count(),
            s.delivered as u64,
            "hops histogram count at {threads} threads"
        );
        assert_eq!(
            hops.sum(),
            s.total_hops,
            "hops histogram sum vs BatchStats.total_hops at {threads} threads"
        );
    }
}

#[test]
fn validate_counters_reconcile_with_the_manifest() {
    let _serial = obs_lock();
    let g = workload();
    let built = build(&g);
    let bytes = en_wire::serialize(&built.scheme);
    let registry = Arc::new(MetricsRegistry::new());
    let manifest = {
        let _guard = en_obs::install(registry.clone());
        FlatScheme::from_bytes(&bytes)
            .expect("snapshot validates")
            .manifest()
    };
    let section_words: usize = manifest.sections.iter().map(|s| s.words).sum();
    assert_eq!(registry.counter_value("wire.validate.runs"), 1);
    assert_eq!(
        registry.counter_value("wire.validate.words_total"),
        section_words as u64,
        "wire.validate.words_total vs the manifest's section words"
    );
    assert_eq!(registry.histogram("wire.validate_ns").count(), 1);
}

#[test]
fn store_counters_reconcile_with_store_stats() {
    let _serial = obs_lock();
    let g = workload();
    let bytes = en_wire::serialize(&build(&g).scheme);
    let registry = Arc::new(MetricsRegistry::new());
    let stats = {
        let _guard = en_obs::install(registry.clone());
        let store = SchemeStore::new(bytes.clone()).expect("snapshot validates");
        store
            .publish(bytes.clone())
            .expect("a valid snapshot publishes");
        let truncated = bytes[..bytes.len() - 8].to_vec();
        assert!(
            store.publish(truncated).is_err(),
            "a corrupt snapshot is rejected"
        );
        store.stats()
    };
    assert_eq!(
        (stats.published, stats.rejected, stats.current_epoch),
        (1, 1, 1)
    );
    assert_eq!(registry.counter_value("store.published"), stats.published);
    assert_eq!(registry.counter_value("store.rejected"), stats.rejected);
    assert_eq!(
        registry.gauge_value("store.current_epoch"),
        stats.current_epoch
    );
}

#[test]
fn live_run_dump_passes_schema_validation_in_both_formats() {
    let _serial = obs_lock();
    let g = workload();
    let registry = Arc::new(MetricsRegistry::new());
    {
        let _guard = en_obs::install(registry.clone());
        let built = build(&g);
        let bytes = en_wire::serialize(&built.scheme);
        let flat = FlatScheme::from_bytes(&bytes).expect("snapshot validates");
        let engine = QueryEngine::new(flat, &g).expect("same graph");
        let pairs = generate_pairs(&g, &PairWorkload::Uniform, 100, 3);
        engine.route_batch(&pairs, None, 2);
    }
    let jsonl = en_obs::to_jsonl(&registry);
    let summary = en_obs::validate_jsonl(&jsonl).expect("live dump conforms to en-obs/v1");
    assert!(summary.counters >= 5, "dump carries the wired counters");
    assert!(summary.histograms >= 2, "dump carries the wired histograms");
    assert!(summary.spans >= 1, "dump carries the construction spans");
    let prom = en_obs::to_prometheus(&registry);
    assert!(prom.contains("wire_batch_pairs"));
    assert!(prom.contains("_bucket{le=\"+Inf\"}"));
}
