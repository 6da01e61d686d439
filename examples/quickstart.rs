//! Quickstart: build the paper's routing scheme on a random network, route a
//! few packets, and query the distance-estimation sketches.
//!
//! Run with: `cargo run --release -p en_bench --example quickstart`

use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
use en_routing::construction::{build_routing_scheme, ConstructionConfig};
use en_routing::RoutingError;

fn main() -> Result<(), RoutingError> {
    // A reproducible random network: 200 routers, average degree ~8,
    // integer weights (e.g. link latencies) in 1..=100.
    let n = 200;
    let graph = erdos_renyi_connected(
        &GeneratorConfig::new(n, 42).with_weights(1, 100),
        8.0 / n as f64,
    );
    println!(
        "network: {} vertices, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    );

    // Build the compact routing scheme with k = 3 (stretch at most 4k-5 = 7).
    let built = build_routing_scheme(&graph, &ConstructionConfig::new(3, 42))?;
    println!(
        "construction charged {} CONGEST rounds over {} phases (hop-diameter ~{})",
        built.total_rounds(),
        built.ledger.len(),
        built.hop_diameter
    );
    println!(
        "routing tables: max {} words, avg {:.1} words; labels: max {} words",
        built.scheme.max_table_words(),
        built.scheme.avg_table_words(),
        built.scheme.max_label_words()
    );

    // Route a few packets and report their stretch.
    for (src, dst) in [(0, 150), (17, 99), (42, 183)] {
        let outcome = built.scheme.route(&graph, src, dst)?;
        println!(
            "packet {src} -> {dst}: {} hops, length {}, shortest {}, stretch {:.3} (via level-{} tree rooted at {})",
            outcome.path.hops(),
            outcome.length,
            outcome.exact,
            outcome.stretch,
            outcome.level,
            outcome.tree_root
        );
    }

    // Distance estimation from the sketches alone (no routing, no graph access).
    let estimate = built.sketches.query(0, 150)?;
    println!(
        "sketch-based distance estimate for (0, 150): {} in {} iterations (sketch size: max {} words)",
        estimate.estimate,
        estimate.iterations,
        built.sketches.max_sketch_words()
    );

    // The phase-by-phase round ledger, exactly as the paper's analysis charges it.
    println!("\nround ledger:\n{}", built.ledger);
    Ok(())
}
