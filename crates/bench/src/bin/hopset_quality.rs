//! Derived figure F: hopset quality (Theorem 2) — the `(β, ε)` property of the
//! path-reporting hopsets built on the virtual graphs the construction uses.
//!
//! Usage: `cargo run --release -p en_bench --bin hopset_quality [n]`

use en_bench::Workload;
use en_graph::bfs::hop_diameter_estimate;
use en_hopset::verify::verify_hopset_with_beta;
use en_hopset::{build_hopset, HopsetConfig};
use en_routing::hierarchy::Hierarchy;
use en_routing::params::SchemeParams;
use en_routing::preprocess::Preprocessing;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let seed = 41;

    println!("== Figure F (derived): hopset quality on the virtual graph ==\n");
    println!(
        "{:>3} {:>7} {:>8} {:>8} {:>10} {:>12} {:>12} {:>14}",
        "k", "|V'|", "|E'|", "|F|", "beta", "max ratio", "violations", "Thm2 rounds"
    );
    for k in [2usize, 3, 4, 5] {
        let g = Workload::ErdosRenyi.generate(n, seed);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let d = hop_diameter_estimate(&g);
        let Some(pre) = Preprocessing::run(&g, &hierarchy, &params, d) else {
            println!("{k:>3}  (V' empty; no large scales)");
            continue;
        };
        let report = verify_hopset_with_beta(&pre.gprime, &pre.hopset, pre.beta);
        let cfg = HopsetConfig::new(params.hopset_rho(), params.epsilon() / 3.0, seed);
        println!(
            "{:>3} {:>7} {:>8} {:>8} {:>10} {:>12.4} {:>12} {:>14}",
            k,
            pre.m(),
            pre.gprime.num_edges(),
            pre.hopset.len(),
            pre.beta,
            report.max_ratio,
            report.lower_violations,
            cfg.construction_rounds(pre.m(), d)
        );
        assert!(report.satisfies(pre.beta, params.epsilon()));
    }
    // A standalone check on a raw (non-virtual) graph, for reference.
    let g = Workload::Geometric.generate(n.min(256), seed);
    let h = build_hopset(&g, &HopsetConfig::new(0.4, 0.1, seed));
    let report = verify_hopset_with_beta(&g, &h, h.beta());
    println!(
        "\nraw geometric graph: |F| = {}, beta = {}, max ratio = {:.4}, violations = {}",
        h.len(),
        h.beta(),
        report.max_ratio,
        report.lower_violations
    );
}
