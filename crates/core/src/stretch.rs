//! Stretch measurement utilities shared by tests, examples and the benchmark
//! harness.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use en_graph::dijkstra::dijkstra;
use en_graph::{NodeId, WeightedGraph};

use crate::error::RoutingError;
use crate::scheme::RoutingScheme;

/// Aggregate stretch statistics over a set of routed pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct StretchReport {
    /// Number of (ordered) pairs measured.
    pub pairs: usize,
    /// Number of pairs that failed to route (should be 0).
    pub failures: usize,
    /// Maximum observed stretch.
    pub max_stretch: f64,
    /// Mean observed stretch.
    pub avg_stretch: f64,
    /// Median observed stretch.
    pub median_stretch: f64,
    /// 95th-percentile observed stretch.
    pub p95_stretch: f64,
}

impl StretchReport {
    fn from_samples(stretches: &mut [f64], failures: usize) -> Self {
        stretches.sort_by(|a, b| a.partial_cmp(b).expect("stretches are finite"));
        let pairs = stretches.len();
        let max_stretch = stretches.last().copied().unwrap_or(1.0);
        let avg_stretch = if pairs == 0 {
            1.0
        } else {
            stretches.iter().sum::<f64>() / pairs as f64
        };
        let median_stretch = percentile(stretches, 0.5);
        let p95_stretch = percentile(stretches, 0.95);
        StretchReport {
            pairs,
            failures,
            max_stretch,
            avg_stretch,
            median_stretch,
            p95_stretch,
        }
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 1.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Measures the stretch of a routing scheme over `num_pairs` random ordered
/// pairs of distinct vertices (with a fixed seed for reproducibility).
pub fn measure_stretch_sampled(
    g: &WeightedGraph,
    scheme: &RoutingScheme,
    num_pairs: usize,
    seed: u64,
) -> StretchReport {
    let n = g.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut stretches = Vec::with_capacity(num_pairs);
    let mut failures = 0;
    if n < 2 {
        return StretchReport::from_samples(&mut stretches, 0);
    }
    // Group queries by source so one Dijkstra serves many destinations.
    let mut by_source: std::collections::HashMap<NodeId, Vec<NodeId>> =
        std::collections::HashMap::new();
    for _ in 0..num_pairs {
        let u = rng.gen_range(0..n);
        let mut v = rng.gen_range(0..n);
        while v == u {
            v = rng.gen_range(0..n);
        }
        by_source.entry(u).or_default().push(v);
    }
    for (u, targets) in by_source {
        let sp = dijkstra(g, u);
        for v in targets {
            match scheme.route_with_exact(g, u, v, sp.dist[v]) {
                Ok(out) => stretches.push(out.stretch),
                Err(RoutingError::NoCommonTree { .. }) => failures += 1,
                Err(_) => failures += 1,
            }
        }
    }
    StretchReport::from_samples(&mut stretches, failures)
}

/// Measures the stretch of a routing scheme over *all* ordered pairs
/// (quadratic: intended for test-sized graphs).
pub fn measure_stretch_all_pairs(g: &WeightedGraph, scheme: &RoutingScheme) -> StretchReport {
    let n = g.num_nodes();
    let mut stretches = Vec::with_capacity(n.saturating_mul(n.saturating_sub(1)));
    let mut failures = 0;
    for u in g.nodes() {
        let sp = dijkstra(g, u);
        for v in g.nodes() {
            if u == v {
                continue;
            }
            match scheme.route_with_exact(g, u, v, sp.dist[v]) {
                Ok(out) => stretches.push(out.stretch),
                Err(_) => failures += 1,
            }
        }
    }
    StretchReport::from_samples(&mut stretches, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_cluster_family;
    use crate::hierarchy::Hierarchy;
    use crate::params::SchemeParams;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn scheme(n: usize, k: usize, seed: u64) -> (WeightedGraph, RoutingScheme, SchemeParams) {
        let g = erdos_renyi_connected(&GeneratorConfig::new(n, seed).with_weights(1, 30), 0.1);
        let params = SchemeParams::new(k, n, seed);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let scheme = RoutingScheme::assemble(&family, &g, seed);
        (g, scheme, params)
    }

    #[test]
    fn all_pairs_report_is_within_the_bound() {
        let (g, s, params) = scheme(40, 2, 1);
        let report = measure_stretch_all_pairs(&g, &s);
        assert_eq!(report.failures, 0);
        assert_eq!(report.pairs, 40 * 39);
        assert!(report.max_stretch <= params.stretch_bound() + 1e-9);
        assert!(report.avg_stretch >= 1.0);
        assert!(report.median_stretch <= report.p95_stretch);
        assert!(report.p95_stretch <= report.max_stretch);
    }

    #[test]
    fn sampled_report_is_reproducible() {
        let (g, s, _) = scheme(50, 3, 2);
        let a = measure_stretch_sampled(&g, &s, 200, 7);
        let b = measure_stretch_sampled(&g, &s, 200, 7);
        assert_eq!(a, b);
        assert_eq!(a.pairs + a.failures, 200);
    }

    #[test]
    fn sampled_max_below_all_pairs_max() {
        let (g, s, _) = scheme(40, 2, 3);
        let sampled = measure_stretch_sampled(&g, &s, 100, 1);
        let all = measure_stretch_all_pairs(&g, &s);
        assert!(sampled.max_stretch <= all.max_stretch + 1e-12);
    }

    #[test]
    fn degenerate_graphs() {
        let g = WeightedGraph::from_edges(1, []).unwrap();
        let params = SchemeParams::new(1, 1, 0);
        let hierarchy = Hierarchy::sample(&params);
        let family = exact_cluster_family(&g, &hierarchy);
        let s = RoutingScheme::assemble(&family, &g, 0);
        let report = measure_stretch_sampled(&g, &s, 10, 0);
        assert_eq!(report.pairs, 0);
    }
}
