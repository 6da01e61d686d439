//! Query-workload generation for the serving tests, the `perf_baseline`
//! and `fault_drill` harness bins, and `examples/snapshot_roundtrip.rs`.
//!
//! Three pair distributions, all deterministic for a given seed (via the
//! workspace's seeded RNG):
//!
//! * **Uniform** — independent uniform source/destination pairs, the
//!   baseline all-to-all traffic shape.
//! * **Zipf hotspot** — both endpoints follow a Zipf law over independent
//!   seeded random rankings of the vertices, modelling skewed traffic
//!   (heavy-hitter sources talking to popular destinations, so a small hot
//!   set of `(source, destination)` pairs carries most packets — the shape
//!   a page-cache-resident snapshot and warm CPU caches favour).
//! * **Near vs. far** — a tunable fraction of pairs are *near* (the
//!   destination is reached by a short random walk from the source, so the
//!   pair is usually covered by a low-level cluster), the rest are uniform
//!   *far* pairs (usually routed through sparse high-level trees).

use en_graph::{NodeId, WeightedGraph};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A pair distribution.
#[derive(Debug, Clone, PartialEq)]
pub enum PairWorkload {
    /// Independent uniform pairs.
    Uniform,
    /// Zipf-distributed endpoints with the given exponent (`1.0` is the
    /// classic heavy-skew; larger is more skewed): sources and destinations
    /// are drawn from independent Zipf rankings, so hot pairs repeat.
    ZipfHotspot {
        /// The Zipf exponent `s > 0`.
        exponent: f64,
    },
    /// A `near_fraction` of pairs end a `walk_hops`-step random walk from
    /// the source; the rest are uniform.
    NearFar {
        /// Fraction of near pairs in `[0, 1]`.
        near_fraction: f64,
        /// Steps of the random walk that produces a near destination.
        walk_hops: usize,
    },
}

/// Generates `pairs` source/destination pairs over the vertices of `g`
/// (always with distinct endpoints), deterministically for a given seed.
///
/// # Panics
///
/// Panics if `g` has fewer than two vertices, or on nonsensical workload
/// parameters (a non-positive Zipf exponent, a near fraction outside
/// `[0, 1]`).
pub fn generate_pairs(
    g: &WeightedGraph,
    workload: &PairWorkload,
    pairs: usize,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    let n = g.num_nodes();
    assert!(n >= 2, "need at least two vertices to form pairs");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(pairs);
    match workload {
        PairWorkload::Uniform => {
            for _ in 0..pairs {
                out.push(uniform_pair(&mut rng, n));
            }
        }
        PairWorkload::ZipfHotspot { exponent } => {
            assert!(*exponent > 0.0, "Zipf exponent must be positive");
            // Independent seeded rankings for the two endpoints: rank r maps
            // to vertex ranking[r], so the hotspots are spread over the id
            // space and hot sources need not be hot destinations.
            use rand::seq::SliceRandom;
            let mut dst_ranking: Vec<NodeId> = (0..n).collect();
            dst_ranking.shuffle(&mut rng);
            let mut src_ranking: Vec<NodeId> = (0..n).collect();
            src_ranking.shuffle(&mut rng);
            // Normalised cumulative Zipf weights over ranks.
            let mut cum = Vec::with_capacity(n);
            let mut acc = 0.0f64;
            for r in 0..n {
                acc += 1.0 / ((r + 1) as f64).powf(*exponent);
                cum.push(acc);
            }
            for c in &mut cum {
                *c /= acc;
            }
            let zipf_rank = |rng: &mut StdRng| {
                let u: f64 = rng.gen();
                cum.partition_point(|&c| c <= u).min(n - 1)
            };
            for _ in 0..pairs {
                let to = dst_ranking[zipf_rank(&mut rng)];
                let from = loop {
                    let v = src_ranking[zipf_rank(&mut rng)];
                    if v != to {
                        break v;
                    }
                };
                out.push((from, to));
            }
        }
        PairWorkload::NearFar {
            near_fraction,
            walk_hops,
        } => {
            assert!(
                (0.0..=1.0).contains(near_fraction),
                "near fraction must be within [0, 1]"
            );
            for _ in 0..pairs {
                if rng.gen_bool(*near_fraction) {
                    out.push(near_pair(g, &mut rng, *walk_hops));
                } else {
                    out.push(uniform_pair(&mut rng, n));
                }
            }
        }
    }
    out
}

fn uniform_pair(rng: &mut StdRng, n: usize) -> (NodeId, NodeId) {
    let from = rng.gen_range(0..n);
    let to = loop {
        let v = rng.gen_range(0..n);
        if v != from {
            break v;
        }
    };
    (from, to)
}

/// A near pair: walk `hops` random edges from a uniform source; if the walk
/// closes a loop back onto the source, fall back to the first neighbour
/// (graphs here are connected, so every vertex has one).
fn near_pair(g: &WeightedGraph, rng: &mut StdRng, hops: usize) -> (NodeId, NodeId) {
    let from = rng.gen_range(0..g.num_nodes());
    let mut at = from;
    for _ in 0..hops.max(1) {
        let nbrs = g.neighbors(at);
        if !nbrs.is_empty() {
            at = nbrs[rng.gen_range(0..nbrs.len())].node;
        }
    }
    if at == from {
        at = g.neighbors(from)[0].node;
    }
    (from, at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};

    fn graph() -> WeightedGraph {
        erdos_renyi_connected(&GeneratorConfig::new(100, 3).with_weights(1, 10), 0.1)
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let g = graph();
        for w in [
            PairWorkload::Uniform,
            PairWorkload::ZipfHotspot { exponent: 1.1 },
            PairWorkload::NearFar {
                near_fraction: 0.5,
                walk_hops: 2,
            },
        ] {
            let pairs = generate_pairs(&g, &w, 500, 7);
            assert_eq!(pairs.len(), 500, "{w:?}");
            for (u, v) in pairs {
                assert!(u < 100 && v < 100 && u != v, "{w:?}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = graph();
        let w = PairWorkload::ZipfHotspot { exponent: 1.0 };
        assert_eq!(
            generate_pairs(&g, &w, 200, 9),
            generate_pairs(&g, &w, 200, 9)
        );
        assert_ne!(
            generate_pairs(&g, &w, 200, 9),
            generate_pairs(&g, &w, 200, 10)
        );
    }

    #[test]
    fn zipf_concentrates_destinations() {
        let g = graph();
        let pairs = generate_pairs(&g, &PairWorkload::ZipfHotspot { exponent: 1.2 }, 2000, 5);
        let mut counts = vec![0usize; 100];
        for (_, to) in pairs {
            counts[to] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // The hottest destination must clearly dominate the median one.
        assert!(counts[0] >= 20 * counts[50].max(1) / 2);
    }

    #[test]
    fn near_pairs_are_actually_near() {
        let g = graph();
        let pairs = generate_pairs(
            &g,
            &PairWorkload::NearFar {
                near_fraction: 1.0,
                walk_hops: 1,
            },
            200,
            11,
        );
        for (u, v) in pairs {
            assert!(g.has_edge(u, v), "1-hop walk must end at a neighbour");
        }
    }
}
