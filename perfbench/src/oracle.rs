//! The benchmark's own ground truth: exact distances from its own Dijkstra,
//! and the full check of one routed packet against the benchmark's graph.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use en_routing::RouteOutcome;

use crate::inputs::{Fnv, Graph};

/// Exact distances from `src` to every vertex.
pub fn dijkstra(g: &Graph, src: usize) -> Vec<u64> {
    let mut dist = vec![u64::MAX; g.n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0;
    heap.push(Reverse((0u64, src as u32)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for &(v, w) in g.neighbors(u as usize) {
            let nd = d + u64::from(w);
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    dist
}

/// Hash of everything a route reports: its level, length and hop sequence.
/// Equal digests across epochs mean bit-identical outcomes.
pub fn outcome_digest(h: &mut Fnv, o: &RouteOutcome) {
    h.word(o.level as u64);
    h.word(o.length);
    h.word(o.path.nodes().len() as u64);
    for &v in o.path.nodes() {
        h.word(v as u64);
    }
}

/// Checks one routed packet in full: it starts at `s` and ends at `t`, every
/// hop is an edge of `g`, the reported length is the path's weight, and the
/// stretch against `exact` is within `bound`. Returns the stretch.
pub fn check_route(
    g: &Graph,
    s: usize,
    t: usize,
    exact: u64,
    bound: f64,
    o: &RouteOutcome,
) -> Result<f64, String> {
    let nodes = o.path.nodes();
    if nodes.first() != Some(&s) || nodes.last() != Some(&t) {
        return Err(format!(
            "{s}->{t}: path runs {:?}..{:?}",
            nodes.first(),
            nodes.last()
        ));
    }
    let mut weight = 0u64;
    for hop in nodes.windows(2) {
        weight += g
            .weight(hop[0], hop[1])
            .ok_or_else(|| format!("{s}->{t}: hop {}-{} is not an edge", hop[0], hop[1]))?;
    }
    if weight != o.length {
        return Err(format!(
            "{s}->{t}: reported length {} but path weighs {weight}",
            o.length
        ));
    }
    let stretch = weight as f64 / exact as f64;
    if stretch > bound {
        return Err(format!(
            "{s}->{t}: stretch {stretch} exceeds the bound {bound}"
        ));
    }
    Ok(stretch)
}
