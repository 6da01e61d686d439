//! The batched, multi-threaded query engine over a flat snapshot.
//!
//! [`QueryEngine`] answers `find_tree` / `route` queries directly off the
//! snapshot columns. There is no forwarding loop in this module: the
//! validated [`FlatScheme`] implements [`RouteAccess`], so flat and
//! in-memory routing run the single storage-generic kernel in
//! [`en_routing::access`] — one `Find-tree` and one hop loop that also
//! weighs each hop, bit-identical by construction. Batches shard across
//! plain `std::thread::scope` workers (the engine is `Sync`: a snapshot
//! borrow plus a graph borrow), each with its own pre-sized output scratch.
//!
//! # Fault tolerance
//!
//! Outside this crate a [`FlatScheme`] comes only from
//! [`FlatScheme::from_bytes`], whose structural proof keeps every accessor
//! read in bounds, so serving has one path and no per-read checks. A
//! shard-level [`std::panic::catch_unwind`] stays as the last barrier
//! against a latent bug: a shard whose worker panicked is **retried once,
//! one query at a time, on the same path**, each query under its own
//! `catch_unwind`. Retrying is deterministic — the bytes are immutable — so
//! exactly the queries that panic again degrade into structured
//! [`RoutingError`]s; the rest of the shard, the batch, and the process
//! keep going. [`BatchStats`] reports the damage (`shard_panics` /
//! `retried` / `degraded`) and [`BatchOutcome::shards`] carries per-shard
//! accounting whose totals always reconcile with the batch size.

use std::panic::{catch_unwind, AssertUnwindSafe};

use en_graph::dijkstra::dijkstra;
use en_graph::{Dist, NodeId, WeightedGraph};
use en_routing::access::{self, RouteAccess};
use en_routing::error::RoutingError;
use en_routing::scheme::RouteOutcome;

use crate::error::WireError;
use crate::flat::{FlatCluster, FlatScheme, FlatTreeLabel, FlatTreeTable};

/// The flat instantiation of the forwarding kernel: the plain accessors,
/// whose every offset [`FlatScheme::from_bytes`] proved in bounds.
impl<'a> RouteAccess for FlatScheme<'a> {
    type Label = FlatTreeLabel<'a>;
    type Table = FlatTreeTable<'a>;
    type Tree = FlatCluster<'a>;

    #[inline]
    fn n(&self) -> usize {
        FlatScheme::n(self)
    }

    #[inline]
    fn own_label(&self, center: NodeId, member: NodeId) -> Option<FlatTreeLabel<'a>> {
        FlatScheme::own_label(self, center, member)
    }

    #[inline]
    fn label_entry_count(&self, to: NodeId) -> usize {
        FlatScheme::label_entry_count(self, to)
    }

    #[inline]
    fn label_entry(&self, to: NodeId, i: usize) -> (NodeId, Option<FlatTreeLabel<'a>>) {
        let e = self
            .label_entry_at(to, i)
            .expect("kernel indexes within the entry count");
        (e.pivot, e.tree_label)
    }

    #[inline]
    fn in_tree(&self, v: NodeId, root: NodeId) -> bool {
        u32::try_from(root).is_ok_and(|root| self.trees_of(v).binary_search(root).is_ok())
    }

    #[inline]
    fn tree(&self, root: NodeId) -> Option<(FlatCluster<'a>, usize)> {
        self.cluster_of_center(root).map(|c| (c, c.level))
    }

    #[inline]
    fn table(&self, tree: &FlatCluster<'a>, v: NodeId) -> Option<FlatTreeTable<'a>> {
        tree.table_of(v)
    }
}

/// A query engine serving one snapshot over one host graph.
///
/// Forwarding decisions read nothing but the snapshot. The graph supplies
/// the hop weights: the kernel reads each hop's edge through the parent
/// port a table stores, and scans an adjacency list only when that port
/// does not lead to the expected neighbour (a snapshot served against
/// another graph). [`Self::route`] also runs Dijkstra in it for the
/// exact-distance denominator of the stretch report.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    flat: FlatScheme<'a>,
    graph: &'a WeightedGraph,
}

/// Aggregate statistics of one routed batch.
///
/// The stretch fields are meaningful only when the batch was given exact
/// distances; without them every outcome carries the `exact = 0` placeholder
/// (whose stretch reads 1.0 by convention).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchStats {
    /// Pairs in the batch.
    pub pairs: usize,
    /// Pairs routed successfully.
    pub delivered: usize,
    /// Pairs that failed (should be none outside adversarial inputs).
    pub failed: usize,
    /// Summed hop count of the delivered paths.
    pub total_hops: u64,
    /// Summed weighted length of the delivered paths.
    pub total_length: u64,
    /// Largest stretch over delivered pairs (0.0 when none delivered).
    pub max_stretch: f64,
    /// Mean stretch over delivered pairs (0.0 when none delivered).
    pub mean_stretch: f64,
    /// Shards whose worker panicked and was retried (0 on every snapshot
    /// [`FlatScheme::from_bytes`] accepts).
    pub shard_panics: usize,
    /// Queries re-run one at a time because their shard panicked.
    pub retried: usize,
    /// Queries of panicked shards that still failed after the retry, each
    /// degraded into its per-query error instead of killing the batch.
    pub degraded: usize,
}

/// Per-shard accounting of one routed batch, reported through
/// [`BatchOutcome::shards`]: across all shards, `queries` always sums to
/// the batch size, `errors` to [`BatchStats::failed`], and `retries` to
/// [`BatchStats::retried`], whatever the thread count or fault pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Queries assigned to this shard.
    pub queries: usize,
    /// Queries that returned an error (including degraded ones).
    pub errors: usize,
    /// Queries re-run one at a time after the shard's worker panicked.
    pub retries: usize,
    /// Whether the shard's worker panicked on first pass.
    pub panicked: bool,
}

/// The outcome of routing one batch: per-pair results in input order plus
/// the aggregate statistics — identical regardless of how many threads the
/// batch was sharded over.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// One result per input pair, in input order.
    pub outcomes: Vec<Result<RouteOutcome, RoutingError>>,
    /// Aggregates over `outcomes`, computed in input order.
    pub stats: BatchStats,
    /// Per-shard accounting, in shard order (one entry per worker chunk;
    /// a single entry when the batch ran on one thread).
    pub shards: Vec<ShardStats>,
}

impl<'a> QueryEngine<'a> {
    /// Creates an engine for `flat` over `graph`.
    ///
    /// Only the vertex count is checked here. A different graph of the
    /// same size is caught per route instead: a forwarded hop that is not
    /// an edge of `graph` fails that route with
    /// [`RoutingError::NonEdgeHop`], so no outcome ever reports a length
    /// the graph does not have.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::GraphMismatch`] when the snapshot was built for a
    /// different vertex count.
    pub fn new(flat: FlatScheme<'a>, graph: &'a WeightedGraph) -> Result<Self, WireError> {
        if graph.num_nodes() != flat.n() {
            return Err(WireError::GraphMismatch {
                graph_n: graph.num_nodes(),
                snapshot_n: flat.n(),
            });
        }
        Ok(QueryEngine { flat, graph })
    }

    /// The snapshot this engine serves.
    pub fn flat(&self) -> &FlatScheme<'a> {
        &self.flat
    }

    /// Algorithm 1 (`Find-tree`) plus the `4k−5` refinement, off the flat
    /// columns: the centre of the tree a packet from `from` to `to` will
    /// use, and the destination's (borrowed) tree label there — the shared
    /// kernel ([`en_routing::access::find_tree_via`]) over the snapshot.
    ///
    /// # Errors
    ///
    /// Mirrors [`RoutingScheme::find_tree`](en_routing::scheme::RoutingScheme::find_tree):
    /// out-of-range vertices and the (low-probability) no-common-tree case.
    pub fn find_tree(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<(NodeId, FlatTreeLabel<'a>), RoutingError> {
        access::find_tree_via(&self.flat, from, to)
    }

    /// Routes one packet, measuring stretch against the exact distance
    /// (computed with Dijkstra, like the in-memory scheme's `route`).
    ///
    /// # Errors
    ///
    /// Mirrors [`RoutingScheme::route`](en_routing::scheme::RoutingScheme::route).
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path, length) = access::forward_via(&self.flat, self.graph, from, to)?;
        let exact = dijkstra(self.graph, from).dist[to];
        Ok(RouteOutcome::new(root, level, path, length, exact))
    }

    /// Routes one packet against a caller-supplied exact distance (the
    /// serving hot path: no Dijkstra anywhere).
    ///
    /// # Errors
    ///
    /// Mirrors
    /// [`RoutingScheme::route_with_exact`](en_routing::scheme::RoutingScheme::route_with_exact).
    pub fn route_with_exact(
        &self,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path, length) = access::forward_via(&self.flat, self.graph, from, to)?;
        Ok(RouteOutcome::new(root, level, path, length, exact))
    }

    fn route_chunk(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
    ) -> Vec<Result<RouteOutcome, RoutingError>> {
        // Per-worker scratch: one pre-sized output vector, filled in order.
        // The observability gate is hoisted out of the loop: with no
        // recorder installed the hot path takes exactly one relaxed load
        // for the whole chunk and never reads the clock.
        let obs = en_obs::active();
        let mut out = Vec::with_capacity(pairs.len());
        for (i, &(from, to)) in pairs.iter().enumerate() {
            let exact = exacts.map_or(0, |e| e[i]);
            if obs {
                let t0 = std::time::Instant::now();
                let res = self.route_with_exact(from, to, exact);
                let dur_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                en_obs::histogram_record("wire.route_latency_ns", dur_ns);
                if let Ok(o) = &res {
                    en_obs::histogram_record("wire.route_hops", o.path.hops() as u64);
                }
                out.push(res);
            } else {
                out.push(self.route_with_exact(from, to, exact));
            }
        }
        out
    }

    /// Routes one shard under a panic guard; if the worker panicked, reruns
    /// the shard one query at a time on the same path, each query under its
    /// own guard, so only the queries that panic again degrade.
    fn route_shard_isolated(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
    ) -> (Vec<Result<RouteOutcome, RoutingError>>, ShardStats) {
        let mut stats = ShardStats {
            queries: pairs.len(),
            ..ShardStats::default()
        };
        let outcomes = match catch_unwind(AssertUnwindSafe(|| self.route_chunk(pairs, exacts))) {
            Ok(outcomes) => outcomes,
            Err(_) => {
                stats.panicked = true;
                stats.retries = pairs.len();
                pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(from, to))| {
                        let exact = exacts.map_or(0, |e| e[i]);
                        catch_unwind(AssertUnwindSafe(|| self.route_with_exact(from, to, exact)))
                            .unwrap_or_else(|_| {
                                Err(RoutingError::TreeRouting(format!(
                                    "query {from}->{to} panicked and was degraded"
                                )))
                            })
                    })
                    .collect()
            }
        };
        stats.errors = outcomes.iter().filter(|o| o.is_err()).count();
        (outcomes, stats)
    }

    /// Routes a batch of pairs, sharded over `threads` scoped worker
    /// threads, and returns per-pair outcomes in input order plus aggregate
    /// statistics.
    ///
    /// `exacts`, when given, must align with `pairs` and supplies the
    /// stretch denominators (the batch then never runs Dijkstra); without
    /// it, outcomes carry `exact = 0` placeholders and the stats' stretch
    /// fields are not meaningful.
    ///
    /// Sharding is deterministic and outcomes are reassembled in input
    /// order, so the outcomes and the aggregate statistics are identical
    /// for every thread count. Only the fault counters (`shard_panics`,
    /// `retried`, `degraded`) depend on how pairs fall into shards, and
    /// they are non-zero only when a worker panicked.
    ///
    /// A worker panic does not kill the batch: the shard is caught and
    /// retried one query at a time, and any query that panics again is
    /// degraded into its per-query error (see the module docs;
    /// `stats.shard_panics` / `retried` / `degraded` and
    /// [`BatchOutcome::shards`] report what happened).
    ///
    /// # Panics
    ///
    /// Panics if `exacts` is shorter than `pairs`.
    pub fn route_batch(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
        threads: usize,
    ) -> BatchOutcome {
        if let Some(e) = exacts {
            assert!(e.len() >= pairs.len(), "exacts must align with pairs");
        }
        let threads = threads.clamp(1, pairs.len().max(1));
        // `chunks(chunk)` yields at most `threads` shards and never slices
        // past the end, whatever the len/threads remainder.
        let chunk = pairs.len().div_ceil(threads).max(1);
        let (outcomes, shards) = if threads == 1 {
            let (outcomes, stats) = self.route_shard_isolated(pairs, exacts);
            (outcomes, vec![stats])
        } else {
            let sharded: Vec<(Vec<Result<RouteOutcome, RoutingError>>, ShardStats)> =
                std::thread::scope(|scope| {
                    let handles: Vec<_> = pairs
                        .chunks(chunk)
                        .enumerate()
                        .map(|(t, pair_slice)| {
                            let exact_slice =
                                exacts.map(|e| &e[t * chunk..t * chunk + pair_slice.len()]);
                            // The panic guard runs *inside* the worker, so
                            // join() below cannot observe a panic.
                            scope.spawn(move || self.route_shard_isolated(pair_slice, exact_slice))
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("worker guarded by catch_unwind"))
                        .collect()
                });
            let mut outcomes = Vec::with_capacity(pairs.len());
            let mut shards = Vec::with_capacity(sharded.len());
            for (shard_outcomes, shard_stats) in sharded {
                outcomes.extend(shard_outcomes);
                shards.push(shard_stats);
            }
            (outcomes, shards)
        };
        let mut stats = batch_stats(&outcomes);
        for s in &shards {
            stats.shard_panics += s.panicked as usize;
            stats.retried += s.retries;
            if s.panicked {
                stats.degraded += s.errors;
            }
        }
        publish_batch_obs(&stats);
        BatchOutcome {
            outcomes,
            stats,
            shards,
        }
    }
}

/// Republishes a batch's [`BatchStats`] as observability counters (no-op
/// without an installed recorder). The counters mirror the stats exactly —
/// `tests/integration_obs.rs` reconciles them at several thread counts.
fn publish_batch_obs(stats: &BatchStats) {
    if !en_obs::active() {
        return;
    }
    en_obs::counter_add("wire.batch.pairs", stats.pairs as u64);
    en_obs::counter_add("wire.batch.delivered", stats.delivered as u64);
    en_obs::counter_add("wire.batch.failed", stats.failed as u64);
    en_obs::counter_add("wire.batch.hops_total", stats.total_hops);
    en_obs::counter_add("wire.batch.length_total", stats.total_length);
    en_obs::counter_add("wire.shard.panics", stats.shard_panics as u64);
    en_obs::counter_add("wire.shard.retried", stats.retried as u64);
    en_obs::counter_add("wire.shard.degraded", stats.degraded as u64);
}

/// Folds per-pair outcomes into [`BatchStats`], in input order (so the
/// floating-point sums are independent of the thread count used).
fn batch_stats(outcomes: &[Result<RouteOutcome, RoutingError>]) -> BatchStats {
    let mut stats = BatchStats {
        pairs: outcomes.len(),
        delivered: 0,
        failed: 0,
        total_hops: 0,
        total_length: 0,
        max_stretch: 0.0,
        mean_stretch: 0.0,
        shard_panics: 0,
        retried: 0,
        degraded: 0,
    };
    let mut stretch_sum = 0.0f64;
    for out in outcomes {
        match out {
            Ok(o) => {
                stats.delivered += 1;
                stats.total_hops += o.path.hops() as u64;
                stats.total_length += o.length;
                stretch_sum += o.stretch;
                if o.stretch > stats.max_stretch {
                    stats.max_stretch = o.stretch;
                }
            }
            Err(_) => stats.failed += 1,
        }
    }
    if stats.delivered > 0 {
        stats.mean_stretch = stretch_sum / stats.delivered as f64;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::Section;
    use crate::{generate_pairs, serialize, PairWorkload};
    use en_graph::generators::{erdos_renyi_connected, GeneratorConfig};
    use en_routing::construction::{build_routing_scheme, ConstructionConfig};

    /// The last barrier, proven on bytes only the private re-open accepts: a
    /// vertex-trees CSR offset past its column makes every query that reads
    /// the two rows it bounds panic. Each panicked shard is retried query
    /// by query, exactly the queries that panic again degrade, every other
    /// outcome is the pristine snapshot's, and the per-query outcomes are
    /// the same at every thread count.
    #[test]
    fn a_panicked_shard_is_retried_one_query_at_a_time() {
        let g = erdos_renyi_connected(&GeneratorConfig::new(80, 4).with_weights(1, 20), 0.08);
        let built = build_routing_scheme(&g, &ConstructionConfig::new(2, 4)).unwrap();
        let bytes = serialize(&built.scheme);
        let pristine = QueryEngine::new(FlatScheme::from_bytes(&bytes).unwrap(), &g).unwrap();
        // Offset 6 ends vertex 5's tree row and starts vertex 6's.
        let vo = pristine.flat().manifest().sections[Section::VtreesOff as usize].start_field();
        let mut bad = bytes.clone();
        bad[(vo + 6) * 4..(vo + 7) * 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        assert!(
            FlatScheme::from_bytes(&bad).is_err(),
            "validation rejects it"
        );
        let forced =
            QueryEngine::new(FlatScheme::from_bytes_unvalidated(&bad).unwrap(), &g).unwrap();

        let mut pairs = generate_pairs(&g, &PairWorkload::Uniform, 120, 1);
        pairs.extend([(5, 40), (5, 71), (6, 12), (6, 77)]);
        let mut first: Option<Vec<Result<RouteOutcome, RoutingError>>> = None;
        for threads in [1usize, 2, 8] {
            let batch = forced.route_batch(&pairs, None, threads);
            let s = &batch.stats;
            assert_eq!(batch.outcomes.len(), pairs.len());
            assert!(s.failed > 0, "the poisoned rows must panic some query");
            assert!(s.shard_panics > 0, "{threads} threads");
            assert_eq!(
                s.shard_panics,
                batch.shards.iter().filter(|sh| sh.panicked).count()
            );
            for sh in &batch.shards {
                assert_eq!(sh.retries, if sh.panicked { sh.queries } else { 0 });
            }
            assert_eq!(s.retried, batch.shards.iter().map(|sh| sh.retries).sum());
            let degraded: usize = batch
                .shards
                .iter()
                .filter(|sh| sh.panicked)
                .map(|sh| sh.errors)
                .sum();
            assert_eq!(s.degraded, degraded);
            assert_eq!(s.degraded, s.failed, "only panicking queries fail");
            for (&(u, v), out) in pairs.iter().zip(&batch.outcomes) {
                match out {
                    Ok(o) => assert_eq!(*o, pristine.route_with_exact(u, v, 0).unwrap()),
                    Err(e) => assert_eq!(
                        *e,
                        RoutingError::TreeRouting(format!(
                            "query {u}->{v} panicked and was degraded"
                        ))
                    ),
                }
            }
            match &first {
                None => first = Some(batch.outcomes),
                Some(expect) => assert_eq!(&batch.outcomes, expect, "{threads} threads"),
            }
        }
    }
}
