//! The batched, multi-threaded query engine over a flat snapshot.
//!
//! [`QueryEngine`] answers `find_tree` / `route` queries directly off the
//! snapshot columns. There is no forwarding loop in this module: both the
//! fast and the hardened paths are instantiations of the single
//! storage-generic kernel in [`en_routing::access`] — `FastAccess` reads
//! the plain accessors (and may panic over unvalidated corrupt bytes),
//! `CheckedAccess` reads the `try_*` accessors and bounds every hop, so
//! fast, checked, and in-memory routing share one `Find-tree` and one hop
//! loop and are bit-identical by construction. Batches shard across plain
//! `std::thread::scope` workers (the engine is `Sync`: a snapshot borrow
//! plus a graph borrow), each with its own pre-sized output scratch.
//!
//! # Fault tolerance
//!
//! A production batch must not die with one poisoned query. Every shard
//! worker runs under [`std::panic::catch_unwind`]; a shard that panics
//! (possible only over a snapshot loaded with
//! [`FlatScheme::from_bytes_unvalidated`], or a latent bug) is **retried
//! once, sequentially, one query at a time** through
//! [`QueryEngine::route_checked`] — the hardened path that bounds-checks
//! every untrusted index and catches any residual panic per query. A
//! single corrupt record therefore degrades exactly the queries that touch
//! it into structured [`RoutingError`]s; the rest of the shard, the batch,
//! and the process keep going. [`BatchStats`] reports the damage
//! (`shard_panics` / `retried` / `degraded`) and [`BatchOutcome::shards`]
//! carries per-shard accounting whose totals always reconcile with the
//! batch size.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use en_graph::dijkstra::dijkstra;
use en_graph::{Dist, NodeId, Path, WeightedGraph};
use en_routing::access::{self, CacheStats, RouteAccess, RouteCache};
use en_routing::error::RoutingError;
use en_routing::scheme::RouteOutcome;

use crate::error::WireError;
use crate::flat::{FlatCluster, FlatScheme, FlatTreeLabel, FlatTreeTable};

/// The fast instantiation of the forwarding kernel: plain accessors, no
/// per-read checks. Over a fully validated snapshot no method can fail;
/// over bytes loaded with [`FlatScheme::from_bytes_unvalidated`] it may
/// panic (never read out of bounds — the accessors are checked Rust;
/// `unsafe` is denied outside the `mmap` module), which the batch layer
/// contains per shard.
#[derive(Debug, Clone, Copy)]
struct FastAccess<'a> {
    flat: FlatScheme<'a>,
}

impl<'a> RouteAccess for FastAccess<'a> {
    type Label = FlatTreeLabel<'a>;
    type Table = FlatTreeTable<'a>;
    type Tree = FlatCluster<'a>;

    #[inline]
    fn n(&self) -> usize {
        self.flat.n()
    }

    #[inline]
    fn own_label(
        &self,
        center: NodeId,
        member: NodeId,
    ) -> Result<Option<FlatTreeLabel<'a>>, RoutingError> {
        Ok(self.flat.own_label(center, member))
    }

    #[inline]
    fn label_entry_count(&self, to: NodeId) -> Result<usize, RoutingError> {
        Ok(self.flat.label_entry_count(to))
    }

    #[inline]
    fn label_entry(
        &self,
        to: NodeId,
        i: usize,
    ) -> Result<(NodeId, Option<FlatTreeLabel<'a>>), RoutingError> {
        let e = self
            .flat
            .label_entry_at(to, i)
            .expect("kernel indexes within the entry count");
        Ok((e.pivot, e.tree_label))
    }

    #[inline]
    fn in_tree(&self, v: NodeId, root: NodeId) -> Result<bool, RoutingError> {
        Ok(self.flat.trees_of(v).binary_search(root as u64).is_ok())
    }

    #[inline]
    fn tree(&self, root: NodeId) -> Result<Option<(FlatCluster<'a>, usize)>, RoutingError> {
        Ok(self.flat.cluster_of_center(root).map(|c| (c, c.level)))
    }

    #[inline]
    fn table(
        &self,
        tree: &FlatCluster<'a>,
        v: NodeId,
    ) -> Result<Option<FlatTreeTable<'a>>, RoutingError> {
        Ok(tree.table_of(v))
    }
}

/// The hardened instantiation of the forwarding kernel: every lookup goes
/// through the `try_*` accessors (CSR offsets, entry fields, record bounds,
/// the rank index's member-column agreement), and every next hop is bounded
/// by `n`, so corrupt columns surface as structured [`RoutingError`]s
/// instead of panics.
#[derive(Debug, Clone, Copy)]
struct CheckedAccess<'a> {
    flat: FlatScheme<'a>,
}

impl<'a> RouteAccess for CheckedAccess<'a> {
    type Label = FlatTreeLabel<'a>;
    type Table = FlatTreeTable<'a>;
    type Tree = FlatCluster<'a>;

    #[inline]
    fn n(&self) -> usize {
        self.flat.n()
    }

    fn own_label(
        &self,
        center: NodeId,
        member: NodeId,
    ) -> Result<Option<FlatTreeLabel<'a>>, RoutingError> {
        Ok(self.flat.try_own_label(center, member)?)
    }

    fn label_entry_count(&self, to: NodeId) -> Result<usize, RoutingError> {
        Ok(self.flat.try_label_entry_count(to)?)
    }

    fn label_entry(
        &self,
        to: NodeId,
        i: usize,
    ) -> Result<(NodeId, Option<FlatTreeLabel<'a>>), RoutingError> {
        let e = self
            .flat
            .try_label_entry_at(to, i)?
            .ok_or(WireError::Corrupt {
                what: "label entry vanished between count and read",
            })?;
        Ok((e.pivot, e.tree_label))
    }

    fn in_tree(&self, v: NodeId, root: NodeId) -> Result<bool, RoutingError> {
        Ok(self
            .flat
            .try_trees_of(v)?
            .try_binary_search(root as u64)?
            .is_ok())
    }

    fn tree(&self, root: NodeId) -> Result<Option<(FlatCluster<'a>, usize)>, RoutingError> {
        Ok(self.flat.try_cluster_of_center(root)?.map(|c| (c, c.level)))
    }

    fn table(
        &self,
        tree: &FlatCluster<'a>,
        v: NodeId,
    ) -> Result<Option<FlatTreeTable<'a>>, RoutingError> {
        Ok(tree.try_table_of(v)?)
    }

    #[inline]
    fn check_hop(&self, next: NodeId) -> Result<(), RoutingError> {
        if next >= self.flat.n() {
            return Err(RoutingError::TreeRouting(format!(
                "corrupt snapshot: next hop {next} is not a vertex"
            )));
        }
        Ok(())
    }
}

/// Sizing of the per-shard hot-route caches a [`QueryEngine`] puts in
/// front of the `Find-tree` kernel (see
/// [`en_routing::access::RouteCache`]).
///
/// `capacity` is rounded up to a power of two; `0` disables caching.
/// [`QueryEngine::new`] starts from [`CacheConfig::from_env`] so a whole
/// test or serving process can be flipped cached via `EN_WIRE_CACHE_CAP`;
/// [`QueryEngine::with_cache`] overrides per engine. Caching never changes
/// outcomes — the cache memoises decisions and replays them through the
/// live accessor — only [`BatchStats`]' cache counters and the speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Slots per shard cache (`0` = disabled; rounded up to a power of
    /// two).
    pub capacity: usize,
}

impl CacheConfig {
    /// Caching off — the default when `EN_WIRE_CACHE_CAP` is unset.
    pub const DISABLED: CacheConfig = CacheConfig { capacity: 0 };

    /// The process-wide default: `EN_WIRE_CACHE_CAP` parsed as a slot
    /// count (unset, empty, or unparsable ⇒ disabled). Read once and
    /// cached for the life of the process.
    ///
    /// A malformed value is not swallowed silently: the one-time parse
    /// bumps the `wire.cache.env_malformed` counter, records a `warn`
    /// event on the installed [`en_obs::Recorder`], and prints a single
    /// stderr note before falling back to disabled.
    pub fn from_env() -> CacheConfig {
        static CAP: OnceLock<usize> = OnceLock::new();
        CacheConfig {
            capacity: *CAP.get_or_init(|| {
                parse_cache_cap(std::env::var("EN_WIRE_CACHE_CAP").ok().as_deref())
            }),
        }
    }
}

/// The one-time `EN_WIRE_CACHE_CAP` parse behind [`CacheConfig::from_env`]:
/// unset and empty mean "disabled" by contract; anything else that fails to
/// parse is an operator mistake and is surfaced instead of ignored.
fn parse_cache_cap(value: Option<&str>) -> usize {
    let Some(raw) = value else { return 0 };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return 0;
    }
    match trimmed.parse() {
        Ok(cap) => cap,
        Err(_) => {
            en_obs::counter_add("wire.cache.env_malformed", 1);
            en_obs::event(
                en_obs::Level::Warn,
                "wire.cache.env_malformed",
                &[
                    ("var", "EN_WIRE_CACHE_CAP".into()),
                    ("value", trimmed.into()),
                ],
            );
            eprintln!(
                "warning: EN_WIRE_CACHE_CAP={trimmed:?} is not a slot count; hot-route caching stays disabled"
            );
            0
        }
    }
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig::DISABLED
    }
}

/// A query engine serving one snapshot over one host graph.
///
/// The graph is needed only to weigh traversed paths (and, for
/// [`Self::route`], to compute the exact-distance denominator the stretch
/// report uses); forwarding itself reads nothing but the snapshot.
#[derive(Debug, Clone, Copy)]
pub struct QueryEngine<'a> {
    flat: FlatScheme<'a>,
    graph: &'a WeightedGraph,
    cache: CacheConfig,
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
    /// Shards whose worker panicked and was retried (0 on healthy
    /// snapshots — a validated snapshot cannot panic a worker).
    pub shard_panics: usize,
    /// Queries re-run sequentially because their shard panicked.
    pub retried: usize,
    /// Queries that still failed after the checked retry and were degraded
    /// into per-query errors instead of killing the batch.
    pub degraded: usize,
    /// Hot-route cache hits summed over all shard caches (0 with caching
    /// disabled).
    pub cache_hits: u64,
    /// Hot-route cache misses summed over all shard caches (every query is
    /// counted a miss when caching is disabled).
    pub cache_misses: u64,
    /// Hot-route cache evictions summed over all shard caches.
    pub cache_evictions: u64,
}

impl BatchStats {
    /// Cache hits over hits + misses, `0.0` when nothing was counted.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// A copy with the cache counters zeroed.
    ///
    /// The routing outcomes and every other statistic are identical for
    /// every thread count, but the cache counters are *shard-local* by
    /// design (each worker warms its own cache), so they legitimately vary
    /// with the sharding. Determinism assertions across thread counts
    /// compare this normalised form and the outcomes bit-for-bit.
    pub fn without_cache_counters(&self) -> BatchStats {
        BatchStats {
            cache_hits: 0,
            cache_misses: 0,
            cache_evictions: 0,
            ..self.clone()
        }
    }
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
    /// Queries re-run sequentially after the shard's worker panicked.
    pub retries: usize,
    /// Whether the shard's worker panicked on first pass.
    pub panicked: bool,
    /// This shard's hot-route cache counters (zeroed when the shard
    /// panicked — the retry path runs uncached).
    pub cache: CacheStats,
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
        Ok(QueryEngine {
            flat,
            graph,
            cache: CacheConfig::from_env(),
        })
    }

    /// Replaces the engine's cache sizing (builder style); see
    /// [`CacheConfig`].
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// The cache sizing this engine shards batches with.
    pub fn cache_config(&self) -> CacheConfig {
        self.cache
    }

    /// The snapshot this engine serves.
    pub fn flat(&self) -> &FlatScheme<'a> {
        &self.flat
    }

    /// Algorithm 1 (`Find-tree`) plus the `4k−5` refinement, off the flat
    /// columns: the centre of the tree a packet from `from` to `to` will
    /// use, and the destination's (borrowed) tree label there — the shared
    /// kernel ([`en_routing::access::find_tree_via`]) over `FastAccess`.
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
        access::find_tree_via(&FastAccess { flat: self.flat }, from, to)
    }

    /// Forwards hop by hop, returning the tree used, its level, and the path.
    fn forward(&self, from: NodeId, to: NodeId) -> Result<(NodeId, usize, Path), RoutingError> {
        access::forward_via(&FastAccess { flat: self.flat }, from, to)
    }

    /// Routes one packet, measuring stretch against the exact distance
    /// (computed with Dijkstra, like the in-memory scheme's `route`).
    ///
    /// # Errors
    ///
    /// Mirrors [`RoutingScheme::route`](en_routing::scheme::RoutingScheme::route).
    pub fn route(&self, from: NodeId, to: NodeId) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path) = self.forward(from, to)?;
        let exact = dijkstra(self.graph, from).dist[to];
        RouteOutcome::weighed_in(self.graph, root, level, path, exact)
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
        let (root, level, path) = self.forward(from, to)?;
        RouteOutcome::weighed_in(self.graph, root, level, path, exact)
    }

    /// The hardened forwarding path — the *same* kernel, instantiated over
    /// [`CheckedAccess`]: every untrusted index (CSR offsets, entry fields,
    /// record bounds, the rank index) is validated before use and every
    /// next hop is bounded, so corrupt columns surface as errors, not
    /// panics, while the routing decisions stay bit-identical.
    fn forward_checked(
        &self,
        from: NodeId,
        to: NodeId,
    ) -> Result<(NodeId, usize, Path), RoutingError> {
        access::forward_via(&CheckedAccess { flat: self.flat }, from, to)
    }

    /// Routes one packet through the hardened path: checked accessors,
    /// per-hop index validation, and a panic guard. Over a fully validated
    /// snapshot this returns exactly what [`Self::route_with_exact`]
    /// returns, just slower; over corrupt bytes (a snapshot loaded with
    /// [`FlatScheme::from_bytes_unvalidated`]) it degrades the query into a
    /// structured error instead of panicking the caller.
    ///
    /// # Errors
    ///
    /// Everything [`Self::route_with_exact`] reports, plus
    /// [`RoutingError::TreeRouting`] for any corruption encountered
    /// mid-route.
    pub fn route_checked(
        &self,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        // The checked accessors make index corruption an error; the unwind
        // guard additionally contains anything they cannot see (e.g. a
        // corrupt record interior tripping a slice bound in a view).
        match catch_unwind(AssertUnwindSafe(|| self.forward_checked(from, to))) {
            Ok(forwarded) => forwarded.and_then(|(root, level, path)| {
                RouteOutcome::weighed_in(self.graph, root, level, path, exact)
            }),
            Err(_) => Err(RoutingError::TreeRouting(format!(
                "corrupt snapshot: query {from}->{to} panicked and was degraded"
            ))),
        }
    }

    /// [`Self::route_with_exact`] fronted by a caller-held hot-route cache
    /// (the fast flat storage under
    /// [`en_routing::access::forward_via_cached`]). Outcomes are
    /// bit-identical to the uncached call on any validated snapshot; only
    /// the cache's counters and the speed differ.
    ///
    /// # Errors
    ///
    /// Exactly what [`Self::route_with_exact`] reports.
    pub fn route_with_cache(
        &self,
        cache: &mut RouteCache,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        let (root, level, path) =
            access::forward_via_cached(&FastAccess { flat: self.flat }, cache, from, to)?;
        RouteOutcome::weighed_in(self.graph, root, level, path, exact)
    }

    /// [`Self::route_checked`] fronted by a caller-held hot-route cache —
    /// the hardened accessors under the same cached kernel, so the checked
    /// storage exercises caching exactly like the fast one (errors are
    /// never cached; a degraded query stays degraded).
    ///
    /// # Errors
    ///
    /// Exactly what [`Self::route_checked`] reports.
    pub fn route_checked_with_cache(
        &self,
        cache: &mut RouteCache,
        from: NodeId,
        to: NodeId,
        exact: Dist,
    ) -> Result<RouteOutcome, RoutingError> {
        let mut guarded = AssertUnwindSafe((cache, self));
        match catch_unwind(move || {
            let (cache, engine) = &mut *guarded;
            access::forward_via_cached(&CheckedAccess { flat: engine.flat }, cache, from, to)
        }) {
            Ok(forwarded) => forwarded.and_then(|(root, level, path)| {
                RouteOutcome::weighed_in(self.graph, root, level, path, exact)
            }),
            Err(_) => Err(RoutingError::TreeRouting(format!(
                "corrupt snapshot: query {from}->{to} panicked and was degraded"
            ))),
        }
    }

    fn route_chunk(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
        cache: &mut RouteCache,
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
                let res = self.route_with_cache(cache, from, to, exact);
                let dur_ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                en_obs::histogram_record("wire.route_latency_ns", dur_ns);
                if let Ok(o) = &res {
                    en_obs::histogram_record("wire.route_hops", o.path.hops() as u64);
                }
                out.push(res);
            } else {
                out.push(self.route_with_cache(cache, from, to, exact));
            }
        }
        out
    }

    /// Routes one shard: the fast path first, under a panic guard; if the
    /// worker panicked, one sequential retry per query through the checked
    /// path, so only the queries actually touching corruption degrade.
    fn route_shard_isolated(
        &self,
        pairs: &[(NodeId, NodeId)],
        exacts: Option<&[Dist]>,
    ) -> (Vec<Result<RouteOutcome, RoutingError>>, ShardStats) {
        let mut stats = ShardStats {
            queries: pairs.len(),
            ..ShardStats::default()
        };
        // One cache per shard: workers warm their own memo lock-free, and
        // outcomes stay deterministic per shard (hence per batch) because a
        // cache can never change an answer, only skip a scan.
        let mut cache = RouteCache::new(self.cache.capacity);
        let fast = catch_unwind(AssertUnwindSafe(|| {
            self.route_chunk(pairs, exacts, &mut cache)
        }));
        let outcomes = match fast {
            Ok(outcomes) => {
                stats.cache = cache.stats();
                outcomes
            }
            Err(_) => {
                // The shard died mid-chunk; re-run it query by query on the
                // hardened path. Retrying is deterministic — the snapshot
                // bytes are immutable — so a query that panicked fast will
                // now produce a structured error instead.
                stats.panicked = true;
                stats.retries = pairs.len();
                pairs
                    .iter()
                    .enumerate()
                    .map(|(i, &(from, to))| {
                        self.route_checked(from, to, exacts.map_or(0, |e| e[i]))
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
    /// order, so the result — outcomes and aggregate statistics alike — is
    /// identical for every thread count, with one carve-out: the cache
    /// counters are per-shard by design (each worker warms its own cache),
    /// so with caching enabled they vary with the sharding. Compare
    /// [`BatchStats::without_cache_counters`] across thread counts.
    ///
    /// A worker panic does not kill the batch: the shard is caught,
    /// retried sequentially through [`Self::route_checked`], and any query
    /// still failing is degraded into its per-query error (see the module
    /// docs; `stats.shard_panics` / `retried` / `degraded` and
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
            stats.cache_hits += s.cache.hits;
            stats.cache_misses += s.cache.misses;
            stats.cache_evictions += s.cache.evictions;
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
    en_obs::counter_add("wire.cache.hits", stats.cache_hits);
    en_obs::counter_add("wire.cache.misses", stats.cache_misses);
    en_obs::counter_add("wire.cache.evictions", stats.cache_evictions);
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
        cache_hits: 0,
        cache_misses: 0,
        cache_evictions: 0,
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

    #[test]
    fn cache_cap_parse_contract() {
        assert_eq!(parse_cache_cap(None), 0, "unset means disabled");
        assert_eq!(parse_cache_cap(Some("")), 0, "empty means disabled");
        assert_eq!(parse_cache_cap(Some("  ")), 0);
        assert_eq!(parse_cache_cap(Some("64")), 64);
        assert_eq!(parse_cache_cap(Some(" 128\n")), 128);
    }

    #[test]
    fn malformed_cache_cap_warns_instead_of_silence() {
        let reg = std::sync::Arc::new(en_obs::MetricsRegistry::new());
        {
            let _guard = en_obs::install(reg.clone());
            assert_eq!(parse_cache_cap(Some("lots")), 0);
            assert_eq!(parse_cache_cap(Some("-3")), 0);
        }
        assert_eq!(reg.counter_value("wire.cache.env_malformed"), 2);
        let events = reg.events_snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "wire.cache.env_malformed");
        assert_eq!(events[0].level, en_obs::Level::Warn);
        assert!(events[0]
            .fields
            .iter()
            .any(|(k, v)| k == "value" && *v == en_obs::FieldValue::Str("lots".into())));
    }
}
