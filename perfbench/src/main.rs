//! The routing scheme's benchmark of record.
//!
//! One run is one process, one workload and one closed-loop client thread.
//! It generates its own inputs — a fixed graph, and a request stream drawn
//! from `--seed` — then drives the program's public API end to end:
//! `build_routing_scheme` → `en_wire::serialize` → file write →
//! `MappedSnapshot::open` → `SchemeStore` validate + publish → per-request
//! forwarding with `QueryEngine::route_with_exact`. The run is cut into
//! slices; each sets up afresh, warms up untimed and serves its share of
//! `--seconds`. Every route gets O(1) checks inside the timed window and a
//! fixed sample gets full checks outside it. The end-to-end figures cover
//! every timed route and publish of the run, and `setup_s` is the median
//! setup. The last line of standard output is one JSON object: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]
//! ```

mod host;
mod inputs;
mod oracle;
mod stats;

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use en_graph::WeightedGraph;
use en_obs::MetricsRegistry;
use en_routing::{build_routing_scheme, BuiltScheme, ConstructionConfig};
use en_wire::{MappedSnapshot, QueryEngine, SchemeStore};

use inputs::{derive, Fnv, Graph, PairStream, Traffic};
use stats::{median, Hist};

struct Workload {
    name: &'static str,
    traffic: Traffic,
    /// Routes between two live publishes; `None` publishes nothing while
    /// serving.
    publish_every: Option<u64>,
}

/// Both workloads serve one scheme: n = 1000, k = 3, a 4.8 MB snapshot far
/// below the shared L3. There is no DRAM-bound n = 10,000, k = 2 workload:
/// on a shared 2-vCPU guest its routes/s and latency percentiles spread
/// 23–24% from run to run and its peak RSS 11%, at or beyond the largest
/// bounds `BENCHMARK.json` may set, and its 7 s setup, repeated in every
/// slice, would not fit a run.
const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "uniform-n1k-k3",
        traffic: Traffic::Uniform,
        publish_every: None,
    },
    Workload {
        name: "zipf-publish-n1k-k3",
        traffic: Traffic::Zipf { exponent: 1.2 },
        publish_every: Some(2000),
    },
];

const N: usize = 1000;
const K: usize = 3;
/// Slices per run. Each slice sets up afresh, warms up and serves its share
/// of `--seconds`, so the setups that give `setup_s` (their median) are
/// spread over the whole run, not bunched at its start where one brief host
/// state would decide them.
const SLICES: u32 = 25;
/// Size of the fixed sample of the workload's pairs that is checked in full.
const SAMPLE: usize = 2000;
/// Publishes per slice after its timed routes, outside the clock, on a
/// workload without live publishes; they give its publish latency metrics.
/// Over a run, about as many as the live-publish workload makes.
const IDLE_PUBLISHES: u32 = 80;
/// Seed of the fixed inputs: the graph, the construction seed, the Zipf
/// rankings and the checked sample. They do not vary with `--seed`, because
/// the built scheme's size and stretch vary from seed to seed by more than
/// any bound the benchmark could hold (15% in snapshot bytes and 33% in
/// sampled max stretch over five seeds). `--seed` draws the request stream.
const INPUT_SEED: u64 = 42;
const AVG_DEGREE: usize = 8;
const MAX_WEIGHT: usize = 100;
/// Untimed warm-up after each setup: requests `0..WARMUP`. The timed
/// requests start after them.
const WARMUP: u64 = 1 << 16;
/// Window of the stream, after the warm-up, that the traffic share reads.
const TOP_WINDOW: u64 = 1 << 18;
const TOP_PAIRS: usize = 4096;
/// Routes right after each epoch pin that feed `serve.post_publish_p99_us`.
const POST_PIN: u64 = 32;
/// Sample pairs re-checked against epoch 0 in every epoch.
const EPOCH_CHECK: usize = 64;
/// Every `RECORD_EVERY`-th traced request keeps a per-request record.
const RECORD_EVERY: u64 = 64;
const MAX_RECORDS: usize = 8192;
/// Program span of the construction, under the harness's `setup` and
/// `build` spans.
const BUILD_SPAN: &str = "setup/build/build";
const BUILD_PHASES: [&str; 9] = [
    "hierarchy",
    "preprocess",
    "pivots",
    "clusters_small",
    "clusters_middle",
    "clusters_large",
    "forest_finish",
    "assemble",
    "sketches",
];
const SETUP_LAYERS: [&str; 6] = ["build", "serialize", "write", "drop", "open", "publish"];
const BUILD_COUNTERS: [&str; 6] = [
    "build.sources_total",
    "build.members_total",
    "kernel.theorem1.sources",
    "kernel.restricted.sources",
    "hopset.shortcut_edges",
    "tree_routing.schemes_built",
];
/// Round-ledger phases grouped by name prefix; the rest is `rounds.other`.
const ROUND_GROUPS: [(&str, &[&str]); 6] = [
    ("theorem1", &["Theorem 1"]),
    ("hopset", &["Theorem 2", "broadcast hopset"]),
    ("pivots", &["exact pivots", "approximate pivots"]),
    ("clusters_small", &["small-scale"]),
    ("clusters_large", &["large-scale"]),
    ("tree_routing", &["tree-routing"]),
];

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Option<String> {
        let at = argv.iter().position(|a| a == flag)?;
        argv.get(at + 1).cloned()
    };
    let name = get("--workload").ok_or("missing --workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let number = |flag: &str, v: Option<String>| -> Result<u64, String> {
        v.ok_or(format!("missing {flag}"))?
            .parse()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seed = number("--seed", get("--seed"))?;
    let seconds = number("--seconds", get("--seconds"))?;
    let trace = match get("--trace").as_deref() {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let out_dir = get("--out-dir")
        .unwrap_or_else(|| "perfbench/out".into())
        .into();
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.iter().any(|a| a == "--host-probe") {
        let (alu, dram) = host::probe();
        println!("{alu} {dram}");
        return ExitCode::SUCCESS;
    }
    if std::env::var_os("EN_WIRE_CACHE_CAP").is_some() {
        eprintln!(
            "perfbench: EN_WIRE_CACHE_CAP is set; unset it so the default engine is measured"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> [--out-dir <dir>]");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Operation accounting: every route and every publish is one attempt.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    fn count(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Everything a run shares: the inputs and the snapshot files.
struct Bench<'a> {
    w: &'static Workload,
    graph: &'a Graph,
    host: &'a WeightedGraph,
    /// The request stream, drawn from `--seed`.
    stream: PairStream,
    /// The checked sample: the same traffic, drawn from `INPUT_SEED`.
    sample: PairStream,
    construction_seed: u64,
    files: [PathBuf; 2],
}

/// Removes the run's snapshot files however the run ends.
struct Cleanup<'a>(&'a [PathBuf; 2]);

impl Drop for Cleanup<'_> {
    fn drop(&mut self) {
        for f in self.0 {
            let _ = std::fs::remove_file(f);
        }
    }
}

/// What one setup measured.
struct SetupRun {
    total_s: f64,
    build_faults: u64,
    serialize_faults: u64,
}

/// Facts of the built scheme, identical in every setup of a run.
#[derive(PartialEq)]
struct BuildFacts {
    rounds_total: u64,
    round_groups: Vec<u64>,
    stretch_bound: f64,
}

impl BuildFacts {
    fn of(built: &BuiltScheme) -> BuildFacts {
        let mut round_groups = vec![0u64; ROUND_GROUPS.len() + 1];
        for phase in built.ledger.phases() {
            let group = ROUND_GROUPS
                .iter()
                .position(|(_, prefixes)| prefixes.iter().any(|p| phase.name.starts_with(p)))
                .unwrap_or(ROUND_GROUPS.len());
            round_groups[group] += phase.rounds as u64;
        }
        BuildFacts {
            rounds_total: built.ledger.total_rounds() as u64,
            round_groups,
            stretch_bound: built.params.stretch_bound(),
        }
    }
}

/// Inputs in hand to the store serving epoch 0. Harness spans wrap each
/// public call; they are inert unless a registry is installed.
fn setup(b: &Bench) -> Result<(SchemeStore, SetupRun, BuildFacts), String> {
    let start = Instant::now();
    let setup_span = en_obs::span("setup");
    let u0 = host::usage();
    let built = {
        let _s = en_obs::span("build");
        build_routing_scheme(b.host, &ConstructionConfig::new(K, b.construction_seed))
    }
    .map_err(|e| format!("construction failed: {e}"))?;
    let u1 = host::usage();
    let bytes = {
        let _s = en_obs::span("serialize");
        en_wire::serialize(&built.scheme)
    };
    let u2 = host::usage();
    {
        let _s = en_obs::span("write");
        std::fs::write(&b.files[0], &bytes)
    }
    .map_err(|e| format!("writing {}: {e}", b.files[0].display()))?;
    let facts = BuildFacts::of(&built);
    {
        let _s = en_obs::span("drop");
        drop(built);
        drop(bytes);
    }
    let mapped = {
        let _s = en_obs::span("open");
        MappedSnapshot::open(&b.files[0])
    }
    .map_err(|e| format!("opening {}: {e}", b.files[0].display()))?;
    let store = {
        let _s = en_obs::span("publish");
        SchemeStore::new_source(mapped.into())
    }
    .map_err(|e| format!("epoch 0 rejected: {e}"))?;
    drop(setup_span);
    let run = SetupRun {
        total_s: start.elapsed().as_secs_f64(),
        build_faults: u1.minor_faults - u0.minor_faults,
        serialize_faults: u2.minor_faults - u1.minor_faults,
    };
    Ok((store, run, facts))
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos().min(u128::from(u64::MAX)) as u64
}

/// One request's trace record. A recorded request calls `find_tree` first,
/// so its route runs with the find-tree rows already cached.
struct Record {
    id: u64,
    find_tree_ns: u64,
    route_ns: u64,
    hops: usize,
    level: usize,
}

/// What the timed serving of one mode (untraced or traced) measured,
/// summed over the run's slices.
struct Served {
    /// The next request of the stream; every slice continues from it.
    next_request: u64,
    routes: u64,
    /// Wall time of the timed routes, publishes excluded.
    route_time: Duration,
    /// Latency of every timed route, except, when traced, the recorded
    /// requests: their route follows a `find_tree` on the same pair.
    latency: Hist,
    post_pin: Hist,
    publishes: u64,
    publish_latency: Hist,
    publish_faults: u64,
    rejected: u64,
    route_faults: u64,
    /// `find_tree` latency of the recorded requests.
    find_tree: Hist,
    records: Vec<Record>,
}

impl Served {
    fn new(traced: bool) -> Served {
        Served {
            next_request: WARMUP,
            routes: 0,
            route_time: Duration::ZERO,
            latency: Hist::new(),
            post_pin: Hist::new(),
            publishes: 0,
            publish_latency: Hist::new(),
            publish_faults: 0,
            rejected: 0,
            route_faults: 0,
            find_tree: Hist::new(),
            records: Vec::with_capacity(if traced { MAX_RECORDS } else { 0 }),
        }
    }
}

/// One slice's timed serving on a freshly set-up `store`: a closed loop of
/// routes, with one live publish every `publish_every` routes, until routes
/// and publishes together have taken `budget`. Each route gets O(1) checks:
/// the call returned `Ok` and the path ends at the destination. Between
/// segments, outside the clock, the epoch is re-checked against
/// `reference`. A workload without live publishes then makes
/// `IDLE_PUBLISHES` publishes, outside the clock. With `TRACED`, harness
/// spans wrap each call, and every `RECORD_EVERY`-th request, up to
/// `MAX_RECORDS`, times `find_tree` on its own and keeps a record.
fn serve<const TRACED: bool>(
    b: &Bench,
    store: &SchemeStore,
    budget: Duration,
    reference: &[u64],
    out: &mut Served,
    ops: &mut Ops,
) -> Result<(), String> {
    let faults_at_start = host::usage().minor_faults;
    let publish_faults_at_start = out.publish_faults;
    let every = b.w.publish_every.unwrap_or(u64::MAX);
    let mut epoch_id = 0;
    let mut next_file = 1;
    let mut spent = Duration::ZERO;
    while spent < budget {
        let epoch = store.current();
        let engine = QueryEngine::new(epoch.scheme(), b.host).map_err(|e| e.to_string())?;
        let clock = Instant::now();
        let mut last = clock;
        let mut in_segment = 0u64;
        while in_segment < every && spent + (last - clock) < budget {
            let request = out.next_request;
            let (s, t) = b.stream.pair(request);
            let record =
                TRACED && request.is_multiple_of(RECORD_EVERY) && out.records.len() < MAX_RECORDS;
            let (found, find_tree_ns) = if record {
                let t0 = Instant::now();
                let found = {
                    let _s = en_obs::span("find_tree");
                    black_box(engine.find_tree(s, t)).is_ok()
                };
                (found, nanos(t0.elapsed()))
            } else {
                (true, 0)
            };
            let t0 = Instant::now();
            let routed = {
                let _s = TRACED.then(|| en_obs::span("route"));
                engine.route_with_exact(s, t, 0)
            };
            let t1 = Instant::now();
            let ns = nanos(t1 - t0);
            let delivered = matches!(&routed, Ok(o) if o.path.nodes().last() == Some(&t));
            ops.count(found && delivered);
            if record {
                out.find_tree.record(find_tree_ns);
                if let Ok(o) = &routed {
                    out.records.push(Record {
                        id: request,
                        find_tree_ns,
                        route_ns: ns,
                        hops: o.path.nodes().len() - 1,
                        level: o.level,
                    });
                }
            } else {
                out.latency.record(ns);
                if in_segment < POST_PIN {
                    out.post_pin.record(ns);
                }
            }
            out.routes += 1;
            out.next_request += 1;
            in_segment += 1;
            last = t1;
        }
        spent += last - clock;
        out.route_time += last - clock;
        if in_segment < every {
            break;
        }

        for (i, want) in reference.iter().take(EPOCH_CHECK).enumerate() {
            let (s, t) = b.sample.pair(i as u64);
            let mut h = Fnv::new();
            let ok = engine
                .route_with_exact(s, t, 0)
                .map(|o| oracle::outcome_digest(&mut h, &o));
            ops.count(ok.is_ok() && h.finish() == *want);
        }
        spent += publish_once::<TRACED>(store, &b.files[next_file], &mut epoch_id, out, ops);
        next_file ^= 1;
    }
    if b.w.publish_every.is_none() {
        for _ in 0..IDLE_PUBLISHES {
            publish_once::<TRACED>(store, &b.files[0], &mut epoch_id, out, ops);
        }
    }
    let publish_faults = out.publish_faults - publish_faults_at_start;
    out.route_faults += host::usage().minor_faults - faults_at_start - publish_faults;
    Ok(())
}

/// One publish of `file`: `MappedSnapshot::open` plus
/// `SchemeStore::publish_source`, timed. It is one operation, failed unless
/// the store serves it as the epoch after `epoch_id`. Returns its time.
fn publish_once<const TRACED: bool>(
    store: &SchemeStore,
    file: &Path,
    epoch_id: &mut u64,
    out: &mut Served,
    ops: &mut Ops,
) -> Duration {
    let faults_before = host::usage().minor_faults;
    let p0 = Instant::now();
    let published = {
        let _s = TRACED.then(|| en_obs::span("open"));
        MappedSnapshot::open(file)
    }
    .map_err(|e| e.to_string())
    .and_then(|mapped| {
        let _s = TRACED.then(|| en_obs::span("publish"));
        store
            .publish_source(mapped.into())
            .map_err(|e| e.to_string())
    });
    let took = p0.elapsed();
    out.publish_faults += host::usage().minor_faults - faults_before;
    out.publishes += 1;
    out.publish_latency.record(nanos(took));
    ops.count(published.as_ref() == Ok(&(*epoch_id + 1)));
    match published {
        Ok(id) => *epoch_id = id,
        Err(e) => {
            out.rejected += 1;
            eprintln!("publish rejected: {e}");
        }
    }
    took
}

/// Routes every sample request on `store`'s current epoch and returns one
/// outcome digest per request.
fn sample_digests(b: &Bench, store: &SchemeStore, ops: &mut Ops) -> Result<Vec<u64>, String> {
    let epoch = store.current();
    let engine = QueryEngine::new(epoch.scheme(), b.host).map_err(|e| e.to_string())?;
    Ok((0..SAMPLE as u64)
        .map(|i| {
            let (s, t) = b.sample.pair(i);
            let mut h = Fnv::new();
            let routed = engine.route_with_exact(s, t, 0);
            if let Ok(o) = &routed {
                oracle::outcome_digest(&mut h, o);
            }
            ops.count(routed.is_ok());
            h.finish()
        })
        .collect())
}

/// The untimed warm-up pass over requests `0..WARMUP`.
fn warm_up(b: &Bench, store: &SchemeStore, ops: &mut Ops) -> Result<(), String> {
    let epoch = store.current();
    let engine = QueryEngine::new(epoch.scheme(), b.host).map_err(|e| e.to_string())?;
    for i in 0..WARMUP {
        let (s, t) = b.stream.pair(i);
        let routed = engine.route_with_exact(s, t, 0);
        ops.count(matches!(&routed, Ok(o) if o.path.nodes().last() == Some(&t)));
    }
    Ok(())
}

/// The full check of the sample, outside the timed window.
struct SampleCheck {
    stretch_mean: f64,
    stretch_max: f64,
    hops_mean: f64,
    level_share: [f64; K],
}

/// Checks every sample request on the current epoch in full against the
/// benchmark's own Dijkstra, and that its outcome matches `reference`.
fn check_sample(
    b: &Bench,
    store: &SchemeStore,
    bound: f64,
    reference: &[u64],
    ops: &mut Ops,
) -> Result<SampleCheck, String> {
    let epoch = store.current();
    let engine = QueryEngine::new(epoch.scheme(), b.host).map_err(|e| e.to_string())?;
    let mut order: Vec<usize> = (0..SAMPLE).collect();
    order.sort_by_key(|&i| b.sample.pair(i as u64).0);
    let (mut sum, mut max, mut hops, mut levels) = (0.0, 0.0f64, 0usize, [0usize; K]);
    let mut dist: Option<(usize, Vec<u64>)> = None;
    for i in order {
        let (s, t) = b.sample.pair(i as u64);
        if dist.as_ref().map(|d| d.0) != Some(s) {
            dist = Some((s, oracle::dijkstra(b.graph, s)));
        }
        let exact = dist.as_ref().map_or(0, |d| d.1[t]);
        let checked = engine
            .route_with_exact(s, t, exact)
            .map_err(|e| format!("{s}->{t}: {e}"))
            .and_then(|o| {
                let stretch = oracle::check_route(b.graph, s, t, exact, bound, &o)?;
                let mut h = Fnv::new();
                oracle::outcome_digest(&mut h, &o);
                if h.finish() != reference[i] {
                    return Err(format!("{s}->{t}: outcome differs from epoch 0"));
                }
                Ok((stretch, o.path.nodes().len() - 1, o.level))
            });
        match checked {
            Ok((stretch, h, level)) => {
                sum += stretch;
                max = max.max(stretch);
                hops += h;
                if level < K {
                    levels[level] += 1;
                }
                ops.count(true);
            }
            Err(e) => {
                eprintln!("sample check failed: {e}");
                ops.count(false);
            }
        }
    }
    let n = SAMPLE as f64;
    Ok(SampleCheck {
        stretch_mean: sum / n,
        stretch_max: max,
        hops_mean: hops as f64 / n,
        level_share: levels.map(|c| c as f64 / n),
    })
}

/// Runs the host probe in a child process and waits for it.
fn probe_host() -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = std::process::Command::new(exe)
        .arg("--host-probe")
        .output()
        .map_err(|e| format!("host probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut it = text.split_whitespace().map(str::parse::<f64>);
    match (out.status.success(), it.next(), it.next()) {
        (true, Some(Ok(alu)), Some(Ok(dram))) => Ok((alu, dram)),
        _ => Err(format!("host probe failed: {text}")),
    }
}

/// One reported metric; `None` is a metric whose program span or histogram
/// no longer exists.
struct Metric {
    name: String,
    value: Option<f64>,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: impl Into<Option<f64>>, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: value.into().filter(|v| v.is_finite()),
        unit,
    }
}

/// Program spans, histograms and counters of the traced run, read by name
/// so a renamed one shows up as missing (a span or histogram) or as 0 (a
/// counter or gauge) instead of breaking the build.
struct Trace<'a> {
    reg: &'a MetricsRegistry,
    setups: f64,
}

impl Trace<'_> {
    /// Sum and count of span or histogram samples, `None` if never recorded.
    fn span(&self, path: &str) -> Option<(f64, f64)> {
        let h = self.reg.span_histogram(path);
        (h.count() > 0).then(|| (h.sum() as f64, h.count() as f64))
    }

    fn hist(&self, name: &str) -> Option<(f64, f64)> {
        let h = self.reg.histogram(name);
        (h.count() > 0).then(|| (h.sum() as f64, h.count() as f64))
    }

    /// Mean milliseconds per occurrence of span `path`.
    fn span_ms(&self, path: &str) -> Option<f64> {
        self.span(path).map(|(sum, n)| sum / n / 1e6)
    }

    /// A build counter per setup. The registry reads an untouched counter
    /// as 0, so a counter that no longer exists reads 0, not missing.
    fn per_setup(&self, counter: &str) -> Option<f64> {
        Some(self.reg.counter_value(counter) as f64 / self.setups)
    }

    /// A gauge; like a counter, an untouched one reads 0.
    fn gauge(&self, name: &str) -> Option<f64> {
        Some(self.reg.gauge_value(name) as f64)
    }
}

/// Everything a run measured, for the report.
struct Measured {
    facts: BuildFacts,
    manifest: en_wire::SnapshotManifest,
    snapshot_bytes: usize,
    table_words: usize,
    label_words: usize,
    plain: Vec<SetupRun>,
    traced: Vec<SetupRun>,
    plain_served: Served,
    traced_served: Option<Served>,
    sample: SampleCheck,
    top_share: f64,
    /// `RssAnon`, `RssFile` (MiB) and system CPU seconds at the end of
    /// the last untraced serving slice.
    end_of_serving: (f64, f64, f64),
    host_before: (f64, f64),
    host_after: (f64, f64),
}

/// Facts of the serving snapshot, read once from the first setup's store.
struct SnapshotFacts {
    manifest: en_wire::SnapshotManifest,
    bytes: usize,
    table_words: usize,
    label_words: usize,
}

impl SnapshotFacts {
    fn of(store: &SchemeStore) -> SnapshotFacts {
        let epoch = store.current();
        let flat = epoch.scheme();
        SnapshotFacts {
            manifest: flat.manifest(),
            bytes: flat.snapshot_bytes(),
            table_words: flat.max_table_words(),
            label_words: flat.max_label_words(),
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    let host_before = probe_host()?;

    let graph = Graph::random(N, AVG_DEGREE, MAX_WEIGHT, derive(INPUT_SEED, 1));
    let mut host_graph = WeightedGraph::new(N);
    for &(u, v, wt) in &graph.edges {
        host_graph
            .add_edge(u as usize, v as usize, u64::from(wt))
            .map_err(|e| format!("graph input rejected: {e}"))?;
    }
    println!(
        "inputs: n={} m={} fingerprint={:016x}",
        N,
        graph.edges.len(),
        graph.fingerprint()
    );
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("creating {}: {e}", args.out_dir.display()))?;
    let file = |tag: &str| {
        args.out_dir
            .join(format!("{}-{}-{tag}.snap", w.name, args.seed))
    };
    let b = Bench {
        w,
        graph: &graph,
        host: &host_graph,
        stream: PairStream::new(N, w.traffic, derive(INPUT_SEED, 2), derive(args.seed, 4)),
        sample: PairStream::new(N, w.traffic, derive(INPUT_SEED, 2), derive(INPUT_SEED, 4)),
        construction_seed: derive(INPUT_SEED, 3),
        files: [file("a"), file("b")],
    };
    println!(
        "requests: fingerprint={:016x}",
        b.stream.fingerprint(1 << 16)
    );
    let _cleanup = Cleanup(&b.files);
    let mut ops = Ops::default();
    let mut consistent = true;

    // Every slice sets up, warms up and serves once per mode. The traced run
    // alternates an untraced and a traced mode in every slice, each with
    // half of the slice's serving time over the same requests, so it takes
    // as long as an untraced run and the tracing overhead is measured within
    // one process under the same host conditions.
    let registry = Arc::new(MetricsRegistry::new());
    let modes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let budget = Duration::from_secs(args.seconds) / (SLICES * modes.len() as u32);
    let mut plain: Vec<SetupRun> = Vec::new();
    let mut traced: Vec<SetupRun> = Vec::new();
    let mut plain_served = Served::new(false);
    let mut traced_served = Served::new(true);
    let mut checksums: Vec<u64> = Vec::new();
    let mut facts: Option<BuildFacts> = None;
    let mut first: Option<(SnapshotFacts, Vec<u64>)> = None;
    let mut end_of_serving = (0.0, 0.0, 0.0);
    let mut store: Option<SchemeStore> = None;
    for _ in 0..SLICES {
        for &with_trace in modes {
            // The previous store maps the file that setup rewrites.
            drop(store.take());
            let (s, r, f) = {
                let _guard = with_trace.then(|| en_obs::install(registry.clone()));
                setup(&b)?
            };
            ops.count(true);
            checksums.push(s.current().scheme().manifest().header_checksum);
            consistent &= facts.as_ref().is_none_or(|prev| *prev == f);
            facts = Some(f);
            if first.is_none() {
                if w.publish_every.is_some() {
                    std::fs::copy(&b.files[0], &b.files[1])
                        .map_err(|e| format!("copying snapshot: {e}"))?;
                }
                first = Some((SnapshotFacts::of(&s), sample_digests(&b, &s, &mut ops)?));
            }
            let reference = &first.as_ref().expect("set above").1;
            warm_up(&b, &s, &mut ops)?;
            if with_trace {
                traced.push(r);
                let _guard = en_obs::install(registry.clone());
                serve::<true>(&b, &s, budget, reference, &mut traced_served, &mut ops)?;
            } else {
                plain.push(r);
                serve::<false>(&b, &s, budget, reference, &mut plain_served, &mut ops)?;
                end_of_serving = (
                    host::status_mib("RssAnon"),
                    host::status_mib("RssFile"),
                    host::usage().sys_s,
                );
            }
            store = Some(s);
        }
    }
    let store = store.expect("at least one slice");
    let facts = facts.expect("at least one slice");
    let (snapshot, reference) = first.expect("at least one slice");
    consistent &= checksums.windows(2).all(|p| p[0] == p[1]);
    println!(
        "snapshot: bytes={} header_checksum={:016x} identical_across_setups={consistent}",
        snapshot.bytes, snapshot.manifest.header_checksum
    );
    let sample = check_sample(&b, &store, facts.stretch_bound, &reference, &mut ops)?;
    let top_share = b.stream.top_pair_share(WARMUP, TOP_WINDOW, TOP_PAIRS);
    drop(store);
    let host_after = probe_host()?;

    let m = Measured {
        facts,
        manifest: snapshot.manifest,
        snapshot_bytes: snapshot.bytes,
        table_words: snapshot.table_words,
        label_words: snapshot.label_words,
        plain,
        traced,
        plain_served,
        traced_served: args.trace.then_some(traced_served),
        sample,
        top_share,
        end_of_serving,
        host_before,
        host_after,
    };
    print_diagnostics(&m);
    let metrics = match &m.traced_served {
        Some(traced_served) => {
            let path = args
                .out_dir
                .join(format!("requests-{}-seed{}.jsonl", w.name, args.seed));
            write_records(&path, &traced_served.records)?;
            println!("per-request records: {}", path.display());
            let trace = Trace {
                reg: &registry,
                setups: m.traced.len() as f64,
            };
            per_layer(&m, traced_served, &trace)
        }
        None => end_to_end(&m),
    };
    print_result(consistent && ops.failed == 0, &ops, &metrics);
    Ok(())
}

fn setup_median(runs: &[SetupRun], f: fn(&SetupRun) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// The noise diagnostics every run prints, the host probe among them.
fn print_diagnostics(m: &Measured) {
    println!(
        "traffic: top{TOP_PAIRS}_pair_share={} over requests {WARMUP}..{}",
        m.top_share,
        WARMUP + TOP_WINDOW
    );
    let served = &m.plain_served;
    println!(
        "serving: routes={} route_s={:.3} publishes={} publish_s={:.3}",
        served.routes,
        served.route_time.as_secs_f64(),
        served.publishes,
        served.publish_latency.sum() / 1e9
    );
    println!(
        "minor faults: build={} serialize={} per_publish={:.1} serving={}",
        setup_median(&m.plain, |r| r.build_faults as f64),
        setup_median(&m.plain, |r| r.serialize_faults as f64),
        served.publish_faults as f64 / served.publishes.max(1) as f64,
        served.route_faults,
    );
    let setups: Vec<String> = m
        .plain
        .iter()
        .map(|r| format!("{:.4}", r.total_s))
        .collect();
    println!("setup seconds: {}", setups.join(" "));
    let (anon, file, sys) = m.end_of_serving;
    println!("process: rss_anon_mib={anon:.1} rss_file_mib={file:.1} cpu_sys_s={sys:.2}");
    println!(
        "host: alu_ns={:.3}/{:.3} dram_ns={:.1}/{:.1} (before/after)",
        m.host_before.0, m.host_after.0, m.host_before.1, m.host_after.1
    );
}

/// The untraced run's report. Route figures cover every timed route of the
/// run; publish figures cover its live publishes, or its idle ones on a
/// workload without live publishes.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let served = &m.plain_served;
    let routes_per_s = served.routes as f64 / served.route_time.as_secs_f64();
    let route_us = |q| served.latency.quantile(q).map(|ns| ns / 1e3);
    let publish_ms = |q| served.publish_latency.quantile(q).map(|ns| ns / 1e6);
    vec![
        metric("setup_s", setup_median(&m.plain, |r| r.total_s), "s"),
        metric("routes_per_s", routes_per_s, "routes/s"),
        metric("route_p50_us", route_us(0.5), "us"),
        metric("route_p99_us", route_us(0.99), "us"),
        metric("publish_p50_ms", publish_ms(0.5), "ms"),
        metric("publish_p90_ms", publish_ms(0.9), "ms"),
        metric("peak_rss_mb", host::status_mib("VmHWM"), "MiB"),
        metric("snapshot_bytes", m.snapshot_bytes as f64, "bytes"),
        metric("rounds_charged", m.facts.rounds_total as f64, "rounds"),
        metric("table_words_max", m.table_words as f64, "words"),
        metric("label_words_max", m.label_words as f64, "words"),
        metric("stretch_mean", m.sample.stretch_mean, "ratio"),
        metric("stretch_max", m.sample.stretch_max, "ratio"),
    ]
}

/// The traced run's report: each layer's metrics, self times, the setup
/// residual and the tracing overhead.
fn per_layer(m: &Measured, traced_served: &Served, trace: &Trace) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut push = |name: String, value: Option<f64>, unit: &'static str| {
        out.push(metric(name, value, unit));
    };
    let traced_median = |f: fn(&SetupRun) -> f64| Some(setup_median(&m.traced, f));

    // Construction.
    let build_ms = trace.span_ms(BUILD_SPAN);
    push("build.total_ms".into(), build_ms, "ms");
    let mut children_ms = 0.0;
    for phase in BUILD_PHASES {
        let v = trace.span_ms(&format!("{BUILD_SPAN}/{phase}"));
        children_ms += v.unwrap_or(0.0);
        if phase != "hierarchy" {
            push(format!("build.{phase}_ms"), v, "ms");
        }
    }
    push(
        "build.self_ms".into(),
        build_ms.map(|t| t - children_ms),
        "ms",
    );
    let entry_ms = trace
        .span_ms("setup/build")
        .zip(build_ms)
        .map(|(outer, inner)| outer - inner);
    push("build.entry_ms".into(), entry_ms, "ms");
    push(
        "build.threads_used".into(),
        trace.gauge("build.threads_used"),
        "count",
    );
    push(
        "build.minor_faults".into(),
        traced_median(|r| r.build_faults as f64),
        "count",
    );
    for counter in BUILD_COUNTERS {
        push(counter.into(), trace.per_setup(counter), "count");
    }

    // Round accounting.
    let groups = ROUND_GROUPS.iter().map(|g| g.0).chain(["other"]);
    for (group, rounds) in groups.zip(&m.facts.round_groups) {
        push(format!("rounds.{group}"), Some(*rounds as f64), "rounds");
    }

    // Snapshot writer and layout.
    push(
        "snapshot.serialize_ms".into(),
        trace.span_ms("setup/serialize"),
        "ms",
    );
    push(
        "snapshot.serialize_minor_faults".into(),
        traced_median(|r| r.serialize_faults as f64),
        "count",
    );
    push(
        "snapshot.write_ms".into(),
        trace.span_ms("setup/write"),
        "ms",
    );
    push("setup.drop_ms".into(), trace.span_ms("setup/drop"), "ms");
    for s in &m.manifest.sections {
        let name = s.section.name();
        push(
            format!("snapshot.section_bytes.{name}"),
            Some((s.words * 8) as f64),
            "bytes",
        );
    }

    // Open, validate and swap, over every open and publish of the traced
    // phases, the setups' epoch-0 publishes included.
    let publishes = [trace.span("setup/publish"), trace.span("publish")]
        .into_iter()
        .flatten()
        .reduce(|(s0, n0), (s1, n1)| (s0 + s1, n0 + n1));
    let validate = trace.hist("wire.validate_ns");
    let mmap_us = trace.hist("wire.mmap_open_ns").map(|(s, n)| s / n / 1e3);
    push("open.mmap_us".into(), mmap_us, "us");
    push(
        "open.validate_ms".into(),
        validate.map(|(s, n)| s / n / 1e6),
        "ms",
    );
    let gb_per_s = validate.map(|(s, n)| m.snapshot_bytes as f64 / (s / n));
    push("open.validate_gb_per_s".into(), gb_per_s, "GB/s");
    push(
        "open.validate_threads".into(),
        trace.gauge("wire.validate.threads"),
        "count",
    );
    push(
        "store.publish_ms".into(),
        publishes.map(|(s, n)| s / n / 1e6),
        "ms",
    );
    let swap_us = publishes
        .zip(validate)
        .map(|((ps, pn), (vs, _))| (ps - vs) / pn / 1e3);
    push("store.swap_us".into(), swap_us, "us");
    let publish_faults = traced_served.publish_faults as f64 / traced_served.publishes as f64;
    push(
        "store.publish_minor_faults".into(),
        Some(publish_faults),
        "count",
    );
    let rejected = m.plain_served.rejected + traced_served.rejected;
    push("store.rejected".into(), Some(rejected as f64), "count");

    // Forwarding. `find_tree` is timed only on the recorded requests, ahead
    // of their route; every other traced request makes the same calls as an
    // untraced one, so its latency gives the route time, the share and the
    // tracing overhead.
    push(
        "serve.find_tree_p50_ns".into(),
        traced_served.find_tree.quantile(0.5),
        "ns",
    );
    push(
        "serve.route_p50_ns".into(),
        traced_served.latency.quantile(0.5),
        "ns",
    );
    let share = traced_served.find_tree.mean() / traced_served.latency.mean();
    push("serve.find_tree_share".into(), Some(share), "ratio");
    push("serve.hops_mean".into(), Some(m.sample.hops_mean), "hops");
    for (level, share) in m.sample.level_share.iter().enumerate() {
        push(format!("serve.level_share.{level}"), Some(*share), "ratio");
    }
    push(
        "serve.minor_faults".into(),
        Some(traced_served.route_faults as f64),
        "count",
    );
    let post_pin = m.plain_served.post_pin.quantile(0.99).map(|v| v / 1e3);
    push("serve.post_publish_p99_us".into(), post_pin, "us");

    // Inputs, process, tracing, host.
    push(
        "traffic.top4096_pair_share".into(),
        Some(m.top_share),
        "ratio",
    );
    let (anon, file, sys) = m.end_of_serving;
    push("proc.rss_anon_mb".into(), Some(anon), "MiB");
    push("proc.rss_file_mb".into(), Some(file), "MiB");
    push("proc.cpu_sys_s".into(), Some(sys), "s");
    let overhead_setup =
        setup_median(&m.traced, |r| r.total_s) / setup_median(&m.plain, |r| r.total_s);
    push("obs.overhead_setup".into(), Some(overhead_setup), "ratio");
    let overhead_routes = traced_served.latency.mean() / m.plain_served.latency.mean();
    push("obs.overhead_routes".into(), Some(overhead_routes), "ratio");
    let layers_ms: f64 = SETUP_LAYERS
        .iter()
        .filter_map(|l| trace.span_ms(&format!("setup/{l}")))
        .sum();
    let residual = trace.span_ms("setup").map(|t| t - layers_ms);
    push("setup.residual_ms".into(), residual, "ms");
    let alu = (m.host_before.0 + m.host_after.0) / 2.0;
    push("host.alu_ns".into(), Some(alu), "ns");
    let dram = (m.host_before.1 + m.host_after.1) / 2.0;
    push("host.dram_ns".into(), Some(dram), "ns");
    out
}

fn write_records(path: &Path, records: &[Record]) -> Result<(), String> {
    let mut text = String::new();
    for r in records {
        text.push_str(&format!(
            "{{\"request\": {}, \"find_tree_ns\": {}, \"route_ns\": {}, \"hops\": {}, \"level\": {}}}\n",
            r.id, r.find_tree_ns, r.route_ns, r.hops, r.level
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn print_result(correct: bool, ops: &Ops, metrics: &[Metric]) {
    let mut body = Vec::new();
    for m in metrics {
        let value = match m.value {
            Some(v) => {
                println!("{:<36} {v} {}", m.name, m.unit);
                v.to_string()
            }
            None => {
                println!("{:<36} missing {}", m.name, m.unit);
                "null".to_string()
            }
        };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
}
