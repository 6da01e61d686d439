//! Benchmark inputs, made by the benchmark's own generator: the host graph
//! and the request streams.
//!
//! Nothing here calls the program's generators or its vendored `rand`, so a
//! change to those cannot move the inputs. The request stream is
//! counter-based — request `i` is a pure function of the stream key and `i` —
//! so it costs no memory, any prefix can be replayed, and the warm-up, the
//! checked sample and the timed phase all read the same stream.

use std::collections::HashSet;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 finaliser: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An independent key for sub-stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    mix(seed ^ mix(stream.wrapping_mul(GOLDEN)))
}

/// `r`'s high 32 bits scaled into `0..n` (multiply-shift).
fn scale_hi(r: u64, n: u64) -> u64 {
    ((r >> 32) * n) >> 32
}

/// SplitMix64, the benchmark's sequential generator.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n`, for `n < 2^32`.
    pub fn below(&mut self, n: usize) -> usize {
        scale_hi(self.next_u64(), n as u64) as usize
    }

    fn shuffle(&mut self, xs: &mut [u32]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over 64-bit words, for fingerprints and outcome digests.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The host graph as the benchmark sees it: an edge list plus a CSR with
/// sorted neighbour lists, used for the benchmark's own Dijkstra and its
/// hop checks.
pub struct Graph {
    pub n: usize,
    /// `(u, v, w)` in generation order.
    pub edges: Vec<(u32, u32, u32)>,
    offsets: Vec<u32>,
    /// `(neighbour, weight)`, sorted by neighbour within each vertex.
    adj: Vec<(u32, u32)>,
}

impl Graph {
    /// A connected random graph on `n` vertices with `n * avg_degree / 2`
    /// edges and integer weights `1..=max_weight`: a random recursive tree
    /// over a shuffled vertex order (for connectivity), topped up with
    /// uniformly random distinct edges.
    pub fn random(n: usize, avg_degree: usize, max_weight: usize, seed: u64) -> Graph {
        let mut rng = SplitMix::new(seed);
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        let target = n * avg_degree / 2;
        let mut seen = HashSet::with_capacity(target);
        let mut edges = Vec::with_capacity(target);
        let mut push = |u: u32, v: u32, rng: &mut SplitMix| {
            let key = (u64::from(u.min(v)) << 32) | u64::from(u.max(v));
            let fresh = u != v && seen.insert(key);
            if fresh {
                edges.push((u, v, 1 + rng.below(max_weight) as u32));
            }
            fresh
        };
        for i in 1..n {
            let parent = order[rng.below(i)];
            push(order[i], parent, &mut rng);
        }
        let mut m = n - 1;
        while m < target {
            let (u, v) = (rng.below(n) as u32, rng.below(n) as u32);
            m += usize::from(push(u, v, &mut rng));
        }

        let mut degree = vec![0u32; n + 1];
        for &(u, v, _) in &edges {
            degree[u as usize + 1] += 1;
            degree[v as usize + 1] += 1;
        }
        let mut offsets = degree;
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut fill = offsets.clone();
        let mut adj = vec![(0u32, 0u32); 2 * edges.len()];
        for &(u, v, w) in &edges {
            for (a, b) in [(u, v), (v, u)] {
                adj[fill[a as usize] as usize] = (b, w);
                fill[a as usize] += 1;
            }
        }
        for v in 0..n {
            adj[offsets[v] as usize..offsets[v + 1] as usize].sort_unstable();
        }
        Graph {
            n,
            edges,
            offsets,
            adj,
        }
    }

    pub fn neighbors(&self, v: usize) -> &[(u32, u32)] {
        &self.adj[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The weight of edge `(u, v)`, if it exists.
    pub fn weight(&self, u: usize, v: usize) -> Option<u64> {
        let nbrs = self.neighbors(u);
        nbrs.binary_search_by_key(&(v as u32), |&(x, _)| x)
            .ok()
            .map(|i| u64::from(nbrs[i].1))
    }

    /// Hash of the vertex count and the edge list, printed by every run.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.n as u64);
        for &(u, v, w) in &self.edges {
            h.word((u64::from(u) << 32) | u64::from(v));
            h.word(u64::from(w));
        }
        h.finish()
    }
}

/// How request endpoints are drawn.
#[derive(Clone, Copy)]
pub enum Traffic {
    /// Both endpoints uniform, source ≠ destination.
    Uniform,
    /// Both endpoints Zipf(`exponent`) over ranks, each endpoint with its
    /// own seeded ranking of the vertices, so hot pairs repeat.
    Zipf { exponent: f64 },
}

/// Walker–Vose alias table: O(1) draws from a discrete distribution.
struct Alias {
    /// Acceptance threshold of each slot, scaled to `2^32`.
    threshold: Vec<u64>,
    alias: Vec<u32>,
}

impl Alias {
    fn new(weights: &[f64]) -> Alias {
        let n = weights.len();
        let total: f64 = weights.iter().sum();
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * n as f64 / total).collect();
        let mut threshold = vec![1u64 << 32; n];
        let mut alias: Vec<u32> = (0..n as u32).collect();
        let (mut small, mut large): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&i| scaled[i] < 1.0);
        while let (Some(s), Some(&l)) = (small.pop(), large.last()) {
            threshold[s] = (scaled[s] * (1u64 << 32) as f64) as u64;
            alias[s] = l as u32;
            scaled[l] -= 1.0 - scaled[s];
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        Alias { threshold, alias }
    }

    fn sample(&self, r: u64) -> usize {
        let slot = scale_hi(r, self.threshold.len() as u64) as usize;
        if (r & 0xFFFF_FFFF) < self.threshold[slot] {
            slot
        } else {
            self.alias[slot] as usize
        }
    }
}

struct ZipfPairs {
    alias: Alias,
    source_by_rank: Vec<u32>,
    dest_by_rank: Vec<u32>,
}

/// The request stream: request `i` is `pair(i)`.
pub struct PairStream {
    n: u64,
    key: u64,
    zipf: Option<ZipfPairs>,
}

impl PairStream {
    /// The stream of `traffic` over `n` vertices whose draws come from
    /// `key`. Zipf rankings come from `rankings_seed`, so streams with
    /// different keys share one distribution.
    pub fn new(n: usize, traffic: Traffic, rankings_seed: u64, key: u64) -> PairStream {
        let zipf = match traffic {
            Traffic::Uniform => None,
            Traffic::Zipf { exponent } => {
                let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-exponent)).collect();
                let ranking = |stream| {
                    let mut order: Vec<u32> = (0..n as u32).collect();
                    SplitMix::new(derive(rankings_seed, stream)).shuffle(&mut order);
                    order
                };
                Some(ZipfPairs {
                    alias: Alias::new(&weights),
                    source_by_rank: ranking(1),
                    dest_by_rank: ranking(2),
                })
            }
        };
        PairStream {
            n: n as u64,
            key,
            zipf,
        }
    }

    fn draw(&self, i: u64) -> u64 {
        mix(self.key.wrapping_add(i.wrapping_mul(GOLDEN)))
    }

    /// Request `i`: a `(source, destination)` pair with source ≠ destination.
    #[inline]
    pub fn pair(&self, i: u64) -> (usize, usize) {
        match &self.zipf {
            None => {
                let r = self.draw(i);
                let s = scale_hi(r, self.n);
                let t = ((r & 0xFFFF_FFFF) * (self.n - 1)) >> 32;
                (s as usize, (t + u64::from(t >= s)) as usize)
            }
            Some(z) => {
                let s = z.source_by_rank[z.alias.sample(self.draw(2 * i))] as usize;
                let mut t = z.dest_by_rank[z.alias.sample(self.draw(2 * i + 1))] as usize;
                if t == s {
                    t = (t + 1) % self.n as usize;
                }
                (s, t)
            }
        }
    }

    /// Hash of requests `0..count`, printed by every run.
    pub fn fingerprint(&self, count: u64) -> u64 {
        let mut h = Fnv::new();
        for i in 0..count {
            let (s, t) = self.pair(i);
            h.word((s as u64) << 32 | t as u64);
        }
        h.finish()
    }

    /// Share of requests `from..from + count` that land on the `top` most
    /// frequent pairs of that window.
    pub fn top_pair_share(&self, from: u64, count: u64, top: usize) -> f64 {
        let mut keys: Vec<u32> = (from..from + count)
            .map(|i| {
                let (s, t) = self.pair(i);
                (s as u64 * self.n + t as u64) as u32
            })
            .collect();
        keys.sort_unstable();
        let mut runs: Vec<u32> = keys
            .chunk_by(|a, b| a == b)
            .map(|run| run.len() as u32)
            .collect();
        runs.sort_unstable_by(|a, b| b.cmp(a));
        let hits: u64 = runs.iter().take(top).map(|&c| u64::from(c)).sum();
        hits as f64 / count as f64
    }
}
