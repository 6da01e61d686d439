//! Process counters from `/proc/self`, and the host-speed probe.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of `/proc/self/stat`'s CPU times (`USER_HZ`, 100
/// on Linux).
const TICKS_PER_S: f64 = 100.0;

/// Fault and CPU counters of the whole process, all threads included.
#[derive(Clone, Copy, Default)]
pub struct Usage {
    pub minor_faults: u64,
    pub sys_s: f64,
}

pub fn usage() -> Usage {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, starting at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |n: usize| {
        fields
            .get(n - 3)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    Usage {
        minor_faults: field(10),
        sys_s: field(15) as f64 / TICKS_PER_S,
    }
}

/// A `/proc/self/status` size field (`VmHWM`, `RssAnon`, ...) in MiB.
pub fn status_mib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Fixed host-speed probe, `(alu_ns, dram_ns)`: nanoseconds per step of a
/// dependent integer multiply chain, and per load of a pointer chase through
/// a 64 MiB table. It runs in a child process so its buffer stays out of the
/// benchmark's peak RSS.
pub fn probe() -> (f64, f64) {
    const ALU_STEPS: u64 = 1 << 24;
    let t = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..ALU_STEPS {
        x = x.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(1) ^ (x >> 29);
    }
    black_box(x);
    let alu_ns = t.elapsed().as_nanos() as f64 / ALU_STEPS as f64;

    // next[i] = (a·i + c) mod 2^24 is a single full-period cycle with no
    // fixed stride, so hardware prefetchers cannot follow it.
    const BITS: u32 = 24;
    const LOADS: u64 = 1 << 21;
    let mask = (1u32 << BITS) - 1;
    let next: Vec<u32> = (0..1u32 << BITS)
        .map(|i| i.wrapping_mul(0x0019_660D).wrapping_add(0x3C6E_F35F) & mask)
        .collect();
    let t = Instant::now();
    let mut at = black_box(0u32);
    for _ in 0..LOADS {
        at = next[at as usize];
    }
    black_box(at);
    let dram_ns = t.elapsed().as_nanos() as f64 / LOADS as f64;
    (alu_ns, dram_ns)
}
