//! Order statistics and the seeded byte generator.

/// The `q`-th percentile (0 < q ≤ 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `q`% of the samples at or
/// below it. `None` for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median (50th percentile, nearest rank).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Machine-wide `(steal, total)` CPU ticks from the `cpu` line of
/// `/proc/stat` (user, nice, system, idle, iowait, irq, softirq,
/// steal, …): how much CPU time the hypervisor gave to other guests,
/// out of all CPU time. `(0, 0)` where the kernel does not report them.
pub fn steal_ticks() -> (u64, u64) {
    let ticks = |stat: String| -> Option<(u64, u64)> {
        let line = stat.lines().next()?.strip_prefix("cpu ")?;
        let t: Vec<u64> = line
            .split_whitespace()
            .filter_map(|t| t.parse().ok())
            .collect();
        Some((*t.get(7)?, t.iter().sum()))
    };
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(ticks)
        .unwrap_or((0, 0))
}

/// Bytes this process has read through `read(2)`-family calls so far
/// (`rchar` of `/proc/self/io`), where the kernel reports it: file
/// reads. Sockets read with `recv(2)`, as Rust's `TcpStream` does, and
/// pages read through a memory map are not in it.
pub fn read_bytes_so_far() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("rchar:"))
        .and_then(|v| v.trim().parse().ok())
}

/// What the process used between a [`Mark`] and [`Mark::since`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    /// CPU seconds, less the host's steal ([`Mark::since`]).
    pub cpu_s: f64,
    /// Bytes read ([`read_bytes_so_far`]); NaN where not reported.
    pub read_bytes: f64,
}

impl std::ops::AddAssign for Usage {
    fn add_assign(&mut self, rhs: Usage) {
        self.cpu_s += rhs.cpu_s;
        self.read_bytes += rhs.read_bytes;
    }
}

/// A point from which to measure what the process uses.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    process_s: f64,
    ticks: (u64, u64),
    read_bytes: Option<u64>,
}

impl Mark {
    /// The process's CPU clock and read count, and the machine's CPU
    /// counters, now.
    pub fn now() -> Mark {
        // Read count last, so that this call's own reads of /proc fall
        // before the window.
        Mark {
            ticks: steal_ticks(),
            process_s: process_cpu_s(),
            read_bytes: read_bytes_so_far(),
        }
    }

    /// What the process used since the mark. The bytes read are
    /// counted first, before this call reads `/proc` itself.
    ///
    /// The CPU seconds are the process's CPU clock, less the share the
    /// hypervisor took for other guests meanwhile. On a guest whose
    /// kernel does not leave steal out of a process's CPU clock, the
    /// clock keeps running while another guest runs on the CPU, and a
    /// busy host reads as a slower program. The steal share of the
    /// interval (steal ticks over all ticks, of every CPU, idle ones
    /// too) is taken as the share of the process's clock that was
    /// stolen: on the 2-vCPU guest the benchmark was tuned on, that
    /// brought runs with 20–34 % steal to within 7 % of runs with none,
    /// where the raw clock read 20–40 % higher.
    pub fn since(&self) -> Usage {
        let read_bytes = match (self.read_bytes, read_bytes_so_far()) {
            (Some(a), Some(b)) => (b - a) as f64,
            _ => f64::NAN,
        };
        let (steal0, total0) = self.ticks;
        let (steal1, total1) = steal_ticks();
        let share = match total1.saturating_sub(total0) {
            0 => 0.0,
            total => steal1.saturating_sub(steal0) as f64 / total as f64,
        };
        Usage {
            cpu_s: (process_cpu_s() - self.process_s) * (1.0 - share),
            read_bytes,
        }
    }
}

/// CPU time this process has used so far, all threads together
/// (`CLOCK_PROCESS_CPUTIME_ID`), in seconds. NaN where the clock is
/// missing.
fn process_cpu_s() -> f64 {
    /// `struct timespec` of 64-bit Linux.
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    /// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
    const PROCESS_CPUTIME: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: clock_gettime writes one timespec through the pointer,
    // which points at a live, properly laid-out local.
    match unsafe { clock_gettime(PROCESS_CPUTIME, &mut ts) } {
        0 => ts.sec as f64 + ts.nsec as f64 * 1e-9,
        _ => f64::NAN,
    }
}

/// SplitMix64: a tiny, well-mixed generator. Every input the benchmark
/// builds (object payloads, get order, the file to encode) comes from
/// one of these seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of workload seed `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fills `buf` with random bytes.
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let last = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&last[..rest.len()]);
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        // Order of the input does not matter.
        let shuffled = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&shuffled), Some(3.0));
        assert_eq!(percentile(&shuffled, 80.0), Some(4.0));
        assert_eq!(percentile(&shuffled, 81.0), Some(5.0));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_s();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i.wrapping_mul(i)));
        }
        assert!(process_cpu_s() > t0, "{x}");
        let mark = Mark::now();
        std::hint::black_box((0..10_000_000u64).map(|i| i ^ (i >> 3)).sum::<u64>());
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml");
        let len = std::fs::read(file).unwrap().len();
        let used = mark.since();
        assert!(used.cpu_s > 0.0);
        // The read of the manifest, and the reads of /proc in between.
        assert!(used.read_bytes >= len as f64, "{used:?}");
    }

    #[test]
    fn rng_is_seeded() {
        let a = Rng::new(7, 1).bytes(33);
        assert_eq!(a, Rng::new(7, 1).bytes(33));
        assert_ne!(a, Rng::new(8, 1).bytes(33));
        assert_ne!(a, Rng::new(7, 2).bytes(33));
    }
}
