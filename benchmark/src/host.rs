//! What the operating system says about this process: CPU time, context
//! switches, peak resident set. Linux only, like the `/proc` reads.

/// `struct rusage` as Linux lays it out on 64-bit targets.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    // ixrss, idrss, isrss, minflt, majflt, nswap, inblock, oublock,
    // msgsnd, msgrcv, nsignals.
    unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// Process-wide resource counters, exited threads included.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time, nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Usage {
    /// Read the counters now.
    pub fn now() -> Usage {
        let mut ru = RUsage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` (18 longs, the
        // layout above) and RUSAGE_SELF (0) is a valid `who`; the call
        // writes the struct and keeps no pointer.
        let rc = unsafe { getrusage(0, &mut ru) };
        assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
        let ns = |tv: [i64; 2]| tv[0] as u64 * 1_000_000_000 + tv[1] as u64 * 1_000;
        Usage {
            cpu_ns: ns(ru.utime) + ns(ru.stime),
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_ns: self.cpu_ns - earlier.cpu_ns,
            ctx_switches: self.ctx_switches - earlier.ctx_switches,
        }
    }
}

/// Freeze glibc's mmap threshold at its default of 128 KiB.
///
/// Left alone, glibc raises the threshold the first time a large block is
/// freed, and whether the profiler's later sample buffers are then carved
/// from the heap (and retained) or mapped (and returned) depends on the
/// order of frees: `peak_rss_mb` on `lr` read 78 MiB in some runs and
/// 112 MiB in others. Pinned, it reads 63 MiB every time. Only blocks of
/// 128 KiB and more are affected; the engine's hot path allocates none.
pub fn pin_mmap_threshold() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` stores one tuning value in the allocator's own
        // state under the allocator's lock; M_MMAP_THRESHOLD with a value
        // below HEAP_MAX_SIZE / 2 is a documented, valid request.
        let accepted = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
        assert_eq!(accepted, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
