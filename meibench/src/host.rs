//! Provenance and host calibration: which code ran, on how fast a host.
//!
//! The probes call fixed shapes of `mei-math` kernels and a plain memory
//! copy. Their values are recorded beside the end-to-end metrics so a
//! drift can be blamed on the code or on the host; no metric is divided
//! by them.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// FNV-1a 64 of `bytes` — the hash `mei_bench::binary_fingerprint` uses.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `{"source_hash": ..., "content_hash": ...}`: the hash of the sources the
/// binary was built from, and of the executable itself.
pub fn fingerprint() -> String {
    let content = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .map(|bytes| format!("fnv1a64:{:016x}", fnv1a64(&bytes)))
        .unwrap_or_else(|| "unavailable".to_owned());
    format!(
        "{{\"source_hash\":\"{}\",\"content_hash\":\"{content}\"}}",
        env!("MEIBENCH_SOURCE_HASH")
    )
}

pub struct HostProbe {
    pub nproc: usize,
    pub gemm_nt_gflops: f64,
    pub dot_i8_gops: f64,
    pub memcpy_gbps: f64,
}

/// Median rate over `reps` timed repetitions of `work`, which returns the
/// amount of work it did.
fn rate(reps: usize, mut work: impl FnMut() -> f64) -> f64 {
    work(); // warm caches and lazy CPU-feature dispatch
    let rates: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let amount = work();
            amount / t.elapsed().as_secs_f64()
        })
        .collect();
    median(&rates)
}

pub fn probe() -> HostProbe {
    const K: usize = 400;
    const M: usize = 32;
    const N: usize = 2048;
    let a: Vec<f32> = (0..M * K).map(|i| ((i % 17) as f32 - 8.0) * 0.01).collect();
    let b: Vec<f32> = (0..N * K).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect();
    let mut out = vec![0.0f32; M * N];
    let gemm_nt_gflops = rate(7, || {
        for _ in 0..20 {
            mei_math::kernels::gemm_nt(black_box(&a), black_box(&b), K, &mut out);
            black_box(&out);
        }
        20.0 * 2.0 * (M * N * K) as f64 / 1e9
    });

    let x: Vec<i8> = (0..K).map(|i| (i % 255) as i8).collect();
    let y: Vec<i8> = (0..K).map(|i| (i * 7 % 255) as i8).collect();
    let dot_i8_gops = rate(7, || {
        let mut acc = 0i32;
        for _ in 0..100_000 {
            acc = acc.wrapping_add(mei_math::quantops::dot_i8(black_box(&x), black_box(&y)));
        }
        black_box(acc);
        100_000.0 * 2.0 * K as f64 / 1e9
    });

    const BYTES: usize = 64 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let memcpy_gbps = rate(5, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
        BYTES as f64 / 1e9
    });

    HostProbe {
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        gemm_nt_gflops,
        dot_i8_gops,
        memcpy_gbps,
    }
}

/// Lowers `VmHWM` to the current resident set (Linux `clear_refs` mode 5),
/// so that [`peak_rss_mb`] covers only what runs after the call.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// `VmHWM` of this process in MB (peak resident set, file-backed mapped
/// pages included).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
