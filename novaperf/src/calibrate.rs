//! Host-speed calibration. On a shared host the cores this benchmark gets
//! change speed by half again for seconds at a time (another tenant on the
//! sibling hardware thread), and CPU time moves with wall time, so a raw
//! timing says as much about the neighbours as about the program. A timed
//! stretch of work is therefore surrounded by samples of a fixed kernel that
//! uses none of the repository's code, and each CPU-bound timing is reported
//! at a nominal host speed: `wall * NOMINAL_MS / kernel_ms`, where
//! `kernel_ms` is the median of the samples taken within [`WINDOW_S`] of the
//! work. A program change moves the wall and not the kernel; a host slowdown
//! moves both. Raw timings stay in the report line.

use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Kernel rounds of one try: about a quarter of a millisecond on a 2.4 GHz
/// Xeon core. A sample is the fastest of `TRIES` tries, so a try that the
/// scheduler interrupted does not count as a slow host.
const ROUNDS: u32 = 400;
const TRIES: usize = 3;
/// Kernel time that scaled timings are expressed at.
pub const NOMINAL_MS: f64 = 0.25;
/// How far from a stretch of work its kernel samples may lie. The speed
/// phases last seconds; one second keeps several samples in reach while
/// staying inside the phase.
const WINDOW_S: f64 = 1.0;

/// A fixed bit-matrix loop shaped like the cube kernels (AND/NOT, popcount,
/// data-dependent branches and indexing over a 4 KiB table).
fn kernel(rounds: u32) -> u64 {
    let mut table = [0u64; 512];
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for v in table.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *v = x;
    }
    let mut acc = 0u64;
    for r in 0..rounds {
        for i in 0..table.len() {
            let j = (table[i] as usize ^ r as usize) & 511;
            let c = table[i] & !table[j];
            acc = acc.wrapping_add(u64::from(c.count_ones()));
            if c & 1 == 1 {
                table[i] = table[i].rotate_left(7) ^ table[j];
            } else {
                table[j] = table[j].wrapping_add(c);
            }
        }
    }
    acc
}

/// Times the kernel on the calling thread: the fastest try, in ms.
fn sample() -> f64 {
    (0..TRIES)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel(black_box(ROUNDS)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Kernel samples with the time each was taken.
pub struct SpeedLog {
    t0: Instant,
    samples: Mutex<Vec<(f64, f64)>>,
}

impl SpeedLog {
    pub fn new() -> SpeedLog {
        SpeedLog {
            t0: Instant::now(),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the log began.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Samples the kernel on the calling thread.
    pub fn sample(&self) {
        let at = self.at(Instant::now());
        let k = sample();
        self.samples.lock().expect("sample lock").push((at, k));
    }

    /// The kernel's ms next to work that ran from `from` to `to` (log
    /// seconds): the median of the samples within the window, or the
    /// nearest sample when none is.
    pub fn kernel_ms(&self, from: f64, to: f64) -> f64 {
        let samples = self.samples.lock().expect("sample lock");
        let mut near: Vec<f64> = samples
            .iter()
            .filter(|(t, _)| *t >= from - WINDOW_S && *t <= to + WINDOW_S)
            .map(|s| s.1)
            .collect();
        if near.is_empty() {
            let dist = |t: f64| (t - from).abs().min((t - to).abs());
            let nearest = samples
                .iter()
                .min_by(|a, b| dist(a.0).total_cmp(&dist(b.0)))
                .expect("a kernel sample");
            near.push(nearest.1);
        }
        crate::metrics::median(&near)
    }
}

/// `wall` (any unit) at the nominal host speed, given the kernel's ms next
/// to it.
pub fn scale(wall: f64, kernel_ms: f64) -> f64 {
    wall * NOMINAL_MS / kernel_ms
}
