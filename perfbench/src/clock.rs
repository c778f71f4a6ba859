//! Host speed. On a shared host the same instructions take 20-50% more or
//! less time from one minute to the next. The process is not descheduled
//! (its CPU time tracks its wall time); the cores and the memory it runs
//! on just get slower. So a run interleaves a fixed reference workload
//! between its timed sections and rescales its host times by the speed
//! the reference showed over the run.
//!
//! The reference is the benchmark's own code, independent of the
//! simulator's, so a change to the simulator moves the timed sections and
//! not the reference, and shows in full. It allocates nothing, so the
//! state of the benchmark's heap cannot move it. It has two parts, timed
//! apart, because the host's compute and memory speeds drift apart: a
//! compute part (generate, sort and hash keys in the cache) and a memory
//! part (a pointer chase through a table far larger than the cache). The
//! speed factor is the geometric mean of the two parts' speeds. Fitted
//! over 25 runs of 30 s of each workload on a 2-core x86-64 host, fleet
//! run times followed the two parts with exponents 0.47 and 0.54; corpus
//! cells and service steps lean to the compute part, but equal weights
//! kept their run-to-run spread at or near its lowest too.

use crate::report::Metric;
use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Keys the compute part sorts per round, and its rounds per pass.
const COMPUTE_KEYS: usize = 8_192;
const COMPUTE_ROUNDS: usize = 22;
/// Entries of the pointer-chase table (4 bytes each: 32 MiB).
const CHASE_ENTRIES: usize = 1 << 23;
/// Table entries one pass visits.
const CHASE_STEPS: usize = 25_000;
/// Host seconds each part of a pass is defined to take: about its median
/// on a quiet 2-core x86-64 host. Scaled times read as seconds on a host
/// of that speed.
const NOMINAL_COMPUTE_S: f64 = 0.005;
const NOMINAL_MEMORY_S: f64 = 0.005;
/// Share of a run's wall time spent on reference passes.
const REFERENCE_SHARE: f64 = 0.05;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The compute part: fills `keys` from a generator, sorts them and hashes
/// them, all in place within the cache. It allocates nothing, so the
/// state of the process's heap cannot change its speed.
fn compute_part(keys: &mut [u64], seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut acc = 0xcbf2_9ce4_8422_2325_u64;
    for _ in 0..COMPUTE_ROUNDS {
        for k in keys.iter_mut() {
            *k = xorshift(&mut x);
        }
        keys.sort_unstable();
        for k in keys.iter() {
            acc = (acc ^ k).wrapping_mul(0x0100_0000_01b3);
        }
    }
    acc
}

/// A table whose entries form one random cycle (Sattolo's shuffle), so
/// following it visits every entry in an order the prefetcher cannot
/// guess.
fn chase_table() -> Vec<u32> {
    let mut next: Vec<u32> = (0..CHASE_ENTRIES as u32).collect();
    let mut x = 0x2545_F491_4F6C_DD1D_u64;
    for i in (1..CHASE_ENTRIES).rev() {
        let j = (xorshift(&mut x) % i as u64) as usize;
        next.swap(i, j);
    }
    next
}

/// Reference passes spread evenly over a run's wall time.
#[derive(Debug)]
pub struct Speed {
    keys: Vec<u64>,
    chase: Vec<u32>,
    /// Where the next pass continues the chase, so successive passes
    /// visit different entries.
    cursor: u32,
    /// Host seconds of each pass's compute and memory parts.
    compute: Vec<f64>,
    memory: Vec<f64>,
    /// Reference seconds still owed to the wall time seen so far.
    owed_s: f64,
    last: Instant,
}

impl Default for Speed {
    fn default() -> Self {
        Self::new()
    }
}

impl Speed {
    pub fn new() -> Self {
        Self {
            keys: vec![0; COMPUTE_KEYS],
            chase: chase_table(),
            cursor: 0,
            compute: Vec::new(),
            memory: Vec::new(),
            owed_s: 0.0,
            last: Instant::now(),
        }
    }

    /// One reference pass; returns its host seconds.
    fn pass(&mut self) -> f64 {
        let started = Instant::now();
        black_box(compute_part(&mut self.keys, 0x9E37_79B9_7F4A_7C15));
        let split = Instant::now();
        let mut at = self.cursor;
        for _ in 0..CHASE_STEPS {
            at = self.chase[at as usize];
        }
        self.cursor = black_box(at);
        let ended = Instant::now();
        self.compute
            .push(split.duration_since(started).as_secs_f64());
        self.memory.push(ended.duration_since(split).as_secs_f64());
        ended.duration_since(started).as_secs_f64()
    }

    /// Called between timed sections: takes reference passes until they
    /// have filled [`REFERENCE_SHARE`] of the run's wall time so far, so
    /// every stretch of the run is sampled alike.
    pub fn tick(&mut self) {
        self.owed_s += self.last.elapsed().as_secs_f64() * REFERENCE_SHARE;
        while self.owed_s > 0.0 {
            self.owed_s -= self.pass();
        }
        self.last = Instant::now();
    }

    /// Median host seconds of each part over the run (of a fresh pass
    /// when the run took none).
    fn parts_s(&mut self) -> (f64, f64) {
        if self.compute.is_empty() {
            self.pass();
        }
        let m = |v: &[f64]| median(v).expect("at least one pass");
        (m(&self.compute), m(&self.memory))
    }

    /// How much faster than the nominal host this run's host was. Host
    /// seconds times the factor read as seconds on the nominal host.
    pub fn factor(&mut self) -> f64 {
        let (compute, memory) = self.parts_s();
        (NOMINAL_COMPUTE_S / compute * NOMINAL_MEMORY_S / memory).sqrt()
    }

    /// Peak resident memory of the process in MB, without the chase
    /// table (resident from [`Speed::new`] to the end of the run, so it
    /// adds exactly its size to the high-water mark).
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let table_mb = (self.chase.len() * std::mem::size_of::<u32>()) as f64 / 1e6;
        Ok(crate::context::peak_rss_mb()? - table_mb)
    }

    /// Report lines: the speed factor and what it rests on.
    pub fn metrics(&mut self) -> Vec<Metric> {
        let (compute, memory) = self.parts_s();
        vec![
            Metric::new("host.speed_factor", self.factor(), "ratio"),
            Metric::new("host.reference.compute_ms", compute * 1e3, "ms"),
            Metric::new("host.reference.memory_ms", memory * 1e3, "ms"),
            Metric::new("host.reference.passes", self.compute.len() as f64, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_table_is_one_cycle() {
        let t = chase_table();
        let mut at = 0_u32;
        for step in 1..=t.len() {
            at = t[at as usize];
            assert_eq!(at == 0, step == t.len(), "cycle closed at step {step}");
        }
    }
}
