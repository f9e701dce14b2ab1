//! A fixed calibration kernel that measures the speed of the machine.
//!
//! The benchmark runs on shared machines whose speed changes by up to 2×
//! over minutes, as other tenants come and go. The kernel below runs
//! between workload repetitions, and the end-to-end times are scaled by
//! [`REFERENCE_MS`] over its median duration, so that they read as times on
//! a machine of fixed speed. The kernel uses only the standard library,
//! never the crates under test, so a change to the program moves the scaled
//! times exactly as it moves the measured ones.
//!
//! The mix follows the simulator's own: a binary heap of timed events, a
//! hash map keyed by id, a sort of records, a chain of dependent reads over
//! a table much larger than the private caches, and number formatting as in
//! the report serialisation. Every call does the same work and returns the
//! same checksum.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::fmt::Write;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Median kernel duration, in milliseconds, on the reference machine (an
/// Intel Xeon virtual machine with two cores at 2.0 GHz, 107 MB of last-level
/// cache, shared with other tenants).
pub const REFERENCE_MS: f64 = 36.0;

/// Size of the random-read table, in 8-byte words (64 MiB).
const TABLE_WORDS: usize = 8 << 20;

/// xorshift64: a fixed, cheap stream of pseudo-random words.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// The table the kernel reads from; built once per process, before timing.
pub fn table() -> Vec<u64> {
    (0..TABLE_WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9))
        .collect()
}

/// One call of the kernel; returns its checksum.
pub fn kernel(table: &[u64]) -> u64 {
    let mut r = Rng(0x9e37_79b9_7f4a_7c15);
    let mut sum = 0u64;

    let mut heap = BinaryHeap::new();
    for i in 0..100_000u32 {
        heap.push((r.next() % 1_000_000, i));
        if i % 3 == 0 {
            sum ^= heap.pop().expect("pushed").0;
        }
    }

    let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..60_000u64 {
        map.insert(r.next() % 200_000, i);
    }
    for _ in 0..60_000 {
        if let Some(v) = map.get(&(r.next() % 200_000)) {
            sum = sum.wrapping_add(*v);
        }
    }

    let mut records: Vec<(u64, u32, f64)> = (0..100_000u32)
        .map(|i| (r.next() % 5000, i, f64::from(i) * 0.5))
        .collect();
    records.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    sum ^= records[500].0 ^ u64::from(records[99_000].1);

    // Each read's address depends on the one before, as when the
    // simulator follows ids from one map into another.
    let mask = table.len() - 1;
    let mut at = (r.next() as usize) & mask;
    for _ in 0..200_000 {
        let v = table[at];
        sum = sum.wrapping_add(v);
        at = ((v ^ (at as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) >> 3) as usize & mask;
    }

    let mut text = String::new();
    for i in 0..40_000u32 {
        let _ = write!(text, "{{\"id\":{i},\"t\":{:?}}},", f64::from(i) / 7.0);
    }
    sum ^ text.len() as u64
}

/// Runs the kernel until `seconds` have passed, and at least three times.
/// Returns each call's duration in milliseconds, or an error if two calls
/// disagree on the checksum.
pub fn run(seconds: f64) -> Result<Vec<f64>, String> {
    let table = table();
    let start = Instant::now();
    let (mut samples, mut expected) = (Vec::new(), None);
    while samples.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let sum = std::hint::black_box(kernel(std::hint::black_box(&table)));
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if *expected.get_or_insert(sum) != sum {
            return Err(format!("calibration checksum changed: {sum:#x}"));
        }
    }
    Ok(samples)
}
