//! The host-speed reference: a fixed kernel timed next to every run.
//!
//! A shared host's speed drifts by tens of percent over a minute or more.
//! A run's wall time divided by the time of a fixed kernel, taken just
//! before and just after the run, cancels that drift and keeps what the
//! program itself costs. The drift does not slow all code alike: code
//! that chases pointers through maps and code that mixes words in
//! registers drift apart, so each workload is measured against the kernel
//! of its own dominant kind of work. The kernels use no repository code,
//! so a change to the program moves the ratio and never the reference.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

use crate::worlds::Workload;
use crate::{host_now, secs};

/// Kernel repetitions on each side of a run; the fastest one counts.
const REPS: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Formatted names, an ordered and a hashed map of them, clones and a
    /// sort: the event, table and job-store work of the simulator.
    Maps,
    /// SHA-256 over a 1 MiB segment, four times: the signing and
    /// verification that dominate bulk Data.
    Hashing,
}

impl Kernel {
    /// The kernel a workload is measured against: `lake-fetch` spends
    /// most of its time hashing 1 MiB segments, the other two in maps.
    pub fn of(workload: Workload) -> Kernel {
        match workload {
            Workload::LakeFetch => Kernel::Hashing,
            Workload::Fig5Genomics | Workload::ChaosStorm => Kernel::Maps,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kernel::Maps => "maps",
            Kernel::Hashing => "hashing",
        }
    }

    /// One pass of fixed work; each takes about 30 ms on a 2-CPU shared
    /// 2 GHz x86-64 host.
    fn run(self) -> u64 {
        match self {
            Kernel::Maps => maps(),
            Kernel::Hashing => hashing(),
        }
    }
}

fn maps() -> u64 {
    const KEYS: usize = 20_000;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut ordered = BTreeMap::new();
    let mut keys = Vec::with_capacity(KEYS);
    for i in 0..KEYS as u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let key = format!("/ndn/k8s/job/{:016x}", x >> 7);
        keys.push(key.clone());
        ordered.insert(key, i);
    }
    let hashed: HashMap<String, u64> = ordered.iter().map(|(k, v)| (k.clone(), *v)).collect();
    keys.sort_unstable();
    let mut acc = 0u64;
    for k in &keys {
        acc = acc.wrapping_add(ordered[k] ^ hashed[k]);
    }
    black_box(acc)
}

/// SHA-256 round constants (FIPS 180-4, section 4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The SHA-256 compression function over one 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for (i, word) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

fn hashing() -> u64 {
    const SEGMENT: usize = 1 << 20;
    const PASSES: usize = 4;
    let mut x: u32 = 0x6a09_e667;
    let segment: Vec<u8> = (0..SEGMENT)
        .map(|_| {
            x = x.wrapping_mul(0x9E37_79B1).wrapping_add(0x7F4A_7C15);
            (x >> 24) as u8
        })
        .collect();
    let mut state = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    for _ in 0..PASSES {
        for block in black_box(&segment).chunks_exact(64) {
            compress(&mut state, block);
        }
    }
    black_box(u64::from(state[0]) << 32 | u64::from(state[7]))
}

/// The kernel's time now, in seconds: the fastest of a few repetitions.
pub fn reference_s(kernel: Kernel) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = host_now();
            kernel.run();
            secs(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs `f` between two timings of `kernel`; returns its wall time and
/// the mean of the two kernel times, both in seconds.
pub fn timed_against_reference<T>(kernel: Kernel, f: impl FnOnce() -> T) -> (f64, f64) {
    let before = reference_s(kernel);
    let t = host_now();
    black_box(f());
    let wall = secs(t.elapsed());
    let after = reference_s(kernel);
    (wall, (before + after) / 2.0)
}
