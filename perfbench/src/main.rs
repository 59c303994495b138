//! End-to-end simulator ledger for LIDC.
//!
//! ```text
//! lidc-perfbench --workload <fig5-genomics|chaos-storm|lake-fetch> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` builds the workload's world from the seed over and over
//! for `--seconds`, times the build (`setup_s`) and `Sim::run()` of each,
//! and prints the end-to-end metrics as medians. Run times are reported
//! in units of a fixed reference kernel timed around each run (`ref`, see
//! `calib.rs`), so the host's drifting speed cancels out; the plain
//! seconds go to the meta line.
//! `--trace 1` alternates untraced and step-traced runs of the same world
//! and prints the per-layer profile (see `trace.rs`), leaf timings, and
//! the untraced runs' plain host times (`wall_s`, `events_per_s`,
//! `host_ms_per_op`).
//! Both modes check every run's outputs and fingerprint; the last stdout
//! line is one JSON object `{"correct","attempted","failed","metrics"}`,
//! and the exit code is non-zero when any check failed.

mod alloc;
mod calib;
mod fetch;
mod trace;
mod worlds;

use std::time::{Duration, Instant};

use worlds::{build, check, nearest_rank, outcome, Fnv, Outcome, Workload, World};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Extra builds timed next to each run, so the millisecond-scale
/// `setup_s` median rests on many samples spread over the whole window
/// (this host's speed drifts on a scale of seconds).
const SETUP_BUILDS_PER_RUN: usize = 10;
/// Fewest timed runs per invocation (the median needs a few).
const MIN_RUNS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The host clock. The benchmark times the host that runs the
/// simulation, so it is the one place outside the engine's own benches
/// that reads wall time.
pub fn host_now() -> Instant {
    // lidc-lint: allow(wall-clock) reason="host timing of whole simulation runs; the value never reaches simulated state"
    Instant::now()
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Whether another iteration as long as the one begun at `started` would
/// end past `deadline`: the measuring loops stop rather than overrun.
fn finishes_after(started: Instant, deadline: Instant) -> bool {
    host_now() + started.elapsed() > deadline
}

/// Peak resident set of this process (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What one invocation prints.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    meta: Vec<(&'static str, String)>,
    errors: Vec<String>,
}

impl Report {
    fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            meta: Vec::new(),
            errors: Vec::new(),
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn meta(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }

    fn fail(&mut self, why: String) {
        self.correct = false;
        self.errors.push(why);
    }

    /// Record a check's result.
    fn check(&mut self, r: Result<(), String>) {
        if let Err(e) = r {
            self.fail(e);
        }
    }

    /// Require `out` to match the reference fingerprint.
    fn same_fingerprint(&mut self, what: &str, reference: &Outcome, out: &Outcome) {
        if reference.fingerprint != out.fingerprint {
            let diff: Vec<String> = reference
                .fingerprint
                .lines()
                .zip(out.fingerprint.lines())
                .filter(|(a, b)| a != b)
                .take(5)
                .map(|(a, b)| format!("  {a}  !=  {b}"))
                .collect();
            self.fail(format!(
                "fingerprint differs ({what}):\n{}",
                diff.join("\n")
            ));
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Simulated-latency summary of an outcome: p50, the tail (the highest
/// percentile with at least ten samples beyond it), its percentile and
/// sample count. Only completed ops have a latency; the rest count
/// against `ok_fraction`.
fn latency_summary(out: &Outcome) -> (f64, f64, f64, usize) {
    let mut lat: Vec<f64> = out
        .latencies
        .iter()
        .flatten()
        .map(|d| d.as_secs_f64())
        .collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    let p50 = nearest_rank(&lat, 50.0).unwrap_or(f64::NAN);
    let (tail, pct) = if n > 10 {
        (lat[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (lat.last().copied().unwrap_or(f64::NAN), 100.0)
    };
    (p50, tail, pct, n)
}

fn fingerprint_digest(out: &Outcome) -> String {
    let mut h = Fnv::new();
    h.write(&out.fingerprint);
    format!("{:016x}", h.finish())
}

fn timed(args: &Args, r: &mut Report) {
    let w = args.workload;
    let threads = w.threads();
    let kernel = calib::Kernel::of(w);
    let deadline = host_now() + Duration::from_secs_f64(args.seconds);
    let mut setup = Vec::new();
    let mut walls = Vec::new();
    let mut refs = Vec::new();
    // One untimed run first: a process's first run pays for page faults
    // and allocator growth that the later runs reuse.
    let reference = {
        let mut world = build(w, args.seed, threads);
        world.sim.run();
        outcome(&world)
    };
    let last: World = loop {
        let started = host_now();
        for _ in 0..SETUP_BUILDS_PER_RUN {
            let t = host_now();
            let world = build(w, args.seed, threads);
            setup.push(secs(t.elapsed()));
            drop(world);
        }
        let t = host_now();
        let mut world = build(w, args.seed, threads);
        setup.push(secs(t.elapsed()));
        let (wall, ref_s) = calib::timed_against_reference(kernel, || world.sim.run());
        walls.push(wall);
        refs.push(ref_s);
        let out = outcome(&world);
        r.attempted += out.attempted;
        r.failed += out.attempted - out.ok;
        r.same_fingerprint("repeated run of one seed", &reference, &out);
        if walls.len() >= MIN_RUNS && finishes_after(started, deadline) {
            break world;
        }
    };
    let out = reference;
    let rss = peak_rss_mib();
    r.check(check(&last));
    let ratios: Vec<f64> = walls.iter().zip(&refs).map(|(w, f)| w / f).collect();
    let wall = median(&ratios);
    let (p50, tail, pct, n) = latency_summary(&out);
    r.metric("wall_ref", wall, "ref");
    r.metric("events_per_ref", out.events as f64 / wall, "events/ref");
    r.metric("host_ref_per_op", wall / out.ok.max(1) as f64, "ref/op");
    r.metric("setup_s", median(&setup), "s");
    match rss {
        Ok(mib) => r.metric("peak_rss_mb", mib, "MiB"),
        Err(e) => r.fail(e),
    }
    r.metric("ok_fraction", out.ok as f64 / out.attempted as f64, "ratio");
    r.metric("sim_turnaround_p50_s", p50, "sim_s");
    r.metric("sim_turnaround_tail_s", tail, "sim_s");
    if out.ok == 0 {
        r.fail("no op completed".to_owned());
    }
    r.meta("runs", walls.len());
    let text = |xs: &[f64]| -> String {
        let parts: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
        parts.join(" ")
    };
    r.meta("walls_s", text(&walls));
    r.meta("refs_s", text(&refs));
    r.meta("wall_s", median(&walls));
    r.meta("ref_kernel", kernel.name());
    r.meta("ref_kernel_s", median(&refs));
    r.meta("setup_builds", setup.len());
    r.meta("ops_per_run", out.attempted);
    r.meta("ok_per_run", out.ok);
    r.meta("events_per_run", out.events);
    r.meta("tail_percentile", format!("{pct:.3}"));
    r.meta("tail_samples", n);
    r.meta("fingerprint", fingerprint_digest(&out));
    if w == Workload::LakeFetch {
        r.meta("repeat_share", format!("{:.4}", last.repeat_share));
    }
}

fn counter(world: &World, key: &str) -> f64 {
    world.sim.metrics_ref().counter(key) as f64
}

fn median_secs(xs: &[lidc_simcore::time::SimDuration]) -> f64 {
    let mut v: Vec<f64> = xs.iter().map(|d| d.as_secs_f64()).collect();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 50.0).unwrap_or(0.0)
}

fn traced(args: &Args, r: &mut Report) {
    let w = args.workload;
    let threads = w.threads();
    let deadline = host_now() + Duration::from_secs_f64(args.seconds);
    let mut untraced_walls = Vec::new();
    let mut traces = Vec::new();
    let mut reference: Option<Outcome> = None;
    let last: World = loop {
        let started = host_now();
        let mut world = build(w, args.seed, threads);
        let t = host_now();
        world.sim.run();
        untraced_walls.push(secs(t.elapsed()));
        let untraced_out = outcome(&world);
        drop(world);
        let mut world = build(w, args.seed, threads);
        match trace::run_traced(&mut world) {
            Ok(t) => traces.push(t),
            Err(e) => {
                r.fail(e);
                return;
            }
        }
        let out = outcome(&world);
        r.attempted += out.attempted;
        r.failed += out.attempted - out.ok;
        r.same_fingerprint("untraced vs traced run", &untraced_out, &out);
        match &reference {
            None => reference = Some(out),
            Some(first) => r.same_fingerprint("repeated run of one seed", first, &out),
        }
        // Leave room for the serial comparison run below.
        let serial = if threads > 1 { untraced_walls[0] } else { 0.0 };
        if finishes_after(started, deadline - Duration::from_secs_f64(serial)) {
            break world;
        }
    };
    let out = reference.expect("at least one traced run");
    if threads > 1 {
        let mut serial = build(w, args.seed, 1);
        serial.sim.run();
        r.same_fingerprint(
            &format!("1 vs {threads} engine threads"),
            &out,
            &outcome(&serial),
        );
    }
    r.check(check(&last));
    let leaf = trace::leaf_timings(&last);
    let reps = traces.len() as f64;
    let mean = |f: &dyn Fn(&trace::Trace) -> f64| traces.iter().map(f).sum::<f64>() / reps;
    let traced_wall = median(&traces.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let t = &traces[traces.len() - 1];
    let m = &last;

    r.metric("engine.steps", t.steps as f64, "count");
    r.metric("engine.events", t.events as f64, "count");
    r.metric(
        "engine.mean_batch",
        m.sim.drain_stats_total().mean_batch(),
        "msgs/batch",
    );
    r.metric("engine.waves", counter(m, "sim.parallel.waves"), "count");
    r.metric("engine.queue_peak", t.queue_peak as f64, "count");
    r.metric(
        "engine.allocs_per_event",
        t.allocs as f64 / t.events as f64,
        "allocs/event",
    );
    r.metric("unattributed.busy_s", mean(&|t| t.unattributed_s), "s");
    let layer = |r: &mut Report, busy: &'static str, batches: &'static str, name: &str| {
        let i = trace::LAYERS
            .iter()
            .position(|l| *l == name)
            .expect("known layer");
        let b = t.batches[i] as f64;
        let s = mean(&|t| t.busy_s[i]);
        r.metric(busy, s, "s");
        if !batches.is_empty() {
            r.metric(batches, b, "count");
        }
        s / b.max(1.0) * 1e6
    };
    let fwd_us = layer(
        r,
        "ndn.forwarder.busy_s",
        "ndn.forwarder.batches",
        "ndn.forwarder",
    );
    r.metric("ndn.forwarder.us_per_batch", fwd_us, "us");
    for key in ["ndn.rx_interests", "ndn.rx_data", "ndn.pit_aggregated"] {
        r.metric(key, counter(m, key), "count");
    }
    let (hits, misses) = (counter(m, "ndn.cs_hits"), counter(m, "ndn.cs_misses"));
    r.metric("ndn.cs_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    r.metric(
        "ndn.cs_evict.bytes",
        counter(m, "ndn.cs_evict.bytes"),
        "bytes",
    );
    for key in [
        "ndn.cs_admission_rejected",
        "ndn.verify_failed",
        "ndn.face_down_rerouted",
    ] {
        r.metric(key, counter(m, key), "count");
    }
    r.metric(
        "ndn.crypto.sha256_mib_per_s",
        leaf.sha256_mib_per_s,
        "MiB/s",
    );
    r.metric("ndn.packet.verify_1mib_us", leaf.verify_1mib_us, "us");
    r.metric("ndn.packet.verify_small_us", leaf.verify_small_us, "us");
    // SHA-256 work the run did, per layer that does it, estimated from
    // packet counts and the leaf times: every Data a forwarder receives is
    // verified once, and every Data a producer serves is signed once. Only
    // `lake-fetch` moves 1 MiB segments; the other two carry status-sized
    // Data.
    let per_hash_s = if w == Workload::LakeFetch {
        leaf.verify_1mib_us / 1e6
    } else {
        leaf.verify_small_us / 1e6
    };
    let crypto_in = [
        ("ndn.forwarder", counter(m, "ndn.rx_data")),
        (
            "datalake.fileserver",
            counter(m, "datalake.segments_served") + counter(m, "datalake.objects_served"),
        ),
        (
            "core.gateway",
            counter(m, "gateway.status_queries") + counter(m, "gateway.jobs_created"),
        ),
    ]
    .map(|(layer, hashes)| (layer, hashes * per_hash_s));
    let crypto_s: f64 = crypto_in.iter().map(|(_, s)| s).sum();
    r.metric("ndn.crypto.est_busy_s", crypto_s, "s");

    let gw_us = layer(
        r,
        "core.gateway.busy_s",
        "core.gateway.batches",
        "core.gateway",
    );
    r.metric("core.gateway.us_per_batch", gw_us, "us");
    for key in [
        "gateway.status_queries",
        "gateway.jobs_created",
        "gateway.cache_hits",
    ] {
        r.metric(key, counter(m, key), "count");
    }
    r.metric("stage.ack_s", median_secs(&out.acks), "sim_s");
    layer(
        r,
        "core.client.busy_s",
        "core.client.batches",
        "core.client",
    );
    r.metric(
        "polls_per_job",
        out.polls as f64 / out.attempted as f64,
        "polls/job",
    );
    r.metric(
        "client.resubmissions",
        counter(m, "client.resubmissions"),
        "count",
    );
    r.metric(
        "client.verify_failed",
        counter(m, "client.verify_failed"),
        "count",
    );
    let k8s_us = layer(
        r,
        "k8s.control.busy_s",
        "k8s.control.batches",
        "k8s.control",
    );
    r.metric("k8s.control.us_per_batch", k8s_us, "us");
    let retained: usize = m
        .overlay
        .clusters
        .iter()
        .map(|c| c.k8s.api.read().jobs.len())
        .sum();
    r.metric("k8s.jobs_retained", retained as f64, "count");
    r.metric("k8s.reconcile_jobs_us", leaf.reconcile_jobs_us, "us");
    r.metric("stage.queue_s", median_secs(&out.queues), "sim_s");
    layer(
        r,
        "datalake.fileserver.busy_s",
        "datalake.fileserver.batches",
        "datalake.fileserver",
    );
    r.metric(
        "datalake.segments_served",
        counter(m, "datalake.segments_served"),
        "count",
    );
    r.metric("datalake.segment_data_us", leaf.segment_data_us, "us");
    r.metric("fault.injected", counter(m, "fault.injected"), "count");
    r.metric("fault.healed", counter(m, "fault.healed"), "count");
    layer(r, "simcore.faults.busy_s", "", "simcore.faults");
    layer(r, "perfbench.consumer.busy_s", "", "perfbench.consumer");

    let wall = median(&untraced_walls);
    r.metric("wall_s", wall, "s");
    r.metric("events_per_s", out.events as f64 / wall, "events/s");
    r.metric("host_ms_per_op", wall * 1e3 / out.ok.max(1) as f64, "ms");
    let kernel = calib::Kernel::of(w);
    r.metric("ref_kernel_ms", calib::reference_s(kernel) * 1e3, "ms");
    r.meta("ref_kernel", kernel.name());
    let overhead = traced_wall - wall;
    r.metric("trace.wall_s", traced_wall, "s");
    r.metric("trace.overhead_s", overhead, "s");
    let attributed = mean(&|t| t.attributed_share());
    r.metric("trace.attributed_share", attributed, "ratio");
    if attributed < 0.9 {
        r.fail(format!(
            "the trace attributes only {:.1}% of its wall time",
            attributed * 100.0
        ));
    }

    // The profile: which layer took the most host time. The crypto
    // estimate is a layer of its own, so it is taken out of the self time
    // of the layers that hash.
    let mut shares: Vec<(String, f64)> = trace::LAYERS
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let inner: f64 = crypto_in
                .iter()
                .filter(|(c, _)| c == l)
                .map(|(_, s)| s)
                .sum();
            ((*l).to_owned(), (mean(&|t| t.busy_s[i]) - inner).max(0.0))
        })
        .collect();
    shares.push(("unattributed".to_owned(), mean(&|t| t.unattributed_s)));
    shares.push(("ndn.crypto (est.)".to_owned(), crypto_s));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    println!(
        "profile ({}, self time, traced wall {traced_wall:.3} s):",
        w.name()
    );
    for (name, s) in &shares {
        println!("  {name:<22} {s:>9.4} s  {:>5.1}%", 100.0 * s / traced_wall);
    }
    let dominant = shares[0].0.trim_end_matches(" (est.)").to_owned();
    let confirmed = match w.predicted_dominant() {
        Some(p) => dominant == p,
        None => dominant != "ndn.crypto" && dominant != "k8s.control",
    };
    let predicted = w
        .predicted_dominant()
        .unwrap_or("neither ndn.crypto nor k8s.control");
    println!(
        "prediction: dominant layer {predicted}; measured {dominant}: {}",
        if confirmed { "confirmed" } else { "WRONG" }
    );
    r.metric(
        "trace.prediction_confirmed",
        f64::from(u8::from(confirmed)),
        "bool",
    );
    r.meta("dominant_layer", dominant);
    r.meta("traced_runs", traces.len());
    r.meta("fingerprint", fingerprint_digest(&out));
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lidc-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut r = Report::new();
    r.meta("workload", args.workload.name());
    r.meta("seed", args.seed);
    r.meta("engine_threads", args.workload.threads());
    r.meta(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    if args.trace {
        traced(&args, &mut r);
    } else {
        timed(&args, &mut r);
    }
    for e in &r.errors {
        eprintln!("CHECK FAILED: {e}");
    }
    let meta: Vec<String> = r
        .meta
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("meta {{{}}}", meta.join(", "));
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(k),
                json_num(*v),
                json_str(u)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
    if !r.correct {
        std::process::exit(1);
    }
}
