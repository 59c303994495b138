//! The traced run and the leaf timings.
//!
//! The traced run drives a world with `Sim::step()` under the same
//! stopping rule as `Sim::run()` (step while foreground work is queued),
//! times every step from outside the program, and charges it to the
//! layer of each known actor whose `drain_stats(id).batches` advanced —
//! split evenly when a parallel wave advanced several. Known actors are
//! the ones whose ids the public handles return; their labels name their
//! layer. A step that advanced none of them (the overlay's load
//! reporters, whose ids are not exposed) is charged to `unattributed`.
//! Nothing is instrumented inside the program.

use lidc_core::client::ScienceClient;
use lidc_core::naming::{data_prefix, JobId};
use lidc_core::status::JobState;
use lidc_datalake::content::Content;
use lidc_datalake::segment::{segment_data, DEFAULT_SEGMENT_SIZE};
use lidc_k8s::cluster::reconcile_jobs;
use lidc_ndn::crypto::sha256;
use lidc_ndn::name::Name;
use lidc_ndn::packet::Data;
use lidc_simcore::engine::ActorId;
use lidc_simcore::time::SimDuration;

use crate::fetch::FetchDriver;
use crate::worlds::{forwarders, World};
use crate::{alloc, host_now, median};

/// The layers a step can be charged to, named after the repo's modules
/// (`perfbench.consumer` is the benchmark's own `lake-fetch` consumer).
pub const LAYERS: [&str; 7] = [
    "ndn.forwarder",
    "core.gateway",
    "core.client",
    "k8s.control",
    "datalake.fileserver",
    "simcore.faults",
    "perfbench.consumer",
];

/// The layer an actor label belongs to.
fn layer_of(label: &str) -> Option<usize> {
    let layer = if label == "wan-router"
        || label.ends_with("-gw-nfd")
        || label.ends_with("-dl-nfd")
        || label.starts_with("lake-edge-")
    {
        "ndn.forwarder"
    } else if label.ends_with("-gateway") {
        "core.gateway"
    } else if label.starts_with("scientist-") || label.starts_with("storm-user-") {
        "core.client"
    } else if label.starts_with("k8s-") {
        "k8s.control"
    } else if label.ends_with("-fileserver") {
        "datalake.fileserver"
    } else if label == "fault-controller" {
        "simcore.faults"
    } else if label.starts_with("lake-consumer-") {
        "perfbench.consumer"
    } else {
        return None;
    };
    LAYERS.iter().position(|l| *l == layer)
}

/// Every actor id the public handles expose, with its layer.
pub fn known_actors(w: &World) -> Result<Vec<(ActorId, usize)>, String> {
    let mut ids: Vec<ActorId> = forwarders(w).into_iter().map(|(_, id)| id).collect();
    for c in &w.overlay.clusters {
        ids.extend([c.gateway_app, c.fileserver, c.k8s.actor]);
    }
    ids.extend(w.clients.iter().chain(&w.fetchers).chain(&w.faults));
    ids.into_iter()
        .map(|id| {
            let label = w.sim.label(id);
            layer_of(label)
                .map(|l| (id, l))
                .ok_or_else(|| format!("actor {id} ({label}) maps to no layer"))
        })
        .collect()
}

/// What the traced run measured.
#[derive(Debug, Default)]
pub struct Trace {
    pub wall_s: f64,
    pub busy_s: [f64; LAYERS.len()],
    pub batches: [u64; LAYERS.len()],
    pub unattributed_s: f64,
    pub steps: u64,
    pub events: u64,
    pub queue_peak: usize,
    pub allocs: u64,
}

impl Trace {
    /// Share of the traced wall time charged to a layer or `unattributed`.
    pub fn attributed_share(&self) -> f64 {
        (self.busy_s.iter().sum::<f64>() + self.unattributed_s) / self.wall_s
    }
}

pub fn run_traced(w: &mut World) -> Result<Trace, String> {
    let actors = known_actors(w)?;
    let sim = &mut w.sim;
    let mut last: Vec<u64> = actors
        .iter()
        .map(|(id, _)| sim.drain_stats(*id).batches)
        .collect();
    let mut advanced = Vec::with_capacity(actors.len());
    let mut t = Trace::default();
    let events0 = sim.events_processed();
    alloc::start();
    let start = host_now();
    while sim.foreground_queue_len() > 0 {
        let t0 = host_now();
        if !sim.step() {
            break;
        }
        let dt = t0.elapsed().as_secs_f64();
        t.steps += 1;
        t.queue_peak = t.queue_peak.max(sim.queue_len());
        advanced.clear();
        for (i, (id, layer)) in actors.iter().enumerate() {
            let b = sim.drain_stats(*id).batches;
            if b != last[i] {
                last[i] = b;
                advanced.push(*layer);
            }
        }
        if advanced.is_empty() {
            t.unattributed_s += dt;
        } else {
            let share = dt / advanced.len() as f64;
            for &layer in &advanced {
                t.busy_s[layer] += share;
            }
        }
    }
    t.wall_s = start.elapsed().as_secs_f64();
    t.allocs = alloc::stop();
    t.events = sim.events_processed() - events0;
    for (id, layer) in &actors {
        t.batches[*layer] += sim.drain_stats(*id).batches;
    }
    Ok(t)
}

/// Leaf timings taken after a run, on that run's own inputs.
#[derive(Debug)]
pub struct Leaf {
    pub sha256_mib_per_s: f64,
    pub verify_1mib_us: f64,
    pub verify_small_us: f64,
    pub segment_data_us: f64,
    /// One `reconcile_jobs` pass on every cluster's post-run API server,
    /// summed over the clusters.
    pub reconcile_jobs_us: f64,
}

/// Median wall time of `reps` calls, in µs.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = host_now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The 1 MiB segment the leaf timings use: the first segment `lake-fetch`
/// received; for the other two workloads, segment 0 of the Table I rice
/// object (`fig5-genomics` BLASTs it; `chaos-storm` loads no lake, so the
/// object is regenerated from the same dataset spec).
fn leaf_segment(w: &World) -> (Name, Content, u64) {
    for &id in &w.fetchers {
        let driver = w.sim.actor::<FetchDriver>(id).expect("fetcher alive");
        if let Some(rec) = driver.records.iter().find(|r| r.is_ok()) {
            let base = rec.name.parent();
            let seg = rec.name.get(rec.name.len() - 1).and_then(|c| c.as_number());
            let content = w.overlay.clusters[0]
                .repo
                .get(&base)
                .expect("fetched object");
            return (base, content, seg.expect("segment name"));
        }
    }
    let rice = lidc_genomics::sra::paper_runs().remove(0).dataset_spec();
    let base = data_prefix()
        .child_str("sra")
        .child_str(lidc_genomics::sra::PAPER_RICE_SRR);
    let content = w.overlay.clusters[0]
        .repo
        .get(&base)
        .unwrap_or(Content::synthetic(rice.size, rice.seed));
    (base, content, 0)
}

/// A status-sized Data: a Running reply for the run's first job.
fn small_data(w: &World) -> Data {
    let job = w
        .clients
        .iter()
        .filter_map(|&id| w.sim.actor::<ScienceClient>(id))
        .flat_map(|c| c.runs())
        .find_map(|r| r.job_id.clone())
        .unwrap_or_else(|| "job-0".to_owned());
    let state = JobState::Running {
        eta_secs: Some(3600),
    };
    Data::new(JobId(job).status_name(), state.to_text().into_bytes())
        .with_freshness(SimDuration::from_secs(1))
        .sign_digest()
}

pub fn leaf_timings(w: &World) -> Leaf {
    let (base, content, seg) = leaf_segment(w);
    let segment = || {
        segment_data(
            &base,
            &content,
            seg,
            DEFAULT_SEGMENT_SIZE,
            SimDuration::from_secs(60),
        )
        .expect("segment in range")
    };
    let big = segment();
    let small = small_data(w);
    let sha_us = time_us(15, || {
        std::hint::black_box(sha256(std::hint::black_box(&big.content)));
    });
    let mib = big.content.len() as f64 / f64::from(1u32 << 20);
    let verify_1mib_us = time_us(15, || assert!(std::hint::black_box(&big).verify(None)));
    let verify_small_us = time_us(2001, || assert!(std::hint::black_box(&small).verify(None)));
    let segment_data_us = time_us(9, || {
        std::hint::black_box(segment());
    });
    let now = w.sim.now();
    let reconcile_jobs_us = w
        .overlay
        .clusters
        .iter()
        .map(|c| {
            time_us(9, || {
                reconcile_jobs(&mut c.k8s.api.write(), now);
            })
        })
        .sum();
    Leaf {
        sha256_mib_per_s: mib / (sha_us / 1e6),
        verify_1mib_us,
        verify_small_us,
        segment_data_us,
        reconcile_jobs_us,
    }
}
