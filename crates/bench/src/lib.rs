//! # lidc-bench — experiment harnesses for every table and figure
//!
//! One binary per paper artifact (DESIGN.md §5):
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table1` | Table I — computation performance |
//! | `fig1_location_independence` | Fig. 1 — location-independent placement |
//! | `fig2_transparent_dispatch` | Fig. 2 — name-driven data/compute dispatch |
//! | `fig3_nodeport_path` | Fig. 3 — NodePort → service → DNS path |
//! | `fig4_name_service_mapping` | Fig. 4 — NDN-name → K8s-service matching |
//! | `fig5_workflow_trace` | Fig. 5 — full workflow protocol trace |
//! | `ablate_*` | design-choice ablations (placement, caching, churn, …) |
//!
//! Each binary prints the paper-style markdown table and writes
//! `results/<id>.{md,json}`. Criterion microbenches live in `benches/`.
//!
//! This crate is also a small library: the harness helpers here (workload
//! generation, world construction, probes) are shared between the binaries
//! and the criterion benches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::collections::HashMap;
use std::path::PathBuf;

use lidc_core::client::{ClientConfig, JobRun, ScienceClient, Submit};
use lidc_core::naming::ComputeRequest;
use lidc_core::overlay::{ClusterSpec, Overlay, OverlayConfig};
use lidc_core::placement::PlacementPolicy;
use lidc_ndn::app::{Consumer, ConsumerEvent, RetxTimer};
use lidc_ndn::forwarder::AppRx;
use lidc_ndn::name::Name;
use lidc_ndn::net::attach_app;
use lidc_ndn::packet::{ContentType, Interest};
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::report::Report;
use lidc_simcore::rng::DetRng;
use lidc_simcore::time::{SimDuration, SimTime};

/// Where experiment outputs are written (`results/` unless
/// `LIDC_RESULTS_DIR` overrides it).
pub fn results_dir() -> PathBuf {
    std::env::var_os("LIDC_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Print a report to stdout and persist it under [`results_dir`].
pub fn finish(report: &Report) {
    println!("{}", report.to_markdown());
    let dir = results_dir();
    match report.write_to(&dir) {
        Ok(()) => println!("(written to {}/{}.{{md,json}})", dir.display(), report.id),
        Err(e) => eprintln!("warning: could not write results: {e}"),
    }
}

/// The paper's canonical BLAST request (§IV-A).
pub fn blast_request(srr: &str, cpu: u64, mem: u64) -> ComputeRequest {
    ComputeRequest::new("BLAST", cpu, mem)
        .with_param("srr", srr)
        .with_param("ref", "HUMAN")
}

/// A tagged BLAST request: identical computation, distinct name (so PIT
/// aggregation and result caching do not conflate independent jobs).
pub fn tagged_blast(srr: &str, cpu: u64, mem: u64, tag: u64) -> ComputeRequest {
    blast_request(srr, cpu, mem).with_param("tag", tag.to_string())
}

/// Draw a mixed science workload: mostly rice/kidney BLAST jobs with a few
/// COMPRESS jobs, varying resource requests — the "data intensive science"
/// request mix of the paper's introduction.
pub fn mixed_workload(rng: &mut DetRng, n: usize) -> Vec<ComputeRequest> {
    let mut out = Vec::with_capacity(n);
    for tag in 0..n {
        let r = rng.next_below(10);
        let req = match r {
            0..=5 => tagged_blast("SRR2931415", 2 + 2 * rng.next_below(2), 4, tag as u64),
            6..=7 => tagged_blast("SRR5139395", 2, 4 + 2 * rng.next_below(2), tag as u64),
            _ => ComputeRequest::new("COMPRESS", 1, 2)
                .with_param("input", "/sra/SRR2931415")
                .with_param("tag", tag.to_string()),
        };
        out.push(req);
    }
    out
}

/// The standard four-site WAN used by the multi-cluster experiments:
/// latencies roughly shaped like (campus, regional, national, continental).
pub fn four_site_specs() -> Vec<ClusterSpec> {
    vec![
        ClusterSpec::new("campus", SimDuration::from_millis(2)),
        ClusterSpec::new("regional", SimDuration::from_millis(12)),
        ClusterSpec::new("national", SimDuration::from_millis(35)),
        ClusterSpec::new("continental", SimDuration::from_millis(90)),
    ]
}

/// Build an overlay world plus one attached client.
pub fn overlay_world(
    seed: u64,
    placement: PlacementPolicy,
    specs: Vec<ClusterSpec>,
) -> (Sim, Overlay, ActorId) {
    let mut sim = Sim::new(seed);
    let overlay = Overlay::build(&mut sim, OverlayConfig {
        placement,
        clusters: specs,
        ..Default::default()
    });
    let alloc = overlay.alloc.clone();
    let client = ScienceClient::deploy(
        ClientConfig::default(),
        &mut sim,
        overlay.router,
        &alloc,
        "client",
    );
    (sim, overlay, client)
}

/// Submit a list of requests spaced `gap` apart, then run to completion.
pub fn submit_all(sim: &mut Sim, client: ActorId, requests: &[ComputeRequest], gap: SimDuration) {
    for (i, req) in requests.iter().enumerate() {
        sim.send_after(gap * i as u64, client, Submit(req.clone()));
    }
    sim.run();
}

/// Per-cluster job counts from a batch of runs.
pub fn jobs_per_cluster(runs: &[JobRun]) -> HashMap<String, usize> {
    let mut map = HashMap::new();
    for run in runs {
        if let Some(c) = &run.cluster {
            *map.entry(c.clone()).or_insert(0) += 1;
        }
    }
    map
}

/// Mean of a sequence of durations (zero when empty).
pub fn mean_duration(durations: &[SimDuration]) -> SimDuration {
    if durations.is_empty() {
        return SimDuration::ZERO;
    }
    let total: f64 = durations.iter().map(|d| d.as_secs_f64()).sum();
    SimDuration::from_secs_f64(total / durations.len() as f64)
}

/// What a [`DataProbe`] learned about one data fetch.
#[derive(Debug, Clone)]
pub struct FetchRecord {
    /// The requested name.
    pub name: Name,
    /// When the Interest was expressed.
    pub asked_at: SimTime,
    /// When Data (object or manifest) arrived.
    pub answered_at: Option<SimTime>,
    /// Whether the fetch failed (application NACK, network NACK or timeout).
    pub nacked: bool,
    /// Content bytes received.
    pub bytes: usize,
}

impl FetchRecord {
    /// Ask → answer latency.
    pub fn latency(&self) -> Option<SimDuration> {
        self.answered_at.map(|t| t.since(self.asked_at))
    }
}

/// Ask a [`DataProbe`] to fetch a name.
#[derive(Debug)]
pub struct FetchData(pub Name);

/// A minimal data-retrieval client: one record per [`FetchData`] message,
/// recording latency and outcome. A fetch of a name already in flight
/// rides the pending Interest, and its answer settles every waiting
/// record. Used by the Fig. 2 dispatch experiment and the data-path
/// microbenches.
pub struct DataProbe {
    consumer: Option<Consumer>,
    /// Pending name → every record waiting on it, in request order.
    pending: HashMap<Name, Vec<usize>>,
    /// Completed fetch records.
    pub records: Vec<FetchRecord>,
}

impl DataProbe {
    /// Deploy a probe attached to `fwd`.
    pub fn deploy(
        sim: &mut Sim,
        fwd: ActorId,
        alloc: &lidc_ndn::face::FaceIdAlloc,
        label: impl Into<String>,
    ) -> ActorId {
        let probe = sim.spawn(label.into(), DataProbe {
            consumer: None,
            pending: HashMap::new(),
            records: Vec::new(),
        });
        let face = attach_app(sim, fwd, probe, alloc);
        sim.actor_mut::<DataProbe>(probe).unwrap().consumer = Some(Consumer::new(fwd, face));
        probe
    }

    fn resolve(&mut self, name: &Name, now: SimTime, nacked: bool, bytes: usize) {
        for idx in self.pending.remove(name).unwrap_or_default() {
            let rec = &mut self.records[idx];
            rec.answered_at = Some(now);
            rec.nacked = nacked;
            rec.bytes = bytes;
        }
    }

    fn fail(&mut self, name: &Name) {
        for idx in self.pending.remove(name).unwrap_or_default() {
            self.records[idx].nacked = true;
        }
    }
}

impl Actor for DataProbe {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<FetchData>() {
            Ok(f) => {
                let name = f.0;
                let waiters = self.pending.entry(name.clone()).or_default();
                waiters.push(self.records.len());
                let first = waiters.len() == 1;
                self.records.push(FetchRecord {
                    name: name.clone(),
                    asked_at: ctx.now(),
                    answered_at: None,
                    nacked: false,
                    bytes: 0,
                });
                if first {
                    let interest = Interest::new(name).with_lifetime(SimDuration::from_secs(4));
                    self.consumer
                        .as_mut()
                        .expect("deployed")
                        .express(ctx, interest, 2);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AppRx>() {
            Ok(rx) => {
                match self.consumer.as_mut().expect("deployed").on_app_rx(&rx) {
                    Some(ConsumerEvent::Data(d)) => {
                        let nacked = d.content_type == ContentType::Nack;
                        let name = d.name.clone();
                        self.resolve(&name, ctx.now(), nacked, d.content.len());
                    }
                    Some(ConsumerEvent::Nack(_, i)) | Some(ConsumerEvent::Timeout(i)) => {
                        self.fail(&i.name);
                    }
                    None => {}
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok(t) = msg.downcast::<RetxTimer>() {
            if let Some(ConsumerEvent::Timeout(i)) =
                self.consumer.as_mut().expect("deployed").on_timer(ctx, &t)
            {
                self.fail(&i.name);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lidc_core::cluster::{LidcCluster, LidcClusterConfig};
    use lidc_ndn::face::FaceIdAlloc;

    #[test]
    fn mixed_workload_is_deterministic_and_mixed() {
        let mut r1 = DetRng::new(9);
        let mut r2 = DetRng::new(9);
        let w1 = mixed_workload(&mut r1, 50);
        let w2 = mixed_workload(&mut r2, 50);
        assert_eq!(w1, w2);
        assert!(w1.iter().any(|r| r.app == "BLAST"));
        assert!(w1.iter().any(|r| r.app == "COMPRESS"));
        // All names distinct (tags).
        let mut names: Vec<String> = w1.iter().map(|r| r.to_name().to_uri()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 50);
    }

    #[test]
    fn data_probe_fetches_lake_object() {
        let mut sim = Sim::new(1);
        let alloc = FaceIdAlloc::new();
        let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
        let probe = DataProbe::deploy(&mut sim, cluster.gateway_fwd, &alloc, "probe");
        let catalog =
            lidc_datalake::catalog::Catalog::object_name(&lidc_core::naming::data_prefix());
        sim.send(probe, FetchData(catalog));
        sim.run();
        let records = &sim.actor::<DataProbe>(probe).unwrap().records;
        assert_eq!(records.len(), 1);
        assert!(!records[0].nacked);
        assert!(records[0].bytes > 0);
        assert!(records[0].latency().unwrap() > SimDuration::ZERO);
    }

    #[test]
    fn data_probe_settles_every_duplicate_fetch() {
        let mut sim = Sim::new(1);
        let alloc = FaceIdAlloc::new();
        let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
        let probe = DataProbe::deploy(&mut sim, cluster.gateway_fwd, &alloc, "probe");
        let catalog =
            lidc_datalake::catalog::Catalog::object_name(&lidc_core::naming::data_prefix());
        sim.send(probe, FetchData(catalog.clone()));
        sim.send(probe, FetchData(catalog));
        sim.run();
        let records = &sim.actor::<DataProbe>(probe).unwrap().records;
        assert_eq!(records.len(), 2);
        for (i, rec) in records.iter().enumerate() {
            assert!(rec.answered_at.is_some(), "record {i} was stranded: {rec:?}");
            assert!(!rec.nacked);
            assert!(rec.bytes > 0);
        }
    }

    #[test]
    fn data_probe_nacked_for_missing_object() {
        let mut sim = Sim::new(2);
        let alloc = FaceIdAlloc::new();
        let cluster = LidcCluster::deploy(&mut sim, &alloc, LidcClusterConfig::named("edge"));
        let probe = DataProbe::deploy(&mut sim, cluster.gateway_fwd, &alloc, "probe");
        sim.send(
            probe,
            FetchData(lidc_core::naming::data_prefix().child_str("no-such-thing")),
        );
        sim.run();
        let records = &sim.actor::<DataProbe>(probe).unwrap().records;
        assert!(records[0].nacked);
    }

    #[test]
    fn overlay_world_builder_places_jobs() {
        let (mut sim, _overlay, client) =
            overlay_world(3, PlacementPolicy::Nearest, four_site_specs());
        let reqs: Vec<ComputeRequest> =
            (0..3).map(|i| tagged_blast("SRR2931415", 2, 4, i)).collect();
        submit_all(&mut sim, client, &reqs, SimDuration::from_secs(1));
        let runs = sim.actor::<ScienceClient>(client).unwrap().runs();
        assert_eq!(runs.len(), 3);
        let per = jobs_per_cluster(runs);
        assert_eq!(per.get("campus"), Some(&3), "{per:?}");
    }
}
