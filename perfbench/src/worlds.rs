//! The three workloads: world construction from a seed, the simulated
//! outcome of a finished run, its fingerprint, and the output checks.
//!
//! Everything goes through the repository's public API. The seed drives
//! two independent things: the engine (`Sim::new(seed)`) and the
//! benchmark's own input generator (`DetRng::new(seed)` derived per
//! workload); the program only ever receives the generated inputs.
//!
//! The seed varies *when* and *from where* work arrives — arrival offsets,
//! which client or consumer sends it, per-client poll periods, consumer
//! distances — but not *how much* work a run asks for: the fig5 job list,
//! the chaos storm and the lake access trace are each one fixed draw from
//! a named stream. Seeded job mixes, storms and traces moved the amount
//! of work, and with it every host-time metric, by more than the
//! benchmark's bounds between seeds.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use lidc_baseline::chaos::{assert_metrics_registered, assert_no_poisoned_cache};
use lidc_bench::mixed_workload;
use lidc_core::client::{ClientConfig, ScienceClient, Submit};
use lidc_core::gateway::{ByzantineMode, SetByzantine};
use lidc_core::naming::{data_prefix, ComputeRequest};
use lidc_core::overlay::{ClusterSpec, Overlay, OverlayConfig};
use lidc_core::placement::PlacementPolicy;
use lidc_datalake::segment::{segment_count, segment_data, DEFAULT_SEGMENT_SIZE};
use lidc_k8s::cluster::SetNodeReady;
use lidc_ndn::face::{FaceId, LinkProps};
use lidc_ndn::forwarder::{
    DegradeLink, Forwarder, ForwarderConfig, RegisterPrefix, SetFaceUp, UnregisterPrefix,
};
use lidc_ndn::name::{Name, NameComponent};
use lidc_ndn::net::connect;
use lidc_ndn::packet::Data;
use lidc_ndn::tables::cs::default_budget_bytes;
use lidc_simcore::engine::{ActorId, Ctx, Sim};
use lidc_simcore::faults::{
    ChaosProfile, FaultAction, FaultController, FaultHook, FaultKind, FaultSchedule,
};
use lidc_simcore::rng::DetRng;
use lidc_simcore::time::SimDuration;

use crate::fetch::{checksum, Fetch, FetchDriver};

/// The overlay every workload runs on: three clusters at 10/30/60 ms.
const SITES: [(&str, u64); 3] = [("west", 10), ("east", 30), ("south", 60)];

/// `fig5-genomics`: Table I jobs from four scientists over one hour, on
/// clusters large enough that jobs start on arrival. The job list is one
/// fixed draw of `mixed_workload` (stream `FIG5_MIX`), so every seed asks
/// for the same science; the seed draws who submits which job, when, and
/// each scientist's poll period.
const FIG5_JOBS: usize = 40;
const FIG5_MIX: u64 = 0x7AB1E1;
const FIG5_CLIENTS: u64 = 4;
const FIG5_WINDOW: SimDuration = SimDuration::from_hours(1);
const FIG5_NODES: u32 = 6;

/// `chaos-storm`: short jobs under a fault storm spread over the window.
/// The storm is one fixed `FaultSchedule::generate` draw (stream
/// `CHAOS_STORM`), so every seed faces the same adversity: with a storm
/// per seed, the 10th-worst turnaround moved by a quarter between seeds.
/// The seed draws the job arrivals, their clients and the poll periods.
const CHAOS_JOBS: u32 = 1500;
const CHAOS_STORM: u64 = 0x0057_073A;
const CHAOS_CLIENTS: u64 = 4;
const CHAOS_WINDOW: SimDuration = SimDuration::from_secs(300);
const CHAOS_NODES: u32 = 4;

/// `lake-fetch`: skewed 1 MiB segment fetches against a small router CS.
/// The access trace is one fixed draw (stream `LAKE_TRACE`), so every
/// seed fetches the same segments; the seed draws when each fetch fires,
/// from which consumer, and how far each consumer is from the router.
const LAKE_FETCHES: usize = 80;
const LAKE_TRACE: u64 = 0x1A4E;
const LAKE_CONSUMERS: u64 = 4;
/// Each consumer sits behind its own edge forwarder, at a seeded distance
/// (2–3 ms) from the access router.
const LAKE_EDGE_MS: (u64, u64) = (2, 3);
const LAKE_WINDOW: SimDuration = SimDuration::from_secs(20);
/// Router Content Store size, in 1 MiB segments.
const LAKE_ROUTER_CS: usize = 16;
/// Distinct segments the fetches draw from.
const LAKE_CATALOGUE: usize = 120;
/// Only the first segments of each object are drawn, so popular objects
/// share segments the way repeated analyses of one sample do.
const LAKE_SEGS_PER_OBJECT: u64 = 16;
/// Zipf exponent of segment popularity.
const LAKE_ZIPF: f64 = 0.9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig5Genomics,
    ChaosStorm,
    LakeFetch,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig5Genomics,
        Workload::ChaosStorm,
        Workload::LakeFetch,
    ];

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig5Genomics => "fig5-genomics",
            Workload::ChaosStorm => "chaos-storm",
            Workload::LakeFetch => "lake-fetch",
        }
    }

    /// Engine threads the timed run uses. Only `fig5-genomics` runs the
    /// parallel same-instant path.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fig5Genomics => 2,
            Workload::ChaosStorm | Workload::LakeFetch => 1,
        }
    }

    /// The layer the trace is predicted to find dominant (`None`: neither
    /// `ndn.crypto` nor `k8s.control`).
    pub fn predicted_dominant(self) -> Option<&'static str> {
        match self {
            Workload::Fig5Genomics => None,
            Workload::ChaosStorm => Some("k8s.control"),
            Workload::LakeFetch => Some("ndn.crypto"),
        }
    }
}

/// A built, not yet run, world plus the handles the benchmark needs.
pub struct World {
    pub workload: Workload,
    pub sim: Sim,
    pub overlay: Overlay,
    pub clients: Vec<ActorId>,
    pub fetchers: Vec<ActorId>,
    /// `lake-fetch`: the consumers' edge forwarders.
    pub edges: Vec<ActorId>,
    pub faults: Option<ActorId>,
    /// Ops scheduled (jobs submitted or segment fetches).
    pub attempted: u64,
    /// `lake-fetch`: share of fetches whose name an earlier fetch asked for.
    pub repeat_share: f64,
}

pub fn build(workload: Workload, seed: u64, threads: usize) -> World {
    let mut sim = Sim::new(seed);
    sim.set_threads(threads);
    let rng = DetRng::new(seed).derive_str(workload.name());
    match workload {
        Workload::Fig5Genomics => build_fig5(sim, rng),
        Workload::ChaosStorm => build_chaos(sim, rng),
        Workload::LakeFetch => build_lake(sim, rng),
    }
}

fn sites(nodes: u32) -> Vec<ClusterSpec> {
    SITES
        .iter()
        .map(|&(name, ms)| {
            ClusterSpec::new(name, SimDuration::from_millis(ms)).with_nodes(nodes, 16, 64)
        })
        .collect()
}

fn at_offset(rng: &mut DetRng, window: SimDuration) -> SimDuration {
    SimDuration::from_nanos(rng.next_below(window.as_nanos()))
}

/// A client's own status-poll period: `base` ± 2%, seeded, so users do
/// not poll in lock-step and simulated turnarounds are not quantised to
/// one shared poll grid.
fn poll_period(rng: &mut DetRng, base: SimDuration) -> SimDuration {
    base.mul_f64(0.98 + 0.04 * rng.next_f64())
}

fn world(workload: Workload, sim: Sim, overlay: Overlay) -> World {
    World {
        workload,
        sim,
        overlay,
        clients: Vec::new(),
        fetchers: Vec::new(),
        edges: Vec::new(),
        faults: None,
        attempted: 0,
        repeat_share: 0.0,
    }
}

fn build_fig5(mut sim: Sim, mut rng: DetRng) -> World {
    let overlay = Overlay::build(
        &mut sim,
        OverlayConfig {
            placement: PlacementPolicy::LeastLoaded,
            clusters: sites(FIG5_NODES),
            ..Default::default()
        },
    );
    let mut w = world(Workload::Fig5Genomics, sim, overlay);
    for i in 0..FIG5_CLIENTS {
        let base = ClientConfig::default();
        let config = ClientConfig {
            poll_interval: poll_period(&mut rng, base.poll_interval),
            ..base
        };
        let id = ScienceClient::deploy(
            config,
            &mut w.sim,
            w.overlay.router,
            &w.overlay.alloc,
            format!("scientist-{i}"),
        );
        w.clients.push(id);
    }
    for request in mixed_workload(&mut DetRng::new(FIG5_MIX), FIG5_JOBS) {
        let client = w.clients[rng.next_below(FIG5_CLIENTS) as usize];
        let at = at_offset(&mut rng, FIG5_WINDOW);
        w.sim.send_after(at, client, Submit(request));
        w.attempted += 1;
    }
    w
}

fn chaos_client(rng: &mut DetRng) -> ClientConfig {
    ClientConfig {
        poll_interval: poll_period(rng, SimDuration::from_secs(5)),
        fetch_results: false,
        retries: 2,
        max_status_failures: 3,
        resubmit_attempts: 10,
        ..Default::default()
    }
}

fn build_chaos(mut sim: Sim, mut rng: DetRng) -> World {
    let names: Vec<String> = SITES.iter().map(|(n, _)| (*n).to_owned()).collect();
    let profile = ChaosProfile {
        horizon: CHAOS_WINDOW,
        clusters: names.clone(),
        links: names.clone(),
        nodes_per_cluster: CHAOS_NODES as usize,
        outages: 16,
        node_crashes: 32,
        link_degrades: 24,
        byzantine: 16,
        region_outages: 8,
        regions: vec![
            (
                "coastal".to_owned(),
                vec![names[0].clone(), names[1].clone()],
            ),
            (
                "southern".to_owned(),
                vec![names[1].clone(), names[2].clone()],
            ),
        ],
        mean_duration: SimDuration::from_secs(4),
    };
    let schedule = FaultSchedule::generate(&mut DetRng::new(CHAOS_STORM), &profile);
    let overlay = Overlay::build(
        &mut sim,
        OverlayConfig {
            placement: PlacementPolicy::RoundRobin,
            clusters: sites(CHAOS_NODES),
            load_datasets: false,
            ..Default::default()
        },
    );
    let targets = Targets::of(&overlay);
    let mut w = world(Workload::ChaosStorm, sim, overlay);
    w.faults = Some(FaultController::deploy(
        &mut w.sim,
        schedule,
        targets.hook(),
    ));
    for i in 0..CHAOS_CLIENTS {
        let id = ScienceClient::deploy(
            chaos_client(&mut rng),
            &mut w.sim,
            w.overlay.router,
            &w.overlay.alloc,
            format!("storm-user-{i}"),
        );
        w.clients.push(id);
    }
    for tag in 0..CHAOS_JOBS {
        let client = w.clients[rng.next_below(CHAOS_CLIENTS) as usize];
        let at = at_offset(&mut rng, CHAOS_WINDOW);
        let request = ComputeRequest::new("CHAOS", 2, 4).with_param("tag", tag.to_string());
        w.sim.send_after(at, client, Submit(request));
        w.attempted += 1;
    }
    w
}

/// The actor and face handles the storm's fault hook addresses.
struct Targets {
    router: ActorId,
    /// cluster → (router-side face, gateway NFD, gateway-side face).
    links: BTreeMap<String, (FaceId, ActorId, FaceId)>,
    k8s: BTreeMap<String, ActorId>,
    gateways: BTreeMap<String, ActorId>,
    /// cluster → routing cost it registered with (link latency in µs).
    costs: BTreeMap<String, u32>,
}

impl Targets {
    fn of(overlay: &Overlay) -> Targets {
        let mut t = Targets {
            router: overlay.router,
            links: BTreeMap::new(),
            k8s: BTreeMap::new(),
            gateways: BTreeMap::new(),
            costs: BTreeMap::new(),
        };
        for c in &overlay.clusters {
            let rf = overlay.face_of(&c.name).expect("member has a router face");
            let gf = overlay
                .cluster_face_of(&c.name)
                .expect("member has a cluster face");
            t.links.insert(c.name.clone(), (rf, c.gateway_fwd, gf));
            t.k8s.insert(c.name.clone(), c.k8s.actor);
            t.gateways.insert(c.name.clone(), c.gateway_app);
        }
        for (name, ms) in SITES {
            t.costs.insert(name.to_owned(), (ms * 1_000) as u32);
        }
        t
    }

    fn set_link(&self, ctx: &mut Ctx<'_>, cluster: &str, up: bool) {
        if let Some(&(rf, gw, gf)) = self.links.get(cluster) {
            ctx.send(self.router, SetFaceUp { face: rf, up });
            ctx.send(gw, SetFaceUp { face: gf, up });
        }
    }

    fn degrade(&self, ctx: &mut Ctx<'_>, link: &str, factors: (f64, f64, f64)) {
        if let Some(&(rf, gw, gf)) = self.links.get(link) {
            let (latency_factor, extra_loss, corrupt) = factors;
            for (to, face) in [(self.router, rf), (gw, gf)] {
                ctx.send(
                    to,
                    DegradeLink {
                        face,
                        latency_factor,
                        extra_loss,
                        corrupt,
                    },
                );
            }
        }
    }

    /// Map each fault kind onto the public control messages of the
    /// forwarders, k8s control planes and gateways.
    fn hook(self) -> FaultHook {
        Box::new(move |kind, action, ctx| {
            let inject = action == FaultAction::Inject;
            let healed = (1.0, 0.0, 0.0);
            match kind {
                FaultKind::ClusterOutage { cluster } => {
                    if let Some(&(face, _, _)) = self.links.get(cluster) {
                        ctx.send(self.router, SetFaceUp { face, up: !inject });
                    }
                }
                FaultKind::NodeCrash { cluster, node } => {
                    if let Some(&k8s) = self.k8s.get(cluster) {
                        ctx.send(
                            k8s,
                            SetNodeReady {
                                node: node.clone(),
                                ready: !inject,
                            },
                        );
                    }
                }
                FaultKind::LinkDown { link } => self.set_link(ctx, link, !inject),
                FaultKind::RegionOutage { members, .. } => {
                    for member in members {
                        self.set_link(ctx, member, !inject);
                    }
                }
                FaultKind::LinkDegrade {
                    link,
                    latency_factor,
                    extra_loss,
                } => {
                    let f = (*latency_factor, *extra_loss, 0.0);
                    self.degrade(ctx, link, if inject { f } else { healed });
                }
                FaultKind::SlowProducer { producer, factor } => {
                    let f = (*factor, 0.0, 0.0);
                    self.degrade(ctx, producer, if inject { f } else { healed });
                }
                FaultKind::PacketCorrupt { link, probability } => {
                    let f = (1.0, 0.0, *probability);
                    self.degrade(ctx, link, if inject { f } else { healed });
                }
                FaultKind::ByzantineProducer { cluster, signed } => {
                    if let Some(&gateway) = self.gateways.get(cluster) {
                        let mode = if *signed {
                            ByzantineMode::SignedWrongName
                        } else {
                            ByzantineMode::UnsignedGarbage
                        };
                        ctx.send(gateway, SetByzantine(inject.then_some(mode)));
                    }
                }
                FaultKind::StaleFib { prefix, cluster } => {
                    let (Ok(prefix), Some(&(face, _, _))) =
                        (Name::parse(prefix), self.links.get(cluster))
                    else {
                        return;
                    };
                    if inject {
                        ctx.send(self.router, UnregisterPrefix { prefix, face });
                    } else {
                        let cost = self.costs.get(cluster).copied().unwrap_or(0);
                        ctx.send(self.router, RegisterPrefix { prefix, face, cost });
                    }
                }
            }
        })
    }
}

/// The segments the fetches ask for, in fetch order: a Zipf-popular draw
/// over a catalogue of the lake's SRA segments, both from the fixed
/// stream `LAKE_TRACE`.
fn lake_trace(overlay: &Overlay) -> Vec<Name> {
    let mut rng = DetRng::new(LAKE_TRACE);
    let repo = &overlay.clusters[0].repo;
    let objects = repo.list(&data_prefix().child_str("sra"));
    let mut catalogue = BTreeSet::new();
    while catalogue.len() < LAKE_CATALOGUE {
        let object = &objects[rng.next_below(objects.len() as u64) as usize];
        let size = repo.get(object).expect("listed object").len();
        let segs = segment_count(size, DEFAULT_SEGMENT_SIZE).min(LAKE_SEGS_PER_OBJECT);
        let seg = rng.next_below(segs);
        catalogue.insert(object.clone().child(NameComponent::segment(seg)));
    }
    // Popularity rank order is a shuffle of the catalogue.
    let mut ranked: Vec<Name> = catalogue.into_iter().collect();
    rng.shuffle(&mut ranked);
    let mut cdf = Vec::with_capacity(ranked.len());
    let mut total = 0.0;
    for rank in 1..=ranked.len() {
        total += 1.0 / (rank as f64).powf(LAKE_ZIPF);
        cdf.push(total);
    }
    (0..LAKE_FETCHES)
        .map(|_| {
            let u = rng.next_f64() * total;
            ranked[cdf.partition_point(|&c| c < u).min(ranked.len() - 1)].clone()
        })
        .collect()
}

fn build_lake(mut sim: Sim, mut rng: DetRng) -> World {
    let overlay = Overlay::build(
        &mut sim,
        OverlayConfig {
            placement: PlacementPolicy::Nearest,
            clusters: sites(1),
            router_cs_capacity: LAKE_ROUTER_CS,
            router_cs_budget_bytes: default_budget_bytes(LAKE_ROUTER_CS),
            ..Default::default()
        },
    );
    let trace = lake_trace(&overlay);
    let mut w = world(Workload::LakeFetch, sim, overlay);
    for i in 0..LAKE_CONSUMERS {
        let label = format!("lake-edge-{i}");
        let edge = w.sim.spawn(
            label.clone(),
            Forwarder::new(
                label,
                ForwarderConfig {
                    cs_capacity: 0,
                    ..Default::default()
                },
            ),
        );
        let (lo, hi) = LAKE_EDGE_MS;
        let latency =
            SimDuration::from_millis(lo) + at_offset(&mut rng, SimDuration::from_millis(hi - lo));
        let (up, _) = connect(
            &mut w.sim,
            edge,
            w.overlay.router,
            &w.overlay.alloc,
            LinkProps::with_latency(latency),
        );
        w.sim
            .actor_mut::<Forwarder>(edge)
            .expect("edge forwarder")
            .register_prefix(data_prefix(), up, 0);
        let id = FetchDriver::deploy(
            &mut w.sim,
            edge,
            &w.overlay.alloc,
            format!("lake-consumer-{i}"),
        );
        w.edges.push(edge);
        w.fetchers.push(id);
    }
    let mut fires = Vec::with_capacity(LAKE_FETCHES);
    for (i, name) in trace.into_iter().enumerate() {
        let fetcher = w.fetchers[rng.next_below(LAKE_CONSUMERS) as usize];
        let at = at_offset(&mut rng, LAKE_WINDOW);
        fires.push((at, i, name.clone()));
        w.sim.send_after(at, fetcher, Fetch(name));
        w.attempted += 1;
    }
    fires.sort();
    let mut seen = BTreeSet::new();
    let repeats = fires
        .iter()
        .filter(|(_, _, n)| !seen.insert(n.clone()))
        .count();
    w.repeat_share = repeats as f64 / fires.len() as f64;
    w
}

/// The simulated result of one finished run: deterministic for a seed.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub ok: u64,
    pub events: u64,
    /// Simulated op latency (submit → result, or fetch latency) per
    /// attempted op; `None` for an op that failed or never resolved.
    pub latencies: Vec<Option<SimDuration>>,
    /// Submit → ack, per acked job.
    pub acks: Vec<SimDuration>,
    /// Ack → first Running, per job seen running.
    pub queues: Vec<SimDuration>,
    /// Status polls over all jobs.
    pub polls: u64,
    pub fingerprint: String,
}

pub fn outcome(w: &World) -> Outcome {
    let mut out = Outcome {
        attempted: w.attempted,
        ok: 0,
        events: w.sim.events_processed(),
        latencies: Vec::new(),
        acks: Vec::new(),
        queues: Vec::new(),
        polls: 0,
        fingerprint: String::new(),
    };
    let mut ops = Fnv::new();
    for &id in &w.clients {
        let client = w.sim.actor::<ScienceClient>(id).expect("client alive");
        let fetches = w.workload == Workload::Fig5Genomics;
        for run in client.runs() {
            let done = if fetches {
                run.fetched_at
            } else {
                run.completed_at
            };
            let ok = run.is_success() && done.is_some();
            out.latencies
                .push(done.filter(|_| ok).map(|t| t.since(run.submitted_at)));
            out.acks.extend(run.ack_latency());
            if let (Some(ack), Some(running)) = (run.ack_at, run.first_running_at) {
                out.queues.push(running.since(ack));
            }
            out.polls += u64::from(run.polls);
            ops.write(&format!(
                "{:?} {:?} {:?} {:?} {:?} {:?} {} {} {:?}|",
                run.submitted_at,
                run.ack_at,
                run.cluster,
                run.first_running_at,
                run.completed_at,
                run.fetched_at,
                run.polls,
                run.resubmits,
                run.error
            ));
        }
    }
    for &id in &w.fetchers {
        let driver = w.sim.actor::<FetchDriver>(id).expect("fetcher alive");
        for rec in &driver.records {
            out.latencies.push(rec.latency().filter(|_| rec.is_ok()));
            ops.write(&format!(
                "{} {:?} {:?} {} {:x}|",
                rec.name, rec.asked_at, rec.answered_at, rec.failed, rec.checksum
            ));
        }
    }
    // An op that was scheduled but never recorded is stranded.
    out.latencies.resize(w.attempted as usize, None);
    out.ok = out.latencies.iter().flatten().count() as u64;
    out.fingerprint = fingerprint(w, &out, ops.finish());
    out
}

/// Everything observable about a run, except how the engine executed it:
/// the parallel-wave counters legitimately differ between thread counts.
fn fingerprint(w: &World, out: &Outcome, ops_digest: u64) -> String {
    let m = w.sim.metrics_ref();
    let mut counters: Vec<(&str, u64)> = m
        .counters()
        .filter(|(k, _)| !k.starts_with("sim.parallel.") && !k.starts_with("ndn.parallel."))
        .collect();
    counters.sort();
    let mut s = format!(
        "workload={} events={} now={:?} attempted={} ok={} ops={ops_digest:016x}\n",
        w.workload.name(),
        out.events,
        w.sim.now(),
        out.attempted,
        out.ok
    );
    let mut lat: Vec<SimDuration> = out.latencies.iter().flatten().copied().collect();
    lat.sort();
    for p in [50.0, 90.0, 99.0, 100.0] {
        s.push_str(&format!("p{p}={:?} ", nearest_rank(&lat, p)));
    }
    s.push('\n');
    for (k, v) in counters {
        s.push_str(&format!("{k}={v}\n"));
    }
    for c in &w.overlay.clusters {
        let api = c.k8s.api.read();
        s.push_str(&format!(
            "k8s.{}: jobs={} pods={} events={}\n",
            c.name,
            api.jobs.len(),
            api.pods.len(),
            api.events.len()
        ));
    }
    if let Some(fc) = w.faults {
        let timeline = w
            .sim
            .actor::<FaultController>(fc)
            .expect("controller alive");
        s.push_str(&timeline.timeline_text());
    }
    s
}

/// Nearest-rank percentile of sorted samples (`None` when empty).
pub fn nearest_rank<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The forwarders of a world, labelled.
pub fn forwarders(w: &World) -> Vec<(String, ActorId)> {
    let mut v = vec![("wan-router".to_owned(), w.overlay.router)];
    for c in &w.overlay.clusters {
        v.push((format!("{}-gw-nfd", c.name), c.gateway_fwd));
        v.push((format!("{}-dl-nfd", c.name), c.dl_fwd));
    }
    for &edge in &w.edges {
        v.push((w.sim.label(edge).to_owned(), edge));
    }
    v
}

/// The output checks run after a world finishes. Any failure is returned
/// as a message; the repository's assertion helpers panic, so their
/// panics are caught here.
pub fn check(w: &World) -> Result<(), String> {
    let fwds = forwarders(w);
    catch_unwind(AssertUnwindSafe(|| {
        assert_no_poisoned_cache(&w.sim, &fwds);
        assert_metrics_registered(&w.sim);
    }))
    .map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .unwrap_or_default();
        format!("invariant check panicked: {msg}")
    })?;
    for c in &w.overlay.clusters {
        c.k8s
            .api
            .read()
            .debug_check_pod_indexes()
            .map_err(|e| format!("k8s pod indexes of {}: {e}", c.name))?;
    }
    if w.workload == Workload::LakeFetch {
        check_segments(w)?;
    }
    Ok(())
}

/// Every received segment must equal `segment_data` regenerated from the
/// repo (all header fields, and the content by checksum), and that
/// regenerated packet must verify — so the received one verifies too.
fn check_segments(w: &World) -> Result<(), String> {
    let repo = &w.overlay.clusters[0].repo;
    let mut expected: BTreeMap<Name, (Data, u64)> = BTreeMap::new();
    let mut checked = 0u64;
    for &id in &w.fetchers {
        let driver = w.sim.actor::<FetchDriver>(id).expect("fetcher alive");
        for rec in driver.records.iter().filter(|r| r.is_ok()) {
            let header = rec
                .header
                .as_ref()
                .expect("answered record keeps its header");
            if !expected.contains_key(&rec.name) {
                let base = rec.name.parent();
                let seg = rec
                    .name
                    .get(rec.name.len() - 1)
                    .and_then(|c| c.as_number())
                    .ok_or_else(|| format!("{} is not a segment name", rec.name))?;
                let content = repo
                    .get(&base)
                    .ok_or_else(|| format!("{base} not in repo"))?;
                let freshness = header.freshness.unwrap_or(SimDuration::ZERO);
                let mut data = segment_data(&base, &content, seg, DEFAULT_SEGMENT_SIZE, freshness)
                    .ok_or_else(|| format!("{} is past the object's end", rec.name))?;
                if !data.verify(None) {
                    return Err(format!("regenerated {} does not verify", rec.name));
                }
                let sum = checksum(&data.content);
                data.content = bytes::Bytes::new();
                expected.insert(rec.name.clone(), (data, sum));
            }
            let (data, sum) = &expected[&rec.name];
            if header != data || rec.checksum != *sum {
                return Err(format!(
                    "received {} differs from the lake's segment",
                    rec.name
                ));
            }
            checked += 1;
        }
    }
    if checked == 0 {
        return Err("no segment was received".to_owned());
    }
    Ok(())
}

/// FNV-1a over strings: a compact digest for per-op records.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn write(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
