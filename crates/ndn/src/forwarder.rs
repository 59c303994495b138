//! The NDN forwarding daemon (NFD-equivalent), as a simulation actor.
//!
//! Implements the NFD forwarding pipeline: Content Store lookup, PIT
//! aggregation, dead-nonce loop suppression, FIB longest-prefix match,
//! per-prefix strategy choice, reverse-path Data delivery, NACKs, and PIT
//! expiry. Faces connect either to peer forwarders (with latency/bandwidth/
//! loss) or to local application actors (producers, consumers, the LIDC
//! gateway).
//!
//! # Wire batching
//!
//! Outbound link transmissions are *staged* during a handler invocation and
//! flushed once at the end: every packet bound for the same link face with
//! the same computed arrival instant travels in a single scheduler event (a
//! [`RxBatch`]) instead of one event per packet. Per-packet semantics —
//! loss draws, serialisation delay, `busy_until` FIFO queueing, counters —
//! are computed at staging time, so timing and state are bit-identical to
//! per-packet delivery; only the number of scheduler events shrinks. The
//! forwarder's batched ingress ([`Actor::on_batch`]) processes a coalesced
//! burst of [`Rx`]/[`RxBatch`] messages in arrival order, reusing the
//! PIT/CS scratch buffers across the whole burst, and flushes staged
//! transmissions once per burst. This is what keeps the 4096-node scaling
//! runs out of scheduler churn.
//!
//! # Sharded, two-phase parallel ingress
//!
//! With [`ForwarderConfig::shards`] `> 1` the PIT, CS, and dead-nonce list
//! become name-hash shards ([`crate::tables::shard`]), and a batched burst
//! of packets is processed in two phases:
//!
//! 1. **Shard phase** (parallel across shards for large bursts): each
//!    packet's *table work* — hop-limit, dead-nonce probe, CS lookup/insert,
//!    PIT insert/match/take, FIB longest-prefix match (read-only) — runs
//!    against its name's shard, in arrival order within the shard, emitting
//!    a per-packet outcome. Every operation on one name lands in one shard,
//!    so same-name sequences keep their serial semantics.
//! 2. **Merge phase** (serial, global arrival order): outcomes are replayed
//!    in burst order to do everything order-sensitive — strategy selection
//!    (shared per-prefix state + RNG draws), PIT out-record registration,
//!    link staging (`busy_until` FIFO, loss draws), face counters, and
//!    metrics — so the schedule and all counters are identical to serial
//!    processing of the same sharded configuration.
//!
//! A burst falls back to the serial per-packet path when it contains Nacks
//! or `CanBePrefix` Interests, or Data while prefix PIT entries are
//! resident (those are the only cases where one packet's table work can
//! cross shards). Known reordering relative to fully serial processing:
//! when an Interest and a Data *for the same name* share one burst, the
//! Interest's out-record is registered after the Data's PIT take instead of
//! before (observable only through dead-nonce retirement of the
//! just-forwarded nonce and a zero-RTT strategy feedback); and capacity /
//! byte budgets are split per shard, so under pressure eviction victims
//! can differ from a single global LRU. With `shards = 1` (the default
//! everywhere) the legacy path runs unchanged.

use std::collections::VecDeque;

use lidc_simcore::engine::{Actor, Concurrency, Ctx, Msg};
use lidc_simcore::time::{SimDuration, SimTime};

use crate::face::{Face, FaceId, FaceKind};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::name::Name;
use crate::packet::{Data, Interest, Nack, NackReason, Packet};
use crate::strategy::{BestRoute, Strategy, StrategyCtx};
use crate::tables::cs::CsConfig;
use crate::tables::fib::{Fib, NextHop};
use crate::tables::pit::{InsertOutcome, Pit, PitKey};
use crate::tables::shard::{shard_of, ShardedCs, ShardedPit};

/// A packet arriving at the forwarder on a face. Sent by peer forwarders
/// *and* by local applications injecting packets through their app face.
#[derive(Debug)]
pub struct Rx {
    /// The receiving face (from this forwarder's perspective).
    pub face: FaceId,
    /// The packet.
    pub packet: Packet,
}

/// A burst of packets crossing one link in a single scheduler event: they
/// all arrive on `face` at the same instant, in transmission order. Sent by
/// peer forwarders' wire-batch flush (see the module docs).
#[derive(Debug)]
pub struct RxBatch {
    /// The receiving face (from this forwarder's perspective).
    pub face: FaceId,
    /// The packets, in the order they were transmitted.
    pub packets: Vec<Packet>,
}

/// A packet the forwarder delivers to a local application actor.
#[derive(Debug)]
pub struct AppRx {
    /// The app's face on the forwarder.
    pub face: FaceId,
    /// The packet.
    pub packet: Packet,
}

/// Runtime face addition (topology churn).
#[derive(Debug)]
pub struct AddFace {
    /// Fully-specified face (id allocated by the caller).
    pub face: Face,
}

/// Runtime face removal; routes through the face are dropped.
#[derive(Debug)]
pub struct RemoveFace {
    /// The face to destroy.
    pub face: FaceId,
}

/// Administrative up/down.
#[derive(Debug)]
pub struct SetFaceUp {
    /// The face.
    pub face: FaceId,
    /// New state.
    pub up: bool,
}

/// Runtime link degradation (fault injection): rewrites the mutable
/// degradation fields of a link face's [`LinkProps`](crate::face::LinkProps)
/// in place. `latency_factor: 1.0, extra_loss: 0.0, corrupt: 0.0` heals the
/// link; the base latency/bandwidth/loss are never touched.
#[derive(Debug)]
pub struct DegradeLink {
    /// The link face.
    pub face: FaceId,
    /// Multiplier applied to the link's propagation latency.
    pub latency_factor: f64,
    /// Loss probability added to the link's base loss.
    pub extra_loss: f64,
    /// Per-packet corruption probability. What a corrupted packet turns
    /// into is the sender's [`CorruptionMode`].
    pub corrupt: f64,
}

/// What the link model does to a packet its corruption draw selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptionMode {
    /// Honest corruption: flip one seeded bit of a Data packet (content or
    /// signature bytes) and transmit the damaged packet — the error travels
    /// downstream until signature verification catches it at the next
    /// verify point (`ndn.link_corrupt_flips`). Interests and Nacks carry
    /// no signature for a verifier to check, so they are still dropped at
    /// the link (`ndn.link_corrupt_drops`), as is the rare Data with no
    /// flippable bytes.
    #[default]
    BitFlip,
    /// Legacy idealization: the corrupted packet is dropped *at the link*,
    /// before it ever reaches the peer (`ndn.link_corrupt_drops`) — as if
    /// every hop ran a perfect checksum. Kept behind this flag for
    /// scenarios pinned to the PR-6 corruption semantics.
    Drop,
}

/// Register a route (RIB entry flattened straight into the FIB).
#[derive(Debug)]
pub struct RegisterPrefix {
    /// Name prefix.
    pub prefix: Name,
    /// Next-hop face.
    pub face: FaceId,
    /// Routing cost.
    pub cost: u32,
}

/// Remove a route.
#[derive(Debug)]
pub struct UnregisterPrefix {
    /// Name prefix.
    pub prefix: Name,
    /// Next-hop face.
    pub face: FaceId,
}

/// Install a strategy for a prefix (longest-prefix-match choice).
pub struct SetStrategy {
    /// Prefix the strategy governs.
    pub prefix: Name,
    /// The strategy instance.
    pub strategy: Box<dyn Strategy>,
}

impl std::fmt::Debug for SetStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SetStrategy({} -> {})", self.prefix, self.strategy.strategy_name())
    }
}

/// Internal PIT-expiry timer.
#[derive(Debug)]
struct PitExpire {
    key: PitKey,
    version: u64,
}

/// Forwarder tuning knobs.
#[derive(Debug, Clone)]
pub struct ForwarderConfig {
    /// Content Store capacity in packets (0 disables caching).
    pub cs_capacity: usize,
    /// Content Store byte budget over payload + name cost (0 = no byte
    /// limit). `Default::default()` pairs the default capacity (4096) with
    /// its derived budget (one default-sized 1 MiB segment per slot); when
    /// overriding `cs_capacity` by struct update, use
    /// [`ForwarderConfig::for_cs_capacity`] (or set this field too) so the
    /// budget tracks the new capacity instead of staying at 4 GiB. See
    /// [`crate::tables::cs::CsConfig`] for the segment-aware admission
    /// policy the budget enables.
    pub cs_budget_bytes: u64,
    /// Dead nonce list capacity.
    pub dnl_capacity: usize,
    /// Name-hash shard count for the PIT/CS/dead-nonce tables (1 = the
    /// single-shard tables and the legacy serial ingress). With more
    /// shards, batched bursts take the two-phase ingress (see the module
    /// docs) and large bursts probe the shards on parallel threads.
    /// Capacity and byte budgets are split across shards.
    pub shards: usize,
    /// Delivery latency to application faces. Real NFD apps sit behind a
    /// unix/TCP socket (the paper's NodePort exposure), so the hop is small
    /// but never zero; a nonzero default also keeps request/response
    /// timestamps strictly ordered in single-cluster worlds.
    pub app_face_latency: lidc_simcore::time::SimDuration,
    /// Verify every Data's signature before it can satisfy PIT entries or
    /// enter the Content Store (the cache-poisoning defense; see
    /// docs/INTEGRITY.md). An unverifiable Data counts `ndn.verify_failed`,
    /// leaves the PIT untouched (retransmissions and alternate upstreams
    /// keep working), and — when it would have been cached — counts
    /// `ndn.cs_poison_rejected` and records a quarantine strike against the
    /// ingress face. Default on; turn off only for benches isolating
    /// non-crypto forwarding cost.
    pub verify_data: bool,
    /// What the link corruption model does to a packet it damages.
    pub corruption: CorruptionMode,
    /// Decayed verification-failure strike count at which an ingress face
    /// is quarantined: while at or above this, the face is skipped as a
    /// next hop whenever an alternate exists (`ndn.quarantine_skips`).
    pub quarantine_threshold: f64,
    /// Half-life of the decaying strike counter: a face that stops failing
    /// verification re-earns trust on this timescale.
    pub quarantine_halflife: lidc_simcore::time::SimDuration,
}

impl Default for ForwarderConfig {
    fn default() -> Self {
        ForwarderConfig {
            cs_capacity: 4096,
            cs_budget_bytes: crate::tables::cs::default_budget_bytes(4096),
            dnl_capacity: 8192,
            shards: 1,
            app_face_latency: lidc_simcore::time::SimDuration::from_micros(50),
            verify_data: true,
            corruption: CorruptionMode::BitFlip,
            quarantine_threshold: 3.0,
            quarantine_halflife: lidc_simcore::time::SimDuration::from_secs(30),
        }
    }
}

impl ForwarderConfig {
    /// Defaults with a Content Store of `capacity` entries and the byte
    /// budget derived from it (one default-sized 1 MiB segment per slot) —
    /// the coherent way to resize the store, keeping the two tiers of the
    /// budget coupled.
    pub fn for_cs_capacity(capacity: usize) -> Self {
        ForwarderConfig {
            cs_capacity: capacity,
            cs_budget_bytes: crate::tables::cs::default_budget_bytes(capacity),
            ..Default::default()
        }
    }

    /// Builder: set the PIT/CS/DNL shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Dead Nonce List: remembers (name, nonce) pairs of satisfied/expired
/// Interests so late loops are detected. FIFO-bounded.
#[derive(Debug, Default)]
struct DeadNonceList {
    set: FxHashSet<(Name, u32)>,
    order: VecDeque<(Name, u32)>,
    capacity: usize,
}

impl DeadNonceList {
    fn new(capacity: usize) -> Self {
        DeadNonceList {
            set: FxHashSet::default(),
            order: VecDeque::new(),
            capacity,
        }
    }

    fn insert(&mut self, name: Name, nonce: u32) {
        if self.capacity == 0 {
            return;
        }
        let key = (name, nonce);
        if self.set.insert(key.clone()) {
            self.order.push_back(key);
            while self.order.len() > self.capacity {
                if let Some(old) = self.order.pop_front() {
                    self.set.remove(&old);
                }
            }
        }
    }

    fn contains(&self, name: &Name, nonce: u32) -> bool {
        // HashSet<(Name, u32)> needs an owned-typed key to probe, but a
        // `Name` clone is an O(1) refcount bump (no heap allocation) under
        // the arena representation, so this probe is allocation-free.
        self.set.contains(&(name.clone(), nonce))
    }
}

/// Per-out-link staging bucket (wave-aware link fan-out; see the module
/// docs): every packet staged for one link during the current handler, in
/// staging order. Face `busy_until` is monotone, so per-bucket arrivals are
/// nondecreasing and same-arrival flush groups are *contiguous runs* — the
/// flush needs no hash pass, and a hub's fan-out over N links is N
/// independent bucket walks instead of one interleaved scan.
struct TxBucket {
    /// The peer forwarder.
    peer: lidc_simcore::engine::ActorId,
    /// The peer's face for this link.
    peer_face: FaceId,
    /// `(absolute arrival instant, packet)`, arrivals nondecreasing.
    txs: Vec<(lidc_simcore::time::SimTime, Packet)>,
}

/// One PIT entry satisfied by a Data packet in the shard phase: where to
/// return the Data, plus the strategy feedback the merge phase replays.
#[derive(Debug)]
struct Satisfaction {
    /// Downstream faces to return the Data to. (Named `downstreams`, not
    /// `faces`, so the field can't be confused with the forwarder's
    /// `faces` *map* — this Vec is already in deterministic PIT-record
    /// order.)
    downstreams: Vec<FaceId>,
    /// `(entry name, FIB prefix, upstream face, rtt)` when the Data arrived
    /// on a face the entry had an out-record for.
    feedback: Option<(Name, Name, FaceId, SimDuration)>,
}

/// The per-packet result of the shard phase, replayed by the merge phase in
/// global arrival order (see the module docs for the split).
///
/// Variant sizes intentionally differ: the big variants carry the packet
/// by value precisely to avoid a per-packet box on the hot path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
enum PhasedOutcome {
    /// Interest arrived with hop limit 0.
    HopLimitDrop,
    /// Dead-nonce list hit (probed before the CS, so no cs_miss).
    DnlDup { in_face: FaceId, interest: Interest },
    /// Content Store hit: return the Data downstream.
    CsHit { in_face: FaceId, data: Data },
    /// PIT flagged an exact duplicate (CS missed first).
    PitDup { in_face: FaceId, interest: Interest },
    /// Aggregated into an existing entry; refresh the expiry timer.
    Aggregated {
        key: PitKey,
        version: u64,
        ttl: Option<SimDuration>,
    },
    /// New entry or retransmission: the merge phase runs FIB + strategy
    /// selection and forwards.
    Forward {
        in_face: FaceId,
        interest: Interest,
        key: PitKey,
        version: u64,
        retransmission: bool,
        ttl: Option<SimDuration>,
    },
    /// Data matched no PIT entry (not cached, mirroring the serial path).
    Unsolicited,
    /// Data failed signature verification: never cached, PIT untouched.
    /// `poisoned` is true when PIT entries would have been satisfied (a
    /// cache-poisoning attempt, not line noise on an idle path).
    VerifyFailed {
        in_face: FaceId,
        name: Name,
        poisoned: bool,
    },
    /// Data satisfied one or more exact PIT entries.
    DataDeliver {
        data: Data,
        satisfied: Vec<Satisfaction>,
    },
}

/// Shard-phase handling of one Interest against its shard's tables (see
/// [`Forwarder::on_interest`] for the serial twin; the two must stay in
/// lockstep). Reads the FIB/strategy-free subset only — everything
/// order-sensitive is deferred to the merge phase via the outcome.
fn shard_interest(
    pit: &mut Pit,
    cs: &mut crate::tables::cs::ContentStore,
    dnl: &DeadNonceList,
    now: SimTime,
    in_face: FaceId,
    mut interest: Interest,
) -> PhasedOutcome {
    if let Some(h) = interest.hop_limit {
        if h == 0 {
            return PhasedOutcome::HopLimitDrop;
        }
        interest.hop_limit = Some(h - 1);
    }
    if let Some(nonce) = interest.nonce {
        if dnl.contains(&interest.name, nonce) {
            return PhasedOutcome::DnlDup { in_face, interest };
        }
    }
    if let Some(data) = cs.lookup(&interest, now) {
        return PhasedOutcome::CsHit { in_face, data };
    }
    let key = PitKey::of(&interest);
    let (outcome, version) = pit.insert(&interest, in_face, now);
    let ttl = pit.time_to_expiry(&key, now);
    match outcome {
        InsertOutcome::DuplicateNonce => PhasedOutcome::PitDup { in_face, interest },
        InsertOutcome::Aggregated => PhasedOutcome::Aggregated { key, version, ttl },
        outcome @ (InsertOutcome::New | InsertOutcome::Retransmission) => PhasedOutcome::Forward {
            in_face,
            interest,
            key,
            version,
            retransmission: outcome == InsertOutcome::Retransmission,
            ttl,
        },
    }
}

/// Shard-phase handling of one Data packet (serial twin:
/// [`Forwarder::on_data`]). Runs only when the PIT holds no `CanBePrefix`
/// entries, so exact probes in this shard are the complete match and every
/// satisfied entry's name (== the Data name) retires nonces into this
/// shard's dead-nonce list.
#[allow(clippy::too_many_arguments)] // one shard's disjoint &mut borrows
fn shard_data(
    pit: &mut Pit,
    cs: &mut crate::tables::cs::ContentStore,
    dnl: &mut DeadNonceList,
    keys: &mut Vec<PitKey>,
    fib: &Fib,
    now: SimTime,
    verify: bool,
    data: Data,
    in_face: FaceId,
) -> PhasedOutcome {
    keys.clear();
    // Exact probes already emit in the deterministic match order (plain
    // selector before MustBeFresh, same name).
    pit.match_exact_append(&data.name, keys);
    // Verify gate (serial twin: the same check in `Forwarder::on_data`).
    // Verification is pure per-packet CPU work, so it belongs in the shard
    // phase; the merge phase replays the metrics and quarantine strike.
    if verify && !data.verify(None) {
        let poisoned = !keys.is_empty();
        keys.clear();
        return PhasedOutcome::VerifyFailed { in_face, name: data.name, poisoned };
    }
    if keys.is_empty() {
        return PhasedOutcome::Unsolicited;
    }
    cs.insert(data.clone(), now);
    let mut satisfied = Vec::with_capacity(keys.len());
    for key in keys.drain(..) {
        let Some(entry) = pit.take(&key) else {
            continue;
        };
        let feedback = entry.out_record(in_face).and_then(|out| {
            let rtt = now.since(out.sent_at);
            fib.lookup(&entry.interest.name)
                .map(|fe| (entry.interest.name.clone(), fe.prefix.clone(), in_face, rtt))
        });
        for rec in &entry.in_records {
            if let Some(n) = rec.nonce {
                dnl.insert(entry.interest.name.clone(), n);
            }
        }
        for rec in &entry.out_records {
            if let Some(n) = rec.nonce {
                dnl.insert(entry.interest.name.clone(), n);
            }
        }
        satisfied.push(Satisfaction {
            downstreams: entry.return_faces(in_face),
            feedback,
        });
    }
    PhasedOutcome::DataDeliver { data, satisfied }
}

/// Run one shard's slice of the burst (arrival order within the shard),
/// filling `scratch.outcomes`. This is the function the parallel ingress
/// fans out over scoped threads — it touches only its own shard's tables
/// plus the read-only FIB.
fn run_shard_phase(
    pit: &mut Pit,
    cs: &mut crate::tables::cs::ContentStore,
    dnl: &mut DeadNonceList,
    scratch: &mut ShardScratch,
    fib: &Fib,
    now: SimTime,
    verify: bool,
) {
    let ShardScratch {
        packets,
        outcomes,
        keys,
    } = scratch;
    outcomes.clear();
    for (idx, face, packet) in packets.drain(..) {
        let outcome = match packet {
            Packet::Interest(i) => shard_interest(pit, cs, dnl, now, face, i),
            Packet::Data(d) => shard_data(pit, cs, dnl, keys, fib, now, verify, d, face),
            // lidc-lint: allow(panic-path) reason="phased runs pre-filter nacks onto the serial path, so shard batches hold only interests and data"
            Packet::Nack(_) => unreachable!("nacks never enter the phased path"),
        };
        outcomes.push((idx, outcome));
    }
}

/// Per-shard scratch for the two-phase ingress: the shard's packet slice of
/// the current burst, its emitted outcomes, and a reused PIT-key buffer.
/// Allocated once per shard; reused across bursts so steady-state parallel
/// ingress performs no per-burst buffer allocation beyond outcome payloads.
#[derive(Debug, Default)]
struct ShardScratch {
    packets: Vec<(u32, FaceId, Packet)>,
    outcomes: Vec<(u32, PhasedOutcome)>,
    keys: Vec<PitKey>,
}

/// The forwarder actor.
pub struct Forwarder {
    label: String,
    config: ForwarderConfig,
    faces: FxHashMap<FaceId, Face>,
    fib: Fib,
    pit: ShardedPit,
    cs: ShardedCs,
    /// Dead nonce lists, one per shard (same name-hash routing as PIT/CS).
    dnl: Vec<DeadNonceList>,
    /// Per-prefix strategies; longest-prefix-match choice with the root
    /// prefix always present (BestRoute by default).
    strategies: Vec<(Name, Box<dyn Strategy>)>,
    /// Reused buffer for PIT data-match results: Data arrivals fill this in
    /// place instead of allocating a fresh Vec per packet.
    pit_match_scratch: Vec<PitKey>,
    /// Link transmissions staged during the current handler invocation,
    /// bucketed by out-link in first-staged face order.
    tx_buckets: Vec<TxBucket>,
    /// Recycled bucket buffers (flushing empties a bucket but keeps its
    /// allocation for the next handler).
    tx_spare: Vec<Vec<(lidc_simcore::time::SimTime, Packet)>>,
    /// Per-shard scratch for the two-phase ingress (empty when shards = 1).
    shard_scratch: Vec<ShardScratch>,
    /// Reused arrival-order packet buffer for the current burst run.
    run_buf: Vec<(FaceId, Packet)>,
    /// Decaying per-face verification-failure strikes:
    /// `face → (strike count at last update, last update instant)`. Point
    /// lookups only — never iterated — so map order cannot leak into
    /// behavior. See [`ForwarderConfig::quarantine_threshold`].
    quarantine: FxHashMap<FaceId, (f64, SimTime)>,
}

/// Bursts below this size run the shard phase serially: scoped-thread
/// startup would cost more than the table work it parallelizes. Results
/// are identical either way; only wall-clock differs.
const PARALLEL_INGRESS_MIN: usize = 64;

/// The host's usable core count, cached — the threaded-or-inline decision
/// runs per large burst and must not pay a syscall each time.
fn host_parallelism() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

impl Forwarder {
    /// Create a forwarder with the given diagnostics label and config.
    pub fn new(label: impl Into<String>, config: ForwarderConfig) -> Self {
        let shards = config.shards.max(1);
        let dnl_caps = crate::tables::shard::split_capacity(config.dnl_capacity, shards);
        Forwarder {
            label: label.into(),
            faces: FxHashMap::default(),
            fib: Fib::new(),
            pit: ShardedPit::new(shards),
            cs: ShardedCs::with_config(
                CsConfig {
                    capacity: config.cs_capacity,
                    budget_bytes: config.cs_budget_bytes,
                    ..Default::default()
                },
                shards,
            ),
            dnl: dnl_caps.into_iter().map(DeadNonceList::new).collect(),
            strategies: vec![(Name::root(), Box::new(BestRoute::new()))],
            pit_match_scratch: Vec::new(),
            tx_buckets: Vec::new(),
            tx_spare: Vec::new(),
            shard_scratch: (0..shards).map(|_| ShardScratch::default()).collect(),
            run_buf: Vec::new(),
            quarantine: FxHashMap::default(),
            config,
        }
    }

    /// Diagnostics label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Add a face (pre-run topology building or via [`AddFace`]).
    pub fn add_face(&mut self, face: Face) {
        self.faces.insert(face.id, face);
    }

    /// Face lookup (tests/diagnostics).
    pub fn face(&self, id: FaceId) -> Option<&Face> {
        self.faces.get(&id)
    }

    /// All face ids, sorted (diagnostics).
    pub fn face_ids(&self) -> Vec<FaceId> {
        let mut ids: Vec<FaceId> = self.faces.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Register a route.
    pub fn register_prefix(&mut self, prefix: Name, face: FaceId, cost: u32) {
        self.fib.add_nexthop(prefix, face, cost);
    }

    /// Remove a route.
    pub fn unregister_prefix(&mut self, prefix: &Name, face: FaceId) {
        self.fib.remove_nexthop(prefix, face);
    }

    /// Install `strategy` for `prefix`, replacing any previous choice.
    pub fn set_strategy(&mut self, prefix: Name, strategy: Box<dyn Strategy>) {
        if let Some(slot) = self.strategies.iter_mut().find(|(p, _)| *p == prefix) {
            slot.1 = strategy;
        } else {
            self.strategies.push((prefix, strategy));
        }
    }

    /// The (sharded) Content Store (tests/diagnostics). One shard with the
    /// default config.
    pub fn cs(&self) -> &ShardedCs {
        &self.cs
    }

    /// The FIB (tests/diagnostics).
    pub fn fib(&self) -> &Fib {
        &self.fib
    }

    /// The (sharded) PIT (tests/diagnostics). One shard with the default
    /// config.
    pub fn pit(&self) -> &ShardedPit {
        &self.pit
    }

    /// Probe a dead-nonce entry through the name's shard.
    fn dnl_contains(&self, name: &Name, nonce: u32) -> bool {
        self.dnl[shard_of(name, self.dnl.len())].contains(name, nonce)
    }

    /// Retire a nonce into the name's shard.
    fn dnl_insert(&mut self, name: Name, nonce: u32) {
        let s = shard_of(&name, self.dnl.len());
        // lidc-lint: allow(panic-path) reason="shard_of reduces modulo self.dnl.len(), which every constructor pins at one or more shards"
        self.dnl[s].insert(name, nonce);
    }

    /// Strike count for `face` decayed to `now` (pure function of the
    /// stored `(count, last_update)` pair — deterministic at any thread
    /// count).
    fn decayed_strikes(&self, face: FaceId, now: SimTime) -> f64 {
        let Some((count, at)) = self.quarantine.get(&face) else {
            return 0.0;
        };
        let dt = now.since(*at).as_secs_f64();
        let halflife = self.config.quarantine_halflife.as_secs_f64().max(1e-9);
        count * 0.5f64.powf(dt / halflife)
    }

    /// True while `face`'s decayed strikes sit at or above the quarantine
    /// threshold (public for tests/diagnostics).
    pub fn is_quarantined(&self, face: FaceId, now: SimTime) -> bool {
        self.decayed_strikes(face, now) >= self.config.quarantine_threshold
    }

    /// Record one verification-failure strike against an ingress face.
    fn record_verify_strike(&mut self, face: FaceId, now: SimTime, ctx: &mut Ctx<'_>) {
        let strikes = self.decayed_strikes(face, now) + 1.0;
        self.quarantine.insert(face, (strikes, now));
        ctx.metrics().incr("ndn.quarantine_strikes", 1);
    }

    /// Shared handling of a Data that failed signature verification
    /// (serial path and phased merge replay): count it, and when it was a
    /// poisoning attempt (PIT entries would have been satisfied), strike
    /// the ingress face and tell the strategy so forwarding steers away.
    /// The PIT is deliberately left untouched — downstream retransmissions
    /// and alternate upstreams still have a live entry to satisfy.
    fn on_verify_failed(
        &mut self,
        in_face: FaceId,
        name: &Name,
        poisoned: bool,
        ctx: &mut Ctx<'_>,
    ) {
        ctx.metrics().incr("ndn.verify_failed", 1);
        if !poisoned {
            return;
        }
        ctx.metrics().incr("ndn.cs_poison_rejected", 1);
        self.record_verify_strike(in_face, ctx.now(), ctx);
        if let Some(fib_entry) = self.fib.lookup(name) {
            let prefix = fib_entry.prefix.clone();
            let sidx = self.strategy_index_for(name);
            // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
            self.strategies[sidx].1.on_failure(&prefix, in_face);
        }
    }

    fn strategy_index_for(&self, name: &Name) -> usize {
        let mut best: usize = 0;
        let mut best_len: isize = -1;
        for (i, (prefix, _)) in self.strategies.iter().enumerate() {
            if prefix.is_prefix_of(name) && (prefix.len() as isize) > best_len {
                best = i;
                best_len = prefix.len() as isize;
            }
        }
        best
    }

    fn send_packet(&mut self, face_id: FaceId, packet: Packet, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let Some(face) = self.faces.get_mut(&face_id) else {
            ctx.metrics().incr("ndn.tx_no_such_face", 1);
            return;
        };
        if !face.up {
            face.counters.dropped += 1;
            ctx.metrics().incr("ndn.tx_face_down", 1);
            return;
        }
        match packet {
            Packet::Interest(_) => face.counters.out_interests += 1,
            Packet::Data(_) => face.counters.out_data += 1,
            Packet::Nack(_) => face.counters.out_nacks += 1,
        }
        match face.kind.clone() {
            FaceKind::App { actor } => {
                ctx.send_after(self.config.app_face_latency, actor, AppRx {
                    face: face_id,
                    packet,
                });
            }
            FaceKind::Link {
                peer,
                peer_face,
                props,
            } => {
                // `effective_loss` folds in fault-injected extra loss; with
                // no degradation active it equals `loss`, so the RNG draw
                // count (and thus every seeded run) is unchanged.
                let loss = props.effective_loss();
                if loss > 0.0 && ctx.rng().next_bool(loss) {
                    // lidc-lint: allow(panic-path) reason="send_packet's guarded head already resolved face_id and returned on a miss; the map is untouched since"
                    let face = self.faces.get_mut(&face_id).expect("face exists");
                    face.counters.dropped += 1;
                    ctx.metrics().incr("ndn.link_loss_drops", 1);
                    return;
                }
                // Corruption: one draw decides *whether* the packet is
                // damaged (no draw at all while the link is healthy, so
                // seeded runs without corruption faults are unchanged);
                // the mode decides what the damage looks like. BitFlip
                // draws one extra u64 to pick the bit — only on the
                // already-rare corrupting branch.
                let mut packet = packet;
                if props.corrupt > 0.0 && ctx.rng().next_bool(props.corrupt) {
                    let flipped = match (&self.config.corruption, &mut packet) {
                        (CorruptionMode::BitFlip, Packet::Data(data)) => {
                            let bit = ctx.rng().next_u64();
                            data.flip_bit(bit)
                        }
                        // Drop mode, Interests, Nacks, and unflippable Data
                        // all fall back to the link-level drop.
                        _ => false,
                    };
                    if flipped {
                        ctx.metrics().incr("ndn.link_corrupt_flips", 1);
                    } else {
                        // lidc-lint: allow(panic-path) reason="send_packet's guarded head already resolved face_id and returned on a miss; the map is untouched since"
                        let face = self.faces.get_mut(&face_id).expect("face exists");
                        face.counters.dropped += 1;
                        ctx.metrics().incr("ndn.link_corrupt_drops", 1);
                        return;
                    }
                }
                // Serialisation delay only matters on rate-limited links.
                let transmit = match props.bandwidth_bps {
                    Some(_) => props.transmit_time(packet.encoded_size()),
                    None => lidc_simcore::time::SimDuration::ZERO,
                };
                // lidc-lint: allow(panic-path) reason="send_packet's guarded head already resolved face_id and returned on a miss; the map is untouched since"
                let face = self.faces.get_mut(&face_id).expect("face exists");
                let start = face.busy_until.max(now);
                face.busy_until = start + transmit;
                let arrival = face.busy_until + props.effective_latency();
                // Stage instead of scheduling: the end-of-handler flush
                // merges same-(link, arrival) packets into one event.
                self.stage_tx(peer, peer_face, arrival, packet);
            }
        }
    }

    /// Stage one link transmission into its out-link bucket (created on
    /// first use this handler, in staging order). The bucket count is the
    /// handler's distinct out-link count — single digits even on a hub — so
    /// a linear probe beats hashing per packet.
    fn stage_tx(
        &mut self,
        peer: lidc_simcore::engine::ActorId,
        peer_face: FaceId,
        arrival: lidc_simcore::time::SimTime,
        packet: Packet,
    ) {
        if let Some(bucket) = self.tx_buckets.iter_mut().find(|b| b.peer_face == peer_face) {
            debug_assert!(
                bucket.txs.last().is_none_or(|(a, _)| *a <= arrival),
                "per-face arrivals must be nondecreasing"
            );
            bucket.txs.push((arrival, packet));
        } else {
            let mut txs = self.tx_spare.pop().unwrap_or_default();
            txs.push((arrival, packet));
            self.tx_buckets.push(TxBucket {
                peer,
                peer_face,
                txs,
            });
        }
    }

    /// Emit every staged link transmission, one scheduler event per
    /// `(link, arrival instant)` group, bucket by bucket in first-staged
    /// face order. Called once at the end of each handler invocation (per
    /// message when the engine delivers singly, per burst under batched
    /// dispatch). Per-bucket arrivals are nondecreasing, so same-arrival
    /// groups are contiguous runs — no hash pass, and each out-link's
    /// fan-out walks independently: each link's `RxBatch` is one event for
    /// one peer, which the peer receives as one batch and which can join a
    /// same-instant wave alongside other peers' batches.
    fn flush_tx(&mut self, ctx: &mut Ctx<'_>) {
        if self.tx_buckets.is_empty() {
            return;
        }
        let now = ctx.now();
        let mut buckets = std::mem::take(&mut self.tx_buckets);
        for bucket in &mut buckets {
            let mut txs = bucket.txs.drain(..).peekable();
            while let Some((arrival, packet)) = txs.next() {
                let delay = arrival.since(now);
                if txs.peek().is_some_and(|(a, _)| *a == arrival) {
                    let mut packets = vec![packet];
                    while let Some((a, _)) = txs.peek() {
                        if *a != arrival {
                            break;
                        }
                        // lidc-lint: allow(panic-path) reason="the peek on the same iterator just returned an entry with this arrival time"
                        packets.push(txs.next().expect("peeked").1);
                    }
                    ctx.metrics().incr("ndn.batch.link_flushes", 1);
                    ctx.metrics()
                        .incr("ndn.batch.link_packets", packets.len() as u64);
                    ctx.send_after(delay, bucket.peer, RxBatch {
                        face: bucket.peer_face,
                        packets,
                    });
                } else {
                    ctx.send_after(delay, bucket.peer, Rx {
                        face: bucket.peer_face,
                        packet,
                    });
                }
            }
        }
        // Recycle the emptied bucket buffers for the next handler.
        for bucket in buckets {
            self.tx_spare.push(bucket.txs);
        }
    }

    fn nack_to(&mut self, face: FaceId, reason: NackReason, interest: Interest, ctx: &mut Ctx<'_>) {
        self.send_packet(face, Packet::Nack(Nack::new(reason, interest)), ctx);
    }

    fn on_interest(&mut self, in_face: FaceId, mut interest: Interest, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.metrics().incr("ndn.rx_interests", 1);
        if let Some(face) = self.faces.get_mut(&in_face) {
            face.counters.in_interests += 1;
        }
        // Hop limit.
        if let Some(h) = interest.hop_limit {
            if h == 0 {
                ctx.metrics().incr("ndn.hop_limit_drops", 1);
                return;
            }
            interest.hop_limit = Some(h - 1);
        }
        // Dead-nonce loop suppression.
        if let Some(nonce) = interest.nonce {
            if self.dnl_contains(&interest.name, nonce) {
                ctx.metrics().incr("ndn.duplicate_nonce", 1);
                self.nack_to(in_face, NackReason::Duplicate, interest, ctx);
                return;
            }
        }
        // Content Store.
        if let Some(data) = self.cs.lookup(&interest, now) {
            ctx.metrics().incr("ndn.cs_hits", 1);
            self.send_packet(in_face, Packet::Data(data), ctx);
            return;
        }
        ctx.metrics().incr("ndn.cs_misses", 1);
        // PIT.
        let key = PitKey::of(&interest);
        let (outcome, version) = self.pit.insert(&interest, in_face, now);
        match outcome {
            InsertOutcome::DuplicateNonce => {
                ctx.metrics().incr("ndn.duplicate_nonce", 1);
                self.nack_to(in_face, NackReason::Duplicate, interest, ctx);
            }
            InsertOutcome::Aggregated => {
                ctx.metrics().incr("ndn.pit_aggregated", 1);
                self.schedule_expiry(&key, version, ctx);
            }
            outcome @ (InsertOutcome::New | InsertOutcome::Retransmission) => {
                self.schedule_expiry(&key, version, ctx);
                self.forward_interest(
                    in_face,
                    interest,
                    key,
                    outcome == InsertOutcome::Retransmission,
                    ctx,
                );
            }
        }
    }

    fn schedule_expiry(&mut self, key: &PitKey, version: u64, ctx: &mut Ctx<'_>) {
        if let Some(ttl) = self.pit.time_to_expiry(key, ctx.now()) {
            ctx.schedule_self(ttl, PitExpire {
                key: key.clone(),
                version,
            });
        }
    }

    fn forward_interest(
        &mut self,
        in_face: FaceId,
        interest: Interest,
        key: PitKey,
        is_retransmission: bool,
        ctx: &mut Ctx<'_>,
    ) {
        let Some(entry) = self.fib.lookup(&interest.name) else {
            ctx.metrics().incr("ndn.no_route", 1);
            self.pit.take(&key);
            self.nack_to(in_face, NackReason::NoRoute, interest, ctx);
            return;
        };
        let prefix = entry.prefix.clone();
        let mut eligible: Vec<NextHop> = entry
            .nexthops
            .iter()
            .filter(|nh| {
                nh.face != in_face
                    && self
                        .faces
                        .get(&nh.face)
                        .map(|f| f.up)
                        .unwrap_or(false)
            })
            .copied()
            .collect();
        // Quarantine filter: skip next hops whose face is serving
        // unverifiable Data — but only while an untainted alternate
        // exists (availability beats purity when every route is suspect).
        if !self.quarantine.is_empty() {
            let now = ctx.now();
            let suspect = eligible
                .iter()
                .filter(|nh| self.is_quarantined(nh.face, now))
                .count();
            if suspect > 0 && suspect < eligible.len() {
                eligible.retain(|nh| !self.is_quarantined(nh.face, now));
                ctx.metrics().incr("ndn.quarantine_skips", suspect as u64);
            }
        }
        let sidx = self.strategy_index_for(&interest.name);
        let selected = {
            // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
            let (_, strategy) = &mut self.strategies[sidx];
            let mut sctx = StrategyCtx {
                interest: &interest,
                nexthops: &eligible,
                prefix: &prefix,
                in_face,
                is_retransmission,
                now: ctx.now(),
                rng: ctx.rng(),
            };
            strategy.select(&mut sctx)
        };
        if selected.is_empty() {
            ctx.metrics().incr("ndn.no_route", 1);
            self.pit.take(&key);
            self.nack_to(in_face, NackReason::NoRoute, interest, ctx);
            return;
        }
        for out_face in selected {
            self.pit
                .add_out_record(&key, out_face, interest.nonce, ctx.now());
            self.send_packet(out_face, Packet::Interest(interest.clone()), ctx);
        }
        ctx.metrics().incr("ndn.interests_forwarded", 1);
    }

    fn on_data(&mut self, in_face: FaceId, data: Data, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        ctx.metrics().incr("ndn.rx_data", 1);
        if let Some(face) = self.faces.get_mut(&in_face) {
            face.counters.in_data += 1;
        }
        let mut keys = std::mem::take(&mut self.pit_match_scratch);
        self.pit.match_data_into(&data.name, &mut keys);
        // Verify gate, *before* CS admission and PIT satisfaction: an
        // unverifiable Data is never cached and never consumes the PIT
        // entries it targeted (phased twin: `shard_data`'s VerifyFailed).
        if self.config.verify_data && !data.verify(None) {
            let poisoned = !keys.is_empty();
            keys.clear();
            self.pit_match_scratch = keys;
            self.on_verify_failed(in_face, &data.name, poisoned, ctx);
            return;
        }
        if keys.is_empty() {
            self.pit_match_scratch = keys;
            ctx.metrics().incr("ndn.unsolicited_data", 1);
            return;
        }
        // Insert into the CS, then surface what the two-tier budget did:
        // eviction counts/bytes and admission rejections are lifetime
        // counters on the store, so deltas around the insert attribute the
        // work to metrics without the store knowing about the metrics sink.
        let (ev0, evb0, rej0) = (
            self.cs.evictions(),
            self.cs.evicted_bytes(),
            self.cs.admission_rejections(),
        );
        self.cs.insert(data.clone(), now);
        let evicted = self.cs.evictions() - ev0;
        if evicted > 0 {
            ctx.metrics().incr("ndn.cs_evict.count", evicted);
            ctx.metrics()
                .incr("ndn.cs_evict.bytes", self.cs.evicted_bytes() - evb0);
        }
        let rejected = self.cs.admission_rejections() - rej0;
        if rejected > 0 {
            ctx.metrics().incr("ndn.cs_admission_rejected", rejected);
        }
        ctx.metrics()
            .set_max("ndn.cs_bytes_used_peak", self.cs.bytes_used());
        for key in keys.drain(..) {
            let Some(entry) = self.pit.take(&key) else {
                continue;
            };
            // Strategy RTT feedback for the upstream that answered.
            if let Some(out) = entry.out_record(in_face) {
                let rtt = now.since(out.sent_at);
                if let Some(fib_entry) = self.fib.lookup(&entry.interest.name) {
                    let prefix = fib_entry.prefix.clone();
                    let sidx = self.strategy_index_for(&entry.interest.name);
                    // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                    self.strategies[sidx].1.on_data(&prefix, in_face, rtt);
                }
            }
            // Retire nonces.
            for rec in &entry.in_records {
                if let Some(n) = rec.nonce {
                    self.dnl_insert(entry.interest.name.clone(), n);
                }
            }
            for rec in &entry.out_records {
                if let Some(n) = rec.nonce {
                    self.dnl_insert(entry.interest.name.clone(), n);
                }
            }
            for face in entry.return_faces(in_face) {
                self.send_packet(face, Packet::Data(data.clone()), ctx);
            }
            ctx.metrics().incr("ndn.pit_satisfied", 1);
        }
        self.pit_match_scratch = keys;
    }

    fn on_nack(&mut self, in_face: FaceId, nack: Nack, ctx: &mut Ctx<'_>) {
        ctx.metrics().incr("ndn.rx_nacks", 1);
        if let Some(face) = self.faces.get_mut(&in_face) {
            face.counters.in_nacks += 1;
        }
        let key = PitKey::of(&nack.interest);
        let Some(entry) = self.pit.get_mut(&key) else {
            return;
        };
        entry.out_records.retain(|r| r.face != in_face);
        let exhausted = entry.out_records.is_empty();
        // Strategy failure feedback.
        if let Some(fib_entry) = self.fib.lookup(&nack.interest.name) {
            let prefix = fib_entry.prefix.clone();
            let sidx = self.strategy_index_for(&nack.interest.name);
            // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
            self.strategies[sidx].1.on_failure(&prefix, in_face);
        }
        if exhausted {
            if let Some(entry) = self.pit.take(&key) {
                for rec in &entry.in_records {
                    self.nack_to(rec.face, nack.reason, entry.interest.clone(), ctx);
                }
            }
        }
    }

    /// A face went down: rescue or terminate every PIT entry referencing it.
    ///
    /// Entries whose Interest went upstream over the dead face are retried
    /// over an alternate next hop (presented to the strategy as a
    /// retransmission so rotating strategies escape the broken path);
    /// entries whose only downstream was the dead face are dropped; entries
    /// with no usable alternate are NACKed to their requesters instead of
    /// silently timing out.
    fn on_face_down(&mut self, dead: FaceId, ctx: &mut Ctx<'_>) {
        // Collect affected keys first (canonically ordered so the rescue
        // sequence — and thus RNG draws and packet order — is deterministic
        // regardless of hash-map iteration order).
        let mut affected: Vec<PitKey> = Vec::new();
        for shard in self.pit.shards() {
            for key in shard.keys() {
                let touches = shard.get(key).is_some_and(|e| {
                    e.in_records.iter().any(|r| r.face == dead)
                        || e.out_records.iter().any(|r| r.face == dead)
                });
                if touches {
                    affected.push(key.clone());
                }
            }
        }
        affected.sort_by(|a, b| {
            a.name
                .cmp(&b.name)
                .then(a.can_be_prefix.cmp(&b.can_be_prefix))
                .then(a.must_be_fresh.cmp(&b.must_be_fresh))
        });
        for key in affected {
            let Some(entry) = self.pit.get_mut(&key) else {
                continue;
            };
            let went_upstream = entry.out_records.iter().any(|r| r.face == dead);
            entry.in_records.retain(|r| r.face != dead);
            entry.out_records.retain(|r| r.face != dead);
            if entry.in_records.is_empty() {
                // Nobody is waiting downstream any more.
                self.pit.take(&key);
                continue;
            }
            if !went_upstream {
                // Only a downstream requester died; the Interest is still
                // in flight on live faces.
                continue;
            }
            let interest = entry.interest.clone();
            let in_faces: Vec<FaceId> = entry.in_records.iter().map(|r| r.face).collect();
            let out_faces: Vec<FaceId> = entry.out_records.iter().map(|r| r.face).collect();
            // Tell the strategy the face failed for this prefix.
            let (prefix, eligible) = match self.fib.lookup(&interest.name) {
                Some(fib_entry) => {
                    let prefix = fib_entry.prefix.clone();
                    let eligible: Vec<NextHop> = fib_entry
                        .nexthops
                        .iter()
                        .filter(|nh| {
                            nh.face != dead
                                && !out_faces.contains(&nh.face)
                                && !in_faces.contains(&nh.face)
                                && self.faces.get(&nh.face).map(|f| f.up).unwrap_or(false)
                        })
                        .copied()
                        .collect();
                    (Some(prefix), eligible)
                }
                None => (None, Vec::new()),
            };
            let sidx = self.strategy_index_for(&interest.name);
            if let Some(prefix) = &prefix {
                // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                self.strategies[sidx].1.on_failure(prefix, dead);
            }
            let selected = match &prefix {
                Some(prefix) if !eligible.is_empty() => {
                    // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                    let (_, strategy) = &mut self.strategies[sidx];
                    let mut sctx = StrategyCtx {
                        interest: &interest,
                        nexthops: &eligible,
                        prefix,
                        in_face: in_faces[0],
                        is_retransmission: true,
                        now: ctx.now(),
                        rng: ctx.rng(),
                    };
                    strategy.select(&mut sctx)
                }
                _ => Vec::new(),
            };
            if !selected.is_empty() {
                for out_face in selected {
                    self.pit.add_out_record(&key, out_face, interest.nonce, ctx.now());
                    self.send_packet(out_face, Packet::Interest(interest.clone()), ctx);
                }
                ctx.metrics().incr("ndn.face_down_rerouted", 1);
            } else if out_faces.is_empty() {
                // No surviving upstream and no alternate: terminate the
                // entry with a NACK to every waiting requester.
                self.pit.take(&key);
                for in_face in in_faces {
                    self.nack_to(in_face, NackReason::NoRoute, interest.clone(), ctx);
                }
                ctx.metrics().incr("ndn.face_down_nacked", 1);
            }
        }
    }

    fn on_pit_expire(&mut self, key: PitKey, version: u64, ctx: &mut Ctx<'_>) {
        if let Some(entry) = self.pit.expire_if_stale(&key, version, ctx.now()) {
            ctx.metrics().incr("ndn.pit_expired", 1);
            if let Some(fib_entry) = self.fib.lookup(&entry.interest.name) {
                let prefix = fib_entry.prefix.clone();
                let sidx = self.strategy_index_for(&entry.interest.name);
                for out in &entry.out_records {
                    // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                    self.strategies[sidx].1.on_failure(&prefix, out.face);
                }
            }
        }
    }
}

impl Forwarder {
    /// Ingest one packet that arrived on `face` (shared by [`Rx`] and
    /// [`RxBatch`] handling).
    fn on_packet(&mut self, face: FaceId, packet: Packet, ctx: &mut Ctx<'_>) {
        if let Some(f) = self.faces.get(&face) {
            if !f.up {
                ctx.metrics().incr("ndn.rx_face_down", 1);
                return;
            }
        } else {
            ctx.metrics().incr("ndn.rx_no_such_face", 1);
            return;
        }
        match packet {
            Packet::Interest(i) => self.on_interest(face, i, ctx),
            Packet::Data(d) => self.on_data(face, d, ctx),
            Packet::Nack(n) => self.on_nack(face, n, ctx),
        }
    }

    /// Dispatch one message, *without* flushing staged transmissions — the
    /// `Actor` impl flushes once per handler invocation so a batched burst
    /// shares one flush.
    fn handle(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<Rx>() {
            Ok(rx) => {
                let rx = *rx;
                self.on_packet(rx.face, rx.packet, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RxBatch>() {
            Ok(batch) => {
                let batch = *batch;
                for packet in batch.packets {
                    self.on_packet(batch.face, packet, ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<PitExpire>() {
            Ok(e) => {
                self.on_pit_expire(e.key.clone(), e.version, ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<AddFace>() {
            Ok(f) => {
                self.add_face(f.face);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RemoveFace>() {
            Ok(f) => {
                self.faces.remove(&f.face);
                self.fib.remove_face(f.face);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SetFaceUp>() {
            Ok(s) => {
                let was_up = match self.faces.get_mut(&s.face) {
                    Some(face) => {
                        let was = face.up;
                        face.up = s.up;
                        was
                    }
                    None => return,
                };
                if was_up && !s.up {
                    self.on_face_down(s.face, ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DegradeLink>() {
            Ok(d) => {
                if let Some(face) = self.faces.get_mut(&d.face) {
                    if let FaceKind::Link { props, .. } = &mut face.kind {
                        props.latency_factor = d.latency_factor;
                        props.extra_loss = d.extra_loss;
                        props.corrupt = d.corrupt;
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RegisterPrefix>() {
            Ok(r) => {
                self.register_prefix(r.prefix, r.face, r.cost);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<UnregisterPrefix>() {
            Ok(u) => {
                self.unregister_prefix(&u.prefix, u.face);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<SetStrategy>() {
            Ok(s) => {
                let s = *s;
                self.set_strategy(s.prefix, s.strategy);
            }
            Err(_) => {
                ctx.metrics().incr("ndn.unknown_message", 1);
            }
        }
    }
}

impl Forwarder {
    /// Whether the buffered packet run may take the two-phase path: no
    /// Nacks, no `CanBePrefix` Interests, and no Data while prefix PIT
    /// entries are resident (the only cases where one packet's table work
    /// can cross shards — see the module docs).
    fn run_is_phasable(&self, run: &[(FaceId, Packet)]) -> bool {
        let mut has_data = false;
        for (_, packet) in run {
            match packet {
                Packet::Interest(i) => {
                    if i.can_be_prefix {
                        return false;
                    }
                }
                Packet::Data(_) => has_data = true,
                Packet::Nack(_) => return false,
            }
        }
        !has_data || self.pit.prefix_entry_count() == 0
    }

    /// Process and clear the buffered packet run (arrival order), choosing
    /// between the serial per-packet path and the two-phase sharded path.
    fn flush_run(&mut self, ctx: &mut Ctx<'_>) {
        if self.run_buf.is_empty() {
            return;
        }
        let mut run = std::mem::take(&mut self.run_buf);
        if run.len() < 2 || !self.run_is_phasable(&run) {
            for (face, packet) in run.drain(..) {
                self.on_packet(face, packet, ctx);
            }
        } else {
            self.process_run_phased(&mut run, ctx);
        }
        run.clear();
        // Reclaim the buffer unless a nested path repopulated it.
        if self.run_buf.is_empty() {
            self.run_buf = run;
        }
    }

    /// Two-phase ingress of one packet run (see the module docs): partition
    /// by name shard, run per-shard table work (threaded for large bursts),
    /// then replay the outcomes serially in global arrival order.
    fn process_run_phased(&mut self, run: &mut Vec<(FaceId, Packet)>, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let shards = self.shard_scratch.len();
        let total = run.len();
        // CS budget/admission deltas for the whole run (the serial path
        // attributes them per insert; run totals are identical).
        let (ev0, evb0, rej0) = (
            self.cs.evictions(),
            self.cs.evicted_bytes(),
            self.cs.admission_rejections(),
        );
        // Partition: ingress checks and face counters in arrival order.
        for (idx, (face_id, packet)) in run.drain(..).enumerate() {
            match self.faces.get_mut(&face_id) {
                None => {
                    ctx.metrics().incr("ndn.rx_no_such_face", 1);
                    continue;
                }
                Some(face) if !face.up => {
                    ctx.metrics().incr("ndn.rx_face_down", 1);
                    continue;
                }
                Some(face) => match &packet {
                    Packet::Interest(_) => {
                        face.counters.in_interests += 1;
                        ctx.metrics().incr("ndn.rx_interests", 1);
                    }
                    Packet::Data(_) => {
                        face.counters.in_data += 1;
                        ctx.metrics().incr("ndn.rx_data", 1);
                    }
                    // lidc-lint: allow(panic-path) reason="phasable runs are selected to exclude nacks before entering this path"
                    Packet::Nack(_) => unreachable!("phasable runs exclude nacks"),
                },
            }
            let s = shard_of(packet.name(), shards);
            // lidc-lint: allow(panic-path) reason="shard_of reduces modulo shards, the length shard_scratch was sized to"
            self.shard_scratch[s].packets.push((idx as u32, face_id, packet));
        }
        // Shard phase: threaded when the burst amortizes thread startup,
        // serial otherwise — bit-identical results either way.
        let active = self
            .shard_scratch
            .iter()
            .filter(|s| !s.packets.is_empty())
            .count();
        let parallel = active > 1 && total >= PARALLEL_INGRESS_MIN;
        if parallel {
            ctx.metrics().incr("ndn.parallel.runs", 1);
            ctx.metrics().incr("ndn.parallel.packets", total as u64);
        }
        // Spawn shard threads only when the host has cores to run them on;
        // a single-CPU host processes the shards inline (same phases, same
        // order within each shard, bit-identical results).
        let threaded = parallel && host_parallelism() > 1;
        {
            let fib = &self.fib;
            let verify = self.config.verify_data;
            let work = self
                .pit
                .shards_mut()
                .iter_mut()
                .zip(self.cs.shards_mut().iter_mut())
                .zip(self.dnl.iter_mut())
                .zip(self.shard_scratch.iter_mut())
                .filter(|(_, scratch)| !scratch.packets.is_empty());
            if threaded {
                std::thread::scope(|scope| {
                    for (((pit, cs), dnl), scratch) in work {
                        scope.spawn(move || {
                            run_shard_phase(pit, cs, dnl, scratch, fib, now, verify)
                        });
                    }
                });
            } else {
                for (((pit, cs), dnl), scratch) in work {
                    run_shard_phase(pit, cs, dnl, scratch, fib, now, verify);
                }
            }
        }
        // Merge phase: replay outcomes in global arrival order. Each
        // shard's outcome list is already idx-sorted (shards process their
        // packets in arrival order), so a k-way cursor merge visits global
        // order without re-buffering the (large) outcome values.
        type OutcomeCursor = (
            std::vec::IntoIter<(u32, PhasedOutcome)>,
            Option<(u32, PhasedOutcome)>,
        );
        let mut lists: Vec<OutcomeCursor> = Vec::with_capacity(self.shard_scratch.len());
        for scratch in &mut self.shard_scratch {
            let mut it = std::mem::take(&mut scratch.outcomes).into_iter();
            let head = it.next();
            if head.is_some() {
                lists.push((it, head));
            }
        }
        loop {
            let mut best: Option<usize> = None;
            for (i, (_, head)) in lists.iter().enumerate() {
                if let Some((idx, _)) = head {
                    if best
                        // lidc-lint: allow(panic-path) reason="best only holds indexes whose head was observed Some earlier in this loop"
                        .map(|b| *idx < lists[b].1.as_ref().expect("head").0)
                        .unwrap_or(true)
                    {
                        best = Some(i);
                    }
                }
            }
            let Some(i) = best else {
                break;
            };
            // lidc-lint: allow(panic-path) reason="best was set only where lists[i] held a Some head, and nothing consumed it since"
            let (_, outcome) = lists[i].1.take().expect("picked head");
            // lidc-lint: allow(panic-path) reason="i was produced by the enumerate() over this same lists vec"
            lists[i].1 = lists[i].0.next();
            self.apply_outcome(outcome, ctx);
        }
        // Hand the drained buffers back to their shards for reuse.
        for ((it, _), scratch) in lists.into_iter().zip(self.shard_scratch.iter_mut()) {
            let mut buf = it.collect::<Vec<_>>();
            buf.clear();
            scratch.outcomes = buf;
        }
        // Surface the run's CS budget work (serial twin: on_data).
        let evicted = self.cs.evictions() - ev0;
        if evicted > 0 {
            ctx.metrics().incr("ndn.cs_evict.count", evicted);
            ctx.metrics()
                .incr("ndn.cs_evict.bytes", self.cs.evicted_bytes() - evb0);
        }
        let rejected = self.cs.admission_rejections() - rej0;
        if rejected > 0 {
            ctx.metrics().incr("ndn.cs_admission_rejected", rejected);
        }
    }

    /// Merge-phase replay of one packet's outcome: all the order-sensitive
    /// work (strategy state + RNG, out-records, staging, counters), in the
    /// exact order the serial handlers interleave it.
    fn apply_outcome(&mut self, outcome: PhasedOutcome, ctx: &mut Ctx<'_>) {
        match outcome {
            PhasedOutcome::HopLimitDrop => ctx.metrics().incr("ndn.hop_limit_drops", 1),
            PhasedOutcome::DnlDup { in_face, interest } => {
                ctx.metrics().incr("ndn.duplicate_nonce", 1);
                self.nack_to(in_face, NackReason::Duplicate, interest, ctx);
            }
            PhasedOutcome::CsHit { in_face, data } => {
                ctx.metrics().incr("ndn.cs_hits", 1);
                self.send_packet(in_face, Packet::Data(data), ctx);
            }
            PhasedOutcome::PitDup { in_face, interest } => {
                ctx.metrics().incr("ndn.cs_misses", 1);
                ctx.metrics().incr("ndn.duplicate_nonce", 1);
                self.nack_to(in_face, NackReason::Duplicate, interest, ctx);
            }
            PhasedOutcome::Aggregated { key, version, ttl } => {
                ctx.metrics().incr("ndn.cs_misses", 1);
                ctx.metrics().incr("ndn.pit_aggregated", 1);
                if let Some(ttl) = ttl {
                    ctx.schedule_self(ttl, PitExpire { key, version });
                }
            }
            PhasedOutcome::Forward {
                in_face,
                interest,
                key,
                version,
                retransmission,
                ttl,
            } => {
                ctx.metrics().incr("ndn.cs_misses", 1);
                if let Some(ttl) = ttl {
                    ctx.schedule_self(ttl, PitExpire {
                        key: key.clone(),
                        version,
                    });
                }
                self.forward_interest(in_face, interest, key, retransmission, ctx);
            }
            PhasedOutcome::Unsolicited => ctx.metrics().incr("ndn.unsolicited_data", 1),
            PhasedOutcome::VerifyFailed { in_face, name, poisoned } => {
                self.on_verify_failed(in_face, &name, poisoned, ctx);
            }
            PhasedOutcome::DataDeliver { data, satisfied } => {
                // Serial twin snapshots the byte peak after each CS insert
                // (i.e. exactly once per delivered — not unsolicited —
                // Data). Shard-phase inserts all landed already, so this
                // reads the post-insert total; it can understate a serial
                // mid-burst peak only when stale evictions shrink
                // bytes_used within the same run (documented in the module
                // docs' known-divergence list).
                ctx.metrics()
                    .set_max("ndn.cs_bytes_used_peak", self.cs.bytes_used());
                for sat in satisfied {
                    if let Some((name, prefix, face, rtt)) = sat.feedback {
                        let sidx = self.strategy_index_for(&name);
                        // lidc-lint: allow(panic-path) reason="strategy_index_for scans self.strategies and falls back to 0, and the table always holds the default strategy at index 0"
                        self.strategies[sidx].1.on_data(&prefix, face, rtt);
                    }
                    for face in sat.downstreams {
                        self.send_packet(face, Packet::Data(data.clone()), ctx);
                    }
                    ctx.metrics().incr("ndn.pit_satisfied", 1);
                }
            }
        }
    }

    /// Route a packet-bearing message into the run buffer; `Err` gives the
    /// message back for control handling.
    fn buffer_packets(&mut self, msg: Msg) -> Result<(), Msg> {
        let msg = match msg.downcast::<Rx>() {
            Ok(rx) => {
                let rx = *rx;
                self.run_buf.push((rx.face, rx.packet));
                return Ok(());
            }
            Err(m) => m,
        };
        match msg.downcast::<RxBatch>() {
            Ok(batch) => {
                let batch = *batch;
                let face = batch.face;
                for packet in batch.packets {
                    self.run_buf.push((face, packet));
                }
                Ok(())
            }
            Err(m) => Err(m),
        }
    }
}

impl Actor for Forwarder {
    /// Forwarders opt into the engine's parallel same-instant waves: their
    /// handlers never spawn/kill/halt and touch no state shared with other
    /// Concurrent actors (per-actor tables, buffered effects, per-actor
    /// RNG), so distinct forwarders' bursts may execute concurrently.
    fn concurrency(&self) -> Concurrency {
        Concurrency::Concurrent
    }

    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        if self.config.shards > 1 {
            match self.buffer_packets(msg) {
                Ok(()) => self.flush_run(ctx),
                Err(msg) => self.handle(msg, ctx),
            }
        } else {
            self.handle(msg, ctx);
        }
        self.flush_tx(ctx);
    }

    /// Batched ingress: a same-instant burst of messages is processed in
    /// arrival order with the PIT/CS scratch buffers warm, and all staged
    /// link transmissions leave in one flush (one scheduler event per link
    /// and arrival instant). With `shards > 1`, consecutive packet
    /// messages form runs that take the two-phase (and, for large bursts,
    /// parallel) ingress; control messages are handled serially between
    /// runs, preserving arrival order.
    fn on_batch(&mut self, msgs: &mut Vec<Msg>, ctx: &mut Ctx<'_>) {
        if self.config.shards > 1 {
            debug_assert!(self.run_buf.is_empty());
            for msg in msgs.drain(..) {
                if let Err(msg) = self.buffer_packets(msg) {
                    self.flush_run(ctx);
                    self.handle(msg, ctx);
                }
            }
            self.flush_run(ctx);
        } else {
            for msg in msgs.drain(..) {
                self.handle(msg, ctx);
            }
        }
        self.flush_tx(ctx);
    }
}
