//! The discrete-event engine: actors, messages, and the scheduler.
//!
//! Design notes:
//!
//! * **Determinism.** Events are dispatched in canonical-key order (see
//!   below); two events one sender schedules for the same instant fire in
//!   scheduling order (FIFO). All randomness comes from [`DetRng`] streams
//!   derived from the seed.
//! * **Messages are `Box<dyn Any + Send>`.** Each subsystem (NDN, K8s, LIDC)
//!   defines its own message structs and downcasts on receipt. This keeps
//!   `lidc-simcore` free of domain types and lets independently developed
//!   crates share one event loop.
//! * **Effects, not re-entrancy.** While an actor handles a message it
//!   records *effects* (sends, spawns, kills) in its [`Ctx`]; the engine
//!   applies them after the handler returns. This sidesteps aliasing issues
//!   without `RefCell` gymnastics and keeps handler execution atomic in
//!   virtual time.
//! * **Batched dispatch.** A maximal run of *consecutive* (in `(time, seq)`
//!   order) events addressed to the same actor at the same instant is
//!   delivered as one [`Actor::on_batch`] call instead of one handler
//!   invocation per message. The default `on_batch` loops [`Actor::on_message`],
//!   so untouched actors behave exactly as before; actors on burst-heavy
//!   paths (the LIDC gateway, the NDN forwarder) override it to amortize
//!   per-delivery work. The contract:
//!
//!   * messages within a batch are in their original FIFO (`seq`) order;
//!   * only *consecutive* same-destination events coalesce — an interleaved
//!     event for another actor ends the batch, so cross-actor delivery
//!     order is exactly what sequential dispatch would produce;
//!   * effects recorded while handling a batch are applied after the whole
//!     batch, which yields the same queue contents as per-message dispatch
//!     (same-instant effects always sort after already-queued events);
//!   * batching can be disabled with [`Sim::set_batching`] (equivalence
//!     tests run both modes and compare end states).
//!
//! # Parallel same-instant dispatch and the determinism contract
//!
//! [`Sim::set_threads`] (default 1 = fully serial) lets the engine execute a
//! **wave** — consecutive same-instant batches addressed to *distinct*
//! actors — concurrently on a persistent worker pool. Parallel mode is
//! **bit-identical** to serial mode: the same seed produces the same event
//! schedule, the same replies, the same metrics readouts (excepting the
//! `sim.batch.*`/`sim.parallel.*` dispatch-observability counters, whose
//! batch granularity the corner below can shift), and the same actor end
//! states at any thread count. That guarantee rests on four mechanisms,
//! which together define what parallel mode may and may not reorder:
//!
//! * **Opt-in concurrency.** Only actors that declare
//!   [`Concurrency::Concurrent`] via [`Actor::concurrency`] join a wave; an
//!   [`Concurrency::Exclusive`] actor's batch (the default) always runs
//!   alone, exactly as in serial mode. A wave is the maximal prefix of
//!   consecutive same-instant runs for distinct Concurrent actors; a
//!   repeated destination, an Exclusive actor, or a time change ends it.
//!   Batch boundaries match serial mode with one exception: when a wave
//!   member sends a zero-delay message to a *later* member of the same
//!   wave, serial dispatch would coalesce that message into the later
//!   actor's batch, while a wave delivers it as a separate follow-up batch
//!   (the run was already popped). Message *order* and every delivery are
//!   unchanged — only batch granularity (and thus the `sim.batch.*`
//!   observability counters and drain stats, which are outside the
//!   equivalence contract) can differ in that corner.
//! * **Per-actor RNG streams.** [`Ctx::rng`] draws from a stream derived
//!   once per actor from the master seed (not from a shared engine stream),
//!   so the values an actor draws depend only on its own draw history —
//!   never on which other actors ran before it at the same instant.
//!   Harness-level draws through [`Sim::rng`] use the master stream and are
//!   unaffected.
//! * **Buffered effects, merged in run order.** A wave handler records
//!   sends/kills into a private buffer; buffers are applied in the wave's
//!   run order (the `(time, seq)` order of each run's first event), so
//!   scheduled events receive exactly the sequence numbers serial execution
//!   would assign.
//! * **Buffered metrics, merged in run order.** Each wave handler writes a
//!   private [`Metrics`] buffer; buffers fold into the engine registry via
//!   [`Metrics::merge`] (counters add, `set_max` keys max, histogram
//!   samples append in run order), reproducing the serial registry exactly.
//!
//! What parallel mode may reorder: the *wall-clock* interleaving of
//! Concurrent handlers within one wave (invisible by construction, given
//! the rules below). What it may **not** reorder: anything observable —
//! cross-actor delivery order, effect sequencing, RNG streams, metrics.
//!
//! The rules Concurrent actors must obey (violations panic or race):
//! handlers must not call [`Ctx::spawn`], [`Ctx::kill`], or [`Ctx::halt`]
//! (these require the serial effect interlock; all three panic from a wave
//! worker), and must not write state shared with other Concurrent actors
//! (reading state that only Exclusive actors write is safe — an Exclusive
//! writer never overlaps a wave).
//!
//! # The canonical event key
//!
//! Every event is stamped `(time, sent_at, source, seq)`: delivery time,
//! the instant the sender recorded the send, the sender's actor id
//! (`u32::MAX` for harness sends), and a per-sender monotone counter.
//! The queue pops events in key order, so the global interleaving depends
//! only on who sent each event and when, never on when it was enqueued —
//! the property that lets a wave merge buffered effects without
//! renumbering anything. Deep dive: `docs/ENGINE.md`.

use std::any::Any;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use crate::metrics::Metrics;
use crate::rng::DetRng;
use crate::time::{SimDuration, SimTime};

/// A type-erased message. Use [`Msg::downcast`] (inherited from `Box<dyn
/// Any>`) to recover the concrete type.
pub type Msg = Box<dyn Any + Send>;

/// Identifies an actor registered with a [`Sim`].
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(u32);

impl ActorId {
    /// Raw index (useful for diagnostics and per-actor RNG derivation).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// Whether an actor's handlers may execute concurrently with *other*
/// actors' handlers at the same virtual instant (see the module docs for
/// the full determinism contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Concurrency {
    /// The default: this actor's batches always run alone, exactly as under
    /// serial dispatch. Safe for every actor.
    #[default]
    Exclusive,
    /// This actor's same-instant batch may run on a worker thread
    /// concurrently with other Concurrent actors' batches. The actor's
    /// handlers must not spawn/kill/halt (panics) and must not write state
    /// shared with other Concurrent actors.
    Concurrent,
}

/// A simulated component: it receives messages and reacts by recording
/// effects on the [`Ctx`].
pub trait Actor: Send + 'static {
    /// Handle one message delivered at the current virtual time.
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>);

    /// Declare whether this actor may join a parallel same-instant wave
    /// (default: [`Concurrency::Exclusive`] — never). See the module docs
    /// for the obligations [`Concurrency::Concurrent`] takes on.
    fn concurrency(&self) -> Concurrency {
        Concurrency::Exclusive
    }

    /// Handle a coalesced burst of messages, all addressed to this actor at
    /// the same virtual instant, in FIFO order (see the module docs for the
    /// full contract). Implementations must consume every message in
    /// `msgs`. The default drains the buffer through [`Actor::on_message`],
    /// preserving per-message behavior for actors that don't opt in.
    fn on_batch(&mut self, msgs: &mut Vec<Msg>, ctx: &mut Ctx<'_>) {
        for msg in msgs.drain(..) {
            self.on_message(msg, ctx);
        }
    }

    /// Called once when the actor is registered, before any message.
    fn on_start(&mut self, _ctx: &mut Ctx<'_>) {}
}

/// Object-safe shim adding downcasting on top of [`Actor`]; blanket-implemented.
trait AnyActor: Actor {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Actor> AnyActor for T {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The `source` stamp for events enqueued from outside any handler
/// ([`Sim::send`]/[`Sim::send_after`]). Sorts after every actor id, so a
/// harness send at instant `t` lands after same-instant actor sends — the
/// order the harness observes anyway (it only runs between `run` calls).
const HARNESS_SOURCE: u32 = u32::MAX;

/// The canonical event key: `(time, sent_at, source, seq)`. Dispatch pops
/// queued events in key order; see the module docs.
type EventKey = (SimTime, SimTime, u32, u64);

enum Effect {
    Send {
        at: SimTime,
        to: ActorId,
        msg: Msg,
        background: bool,
        /// Instant the sender recorded the send (its `now`).
        sent_at: SimTime,
        /// Sender actor id (or [`HARNESS_SOURCE`]).
        source: u32,
        /// Per-sender monotone counter.
        seq: u64,
    },
    Spawn {
        id: ActorId,
        label: String,
        actor: Box<dyn AnyActor>,
    },
    Kill {
        id: ActorId,
    },
    Halt,
}

/// The handler-side view of the engine: scheduling, randomness, metrics.
pub struct Ctx<'a> {
    self_id: ActorId,
    now: SimTime,
    rng: &'a mut DetRng,
    metrics: &'a mut Metrics,
    /// `None` when this context belongs to a same-instant wave worker:
    /// spawn (which must allocate from the engine's id counter
    /// synchronously) is unavailable there, as are kill/halt (see the
    /// module docs).
    next_actor_id: Option<&'a mut u32>,
    /// This actor's per-sender send counter (part of the canonical event
    /// key; lives in the actor's slot and travels with it into workers).
    send_seq: &'a mut u64,
    effects: &'a mut Vec<Effect>,
}

impl Ctx<'_> {
    /// The id of the actor currently handling a message.
    pub fn self_id(&self) -> ActorId {
        self.self_id
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This actor's deterministic RNG stream, derived once from the master
    /// seed. Draws depend only on the actor's own history, never on what
    /// other actors ran first — the property parallel dispatch relies on.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        self.metrics
    }

    /// Record a send effect stamped with the canonical event key (see the
    /// module docs): `sent_at` = now, `source` = self, `seq` = this actor's
    /// next send counter.
    fn push_send(&mut self, at: SimTime, to: ActorId, msg: Msg, background: bool) {
        let seq = *self.send_seq;
        *self.send_seq += 1;
        self.effects.push(Effect::Send {
            at,
            to,
            msg,
            background,
            sent_at: self.now,
            source: self.self_id.0,
            seq,
        });
    }

    /// Deliver `msg` to `to` at the current instant (after the current
    /// handler completes).
    pub fn send<M: Send + 'static>(&mut self, to: ActorId, msg: M) {
        self.send_after(SimDuration::ZERO, to, msg);
    }

    /// Deliver `msg` to `to` after `delay`.
    pub fn send_after<M: Send + 'static>(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        self.push_send(self.now + delay, to, Box::new(msg), false);
    }

    /// Deliver an already-boxed message after `delay` (used when relaying).
    pub fn send_boxed_after(&mut self, delay: SimDuration, to: ActorId, msg: Msg) {
        self.push_send(self.now + delay, to, msg, false);
    }

    /// Schedule a message to self after `delay` (a timer).
    pub fn schedule_self<M: Send + 'static>(&mut self, delay: SimDuration, msg: M) {
        self.send_after(delay, self.self_id, msg);
    }

    /// Schedule a *background* (daemon) timer to self: the event fires in
    /// order like any other, but pending background events alone do not keep
    /// [`Sim::run`] alive. Use for unbounded periodic work (load
    /// advertisement, cache refresh) so simulations terminate when all
    /// *foreground* work — requests, jobs, replies — has drained.
    pub fn schedule_self_background<M: Send + 'static>(&mut self, delay: SimDuration, msg: M) {
        self.push_send(self.now + delay, self.self_id, Box::new(msg), true);
    }

    /// Register a new actor; it starts receiving messages immediately.
    /// Returns its id synchronously so the spawner can address it.
    ///
    /// # Panics
    ///
    /// Panics when called from a parallel worker — a
    /// [`Concurrency::Concurrent`] actor's handler inside a same-instant
    /// wave: id allocation is inherently serial.
    pub fn spawn<A: Actor>(&mut self, label: impl Into<String>, actor: A) -> ActorId {
        let Some(counter) = self.next_actor_id.as_deref_mut() else {
            panic!("Ctx::spawn is not available inside a parallel wave");
        };
        let id = ActorId(*counter);
        *counter += 1;
        self.effects.push(Effect::Spawn {
            id,
            label: label.into(),
            actor: Box::new(actor),
        });
        id
    }

    /// Remove an actor. Pending messages to it are silently dropped (the
    /// `sim.dropped_messages` counter records how many).
    ///
    /// # Panics
    ///
    /// Panics from a parallel worker (a kill applied mid-wave could not
    /// reproduce serial drop accounting).
    pub fn kill(&mut self, id: ActorId) {
        assert!(
            self.next_actor_id.is_some(),
            "Ctx::kill is not available inside a parallel wave"
        );
        self.effects.push(Effect::Kill { id });
    }

    /// Stop the simulation after the current handler completes.
    ///
    /// # Panics
    ///
    /// Panics from a parallel worker (a halt mid-wave could not stop
    /// runs that already executed concurrently, diverging from serial).
    pub fn halt(&mut self) {
        assert!(
            self.next_actor_id.is_some(),
            "Ctx::halt is not available inside a parallel wave"
        );
        self.effects.push(Effect::Halt);
    }
}

struct Scheduled {
    time: SimTime,
    /// Instant the sender recorded the send (≤ `time`).
    sent_at: SimTime,
    /// Sender actor id, or [`HARNESS_SOURCE`].
    source: u32,
    /// Per-sender monotone counter.
    seq: u64,
    to: ActorId,
    msg: Msg,
    background: bool,
}

impl Scheduled {
    /// The canonical dispatch key (total order: `(source, seq)` pairs are
    /// unique).
    fn key(&self) -> EventKey {
        (self.time, self.sent_at, self.source, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Per-actor message-drain statistics (batched-dispatch observability).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainStats {
    /// Messages delivered to this actor.
    pub messages: u64,
    /// Handler invocations (each serving one batch of ≥ 1 messages).
    pub batches: u64,
    /// Largest single batch delivered.
    pub max_batch: u64,
}

impl DrainStats {
    /// Mean messages per handler invocation (0 when never delivered).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.messages as f64 / self.batches as f64
        }
    }
}

struct Slot {
    actor: Option<Box<dyn AnyActor>>,
    label: String,
    drain: DrainStats,
    /// This actor's private RNG stream (see [`Ctx::rng`]).
    rng: DetRng,
    /// Per-sender send counter (canonical event key component).
    send_seq: u64,
}

/// The discrete-event simulator.
pub struct Sim {
    now: SimTime,
    /// Per-sender send counter for harness-level sends (see
    /// [`HARNESS_SOURCE`]).
    harness_seq: u64,
    queue: BinaryHeap<Reverse<Scheduled>>,
    /// Queued events that are *not* background timers; [`Sim::run`] stops
    /// when this reaches zero even if daemon timers remain queued.
    foreground_queued: usize,
    slots: Vec<Slot>,
    next_actor_id: u32,
    rng: DetRng,
    metrics: Metrics,
    halted: bool,
    events_processed: u64,
    /// Same-instant coalescing switch (see module docs); on by default.
    batching: bool,
    /// Reused delivery buffer for batched dispatch.
    batch_buf: Vec<Msg>,
    /// Root for deriving per-actor RNG streams (never drawn from directly).
    actor_rng_root: DetRng,
    /// Worker count for parallel same-instant waves; 1 = fully serial.
    threads: usize,
    /// Lazily created worker pool (present only while `threads > 1`).
    pool: Option<Pool<WaveJob, WaveOut>>,
    /// Recycled message buffers for wave runs beyond the first.
    wave_bufs: Vec<Vec<Msg>>,
}

impl Sim {
    /// Create an engine seeded with `seed` (see DESIGN.md §8).
    pub fn new(seed: u64) -> Self {
        let rng = DetRng::new(seed);
        let actor_rng_root = rng.derive_str("actor-streams");
        Sim {
            now: SimTime::ZERO,
            harness_seq: 0,
            queue: BinaryHeap::new(),
            foreground_queued: 0,
            slots: Vec::new(),
            next_actor_id: 0,
            rng,
            metrics: Metrics::new(),
            halted: false,
            events_processed: 0,
            batching: true,
            batch_buf: Vec::new(),
            actor_rng_root,
            threads: 1,
            pool: None,
            wave_bufs: Vec::new(),
        }
    }

    /// Enable or disable same-instant batch coalescing (on by default).
    /// With batching off every message is delivered through
    /// [`Actor::on_message`] individually — the pre-batching behavior,
    /// kept for batch/sequential equivalence testing.
    pub fn set_batching(&mut self, on: bool) {
        self.batching = on;
    }

    /// Set the worker count for parallel same-instant dispatch (see the
    /// module docs for the determinism contract). `n <= 1` restores fully
    /// serial execution and tears down the pool. The schedule, metrics,
    /// and actor end states are bit-identical at every `n`.
    pub fn set_threads(&mut self, n: usize) {
        let n = n.max(1);
        if n != self.threads {
            self.threads = n;
            self.pool = None;
        }
    }

    /// The configured parallel-dispatch worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// The engine RNG (for harness-level draws such as workload generation).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// The metrics registry.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Read-only metrics access.
    pub fn metrics_ref(&self) -> &Metrics {
        &self.metrics
    }

    /// Register a top-level actor and invoke its `on_start`.
    pub fn spawn<A: Actor>(&mut self, label: impl Into<String>, actor: A) -> ActorId {
        let id = ActorId(self.next_actor_id);
        self.next_actor_id += 1;
        self.install(id, label.into(), Box::new(actor));
        id
    }

    /// Slots are indexed by actor id; ids are allocated eagerly (so handlers
    /// can address children synchronously) but installed lazily, possibly out
    /// of order when spawns nest. Grow the table on demand to keep the
    /// id→index invariant regardless of installation order.
    fn ensure_slot(&mut self, idx: usize) {
        while self.slots.len() <= idx {
            let id = self.slots.len() as u64;
            self.slots.push(Slot {
                actor: None,
                label: String::new(),
                drain: DrainStats::default(),
                rng: self.actor_rng_root.derive(id),
                send_seq: 0,
            });
        }
    }

    fn install(&mut self, id: ActorId, label: String, actor: Box<dyn AnyActor>) {
        let idx = id.0 as usize;
        self.ensure_slot(idx);
        debug_assert!(self.slots[idx].actor.is_none(), "actor id reused");
        self.slots[idx] = Slot {
            actor: Some(actor),
            label,
            drain: DrainStats::default(),
            rng: self.actor_rng_root.derive(u64::from(id.0)),
            send_seq: 0,
        };
        self.run_start_hook(id);
    }

    fn run_start_hook(&mut self, id: ActorId) {
        let idx = id.0 as usize;
        let Some(mut actor) = self.slots[idx].actor.take() else {
            return;
        };
        let mut rng = self.slots[idx].rng.clone();
        let mut send_seq = self.slots[idx].send_seq;
        let mut effects = Vec::new();
        {
            let mut ctx = Ctx {
                self_id: id,
                now: self.now,
                rng: &mut rng,
                metrics: &mut self.metrics,
                next_actor_id: Some(&mut self.next_actor_id),
                send_seq: &mut send_seq,
                effects: &mut effects,
            };
            actor.on_start(&mut ctx);
        }
        self.slots[idx].rng = rng;
        self.slots[idx].send_seq = send_seq;
        if self.slots[idx].actor.is_none() {
            self.slots[idx].actor = Some(actor);
        }
        self.apply_effects(effects);
    }

    /// The human label an actor was registered under.
    pub fn label(&self, id: ActorId) -> &str {
        &self.slots[id.0 as usize].label
    }

    /// Whether an actor is still alive.
    pub fn is_alive(&self, id: ActorId) -> bool {
        self.slots
            .get(id.0 as usize)
            .map(|s| s.actor.is_some())
            .unwrap_or(false)
    }

    /// Immutable access to a registered actor's concrete state.
    pub fn actor<T: Actor>(&self, id: ActorId) -> Option<&T> {
        self.slots
            .get(id.0 as usize)?
            .actor
            .as_ref()?
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutable access to a registered actor's concrete state (harness use).
    pub fn actor_mut<T: Actor>(&mut self, id: ActorId) -> Option<&mut T> {
        self.slots
            .get_mut(id.0 as usize)?
            .actor
            .as_mut()?
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Remove an actor from outside a handler.
    pub fn kill(&mut self, id: ActorId) {
        if let Some(slot) = self.slots.get_mut(id.0 as usize) {
            slot.actor = None;
        }
    }

    /// Enqueue a message for delivery at the current instant.
    pub fn send<M: Send + 'static>(&mut self, to: ActorId, msg: M) {
        self.schedule(self.now, to, Box::new(msg), false);
    }

    /// Enqueue a message for delivery after `delay`.
    pub fn send_after<M: Send + 'static>(&mut self, delay: SimDuration, to: ActorId, msg: M) {
        self.schedule(self.now + delay, to, Box::new(msg), false);
    }

    /// Enqueue a harness-level event, stamped with [`HARNESS_SOURCE`].
    fn schedule(&mut self, at: SimTime, to: ActorId, msg: Msg, background: bool) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let seq = self.harness_seq;
        self.harness_seq += 1;
        if !background {
            self.foreground_queued += 1;
        }
        self.queue.push(Reverse(Scheduled {
            time: at,
            sent_at: self.now,
            source: HARNESS_SOURCE,
            seq,
            to,
            msg,
            background,
        }));
    }

    fn apply_effects(&mut self, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send {
                    at,
                    to,
                    msg,
                    background,
                    sent_at,
                    source,
                    seq,
                } => {
                    debug_assert!(at >= self.now, "scheduling into the past");
                    if !background {
                        self.foreground_queued += 1;
                    }
                    self.queue.push(Reverse(Scheduled {
                        time: at,
                        sent_at,
                        source,
                        seq,
                        to,
                        msg,
                        background,
                    }));
                }
                Effect::Spawn { id, label, actor } => {
                    self.install(id, label, actor);
                }
                Effect::Kill { id } => {
                    if let Some(slot) = self.slots.get_mut(id.0 as usize) {
                        slot.actor = None;
                    }
                }
                Effect::Halt => self.halted = true,
            }
        }
    }

    /// Pop the maximal run of consecutive (seq-order) events for `to` at
    /// `time` into `batch`. Stopping at the first event for another actor
    /// preserves cross-actor delivery order.
    fn coalesce_run(&mut self, time: SimTime, to: ActorId, batch: &mut Vec<Msg>) {
        while let Some(Reverse(head)) = self.queue.peek() {
            if head.time != time || head.to != to {
                break;
            }
            let Reverse(next) = self.queue.pop().expect("peeked");
            if !next.background {
                self.foreground_queued -= 1;
            }
            batch.push(next.msg);
        }
    }

    /// Whether `to` is alive and has declared [`Concurrency::Concurrent`].
    fn is_concurrent(&self, to: ActorId) -> bool {
        self.slots
            .get(to.0 as usize)
            .and_then(|s| s.actor.as_deref())
            .map(|a| a.concurrency() == Concurrency::Concurrent)
            .unwrap_or(false)
    }

    /// Dispatch the next event — plus, when batching is enabled, every
    /// consecutively-queued event for the same actor at the same instant
    /// (delivered as one [`Actor::on_batch`] call). With
    /// [`Sim::set_threads`] `> 1`, consecutive same-instant batches for
    /// distinct [`Concurrency::Concurrent`] actors execute as one parallel
    /// wave (bit-identical results; see the module docs). Returns `false`
    /// when the queue is empty or the simulation has been halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(Reverse(ev)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.time >= self.now, "event from the past");
        if !ev.background {
            self.foreground_queued -= 1;
        }
        self.now = ev.time;
        let to = ev.to;
        let mut batch = std::mem::take(&mut self.batch_buf);
        batch.clear();
        batch.push(ev.msg);
        if self.batching {
            self.coalesce_run(ev.time, to, &mut batch);
        }
        if self.threads > 1 && self.batching && self.is_concurrent(to) {
            // Collect the wave: consecutive same-instant runs for distinct
            // Concurrent actors. A repeated destination, an Exclusive (or
            // dead) actor, or a time change ends it — exactly the batch
            // boundaries serial dispatch would produce.
            let mut runs: Vec<(ActorId, Vec<Msg>)> = vec![(to, batch)];
            while let Some(Reverse(head)) = self.queue.peek() {
                if head.time != ev.time {
                    break;
                }
                let next_to = head.to;
                if runs.iter().any(|(a, _)| *a == next_to) || !self.is_concurrent(next_to) {
                    break;
                }
                let mut buf = self.wave_bufs.pop().unwrap_or_default();
                buf.clear();
                self.coalesce_run(ev.time, next_to, &mut buf);
                debug_assert!(!buf.is_empty(), "peeked run is non-empty");
                runs.push((next_to, buf));
            }
            if runs.len() > 1 {
                self.dispatch_wave(runs);
                return true;
            }
            batch = runs.pop().expect("first run").1;
        }
        self.deliver_batch(to, batch);
        true
    }

    /// Deliver one coalesced batch on the caller's thread.
    fn deliver_batch(&mut self, to: ActorId, mut batch: Vec<Msg>) {
        self.events_processed += batch.len() as u64;
        let idx = to.0 as usize;
        let taken = self.slots.get_mut(idx).and_then(|s| s.actor.take());
        let Some(mut actor) = taken else {
            self.metrics.incr("sim.dropped_messages", batch.len() as u64);
            batch.clear();
            self.batch_buf = batch;
            return;
        };
        {
            let slot = &mut self.slots[idx];
            slot.drain.messages += batch.len() as u64;
            slot.drain.batches += 1;
            slot.drain.max_batch = slot.drain.max_batch.max(batch.len() as u64);
        }
        if batch.len() > 1 {
            self.metrics.incr("sim.batch.bursts", 1);
            self.metrics
                .incr("sim.batch.coalesced_messages", batch.len() as u64 - 1);
            self.metrics.set_max("sim.batch.max_size", batch.len() as u64);
        }
        let mut rng = self.slots[idx].rng.clone();
        let mut send_seq = self.slots[idx].send_seq;
        let mut effects = Vec::new();
        {
            let mut ctx = Ctx {
                self_id: to,
                now: self.now,
                rng: &mut rng,
                metrics: &mut self.metrics,
                next_actor_id: Some(&mut self.next_actor_id),
                send_seq: &mut send_seq,
                effects: &mut effects,
            };
            if batch.len() == 1 {
                let msg = batch.pop().expect("one message");
                actor.on_message(msg, &mut ctx);
            } else {
                actor.on_batch(&mut batch, &mut ctx);
                debug_assert!(batch.is_empty(), "on_batch must drain its input");
            }
        }
        batch.clear();
        self.batch_buf = batch;
        self.slots[idx].rng = rng;
        self.slots[idx].send_seq = send_seq;
        // The actor may have killed itself via ctx.kill(self_id); only put it
        // back if nothing reclaimed the slot meanwhile.
        if self.slots[idx].actor.is_none() {
            self.slots[idx].actor = Some(actor);
        }
        // A self-kill effect is applied after reinstatement, so it still wins.
        self.apply_effects(effects);
    }

    /// Execute a collected wave of ≥ 2 distinct-actor runs concurrently and
    /// merge the buffered results in run order (see the module docs).
    fn dispatch_wave(&mut self, runs: Vec<(ActorId, Vec<Msg>)>) {
        let now = self.now;
        let jobs: Vec<WaveJob> = runs
            .into_iter()
            .map(|(to, msgs)| {
                let slot = &mut self.slots[to.0 as usize];
                let actor = slot.actor.take().expect("wave member is alive");
                let rng = slot.rng.clone();
                WaveJob {
                    to,
                    now,
                    msgs,
                    actor,
                    rng,
                    send_seq: slot.send_seq,
                }
            })
            .collect();
        let outs = if host_parallelism().min(self.threads) > 1 {
            let pool = self
                .pool
                .get_or_insert_with(|| Pool::new(self.threads, "sim-wave", execute_wave_job));
            pool.run(jobs)
        } else {
            // A single-CPU host can only lose to a pool: execute the wave
            // inline in run order — same buffered contexts, same merge,
            // bit-identical results, no thread overhead.
            jobs.into_iter().map(execute_wave_job).collect()
        };
        // Merge in run order: drain stats, engine batch metrics, per-worker
        // metrics buffers, effects (which assigns the sequence numbers
        // serial execution would have assigned), and buffer recycling.
        for out in outs {
            let idx = out.to.0 as usize;
            self.events_processed += out.delivered as u64;
            {
                let slot = &mut self.slots[idx];
                slot.drain.messages += out.delivered as u64;
                slot.drain.batches += 1;
                slot.drain.max_batch = slot.drain.max_batch.max(out.delivered as u64);
            }
            if out.delivered > 1 {
                self.metrics.incr("sim.batch.bursts", 1);
                self.metrics
                    .incr("sim.batch.coalesced_messages", out.delivered as u64 - 1);
                self.metrics.set_max("sim.batch.max_size", out.delivered as u64);
            }
            self.metrics.incr("sim.parallel.wave_runs", 1);
            self.metrics.merge(out.metrics);
            self.slots[idx].rng = out.rng;
            self.slots[idx].send_seq = out.send_seq;
            debug_assert!(self.slots[idx].actor.is_none());
            self.slots[idx].actor = Some(out.actor);
            self.apply_effects(out.effects);
            let mut buf = out.msgs;
            buf.clear();
            // The first run's buffer came from batch_buf (taken by step);
            // hand one buffer back there so neither pool grows by one per
            // wave and the serial path keeps its warmed capacity.
            if self.batch_buf.capacity() == 0 {
                self.batch_buf = buf;
            } else {
                self.wave_bufs.push(buf);
            }
        }
        self.metrics.incr("sim.parallel.waves", 1);
    }

    /// Run until all *foreground* work drains or the simulation halts.
    /// Background (daemon) timers — see [`Ctx::schedule_self_background`] —
    /// are processed in order while foreground events remain, but pending
    /// background timers alone do not keep the run alive. Returns the number
    /// of events processed by this call.
    pub fn run(&mut self) -> u64 {
        let start = self.events_processed;
        while self.foreground_queued > 0 && self.step() {}
        self.events_processed - start
    }

    /// Run until virtual time would exceed `deadline` (events at exactly
    /// `deadline` are processed). Later events stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let start = self.events_processed;
        loop {
            if self.halted {
                break;
            }
            match self.queue.peek() {
                Some(Reverse(ev)) if ev.time <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline && !self.halted {
            self.now = deadline;
        }
        self.events_processed - start
    }

    /// Run for `dur` of virtual time from now.
    pub fn run_for(&mut self, dur: SimDuration) -> u64 {
        let deadline = self.now + dur;
        self.run_until(deadline)
    }

    /// Per-actor drain statistics (messages, handler invocations, largest
    /// batch). Zeroes for ids never delivered to.
    pub fn drain_stats(&self, id: ActorId) -> DrainStats {
        self.slots
            .get(id.0 as usize)
            .map(|s| s.drain)
            .unwrap_or_default()
    }

    /// Aggregate drain statistics over every actor.
    pub fn drain_stats_total(&self) -> DrainStats {
        let mut total = DrainStats::default();
        for slot in &self.slots {
            total.messages += slot.drain.messages;
            total.batches += slot.drain.batches;
            total.max_batch = total.max_batch.max(slot.drain.max_batch);
        }
        total
    }

    /// Per-actor drain stats as a report table (busiest actors first),
    /// for experiment artifacts and diagnostics.
    pub fn dispatch_report(&self) -> crate::report::Table {
        let mut table = crate::report::Table::new(
            "Dispatch drain stats",
            &["actor", "messages", "batches", "mean batch", "max batch"],
        );
        let mut rows: Vec<(usize, &Slot)> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.drain.batches > 0)
            .collect();
        rows.sort_by(|a, b| b.1.drain.messages.cmp(&a.1.drain.messages).then(a.0.cmp(&b.0)));
        for (idx, slot) in rows {
            table.push_row(vec![
                format!("{} (#{idx})", slot.label),
                slot.drain.messages.to_string(),
                slot.drain.batches.to_string(),
                format!("{:.2}", slot.drain.mean_batch()),
                slot.drain.max_batch.to_string(),
            ]);
        }
        table
    }

    /// Number of queued (undelivered) events, background timers included.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of queued *foreground* (non-daemon) events.
    pub fn foreground_queue_len(&self) -> usize {
        self.foreground_queued
    }
}

/// The host's usable core count (cached): waves execute on the pool only
/// when real parallelism exists; otherwise they run inline with identical
/// semantics.
fn host_parallelism() -> usize {
    use std::sync::OnceLock;
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// One wave run handed to a worker: the actor (taken from its slot), its
/// RNG stream, and its coalesced batch.
struct WaveJob {
    to: ActorId,
    now: SimTime,
    msgs: Vec<Msg>,
    actor: Box<dyn AnyActor>,
    rng: DetRng,
    send_seq: u64,
}

/// A worker's buffered result: everything the merge step folds back into
/// the engine in run order.
struct WaveOut {
    to: ActorId,
    msgs: Vec<Msg>,
    actor: Box<dyn AnyActor>,
    rng: DetRng,
    send_seq: u64,
    effects: Vec<Effect>,
    metrics: Metrics,
    delivered: usize,
}

/// Execute one wave run against a private context (no engine access).
fn execute_wave_job(job: WaveJob) -> WaveOut {
    let WaveJob {
        to,
        now,
        mut msgs,
        mut actor,
        mut rng,
        mut send_seq,
    } = job;
    let delivered = msgs.len();
    let mut effects = Vec::new();
    let mut metrics = Metrics::new();
    {
        let mut ctx = Ctx {
            self_id: to,
            now,
            rng: &mut rng,
            metrics: &mut metrics,
            next_actor_id: None,
            send_seq: &mut send_seq,
            effects: &mut effects,
        };
        if delivered == 1 {
            let msg = msgs.pop().expect("one message");
            actor.on_message(msg, &mut ctx);
        } else {
            actor.on_batch(&mut msgs, &mut ctx);
            debug_assert!(msgs.is_empty(), "on_batch must drain its input");
        }
    }
    msgs.clear();
    WaveOut {
        to,
        msgs,
        actor,
        rng,
        send_seq,
        effects,
        metrics,
        delivered,
    }
}

/// A persistent pool of workers executing a fixed `fn(J) -> O`. Jobs fan
/// out over one shared queue; results come back tagged with their
/// submission index so the coordinator can merge in submission order
/// regardless of completion order. Worker panics are caught, shipped back,
/// and re-raised on the coordinator thread so a failing actor behaves like
/// it does under serial dispatch. Runs the same-instant waves
/// (`WaveJob`).
struct Pool<J: Send + 'static, O: Send + 'static> {
    job_tx: Option<mpsc::Sender<(usize, J)>>,
    out_rx: mpsc::Receiver<std::thread::Result<(usize, O)>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl<J: Send + 'static, O: Send + 'static> Pool<J, O> {
    fn new(threads: usize, name: &str, f: fn(J) -> O) -> Pool<J, O> {
        let (job_tx, job_rx) = mpsc::channel::<(usize, J)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (out_tx, out_rx) = mpsc::channel();
        let handles = (0..threads)
            .map(|w| {
                let rx = Arc::clone(&job_rx);
                let tx = out_tx.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{w}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                            guard.recv()
                        };
                        let Ok((index, job)) = job else {
                            break; // pool dropped
                        };
                        let out = std::panic::catch_unwind(AssertUnwindSafe(|| f(job)))
                            .map(|o| (index, o));
                        if tx.send(out).is_err() {
                            break;
                        }
                    })
                    .expect("spawn sim worker")
            })
            .collect();
        Pool {
            job_tx: Some(job_tx),
            out_rx,
            handles,
        }
    }

    /// Run all jobs to completion; results ordered by submission index.
    fn run(&mut self, jobs: Vec<J>) -> Vec<O> {
        let n = jobs.len();
        let tx = self.job_tx.as_ref().expect("pool alive");
        for job in jobs.into_iter().enumerate() {
            tx.send(job).expect("sim worker alive");
        }
        let mut outs: Vec<Option<O>> = (0..n).map(|_| None).collect();
        let mut panic: Option<Box<dyn Any + Send>> = None;
        for _ in 0..n {
            match self.out_rx.recv().expect("sim worker alive") {
                Ok((i, out)) => {
                    outs[i] = Some(out);
                }
                Err(p) => {
                    if panic.is_none() {
                        panic = Some(p);
                    }
                }
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
        outs.into_iter()
            .map(|o| o.expect("every job reported"))
            .collect()
    }
}

impl<J: Send + 'static, O: Send + 'static> Drop for Pool<J, O> {
    fn drop(&mut self) {
        // Closing the job channel unblocks every worker's recv.
        self.job_tx.take();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter {
        count: u64,
        echo_to: Option<ActorId>,
    }
    struct Bump(u64);

    impl Actor for Counter {
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            if let Ok(b) = msg.downcast::<Bump>() {
                self.count += b.0;
                if let Some(to) = self.echo_to {
                    ctx.send(to, Bump(b.0));
                }
            }
        }
    }

    #[test]
    fn delivers_in_time_order() {
        struct Recorder {
            seen: Vec<u64>,
        }
        struct Tag(u64);
        impl Actor for Recorder {
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                self.seen.push(msg.downcast::<Tag>().unwrap().0);
            }
        }
        let mut sim = Sim::new(0);
        let r = sim.spawn("rec", Recorder { seen: vec![] });
        sim.send_after(SimDuration::from_secs(3), r, Tag(3));
        sim.send_after(SimDuration::from_secs(1), r, Tag(1));
        sim.send_after(SimDuration::from_secs(2), r, Tag(2));
        sim.run();
        assert_eq!(sim.actor::<Recorder>(r).unwrap().seen, vec![1, 2, 3]);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(3));
    }

    #[test]
    fn same_instant_is_fifo() {
        struct Recorder {
            seen: Vec<u64>,
        }
        struct Tag(u64);
        impl Actor for Recorder {
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                self.seen.push(msg.downcast::<Tag>().unwrap().0);
            }
        }
        let mut sim = Sim::new(0);
        let r = sim.spawn("rec", Recorder { seen: vec![] });
        for i in 0..10 {
            sim.send(r, Tag(i));
        }
        sim.run();
        assert_eq!(
            sim.actor::<Recorder>(r).unwrap().seen,
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ping_pong_advances_time() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        let b = sim.spawn(
            "b",
            Counter {
                count: 0,
                echo_to: Some(a),
            },
        );
        sim.send(b, Bump(5));
        sim.run();
        assert_eq!(sim.actor::<Counter>(a).unwrap().count, 5);
        assert_eq!(sim.actor::<Counter>(b).unwrap().count, 5);
    }

    #[test]
    fn messages_to_dead_actors_are_counted() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        sim.send_after(SimDuration::from_secs(1), a, Bump(1));
        sim.kill(a);
        assert!(!sim.is_alive(a));
        sim.run();
        assert_eq!(sim.metrics_ref().counter("sim.dropped_messages"), 1);
    }

    #[test]
    fn spawn_from_handler_and_message_new_actor() {
        struct Spawner {
            child: Option<ActorId>,
        }
        struct Go;
        impl Actor for Spawner {
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if msg.downcast::<Go>().is_ok() {
                    let child = ctx.spawn(
                        "child",
                        Counter {
                            count: 0,
                            echo_to: None,
                        },
                    );
                    self.child = Some(child);
                    ctx.send(child, Bump(7));
                }
            }
        }
        let mut sim = Sim::new(0);
        let s = sim.spawn("spawner", Spawner { child: None });
        sim.send(s, Go);
        sim.run();
        let child = sim.actor::<Spawner>(s).unwrap().child.unwrap();
        assert_eq!(sim.actor::<Counter>(child).unwrap().count, 7);
    }

    #[test]
    fn on_start_runs_and_can_schedule() {
        struct Starter {
            started: bool,
            fired: bool,
        }
        struct Timer;
        impl Actor for Starter {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                self.started = true;
                ctx.schedule_self(SimDuration::from_millis(10), Timer);
            }
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                if msg.downcast::<Timer>().is_ok() {
                    self.fired = true;
                }
            }
        }
        let mut sim = Sim::new(0);
        let s = sim.spawn(
            "starter",
            Starter {
                started: false,
                fired: false,
            },
        );
        assert!(sim.actor::<Starter>(s).unwrap().started);
        sim.run();
        assert!(sim.actor::<Starter>(s).unwrap().fired);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        sim.send_after(SimDuration::from_secs(1), a, Bump(1));
        sim.send_after(SimDuration::from_secs(10), a, Bump(1));
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.actor::<Counter>(a).unwrap().count, 1);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(5));
        assert_eq!(sim.queue_len(), 1);
        sim.run();
        assert_eq!(sim.actor::<Counter>(a).unwrap().count, 2);
    }

    #[test]
    fn self_kill_takes_effect() {
        struct Quitter {
            handled: u32,
        }
        struct Die;
        impl Actor for Quitter {
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if msg.downcast::<Die>().is_ok() {
                    self.handled += 1;
                    ctx.kill(ctx.self_id());
                }
            }
        }
        let mut sim = Sim::new(0);
        let q = sim.spawn("quitter", Quitter { handled: 0 });
        sim.send(q, Die);
        sim.send_after(SimDuration::from_secs(1), q, Die);
        sim.run();
        assert!(!sim.is_alive(q));
        assert_eq!(sim.metrics_ref().counter("sim.dropped_messages"), 1);
    }

    #[test]
    fn halt_stops_the_world() {
        struct Halter;
        struct Now;
        impl Actor for Halter {
            fn on_message(&mut self, _msg: Msg, ctx: &mut Ctx<'_>) {
                ctx.halt();
            }
        }
        let mut sim = Sim::new(0);
        let h = sim.spawn("halter", Halter);
        let c = sim.spawn(
            "c",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        sim.send(h, Now);
        sim.send_after(SimDuration::from_secs(1), c, Bump(1));
        sim.run();
        assert_eq!(sim.actor::<Counter>(c).unwrap().count, 0, "halt preempted");
    }

    #[test]
    fn background_timers_do_not_keep_run_alive() {
        struct Beacon {
            ticks: u64,
        }
        struct Tick;
        impl Actor for Beacon {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.schedule_self_background(SimDuration::from_secs(5), Tick);
            }
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if msg.downcast::<Tick>().is_ok() {
                    self.ticks += 1;
                    ctx.schedule_self_background(SimDuration::from_secs(5), Tick);
                }
            }
        }
        let mut sim = Sim::new(0);
        let b = sim.spawn("beacon", Beacon { ticks: 0 });
        let c = sim.spawn(
            "c",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        // Foreground work 12s out: the beacon's 5s and 10s ticks fire while
        // the foreground event is pending, then run() stops.
        sim.send_after(SimDuration::from_secs(12), c, Bump(1));
        sim.run();
        assert_eq!(sim.actor::<Counter>(c).unwrap().count, 1);
        assert_eq!(sim.actor::<Beacon>(b).unwrap().ticks, 2);
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_secs(12));
        assert_eq!(sim.foreground_queue_len(), 0);
        assert_eq!(sim.queue_len(), 1, "daemon tick still queued");
        // run_until *does* drive background time forward.
        sim.run_until(SimTime::ZERO + SimDuration::from_secs(31));
        assert_eq!(sim.actor::<Beacon>(b).unwrap().ticks, 6);
    }

    #[test]
    fn same_instant_burst_coalesces_into_one_batch() {
        struct Batcher {
            batches: Vec<usize>,
        }
        struct Tag(#[allow(dead_code)] u64);
        impl Actor for Batcher {
            fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
                self.batches.push(1);
            }
            fn on_batch(&mut self, msgs: &mut Vec<Msg>, _ctx: &mut Ctx<'_>) {
                self.batches.push(msgs.len());
                msgs.clear();
            }
        }
        let mut sim = Sim::new(0);
        let b = sim.spawn("batcher", Batcher { batches: vec![] });
        for i in 0..10 {
            sim.send(b, Tag(i));
        }
        sim.send_after(SimDuration::from_secs(1), b, Tag(99));
        sim.run();
        // 10 same-instant messages → one batch; the later singleton goes
        // through on_message.
        assert_eq!(sim.actor::<Batcher>(b).unwrap().batches, vec![10, 1]);
        assert_eq!(sim.events_processed(), 11);
        assert_eq!(sim.metrics_ref().counter("sim.batch.bursts"), 1);
        assert_eq!(sim.metrics_ref().counter("sim.batch.coalesced_messages"), 9);
        assert_eq!(sim.metrics_ref().counter("sim.batch.max_size"), 10);
        let stats = sim.drain_stats(b);
        assert_eq!(stats.messages, 11);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.max_batch, 10);
    }

    #[test]
    fn interleaved_destinations_split_batches() {
        struct Recorder {
            seen: Vec<u64>,
        }
        struct Tag(u64);
        impl Actor for Recorder {
            fn on_message(&mut self, msg: Msg, _ctx: &mut Ctx<'_>) {
                self.seen.push(msg.downcast::<Tag>().unwrap().0);
            }
            fn on_batch(&mut self, msgs: &mut Vec<Msg>, _ctx: &mut Ctx<'_>) {
                for msg in msgs.drain(..) {
                    self.seen.push(msg.downcast::<Tag>().unwrap().0);
                }
            }
        }
        let mut sim = Sim::new(0);
        let a = sim.spawn("a", Recorder { seen: vec![] });
        let b = sim.spawn("b", Recorder { seen: vec![] });
        // a a b a: only the leading `a a` run coalesces.
        sim.send(a, Tag(0));
        sim.send(a, Tag(1));
        sim.send(b, Tag(2));
        sim.send(a, Tag(3));
        sim.run();
        assert_eq!(sim.actor::<Recorder>(a).unwrap().seen, vec![0, 1, 3]);
        assert_eq!(sim.actor::<Recorder>(b).unwrap().seen, vec![2]);
        assert_eq!(sim.drain_stats(a).batches, 2, "run split by b's event");
        assert_eq!(sim.drain_stats(a).max_batch, 2);
    }

    #[test]
    fn batching_off_restores_per_message_delivery() {
        struct Batcher {
            calls: Vec<usize>,
        }
        struct Tag;
        impl Actor for Batcher {
            fn on_message(&mut self, _msg: Msg, _ctx: &mut Ctx<'_>) {
                self.calls.push(1);
            }
            fn on_batch(&mut self, msgs: &mut Vec<Msg>, _ctx: &mut Ctx<'_>) {
                self.calls.push(msgs.len());
                msgs.clear();
            }
        }
        let mut sim = Sim::new(0);
        sim.set_batching(false);
        let b = sim.spawn("b", Batcher { calls: vec![] });
        for _ in 0..5 {
            sim.send(b, Tag);
        }
        sim.run();
        assert_eq!(sim.actor::<Batcher>(b).unwrap().calls, vec![1; 5]);
        assert_eq!(sim.metrics_ref().counter("sim.batch.bursts"), 0);
    }

    #[test]
    fn batched_messages_to_dead_actor_all_counted_dropped() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "a",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        for _ in 0..4 {
            sim.send_after(SimDuration::from_secs(1), a, Bump(1));
        }
        sim.kill(a);
        sim.run();
        assert_eq!(sim.metrics_ref().counter("sim.dropped_messages"), 4);
    }

    #[test]
    fn dispatch_report_lists_busy_actors() {
        let mut sim = Sim::new(0);
        let a = sim.spawn(
            "busy",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        for _ in 0..3 {
            sim.send(a, Bump(1));
        }
        sim.run();
        let table = sim.dispatch_report();
        assert_eq!(table.rows.len(), 1);
        assert!(table.rows[0][0].starts_with("busy"));
        assert_eq!(table.rows[0][1], "3");
    }

    /// A Concurrent actor exercising everything a wave worker buffers:
    /// RNG draws, counter/histogram metrics, and same-instant sends.
    struct Worker {
        sum: u64,
        peer: Option<ActorId>,
    }
    /// `(payload, remaining echo hops)` — hops bound the ring ping-pong.
    struct Work(u64, u32);
    impl Actor for Worker {
        fn concurrency(&self) -> Concurrency {
            Concurrency::Concurrent
        }
        fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
            let w = msg.downcast::<Work>().unwrap();
            let draw = ctx.rng().next_below(1000);
            self.sum = self.sum.wrapping_add(w.0).wrapping_add(draw);
            ctx.metrics().incr("worker.msgs", 1);
            ctx.metrics().record("worker.draw", draw as f64);
            if let (Some(p), 1..) = (self.peer, w.1) {
                ctx.send_after(SimDuration::from_millis(1), p, Work(draw, w.1 - 1));
            }
        }
    }

    /// Run a two-round workload over `k` Concurrent actors (each echoing a
    /// same-delay follow-up to a ring peer) and fingerprint everything the
    /// determinism contract covers.
    fn wave_fingerprint(threads: usize, k: usize) -> (Vec<u64>, Vec<(String, u64)>, u64, SimTime) {
        let mut sim = Sim::new(7);
        sim.set_threads(threads);
        let ids: Vec<ActorId> = (0..k)
            .map(|i| sim.spawn(format!("w{i}"), Worker { sum: 0, peer: None }))
            .collect();
        for (i, id) in ids.iter().enumerate() {
            let peer = ids[(i + 1) % k];
            sim.actor_mut::<Worker>(*id).unwrap().peer = Some(peer);
        }
        // Contiguous same-instant runs per actor: one wave of k runs.
        for id in &ids {
            for m in 0..8u64 {
                sim.send(*id, Work(m, 3));
            }
        }
        sim.run();
        let sums = ids
            .iter()
            .map(|id| sim.actor::<Worker>(*id).unwrap().sum)
            .collect();
        let counters = sim
            .metrics_ref()
            .counters()
            .filter(|(name, _)| !name.contains("parallel"))
            .map(|(n, v)| (n.to_owned(), v))
            .collect();
        (sums, counters, sim.events_processed(), sim.now())
    }

    #[test]
    fn parallel_wave_bit_identical_to_serial() {
        let serial = wave_fingerprint(1, 6);
        for threads in [2, 4] {
            let parallel = wave_fingerprint(threads, 6);
            assert_eq!(serial, parallel, "threads={threads} diverged from serial");
        }
    }

    #[test]
    fn parallel_wave_actually_ran_in_wave_mode() {
        let mut sim = Sim::new(3);
        sim.set_threads(4);
        let a = sim.spawn("a", Worker { sum: 0, peer: None });
        let b = sim.spawn("b", Worker { sum: 0, peer: None });
        sim.send(a, Work(1, 0));
        sim.send(b, Work(2, 0));
        sim.run();
        assert_eq!(sim.metrics_ref().counter("sim.parallel.waves"), 1);
        assert_eq!(sim.metrics_ref().counter("sim.parallel.wave_runs"), 2);
    }

    #[test]
    fn exclusive_actor_breaks_a_wave() {
        let mut sim = Sim::new(3);
        sim.set_threads(4);
        let a = sim.spawn("a", Worker { sum: 0, peer: None });
        let x = sim.spawn(
            "x",
            Counter {
                count: 0,
                echo_to: None,
            },
        );
        let b = sim.spawn("b", Worker { sum: 0, peer: None });
        // a, then the Exclusive x, then b: no two Concurrent runs are
        // adjacent, so nothing parallelizes — and ordering is serial.
        sim.send(a, Work(1, 0));
        sim.send(x, Bump(1));
        sim.send(b, Work(2, 0));
        sim.run();
        assert_eq!(sim.metrics_ref().counter("sim.parallel.waves"), 0);
        assert_eq!(sim.actor::<Counter>(x).unwrap().count, 1);
    }

    #[test]
    fn repeated_destination_ends_the_wave() {
        let mut sim = Sim::new(3);
        sim.set_threads(2);
        let a = sim.spawn("a", Worker { sum: 0, peer: None });
        let b = sim.spawn("b", Worker { sum: 0, peer: None });
        // a a b a: the trailing a-run must not join the wave (its state
        // depends on the first a-run having completed).
        sim.send(a, Work(1, 0));
        sim.send(a, Work(2, 0));
        sim.send(b, Work(3, 0));
        sim.send(a, Work(4, 0));
        sim.run();
        assert_eq!(sim.metrics_ref().counter("sim.parallel.wave_runs"), 2);
        assert_eq!(sim.drain_stats(a).batches, 2);
    }

    #[test]
    fn spawn_from_wave_worker_panics() {
        struct Spawner;
        struct Go;
        impl Actor for Spawner {
            fn concurrency(&self) -> Concurrency {
                Concurrency::Concurrent
            }
            fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                if msg.downcast::<Go>().is_ok() {
                    ctx.spawn(
                        "child",
                        Counter {
                            count: 0,
                            echo_to: None,
                        },
                    );
                }
            }
        }
        let mut sim = Sim::new(1);
        sim.set_threads(2);
        let a = sim.spawn("a", Spawner);
        let b = sim.spawn("b", Spawner);
        sim.send(a, Go);
        sim.send(b, Go);
        let panicked = std::panic::catch_unwind(AssertUnwindSafe(|| {
            sim.run();
        }));
        assert!(panicked.is_err(), "spawn inside a wave must panic");
    }

    #[test]
    fn per_actor_rng_streams_are_insensitive_to_neighbors() {
        // Actor a's draws must not depend on whether actor b ran first at
        // the same instant — the property parallel dispatch relies on.
        fn sum_of(extra_first: bool) -> u64 {
            let mut sim = Sim::new(11);
            let b = sim.spawn("b", Worker { sum: 0, peer: None });
            let a = sim.spawn("a", Worker { sum: 0, peer: None });
            if extra_first {
                sim.send(b, Work(0, 0));
            }
            sim.send(a, Work(0, 0));
            sim.run();
            sim.actor::<Worker>(a).unwrap().sum
        }
        assert_eq!(sum_of(false), sum_of(true));
    }

    #[test]
    fn identical_seeds_identical_traces() {
        fn trace(seed: u64) -> (u64, SimTime) {
            struct Jitter {
                hops: u32,
            }
            struct Hop;
            impl Actor for Jitter {
                fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
                    if msg.downcast::<Hop>().is_ok() && self.hops < 100 {
                        self.hops += 1;
                        let d = SimDuration::from_nanos(ctx.rng().next_below(1000) + 1);
                        ctx.schedule_self(d, Hop);
                    }
                }
            }
            let mut sim = Sim::new(seed);
            let j = sim.spawn("jitter", Jitter { hops: 0 });
            sim.send(j, Hop);
            sim.run();
            (sim.events_processed(), sim.now())
        }
        assert_eq!(trace(1234), trace(1234));
        assert_ne!(trace(1234).1, trace(4321).1);
    }
}
