//! # lidc-simcore — deterministic discrete-event simulation core
//!
//! Every subsystem in the LIDC reproduction (the NDN forwarders, the
//! Kubernetes control planes, the gateways, the WAN links) runs on top of
//! this crate. It provides:
//!
//! * **Virtual time** ([`SimTime`], [`SimDuration`]) with integer-nanosecond
//!   resolution and paper-style formatting (`8h9m50s`).
//! * **A discrete-event engine** ([`Sim`]) that dispatches typed messages to
//!   registered [`Actor`]s in deterministic `(time, sequence)` order.
//! * **Deterministic randomness** ([`DetRng`]) — a single `u64` seed fans out
//!   into independent, reproducible streams.
//! * **Metrics** ([`Metrics`], [`Histogram`]) and **report emission**
//!   ([`Table`], [`Report`]) used by the experiment harnesses to regenerate
//!   the paper's tables.
//!
//! The engine is serial by default and **deterministically parallel** on
//! demand: determinism is a design requirement (DESIGN.md §8), and
//! [`Sim::set_threads`] may only buy wall-clock speed, never change a
//! result. The contract (spelled out in [`engine`]'s module docs): at any
//! thread count the schedule, every metric readout, every reply, and every
//! actor end state are bit-identical to serial execution. Parallel mode may
//! reorder only the wall-clock interleaving of same-instant batches for
//! *distinct* actors that opt in via [`engine::Concurrency::Concurrent`];
//! it may not reorder anything observable — cross-actor delivery order,
//! effect sequencing, per-actor RNG streams ([`engine::Ctx::rng`] draws
//! from a stream derived per actor from the master seed), or metrics
//! (buffered per worker and folded in run order via [`Metrics::merge`]).
//! Concurrent actors must not spawn/kill/halt in handlers (panics) nor
//! write state shared with other Concurrent actors. Real parallelism is
//! likewise used where real computation happens (the genomics aligner
//! kernel).
//!
//! ## Example
//!
//! ```
//! use lidc_simcore::prelude::*;
//!
//! struct Ping { peer: Option<ActorId>, got: u32 }
//! struct Tick;
//!
//! impl Actor for Ping {
//!     fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
//!         if msg.downcast::<Tick>().is_ok() {
//!             self.got += 1;
//!             if let Some(p) = self.peer {
//!                 ctx.send_after(SimDuration::from_millis(5), p, Tick);
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = Sim::new(42);
//! let a = sim.spawn("a", Ping { peer: None, got: 0 });
//! let b = sim.spawn("b", Ping { peer: Some(a), got: 0 });
//! sim.send(b, Tick);
//! sim.run();
//! assert_eq!(sim.actor::<Ping>(a).unwrap().got, 1);
//! assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_millis(5));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bytesize;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod metrics_keys;
pub mod report;
pub mod rng;
pub mod time;

pub use bytesize::{format_bytes, parse_bytes, ByteSize};
pub use engine::{Actor, ActorId, Concurrency, Ctx, Msg, Sim};
pub use faults::{
    ChaosProfile, FaultAction, FaultController, FaultEvent, FaultHook, FaultKind, FaultSchedule,
    StartFaults,
};
pub use metrics::{Histogram, HistogramSummary, Metrics};
pub use report::{Report, Table};
pub use rng::{DetRng, SplitMix64};
pub use time::{SimDuration, SimTime};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::bytesize::{format_bytes, ByteSize};
    pub use crate::engine::{Actor, ActorId, Ctx, Msg, Sim};
    pub use crate::faults::{
        FaultAction, FaultController, FaultEvent, FaultKind, FaultSchedule, StartFaults,
    };
    pub use crate::metrics::{Histogram, Metrics};
    pub use crate::report::{Report, Table};
    pub use crate::rng::DetRng;
    pub use crate::time::{SimDuration, SimTime};
}
