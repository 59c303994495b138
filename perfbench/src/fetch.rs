//! The `lake-fetch` consumer: one Interest per [`Fetch`], resolved per
//! record.
//!
//! `lidc_bench::DataProbe` keys its pending fetches by name alone, so a
//! second in-flight fetch of a name overwrites the first and the first is
//! never answered. Here every name maps to the list of records waiting on
//! it: the forwarder aggregates same-name Interests into one PIT entry and
//! returns one Data, which settles every waiter. A record that never
//! settles stays `answered_at == None` and counts as a failed op.

use std::collections::HashMap;

use bytes::Bytes;
use lidc_ndn::app::{Consumer, ConsumerEvent, RetxTimer};
use lidc_ndn::face::FaceIdAlloc;
use lidc_ndn::forwarder::AppRx;
use lidc_ndn::name::Name;
use lidc_ndn::net::attach_app;
use lidc_ndn::packet::{ContentType, Data, Interest};
use lidc_simcore::engine::{Actor, ActorId, Ctx, Msg, Sim};
use lidc_simcore::time::{SimDuration, SimTime};

/// Ask a [`FetchDriver`] to fetch one named segment.
#[derive(Debug)]
pub struct Fetch(pub Name);

/// What one fetch returned.
#[derive(Debug)]
pub struct FetchRecord {
    pub name: Name,
    pub asked_at: SimTime,
    pub answered_at: Option<SimTime>,
    /// NACKed, timed out, or answered with an application NACK.
    pub failed: bool,
    /// The received Data with its content taken out (kept small so the
    /// driver does not pin every segment in memory).
    pub header: Option<Data>,
    /// [`checksum`] of the received content.
    pub checksum: u64,
}

impl FetchRecord {
    pub fn is_ok(&self) -> bool {
        self.answered_at.is_some() && !self.failed
    }

    pub fn latency(&self) -> Option<SimDuration> {
        self.answered_at.map(|t| t.since(self.asked_at))
    }
}

/// A fast 64-bit content checksum (multiply-xorshift over 8-byte words).
/// Received segments are compared to regenerated ones through it after
/// the run, so the consumer need not hash or retain 1 MiB payloads.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let v = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ v).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 29;
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    }
    h
}

pub struct FetchDriver {
    consumer: Option<Consumer>,
    /// Pending name → every record waiting on it, in request order.
    pending: HashMap<Name, Vec<usize>>,
    pub records: Vec<FetchRecord>,
}

impl FetchDriver {
    pub fn deploy(sim: &mut Sim, fwd: ActorId, alloc: &FaceIdAlloc, label: String) -> ActorId {
        let id = sim.spawn(
            label,
            FetchDriver {
                consumer: None,
                pending: HashMap::new(),
                records: Vec::new(),
            },
        );
        let face = attach_app(sim, fwd, id, alloc);
        sim.actor_mut::<FetchDriver>(id)
            .expect("just spawned")
            .consumer = Some(Consumer::new(fwd, face));
        id
    }

    fn consumer(&mut self) -> &mut Consumer {
        self.consumer
            .as_mut()
            .expect("deploy attaches the consumer")
    }

    fn on_fetch(&mut self, name: Name, ctx: &mut Ctx<'_>) {
        let waiters = self.pending.entry(name.clone()).or_default();
        waiters.push(self.records.len());
        let first = waiters.len() == 1;
        self.records.push(FetchRecord {
            name: name.clone(),
            asked_at: ctx.now(),
            answered_at: None,
            failed: false,
            header: None,
            checksum: 0,
        });
        // A name already in flight is answered by the pending Interest.
        if first {
            let interest = Interest::new(name).with_lifetime(SimDuration::from_secs(4));
            self.consumer().express(ctx, interest, 2);
        }
    }

    fn on_data(&mut self, mut data: Data, now: SimTime) {
        let Some(waiters) = self.pending.remove(&data.name) else {
            return;
        };
        let failed = data.content_type == ContentType::Nack;
        let sum = checksum(&data.content);
        data.content = Bytes::new();
        for idx in waiters {
            let rec = &mut self.records[idx];
            rec.answered_at = Some(now);
            rec.failed = failed;
            rec.checksum = sum;
            rec.header = Some(data.clone());
        }
    }

    fn on_failure(&mut self, name: &Name) {
        for idx in self.pending.remove(name).unwrap_or_default() {
            self.records[idx].failed = true;
        }
    }

    fn on_event(&mut self, event: Option<ConsumerEvent>, now: SimTime) {
        match event {
            Some(ConsumerEvent::Data(d)) => self.on_data(d, now),
            Some(ConsumerEvent::Nack(_, i)) | Some(ConsumerEvent::Timeout(i)) => {
                self.on_failure(&i.name)
            }
            None => {}
        }
    }
}

impl Actor for FetchDriver {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let msg = match msg.downcast::<Fetch>() {
            Ok(f) => return self.on_fetch(f.0, ctx),
            Err(m) => m,
        };
        let msg = match msg.downcast::<AppRx>() {
            Ok(rx) => {
                let event = self.consumer().on_app_rx(&rx);
                return self.on_event(event, ctx.now());
            }
            Err(m) => m,
        };
        if let Ok(t) = msg.downcast::<RetxTimer>() {
            let event = self.consumer().on_timer(ctx, &t);
            self.on_event(event, ctx.now());
        }
    }
}
