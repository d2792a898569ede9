//! A real-wire [`Transport`] backend: UDP datagrams over loopback sockets.
//!
//! The paper's prototype connects the ECM, the trusted server and the smart
//! phone through OS sockets; [`UdpTransport`] is that deployment shape.  Each
//! registered endpoint binds its own non-blocking UDP socket on
//! `127.0.0.1:0` and the backend keeps a name → address directory, so the
//! federation protocol — install waves, updates, reconciliation, dedup,
//! retransmission — runs over a genuine OS network path with real syscalls,
//! real kernel buffering and real wall-clock timing.
//!
//! # Wire format
//!
//! One datagram carries exactly one checksummed frame in the
//! [`dynar_foundation::journal`] layout (`[len u32 LE][checksum u32 LE][body]`,
//! checksummed by [`dynar_foundation::journal::frame_checksum`]), whose body
//! is `[from_len u16 LE][from bytes][payload]`.  The checksum
//! rejects corrupted or foreign datagrams instead of feeding them to the
//! protocol layer.
//!
//! # Induced faults
//!
//! UDP on loopback is reliable and ordered in practice, which would leave
//! the reliability plane untested.  The backend therefore *induces* faults
//! at the sender, deterministically from a seed:
//!
//! * `loss_probability` — the datagram is never transmitted and counts as
//!   `lost`.
//! * `reorder_probability` — the datagram is held back and only transmitted
//!   on the next [`Transport::step`], after later sends already hit the
//!   wire: genuine reordering of real datagrams, not a simulated shuffle.
//!
//! The deterministic per-link fault capability
//! ([`Transport::fault_injection`]) is intentionally **not** implemented:
//! this backend's faults are configured at construction, the way a real
//! network's impairments are properties of the path, not of the test.
//!
//! # Conservation
//!
//! `sent == delivered + lost + dropped + in_flight` holds exactly because
//! both ends of every link live in this process: a transmitted datagram
//! stays `in_flight` until a step reads it back out of the destination
//! socket.  An unregistered endpoint leaves a **tombstone** that keeps
//! draining its socket, counting stale arrivals as `dropped` (with
//! dropped-destination feedback), so quiescence — `in_flight == 0` after a
//! settle loop — remains assertable at the stats level.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::journal::{append_frame, FrameReader};
use dynar_foundation::payload::Payload;
use dynar_foundation::time::Tick;

use crate::transport::{
    EndpointName, FaultInjection, Transport, TransportStats, DROPPED_FEEDBACK_CAP,
};

/// Largest datagram the backend will transmit (UDP's practical payload
/// ceiling on loopback, minus framing headroom).
pub const MAX_DATAGRAM_LEN: usize = 60_000;

/// Configuration of the UDP loopback backend.
#[derive(Debug, Clone, PartialEq)]
pub struct UdpConfig {
    /// Seed of the induced-fault decisions.
    pub seed: u64,
    /// Probability in `[0, 1]` that a sent datagram is never transmitted
    /// (counted as `lost`).
    pub loss_probability: f64,
    /// Probability in `[0, 1]` that a sent datagram is held back until the
    /// next step, so later datagrams overtake it on the wire.
    pub reorder_probability: f64,
}

impl Default for UdpConfig {
    fn default() -> Self {
        UdpConfig {
            seed: 0xF0F0,
            loss_probability: 0.0,
            reorder_probability: 0.0,
        }
    }
}

/// One endpoint's socket: live (registered) or a tombstone still draining
/// stale traffic after unregistration.
#[derive(Debug)]
struct UdpEndpoint {
    name: EndpointName,
    socket: UdpSocket,
    addr: SocketAddr,
    mailbox: VecDeque<(EndpointName, Payload)>,
    live: bool,
}

/// A datagram held back by the reorder model, transmitted on the next step.
#[derive(Debug)]
struct HeldDatagram {
    from: SocketAddr,
    to: SocketAddr,
    bytes: Vec<u8>,
}

/// The UDP loopback [`Transport`] backend.  See the [module
/// documentation](self) for the wire format and fault model.
#[derive(Debug)]
pub struct UdpTransport {
    config: UdpConfig,
    endpoints: Vec<UdpEndpoint>,
    /// name -> index into `endpoints`, live endpoints only.
    by_name: HashMap<String, usize>,
    /// Interned sender names, so steady-state delivery shares one `Arc<str>`
    /// per sender instead of allocating a name per message.
    sender_names: HashMap<String, EndpointName>,
    held: Vec<HeldDatagram>,
    dropped_destinations: Vec<EndpointName>,
    stats: TransportStats,
    /// Datagrams that failed checksum/framing validation on receive (foreign
    /// or corrupted traffic; never produced by this backend's own sends).
    malformed: u64,
    rng: StdRng,
    recv_buf: Vec<u8>,
    now: Tick,
}

/// Encodes one wire datagram: a checksummed frame whose body carries the
/// sender name and the payload.
fn encode_datagram(from: &str, payload: &[u8]) -> Vec<u8> {
    let mut body = Vec::with_capacity(2 + from.len() + payload.len());
    body.extend_from_slice(&(from.len() as u16).to_le_bytes());
    body.extend_from_slice(from.as_bytes());
    body.extend_from_slice(payload);
    let mut datagram = Vec::with_capacity(body.len() + 8);
    append_frame(&mut datagram, &body);
    datagram
}

/// Decodes a wire datagram into `(sender name, payload bytes)`, rejecting
/// anything that is not exactly one intact frame.
fn decode_datagram(datagram: &[u8]) -> Option<(&str, &[u8])> {
    let mut reader = FrameReader::new(datagram);
    let body = reader.next_frame().ok()??;
    if reader.next_frame() != Ok(None) {
        return None;
    }
    let (len, rest) = body.split_first_chunk::<2>()?;
    let from_len = usize::from(u16::from_le_bytes(*len));
    if rest.len() < from_len {
        return None;
    }
    let (from, payload) = rest.split_at(from_len);
    Some((std::str::from_utf8(from).ok()?, payload))
}

impl UdpTransport {
    /// Creates the backend.  No sockets are bound until endpoints register.
    pub fn new(config: UdpConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        UdpTransport {
            config,
            endpoints: Vec::new(),
            by_name: HashMap::new(),
            sender_names: HashMap::new(),
            held: Vec::new(),
            dropped_destinations: Vec::new(),
            stats: TransportStats::default(),
            malformed: 0,
            rng,
            recv_buf: vec![0u8; 65_536],
            now: Tick::ZERO,
        }
    }

    /// The loopback socket address of a registered endpoint (what a foreign
    /// process would send to).
    pub fn local_addr(&self, name: &str) -> Option<SocketAddr> {
        self.by_name.get(name).map(|&i| self.endpoints[i].addr)
    }

    /// Datagrams rejected by framing/checksum validation so far (foreign or
    /// corrupted traffic — never this backend's own sends).
    pub fn malformed_count(&self) -> u64 {
        self.malformed
    }

    /// Interns a sender name into the shared `Arc<str>` form.
    fn intern_sender(sender_names: &mut HashMap<String, EndpointName>, from: &str) -> EndpointName {
        if let Some(name) = sender_names.get(from) {
            return Arc::clone(name);
        }
        let name: EndpointName = Arc::from(from);
        sender_names.insert(from.to_owned(), Arc::clone(&name));
        name
    }

    /// Transmits one datagram, downgrading an OS send failure to a loss (the
    /// message was accounted `in_flight`; a kernel refusal is wire loss).
    fn transmit(stats: &mut TransportStats, socket: &UdpSocket, to: SocketAddr, bytes: &[u8]) {
        if socket.send_to(bytes, to).is_err() {
            stats.in_flight -= 1;
            stats.lost += 1;
        }
    }

    /// Drains one endpoint's socket into its mailbox (live) or the dropped
    /// ledger (tombstone).
    fn pump_endpoint(
        endpoint: &mut UdpEndpoint,
        recv_buf: &mut [u8],
        sender_names: &mut HashMap<String, EndpointName>,
        dropped_destinations: &mut Vec<EndpointName>,
        stats: &mut TransportStats,
        malformed: &mut u64,
    ) {
        loop {
            let received = match endpoint.socket.recv_from(recv_buf) {
                Ok((received, _)) => received,
                Err(_) => return,
            };
            let Some((from, payload)) = decode_datagram(&recv_buf[..received]) else {
                *malformed += 1;
                continue;
            };
            stats.in_flight -= 1;
            if endpoint.live {
                let sender = Self::intern_sender(sender_names, from);
                endpoint
                    .mailbox
                    .push_back((sender, Payload::copy_from(payload)));
                stats.delivered += 1;
            } else {
                stats.dropped += 1;
                if dropped_destinations.len() < DROPPED_FEEDBACK_CAP {
                    dropped_destinations.push(Arc::clone(&endpoint.name));
                }
            }
        }
    }
}

impl Transport for UdpTransport {
    fn register(&mut self, name: &str) {
        if self.by_name.contains_key(name) {
            return;
        }
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind loopback UDP socket");
        socket
            .set_nonblocking(true)
            .expect("non-blocking UDP socket");
        let addr = socket.local_addr().expect("bound socket has an address");
        self.by_name.insert(name.to_owned(), self.endpoints.len());
        self.endpoints.push(UdpEndpoint {
            name: Arc::from(name),
            socket,
            addr,
            mailbox: VecDeque::new(),
            live: true,
        });
    }

    fn unregister(&mut self, name: &str) -> bool {
        let Some(index) = self.by_name.remove(name) else {
            return false;
        };
        // Tombstone: the socket keeps draining, so datagrams already on the
        // wire towards the departed endpoint are counted as dropped (with
        // feedback) instead of leaking out of the conservation ledger.  The
        // undrained mailbox is discarded, like the hub's.
        let endpoint = &mut self.endpoints[index];
        endpoint.live = false;
        endpoint.mailbox.clear();
        true
    }

    fn is_registered(&self, name: &str) -> bool {
        self.by_name.contains_key(name)
    }

    fn send(&mut self, from: &str, to: &str, payload: Payload) -> Result<()> {
        let Some(&from_index) = self.by_name.get(from) else {
            return Err(DynarError::TransportClosed(from.to_owned()));
        };
        let Some(&to_index) = self.by_name.get(to) else {
            return Err(DynarError::TransportClosed(to.to_owned()));
        };
        self.stats.sent += 1;
        if self.config.loss_probability > 0.0 && self.rng.gen_bool(self.config.loss_probability) {
            self.stats.lost += 1;
            return Ok(());
        }
        let datagram = encode_datagram(from, &payload);
        if datagram.len() > MAX_DATAGRAM_LEN {
            self.stats.lost += 1;
            return Err(DynarError::ProtocolViolation(format!(
                "datagram of {} bytes exceeds the UDP transport's {MAX_DATAGRAM_LEN}-byte limit",
                datagram.len()
            )));
        }
        self.stats.in_flight += 1;
        let from_addr = self.endpoints[from_index].addr;
        let to_addr = self.endpoints[to_index].addr;
        if self.config.reorder_probability > 0.0
            && self.rng.gen_bool(self.config.reorder_probability)
        {
            self.held.push(HeldDatagram {
                from: from_addr,
                to: to_addr,
                bytes: datagram,
            });
        } else {
            Self::transmit(
                &mut self.stats,
                &self.endpoints[from_index].socket,
                to_addr,
                &datagram,
            );
        }
        Ok(())
    }

    fn step(&mut self, now: Tick) {
        self.now = now;
        // Release held datagrams first: everything sent since they were held
        // already hit the wire, so this is genuine reordering.  A held
        // datagram whose sender socket vanished (endpoint churn) is sent
        // from any live socket — the sender name travels in the frame.
        for held in self.held.drain(..) {
            let socket = self
                .endpoints
                .iter()
                .find(|e| e.addr == held.from)
                .or_else(|| self.endpoints.first())
                .map(|e| &e.socket);
            match socket {
                Some(socket) => Self::transmit(&mut self.stats, socket, held.to, &held.bytes),
                None => {
                    self.stats.in_flight -= 1;
                    self.stats.lost += 1;
                }
            }
        }
        for endpoint in &mut self.endpoints {
            Self::pump_endpoint(
                endpoint,
                &mut self.recv_buf,
                &mut self.sender_names,
                &mut self.dropped_destinations,
                &mut self.stats,
                &mut self.malformed,
            );
        }
    }

    fn drain_into(&mut self, endpoint: &str, into: &mut Vec<(EndpointName, Payload)>) {
        if let Some(&index) = self.by_name.get(endpoint) {
            into.extend(self.endpoints[index].mailbox.drain(..));
        }
    }

    fn pending_for(&self, endpoint: &str) -> usize {
        self.by_name
            .get(endpoint)
            .map(|&i| self.endpoints[i].mailbox.len())
            .unwrap_or(0)
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }

    fn take_dropped_destinations(&mut self) -> Vec<EndpointName> {
        std::mem::take(&mut self.dropped_destinations)
    }
}

// `fault_injection` keeps its `None` default: induced faults are part of the
// path configuration (`UdpConfig`), not a runtime capability.
const _: Option<&dyn FaultInjection> = None;

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(transport: &mut UdpTransport, mut tick: u64) -> u64 {
        for _ in 0..200 {
            tick += 1;
            transport.step(Tick::new(tick));
            if transport.stats().in_flight == 0 {
                return tick;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("UDP transport did not settle: {:?}", transport.stats());
    }

    #[test]
    fn datagram_codec_round_trips_and_rejects_garbage() {
        let bytes = encode_datagram("vehicle-7", b"hello");
        assert_eq!(decode_datagram(&bytes), Some(("vehicle-7", &b"hello"[..])));
        assert_eq!(decode_datagram(&bytes[..bytes.len() - 1]), None, "torn");
        let mut corrupted = bytes.clone();
        *corrupted.last_mut().unwrap() ^= 0x01;
        assert_eq!(decode_datagram(&corrupted), None, "checksum");
        assert_eq!(decode_datagram(&[]), None);
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes);
        assert_eq!(decode_datagram(&doubled), None, "one frame per datagram");
    }

    #[test]
    fn messages_flow_over_real_sockets() {
        let mut transport = UdpTransport::new(UdpConfig::default());
        transport.register("a");
        transport.register("b");
        assert_ne!(
            transport.local_addr("a"),
            transport.local_addr("b"),
            "endpoints own distinct sockets"
        );
        transport
            .send("a", "b", Payload::from(vec![1u8, 2, 3]))
            .unwrap();
        settle(&mut transport, 0);
        let delivered = transport.drain("b");
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].0.as_ref(), "a");
        assert_eq!(delivered[0].1, vec![1u8, 2, 3]);
        assert!(transport.stats().is_conserved());
        assert_eq!(transport.malformed_count(), 0);
    }

    #[test]
    fn induced_loss_is_deterministic_and_conserved() {
        let run = |seed| {
            let mut transport = UdpTransport::new(UdpConfig {
                seed,
                loss_probability: 0.5,
                ..UdpConfig::default()
            });
            transport.register("a");
            transport.register("b");
            for i in 0..100u8 {
                transport.send("a", "b", Payload::from(vec![i])).unwrap();
            }
            settle(&mut transport, 0);
            let stats = transport.stats();
            assert!(stats.is_conserved());
            assert_eq!(stats.delivered + stats.lost, 100);
            stats.lost
        };
        assert_eq!(run(3), run(3), "seeded loss reproduces");
        assert!(run(3) > 0);
    }

    #[test]
    fn held_datagrams_really_reorder_the_wire() {
        let mut transport = UdpTransport::new(UdpConfig {
            seed: 11,
            reorder_probability: 0.4,
            ..UdpConfig::default()
        });
        transport.register("a");
        transport.register("b");
        for i in 0..50u8 {
            transport.send("a", "b", Payload::from(vec![i])).unwrap();
        }
        settle(&mut transport, 0);
        let order: Vec<u8> = transport.drain("b").iter().map(|(_, p)| p[0]).collect();
        assert_eq!(order.len(), 50, "reordering never loses");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50u8).collect::<Vec<_>>());
        assert_ne!(order, sorted, "some datagram was overtaken");
        assert!(transport.stats().is_conserved());
    }

    #[test]
    fn unregistered_destination_tombstones_count_drops_with_feedback() {
        let mut transport = UdpTransport::new(UdpConfig::default());
        transport.register("a");
        transport.register("b");
        transport.send("a", "b", Payload::from(vec![1u8])).unwrap();
        transport.send("a", "b", Payload::from(vec![2u8])).unwrap();
        assert!(transport.unregister("b"));
        assert!(!transport.unregister("b"));
        settle(&mut transport, 0);
        let stats = transport.stats();
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.delivered, 0);
        assert!(stats.is_conserved());
        let feedback = transport.take_dropped_destinations();
        assert_eq!(feedback.len(), 2);
        assert!(feedback.iter().all(|name| name.as_ref() == "b"));
        assert!(transport.send("a", "b", Payload::from(vec![3u8])).is_err());
    }

    #[test]
    fn reregistration_gets_a_fresh_socket_not_stale_traffic() {
        let mut transport = UdpTransport::new(UdpConfig::default());
        transport.register("a");
        transport.register("b");
        let old_addr = transport.local_addr("b").unwrap();
        transport.send("a", "b", Payload::from(vec![1u8])).unwrap();
        transport.unregister("b");
        transport.register("b");
        assert_ne!(transport.local_addr("b").unwrap(), old_addr);
        let tick = settle(&mut transport, 0);
        assert_eq!(transport.pending_for("b"), 0, "stale traffic dropped");
        transport.send("a", "b", Payload::from(vec![2u8])).unwrap();
        settle(&mut transport, tick);
        let delivered = transport.drain("b");
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].1, vec![2u8]);
        assert!(transport.stats().is_conserved());
    }

    #[test]
    fn foreign_datagrams_are_rejected_not_delivered() {
        let mut transport = UdpTransport::new(UdpConfig::default());
        transport.register("b");
        let addr = transport.local_addr("b").unwrap();
        let stray = UdpSocket::bind("127.0.0.1:0").unwrap();
        stray.send_to(b"not a frame", addr).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        transport.step(Tick::new(1));
        assert_eq!(transport.pending_for("b"), 0);
        assert_eq!(transport.malformed_count(), 1);
        assert!(transport.stats().is_conserved());
    }
}
