//! Mapping of SW-C signals onto in-vehicle network frames.
//!
//! Three pieces live here:
//!
//! * a compact binary codec for [`Value`]s ([`encode_value`] /
//!   [`decode_value`]), used whenever a signal leaves its ECU;
//! * an ISO-TP-like segmentation layer ([`Segmenter`] / [`Reassembler`]) so
//!   that payloads larger than one frame — plug-in installation packages in
//!   particular — can cross the bus;
//! * the system-level description of which signal travels on which frame id
//!   between which ECUs ([`SystemMapping`]), the information an AUTOSAR
//!   system description would contain.
//!
//! Segmentation and reassembly allocate nothing once warm: frames hold
//! their payload inline, [`Segmenter::segment_into`] appends to a caller's
//! reused buffer, and [`Reassembler::accept`] hands a finished payload back
//! as a borrowed slice — of the frame itself for a single-chunk message, of
//! the frame id's reused buffer otherwise.  Which frames reach a
//! reassembler is the comstack's choice: a vehicle reassembles a frame only
//! at an ECU whose RTE maps its id inbound (`dynar_sim::world::Vehicle`),
//! however open the bus acceptance filters are.  Management messages cross
//! as [`Value::Bytes`] of their own encoding, so the value codec wraps them
//! in 5 bytes (a tag and a length) and the receiving PIRTE decodes them
//! once.
//!
//! [`Value`]: dynar_foundation::value::Value
//! [`Value::Bytes`]: dynar_foundation::value::Value::Bytes

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dynar_bus::frame::{CanId, Frame, MAX_PAYLOAD};
use dynar_foundation::error::{DynarError, Result};
use dynar_foundation::ids::EcuId;

// ---------------------------------------------------------------------------
// Value codec (shared with the rest of the stack via dynar-foundation)
// ---------------------------------------------------------------------------

pub use dynar_foundation::codec::{decode_value, encode_value};

// ---------------------------------------------------------------------------
// Segmentation
// ---------------------------------------------------------------------------

/// Bytes of segmentation header per frame: message id, chunk index and chunk
/// count, two bytes each.
pub const SEGMENT_HEADER: usize = 6;

/// Usable payload bytes per frame after the segmentation header.
pub const SEGMENT_DATA: usize = MAX_PAYLOAD - SEGMENT_HEADER;

/// Splits arbitrarily long payloads into bus frames.
///
/// # Example
/// ```
/// use dynar_bus::frame::CanId;
/// use dynar_rte::com_mapping::{Reassembler, Segmenter};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let id = CanId::new(0x200)?;
/// let payload: Vec<u8> = (0..500u32).map(|i| i as u8).collect();
/// let mut segmenter = Segmenter::new();
/// let mut reassembler = Reassembler::new();
///
/// let frames = segmenter.segment(id, &payload)?;
/// let (last, chunks) = frames.split_last().expect("at least one frame");
/// for frame in chunks {
///     assert_eq!(reassembler.accept(frame)?, None);
/// }
/// assert_eq!(reassembler.accept(last)?, Some((id, payload.as_slice())));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Segmenter {
    next_message: HashMap<CanId, u16>,
}

impl Segmenter {
    /// Creates a segmenter.
    pub fn new() -> Self {
        Segmenter::default()
    }

    /// Splits `payload` into frames carrying the given identifier.
    ///
    /// # Errors
    ///
    /// As [`Segmenter::segment_into`].
    pub fn segment(&mut self, id: CanId, payload: &[u8]) -> Result<Vec<Frame>> {
        let mut frames = Vec::with_capacity(payload.len().div_ceil(SEGMENT_DATA).max(1));
        self.segment_into(id, payload, &mut frames)?;
        Ok(frames)
    }

    /// Appends the frames of `payload` to `frames` — the allocation-free
    /// form of [`Segmenter::segment`] for a caller that reuses its buffer
    /// (frames hold their payload inline).
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if the payload would need
    /// more than `u16::MAX` chunks; nothing is appended then.
    pub fn segment_into(
        &mut self,
        id: CanId,
        payload: &[u8],
        frames: &mut Vec<Frame>,
    ) -> Result<()> {
        let chunk_count = payload.len().div_ceil(SEGMENT_DATA).max(1);
        if chunk_count > u16::MAX as usize {
            return Err(DynarError::invalid_config(format!(
                "payload of {} bytes needs {chunk_count} chunks, more than a u16 can number",
                payload.len()
            )));
        }
        let message = {
            let counter = self.next_message.entry(id).or_insert(0);
            let current = *counter;
            *counter = counter.wrapping_add(1);
            current
        };
        for chunk_index in 0..chunk_count {
            let start = chunk_index * SEGMENT_DATA;
            let end = (start + SEGMENT_DATA).min(payload.len());
            let [m0, m1] = message.to_le_bytes();
            let [i0, i1] = (chunk_index as u16).to_le_bytes();
            let [c0, c1] = (chunk_count as u16).to_le_bytes();
            frames.push(Frame::from_slices(
                id,
                &[&[m0, m1, i0, i1, c0, c1], &payload[start..end]],
            )?);
        }
        Ok(())
    }
}

/// One frame id's message under reassembly.  The entry outlives its
/// message: once complete it goes idle (`received == 0`) and its buffers
/// are reused by the next message on the id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PartialMessage {
    message: u16,
    total: u16,
    /// Chunks received so far; 0 while idle.
    received: u16,
    /// chunk index -> arrived.
    arrived: Vec<bool>,
    /// The payload, chunk `i` at byte `i * SEGMENT_DATA`.
    payload: Vec<u8>,
}

/// Reassembles frames produced by a [`Segmenter`] back into payloads.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Reassembler {
    in_progress: HashMap<CanId, PartialMessage>,
    /// Messages abandoned because a newer message started before they
    /// completed (typically caused by dropped frames).
    pub incomplete_dropped: u64,
}

impl Reassembler {
    /// Creates a reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Accepts one frame.  Returns the complete payload once the last chunk
    /// of a message has arrived: a single-chunk message is a slice of the
    /// frame itself, a longer one a slice of the frame id's reassembly
    /// buffer, which is reused by the id's next message.  Neither
    /// allocates once the id's buffer is warm.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for frames that do not carry
    /// a valid segmentation header, and for a chunk other than a message's
    /// last that is not full (a [`Segmenter`] fills every chunk but the
    /// last).
    pub fn accept<'a>(&'a mut self, frame: &'a Frame) -> Result<Option<(CanId, &'a [u8])>> {
        let payload = frame.payload();
        if payload.len() < SEGMENT_HEADER {
            return Err(DynarError::ProtocolViolation(
                "frame shorter than the segmentation header".into(),
            ));
        }
        let message = u16::from_le_bytes([payload[0], payload[1]]);
        let index = u16::from_le_bytes([payload[2], payload[3]]);
        let total = u16::from_le_bytes([payload[4], payload[5]]);
        if total == 0 || index >= total {
            return Err(DynarError::ProtocolViolation(format!(
                "chunk index {index} out of range for {total} chunks"
            )));
        }
        let data = &payload[SEGMENT_HEADER..];
        if index + 1 < total && data.len() != SEGMENT_DATA {
            return Err(DynarError::ProtocolViolation(format!(
                "chunk {index} of {total} carries {} bytes, not {SEGMENT_DATA}",
                data.len()
            )));
        }

        if total == 1 {
            // A whole message in one frame: hand the frame's own bytes back.
            if let Some(entry) = self.in_progress.get_mut(&frame.id()) {
                if entry.received > 0 {
                    self.incomplete_dropped += 1;
                    entry.received = 0;
                }
            }
            return Ok(Some((frame.id(), data)));
        }

        let entry = self.in_progress.entry(frame.id()).or_default();
        if entry.received > 0 && (entry.message != message || entry.total != total) {
            // Abandoned, typically after a lost frame.  Its buffers go too,
            // so a message that claimed a huge chunk count pins no memory
            // past the next message on its id.
            self.incomplete_dropped += 1;
            *entry = PartialMessage::default();
        }
        if entry.received == 0 {
            entry.message = message;
            entry.total = total;
            entry.arrived.clear();
            entry.arrived.resize(usize::from(total), false);
            entry.payload.clear();
        }
        let start = usize::from(index) * SEGMENT_DATA;
        let end = start + data.len();
        if entry.payload.len() < end {
            // Grown exactly: the buffer ends up the size of the largest
            // message the id carried.
            entry.payload.reserve_exact(end - entry.payload.len());
            entry.payload.resize(end, 0);
        }
        entry.payload[start..end].copy_from_slice(data);
        if !std::mem::replace(&mut entry.arrived[usize::from(index)], true) {
            entry.received += 1;
        }
        if entry.received < total {
            return Ok(None);
        }
        entry.received = 0;
        Ok(Some((frame.id(), &entry.payload)))
    }
}

// ---------------------------------------------------------------------------
// System mapping
// ---------------------------------------------------------------------------

/// One end of a signal route: a port on a named component of an ECU.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Endpoint {
    /// Hosting ECU.
    pub ecu: EcuId,
    /// Component instance name on that ECU.
    pub component: String,
    /// Port name on that component.
    pub port: String,
}

impl Endpoint {
    /// Creates an endpoint description.
    pub fn new(ecu: EcuId, component: impl Into<String>, port: impl Into<String>) -> Self {
        Endpoint {
            ecu,
            component: component.into(),
            port: port.into(),
        }
    }
}

/// One system-level signal route: a sender endpoint, the frame id the signal
/// travels on, and the receiving endpoints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignalRoute {
    /// Human-readable signal name.
    pub name: String,
    /// Frame id carrying the signal on the bus.
    pub frame: CanId,
    /// The producing endpoint.
    pub sender: Endpoint,
    /// The consuming endpoints.
    pub receivers: Vec<Endpoint>,
}

/// The inter-ECU communication matrix of one vehicle.
///
/// # Example
/// ```
/// use dynar_bus::frame::CanId;
/// use dynar_foundation::ids::EcuId;
/// use dynar_rte::com_mapping::{Endpoint, SystemMapping};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let mut mapping = SystemMapping::new();
/// mapping.add_route(
///     "plugin-data",
///     CanId::new(0x210)?,
///     Endpoint::new(EcuId::new(1), "plugin-swc-1", "S0"),
///     vec![Endpoint::new(EcuId::new(2), "plugin-swc-2", "S3")],
/// )?;
/// assert_eq!(mapping.routes().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemMapping {
    routes: Vec<SignalRoute>,
}

impl SystemMapping {
    /// Creates an empty mapping.
    pub fn new() -> Self {
        SystemMapping::default()
    }

    /// Adds a route.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::Duplicate`] if the frame id or signal name is
    /// already used by another route.
    pub fn add_route(
        &mut self,
        name: impl Into<String>,
        frame: CanId,
        sender: Endpoint,
        receivers: Vec<Endpoint>,
    ) -> Result<()> {
        let name = name.into();
        if self.routes.iter().any(|r| r.frame == frame) {
            return Err(DynarError::duplicate("frame id", frame));
        }
        if self.routes.iter().any(|r| r.name == name) {
            return Err(DynarError::duplicate("signal route", &name));
        }
        self.routes.push(SignalRoute {
            name,
            frame,
            sender,
            receivers,
        });
        Ok(())
    }

    /// All configured routes.
    pub fn routes(&self) -> &[SignalRoute] {
        &self.routes
    }

    /// Looks up a route by signal name.
    pub fn route(&self, name: &str) -> Option<&SignalRoute> {
        self.routes.iter().find(|r| r.name == name)
    }

    /// The ECUs that appear anywhere in the mapping.
    pub fn ecus(&self) -> Vec<EcuId> {
        let mut ecus: Vec<EcuId> = self
            .routes
            .iter()
            .flat_map(|r| std::iter::once(r.sender.ecu).chain(r.receivers.iter().map(|e| e.ecu)))
            .collect();
        ecus.sort();
        ecus.dedup();
        ecus
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_payload_fits_one_frame() {
        let mut seg = Segmenter::new();
        let id = CanId::new(0x1).unwrap();
        let frames = seg.segment(id, b"hi").unwrap();
        assert_eq!(frames.len(), 1);
        let mut re = Reassembler::new();
        assert_eq!(re.accept(&frames[0]).unwrap(), Some((id, &b"hi"[..])));
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut seg = Segmenter::new();
        let id = CanId::new(0x2).unwrap();
        let frames = seg.segment(id, &[]).unwrap();
        assert_eq!(frames.len(), 1);
        let mut re = Reassembler::new();
        assert_eq!(re.accept(&frames[0]).unwrap(), Some((id, &[][..])));
    }

    #[test]
    fn large_payload_round_trips() {
        let mut seg = Segmenter::new();
        let mut re = Reassembler::new();
        let id = CanId::new(0x3).unwrap();
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let frames = seg.segment(id, &payload).unwrap();
        assert!(frames.len() > 1);
        let mut result = None;
        for frame in &frames {
            result = re
                .accept(frame)
                .unwrap()
                .map(|(id, bytes)| (id, bytes.to_vec()));
        }
        assert_eq!(result, Some((id, payload)));
    }

    #[test]
    fn interleaved_streams_on_different_ids_do_not_mix() {
        let mut seg = Segmenter::new();
        let mut re = Reassembler::new();
        let a = CanId::new(0xA).unwrap();
        let b = CanId::new(0xB).unwrap();
        let pa: Vec<u8> = vec![1; 200];
        let pb: Vec<u8> = vec![2; 200];
        let fa = seg.segment(a, &pa).unwrap();
        let fb = seg.segment(b, &pb).unwrap();
        let mut out = Vec::new();
        for (x, y) in fa.iter().zip(fb.iter()) {
            if let Some((id, bytes)) = re.accept(x).unwrap() {
                out.push((id, bytes.to_vec()));
            }
            if let Some((id, bytes)) = re.accept(y).unwrap() {
                out.push((id, bytes.to_vec()));
            }
        }
        assert_eq!(out, vec![(a, pa), (b, pb)]);
    }

    #[test]
    fn lost_chunk_drops_stale_message_when_next_starts() {
        let mut seg = Segmenter::new();
        let mut re = Reassembler::new();
        let id = CanId::new(0xC).unwrap();
        let first = seg.segment(id, &[1; 200]).unwrap();
        let second = seg.segment(id, &[2; 30]).unwrap();
        // Deliver only the first chunk of the first message, then the second
        // message in full.
        assert_eq!(re.accept(&first[0]).unwrap(), None);
        let done = re.accept(&second[0]).unwrap();
        assert_eq!(done, Some((id, &[2; 30][..])));
        assert_eq!(re.incomplete_dropped, 1);
    }

    #[test]
    fn malformed_segment_headers_are_rejected() {
        let mut re = Reassembler::new();
        let id = CanId::new(0xD).unwrap();
        let short = Frame::new(id, vec![1, 2]).unwrap();
        assert!(re.accept(&short).is_err());
        // total = 0 is invalid.
        let bad = Frame::new(id, vec![0, 0, 0, 0, 0, 0, 1]).unwrap();
        assert!(re.accept(&bad).is_err());
        // Chunk 0 of 2 must be full.
        let short_chunk = Frame::new(id, vec![0, 0, 0, 0, 2, 0, 1]).unwrap();
        assert!(re.accept(&short_chunk).is_err());
    }

    #[test]
    fn reassembly_buffers_are_reused_across_messages() {
        let mut seg = Segmenter::new();
        let mut re = Reassembler::new();
        let id = CanId::new(0xE).unwrap();
        let mut frames = Vec::new();
        for round in 0..3u8 {
            frames.clear();
            let payload = vec![round; 150];
            seg.segment_into(id, &payload, &mut frames).unwrap();
            assert_eq!(frames.len(), 3);
            let mut done = None;
            for frame in &frames {
                done = re
                    .accept(frame)
                    .unwrap()
                    .map(|(id, bytes)| (id, bytes.to_vec()));
            }
            assert_eq!(done, Some((id, payload)));
        }
        assert_eq!(re.in_progress.len(), 1, "one entry per frame id");
        assert_eq!(re.incomplete_dropped, 0);
    }

    #[test]
    fn system_mapping_rejects_duplicates() {
        let mut mapping = SystemMapping::new();
        let frame = CanId::new(0x100).unwrap();
        let sender = Endpoint::new(EcuId::new(1), "a", "out");
        mapping
            .add_route("s1", frame, sender.clone(), vec![])
            .unwrap();
        assert!(mapping
            .add_route("s2", frame, sender.clone(), vec![])
            .is_err());
        assert!(mapping
            .add_route("s1", CanId::new(0x101).unwrap(), sender, vec![])
            .is_err());
    }

    #[test]
    fn system_mapping_lists_ecus() {
        let mut mapping = SystemMapping::new();
        mapping
            .add_route(
                "s",
                CanId::new(0x1).unwrap(),
                Endpoint::new(EcuId::new(2), "a", "out"),
                vec![
                    Endpoint::new(EcuId::new(1), "b", "in"),
                    Endpoint::new(EcuId::new(2), "c", "in"),
                ],
            )
            .unwrap();
        assert_eq!(mapping.ecus(), vec![EcuId::new(1), EcuId::new(2)]);
        assert!(mapping.route("s").is_some());
        assert!(mapping.route("t").is_none());
    }
}
