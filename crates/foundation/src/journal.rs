//! Length-prefixed, checksummed frames for write-ahead journals.
//!
//! The trusted server's durability plane (see `crates/server`) appends one
//! frame per state transition; this module owns the *storage* layer only —
//! the frame payloads themselves are [`crate::codec`]-encoded
//! [`crate::value::Value`]s whose schema the journal's writer defines.  A
//! writer may stream a payload straight into the journal buffer between
//! [`begin_frame`] and [`finish_frame`] instead of encoding it elsewhere
//! first.  The UDP transport frames its datagrams the same way.
//!
//! # Frame format
//!
//! ```text
//! [ payload length : u32 LE ][ checksum : u32 LE ][ payload bytes ]
//! ```
//!
//! The checksum ([`frame_checksum`]) covers the payload only.  It reads the
//! payload a 4-byte word at a time in four interleaved lanes, so it costs a
//! small fraction of a byte-serial FNV-1a pass ([`fnv1a`]), and like FNV-1a
//! it changes under every single-bit flip of the payload.  A truncated tail
//! (the classic torn-write crash artefact) or a corrupted payload is
//! reported as a typed [`DynarError::ProtocolViolation`], never a panic:
//! journals are read back on the recovery path, where the input is
//! untrusted by definition.  [`FrameReader::next_frame_reaches_end`] tells
//! a torn last frame apart from corruption in the middle of a log.

use crate::error::{DynarError, Result};

/// The fixed per-frame header size: payload length plus checksum.
pub const FRAME_HEADER_LEN: usize = 8;

/// Largest payload a single frame may carry (a corruption guard: a flipped
/// bit in the length field must not ask the reader for gigabytes).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Computes the 32-bit FNV-1a hash of `bytes`.
///
/// Not the frame checksum (that is [`frame_checksum`]): the stable byte
/// hash other layers derive layouts from, such as the fleet's VIN-to-lane
/// mapping.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in bytes {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

/// The odd multiplier of every checksum lane step (the 32-bit golden-ratio
/// prime: denser than FNV's prime, so one step spreads a word further).
const LANE_PRIME: u32 = 0x9e37_79b1;

/// Computes a frame's 32-bit checksum over `bytes`.
///
/// Four FNV-1a-style lanes each take every fourth little-endian 4-byte
/// word: `lane = rotl((lane ^ word) * LANE_PRIME, 13)`.  The lanes are
/// combined by rotate-xor, the tail bytes (fewer than 16) and the length
/// are folded in byte-serially, and a final avalanche mixes the result.
/// For a fixed input every step is a bijection of the state, so a
/// single-bit flip anywhere in `bytes` changes exactly one lane (or the
/// folded tail) and therefore the checksum.  The four lanes are
/// independent, so a word-wise pass costs a small fraction of the
/// byte-serial [`fnv1a`].
///
/// ```
/// use dynar_foundation::journal::frame_checksum;
///
/// let payload = b"a journal frame's payload".to_vec();
/// let mut flipped = payload.clone();
/// flipped[3] ^= 0x10;
/// assert_ne!(frame_checksum(&payload), frame_checksum(&flipped));
/// ```
#[must_use]
pub fn frame_checksum(bytes: &[u8]) -> u32 {
    fn step(lane: u32, word: &[u8]) -> u32 {
        let word = u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        (lane ^ word).wrapping_mul(LANE_PRIME).rotate_left(13)
    }
    let (mut a, mut b, mut c, mut d) = (0x811c_9dc5u32, 0x2f6b_d3a7, 0x9a1c_4e63, 0x5bd1_e995);
    let mut chunks = bytes.chunks_exact(16);
    for chunk in &mut chunks {
        a = step(a, &chunk[0..4]);
        b = step(b, &chunk[4..8]);
        c = step(c, &chunk[8..12]);
        d = step(d, &chunk[12..16]);
    }
    let mut hash = a.rotate_left(1) ^ b.rotate_left(7) ^ c.rotate_left(12) ^ d.rotate_left(18);
    for &byte in chunks.remainder() {
        hash = (hash ^ u32::from(byte)).wrapping_mul(0x0100_0193);
    }
    // Frames are at most `MAX_FRAME_LEN` long, so the length fits 32 bits.
    hash = (hash ^ bytes.len() as u32).wrapping_mul(0x0100_0193);
    // Murmur3's finaliser: bijective, and every input bit reaches every
    // output bit.
    hash ^= hash >> 16;
    hash = hash.wrapping_mul(0x85eb_ca6b);
    hash ^= hash >> 13;
    hash = hash.wrapping_mul(0xc2b2_ae35);
    hash ^ (hash >> 16)
}

/// Appends one frame carrying `payload` to `out`.
pub fn append_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let start = begin_frame(out);
    out.extend_from_slice(payload);
    finish_frame(out, start);
}

/// Starts a frame at the end of `out`: reserves its header and returns the
/// frame's start offset.  The caller writes the payload straight into
/// `out` and closes the frame with [`finish_frame`], so a payload never
/// needs a buffer of its own.
///
/// ```
/// use dynar_foundation::journal::{append_frame, begin_frame, finish_frame};
///
/// let mut streamed = Vec::new();
/// let start = begin_frame(&mut streamed);
/// streamed.extend_from_slice(b"pay");
/// streamed.extend_from_slice(b"load");
/// finish_frame(&mut streamed, start);
/// let mut copied = Vec::new();
/// append_frame(&mut copied, b"payload");
/// assert_eq!(streamed, copied);
/// ```
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    start
}

/// Closes the frame that [`begin_frame`] started at `start`: every byte
/// after its header is the payload, whose length and checksum are written
/// into the reserved header.
///
/// # Panics
///
/// Panics if `start` is not followed by a reserved header in `out`.
pub fn finish_frame(out: &mut [u8], start: usize) {
    let (header, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
    debug_assert!(payload.len() <= MAX_FRAME_LEN as usize);
    header[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[4..].copy_from_slice(&frame_checksum(payload).to_le_bytes());
}

/// A cursor over a byte buffer of consecutive frames.
///
/// ```
/// use dynar_foundation::journal::{append_frame, FrameReader};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let mut journal = Vec::new();
/// append_frame(&mut journal, b"first");
/// append_frame(&mut journal, b"second");
/// let mut reader = FrameReader::new(&journal);
/// assert_eq!(reader.next_frame()?, Some(&b"first"[..]));
/// assert_eq!(reader.next_frame()?, Some(&b"second"[..]));
/// assert_eq!(reader.next_frame()?, None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct FrameReader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> FrameReader<'a> {
    /// Creates a reader positioned at the first frame of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        FrameReader { bytes, offset: 0 }
    }

    /// The byte offset of the next unread frame.
    #[must_use]
    pub fn offset(&self) -> usize {
        self.offset
    }

    /// `true` when the next unread frame is the last thing in the input: its
    /// header or payload runs past the end of the bytes, or it ends exactly
    /// where they end.  A crash mid-append can only tear such a frame; a
    /// failing frame with bytes after it is corruption instead.
    ///
    /// ```
    /// use dynar_foundation::journal::{append_frame, FrameReader};
    ///
    /// let mut journal = Vec::new();
    /// append_frame(&mut journal, b"first");
    /// append_frame(&mut journal, b"second");
    /// let mut reader = FrameReader::new(&journal);
    /// assert!(!reader.next_frame_reaches_end());
    /// reader.next_frame().unwrap();
    /// assert!(reader.next_frame_reaches_end());
    /// ```
    #[must_use]
    pub fn next_frame_reaches_end(&self) -> bool {
        let remaining = &self.bytes[self.offset..];
        match remaining.get(..4) {
            Some(len) => {
                let len = u32::from_le_bytes(len.try_into().expect("4 bytes")) as usize;
                len.saturating_add(FRAME_HEADER_LEN) >= remaining.len()
            }
            None => true,
        }
    }

    /// Reads the next frame's payload, `None` at a clean end of input.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] on a truncated header or
    /// payload, an implausible length field, or a checksum mismatch.
    pub fn next_frame(&mut self) -> Result<Option<&'a [u8]>> {
        let remaining = &self.bytes[self.offset..];
        if remaining.is_empty() {
            return Ok(None);
        }
        if remaining.len() < FRAME_HEADER_LEN {
            return Err(DynarError::ProtocolViolation(format!(
                "truncated journal frame header at offset {}: {} byte(s) left, {} needed",
                self.offset,
                remaining.len(),
                FRAME_HEADER_LEN
            )));
        }
        let len = u32::from_le_bytes(remaining[0..4].try_into().expect("4 bytes"));
        let checksum = u32::from_le_bytes(remaining[4..8].try_into().expect("4 bytes"));
        if len > MAX_FRAME_LEN {
            return Err(DynarError::ProtocolViolation(format!(
                "journal frame at offset {} declares an implausible length {len}",
                self.offset
            )));
        }
        let len = len as usize;
        let body = &remaining[FRAME_HEADER_LEN..];
        if body.len() < len {
            return Err(DynarError::ProtocolViolation(format!(
                "truncated journal frame at offset {}: payload needs {len} byte(s), {} left",
                self.offset,
                body.len()
            )));
        }
        let payload = &body[..len];
        let actual = frame_checksum(payload);
        if actual != checksum {
            return Err(DynarError::ProtocolViolation(format!(
                "journal frame at offset {} failed its checksum \
                 (stored {checksum:#010x}, computed {actual:#010x})",
                self.offset
            )));
        }
        self.offset += FRAME_HEADER_LEN + len;
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_in_order() {
        let mut journal = Vec::new();
        append_frame(&mut journal, b"");
        append_frame(&mut journal, b"alpha");
        append_frame(&mut journal, &[0xff; 300]);
        let mut reader = FrameReader::new(&journal);
        assert_eq!(reader.next_frame().unwrap(), Some(&b""[..]));
        assert_eq!(reader.next_frame().unwrap(), Some(&b"alpha"[..]));
        assert_eq!(reader.next_frame().unwrap(), Some(&[0xff; 300][..]));
        assert_eq!(reader.next_frame().unwrap(), None);
    }

    #[test]
    fn truncated_header_is_a_typed_error() {
        let mut journal = Vec::new();
        append_frame(&mut journal, b"alpha");
        let mut reader = FrameReader::new(&journal[..4]);
        assert!(matches!(
            reader.next_frame(),
            Err(DynarError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn truncated_payload_is_a_typed_error() {
        let mut journal = Vec::new();
        append_frame(&mut journal, b"alpha");
        let mut reader = FrameReader::new(&journal[..journal.len() - 2]);
        assert!(matches!(
            reader.next_frame(),
            Err(DynarError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn corrupted_payload_fails_the_checksum() {
        let mut journal = Vec::new();
        append_frame(&mut journal, b"alpha");
        let last = journal.len() - 1;
        journal[last] ^= 0x01;
        let mut reader = FrameReader::new(&journal);
        assert!(matches!(
            reader.next_frame(),
            Err(DynarError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn implausible_length_is_rejected() {
        let mut journal = Vec::new();
        journal.extend_from_slice(&u32::MAX.to_le_bytes());
        journal.extend_from_slice(&0u32.to_le_bytes());
        journal.extend_from_slice(&[0u8; 16]);
        let mut reader = FrameReader::new(&journal);
        assert!(matches!(
            reader.next_frame(),
            Err(DynarError::ProtocolViolation(_))
        ));
    }

    #[test]
    fn a_failing_frame_reaches_the_end_only_when_nothing_follows_it() {
        let mut journal = Vec::new();
        append_frame(&mut journal, b"first");
        let second = journal.len();
        append_frame(&mut journal, b"second");
        // Corrupt the first frame's payload: bytes follow it.
        let mut corrupted = journal.clone();
        corrupted[FRAME_HEADER_LEN] ^= 0x04;
        let mut reader = FrameReader::new(&corrupted);
        assert!(reader.next_frame().is_err());
        assert!(!reader.next_frame_reaches_end());
        // Corrupt the last frame: it ends where the bytes end.
        let last = journal.len() - 1;
        journal[last] ^= 0x04;
        let mut reader = FrameReader::new(&journal);
        reader.next_frame().unwrap();
        assert_eq!(reader.offset(), second);
        assert!(reader.next_frame().is_err());
        assert!(reader.next_frame_reaches_end());
        // A torn header or payload runs past the end.
        for cut in [second + 3, journal.len() - 2] {
            let mut reader = FrameReader::new(&journal[..cut]);
            reader.next_frame().unwrap();
            assert!(reader.next_frame_reaches_end(), "cut at {cut}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_checksum() {
        // Lengths around the 16-byte lane stride: lanes only, lanes and a
        // tail, tail only.
        for len in [0usize, 1, 3, 4, 15, 16, 17, 31, 32, 33, 64, 100] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let checksum = frame_checksum(&payload);
            for bit in 0..len * 8 {
                let mut flipped = payload.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(frame_checksum(&flipped), checksum, "len {len}, bit {bit}");
            }
        }
    }

    #[test]
    fn the_checksum_covers_the_length() {
        assert_ne!(frame_checksum(&[]), frame_checksum(&[0]));
        assert_ne!(frame_checksum(&[0; 16]), frame_checksum(&[0; 17]));
        assert_ne!(frame_checksum(&[0; 16]), frame_checksum(&[0; 32]));
    }

    #[test]
    fn reading_continues_after_a_clean_prefix() {
        let mut journal = Vec::new();
        append_frame(&mut journal, b"ok");
        let prefix_end = journal.len();
        append_frame(&mut journal, b"torn");
        let torn = &journal[..journal.len() - 1];
        let mut reader = FrameReader::new(torn);
        assert_eq!(reader.next_frame().unwrap(), Some(&b"ok"[..]));
        assert_eq!(reader.offset(), prefix_end);
        assert!(reader.next_frame().is_err());
    }
}
