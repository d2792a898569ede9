//! Length-prefixed, checksummed frames for write-ahead journals.
//!
//! The trusted server's durability plane (see `crates/server`) appends one
//! frame per state transition; this module owns the *storage* layer only —
//! the frame payloads themselves are [`crate::codec`]-encoded
//! [`crate::value::Value`]s whose schema the journal's writer defines.  A
//! writer may stream a payload straight into the journal buffer between
//! [`begin_frame`] and [`finish_frame`] instead of encoding it elsewhere
//! first.
//!
//! # Frame format
//!
//! ```text
//! [ payload length : u32 LE ][ FNV-1a checksum : u32 LE ][ payload bytes ]
//! ```
//!
//! The checksum covers the payload only.  A truncated tail (the classic
//! torn-write crash artefact) or a corrupted payload is reported as a typed
//! [`DynarError::ProtocolViolation`], never a panic: journals are read back
//! on the recovery path, where the input is untrusted by definition.

use crate::error::{DynarError, Result};

/// The fixed per-frame header size: payload length plus checksum.
pub const FRAME_HEADER_LEN: usize = 8;

/// Largest payload a single frame may carry (a corruption guard: a flipped
/// bit in the length field must not ask the reader for gigabytes).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Computes the 32-bit FNV-1a hash of `bytes` (the per-frame checksum).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &byte in bytes {
        hash ^= u32::from(byte);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
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
    header[4..].copy_from_slice(&fnv1a(payload).to_le_bytes());
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
        let actual = fnv1a(payload);
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
