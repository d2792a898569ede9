//! Frames and identifiers of the in-vehicle network.

use std::fmt;

use serde::{Deserialize, Serialize};

use dynar_foundation::error::{DynarError, Result};

/// Maximum payload length of one frame, matching CAN FD.
pub const MAX_PAYLOAD: usize = 64;

/// A 29-bit frame identifier; lower values win arbitration, as on CAN.
///
/// # Example
/// ```
/// use dynar_bus::frame::CanId;
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let id = CanId::new(0x1A0)?;
/// assert_eq!(id.raw(), 0x1A0);
/// assert!(CanId::new(0x100)? < id, "lower id is more urgent");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CanId(u32);

impl CanId {
    /// Largest representable identifier (29-bit extended format).
    pub const MAX: u32 = 0x1FFF_FFFF;

    /// Creates an identifier.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if `raw` exceeds 29 bits.
    pub fn new(raw: u32) -> Result<Self> {
        if raw > Self::MAX {
            return Err(DynarError::invalid_config(format!(
                "frame identifier {raw:#x} exceeds 29 bits"
            )));
        }
        Ok(CanId(raw))
    }

    /// Returns the raw identifier value.
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:X}", self.0)
    }
}

impl fmt::LowerHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for CanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

/// One frame on the bus: an identifier plus up to [`MAX_PAYLOAD`] bytes.
///
/// The payload is held inline, so creating, queueing, cloning and
/// delivering a frame never touches the allocator.
///
/// # Example
/// ```
/// use dynar_bus::frame::{CanId, Frame};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let frame = Frame::new(CanId::new(0x55)?, vec![0xDE, 0xAD])?;
/// assert_eq!(frame.dlc(), 2);
/// let same = Frame::from_slices(CanId::new(0x55)?, &[&[0xDE], &[0xAD]])?;
/// assert_eq!(frame, same);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frame {
    id: CanId,
    len: u8,
    /// Bytes past `len` are always zero, so the derived comparisons see
    /// only the payload.
    data: [u8; MAX_PAYLOAD],
}

impl Frame {
    /// Creates a frame.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if the payload exceeds
    /// [`MAX_PAYLOAD`] bytes.
    pub fn new(id: CanId, payload: Vec<u8>) -> Result<Self> {
        Self::from_slices(id, &[&payload])
    }

    /// Creates a frame whose payload is `parts` concatenated (a segment
    /// header followed by its chunk, say), copied straight into the frame.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::InvalidConfiguration`] if the payload exceeds
    /// [`MAX_PAYLOAD`] bytes.
    pub fn from_slices(id: CanId, parts: &[&[u8]]) -> Result<Self> {
        let len: usize = parts.iter().map(|part| part.len()).sum();
        if len > MAX_PAYLOAD {
            return Err(DynarError::invalid_config(format!(
                "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte limit"
            )));
        }
        let mut data = [0; MAX_PAYLOAD];
        let mut at = 0;
        for part in parts {
            data[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        Ok(Frame {
            id,
            len: len as u8,
            data,
        })
    }

    /// The frame identifier.
    pub fn id(&self) -> CanId {
        self.id
    }

    /// The payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.data[..usize::from(self.len)]
    }

    /// The data length code (payload length in bytes).
    pub fn dlc(&self) -> usize {
        usize::from(self.len)
    }

    /// Consumes the frame and returns its payload.
    pub fn into_payload(self) -> Vec<u8> {
        self.payload().to_vec()
    }
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("id", &self.id)
            .field("payload", &self.payload())
            .finish()
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame {} [{} bytes]", self.id, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_range_is_checked() {
        assert!(CanId::new(CanId::MAX).is_ok());
        assert!(CanId::new(CanId::MAX + 1).is_err());
    }

    #[test]
    fn lower_id_is_more_urgent() {
        assert!(CanId::new(0x10).unwrap() < CanId::new(0x20).unwrap());
    }

    #[test]
    fn payload_limit_is_enforced() {
        let id = CanId::new(1).unwrap();
        assert!(Frame::new(id, vec![0; MAX_PAYLOAD]).is_ok());
        assert!(Frame::new(id, vec![0; MAX_PAYLOAD + 1]).is_err());
    }

    #[test]
    fn inline_payloads_compare_by_their_bytes() {
        let id = CanId::new(3).unwrap();
        let full = Frame::new(id, vec![7; MAX_PAYLOAD]).unwrap();
        assert_eq!(full.payload(), &[7; MAX_PAYLOAD][..]);
        let short = Frame::from_slices(id, &[&[1, 2], &[], &[3]]).unwrap();
        assert_eq!(short, Frame::new(id, vec![1, 2, 3]).unwrap());
        assert_ne!(short, Frame::new(id, vec![1, 2, 3, 0]).unwrap());
        assert!(Frame::from_slices(id, &[&[0; MAX_PAYLOAD], &[1]]).is_err());
    }

    #[test]
    fn accessors_expose_contents() {
        let frame = Frame::new(CanId::new(0x7FF).unwrap(), vec![9, 8, 7]).unwrap();
        assert_eq!(frame.id().raw(), 0x7FF);
        assert_eq!(frame.dlc(), 3);
        assert_eq!(frame.clone().into_payload(), vec![9, 8, 7]);
        assert_eq!(frame.to_string(), "frame 0x7FF [3 bytes]");
    }

    #[test]
    fn hex_formatting() {
        let id = CanId::new(0xAB).unwrap();
        assert_eq!(format!("{id:x}"), "ab");
        assert_eq!(format!("{id:X}"), "AB");
    }
}
