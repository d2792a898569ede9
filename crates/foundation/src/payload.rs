//! Shared, immutable byte payloads for the federation transport path.
//!
//! Every management message used to travel as a `Vec<u8>` that was cloned at
//! each hop: once into the trusted server's retransmission cache, once per
//! retransmission onto the downlink queue, once into the transport hub's
//! in-flight set and once more into the receiving mailbox.  [`Payload`] wraps
//! the encoded bytes in an `Arc<[u8]>` so every one of those copies is a
//! reference-count bump — the buffer itself is allocated exactly once, when
//! the message is encoded.
//!
//! The type is deliberately immutable: a payload that is cached for
//! retransmission **must** be retransmitted byte-identical (same sequence
//! id), and sharing the buffer makes that guarantee structural.
//!
//! # Example
//! ```
//! use dynar_foundation::payload::Payload;
//!
//! let payload = Payload::from(vec![1u8, 2, 3]);
//! let cached = payload.clone(); // refcount bump, no copy
//! assert_eq!(&*cached, &[1, 2, 3]);
//! assert_eq!(payload, cached);
//! ```

use std::cell::Cell;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

thread_local! {
    /// The encode buffer [`Payload::encode_with`] reuses on this thread.
    static SCRATCH: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// An immutable, cheaply clonable byte buffer shared between the trusted
/// server's retransmission cache, the transport hub and the ECM gateway.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// Creates a payload by copying `bytes` (the one allocation of the
    /// payload's life; every later hop shares it).
    pub fn copy_from(bytes: &[u8]) -> Self {
        Payload(Arc::from(bytes))
    }

    /// Creates a payload from whatever `encode` appends to the buffer it is
    /// handed.  The buffer is reused per thread, so the payload's own buffer
    /// is the one allocation: an encoder writing straight from borrowed
    /// fields needs no owned message and no intermediate `Vec`.
    ///
    /// ```
    /// use dynar_foundation::payload::Payload;
    ///
    /// let payload = Payload::encode_with(|out| out.extend_from_slice(b"hi"));
    /// assert_eq!(&*payload, b"hi");
    /// ```
    pub fn encode_with(encode: impl FnOnce(&mut Vec<u8>)) -> Self {
        // Taken out of the cell, not borrowed in it: an encoder that makes a
        // payload of its own gets a fresh buffer instead of a panic.
        let mut scratch = SCRATCH.take();
        scratch.clear();
        encode(&mut scratch);
        let payload = Payload::copy_from(&scratch);
        SCRATCH.set(scratch);
        payload
    }

    /// The payload length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Payload(Arc::from(bytes))
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::copy_from(bytes)
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(bytes: [u8; N]) -> Self {
        Payload(Arc::from(bytes.as_slice()))
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<Payload> for Vec<u8> {
    fn eq(&self, other: &Payload) -> bool {
        **self == *other.0
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        *self.0 == *other
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_buffer() {
        let payload = Payload::from(vec![1u8, 2, 3]);
        let clone = payload.clone();
        assert!(Arc::ptr_eq(&payload.0, &clone.0), "no buffer copy");
        assert_eq!(clone.as_slice(), &[1, 2, 3]);
        assert_eq!(clone.len(), 3);
        assert!(!clone.is_empty());
    }

    #[test]
    fn equality_against_vec_and_slice() {
        let payload = Payload::copy_from(&[9, 8]);
        assert_eq!(payload, vec![9u8, 8]);
        assert_eq!(vec![9u8, 8], payload);
        assert_eq!(payload, *[9u8, 8].as_slice());
        assert_ne!(payload, vec![9u8]);
        assert!(Payload::from(Vec::new()).is_empty());
    }

    #[test]
    fn debug_is_compact() {
        assert_eq!(
            format!("{:?}", Payload::from(vec![0u8; 40])),
            "Payload(40 bytes)"
        );
    }
}
