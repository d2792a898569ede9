//! A compact, self-describing binary codec for [`Value`]s.
//!
//! The codec is the common wire format of the reproduction: the RTE uses it
//! when a signal leaves its ECU, the plug-in virtual machine uses it to store
//! constants inside plug-in binaries, and the ECM/trusted-server protocol uses
//! it inside installation packages.

use crate::error::{DynarError, Result};
use crate::value::Value;

const TAG_VOID: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_I64: u8 = 2;
const TAG_F64: u8 = 3;
const TAG_BYTES: u8 = 4;
const TAG_TEXT: u8 = 5;
const TAG_LIST: u8 = 6;

/// Encodes a [`Value`] into a self-describing byte sequence.
///
/// # Example
/// ```
/// use dynar_foundation::codec::{decode_value, encode_value};
/// use dynar_foundation::value::Value;
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let original = Value::List(vec![Value::I64(-3), Value::Text("speed".into())]);
/// let decoded = decode_value(&encode_value(&original))?;
/// assert_eq!(decoded, original);
/// # Ok(())
/// # }
/// ```
pub fn encode_value(value: &Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(value.payload_size() + 8);
    encode_into(value, &mut out);
    out
}

/// Appends the encoding of `value` to `out`, avoiding an intermediate
/// allocation when composing larger messages.
pub fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Void => encode_void(out),
        Value::Bool(b) => encode_bool(*b, out),
        Value::I64(v) => encode_i64(*v, out),
        Value::F64(v) => encode_f64(*v, out),
        Value::Bytes(b) => encode_bytes(b, out),
        Value::Text(t) => encode_text(t, out),
        Value::List(items) => {
            encode_list_header(items.len(), out);
            for item in items {
                encode_into(item, out);
            }
        }
    }
}

// The primitives below are the codec's one implementation of the wire
// format: [`encode_into`] writes every [`Value`] through them, and a type
// with a fixed schema can stream its encoding through them directly, with
// the same bytes and no [`Value`] tree.

/// Appends the encoding of [`Value::Void`] to `out`.
pub fn encode_void(out: &mut Vec<u8>) {
    out.push(TAG_VOID);
}

/// Appends the encoding of [`Value::Bool`]`(value)` to `out`.
pub fn encode_bool(value: bool, out: &mut Vec<u8>) {
    out.push(TAG_BOOL);
    out.push(u8::from(value));
}

/// Appends the encoding of [`Value::I64`]`(value)` to `out`.
pub fn encode_i64(value: i64, out: &mut Vec<u8>) {
    out.push(TAG_I64);
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends the encoding of [`Value::F64`]`(value)` to `out`.
pub fn encode_f64(value: f64, out: &mut Vec<u8>) {
    out.push(TAG_F64);
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends the encoding of [`Value::Bytes`] holding `bytes` to `out`.
pub fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    out.push(TAG_BYTES);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Appends the encoding of [`Value::Text`] holding `text` to `out`.
pub fn encode_text(text: &str, out: &mut Vec<u8>) {
    out.push(TAG_TEXT);
    out.extend_from_slice(&(text.len() as u32).to_le_bytes());
    out.extend_from_slice(text.as_bytes());
}

/// Appends the header of a list of `len` items to `out`.  Followed by the
/// encodings of the items, it encodes the same bytes as the
/// [`Value::List`] of them, without the list having to exist.
///
/// ```
/// use dynar_foundation::codec::{encode_i64, encode_list_header, encode_text, encode_value};
/// use dynar_foundation::value::Value;
///
/// let mut streamed = Vec::new();
/// encode_list_header(2, &mut streamed);
/// encode_i64(-3, &mut streamed);
/// encode_text("speed", &mut streamed);
/// let tree = Value::List(vec![Value::I64(-3), Value::Text("speed".into())]);
/// assert_eq!(streamed, encode_value(&tree));
/// ```
pub fn encode_list_header(len: usize, out: &mut Vec<u8>) {
    out.push(TAG_LIST);
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Decodes a byte sequence produced by [`encode_value`].
///
/// # Errors
///
/// Returns [`DynarError::ProtocolViolation`] on truncated or malformed input
/// and when trailing bytes follow the encoded value.
pub fn decode_value(bytes: &[u8]) -> Result<Value> {
    let mut reader = Reader::new(bytes);
    let value = reader.value()?;
    reader.finish()?;
    Ok(value)
}

/// Decodes one value from the start of `bytes`, returning it together with
/// the number of bytes consumed.  Useful when several values are
/// concatenated in one message.
///
/// # Errors
///
/// Returns [`DynarError::ProtocolViolation`] on truncated or malformed input.
pub fn decode_prefix(bytes: &[u8]) -> Result<(Value, usize)> {
    let mut reader = Reader::new(bytes);
    let value = reader.value()?;
    Ok((value, reader.position()))
}

/// The name of the variant a tag encodes, for diagnostics.
fn tag_kind(tag: u8) -> &'static str {
    match tag {
        TAG_VOID => "void",
        TAG_BOOL => "bool",
        TAG_I64 => "i64",
        TAG_F64 => "f64",
        TAG_BYTES => "bytes",
        TAG_TEXT => "text",
        TAG_LIST => "list",
        _ => "an unknown tag",
    }
}

fn utf8(bytes: &[u8]) -> Result<&str> {
    std::str::from_utf8(bytes)
        .map_err(|_| DynarError::ProtocolViolation("text value is not valid UTF-8".into()))
}

/// A borrowing, streaming decoder over one encoding: the decode mirror of
/// the `encode_*` primitives.
///
/// A type with a fixed schema reads its fields straight from the bytes in
/// the order its encoder wrote them — no [`Value`] tree in between, and text
/// and byte fields borrowed from the input.  [`decode_value`] is this reader
/// building a tree.  Every error is a [`DynarError::ProtocolViolation`]: a
/// wrong tag, a truncated field or a wrong list length, never a panic.
///
/// ```
/// use dynar_foundation::codec::{encode_i64, encode_list_header, encode_text, Reader};
///
/// # fn main() -> Result<(), dynar_foundation::error::DynarError> {
/// let mut bytes = Vec::new();
/// encode_list_header(2, &mut bytes);
/// encode_i64(-3, &mut bytes);
/// encode_text("speed", &mut bytes);
///
/// let mut reader = Reader::new(&bytes);
/// reader.list_of(2, "sample")?;
/// assert_eq!(reader.i64()?, -3);
/// assert_eq!(reader.text()?, "speed");
/// reader.finish()?;
///
/// assert!(Reader::new(&bytes[..4]).list().is_err(), "truncated header");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    position: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, position: 0 }
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.position
    }

    /// Checks that every byte has been consumed.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] when trailing bytes follow
    /// the values read.
    pub fn finish(&self) -> Result<()> {
        match self.bytes.len() - self.position {
            0 => Ok(()),
            trailing => Err(DynarError::ProtocolViolation(format!(
                "{trailing} trailing bytes after encoded value"
            ))),
        }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8]> {
        let end = self
            .position
            .checked_add(len)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| DynarError::ProtocolViolation("truncated value encoding".into()))?;
        let taken = &self.bytes[self.position..end];
        self.position = end;
        Ok(taken)
    }

    fn take_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self
            .take(N)?
            .try_into()
            .expect("take returns exactly N bytes"))
    }

    fn tag(&mut self) -> Result<u8> {
        Ok(self.take_array::<1>()?[0])
    }

    fn expect_tag(&mut self, expected: u8) -> Result<()> {
        let at = self.position;
        let found = self.tag()?;
        if found == expected {
            return Ok(());
        }
        Err(DynarError::ProtocolViolation(format!(
            "expected {} at byte {at}, found {}",
            tag_kind(expected),
            tag_kind(found)
        )))
    }

    fn length(&mut self) -> Result<usize> {
        Ok(u32::from_le_bytes(self.take_array()?) as usize)
    }

    /// Returns `true` if the next value is [`Value::Void`] (without
    /// consuming it).
    pub fn at_void(&self) -> bool {
        self.bytes.get(self.position) == Some(&TAG_VOID)
    }

    /// Reads a [`Value::Void`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value.
    pub fn void(&mut self) -> Result<()> {
        self.expect_tag(TAG_VOID)
    }

    /// Reads a [`Value::Bool`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value.
    pub fn bool(&mut self) -> Result<bool> {
        self.expect_tag(TAG_BOOL)?;
        Ok(self.tag()? != 0)
    }

    /// Reads a [`Value::I64`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value.
    pub fn i64(&mut self) -> Result<i64> {
        self.expect_tag(TAG_I64)?;
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// Reads a [`Value::F64`].
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value.
    pub fn f64(&mut self) -> Result<f64> {
        self.expect_tag(TAG_F64)?;
        Ok(f64::from_le_bytes(self.take_array()?))
    }

    /// Reads a [`Value::Bytes`], borrowing its contents from the input.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        self.expect_tag(TAG_BYTES)?;
        let len = self.length()?;
        self.take(len)
    }

    /// Reads a [`Value::Text`], borrowing its contents from the input.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value and for
    /// text that is not valid UTF-8.
    pub fn text(&mut self) -> Result<&'a str> {
        self.expect_tag(TAG_TEXT)?;
        let len = self.length()?;
        utf8(self.take(len)?)
    }

    /// Reads the header of a [`Value::List`] and returns its item count;
    /// the items follow.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value.
    pub fn list(&mut self) -> Result<usize> {
        self.expect_tag(TAG_LIST)?;
        self.length()
    }

    /// Reads the header of a list that must hold exactly `len` items;
    /// `what` names the list in the error.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for any other value and for
    /// a list of another length.
    pub fn list_of(&mut self, len: usize, what: &str) -> Result<()> {
        match self.list()? {
            found if found == len => Ok(()),
            found => Err(DynarError::ProtocolViolation(format!(
                "malformed {what}: expected {len} items, found {found}"
            ))),
        }
    }

    /// Reads one value of any shape as a [`Value`] tree.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] on truncated or malformed
    /// input.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match self.tag()? {
            TAG_VOID => Value::Void,
            TAG_BOOL => Value::Bool(self.tag()? != 0),
            TAG_I64 => Value::I64(i64::from_le_bytes(self.take_array()?)),
            TAG_F64 => Value::F64(f64::from_le_bytes(self.take_array()?)),
            TAG_BYTES => {
                let len = self.length()?;
                Value::Bytes(self.take(len)?.to_vec())
            }
            TAG_TEXT => {
                let len = self.length()?;
                Value::Text(utf8(self.take(len)?)?.to_owned())
            }
            TAG_LIST => {
                let count = self.length()?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.value()?);
                }
                Value::List(items)
            }
            other => {
                return Err(DynarError::ProtocolViolation(format!(
                    "unknown value tag {other}"
                )))
            }
        })
    }

    /// Skips one value of any shape and returns its encoded bytes, borrowed
    /// from the input.  Nested lists are walked without recursion.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] on truncated or malformed
    /// input.
    pub fn span(&mut self) -> Result<&'a [u8]> {
        let start = self.position;
        let mut remaining: u64 = 1;
        while remaining > 0 {
            remaining -= 1;
            match self.tag()? {
                TAG_VOID => {}
                TAG_BOOL => {
                    self.take(1)?;
                }
                TAG_I64 | TAG_F64 => {
                    self.take(8)?;
                }
                TAG_BYTES | TAG_TEXT => {
                    let len = self.length()?;
                    self.take(len)?;
                }
                TAG_LIST => remaining += self.length()? as u64,
                other => {
                    return Err(DynarError::ProtocolViolation(format!(
                        "unknown value tag {other}"
                    )))
                }
            }
        }
        Ok(&self.bytes[start..self.position])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_every_variant() {
        let values = vec![
            Value::Void,
            Value::Bool(true),
            Value::Bool(false),
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::F64(3.25),
            Value::Bytes(vec![0, 1, 2, 255]),
            Value::Bytes(Vec::new()),
            Value::Text("WheelsReq".into()),
            Value::Text(String::new()),
            Value::List(Vec::new()),
            Value::List(vec![
                Value::I64(1),
                Value::List(vec![Value::Text("nested".into()), Value::Void]),
            ]),
        ];
        for value in values {
            let encoded = encode_value(&value);
            assert_eq!(decode_value(&encoded).unwrap(), value, "{value:?}");
        }
    }

    #[test]
    fn codec_rejects_malformed_input() {
        assert!(decode_value(&[]).is_err());
        assert!(decode_value(&[99]).is_err(), "unknown tag");
        assert!(decode_value(&[TAG_I64, 1, 2]).is_err(), "truncated i64");
        assert!(decode_value(&[TAG_F64]).is_err(), "truncated f64");
        assert!(
            decode_value(&[TAG_BYTES, 10, 0, 0, 0, 1]).is_err(),
            "length longer than data"
        );
        let mut ok = encode_value(&Value::I64(1));
        ok.push(0);
        assert!(decode_value(&ok).is_err(), "trailing bytes");
        assert!(
            decode_value(&[TAG_TEXT, 2, 0, 0, 0, 0xFF, 0xFE]).is_err(),
            "invalid UTF-8"
        );
    }

    #[test]
    fn decode_prefix_reports_consumed_length() {
        let mut buffer = encode_value(&Value::I64(7));
        let text_start = buffer.len();
        encode_into(&Value::Text("x".into()), &mut buffer);
        let (first, used) = decode_prefix(&buffer).unwrap();
        assert_eq!(first, Value::I64(7));
        assert_eq!(used, text_start);
        let (second, _) = decode_prefix(&buffer[used..]).unwrap();
        assert_eq!(second, Value::Text("x".into()));
    }

    #[test]
    fn reader_reads_fields_in_encoding_order() {
        let mut bytes = Vec::new();
        encode_list_header(6, &mut bytes);
        encode_void(&mut bytes);
        encode_bool(true, &mut bytes);
        encode_i64(-7, &mut bytes);
        encode_f64(2.5, &mut bytes);
        encode_bytes(&[1, 2], &mut bytes);
        encode_text("id", &mut bytes);
        let mut reader = Reader::new(&bytes);
        reader.list_of(6, "record").unwrap();
        assert!(reader.at_void());
        reader.void().unwrap();
        assert!(reader.bool().unwrap());
        assert_eq!(reader.i64().unwrap(), -7);
        assert_eq!(reader.f64().unwrap(), 2.5);
        assert_eq!(reader.bytes().unwrap(), &[1, 2]);
        assert_eq!(reader.text().unwrap(), "id");
        reader.finish().unwrap();
        assert_eq!(reader.position(), bytes.len());
    }

    #[test]
    fn reader_errors_are_protocol_violations() {
        let bytes = encode_value(&Value::List(vec![Value::I64(1), Value::Text("x".into())]));
        let violation = |result: Result<()>| {
            assert!(
                matches!(result, Err(DynarError::ProtocolViolation(_))),
                "{result:?}"
            );
        };
        violation(Reader::new(&bytes).list_of(3, "pair"));
        violation(Reader::new(&bytes).i64().map(drop));
        violation(Reader::new(&bytes[..3]).list().map(drop));
        let mut reader = Reader::new(&bytes);
        reader.list().unwrap();
        reader.i64().unwrap();
        violation(reader.bytes().map(drop));
        let mut reader = Reader::new(&bytes);
        reader.list().unwrap();
        violation(reader.finish());
        // A length past the end of the input is truncation, not a panic.
        violation(
            Reader::new(&[TAG_TEXT, 0xFF, 0xFF, 0xFF, 0xFF])
                .text()
                .map(drop),
        );
        violation(
            Reader::new(&[TAG_LIST, 0xFF, 0xFF, 0xFF, 0xFF])
                .span()
                .map(drop),
        );
    }

    #[test]
    fn span_skips_one_value_and_borrows_its_bytes() {
        let inner = Value::List(vec![
            Value::Bytes(vec![9; 3]),
            Value::List(vec![Value::Void, Value::F64(1.0)]),
        ]);
        let mut bytes = Vec::new();
        encode_list_header(2, &mut bytes);
        encode_into(&inner, &mut bytes);
        encode_text("after", &mut bytes);
        let mut reader = Reader::new(&bytes);
        reader.list().unwrap();
        assert_eq!(reader.span().unwrap(), encode_value(&inner).as_slice());
        assert_eq!(reader.text().unwrap(), "after");
        reader.finish().unwrap();
    }

    #[test]
    fn nested_lists_round_trip() {
        let mut value = Value::I64(0);
        for depth in 0..16 {
            value = Value::List(vec![value, Value::I64(depth)]);
        }
        assert_eq!(decode_value(&encode_value(&value)).unwrap(), value);
    }
}
