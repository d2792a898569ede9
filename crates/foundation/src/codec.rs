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
    let (value, consumed) = decode_prefix(bytes)?;
    if consumed != bytes.len() {
        return Err(DynarError::ProtocolViolation(format!(
            "{} trailing bytes after encoded value",
            bytes.len() - consumed
        )));
    }
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
    let truncated = || DynarError::ProtocolViolation("truncated value encoding".into());
    let tag = *bytes.first().ok_or_else(truncated)?;
    match tag {
        TAG_VOID => Ok((Value::Void, 1)),
        TAG_BOOL => {
            let b = *bytes.get(1).ok_or_else(truncated)?;
            Ok((Value::Bool(b != 0), 2))
        }
        TAG_I64 => {
            let raw: [u8; 8] = bytes
                .get(1..9)
                .ok_or_else(truncated)?
                .try_into()
                .expect("slice length checked");
            Ok((Value::I64(i64::from_le_bytes(raw)), 9))
        }
        TAG_F64 => {
            let raw: [u8; 8] = bytes
                .get(1..9)
                .ok_or_else(truncated)?
                .try_into()
                .expect("slice length checked");
            Ok((Value::F64(f64::from_le_bytes(raw)), 9))
        }
        TAG_BYTES | TAG_TEXT => {
            let raw: [u8; 4] = bytes
                .get(1..5)
                .ok_or_else(truncated)?
                .try_into()
                .expect("slice length checked");
            let len = u32::from_le_bytes(raw) as usize;
            let data = bytes.get(5..5 + len).ok_or_else(truncated)?;
            let value = if tag == TAG_BYTES {
                Value::Bytes(data.to_vec())
            } else {
                Value::Text(String::from_utf8(data.to_vec()).map_err(|_| {
                    DynarError::ProtocolViolation("text value is not valid UTF-8".into())
                })?)
            };
            Ok((value, 5 + len))
        }
        TAG_LIST => {
            let raw: [u8; 4] = bytes
                .get(1..5)
                .ok_or_else(truncated)?
                .try_into()
                .expect("slice length checked");
            let count = u32::from_le_bytes(raw) as usize;
            let mut offset = 5;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let (item, used) = decode_prefix(bytes.get(offset..).ok_or_else(truncated)?)?;
                items.push(item);
                offset += used;
            }
            Ok((Value::List(items), offset))
        }
        other => Err(DynarError::ProtocolViolation(format!(
            "unknown value tag {other}"
        ))),
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
    fn nested_lists_round_trip() {
        let mut value = Value::I64(0);
        for depth in 0..16 {
            value = Value::List(vec![value, Value::I64(depth)]);
        }
        assert_eq!(decode_value(&encode_value(&value)).unwrap(), value);
    }
}
