//! Control-message wire codec for the Reo mailbox object (OID `0x10004`).
//!
//! Section IV-C.2 of the paper: "We define a special data object (reserved
//! OID 0x10004) as a communication point. All control messages are encoded
//! into a predefined format and written to this special object." Two
//! message types are defined:
//!
//! * **Classification command** — header `#SETID#`, then the PID and OID of
//!   the target object, then the class ID.
//! * **Query command** — header `#QUERY#`, then PID and OID, then the
//!   operation type (`R`/`W`), the offset, and the size.
//!
//! The paper does not pin the field encoding beyond the ASCII headers; we
//! use fixed-width big-endian integers after the header, which keeps
//! messages "a few dozen bytes" as the paper states (a `#SETID#` message is
//! 24 bytes, a `#QUERY#` is 40).

use std::error::Error;
use std::fmt;

use crate::{ObjectClass, ObjectId, ObjectKey, PartitionId};

/// ASCII header of a classification command.
pub const SETID_HEADER: &[u8; 7] = b"#SETID#";
/// ASCII header of a query command.
pub const QUERY_HEADER: &[u8; 7] = b"#QUERY#";

/// The operation type field of a query command.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueryOp {
    /// A read query (`R`).
    Read,
    /// A write query (`W`).
    Write,
}

impl QueryOp {
    const fn as_byte(self) -> u8 {
        match self {
            QueryOp::Read => b'R',
            QueryOp::Write => b'W',
        }
    }

    const fn from_byte(b: u8) -> Option<QueryOp> {
        match b {
            b'R' => Some(QueryOp::Read),
            b'W' => Some(QueryOp::Write),
            _ => None,
        }
    }
}

impl fmt::Display for QueryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QueryOp::Read => "R",
            QueryOp::Write => "W",
        })
    }
}

/// A decoded control message.
///
/// # Examples
///
/// ```
/// use reo_osd::control::{ControlMessage, QueryOp};
/// use reo_osd::{ObjectClass, ObjectKey, ObjectId, PartitionId};
///
/// let key = ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x20000));
/// let q = ControlMessage::Query {
///     key,
///     op: QueryOp::Read,
///     offset: 0,
///     size: 4096,
/// };
/// let bytes = q.encode();
/// assert!(bytes.starts_with(b"#QUERY#"));
/// assert_eq!(ControlMessage::decode(&bytes)?, q);
/// # Ok::<(), reo_osd::control::ControlMessageError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ControlMessage {
    /// `#SETID#` — assign `class` to the object at `key`.
    SetClass {
        /// Target object.
        key: ObjectKey,
        /// The class to assign.
        class: ObjectClass,
    },
    /// `#QUERY#` — query the status of (a byte range of) the object.
    Query {
        /// Target object.
        key: ObjectKey,
        /// Whether the prospective access is a read or a write.
        op: QueryOp,
        /// Byte offset of the queried range.
        offset: u64,
        /// Size in bytes of the queried range.
        size: u64,
    },
}

/// Errors from [`ControlMessage::decode`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ControlMessageError {
    /// The buffer is shorter than the smallest valid message.
    Truncated {
        /// Bytes needed for the detected message type.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// The header matches neither `#SETID#` nor `#QUERY#`.
    UnknownHeader,
    /// A `#SETID#` message carried a class ID outside 0..=3.
    BadClassId(u8),
    /// A `#QUERY#` message carried an operation byte other than `R`/`W`.
    BadQueryOp(u8),
    /// Trailing bytes followed a well-formed message.
    TrailingBytes(usize),
}

impl fmt::Display for ControlMessageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlMessageError::Truncated { needed, got } => {
                write!(f, "message truncated: need {needed} bytes, got {got}")
            }
            ControlMessageError::UnknownHeader => write!(f, "unknown control message header"),
            ControlMessageError::BadClassId(id) => write!(f, "invalid class id {id}"),
            ControlMessageError::BadQueryOp(b) => write!(f, "invalid query op byte {b:#x}"),
            ControlMessageError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes after message")
            }
        }
    }
}

impl Error for ControlMessageError {}

const SETID_LEN: usize = 7 + 8 + 8 + 1;
const QUERY_LEN: usize = 7 + 8 + 8 + 1 + 8 + 8;

impl ControlMessage {
    /// Encodes the message to its wire form.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_into(&mut [0; QUERY_LEN]).to_vec()
    }

    /// Encodes the message to its wire form in `buf`, which holds the
    /// longest message there is, and returns the bytes written: what
    /// [`ControlMessage::encode`] returns, without the allocation.
    pub fn encode_into<'a>(&self, buf: &'a mut [u8; QUERY_LEN]) -> &'a [u8] {
        let mut len = 0;
        let mut put = |field: &[u8]| {
            buf[len..len + field.len()].copy_from_slice(field);
            len += field.len();
        };
        match *self {
            ControlMessage::SetClass { key, class } => {
                put(SETID_HEADER);
                put(&key.pid().as_u64().to_be_bytes());
                put(&key.oid().as_u64().to_be_bytes());
                put(&[class.id()]);
            }
            ControlMessage::Query {
                key,
                op,
                offset,
                size,
            } => {
                put(QUERY_HEADER);
                put(&key.pid().as_u64().to_be_bytes());
                put(&key.oid().as_u64().to_be_bytes());
                put(&[op.as_byte()]);
                put(&offset.to_be_bytes());
                put(&size.to_be_bytes());
            }
        }
        &buf[..len]
    }

    /// Decodes a message from its wire form.
    ///
    /// # Errors
    ///
    /// Returns a [`ControlMessageError`] describing the first malformation
    /// encountered; see the variants for the possible conditions.
    pub fn decode(bytes: &[u8]) -> Result<ControlMessage, ControlMessageError> {
        if bytes.len() < 7 {
            return Err(ControlMessageError::Truncated {
                needed: 7,
                got: bytes.len(),
            });
        }
        let header = &bytes[..7];
        if header == SETID_HEADER {
            if bytes.len() < SETID_LEN {
                return Err(ControlMessageError::Truncated {
                    needed: SETID_LEN,
                    got: bytes.len(),
                });
            }
            if bytes.len() > SETID_LEN {
                return Err(ControlMessageError::TrailingBytes(bytes.len() - SETID_LEN));
            }
            let pid = u64::from_be_bytes(bytes[7..15].try_into().expect("8 bytes"));
            let oid = u64::from_be_bytes(bytes[15..23].try_into().expect("8 bytes"));
            let cid = bytes[23];
            let class = ObjectClass::from_id(cid).ok_or(ControlMessageError::BadClassId(cid))?;
            Ok(ControlMessage::SetClass {
                key: ObjectKey::new(PartitionId::new(pid), ObjectId::new(oid)),
                class,
            })
        } else if header == QUERY_HEADER {
            if bytes.len() < QUERY_LEN {
                return Err(ControlMessageError::Truncated {
                    needed: QUERY_LEN,
                    got: bytes.len(),
                });
            }
            if bytes.len() > QUERY_LEN {
                return Err(ControlMessageError::TrailingBytes(bytes.len() - QUERY_LEN));
            }
            let pid = u64::from_be_bytes(bytes[7..15].try_into().expect("8 bytes"));
            let oid = u64::from_be_bytes(bytes[15..23].try_into().expect("8 bytes"));
            let op =
                QueryOp::from_byte(bytes[23]).ok_or(ControlMessageError::BadQueryOp(bytes[23]))?;
            let offset = u64::from_be_bytes(bytes[24..32].try_into().expect("8 bytes"));
            let size = u64::from_be_bytes(bytes[32..40].try_into().expect("8 bytes"));
            Ok(ControlMessage::Query {
                key: ObjectKey::new(PartitionId::new(pid), ObjectId::new(oid)),
                op,
                offset,
                size,
            })
        } else {
            Err(ControlMessageError::UnknownHeader)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn a_key() -> ObjectKey {
        ObjectKey::user(PartitionId::FIRST, ObjectId::new(0x12345))
    }

    /// The wire form of `msg`, which both ways of encoding agree on.
    fn wire(msg: &ControlMessage) -> Vec<u8> {
        // A buffer with something in it: nothing past the message shows.
        let mut buf = [0xAA; QUERY_LEN];
        let bytes = msg.encode();
        assert_eq!(msg.encode_into(&mut buf), bytes);
        bytes
    }

    #[test]
    fn setid_roundtrip_all_classes() {
        for class in ObjectClass::ALL {
            let msg = ControlMessage::SetClass {
                key: a_key(),
                class,
            };
            let bytes = wire(&msg);
            assert_eq!(bytes.len(), SETID_LEN);
            assert_eq!(ControlMessage::decode(&bytes).unwrap(), msg);
            // Header, partition and object id big-endian, class id.
            let mut expected = b"#SETID#".to_vec();
            expected.extend([0, 0, 0, 0, 0, 1, 0, 0]);
            expected.extend([0, 0, 0, 0, 0, 1, 0x23, 0x45]);
            expected.push(class.id());
            assert_eq!(bytes, expected);
        }
    }

    #[test]
    fn query_roundtrip() {
        for op in [QueryOp::Read, QueryOp::Write] {
            let msg = ControlMessage::Query {
                key: a_key(),
                op,
                offset: 0xdead_beef,
                size: 0x1000,
            };
            let bytes = wire(&msg);
            assert_eq!(bytes.len(), QUERY_LEN);
            assert_eq!(ControlMessage::decode(&bytes).unwrap(), msg);
        }
    }

    #[test]
    fn messages_are_a_few_dozen_bytes() {
        // The paper: "a message accounts for only a few dozen bytes".
        // Checked at compile time; the test pins the claim by name.
        const _: () = assert!(SETID_LEN <= 48);
        const _: () = assert!(QUERY_LEN <= 48);
    }

    #[test]
    fn unknown_header_rejected() {
        assert_eq!(
            ControlMessage::decode(b"#NOPE##aaaaaaaaaaaaaaaaaa"),
            Err(ControlMessageError::UnknownHeader)
        );
    }

    #[test]
    fn truncation_rejected() {
        let msg = ControlMessage::SetClass {
            key: a_key(),
            class: ObjectClass::Dirty,
        };
        let bytes = msg.encode();
        for cut in 0..bytes.len() {
            assert!(matches!(
                ControlMessage::decode(&bytes[..cut]),
                Err(ControlMessageError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = ControlMessage::SetClass {
            key: a_key(),
            class: ObjectClass::Dirty,
        }
        .encode();
        bytes.push(0);
        assert_eq!(
            ControlMessage::decode(&bytes),
            Err(ControlMessageError::TrailingBytes(1))
        );
    }

    #[test]
    fn bad_class_and_op_rejected() {
        let mut bytes = ControlMessage::SetClass {
            key: a_key(),
            class: ObjectClass::Dirty,
        }
        .encode();
        *bytes.last_mut().unwrap() = 9;
        assert_eq!(
            ControlMessage::decode(&bytes),
            Err(ControlMessageError::BadClassId(9))
        );

        let mut q = ControlMessage::Query {
            key: a_key(),
            op: QueryOp::Read,
            offset: 0,
            size: 1,
        }
        .encode();
        q[23] = b'X';
        assert_eq!(
            ControlMessage::decode(&q),
            Err(ControlMessageError::BadQueryOp(b'X'))
        );
    }

    proptest! {
        #[test]
        fn roundtrip_arbitrary_fields(
            pid in 0x10000u64..u64::MAX,
            oid: u64,
            offset: u64,
            size: u64,
            class_id in 0u8..4,
            is_query: bool,
        ) {
            let key = ObjectKey::new(PartitionId::new(pid), ObjectId::new(oid));
            let msg = if is_query {
                ControlMessage::Query { key, op: QueryOp::Write, offset, size }
            } else {
                ControlMessage::SetClass {
                    key,
                    class: ObjectClass::from_id(class_id).unwrap(),
                }
            };
            prop_assert_eq!(ControlMessage::decode(&wire(&msg)).unwrap(), msg);
        }

        #[test]
        fn decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let _ = ControlMessage::decode(&bytes);
        }
    }
}
