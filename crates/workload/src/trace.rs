//! Generated traces: object tables and request streams.

use reo_osd::{ObjectId, ObjectKey, PartitionId};
use reo_sim::{ByteSize, FastMap};
use serde::{Deserialize, Serialize};

/// First OID used for workload objects (clear of all reserved IDs).
pub const FIRST_WORKLOAD_OID: u64 = 0x20000;

/// One object of the synthetic data set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkloadObject {
    /// The object's OSD key.
    pub key: ObjectKey,
    /// The object's size.
    pub size: ByteSize,
}

/// Whether a request reads or overwrites its object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Operation {
    /// Whole-object read.
    Read,
    /// Whole-object overwrite (lands in cache as dirty data).
    Write,
}

/// One request of the trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    /// The addressed object.
    pub key: ObjectKey,
    /// Read or write.
    pub op: Operation,
    /// The object's size (whole-object requests).
    pub size: ByteSize,
}

/// Aggregate statistics of a trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Unique objects in the data set.
    pub objects: usize,
    /// Total size of the data set.
    pub data_set_bytes: ByteSize,
    /// Mean object size in bytes.
    pub mean_object_bytes: f64,
    /// Requests in the trace.
    pub requests: usize,
    /// Read requests.
    pub reads: usize,
    /// Write requests.
    pub writes: usize,
    /// Total bytes accessed by all requests.
    pub accessed_bytes: ByteSize,
}

/// A complete synthetic workload: the object table plus the request
/// stream. Serializable for archival and replay.
///
/// # Examples
///
/// ```
/// use reo_workload::WorkloadSpec;
///
/// let trace = WorkloadSpec::weak().with_requests(100).generate(1);
/// let s = trace.summary();
/// assert_eq!(s.requests, 100);
/// assert!(s.data_set_bytes.as_gib_f64() > 10.0);
/// ```
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Trace {
    objects: Vec<WorkloadObject>,
    requests: Vec<Request>,
}

impl Trace {
    /// Assembles a trace from parts (normally done by
    /// [`crate::WorkloadSpec::generate`]).
    ///
    /// # Panics
    ///
    /// Panics if any request addresses a key absent from `objects` or
    /// disagrees with its size.
    pub fn new(objects: Vec<WorkloadObject>, requests: Vec<Request>) -> Self {
        let sizes: FastMap<ObjectKey, ByteSize> = objects.iter().map(|o| (o.key, o.size)).collect();
        for r in &requests {
            match sizes.get(&r.key) {
                Some(&s) => assert_eq!(s, r.size, "request size disagrees for {}", r.key),
                None => panic!("request addresses unknown object {}", r.key),
            }
        }
        Trace { objects, requests }
    }

    /// The object table.
    pub fn objects(&self) -> &[WorkloadObject] {
        &self.objects
    }

    /// The request stream, in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Aggregate statistics.
    pub fn summary(&self) -> TraceSummary {
        let data_set_bytes: ByteSize = self.objects.iter().map(|o| o.size).sum();
        let accessed_bytes: ByteSize = self.requests.iter().map(|r| r.size).sum();
        let writes = self
            .requests
            .iter()
            .filter(|r| r.op == Operation::Write)
            .count();
        TraceSummary {
            objects: self.objects.len(),
            data_set_bytes,
            mean_object_bytes: if self.objects.is_empty() {
                0.0
            } else {
                data_set_bytes.as_bytes() as f64 / self.objects.len() as f64
            },
            requests: self.requests.len(),
            reads: self.requests.len() - writes,
            writes,
            accessed_bytes,
        }
    }
}

/// The OSD key of workload object number `i`.
pub fn object_key(i: usize) -> ObjectKey {
    ObjectKey::user(
        PartitionId::FIRST,
        ObjectId::new(FIRST_WORKLOAD_OID + i as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(i: usize, kib: u64) -> WorkloadObject {
        WorkloadObject {
            key: object_key(i),
            size: ByteSize::from_kib(kib),
        }
    }

    #[test]
    fn summary_counts() {
        let objects = vec![obj(0, 4), obj(1, 8)];
        let requests = vec![
            Request {
                key: object_key(0),
                op: Operation::Read,
                size: ByteSize::from_kib(4),
            },
            Request {
                key: object_key(1),
                op: Operation::Write,
                size: ByteSize::from_kib(8),
            },
            Request {
                key: object_key(0),
                op: Operation::Read,
                size: ByteSize::from_kib(4),
            },
        ];
        let t = Trace::new(objects, requests);
        let s = t.summary();
        assert_eq!(s.objects, 2);
        assert_eq!(s.data_set_bytes, ByteSize::from_kib(12));
        assert_eq!(s.requests, 3);
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.accessed_bytes, ByteSize::from_kib(16));
        assert!((s.mean_object_bytes - 6.0 * 1024.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "unknown object")]
    fn unknown_request_key_panics() {
        let _ = Trace::new(
            vec![obj(0, 4)],
            vec![Request {
                key: object_key(9),
                op: Operation::Read,
                size: ByteSize::from_kib(4),
            }],
        );
    }

    #[test]
    #[should_panic(expected = "disagrees")]
    fn wrong_request_size_panics() {
        let _ = Trace::new(
            vec![obj(0, 4)],
            vec![Request {
                key: object_key(0),
                op: Operation::Read,
                size: ByteSize::from_kib(8),
            }],
        );
    }

    #[test]
    fn keys_are_clear_of_reserved_range() {
        // object_key would panic for reserved OIDs via ObjectKey::user.
        let k = object_key(0);
        assert!(k.oid().is_regular_user_oid());
    }
}
