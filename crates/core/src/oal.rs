//! Object Access Lists (Section II.A).
//!
//! Per thread and per HLRC interval, the profiler accumulates one [`Oal`]: the sampled
//! objects the thread (fault-)accessed, each with its gap-scaled amortized size. On
//! interval close the OAL is packed "along with the interval context ... into a jumbo
//! message to be sent to the central coordinator", piggybacked on lock/barrier traffic
//! when possible — we account it as asynchronous `OalBatch` traffic.

use serde::{Deserialize, Serialize};

use jessy_gos::{ClassId, ObjectId};
use jessy_net::ThreadId;

/// Wire bytes per OAL entry (object id + size, as in the paper).
pub const OAL_ENTRY_BYTES: usize = 8;
/// Wire bytes of the per-interval context (thread id, interval id, start/end PCs).
pub const OAL_CONTEXT_BYTES: usize = 16;

/// One logged access: a sampled object and its scaled amortized size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OalEntry {
    /// The accessed object.
    pub obj: ObjectId,
    /// Its class (the analyzer builds per-class sub-maps for the adaptive controller).
    pub class: ClassId,
    /// Gap-scaled amortized bytes (see `sampling` module docs on unbiasedness).
    pub bytes: u64,
}

/// One thread-interval's object access list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Oal {
    /// The logging thread.
    pub thread: ThreadId,
    /// The thread's interval counter value.
    pub interval: u64,
    /// Logged accesses (at most one per object thanks to the at-most-once property).
    pub entries: Vec<OalEntry>,
}

impl Oal {
    /// Serialized size on the wire.
    pub fn wire_bytes(&self) -> usize {
        OAL_CONTEXT_BYTES + self.entries.len() * OAL_ENTRY_BYTES
    }

    /// Total scaled bytes logged in this interval.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Collapse the list to one synthetic entry per class (bytes summed, sorted by
    /// class id), shedding object identity to cut wire bytes — the budget ladder's
    /// "summary-only" rung and the shed policies' last-resort payload. The synthetic
    /// object id is the class id with the top bit set, so summary entries of the same
    /// class from different threads still correlate in the TCM (class-grain
    /// correlation, the analogue of the paper's page-grain baseline).
    pub fn summarize(&self) -> Oal {
        let mut per_class: Vec<(ClassId, u64)> = Vec::new();
        for e in &self.entries {
            match per_class.iter_mut().find(|(c, _)| *c == e.class) {
                Some((_, b)) => *b += e.bytes,
                None => per_class.push((e.class, e.bytes)),
            }
        }
        per_class.sort_unstable_by_key(|(c, _)| *c);
        Oal {
            thread: self.thread,
            interval: self.interval,
            entries: per_class
                .into_iter()
                .map(|(class, bytes)| OalEntry {
                    obj: ObjectId(class.0 as u32 | 0x8000_0000),
                    class,
                    bytes,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oal() -> Oal {
        Oal {
            thread: ThreadId(3),
            interval: 9,
            entries: vec![
                OalEntry {
                    obj: ObjectId(1),
                    class: ClassId(0),
                    bytes: 64,
                },
                OalEntry {
                    obj: ObjectId(2),
                    class: ClassId(0),
                    bytes: 128,
                },
            ],
        }
    }

    #[test]
    fn wire_bytes_count_context_and_entries() {
        assert_eq!(oal().wire_bytes(), 16 + 2 * 8);
        let empty = Oal {
            thread: ThreadId(0),
            interval: 0,
            entries: vec![],
        };
        assert_eq!(empty.wire_bytes(), 16);
        assert!(empty.is_empty());
    }

    #[test]
    fn total_bytes_sums_entries() {
        assert_eq!(oal().total_bytes(), 192);
    }

    #[test]
    fn summarize_collapses_to_sorted_per_class_entries() {
        let mut o = oal(); // two ClassId(0) entries: 64 + 128
        o.entries.push(OalEntry { obj: ObjectId(9), class: ClassId(2), bytes: 32 });
        let s = o.summarize();
        assert_eq!(s.thread, o.thread);
        assert_eq!(s.interval, o.interval);
        assert_eq!(s.entries.len(), 2, "one synthetic entry per class");
        assert_eq!(s.entries[0].class, ClassId(0));
        assert_eq!(s.entries[0].bytes, 192, "bytes preserved");
        assert_eq!(s.entries[0].obj, ObjectId(0x8000_0000), "synthetic id");
        assert_eq!(s.entries[1].obj, ObjectId(0x8000_0002));
        assert_eq!(s.total_bytes(), o.total_bytes());
        assert!(s.wire_bytes() <= o.wire_bytes(), "a summary never grows");
        // Summarizing a summary is a fixpoint.
        assert_eq!(s.summarize(), s);
    }
}
