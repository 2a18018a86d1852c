//! Protocol message taxonomy.
//!
//! Table III of the paper splits traffic into "GOS message volume" (the coherence
//! protocol itself) and "OAL message volume" (profiling traffic: object access lists
//! shipped to the central coordinator). Each simulated message carries a [`MsgClass`]
//! so the [`crate::Fabric`] can keep the two ledgers separate.

use serde::{Deserialize, Serialize};

/// Number of distinct message classes (for fixed-size per-class counter arrays).
pub const NUM_MSG_CLASSES: usize = 15;

/// Classification of every message the simulated DJVM exchanges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum MsgClass {
    /// Request an object's latest copy from its home node (object fault).
    ObjFetch = 0,
    /// Reply carrying the object payload.
    ObjData = 1,
    /// Diff flushed to the home node at release time (HLRC).
    DiffUpdate = 2,
    /// Write notices propagated so caches invalidate at acquire time.
    WriteNotice = 3,
    /// Distributed lock acquire request.
    LockAcquire = 4,
    /// Lock grant (may piggyback write notices).
    LockGrant = 5,
    /// Lock release notification to the lock's manager.
    LockRelease = 6,
    /// Barrier arrival.
    BarrierEnter = 7,
    /// Barrier release broadcast (carries write notices).
    BarrierRelease = 8,
    /// Object Access List batch sent to the correlation-computing daemon.
    OalBatch = 9,
    /// Sampling-rate change notice broadcast by the coordinator.
    RateChange = 10,
    /// Thread migration context (the packed stack).
    MigrationCtx = 11,
    /// Sticky-set prefetch data accompanying a migration.
    Prefetch = 12,
    /// Re-registration handshake from a restarted node's threads: the reply carries
    /// the master's current epoch and class rate table so sampling resumes in step.
    Rejoin = 13,
    /// A partial TCM crossing the fabric. Nothing sends it: the master reduces
    /// every OAL itself. It is kept only because the `benchmark/` crate names
    /// it (its `net.fabric.bytes.tcm` layer row, which reads 0).
    TcmPartial = 14,
}

impl MsgClass {
    /// All classes, in `repr` order.
    pub const ALL: [MsgClass; NUM_MSG_CLASSES] = [
        MsgClass::ObjFetch,
        MsgClass::ObjData,
        MsgClass::DiffUpdate,
        MsgClass::WriteNotice,
        MsgClass::LockAcquire,
        MsgClass::LockGrant,
        MsgClass::LockRelease,
        MsgClass::BarrierEnter,
        MsgClass::BarrierRelease,
        MsgClass::OalBatch,
        MsgClass::RateChange,
        MsgClass::MigrationCtx,
        MsgClass::Prefetch,
        MsgClass::Rejoin,
        MsgClass::TcmPartial,
    ];

    /// Index into per-class counter arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Is this message part of the *profiling* traffic (the OAL ledger of Table III)
    /// rather than the base coherence protocol?
    #[inline]
    pub fn is_profiling(self) -> bool {
        matches!(
            self,
            MsgClass::OalBatch | MsgClass::RateChange | MsgClass::Rejoin | MsgClass::TcmPartial
        )
    }

    /// Is this message part of thread-migration traffic (context + prefetch)?
    #[inline]
    pub fn is_migration(self) -> bool {
        matches!(self, MsgClass::MigrationCtx | MsgClass::Prefetch)
    }

    /// Short label used by the benchmark tables.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::ObjFetch => "obj-fetch",
            MsgClass::ObjData => "obj-data",
            MsgClass::DiffUpdate => "diff-update",
            MsgClass::WriteNotice => "write-notice",
            MsgClass::LockAcquire => "lock-acquire",
            MsgClass::LockGrant => "lock-grant",
            MsgClass::LockRelease => "lock-release",
            MsgClass::BarrierEnter => "barrier-enter",
            MsgClass::BarrierRelease => "barrier-release",
            MsgClass::OalBatch => "oal-batch",
            MsgClass::RateChange => "rate-change",
            MsgClass::MigrationCtx => "migration-ctx",
            MsgClass::Prefetch => "prefetch",
            MsgClass::Rejoin => "rejoin",
            MsgClass::TcmPartial => "tcm-partial",
        }
    }

    /// Fixed per-message header size in bytes (Ethernet + IP + TCP + protocol header),
    /// charged on top of the payload.
    #[inline]
    pub fn header_bytes(self) -> usize {
        78
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all() {
        for (i, c) in MsgClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "class {c:?} out of order");
        }
        assert_eq!(MsgClass::ALL.len(), NUM_MSG_CLASSES);
    }

    #[test]
    fn profiling_partition() {
        let profiling: Vec<_> = MsgClass::ALL.iter().filter(|c| c.is_profiling()).collect();
        assert_eq!(
            profiling,
            vec![
                &MsgClass::OalBatch,
                &MsgClass::RateChange,
                &MsgClass::Rejoin,
                &MsgClass::TcmPartial,
            ]
        );
    }

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<_> = MsgClass::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), NUM_MSG_CLASSES);
    }
}
