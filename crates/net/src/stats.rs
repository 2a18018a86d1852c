//! Traffic ledgers.
//!
//! [`NetworkStats`] is a snapshot of everything the [`crate::Fabric`] accounted:
//! per-class message counts and byte volumes. Table III of the paper reports the
//! *GOS message volume* and the *OAL message volume* (and the latter as a percentage
//! of the former); both are projections of this ledger.

use serde::{Deserialize, Serialize};

use crate::fault::FaultStats;
use crate::message::{MsgClass, NUM_MSG_CLASSES};

/// Counters for one message class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Number of messages sent.
    pub messages: u64,
    /// Total bytes (payload + per-message header).
    pub bytes: u64,
}

impl ClassStats {
    fn add(&mut self, bytes: u64) {
        self.messages += 1;
        self.bytes += bytes;
    }
}

/// Immutable snapshot of fabric traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkStats {
    per_class: [ClassStats; NUM_MSG_CLASSES],
    /// Faults injected while this traffic was accounted (all zero without a
    /// [`crate::fault::FaultPlan`]).
    pub faults: FaultStats,
}

impl NetworkStats {
    /// Empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one message of `class` totaling `bytes` (payload + header).
    pub fn record(&mut self, class: MsgClass, bytes: u64) {
        self.per_class[class.index()].add(bytes);
    }

    /// Counters for one class.
    pub fn class(&self, class: MsgClass) -> ClassStats {
        self.per_class[class.index()]
    }

    /// Total bytes over all classes.
    pub fn total_bytes(&self) -> u64 {
        self.per_class.iter().map(|c| c.bytes).sum()
    }

    /// Total messages over all classes.
    pub fn total_messages(&self) -> u64 {
        self.per_class.iter().map(|c| c.messages).sum()
    }

    /// Bytes of the base coherence protocol — the "GOS message volume" of Table III.
    pub fn gos_bytes(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| !c.is_profiling() && !c.is_migration())
            .map(|c| self.class(*c).bytes)
            .sum()
    }

    /// Bytes of profiling traffic — the "OAL message volume" of Table III.
    pub fn oal_bytes(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| c.is_profiling())
            .map(|c| self.class(*c).bytes)
            .sum()
    }

    /// Bytes of migration traffic (context + sticky-set prefetch).
    pub fn migration_bytes(&self) -> u64 {
        MsgClass::ALL
            .iter()
            .filter(|c| c.is_migration())
            .map(|c| self.class(*c).bytes)
            .sum()
    }

    /// OAL traffic as a fraction of GOS traffic (Table III's percentage column).
    /// Returns 0.0 when there is no GOS traffic.
    pub fn oal_over_gos(&self) -> f64 {
        let gos = self.gos_bytes();
        if gos == 0 {
            0.0
        } else {
            self.oal_bytes() as f64 / gos as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_project() {
        let mut s = NetworkStats::new();
        s.record(MsgClass::ObjFetch, 100);
        s.record(MsgClass::ObjData, 4_196);
        s.record(MsgClass::OalBatch, 1_000);
        s.record(MsgClass::MigrationCtx, 2_000);
        assert_eq!(s.total_messages(), 4);
        assert_eq!(s.total_bytes(), 7_296);
        assert_eq!(s.gos_bytes(), 4_296);
        assert_eq!(s.oal_bytes(), 1_000);
        assert_eq!(s.migration_bytes(), 2_000);
        let frac = s.oal_over_gos();
        assert!((frac - 1_000.0 / 4_296.0).abs() < 1e-12);
    }

    #[test]
    fn oal_over_gos_handles_empty() {
        let s = NetworkStats::new();
        assert_eq!(s.oal_over_gos(), 0.0);
    }
}
