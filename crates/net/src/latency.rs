//! Network cost model.
//!
//! The paper's testbed used Fast Ethernet (100 Mbit/s) between Pentium-4 nodes. We
//! model a message's one-way cost as `base + bytes / bandwidth`, which is the standard
//! LogP-style alpha-beta model and is what home-based LRC papers (e.g. HLRC, OSDI'96)
//! use to reason about protocol traffic.

use serde::{Deserialize, Serialize};

/// Alpha-beta latency model: `cost(bytes) = base_ns + bytes * ns_per_byte`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Fixed per-message one-way software + wire latency, in nanoseconds.
    pub base_ns: u64,
    /// Transfer cost per byte, in nanoseconds (1e9 / bytes-per-second).
    pub ns_per_byte: f64,
}

impl LatencyModel {
    /// Fast Ethernet as on the HKU Gideon 300 cluster: ~75 us one-way base latency
    /// (kernel TCP stack of the era) and 12.5 MB/s peak bandwidth (80 ns/byte).
    pub fn fast_ethernet() -> Self {
        LatencyModel {
            base_ns: 75_000,
            ns_per_byte: 80.0,
        }
    }

    /// A zero-cost network; useful in unit tests that only check accounting.
    pub fn free() -> Self {
        LatencyModel {
            base_ns: 0,
            ns_per_byte: 0.0,
        }
    }

    /// One-way cost of a message of `bytes` payload+header, in nanoseconds.
    #[inline]
    pub fn one_way_ns(&self, bytes: usize) -> u64 {
        self.base_ns + (bytes as f64 * self.ns_per_byte) as u64
    }

    /// Round-trip cost of a request of `req_bytes` answered by `resp_bytes`.
    #[inline]
    pub fn round_trip_ns(&self, req_bytes: usize, resp_bytes: usize) -> u64 {
        self.one_way_ns(req_bytes) + self.one_way_ns(resp_bytes)
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::fast_ethernet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_way_is_affine_in_bytes() {
        let m = LatencyModel {
            base_ns: 100,
            ns_per_byte: 2.0,
        };
        assert_eq!(m.one_way_ns(0), 100);
        assert_eq!(m.one_way_ns(10), 120);
        assert_eq!(m.one_way_ns(1000), 2100);
    }

    #[test]
    fn round_trip_sums_both_directions() {
        let m = LatencyModel::free();
        assert_eq!(m.round_trip_ns(100, 4096), 0);
        let m = LatencyModel {
            base_ns: 50,
            ns_per_byte: 1.0,
        };
        assert_eq!(m.round_trip_ns(10, 20), 50 + 10 + 50 + 20);
    }

    #[test]
    fn fast_ethernet_orders_of_magnitude() {
        let m = LatencyModel::fast_ethernet();
        // A 4 KB page-sized transfer should cost a few hundred microseconds.
        let ns = m.round_trip_ns(78, 4096 + 78);
        assert!(ns > 150_000 && ns < 1_000_000, "got {ns}");
    }
}
