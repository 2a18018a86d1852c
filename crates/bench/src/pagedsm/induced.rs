//! The induced (page-grain) correlation map of Fig. 1(b).
//!
//! Page-based active correlation tracking sees only "thread T touched page P in
//! interval k". When two threads touch the same page — even disjoint objects on it —
//! the tracker credits them a full page of sharing. Replayed over a recorded OAL
//! stream, this produces the induced map the paper contrasts with the inherent one.

use std::collections::HashMap;

use jessy_core::{Oal, Tcm};
use jessy_net::ThreadId;

use super::layout::{PageLayout, PAGE_SIZE};

/// Builds the page-grain (induced) TCM from an OAL stream.
#[derive(Debug)]
pub struct InducedTcmBuilder {
    n_threads: usize,
    /// (interval, page) → threads that touched it.
    rounds: HashMap<u64, HashMap<u64, Vec<ThreadId>>>,
    /// Page-grain "touches" (first access per page per thread-interval) — the events
    /// a page-based tracker pays a protection fault for.
    page_touches: u64,
}

impl InducedTcmBuilder {
    /// Builder for `n_threads` threads.
    pub fn new(n_threads: usize) -> Self {
        InducedTcmBuilder {
            n_threads,
            rounds: HashMap::new(),
            page_touches: 0,
        }
    }

    /// Replay one OAL: project each accessed object onto its pages.
    pub fn ingest(&mut self, oal: &Oal, layout: &PageLayout) {
        let round = self.rounds.entry(oal.interval).or_default();
        for e in &oal.entries {
            for page in layout.pages_of(e.obj) {
                let threads = round.entry(page).or_default();
                if !threads.contains(&oal.thread) {
                    threads.push(oal.thread);
                    self.page_touches += 1;
                }
            }
        }
    }

    /// Page-grain fault events replayed so far (feeds the D-CVM overhead model).
    pub fn page_touches(&self) -> u64 {
        self.page_touches
    }

    /// Build the induced map: each page shared by a thread pair within an interval
    /// contributes a full page.
    pub fn build(&self) -> Tcm {
        let mut tcm = Tcm::new(self.n_threads);
        for round in self.rounds.values() {
            for threads in round.values() {
                for a in 0..threads.len() {
                    for b in (a + 1)..threads.len() {
                        tcm.add_pair(threads[a], threads[b], PAGE_SIZE as f64);
                    }
                }
            }
        }
        tcm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jessy_core::OalEntry;
    use jessy_gos::{ClassId, ObjectId};

    fn oal(thread: u32, interval: u64, objs: &[u32]) -> Oal {
        Oal {
            thread: ThreadId(thread),
            interval,
            entries: objs
                .iter()
                .map(|&o| OalEntry {
                    obj: ObjectId(o),
                    class: ClassId(0),
                    bytes: 64,
                })
                .collect(),
        }
    }

    #[test]
    fn false_sharing_correlates_disjoint_threads() {
        // Objects 0 and 1 are tiny and share page 0; threads touch DIFFERENT objects
        // yet the induced map correlates them — the Fig. 1(b) effect.
        let layout = PageLayout::from_sizes(&[64, 64]);
        let mut b = InducedTcmBuilder::new(2);
        b.ingest(&oal(0, 0, &[0]), &layout);
        b.ingest(&oal(1, 0, &[1]), &layout);
        let tcm = b.build();
        assert_eq!(tcm.at(ThreadId(0), ThreadId(1)), PAGE_SIZE as f64);
    }

    #[test]
    fn separate_pages_do_not_correlate() {
        let layout = PageLayout::from_sizes(&[4096, 4096]);
        let mut b = InducedTcmBuilder::new(2);
        b.ingest(&oal(0, 0, &[0]), &layout);
        b.ingest(&oal(1, 0, &[1]), &layout);
        assert_eq!(b.build().total(), 0.0);
    }

    #[test]
    fn intervals_accumulate() {
        let layout = PageLayout::from_sizes(&[64, 64]);
        let mut b = InducedTcmBuilder::new(2);
        for interval in 0..3 {
            b.ingest(&oal(0, interval, &[0]), &layout);
            b.ingest(&oal(1, interval, &[1]), &layout);
        }
        assert_eq!(
            b.build().at(ThreadId(0), ThreadId(1)),
            3.0 * PAGE_SIZE as f64
        );
    }

    #[test]
    fn page_touches_are_first_access_per_page_interval() {
        let layout = PageLayout::from_sizes(&[64, 64]);
        let mut b = InducedTcmBuilder::new(2);
        b.ingest(&oal(0, 0, &[0, 1]), &layout); // same page twice → 1 touch
        b.ingest(&oal(0, 1, &[0]), &layout); // new interval → new touch
        b.ingest(&oal(1, 1, &[0]), &layout); // other thread → new touch
        assert_eq!(b.page_touches(), 3);
    }

    #[test]
    fn large_array_bias_spreads_correlation() {
        // A 16 KB array spans 4+ pages: threads accessing different halves still get
        // correlated through every shared page it spans.
        let layout = PageLayout::from_sizes(&[16384]);
        let mut b = InducedTcmBuilder::new(3);
        b.ingest(&oal(0, 0, &[0]), &layout);
        b.ingest(&oal(1, 0, &[0]), &layout);
        b.ingest(&oal(2, 0, &[0]), &layout);
        let tcm = b.build();
        let pages = layout.pages_of(ObjectId(0)).count() as f64;
        assert_eq!(tcm.at(ThreadId(0), ThreadId(2)), pages * PAGE_SIZE as f64);
    }
}
