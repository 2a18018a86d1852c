//! Classes and per-class sequence numbers.
//!
//! Section II.B differentiates sampling *at class level*: every class owns a sequence
//! counter, and each new instance (or, for arrays, each element — Section II.B.3) draws
//! consecutive sequence numbers from it. The sampling gap is also defined per class; it
//! lives in the profiler (`jessy-core`), not here — the GOS only provides the raw
//! material (classes, sizes, sequence numbers).

use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifies a class in the [`ClassRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClassId(pub u16);

impl ClassId {
    /// Raw index into per-class tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Static description of one class.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassInfo {
    /// Human-readable name, e.g. `"Body"`, `"double[]"`.
    pub name: String,
    /// Is this an array class (variable length, per-element sequence numbers)?
    pub is_array: bool,
    /// For scalar classes: the fixed instance size in 8-byte words.
    /// For array classes: the per-element size in words (≥ 1).
    pub unit_words: u32,
}

impl ClassInfo {
    /// Instance/element size in bytes — the `s` of the paper's `gap = SP / (s · n)`.
    #[inline]
    pub fn unit_bytes(&self) -> usize {
        self.unit_words as usize * 8
    }
}

struct ClassSlot {
    info: ClassInfo,
    seq: AtomicU64,
}

/// Registry of all classes plus their sequence counters.
#[derive(Default)]
pub struct ClassRegistry {
    slots: RwLock<Vec<ClassSlot>>,
}

impl ClassRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a scalar class of `words` 8-byte words per instance.
    pub fn register_scalar(&self, name: &str, words: u32) -> ClassId {
        self.register(ClassInfo {
            name: name.to_string(),
            is_array: false,
            unit_words: words.max(1),
        })
    }

    /// Register an array class of `elem_words` words per element.
    pub fn register_array(&self, name: &str, elem_words: u32) -> ClassId {
        self.register(ClassInfo {
            name: name.to_string(),
            is_array: true,
            unit_words: elem_words.max(1),
        })
    }

    fn register(&self, info: ClassInfo) -> ClassId {
        let mut slots = self.slots.write();
        assert!(slots.len() < u16::MAX as usize, "class table full");
        assert!(
            !slots.iter().any(|s| s.info.name == info.name),
            "class {:?} registered twice",
            info.name
        );
        slots.push(ClassSlot {
            info,
            seq: AtomicU64::new(0),
        });
        ClassId((slots.len() - 1) as u16)
    }

    /// Look up a class (clones the small descriptor).
    pub fn info(&self, class: ClassId) -> ClassInfo {
        self.slots.read()[class.index()].info.clone()
    }

    /// The class's `(is_array, unit_words)`, without cloning the descriptor and
    /// its name: what every allocation asks.
    pub fn shape(&self, class: ClassId) -> (bool, u32) {
        let info = &self.slots.read()[class.index()].info;
        (info.is_array, info.unit_words)
    }

    /// Find a class by name.
    pub fn by_name(&self, name: &str) -> Option<ClassId> {
        self.slots
            .read()
            .iter()
            .position(|s| s.info.name == name)
            .map(|i| ClassId(i as u16))
    }

    /// Number of registered classes.
    pub fn len(&self) -> usize {
        self.slots.read().len()
    }

    /// True if no classes are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draw `count` consecutive sequence numbers for `class`, returning the first.
    ///
    /// A scalar allocation draws 1; an array of `L` elements draws `L` so every element
    /// has its own number (Section II.B.3: "every element has its own sequence number
    /// ... we only need to save the first element's").
    pub fn draw_seq(&self, class: ClassId, count: u64) -> u64 {
        self.slots.read()[class.index()]
            .seq
            .fetch_add(count, Ordering::Relaxed)
    }

    /// Current sequence counter value (tests/diagnostics).
    pub fn seq_watermark(&self, class: ClassId) -> u64 {
        self.slots.read()[class.index()].seq.load(Ordering::Relaxed)
    }

    /// Iterate `(ClassId, ClassInfo)` pairs.
    pub fn all(&self) -> Vec<(ClassId, ClassInfo)> {
        self.slots
            .read()
            .iter()
            .enumerate()
            .map(|(i, s)| (ClassId(i as u16), s.info.clone()))
            .collect()
    }
}

impl fmt::Debug for ClassRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassRegistry")
            .field("classes", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let reg = ClassRegistry::new();
        let body = reg.register_scalar("Body", 8);
        let darr = reg.register_array("double[]", 1);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.info(body).unit_bytes(), 64);
        assert!(reg.info(darr).is_array);
        assert_eq!((reg.shape(body), reg.shape(darr)), ((false, 8), (true, 1)));
        assert_eq!(reg.by_name("double[]"), Some(darr));
        assert_eq!(reg.by_name("nope"), None);
    }

    #[test]
    fn sequence_numbers_are_consecutive_per_class() {
        let reg = ClassRegistry::new();
        let a = reg.register_scalar("A", 1);
        let b = reg.register_scalar("B", 1);
        assert_eq!(reg.draw_seq(a, 1), 0);
        assert_eq!(reg.draw_seq(a, 5), 1, "array of 5 draws 5 numbers");
        assert_eq!(reg.draw_seq(a, 1), 6);
        assert_eq!(reg.draw_seq(b, 1), 0, "classes have independent counters");
        assert_eq!(reg.seq_watermark(a), 7);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_name_panics() {
        let reg = ClassRegistry::new();
        reg.register_scalar("X", 1);
        reg.register_scalar("X", 2);
    }

    #[test]
    fn zero_word_classes_are_clamped() {
        let reg = ClassRegistry::new();
        let c = reg.register_scalar("Empty", 0);
        assert_eq!(reg.info(c).unit_words, 1);
    }

    #[test]
    fn concurrent_draws_never_overlap() {
        use std::sync::Arc;
        let reg = Arc::new(ClassRegistry::new());
        let c = reg.register_scalar("C", 1);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let mut seen = Vec::new();
                    for _ in 0..1000 {
                        seen.push(reg.draw_seq(c, 3));
                    }
                    seen
                })
            })
            .collect();
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8 * 1000, "ranges must not overlap");
        assert_eq!(reg.seq_watermark(c), 8 * 1000 * 3);
    }
}
