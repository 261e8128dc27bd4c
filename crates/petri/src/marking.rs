//! Token markings.

use crate::model::PlaceId;
use std::fmt;
use std::ops::Index;
use std::sync::OnceLock;

/// A marking assigns a token count to every place of a net.
///
/// Markings are small, hashable value types; the reachability explorer and
/// the simulator both use them as state identifiers.
///
/// ```
/// use mvml_petri::NetBuilder;
///
/// let mut b = NetBuilder::new("demo");
/// let p = b.place("p", 2);
/// let net = b.build().unwrap();
/// assert_eq!(net.initial_marking()[p], 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Marking(Box<[u32]>);

impl Marking {
    /// Creates a marking from explicit token counts.
    pub fn new(tokens: impl Into<Vec<u32>>) -> Self {
        Marking(tokens.into().into_boxed_slice())
    }

    /// Number of places covered by this marking.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the marking covers no places.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Token count of `place`.
    ///
    /// # Panics
    ///
    /// Panics if `place` is out of range for this marking.
    pub fn tokens(&self, place: PlaceId) -> u32 {
        self.0[place.index()]
    }

    /// Total number of tokens across all places.
    pub fn total_tokens(&self) -> u64 {
        self.0.iter().map(|&t| u64::from(t)).sum()
    }

    /// Iterates over `(place index, token count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.0.iter().copied().enumerate()
    }

    /// Raw token counts, indexed by place index.
    pub fn as_slice(&self) -> &[u32] {
        &self.0
    }

    pub(crate) fn set(&mut self, place: usize, tokens: u32) {
        self.0[place] = tokens;
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [u32] {
        &mut self.0
    }

    pub(crate) fn get(&self, place: usize) -> u32 {
        self.0[place]
    }
}

impl Index<PlaceId> for Marking {
    type Output = u32;

    fn index(&self, place: PlaceId) -> &u32 {
        &self.0[place.index()]
    }
}

impl fmt::Debug for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Marking{:?}", &self.0)
    }
}

impl fmt::Display for Marking {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ")")
    }
}

impl From<&[u32]> for Marking {
    fn from(tokens: &[u32]) -> Self {
        Marking(tokens.into())
    }
}

impl From<Vec<u32>> for Marking {
    fn from(tokens: Vec<u32>) -> Self {
        Marking::new(tokens)
    }
}

/// Point lookups of markings in a distinct-marking list, built on the
/// first lookup: state ids sorted by marking, searched by bisection.
/// Solutions that are only integrated against rewards never pay for it.
#[derive(Debug, Default)]
pub(crate) struct MarkingIndex(OnceLock<Vec<u32>>);

impl MarkingIndex {
    /// Position of `m` in `markings`, which must hold distinct markings and
    /// be the same list on every call.
    pub(crate) fn find(&self, markings: &[Marking], m: &Marking) -> Option<usize> {
        let sorted = self.0.get_or_init(|| {
            let mut ids: Vec<u32> = (0..markings.len())
                .map(|i| u32::try_from(i).expect("state ids fit in u32"))
                .collect();
            ids.sort_unstable_by(|&a, &b| markings[a as usize].cmp(&markings[b as usize]));
            ids
        });
        sorted
            .binary_search_by(|&i| markings[i as usize].cmp(m))
            .ok()
            .map(|k| sorted[k] as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let m = Marking::new(vec![1, 0, 3]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.total_tokens(), 4);
        assert_eq!(m.as_slice(), &[1, 0, 3]);
        let pairs: Vec<_> = m.iter().collect();
        assert_eq!(pairs, vec![(0, 1), (1, 0), (2, 3)]);
    }

    #[test]
    fn display_and_debug() {
        let m = Marking::new(vec![2, 1]);
        assert_eq!(m.to_string(), "(2,1)");
        assert_eq!(format!("{m:?}"), "Marking[2, 1]");
    }

    #[test]
    fn equality_and_hash_are_structural() {
        use std::collections::HashSet;
        let a = Marking::new(vec![1, 2]);
        let b = Marking::new(vec![1, 2]);
        let c = Marking::new(vec![2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut set = HashSet::new();
        set.insert(a);
        assert!(set.contains(&b));
        assert!(!set.contains(&c));
    }

    #[test]
    fn empty_marking() {
        let m = Marking::new(Vec::new());
        assert!(m.is_empty());
        assert_eq!(m.total_tokens(), 0);
        assert_eq!(m.to_string(), "()");
    }
}
