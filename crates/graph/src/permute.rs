//! Node relabelings (bijections on `0..n`).

use crate::{GraphError, NodeId, Result};

/// A bijection between "old" node ids and "new" node ids.
///
/// Reordering heuristics naturally produce the *sequence of old ids in new
/// order* (`old_of_new`); [`Permutation::from_new_order`] accepts exactly
/// that. The inverse direction (`new_of_old`) is materialised eagerly because
/// both lookups sit on the hot path of matrix permutation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    /// `old_of_new[new] = old`
    old_of_new: Vec<NodeId>,
    /// `new_of_old[old] = new`
    new_of_old: Vec<NodeId>,
}

impl Permutation {
    /// Identity permutation on `n` nodes.
    pub fn identity(n: usize) -> Self {
        let v: Vec<NodeId> = (0..n as NodeId).collect();
        Permutation { old_of_new: v.clone(), new_of_old: v }
    }

    /// Builds a permutation from `order`, where `order[new] = old`.
    /// Validates that `order` is a bijection on `0..order.len()`.
    pub fn from_new_order(order: Vec<NodeId>) -> Result<Self> {
        let new_of_old = inverse_of(&order)?;
        Ok(Permutation { old_of_new: order, new_of_old })
    }

    /// Runs the check of [`from_new_order`](Self::from_new_order) on this
    /// permutation's own order: the structural audit of a built or loaded
    /// index re-proves its permutation with the constructor's own
    /// statement.
    pub fn check(&self) -> Result<()> {
        inverse_of(&self.old_of_new).map(drop)
    }

    /// Builds a permutation from the map `new_of_old[old] = new`.
    fn from_new_of_old(new_of_old: Vec<NodeId>) -> Result<Self> {
        let n = new_of_old.len();
        let mut old_of_new = vec![NodeId::MAX; n];
        for (old, &new) in new_of_old.iter().enumerate() {
            if (new as usize) >= n {
                return Err(GraphError::InvalidPermutation(format!(
                    "id {new} out of range for permutation of length {n}"
                )));
            }
            if old_of_new[new as usize] != NodeId::MAX {
                return Err(GraphError::InvalidPermutation(format!("image {new} appears twice")));
            }
            old_of_new[new as usize] = old as NodeId;
        }
        Ok(Permutation { old_of_new, new_of_old })
    }

    /// Number of elements permuted.
    #[inline]
    pub fn len(&self) -> usize {
        self.old_of_new.len()
    }

    /// True for the zero-length permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.old_of_new.is_empty()
    }

    /// New id of old node `old`.
    #[inline]
    pub fn new_of(&self, old: NodeId) -> NodeId {
        self.new_of_old[old as usize]
    }

    /// Old id of new node `new`.
    #[inline]
    pub fn old_of(&self, new: NodeId) -> NodeId {
        self.old_of_new[new as usize]
    }

    /// The inverse bijection.
    pub fn inverse(&self) -> Permutation {
        Permutation { old_of_new: self.new_of_old.clone(), new_of_old: self.old_of_new.clone() }
    }

    /// Composition: applies `self` first, then `after`
    /// (`result.new_of(v) == after.new_of(self.new_of(v))`).
    pub fn then(&self, after: &Permutation) -> Result<Permutation> {
        if self.len() != after.len() {
            return Err(GraphError::InvalidPermutation(format!(
                "cannot compose permutations of lengths {} and {}",
                self.len(),
                after.len()
            )));
        }
        let new_of_old: Vec<NodeId> =
            self.new_of_old.iter().map(|&mid| after.new_of(mid)).collect();
        Permutation::from_new_of_old(new_of_old)
    }

    /// Slice view of `old_of_new` (old ids in new order).
    pub fn order(&self) -> &[NodeId] {
        &self.old_of_new
    }

    /// Takes a dense per-node vector in new indexing back to old indexing.
    pub fn unpermute_values<T: Copy>(&self, values: &[T]) -> Vec<T> {
        assert_eq!(values.len(), self.len(), "value vector length mismatch");
        self.new_of_old.iter().map(|&new| values[new as usize]).collect()
    }
}

/// The inverse `new_of_old` of `order` (`order[new] = old`), validating
/// that `order` is a bijection on `0..order.len()`.
fn inverse_of(order: &[NodeId]) -> Result<Vec<NodeId>> {
    let n = order.len();
    let mut new_of_old = vec![NodeId::MAX; n];
    for (new, &old) in order.iter().enumerate() {
        if (old as usize) >= n {
            return Err(GraphError::InvalidPermutation(format!(
                "id {old} out of range for permutation of length {n}"
            )));
        }
        if new_of_old[old as usize] != NodeId::MAX {
            return Err(GraphError::InvalidPermutation(format!("id {old} appears twice")));
        }
        new_of_old[old as usize] = new as NodeId;
    }
    Ok(new_of_old)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_roundtrip() {
        let p = Permutation::identity(5);
        assert_eq!(p.len(), 5);
        for v in 0..5 {
            assert_eq!(p.new_of(v), v);
            assert_eq!(p.old_of(v), v);
        }
    }

    #[test]
    fn from_new_order_and_inverse() {
        // new order: [2, 0, 1] — old 2 becomes new 0, etc.
        let p = Permutation::from_new_order(vec![2, 0, 1]).unwrap();
        assert_eq!(p.old_of(0), 2);
        assert_eq!(p.new_of(2), 0);
        assert_eq!(p.new_of(0), 1);
        let inv = p.inverse();
        for v in 0..3 {
            assert_eq!(inv.new_of(p.new_of(v)), p.new_of(inv.new_of(v)));
            assert_eq!(inv.old_of(p.old_of(v)), p.old_of(inv.old_of(v)));
            assert_eq!(p.old_of(p.new_of(v)), v);
        }
    }

    #[test]
    fn rejects_non_bijections() {
        assert!(Permutation::from_new_order(vec![0, 0]).is_err());
        assert!(Permutation::from_new_order(vec![0, 5]).is_err());
        assert!(Permutation::from_new_of_old(vec![1, 1]).is_err());
    }

    #[test]
    fn composition() {
        let p = Permutation::from_new_order(vec![1, 2, 0]).unwrap();
        let q = Permutation::from_new_order(vec![2, 1, 0]).unwrap();
        let pq = p.then(&q).unwrap();
        for v in 0..3 {
            assert_eq!(pq.new_of(v), q.new_of(p.new_of(v)));
        }
        assert_eq!(p.then(&p.inverse()).unwrap().order(), &[0, 1, 2]);
    }

    #[test]
    fn unpermute_inverts_permute() {
        // New position i holds old node order[i]: 30 is old 2's value.
        let p = Permutation::from_new_order(vec![2, 0, 1]).unwrap();
        let (in_old, in_new) = (vec![10, 20, 30], vec![30, 10, 20]);
        assert_eq!(p.unpermute_values(&in_new), in_old);
        // The inverse permutation's "new → old" is this one's "old → new".
        assert_eq!(p.inverse().unpermute_values(&in_old), in_new);
    }
}
