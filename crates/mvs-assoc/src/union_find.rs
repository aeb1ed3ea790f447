//! Disjoint-set forest with path compression and union by rank.

/// A union-find over `0..n` elements.
///
/// # Examples
///
/// ```
/// use mvs_assoc::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 2);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 3));
/// assert!(!uf.connected(0, 1));
/// assert_eq!(uf.groups().len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Starts over as `n` singleton sets, keeping the allocation.
    pub fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// Whether `a` and `b` share a set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// The sets as sorted member lists (deterministic order: by smallest
    /// member).
    pub fn groups(&mut self) -> Vec<Vec<usize>> {
        let n = self.len();
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for x in 0..n {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.sort_by_key(|g| g[0]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_disjoint() {
        let mut uf = UnionFind::new(3);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.groups(), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn union_merges_and_reports() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0)); // already merged
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.groups(), vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn transitive_connectivity() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(2, 3));
    }

    #[test]
    fn long_chain_compresses() {
        let n = 1000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert!(uf.connected(0, n - 1));
        assert_eq!(uf.groups().len(), 1);
    }

    #[test]
    fn empty_is_fine() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert!(uf.groups().is_empty());
    }
}
