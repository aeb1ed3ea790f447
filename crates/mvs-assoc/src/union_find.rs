//! Disjoint-set forest with path compression and union by rank.

/// A union-find over `0..n` elements.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Starts over as `n` singleton sets, keeping the allocation.
    pub(crate) fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
    }

    /// Representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub(crate) fn find(&mut self, x: usize) -> usize {
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
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn singletons(n: usize) -> UnionFind {
        let mut uf = UnionFind::default();
        uf.reset(n);
        uf
    }

    fn connected(uf: &mut UnionFind, a: usize, b: usize) -> bool {
        uf.find(a) == uf.find(b)
    }

    #[test]
    fn singletons_are_disjoint() {
        let mut uf = singletons(3);
        assert!((0..3).all(|x| uf.find(x) == x));
    }

    #[test]
    fn union_merges_and_reports() {
        let mut uf = singletons(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0)); // already merged
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert!((1..4).all(|x| connected(&mut uf, 0, x)));
    }

    #[test]
    fn transitive_connectivity() {
        let mut uf = singletons(5);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(3, 4);
        assert!(connected(&mut uf, 0, 2));
        assert!(!connected(&mut uf, 2, 3));
    }

    #[test]
    fn long_chain_compresses() {
        let n = 1000;
        let mut uf = singletons(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert!(connected(&mut uf, 0, n - 1));
    }

    #[test]
    fn reset_starts_over() {
        let mut uf = singletons(3);
        uf.union(0, 2);
        uf.reset(2);
        assert!(!connected(&mut uf, 0, 1));
        uf.reset(0);
        assert!(uf.parent.is_empty() && uf.rank.is_empty());
    }
}
