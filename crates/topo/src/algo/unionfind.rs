//! Disjoint-set (union-find) with path compression and union by rank.

/// A classic disjoint-set forest over `0..n`.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Reset to `n` singleton sets, reusing the allocations.
    pub(crate) fn reset(&mut self, n: usize) {
        self.parent.clear();
        self.parent.extend(0..n);
        self.rank.clear();
        self.rank.resize(n, 0);
        self.components = n;
    }

    /// Number of disjoint components remaining.
    pub fn components(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (with path compression).
    pub(crate) fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Compress the path.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `x` and `y`. Returns `true` if a merge
    /// happened (`false` if already in the same set).
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        self.components -= 1;
        match self.rank[rx].cmp(&self.rank[ry]) {
            std::cmp::Ordering::Less => self.parent[rx] = ry,
            std::cmp::Ordering::Greater => self.parent[ry] = rx,
            std::cmp::Ordering::Equal => {
                self.parent[ry] = rx;
                self.rank[rx] += 1;
            }
        }
        true
    }

    /// Whether `x` and `y` are in the same set.
    pub fn connected(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.components(), 5);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn union_reduces_components() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.components(), 2);
        assert!(uf.union(1, 2));
        assert_eq!(uf.components(), 1);
        assert!(uf.connected(0, 3));
    }

    #[test]
    fn union_of_same_set_is_noop() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        assert!(!uf.union(1, 0));
        assert_eq!(uf.components(), 2);
    }

    #[test]
    fn transitivity_holds_over_chains() {
        let mut uf = UnionFind::new(100);
        for i in 0..99 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.components(), 1);
        assert!(uf.connected(0, 99));
    }

    #[test]
    fn reset_restores_singletons() {
        let mut uf = UnionFind::new(4);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.reset(6);
        assert_eq!(uf.components(), 6);
        assert!(!uf.connected(0, 1));
        assert!(uf.union(4, 5));
    }
}
