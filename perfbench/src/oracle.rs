//! The benchmark's own answer key: an exact multiset of a column's live
//! rows, kept outside the program under test.
//!
//! Every paper data file holds integers in `[0, 2^p - 1]`, and every
//! query the benchmark sends has half-integer endpoints, so a Fenwick
//! tree of per-value counts answers "how many live rows fall in
//! `[a, b]`" exactly in `O(p)`, and absorbs inserts and deletes in
//! `O(p)` too.

use selest_core::RangeQuery;

/// Exact live-row counts of one integer-valued column.
#[derive(Clone)]
pub struct LiveRows {
    tree: Vec<u32>,
    live: u64,
}

impl LiveRows {
    /// Counts over the domain `[0, len - 1]`, seeded with `values`.
    pub fn new(len: usize, values: &[f64]) -> Self {
        let mut tree = vec![0u32; len];
        for &v in values {
            tree[slot(v, len)] += 1;
        }
        // In-place Fenwick construction: push each node's sum to its parent.
        for i in 0..len {
            let parent = i | (i + 1);
            if parent < len {
                tree[parent] += tree[i];
            }
        }
        LiveRows {
            tree,
            live: values.len() as u64,
        }
    }

    /// Make this the same multiset as `other` (same domain), reusing the
    /// allocation.
    pub fn reset_to(&mut self, other: &LiveRows) {
        self.tree.copy_from_slice(&other.tree);
        self.live = other.live;
    }

    fn add(&mut self, v: f64, delta: i64) {
        let mut i = slot(v, self.tree.len());
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i64 + delta) as u32;
            i |= i + 1;
        }
    }

    /// Rows with value `<= v` (integer `v`); 0 below the domain.
    fn prefix(&self, v: i64) -> u64 {
        if v < 0 {
            return 0;
        }
        let mut i = (v as usize).min(self.tree.len() - 1) as i64;
        let mut sum = 0u64;
        while i >= 0 {
            sum += self.tree[i as usize] as u64;
            i = (i & (i + 1)) - 1;
        }
        sum
    }

    /// Add one row.
    pub fn insert(&mut self, v: f64) {
        self.add(v, 1);
        self.live += 1;
    }

    /// Remove one row; panics if no live row has that value, since the
    /// workload only deletes rows it knows to be live.
    pub fn delete(&mut self, v: f64) {
        let k = v as i64;
        assert!(
            self.prefix(k) > self.prefix(k - 1),
            "delete of {v}, which is not a live row"
        );
        self.add(v, -1);
        self.live -= 1;
    }

    /// Exact count of live rows in `[a, b]`.
    pub fn count(&self, q: &RangeQuery) -> u64 {
        let lo = q.a().ceil() as i64;
        let hi = q.b().floor() as i64;
        if hi < lo {
            return 0;
        }
        self.prefix(hi) - self.prefix(lo - 1)
    }

    /// Exact selectivity of `q` over the live rows.
    pub fn selectivity(&self, q: &RangeQuery) -> f64 {
        self.count(q) as f64 / self.live.max(1) as f64
    }
}

fn slot(v: f64, len: usize) -> usize {
    assert!(
        v >= 0.0 && v == v.round() && (v as usize) < len,
        "value {v} is not an integer in [0, {len})"
    );
    v as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_a_scan() {
        let values: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let mut live = LiveRows::new(128, &values);
        let mut rows = values.clone();
        live.insert(7.0);
        rows.push(7.0);
        live.delete(values[3]);
        let gone = rows.iter().position(|&v| v == values[3]).unwrap();
        rows.swap_remove(gone);
        for (a, b) in [
            (-0.5, 127.5),
            (6.5, 7.5),
            (10.5, 50.5),
            (99.5, 200.5),
            (3.5, 2.5),
        ] {
            let q = RangeQuery::unchecked(a, b);
            let scan = rows.iter().filter(|&&v| v >= a && v <= b).count() as u64;
            assert_eq!(live.count(&q), scan, "[{a}, {b}]");
        }
        assert_eq!(live.live, rows.len() as u64);
        let mut copy = LiveRows::new(128, &[]);
        copy.reset_to(&live);
        let all = RangeQuery::unchecked(-0.5, 127.5);
        assert_eq!(copy.count(&all), live.count(&all));
    }
}
