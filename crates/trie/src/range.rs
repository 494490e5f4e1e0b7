//! The prefix table: longest-prefix match as one binary search over a
//! sorted range table.

use expanse_addr::{addr_to_u128, Prefix};
use std::net::Ipv6Addr;

/// "No prefix covers this range" in [`RangeTable::slots`], and "no
/// entry encloses this one" in [`RangeTable::parents`].
const UNCOVERED: u32 = u32::MAX;

/// An immutable map from IPv6 prefixes to values with longest-prefix
/// match.
///
/// Stored prefixes cut the address space into maximal ranges over which
/// the longest match does not change; the table keeps the first address
/// of each range, sorted, next to the entry that range resolves to. A
/// lookup is one binary search over that array — no pointer chase, no
/// data-dependent branch — which is what a table built once and read on
/// every probe wants. `n` prefixes make at most `2n + 1` ranges.
///
/// The search does not start from the whole array: a directory cuts the
/// span the ranges occupy into about twice as many equal buckets as
/// there are ranges and records, per bucket, the ranges a key in it can
/// fall in. A lookup indexes the directory with the key's high bits and
/// searches only that window, so its dependent loads stay few even when
/// the table has thousands of ranges.
///
/// Build it with `collect()` from `(Prefix, V)` pairs; of a prefix given
/// twice, the later value stays. A set that changes is collected again.
#[derive(Debug, Clone)]
pub struct RangeTable<V> {
    /// First address of each range, ascending; `starts[0]` is `::`.
    starts: Vec<u128>,
    /// Per range, the index into `entries` of its longest match, or
    /// [`UNCOVERED`].
    slots: Vec<u32>,
    /// The stored prefixes in [`Prefix`] order (address order, covering
    /// before covered), with their values.
    entries: Vec<(Prefix, V)>,
    /// Per entry, the index of the entry that most closely encloses it,
    /// or [`UNCOVERED`]: following it from a longest match walks every
    /// stored prefix covering the address.
    parents: Vec<u32>,
    /// The directory's first address, `starts[1]`: every key below it is
    /// in range 0.
    base: u128,
    /// Bucket `b` covers the keys `base + (b << shift)` up to the next
    /// bucket's first.
    shift: u32,
    /// Per bucket, the range holding its first address; one more entry
    /// past the last bucket closes its window, and another holds keys
    /// past every bucket (both the last range).
    dir: Vec<u32>,
}

impl<V> RangeTable<V> {
    /// The table over `starts` (ascending, `starts[0] == 0`) and the
    /// parallel `slots` into `entries`, with its directory built.
    fn assemble(
        starts: Vec<u128>,
        slots: Vec<u32>,
        entries: Vec<(Prefix, V)>,
        parents: Vec<u32>,
    ) -> Self {
        let last = starts.len() - 1;
        let Some(&base) = starts.get(1) else {
            // One range: every key is in it.
            return RangeTable {
                starts,
                slots,
                entries,
                parents,
                base: u128::MAX,
                shift: 0,
                dir: vec![0; 3],
            };
        };
        // About two buckets per range over `[base, starts[last]]`.
        let span_bits = 128 - (starts[last] - base).leading_zeros();
        let dir_bits = (usize::BITS - starts.len().leading_zeros()).min(20);
        let shift = span_bits.saturating_sub(dir_bits);
        let buckets = ((starts[last] - base) >> shift) as usize + 1;
        let mut dir: Vec<u32> = (0..buckets)
            .map(|b| {
                let first = base + ((b as u128) << shift);
                (starts.partition_point(|&s| s <= first) - 1) as u32
            })
            .collect();
        dir.extend([last as u32; 2]);
        RangeTable {
            starts,
            slots,
            entries,
            parents,
            base,
            shift,
            dir,
        }
    }

    /// The entry index of `addr`'s longest match, or [`UNCOVERED`].
    #[inline]
    fn slot(&self, addr: Ipv6Addr) -> u32 {
        let key = addr_to_u128(addr);
        // The window of ranges `key` can be in: from the one holding its
        // bucket's first address to the one holding the next bucket's.
        let (mut range, mut len) = if key < self.base {
            (0, 1)
        } else {
            let last = self.dir.len() - 2;
            let b = ((key - self.base) >> self.shift).min(last as u128) as usize;
            let lo = self.dir[b] as usize;
            (lo, self.dir[b + 1] as usize - lo + 1)
        };
        // The last start in the window at or below `key` (the first one
        // is), halving a window whose size does not depend on `key`: the
        // loop has no data-dependent branch to mispredict.
        while len > 1 {
            let half = len / 2;
            if self.starts[range + half] <= key {
                range += half;
            }
            len -= half;
        }
        self.slots[range]
    }

    /// Longest-prefix match: the most specific stored prefix covering
    /// `addr`, with its value.
    #[inline]
    pub fn longest_match(&self, addr: Ipv6Addr) -> Option<(Prefix, &V)> {
        let (p, v) = self.entries.get(self.slot(addr) as usize)?;
        Some((*p, v))
    }

    /// Every stored prefix covering `addr`, longest first.
    pub fn covering(&self, addr: Ipv6Addr) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        let mut at = self.slot(addr);
        std::iter::from_fn(move || {
            let (p, v) = self.entries.get(at as usize)?;
            at = self.parents[at as usize];
            Some((*p, v))
        })
    }

    /// Exact match: the value stored at `prefix`.
    pub fn get(&self, prefix: Prefix) -> Option<&V> {
        let at = self.entries.binary_search_by_key(&prefix, |&(p, _)| p);
        Some(&self.entries[at.ok()?].1)
    }

    /// The stored prefixes with their values, in [`Prefix`] order:
    /// address order, covering prefixes before their more-specifics.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix, &V)> + '_ {
        self.entries.iter().map(|(p, v)| (*p, v))
    }
}

impl<V> FromIterator<(Prefix, V)> for RangeTable<V> {
    /// The table of `pairs`; of a prefix given more than once, the last
    /// value stays.
    fn from_iter<I: IntoIterator<Item = (Prefix, V)>>(pairs: I) -> Self {
        let mut entries: Vec<(Prefix, V)> = pairs.into_iter().collect();
        // A stable sort keeps a repeated prefix's values in input order;
        // `dedup_by` keeps the first of each run, so every later value
        // moves into it.
        entries.sort_by_key(|&(p, _)| p);
        entries.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        assert!(
            u32::try_from(entries.len()).is_ok_and(|n| n < UNCOVERED),
            "RangeTable beyond u32 entries"
        );
        // Sweep the prefixes in order with a stack of the open ones:
        // each push starts a range, each pop resumes the enclosing
        // prefix's, and the top of the stack is what encloses a push.
        let mut cuts: Vec<(u128, u32)> = vec![(0, UNCOVERED)];
        let mut open: Vec<(u128, u32)> = Vec::new();
        let mut parents: Vec<u32> = Vec::with_capacity(entries.len());
        let close_through = |open: &mut Vec<(u128, u32)>, cuts: &mut Vec<(u128, u32)>, f: u128| {
            while let Some(&(last, _)) = open.last() {
                if last >= f {
                    break;
                }
                open.pop();
                // `last < f <= u128::MAX`, so `last + 1` cannot overflow.
                let resumed = open.last().map_or(UNCOVERED, |&(_, slot)| slot);
                cuts.push((last + 1, resumed));
            }
        };
        for (i, (p, _)) in entries.iter().enumerate() {
            let first = p.bits();
            close_through(&mut open, &mut cuts, first);
            parents.push(open.last().map_or(UNCOVERED, |&(_, slot)| slot));
            cuts.push((first, i as u32));
            open.push((addr_to_u128(p.last()), i as u32));
        }
        close_through(&mut open, &mut cuts, u128::MAX);
        // A later cut at the same address overrides an earlier one, and
        // a cut that does not change the answer is no boundary.
        let mut starts: Vec<u128> = Vec::with_capacity(cuts.len());
        let mut slots: Vec<u32> = Vec::with_capacity(cuts.len());
        for (start, slot) in cuts {
            if starts.last() == Some(&start) {
                slots.pop();
                starts.pop();
            }
            if slots.last() != Some(&slot) {
                starts.push(start);
                slots.push(slot);
            }
        }
        RangeTable::assemble(starts, slots, entries, parents)
    }
}

impl<V> Default for RangeTable<V> {
    /// The table of no prefixes: one range, uncovered.
    fn default() -> Self {
        RangeTable::assemble(vec![0], vec![UNCOVERED], Vec::new(), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }
    fn a(s: &str) -> Ipv6Addr {
        s.parse().unwrap()
    }

    #[test]
    fn empty_table_matches_nothing() {
        let t: RangeTable<u8> = std::iter::empty().collect();
        assert!(t.entries.is_empty());
        assert_eq!(t.starts.len(), 1);
        assert!(t.longest_match(a("::")).is_none());
        assert!(t
            .longest_match(a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff"))
            .is_none());
        assert_eq!(t.covering(a("::1")).count(), 0);
    }

    #[test]
    fn nested_prefixes_resume_their_parent() {
        let t: RangeTable<&str> = [
            (p("2001:db8:407:1::/64"), "desk"),
            (p("2001:db8::/32"), "corp"),
            (p("2001:db8:407::/48"), "lab"),
        ]
        .into_iter()
        .collect();
        let hit = |s: &str| t.longest_match(a(s)).map(|(q, v)| (q.len(), *v));
        assert_eq!(hit("2001:db8::1"), Some((32, "corp")));
        assert_eq!(hit("2001:db8:407::1"), Some((48, "lab")));
        assert_eq!(hit("2001:db8:407:1::9"), Some((64, "desk")));
        assert_eq!(hit("2001:db8:407:2::"), Some((48, "lab")));
        assert_eq!(hit("2001:db8:408::"), Some((32, "corp")));
        assert_eq!(hit("2001:db9::"), None);
        // Uncovered, /32, /48, /64, /48 again, /32 again, uncovered.
        assert_eq!(t.starts.len(), 7);
        let chain: Vec<&str> = t
            .covering(a("2001:db8:407:1::9"))
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(chain, ["desk", "lab", "corp"]);
        assert_eq!(t.parents, [UNCOVERED, 0, 1]);
    }

    #[test]
    fn a_repeated_prefix_keeps_its_last_value() {
        let t: RangeTable<u8> = [
            (p("2001:db8::/32"), 1),
            (p("2001:db8::/48"), 5),
            (p("2001:db8::/32"), 2),
            (p("2001:db8::/32"), 3),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.get(p("2001:db8::/32")), Some(&3));
        assert_eq!(t.get(p("2001:db8::/48")), Some(&5));
        assert_eq!(t.get(p("2001:db8::/33")), None);
        assert_eq!(t.iter().count(), 2);
    }

    #[test]
    fn default_route_and_host_routes_at_the_edges() {
        let top = a("ffff:ffff:ffff:ffff:ffff:ffff:ffff:ffff");
        let t: RangeTable<u8> = [
            (Prefix::DEFAULT, 0),
            (Prefix::host(a("::")), 1),
            (Prefix::host(top), 2),
        ]
        .into_iter()
        .collect();
        assert_eq!(t.longest_match(a("::")).map(|(_, v)| *v), Some(1));
        assert_eq!(t.longest_match(a("::1")).map(|(_, v)| *v), Some(0));
        assert_eq!(t.longest_match(top).map(|(_, v)| *v), Some(2));
        assert_eq!(t.starts.len(), 3);
    }

    #[test]
    fn adjacent_prefixes_keep_their_boundary() {
        let t: RangeTable<u8> = [(p("2001:db8::/33"), 1), (p("2001:db8:8000::/33"), 2)]
            .into_iter()
            .collect();
        assert_eq!(
            t.longest_match(a("2001:db8:7fff::")).map(|(_, v)| *v),
            Some(1)
        );
        assert_eq!(
            t.longest_match(a("2001:db8:8000::")).map(|(_, v)| *v),
            Some(2)
        );
        assert_eq!(t.starts.len(), 4);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The table keeps every distinct prefix, and `n` prefixes cut
        /// the space into at most `2n + 1` ranges.
        #[test]
        fn keeps_every_prefix_in_at_most_2n_plus_1_ranges(
            raw in proptest::collection::vec((proptest::prelude::any::<u128>(), 0u8..=128), 0..40),
        ) {
            let t: RangeTable<()> = raw.iter().map(|&(b, l)| (Prefix::from_bits(b, l), ())).collect();
            let n = raw.iter().map(|&(b, l)| Prefix::from_bits(b, l)).collect::<std::collections::BTreeSet<_>>().len();
            proptest::prop_assert_eq!(t.entries.len(), n);
            proptest::prop_assert!(t.starts.len() <= 2 * n + 1);
        }
    }
}
