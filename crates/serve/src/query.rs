//! The query engine: filters, pagination, and deterministic sampling
//! over a [`SnapshotView`].
//!
//! Every query resolves to an **address-ordered** candidate range — the
//! sorted permutation bounds prefix queries to one contiguous run of
//! positions — and the canonical result order is ascending address.
//! That order is what makes pagination cursors robust: a cursor is the
//! last returned address (not an index into any view-internal
//! structure), so it remains meaningful across epoch swaps and across
//! views rebuilt from a journal.
//!
//! Inside the range a query is evaluated 64 positions at a time on the
//! view's predicate bitsets (the private `Matcher`): a page walks set
//! bits and stops one past its limit, a count is a popcount, a sample
//! draws ranks and resolves only the drawn ones. The work is
//! proportional to the range's words plus the matches returned, not to
//! the rows a rare filter has to skip.

use crate::view::{range_mask, words_of, PredicateIndex, SnapshotView, ViewStats};
use expanse_addr::fanout::splitmix64;
use expanse_addr::{addr_to_u128, AddrId, Prefix};
use expanse_packet::{ProtoSet, Protocol};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;
use std::ops::Range;

/// How a query treats members covered by an aliased prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AliasScope {
    /// Only members *not* under any aliased prefix — the default, and
    /// what the published hitlist files contain.
    NonAliased,
    /// Only members under an aliased prefix (the complement view Rye &
    /// Levin showed consumers need to see to understand their bias).
    Aliased,
    /// No aliasing constraint.
    Any,
}

/// A declarative filter over a view's live members.
///
/// All constraints compose conjunctively. The empty query
/// ([`Query::all`]) selects every live member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Restrict to members under this prefix.
    pub prefix: Option<Prefix>,
    /// Require the member's last responsive day to have answered at
    /// least one of these protocols; [`ProtoSet::EMPTY`] means no
    /// protocol constraint.
    pub protocols: ProtoSet,
    /// Require `last_responsive ≥` this day (a freshness floor).
    /// `Some(0)` means "ever responsive".
    pub min_last_responsive: Option<u16>,
    /// Aliased-prefix scoping.
    pub alias: AliasScope,
}

impl Default for Query {
    fn default() -> Self {
        Query::all()
    }
}

impl Query {
    /// Every live member: no prefix, protocol, freshness, or aliasing
    /// constraint.
    pub fn all() -> Query {
        Query {
            prefix: None,
            protocols: ProtoSet::EMPTY,
            min_last_responsive: None,
            alias: AliasScope::Any,
        }
    }

    /// Restrict to members under `prefix`.
    pub fn under(mut self, prefix: Prefix) -> Query {
        self.prefix = Some(prefix);
        self
    }

    /// Require at least one of `protocols` on the last responsive day.
    pub fn on_protocols(mut self, protocols: ProtoSet) -> Query {
        self.protocols = protocols;
        self
    }

    /// Require the member to have answered a probe at all.
    pub fn responsive(mut self) -> Query {
        self.min_last_responsive = Some(0);
        self
    }

    /// Set the aliased-prefix scope.
    pub fn alias_scope(mut self, scope: AliasScope) -> Query {
        self.alias = scope;
        self
    }

    /// Exclude members under aliased prefixes (the published-hitlist
    /// default).
    pub fn non_aliased(self) -> Query {
        self.alias_scope(AliasScope::NonAliased)
    }
}

/// One page of an address-ordered result walk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// The page's addresses, ascending.
    pub addrs: Vec<Ipv6Addr>,
    /// Cursor for the next page — the last returned address's bits —
    /// or `None` when the walk is exhausted. Pass it back via
    /// [`SnapshotView::page`]; it stays valid across epoch swaps.
    pub next: Option<u128>,
}

/// The positions of the set bits of `word`, ascending.
fn ones(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// The position of the `n`-th set bit of `word`, which must have more
/// than `n` of them.
fn nth_one(mut word: u64, n: usize) -> usize {
    for _ in 0..n {
        word &= word - 1;
    }
    word.trailing_zeros() as usize
}

/// A query compiled against one view: which bitsets to combine over
/// which range of sorted positions. Every read path — `select`,
/// `count`, `page`, `sample`, `stats` — is a walk over
/// [`Matcher::word`].
struct Matcher<'a> {
    view: &'a SnapshotView,
    index: &'a PredicateIndex,
    /// The sorted positions the query's prefix (and a page's cursor)
    /// leave as candidates.
    span: Range<usize>,
    /// `responsive` under any freshness constraint, else `alive`.
    base: &'a [u64],
    protocols: ProtoSet,
    alias: AliasScope,
    /// A freshness floor above day 0: the one constraint that is not a
    /// bitset, checked per surviving row.
    floor: Option<u16>,
}

impl<'a> Matcher<'a> {
    fn new(view: &'a SnapshotView, q: &Query) -> Matcher<'a> {
        Matcher::over(view, q, view.span(q.prefix))
    }

    /// `q`'s row-level constraints over the candidate positions `span`
    /// (`q.prefix` is not consulted: the caller resolved it to `span`).
    fn over(view: &'a SnapshotView, q: &Query, span: Range<usize>) -> Matcher<'a> {
        let index = view.index();
        Matcher {
            view,
            index,
            span,
            base: match q.min_last_responsive {
                Some(_) => &index.responsive,
                None => &index.alive,
            },
            protocols: q.protocols,
            alias: q.alias,
            floor: q.min_last_responsive.filter(|&day| day > 0),
        }
    }

    /// The index words the span touches.
    fn words(&self) -> Range<usize> {
        words_of(&self.span)
    }

    /// The matches among positions `64 * w .. 64 * w + 64`, as a mask.
    fn word(&self, w: usize) -> u64 {
        let mut m = self.base[w] & range_mask(w, &self.span);
        if !self.protocols.is_empty() {
            m &= self
                .protocols
                .iter()
                .fold(0, |any, p| any | self.index.protos[p.index()][w]);
        }
        match self.alias {
            AliasScope::Any => {}
            AliasScope::NonAliased => m &= !self.index.aliased[w],
            AliasScope::Aliased => m &= self.index.aliased[w],
        }
        if let Some(floor) = self.floor {
            for bit in ones(m) {
                // A `responsive` row's last day is a real day, never
                // the never-responsive sentinel.
                if self.view.last_of(self.id_at(w * 64 + bit)) < floor {
                    m &= !(1 << bit);
                }
            }
        }
        m
    }

    fn id_at(&self, pos: usize) -> AddrId {
        self.view.sorted().as_slice()[pos]
    }

    fn addr_at(&self, pos: usize) -> Ipv6Addr {
        self.view.table().addr(self.id_at(pos))
    }

    /// Matching positions, ascending (lazily: a page stops early).
    fn positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.words()
            .flat_map(move |w| ones(self.word(w)).map(move |bit| w * 64 + bit))
    }

    fn count(&self) -> usize {
        self.words()
            .map(|w| self.word(w).count_ones() as usize)
            .sum()
    }
}

impl SnapshotView {
    /// The sorted positions `prefix` bounds (every position without
    /// one).
    fn span(&self, prefix: Option<Prefix>) -> Range<usize> {
        match prefix {
            Some(p) => self.sorted().positions(self.table(), p),
            None => 0..self.sorted().len(),
        }
    }

    /// Aggregate statistics, scoped to `prefix` if given.
    pub fn stats(&self, prefix: Option<Prefix>) -> ViewStats {
        let span = self.span(prefix);
        let count = |q: Query| Matcher::over(self, &q, span.clone()).count() as u64;
        ViewStats {
            members: span.len() as u64,
            live: count(Query::all()),
            responsive: count(Query::all().responsive()),
            aliased: count(Query::all().alias_scope(AliasScope::Aliased)),
            per_protocol: Protocol::ALL
                .map(|p| count(Query::all().on_protocols(ProtoSet::only(p)))),
        }
    }

    /// One page of matches strictly after `cursor` (exclusive), at most
    /// `limit` long. The first page passes `cursor: None`; subsequent
    /// pages pass the previous page's [`Page::next`]. Concatenating
    /// pages yields every match exactly once, in ascending address
    /// order, and `next: None` always means the walk is exhausted.
    ///
    /// `limit` is clamped to at least 1: a zero-limit page could never
    /// make progress, so its `next` could only either lie about
    /// exhaustion or send the caller into a loop. (The wire layer
    /// rejects `limit: 0` outright — see `docs/SERVE_PROTOCOL.md`.)
    pub fn page(&self, q: &Query, cursor: Option<u128>, limit: usize) -> Page {
        let limit = limit.max(1);
        let mut m = Matcher::new(self, q);
        // Skip everything at or before the cursor with one binary
        // search — the candidate positions are address-sorted.
        if let Some(c) = cursor {
            let cand = &self.sorted().as_slice()[m.span.clone()];
            m.span.start += cand.partition_point(|&id| self.table().bits(id) <= c);
        }
        let mut addrs = Vec::with_capacity(limit.min(1024));
        let mut next = None;
        for pos in m.positions() {
            if addrs.len() == limit {
                // One more match exists past the page: hand out a
                // cursor. (A full page with nothing behind it returns
                // `None`, so callers need no empty tail fetch.)
                next = addrs.last().map(|&a| addr_to_u128(a));
                break;
            }
            addrs.push(m.addr_at(pos));
        }
        Page { addrs, next }
    }

    /// A deterministic pseudo-random sample of at most `k` matches:
    /// the same `(view contents, k, seed)` always selects the same
    /// members, on any thread, on any replica that loaded the same
    /// journal. Returned in ascending address order.
    pub fn sample(&self, q: &Query, k: usize, seed: u64) -> Vec<Ipv6Addr> {
        let m = Matcher::new(self, q);
        // Matches before each index word of the span: a match's rank in
        // the address-ordered result resolves to its word by binary
        // search, to its bit by a walk of that one word.
        let mut before = Vec::with_capacity(m.words().len());
        let mut n = 0usize;
        for w in m.words() {
            before.push(n);
            n += m.word(w).count_ones() as usize;
        }
        if n <= k {
            return m.positions().map(|pos| m.addr_at(pos)).collect();
        }
        // Partial Fisher–Yates over the ranks `0..n`, driven by a
        // splitmix64 stream keyed only by the seed and position. Only
        // displaced ranks are stored: `moved[j]` is what a dense array
        // would hold at `j`, and slots below `i` are never read again.
        let mut moved: BTreeMap<usize, usize> = BTreeMap::new();
        let mut ranks: Vec<usize> = (0..k)
            .map(|i| {
                let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let j = i + (r as usize % (n - i));
                let at_i = moved.remove(&i).unwrap_or(i);
                if j == i {
                    at_i
                } else {
                    moved.insert(j, at_i).unwrap_or(j)
                }
            })
            .collect();
        // Rank order is address order.
        ranks.sort_unstable();
        ranks
            .into_iter()
            .map(|rank| {
                let slot = before.partition_point(|&b| b <= rank) - 1;
                let w = m.words().start + slot;
                m.addr_at(w * 64 + nth_one(m.word(w), rank - before[slot]))
            })
            .collect()
    }
}
