//! [`SnapshotView`]: one immutable, shareable view of a published day.
//!
//! A view is a *copy* of the pipeline's queryable state — the interned
//! address column with the address order the table keeps, every
//! responsiveness/provenance column, and the day's aliased prefixes as
//! an [`AliasFilter`], the set the pipeline's alias split reads.
//! Copying is deliberate: the pipeline keeps mutating tomorrow's state
//! while readers hold today's view, and an immutable snapshot needs no
//! locks on the query path. Views are published through
//! [`crate::SnapshotRegistry`] and shared as `Arc<SnapshotView>`.
//!
//! A third index, the `PredicateIndex` the query engine evaluates
//! filters on, is derived from the same columns but only when the first
//! query asks for it: most published views (every day of a pipeline run
//! nobody queries, every replica that only answers point lookups) never
//! pay for it, and publishing costs what it did without it.

use expanse_addr::{AddrId, AddrSet, AddrTable, Prefix, SortedView};
use expanse_apd::{AliasFilter, ApdConfig};
use expanse_core::{
    Hitlist, JournalReplay, PersistedState, Pipeline, SchedStatus, Scheduler, SourceMask,
};
use expanse_packet::ProtoSet;
use std::io::Read;
use std::net::Ipv6Addr;
use std::ops::Range;
use std::sync::OnceLock;

/// Everything a point lookup reports about one hitlist member, as it
/// travels on the wire (addresses are the key; the view's internal ids
/// are not part of the public surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRecord {
    /// The address.
    pub addr: Ipv6Addr,
    /// Is the row live (not expired by retention)?
    pub alive: bool,
    /// Sources that contributed the address.
    pub sources: SourceMask,
    /// Last probing day the address answered, if ever.
    pub last_responsive: Option<u16>,
    /// Protocols answered on that last responsive day.
    pub protos: ProtoSet,
    /// Insertion (or last revival) day.
    pub added_day: u16,
    /// The most specific aliased prefix covering the address, if any.
    pub aliased: Option<Prefix>,
}

/// Aggregate statistics over a view, optionally scoped to a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Rows in scope, tombstoned ones included.
    pub members: u64,
    /// Live rows in scope.
    pub live: u64,
    /// Live rows that ever answered a probe.
    pub responsive: u64,
    /// Live rows covered by an aliased prefix.
    pub aliased: u64,
    /// Live rows whose last responsive day answered each protocol, in
    /// [`expanse_packet::Protocol::ALL`] order.
    pub per_protocol: [u64; 5],
}

/// Row predicates as bitsets over **sorted positions**: bit `i` of a
/// set speaks for the row at `sorted().as_slice()[i]`. A prefix bounds
/// a query to one contiguous position range, so a filter is the AND / OR
/// of the words in that range and a count is their popcount — no column
/// load and no alias LPM per row.
#[derive(Debug, Clone)]
pub(crate) struct PredicateIndex {
    /// The row is live.
    pub(crate) alive: Vec<u64>,
    /// The row is live and has answered a probe at some point.
    pub(crate) responsive: Vec<u64>,
    /// The row is live and its last responsive day answered the
    /// protocol, one set per [`expanse_packet::Protocol::index`].
    pub(crate) protos: [Vec<u64>; 5],
    /// The row (live or not) lies under an aliased prefix.
    pub(crate) aliased: Vec<u64>,
}

/// The index words that hold positions `span`.
pub(crate) fn words_of(span: &Range<usize>) -> Range<usize> {
    span.start / 64..span.end.div_ceil(64)
}

/// The bits of word `w` that lie inside `span`.
pub(crate) fn range_mask(w: usize, span: &Range<usize>) -> u64 {
    // Bits below position `n` of word `w`.
    let below = |n: usize| match n.saturating_sub(w * 64) {
        bits @ 0..64 => (1u64 << bits) - 1,
        _ => u64::MAX,
    };
    below(span.end) & !below(span.start)
}

impl PredicateIndex {
    fn build(view: &SnapshotView) -> PredicateIndex {
        let perm = view.sorted().as_slice();
        let empty = vec![0u64; perm.len().div_ceil(64)];
        let mut ix = PredicateIndex {
            alive: empty.clone(),
            responsive: empty.clone(),
            protos: std::array::from_fn(|_| empty.clone()),
            aliased: empty,
        };
        for (w, chunk) in perm.chunks(64).enumerate() {
            for (b, id) in chunk.iter().enumerate() {
                let i = id.index();
                if !view.alive[i] {
                    continue;
                }
                let bit = 1u64 << b;
                ix.alive[w] |= bit;
                if view.last_responsive[i] != Hitlist::NEVER_RESPONSIVE {
                    ix.responsive[w] |= bit;
                }
                for p in view.protos[i].iter() {
                    ix.protos[p.index()][w] |= bit;
                }
            }
        }
        // "Covered by some aliased prefix" is the union of the
        // outermost prefixes' runs of the sorted permutation: two
        // searches per prefix, not a longest-prefix match per row.
        for i in view.aliased.runs(&view.table, view.sorted()).flatten() {
            ix.aliased[i / 64] |= 1 << (i % 64);
        }
        ix
    }
}

/// One immutable published view. See the module docs.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    /// Completed probing days (the pipeline's day counter at publish).
    day: u16,
    table: AddrTable,
    sources: Vec<SourceMask>,
    last_responsive: Vec<u16>,
    protos: Vec<ProtoSet>,
    added_day: Vec<u16>,
    alive: Vec<bool>,
    /// Live rows at publish: the hitlist's count, so a `Ping` reads it
    /// instead of walking `alive`.
    live: u64,
    aliased: AliasFilter,
    /// Built by the first query that filters (see [`PredicateIndex`]).
    index: OnceLock<PredicateIndex>,
    sched: Scheduler,
}

impl SnapshotView {
    /// Build a view of a live pipeline's current state — what a caller
    /// publishes after each [`Pipeline::run_day`] returns.
    pub fn publish(p: &Pipeline) -> SnapshotView {
        SnapshotView::from_hitlist(p.day(), &p.hitlist, p.apd.aliased_prefixes())
            .with_sched(p.sched.clone())
    }

    /// Build a view from journaled state loaded by
    /// [`PersistedState::load`].
    pub fn from_state(st: &PersistedState) -> SnapshotView {
        SnapshotView::from_hitlist(st.day, &st.hitlist, st.apd.aliased_prefixes())
            .with_sched(st.sched.clone())
    }

    /// Load a view straight from a snapshot journal (base + deltas),
    /// **without** reconstructing the mutable pipeline or the
    /// `InternetModel`. Queries against the loaded view are
    /// byte-identical to queries against [`SnapshotView::publish`] of
    /// the pipeline that wrote the journal (the swap-consistency test
    /// pins this).
    pub fn load_journal<R: Read>(
        apd_cfg: ApdConfig,
        r: &mut R,
    ) -> Result<(SnapshotView, JournalReplay), expanse_addr::CodecError> {
        let (st, replay) = PersistedState::load(apd_cfg, r)?;
        Ok((SnapshotView::from_state(&st), replay))
    }

    /// The shared constructor both publish paths funnel through: copy
    /// the hitlist columns with the table's address order, index the
    /// aliased prefixes as an [`AliasFilter`], and freeze.
    pub fn from_hitlist(day: u16, hitlist: &Hitlist, aliased: Vec<Prefix>) -> SnapshotView {
        let cols = hitlist.columns();
        let mut table = cols.table.clone();
        table.merge_order();
        SnapshotView {
            day,
            table,
            sources: cols.sources.to_vec(),
            last_responsive: cols.last_responsive.to_vec(),
            protos: cols.protos.to_vec(),
            added_day: cols.added_day.to_vec(),
            alive: cols.alive.to_vec(),
            live: hitlist.len() as u64,
            aliased: AliasFilter::new(aliased),
            index: OnceLock::new(),
            sched: Scheduler::new(),
        }
    }

    /// Attach the probe scheduler's persisted queue state, so
    /// [`SnapshotView::sched_status`] reports it. Both publish paths
    /// pass the same journaled state (live pipeline or
    /// [`PersistedState`]), which is what keeps the reported ranking
    /// identical across them.
    pub(crate) fn with_sched(mut self, sched: Scheduler) -> SnapshotView {
        self.sched = sched;
        self
    }

    /// The scheduler section of a status response: last plan's budget
    /// figures plus the top-`k` queue entries by canonical priority.
    /// Empty (zero budget, no entries) when the view was published
    /// without scheduler state.
    pub(crate) fn sched_status(&self, k: usize) -> SchedStatus {
        self.sched.status(self.day, k)
    }

    /// Completed probing days when the view was published.
    pub fn days_complete(&self) -> u16 {
        self.day
    }

    /// Total rows (tombstoned included).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// The interner backing the view's ids.
    pub fn table(&self) -> &AddrTable {
        &self.table
    }

    /// How many rows are live (the hitlist's count at publish).
    pub(crate) fn live_count(&self) -> u64 {
        self.live
    }

    /// The live member set (sorted by id), built from the `alive`
    /// column on each call.
    pub fn live_set(&self) -> AddrSet {
        AddrSet::from_sorted(
            (0..self.alive.len())
                .filter(|&i| self.alive[i])
                .map(AddrId::from_index)
                .collect(),
        )
    }

    /// Every id in address order: the table's, merged at publish.
    pub fn sorted(&self) -> &SortedView {
        self.table.order()
    }

    /// Point lookup: the record for `addr`, if it was ever a member
    /// (tombstoned rows report `alive: false`).
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<AddrRecord> {
        let i = self.table.lookup(addr)?.index();
        let last = self.last_responsive[i];
        Some(AddrRecord {
            addr,
            alive: self.alive[i],
            sources: self.sources[i],
            last_responsive: (last != Hitlist::NEVER_RESPONSIVE).then_some(last),
            protos: self.protos[i],
            added_day: self.added_day[i],
            aliased: self.aliased.longest_match(addr),
        })
    }

    /// The predicate index, built on first use. Concurrent first
    /// callers block on one build; every later call is a load.
    pub(crate) fn index(&self) -> &PredicateIndex {
        self.index.get_or_init(|| PredicateIndex::build(self))
    }

    /// The one row-level column the query engine still reads: a
    /// freshness floor above day 0 is not a bitset.
    pub(crate) fn last_of(&self, id: AddrId) -> u16 {
        self.last_responsive[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use expanse_core::PipelineConfig;
    use expanse_model::{ModelConfig, SourceId};
    use std::sync::Barrier;

    impl SnapshotView {
        fn index_built(&self) -> bool {
            self.index.get().is_some()
        }
    }

    #[test]
    fn only_the_first_filtering_query_builds_the_index() {
        let mut cfg = PipelineConfig {
            trace_budget: 20,
            ..PipelineConfig::default()
        };
        cfg.plan.min_targets = 30;
        let mut p = Pipeline::new(ModelConfig::tiny(4047), cfg);
        p.collect_sources(30);
        let mut journal = Vec::new();
        p.save_full(&mut journal).expect("save base");
        let (st, _) =
            PersistedState::load(p.cfg.apd.clone(), &mut journal.as_slice()).expect("load");

        // Neither publish path, nor a copy, nor a point read pays for
        // the index.
        let published = SnapshotView::publish(&p);
        let loaded = SnapshotView::from_state(&st);
        let cloned = published.clone();
        let member = published.table().addr(AddrId::from_index(0));
        assert!(published.lookup(member).is_some());
        assert!(!published.live_set().is_empty());
        published.sched_status(4);
        for view in [&published, &loaded, &cloned] {
            assert!(!view.index_built());
        }

        // Each filtering read does, once.
        let q = Query::all().responsive();
        published.page(&q, None, 8);
        assert!(published.index_built());
        loaded.sample(&q, 8, 1);
        assert!(loaded.index_built());
        cloned.stats(None);
        assert!(cloned.index_built());
        assert_eq!(published.stats(None), cloned.stats(None));
        assert_eq!(published.stats(None), loaded.stats(None));
    }

    #[test]
    fn racing_first_queries_share_one_build() {
        let mut h = Hitlist::new();
        let addrs: Vec<Ipv6Addr> = (1..=5000u128).map(expanse_addr::u128_to_addr).collect();
        h.add_from(SourceId::Ct, &addrs, 0);
        let aliased = vec![Prefix::new(expanse_addr::u128_to_addr(0), 118)];
        let view = SnapshotView::from_hitlist(1, &h, aliased);
        let q = Query::all().non_aliased();
        let gate = Barrier::new(2);
        let first_query = || {
            gate.wait();
            let index: *const PredicateIndex = view.index();
            (
                index as usize,
                view.page(&q, Some(900), 64),
                view.stats(None),
            )
        };
        #[expect(
            clippy::disallowed_methods,
            reason = "two readers race for the lazy index build"
        )]
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(first_query);
            let b = s.spawn(first_query);
            (a.join().expect("reader a"), b.join().expect("reader b"))
        });
        assert_eq!(a, b, "both readers see the one index and answer alike");
        assert_eq!(a.2.aliased, 1023);
        assert_eq!(a.1.addrs[0], expanse_addr::u128_to_addr(1024));
    }
}
