//! [`SnapshotView`]: one immutable, shareable view of a published day.
//!
//! A view is a *copy* of the pipeline's queryable state — the interned
//! address column plus every responsiveness/provenance column, the
//! aliased-prefix classification, and two derived indexes (the
//! sorted-by-address permutation and the alias LPM trie). Copying is
//! deliberate: the pipeline keeps mutating tomorrow's state while
//! readers hold today's view, and an immutable snapshot needs no locks
//! on the query path. Views are published through
//! [`crate::SnapshotRegistry`] and shared as `Arc<SnapshotView>`.

use expanse_addr::{AddrId, AddrSet, AddrTable, Prefix, SortedView};
use expanse_apd::ApdConfig;
use expanse_core::{
    Hitlist, JournalReplay, PersistedState, Pipeline, SchedStatus, Scheduler, SourceMask,
};
use expanse_packet::{ProtoSet, Protocol};
use expanse_trie::PrefixTrie;
use std::io::Read;
use std::net::Ipv6Addr;

/// Everything a point lookup reports about one hitlist member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddrRecord {
    /// The member's stable id in the view's table.
    pub id: AddrId,
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
    /// [`Protocol::ALL`] order.
    pub per_protocol: [u64; 5],
}

/// One immutable published view. See the [module](self) docs.
#[derive(Debug, Clone)]
pub struct SnapshotView {
    /// Completed probing days (the pipeline's day counter at publish).
    day: u16,
    table: AddrTable,
    sorted: SortedView,
    sources: Vec<SourceMask>,
    last_responsive: Vec<u16>,
    protos: Vec<ProtoSet>,
    added_day: Vec<u16>,
    alive: Vec<bool>,
    live: AddrSet,
    aliased: Vec<Prefix>,
    alias_trie: PrefixTrie<()>,
    sched: Scheduler,
}

impl SnapshotView {
    /// Build a view of a live pipeline's current state — the publish
    /// hook, called at day end after [`Pipeline::run_day`].
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
    /// the hitlist columns, index them (address-sorted permutation +
    /// alias LPM trie), and freeze. `aliased` must be sorted ascending
    /// (as [`expanse_apd::Apd::aliased_prefixes`] returns it).
    pub fn from_hitlist(day: u16, hitlist: &Hitlist, aliased: Vec<Prefix>) -> SnapshotView {
        debug_assert!(aliased.windows(2).all(|w| w[0] < w[1]));
        let cols = hitlist.columns();
        let table = cols.table.clone();
        // The sorted permutation's keys (the raw address bits) are
        // distinct, so the parallel sort is deterministic at every
        // thread count.
        let sorted = SortedView::build_par(&table, expanse_addr::worker_threads());
        let live = hitlist.live_set();
        let alias_trie = aliased.iter().map(|&p| (p, ())).collect();
        SnapshotView {
            day,
            table,
            sorted,
            sources: cols.sources.to_vec(),
            last_responsive: cols.last_responsive.to_vec(),
            protos: cols.protos.to_vec(),
            added_day: cols.added_day.to_vec(),
            alive: cols.alive.to_vec(),
            live,
            aliased,
            alias_trie,
            sched: Scheduler::new(),
        }
    }

    /// Attach the probe scheduler's persisted queue state, so
    /// [`SnapshotView::sched_status`] reports it. Both publish paths
    /// pass the same journaled state (live pipeline or
    /// [`PersistedState`]), which is what keeps the reported ranking
    /// identical across them.
    pub fn with_sched(mut self, sched: Scheduler) -> SnapshotView {
        self.sched = sched;
        self
    }

    /// The scheduler section of a status response: last plan's budget
    /// figures plus the top-`k` queue entries by canonical priority.
    /// Empty (zero budget, no entries) when the view was published
    /// without scheduler state.
    pub fn sched_status(&self, k: usize) -> SchedStatus {
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

    /// The live member set (sorted by id), for set algebra against
    /// query results.
    pub fn live_set(&self) -> &AddrSet {
        &self.live
    }

    /// The sorted-by-address permutation.
    pub fn sorted(&self) -> &SortedView {
        &self.sorted
    }

    /// The aliased prefixes the view was published with, ascending.
    pub fn aliased_prefixes(&self) -> &[Prefix] {
        &self.aliased
    }

    /// The most specific aliased prefix covering `addr`, if any —
    /// longest-prefix-match tagging over the published alias set.
    pub fn alias_covering(&self, addr: Ipv6Addr) -> Option<Prefix> {
        self.alias_trie.longest_match(addr).map(|(p, _)| p)
    }

    /// The full record behind an id issued by this view's table.
    ///
    /// # Panics
    /// Panics if `id` was not issued by this view's table.
    pub fn record(&self, id: AddrId) -> AddrRecord {
        let i = id.index();
        let addr = self.table.addr(id);
        let last = self.last_responsive[i];
        AddrRecord {
            id,
            addr,
            alive: self.alive[i],
            sources: self.sources[i],
            last_responsive: (last != Hitlist::NEVER_RESPONSIVE).then_some(last),
            protos: self.protos[i],
            added_day: self.added_day[i],
            aliased: self.alias_covering(addr),
        }
    }

    /// Point lookup: the record for `addr`, if it was ever a member
    /// (tombstoned rows report `alive: false`).
    pub fn lookup(&self, addr: Ipv6Addr) -> Option<AddrRecord> {
        self.table.lookup(addr).map(|id| self.record(id))
    }

    /// Aggregate statistics, scoped to `prefix` if given.
    pub fn stats(&self, prefix: Option<Prefix>) -> ViewStats {
        let mut s = ViewStats::default();
        let mut add = |view: &SnapshotView, id: AddrId| {
            let i = id.index();
            s.members += 1;
            if !view.alive[i] {
                return;
            }
            s.live += 1;
            if view.last_responsive[i] != Hitlist::NEVER_RESPONSIVE {
                s.responsive += 1;
            }
            if view.alias_covering(view.table.addr(id)).is_some() {
                s.aliased += 1;
            }
            for p in Protocol::ALL {
                if view.protos[i].contains(p) {
                    s.per_protocol[p.index()] += 1;
                }
            }
        };
        match prefix {
            Some(p) => {
                for &id in self.sorted.range(&self.table, p) {
                    add(self, id);
                }
            }
            None => {
                for id in (0..self.table.len()).map(AddrId::from_index) {
                    add(self, id);
                }
            }
        }
        s
    }

    // Column peeks used by the query planner (crate-private; the public
    // surface is `record`).
    pub(crate) fn is_alive(&self, id: AddrId) -> bool {
        self.alive[id.index()]
    }

    pub(crate) fn last_of(&self, id: AddrId) -> u16 {
        self.last_responsive[id.index()]
    }

    pub(crate) fn protos_of(&self, id: AddrId) -> ProtoSet {
        self.protos[id.index()]
    }
}
