//! Property tests: every query primitive (prefix, protocol filter,
//! freshness, alias scoping, sampling, pagination, counting, stats)
//! agrees with a brute-force oracle computed from the ground-truth
//! hitlist, and pagination cursors survive epoch swaps.

#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "outside the determinism boundary, like the crate under test"
)]

use expanse_addr::fanout::splitmix64;
use expanse_addr::{addr_to_u128, u128_to_addr, Prefix};
use expanse_core::Hitlist;
use expanse_model::SourceId;
use expanse_packet::{ProtoSet, Protocol};
use expanse_serve::{AliasScope, Query, SnapshotView, ViewStats};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// All generated addresses live under this /96-ish base so prefixes
/// regularly match.
const BASE: u128 = 0x2001_0db8_0000_0047u128 << 64;

/// One generated member: a clustered address plus responsiveness spec.
type MemberSpec = (u8, u8, u8, u8);

fn member_addr(hi: u8, lo: u8) -> Ipv6Addr {
    u128_to_addr(BASE | (u128::from(hi % 4) << 32) | u128::from(lo))
}

/// Build the ground-truth hitlist + alias list a spec describes.
///
/// Members marked responsive get days 3..=8; `do_expire` runs a
/// retention pass at day 9 with a 2-day window (cutoff 7), expiring
/// the stale and the never-responsive, and a later add revives some.
fn build_world(members: &[MemberSpec], do_expire: bool) -> (Hitlist, Vec<Prefix>) {
    let mut h = Hitlist::new();
    let addrs: Vec<Ipv6Addr> = members
        .iter()
        .map(|&(hi, lo, _, _)| member_addr(hi, lo))
        .collect();
    h.add_from(SourceId::Ct, &addrs, 0);
    for &(hi, lo, protos_raw, last_raw) in members {
        if last_raw % 4 != 0 {
            let day = 3 + u16::from(last_raw % 6); // 3..=8
            let protos = ProtoSet(protos_raw & ProtoSet::ALL.0);
            let protos = if protos.is_empty() {
                ProtoSet::ALL
            } else {
                protos
            };
            h.mark_responsive(member_addr(hi, lo), day, protos);
        }
    }
    if do_expire {
        h.expire_unresponsive(9, 2);
        // Revive a deterministic slice so tombstones and revivals
        // coexist.
        let revive: Vec<Ipv6Addr> = addrs.iter().copied().step_by(5).collect();
        h.add_from(SourceId::Fdns, &revive, 9);
    }
    // Alias a few prefixes derived from the population itself: whole
    // clusters (/96), runs that start and end inside an index word
    // (/120–/126 over the 256 addresses of a cluster), and — every
    // third one — a /123 around the same address, which nests under
    // the wide ones and over the narrow ones.
    let aliased: BTreeSet<Prefix> = members
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == 0)
        .flat_map(|(i, &(hi, lo, _, _))| {
            let len = [96, 120, 122, 124, 126][(i / 5) % 5];
            let nested = (i % 15 == 0).then_some(123);
            [Some(len), nested]
                .into_iter()
                .flatten()
                .map(move |len| Prefix::new(member_addr(hi, lo), len))
        })
        .collect();
    (h, aliased.into_iter().collect())
}

/// A random population (duplicate addresses and all), or — a quarter
/// of the time — the same specs spread over exactly 0, 63, 64, 65 or
/// 128 distinct addresses of one cluster: views that end on, just
/// before and just after an index-word boundary.
fn arb_members() -> impl Strategy<Value = Vec<MemberSpec>> {
    let spec = (0u8..4, any::<u8>(), any::<u8>(), any::<u8>());
    (0usize..20, proptest::collection::vec(spec, 1..120)).prop_map(|(edge, members)| {
        match [0usize, 63, 64, 65, 128].get(edge) {
            Some(&rows) => (0..rows)
                .map(|i| {
                    let (_, _, protos_raw, last_raw) = members[i % members.len()];
                    (0, i as u8, protos_raw, last_raw)
                })
                .collect(),
            None => members,
        }
    })
}

/// Brute-force oracle: scan every row of the ground-truth hitlist.
fn oracle(h: &Hitlist, aliased: &[Prefix], q: &Query) -> Vec<Ipv6Addr> {
    let mut out: Vec<Ipv6Addr> = h
        .table()
        .iter()
        .map(|(_, a)| a)
        .filter(|&a| h.id_of(a).is_some()) // live rows only
        .filter(|&a| q.prefix.is_none_or(|p| p.contains(a)))
        .filter(|&a| match q.min_last_responsive {
            None => true,
            Some(min) => h.last_responsive(a).is_some_and(|d| d >= min),
        })
        .filter(|&a| q.protocols.is_empty() || !q.protocols.intersect(h.protos_of(a)).is_empty())
        .filter(|&a| {
            let covered = aliased.iter().any(|p| p.contains(a));
            match q.alias {
                AliasScope::Any => true,
                AliasScope::NonAliased => !covered,
                AliasScope::Aliased => covered,
            }
        })
        .collect();
    out.sort_unstable_by_key(|&a| addr_to_u128(a));
    out
}

/// The row-walk statistics oracle: every row of the ground-truth
/// hitlist, tombstoned ones included, one at a time.
fn stats_oracle(h: &Hitlist, aliased: &[Prefix], prefix: Option<Prefix>) -> ViewStats {
    let mut s = ViewStats::default();
    for (_, a) in h.table().iter() {
        if prefix.is_some_and(|p| !p.contains(a)) {
            continue;
        }
        s.members += 1;
        if h.id_of(a).is_none() {
            continue;
        }
        s.live += 1;
        s.responsive += u64::from(h.last_responsive(a).is_some());
        s.aliased += u64::from(aliased.iter().any(|p| p.contains(a)));
        for p in Protocol::ALL {
            s.per_protocol[p.index()] += u64::from(h.protos_of(a).contains(p));
        }
    }
    s
}

/// The sampling contract, as the dense algorithm that defined it: a
/// partial Fisher–Yates over the address-ordered match list, driven by
/// a splitmix64 stream keyed by the seed and the pick's position.
fn reference_sample(matches: &[Ipv6Addr], k: usize, seed: u64) -> Vec<Ipv6Addr> {
    if matches.len() <= k {
        return matches.to_vec();
    }
    let mut idx: Vec<u32> = (0..matches.len() as u32).collect();
    for i in 0..k {
        let r = splitmix64(seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let j = i + (r as usize % (idx.len() - i));
        idx.swap(i, j);
    }
    let mut picked: Vec<Ipv6Addr> = idx[..k].iter().map(|&i| matches[i as usize]).collect();
    picked.sort_unstable();
    picked
}

fn build_query(members: &[MemberSpec], spec: (u8, u8, u8, u8, u8)) -> Query {
    let (qsel, plen, protos_raw, minlast_raw, alias_raw) = spec;
    let mut q = Query::all();
    if qsel % 11 == 10 {
        // A cluster nobody lives in: an empty candidate range.
        q = q.under(Prefix::new(u128_to_addr(BASE | (7 << 32)), 96));
    } else if qsel % 3 != 0 && !members.is_empty() {
        let (hi, lo, _, _) = members[usize::from(qsel) % members.len()];
        // Lengths from /0 to /128, biased into the populated range;
        // /120 and /124 cut a cluster's 256 addresses mid-word.
        let len = match plen % 6 {
            0 => 96,
            1 => 112,
            2 => u8::min(plen, 128),
            3 => 128,
            4 => 120,
            _ => 124,
        };
        q = q.under(Prefix::new(member_addr(hi, lo), len));
    }
    q.protocols = ProtoSet(protos_raw & ProtoSet::ALL.0);
    if minlast_raw % 3 != 0 {
        q.min_last_responsive = Some(u16::from(minlast_raw % 10));
    }
    q.alias = match alias_raw % 3 {
        0 => AliasScope::NonAliased,
        1 => AliasScope::Aliased,
        _ => AliasScope::Any,
    };
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// stats / pagination / sampling all agree
    /// with the brute-force oracle over the same view.
    #[test]
    fn query_engine_matches_oracle(
        members in arb_members(),
        do_expire in any::<bool>(),
        qspec in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        limit in 1usize..16,
        k in 0usize..40,
        seed in any::<u64>(),
    ) {
        let (h, aliased) = build_world(&members, do_expire);
        let view = SnapshotView::from_hitlist(10, &h, aliased.clone());
        let q = build_query(&members, qspec);
        let expect = oracle(&h, &aliased, &q);

        // One unbounded page is the whole walk: same members, same
        // (address) order, no cursor.
        let whole = view.page(&q, None, usize::MAX);
        prop_assert_eq!(&whole.addrs, &expect);
        prop_assert_eq!(whole.next, None);

        // stats: popcounts agree with a row walk, scoped and unscoped.
        prop_assert_eq!(view.stats(None), stats_oracle(&h, &aliased, None));
        prop_assert_eq!(view.stats(q.prefix), stats_oracle(&h, &aliased, q.prefix));

        // Pagination: concatenating pages reproduces the full walk,
        // no page exceeds the limit, and the final page has no cursor.
        let mut paged = Vec::new();
        let mut cursor = None;
        loop {
            let page = view.page(&q, cursor, limit);
            prop_assert!(page.addrs.len() <= limit);
            paged.extend_from_slice(&page.addrs);
            match page.next {
                Some(c) => {
                    // The cursor is the last address returned so far.
                    prop_assert_eq!(Some(c), paged.last().map(|&a| addr_to_u128(a)));
                    cursor = Some(c);
                }
                None => break,
            }
        }
        prop_assert_eq!(&paged, &expect);

        // Sampling: deterministic, within the match set, right size.
        let s1 = view.sample(&q, k, seed);
        let s2 = view.sample(&q, k, seed);
        prop_assert_eq!(&s1, &s2, "same seed must resample identically");
        prop_assert_eq!(s1.len(), k.min(expect.len()));
        let universe: BTreeSet<Ipv6Addr> = expect.iter().copied().collect();
        let distinct: BTreeSet<Ipv6Addr> = s1.iter().copied().collect();
        prop_assert_eq!(distinct.len(), s1.len(), "sample must not repeat members");
        for a in &s1 {
            prop_assert!(universe.contains(a), "sampled non-member {a}");
        }
        // …and pick for pick the dense reference's sample.
        prop_assert_eq!(&s1, &reference_sample(&expect, k, seed));

        // A view rebuilt from the same ground truth samples and pages
        // identically (replica determinism).
        let replica = SnapshotView::from_hitlist(10, &h, aliased.clone());
        prop_assert_eq!(replica.sample(&q, k, seed), s1);
        prop_assert_eq!(replica.page(&q, None, limit), view.page(&q, None, limit));
    }

    /// Cursors are address-based, not view-internal: a cursor minted on
    /// epoch N's view remains exact on epoch N+1's view — the swapped
    /// walk continues at the right place with the *new* epoch's
    /// contents.
    #[test]
    fn pagination_cursors_survive_epoch_swaps(
        members in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>(), any::<u8>()), 1..100),
        extra in proptest::collection::vec((0u8..4, any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
        qspec in (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
        limit in 1usize..12,
    ) {
        let (h1, aliased1) = build_world(&members, false);
        let view1 = SnapshotView::from_hitlist(10, &h1, aliased1.clone());

        // Epoch N+1: same world plus a day of growth and fresh marks.
        let mut grown: Vec<MemberSpec> = members.clone();
        grown.extend_from_slice(&extra);
        let (h2, aliased2) = build_world(&grown, true);
        let view2 = SnapshotView::from_hitlist(11, &h2, aliased2.clone());

        let q = build_query(&members, qspec);
        let first = view1.page(&q, None, limit);
        if let Some(c) = first.next {
            let continued = view2.page(&q, Some(c), limit);
            // Oracle: epoch N+1 matches strictly after the cursor.
            let after: Vec<Ipv6Addr> = oracle(&h2, &aliased2, &q)
                .into_iter()
                .filter(|&a| addr_to_u128(a) > c)
                .take(limit)
                .collect();
            prop_assert_eq!(continued.addrs, after);
        }
        // And on the *same* view, a swap-free continuation is exact.
        if let Some(c) = first.next {
            let c2 = view1.page(&q, Some(c), limit);
            let full = oracle(&h1, &aliased1, &q);
            prop_assert_eq!(
                c2.addrs.as_slice(),
                &full[first.addrs.len()..(first.addrs.len() + c2.addrs.len())]
            );
        }
    }
}
