//! §7 experiments: learning new addresses (Table 7 + Fig 9).

use crate::ctx::{header, pct, Ctx};
use expanse_packet::{ProtoSet, Protocol};
use expanse_stats::{ConcentrationCurve, Counter};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;

/// Run the full §7 methodology once; render either the Table 7 view
/// (protocol combinations) or the Fig 9 view (AS/prefix distributions).
pub(crate) fn table7_fig9(ctx: &mut Ctx, fig9: bool) -> String {
    let mut out = if fig9 {
        header(
            "Fig 9: prefix/AS distribution of responsive generated addresses",
            "Fig 9 + §7.2/7.3",
        )
    } else {
        header(
            "Table 7: top responsive protocol combinations, 6Gen vs Entropy/IP",
            "Table 7",
        )
    };

    // §7.1: seeds = non-aliased addresses, split by AS, ≥100 addrs/AS,
    // capped random sample per AS.
    let addrs = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    p.warmup_apd(2);
    let filter = p.apd.filter();
    let (kept, _) = filter.split(&addrs);
    let model = p.model_ref();
    let mut by_as: BTreeMap<u32, Vec<Ipv6Addr>> = BTreeMap::new();
    for a in &kept {
        if let Some((_, asn)) = model.route(*a) {
            by_as.entry(asn.0).or_default().push(*a);
        }
    }
    let min_per_as = 100;
    let mut eligible: Vec<(u32, Vec<Ipv6Addr>)> = by_as
        .into_iter()
        .filter(|(_, v)| v.len() >= min_per_as)
        .collect();
    eligible.sort_by_key(|(asn, v)| (usize::MAX - v.len(), *asn));
    eligible.truncate(24); // budget: top ASes by seed count
    out.push_str(&format!(
        "eligible ASes (≥{min_per_as} non-aliased seeds): {}\n",
        eligible.len()
    ));

    let per_as_budget = 4_000usize;
    let mut eip_targets: Vec<Ipv6Addr> = Vec::new();
    let mut six_targets: Vec<Ipv6Addr> = Vec::new();
    let seed_set: BTreeSet<Ipv6Addr> = kept.iter().copied().collect();
    for (_asn, seeds) in &eligible {
        let capped: Vec<Ipv6Addr> = seeds.iter().copied().take(2_000).collect();
        let eip_model = expanse_eip::train(&capped);
        eip_targets.extend(
            eip_model
                .generate(per_as_budget)
                .into_iter()
                .filter(|a| !seed_set.contains(a)),
        );
        let regions = expanse_sixgen::grow_regions(&capped);
        six_targets.extend(
            expanse_sixgen::generate(&regions, per_as_budget)
                .into_iter()
                .filter(|a| !seed_set.contains(a)),
        );
    }
    eip_targets.sort();
    eip_targets.dedup();
    six_targets.sort();
    six_targets.dedup();
    let eip_set: BTreeSet<Ipv6Addr> = eip_targets.iter().copied().collect();
    let gen_overlap = six_targets.iter().filter(|a| eip_set.contains(a)).count();
    out.push_str(&format!(
        "generated (new, routab.): Entropy/IP {}, 6Gen {}, overlap {} ({}; paper 0.2%)\n\n",
        eip_targets.len(),
        six_targets.len(),
        gen_overlap,
        pct(gen_overlap as f64 / (eip_targets.len() + six_targets.len()).max(1) as f64)
    ));

    // §7.3: probe both sets on all five protocols.
    let battery = expanse_zmap6::standard_battery();
    let eip_multi = p.scanner.scan_battery(&eip_targets, &battery);
    let six_multi = p.scanner.scan_battery(&six_targets, &battery);

    let eip_resp = &eip_multi.responsive;
    let six_resp = &six_multi.responsive;
    out.push_str(&format!(
        "responsive: Entropy/IP {} ({}), 6Gen {} ({})   (paper: 278k vs 489k, 0.3% overall)\n",
        eip_resp.len(),
        pct(eip_resp.len() as f64 / eip_targets.len().max(1) as f64),
        six_resp.len(),
        pct(six_resp.len() as f64 / six_targets.len().max(1) as f64),
    ));
    let resp_overlap = six_resp.keys().filter(|a| eip_resp.contains(*a)).count();
    out.push_str(&format!(
        "responsive overlap: {resp_overlap} (paper: 17k of 785k, higher hit rate on overlap)\n\n",
    ));

    if !fig9 {
        // Table 7: top-5 protocol combinations per tool.
        let combos = |resp: &expanse_addr::AddrMap<ProtoSet>| -> Counter<u8> {
            resp.values().map(|s| s.0).collect()
        };
        let ec = combos(eip_resp);
        let sc = combos(six_resp);
        let mut all_keys: Vec<u8> = ec
            .iter()
            .map(|(k, _)| *k)
            .chain(sc.iter().map(|(k, _)| *k))
            .collect();
        all_keys.sort();
        all_keys.dedup();
        all_keys.sort_by_key(|k| std::cmp::Reverse(ec.get(k) + sc.get(k)));
        out.push_str(&format!(
            "{:<28} {:>8} {:>11}\n",
            "protocols", "6Gen", "Entropy/IP"
        ));
        for k in all_keys.iter().take(5) {
            let set = ProtoSet(*k);
            out.push_str(&format!(
                "{:<28} {:>8} {:>11}\n",
                set.to_string(),
                pct(sc.get(k) as f64 / sc.total().max(1) as f64),
                pct(ec.get(k) as f64 / ec.total().max(1) as f64),
            ));
        }
        out.push_str(
            "\n(paper's top row: ICMP-only — 66.8% of 6Gen vs 41.1% of Entropy/IP;\n\
             Entropy/IP responders are ~3x more likely to be DNS servers)\n",
        );
        let dns_share = |resp: &expanse_addr::AddrMap<ProtoSet>| {
            resp.values()
                .filter(|s| s.contains(Protocol::Udp53))
                .count() as f64
                / resp.len().max(1) as f64
        };
        out.push_str(&format!(
            "DNS share: Entropy/IP {} vs 6Gen {}\n",
            pct(dns_share(eip_resp)),
            pct(dns_share(six_resp))
        ));
    } else {
        // Fig 9: concentration curves over ASes and prefixes.
        let model = p.model_ref();
        let xs = [1usize, 2, 5, 10, 20, 50];
        out.push_str(&format!("{:<18}", "tool [group]"));
        for x in xs {
            out.push_str(&format!(" top{x:>4}"));
        }
        out.push('\n');
        let mut as_sets: BTreeMap<&str, BTreeSet<u32>> = BTreeMap::new();
        for (name, resp) in [("Entropy/IP", eip_resp), ("6Gen", six_resp)] {
            let mut by_as: Counter<u32> = Counter::new();
            let mut by_pfx: Counter<(u128, u8)> = Counter::new();
            for a in resp.keys() {
                if let Some((px, asn)) = model.route(a) {
                    by_as.push(asn.0);
                    by_pfx.push((px.bits(), px.len()));
                    as_sets.entry(name).or_default().insert(asn.0);
                }
            }
            for (group, curve) in [
                ("AS", ConcentrationCurve::from_counts(by_as.counts())),
                ("prefix", ConcentrationCurve::from_counts(by_pfx.counts())),
            ] {
                out.push_str(&format!("{:<18}", format!("{name} [{group}]")));
                for x in xs {
                    out.push_str(&format!(" {:>6}", pct(curve.fraction_in_top(x))));
                }
                out.push('\n');
            }
        }
        let e = as_sets.remove("Entropy/IP").unwrap_or_default();
        let s = as_sets.remove("6Gen").unwrap_or_default();
        let only_one = e.symmetric_difference(&s).count();
        out.push_str(&format!(
            "\nASes with responders found by exactly one tool: {only_one} \
             (paper: 384) — complementary coverage\n",
        ));
    }
    out
}
