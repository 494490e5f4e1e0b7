//! §8 (rDNS) and §9 (crowdsourcing) experiments: Fig 10, Tables 8–9.

use crate::ctx::{header, pct, Ctx};
use expanse_model::crowd::{build_crowd, Platform};
use expanse_model::rdns::build_rdns;
use expanse_stats::{ConcentrationCurve, Counter};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

/// Fig 10 + Table 8: the rDNS data source.
pub(crate) fn fig10_table8(ctx: &mut Ctx, table8: bool) -> String {
    let mut out = if table8 {
        header("Table 8: top rDNS ASes in input / ICMP / TCP80", "Table 8")
    } else {
        header(
            "Fig 10: prefix/AS distribution, hitlist vs rDNS input",
            "Fig 10",
        )
    };
    let hitlist = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    let tree = build_rdns(p.model_ref(), &hitlist);
    let walk = tree.walk();
    out.push_str(&format!(
        "rDNS walk: {} addresses from {} queries ({} NXDOMAIN-pruned)\n",
        walk.addresses.len(),
        walk.queries,
        walk.nxdomains
    ));
    let hitset: BTreeSet<Ipv6Addr> = hitlist.iter().copied().collect();
    let new = walk
        .addresses
        .iter()
        .filter(|a| !hitset.contains(a))
        .count();
    out.push_str(&format!(
        "new vs hitlist: {} ({}; paper: 11.1M of 11.7M new)\n",
        new,
        pct(new as f64 / walk.addresses.len().max(1) as f64)
    ));

    // Filter unrouted + aliased (the paper's preprocessing).
    let model = p.model_ref();
    let routed: Vec<Ipv6Addr> = walk
        .addresses
        .iter()
        .copied()
        .filter(|a| model.bgp.lookup(*a).is_some())
        .collect();
    out.push_str(&format!(
        "unrouted filtered: {} (paper: 2.1M of 11.7M)\n\n",
        walk.addresses.len() - routed.len()
    ));

    if !table8 {
        // Fig 10: concentration curves hitlist vs rDNS.
        let xs = [1usize, 3, 10, 30, 100];
        out.push_str(&format!("{:<18}", "input [group]"));
        for x in xs {
            out.push_str(&format!(" top{x:>4}"));
        }
        out.push_str("  gini\n");
        let mut ginis = Vec::new();
        for (name, set) in [("hitlist", &hitlist), ("rDNS", &routed)] {
            let mut by_as: Counter<u32> = Counter::new();
            let mut by_pfx: Counter<(u128, u8)> = Counter::new();
            for a in set.iter() {
                if let Some((px, asn)) = model.bgp.lookup(*a) {
                    by_as.push(asn.0);
                    by_pfx.push((px.bits(), px.len()));
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
                out.push_str(&format!("  {:.2}\n", curve.gini()));
                if group == "AS" {
                    ginis.push(curve.gini());
                }
            }
        }
        if ginis.len() == 2 {
            out.push_str(&format!(
                "\nshape: rDNS AS distribution is at least as balanced as the hitlist's \
                 (gini {:.2} vs {:.2}; paper: 'even more balanced')\n",
                ginis[1], ginis[0]
            ));
        }
        // Responsiveness comparison (ICMP + ff:fe/hamming client checks).
        let scan = p
            .scanner
            .scan(&routed, &expanse_zmap6::module::IcmpEchoModule);
        out.push_str(&format!(
            "\nrDNS ICMP response rate: {} (paper: 10% vs hitlist 6%)\n",
            pct(scan.hit_rate())
        ));
        let responsive: Vec<Ipv6Addr> = scan.responsive().collect();
        let fffe = responsive
            .iter()
            .filter(|a| expanse_addr::is_eui64(**a))
            .count();
        let low_hamming = responsive
            .iter()
            .filter(|a| expanse_addr::iid_hamming_weight(**a) <= 6)
            .count();
        out.push_str(&format!(
            "responsive rDNS: {} ff:fe ({}; paper 6-9%), {} with IID hamming ≤ 6 \
             ({}; paper ~60% for TCP/80) — a server population, not clients\n",
            fffe,
            pct(fffe as f64 / responsive.len().max(1) as f64),
            low_hamming,
            pct(low_hamming as f64 / responsive.len().max(1) as f64),
        ));
    } else {
        // Table 8: top-5 ASes in input, ICMP-responsive, TCP80-responsive.
        let icmp = p
            .scanner
            .scan(&routed, &expanse_zmap6::module::IcmpEchoModule);
        let tcp = p.scanner.scan(
            &routed,
            &expanse_zmap6::module::TcpSynModule::with_synopt(80),
        );
        let model = p.model_ref();
        let top5 = |addrs: &mut dyn Iterator<Item = Ipv6Addr>| -> Vec<(String, f64)> {
            let mut c: Counter<u32> = Counter::new();
            for a in addrs {
                if let Some(asn) = model.bgp.origin(a) {
                    c.push(asn.0);
                }
            }
            c.top_shares(5)
                .into_iter()
                .map(|(asn, share)| {
                    (
                        model
                            .as_name(expanse_model::Asn(asn))
                            .unwrap_or("?")
                            .to_string(),
                        share,
                    )
                })
                .collect()
        };
        let input5 = top5(&mut routed.iter().copied());
        let icmp5 = top5(&mut icmp.responsive());
        let tcp5 = top5(&mut tcp.responsive());
        out.push_str(&format!(
            "{:<4} {:<22} {:<22} {:<22}\n",
            "#", "Input", "ICMP", "TCP/80"
        ));
        for i in 0..5 {
            let cell = |v: &Vec<(String, f64)>| {
                v.get(i)
                    .map(|(n, s)| format!("{n} {}", pct(*s)))
                    .unwrap_or_default()
            };
            out.push_str(&format!(
                "{:<4} {:<22} {:<22} {:<22}\n",
                i + 1,
                cell(&input5),
                cell(&icmp5),
                cell(&tcp5)
            ));
        }
        out.push_str(
            "\nshape: responsive rDNS top ASes are hosting/service providers\n\
             (paper: Online S.A.S., Google, Hetzner... — servers, not eyeballs)\n",
        );
    }
    out
}

/// Table 9 + §9.3: the crowdsourcing study.
pub(crate) fn table9(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Table 9: crowdsourcing client distribution + §9.3 responsiveness",
        "Table 9 / §9.3",
    );
    let p = ctx.pipeline();
    let study = build_crowd(p.model_ref());
    let count = |platform: Platform| {
        let total = study
            .participants
            .iter()
            .filter(|x| x.platform == platform)
            .count();
        let v6 = study.v6_count(platform);
        let as4: BTreeSet<u32> = study
            .participants
            .iter()
            .filter(|x| x.platform == platform)
            .map(|x| x.asn4.0)
            .collect();
        let as6: BTreeSet<u32> = study
            .participants
            .iter()
            .filter(|x| x.platform == platform)
            .filter_map(|x| x.asn6.map(|a| a.0))
            .collect();
        let cc4: BTreeSet<&str> = study
            .participants
            .iter()
            .filter(|x| x.platform == platform)
            .map(|x| x.country)
            .collect();
        let cc6: BTreeSet<&str> = study
            .participants
            .iter()
            .filter(|x| x.platform == platform && x.addr6.is_some())
            .map(|x| x.country)
            .collect();
        (total, v6, as4.len(), as6.len(), cc4.len(), cc6.len())
    };
    out.push_str(&format!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>5} {:>5}\n",
        "platform", "IPv4", "IPv6", "ASes4", "ASes6", "#cc4", "#cc6"
    ));
    for (name, pf) in [("Mturk", Platform::Mturk), ("ProA", Platform::ProA)] {
        let (t, v6, a4, a6, c4, c6) = count(pf);
        out.push_str(&format!(
            "{name:<8} {t:>6} {v6:>6} {a4:>6} {a6:>6} {c4:>5} {c6:>5}\n"
        ));
    }
    out.push_str("(paper:  Mturk 5707/1787, ProA 1176/245; v6 rates 31% / 20.6%)\n\n");

    // §9.3: probe every collected v6 address every 5 minutes for 30 days.
    let clients: Vec<&expanse_model::crowd::Participant> = study
        .participants
        .iter()
        .filter(|x| x.addr6.is_some())
        .collect();
    let mut ever = 0usize;
    let mut full_month = 0usize;
    let mut daily_uptimes_h: Vec<f64> = Vec::new();
    let mut short_lived = 0usize; // < 1 h total on their first active day
    let mut under_8h = 0usize;
    for c in &clients {
        let mut responded_any = false;
        let mut all_days = true;
        let mut first_day_uptime = None;
        for day in 0..30u16 {
            let mut day_secs = 0u64;
            let mut day_any = false;
            for slot in 0..(86_400 / 300) {
                if c.responsive_at(day, slot * 300) {
                    day_secs += 300;
                    day_any = true;
                }
            }
            if day_any {
                responded_any = true;
                daily_uptimes_h.push(day_secs as f64 / 3600.0);
                if first_day_uptime.is_none() {
                    first_day_uptime = Some(day_secs);
                }
            } else {
                all_days = false;
            }
        }
        if responded_any {
            ever += 1;
            if all_days {
                full_month += 1;
            }
            match first_day_uptime {
                Some(s) if s < 3600 => {
                    short_lived += 1;
                    under_8h += 1;
                }
                Some(s) if s <= 8 * 3600 => under_8h += 1,
                _ => {}
            }
        }
    }
    out.push_str(&format!(
        "clients responding to ≥1 probe: {} of {} ({}; paper 17.3%)\n",
        ever,
        clients.len(),
        pct(ever as f64 / clients.len().max(1) as f64)
    ));
    out.push_str(&format!(
        "responsive the whole month: {full_month} (paper: 7)\n"
    ));
    out.push_str(&format!(
        "active <1h on first day: {} ({}; paper 19%), ≤8h: {} ({}; paper 39.4%)\n",
        short_lived,
        pct(short_lived as f64 / ever.max(1) as f64),
        under_8h,
        pct(under_8h as f64 / ever.max(1) as f64)
    ));
    let mean = expanse_stats::mean(&daily_uptimes_h).unwrap_or(0.0);
    let median = expanse_stats::median(&daily_uptimes_h).unwrap_or(0.0);
    out.push_str(&format!(
        "daily uptime of dynamic addresses: mean {mean:.1}h, median {median:.1}h \
         (paper: ≈8h mean, ≈3h median)\n"
    ));
    let atlas_up = study.atlas.iter().filter(|a| a.responsive).count();
    out.push_str(&format!(
        "RIPE-Atlas-probe upper bound in the same ASes: {} of {} ({}; paper 45.8%)\n",
        atlas_up,
        study.atlas.len(),
        pct(atlas_up as f64 / study.atlas.len().max(1) as f64)
    ));
    out
}
