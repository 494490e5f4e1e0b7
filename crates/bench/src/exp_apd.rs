//! §5 experiments: Tables 3–4, Figures 4–5, and the §5.5 Murdock
//! comparison.

use crate::ctx::{header, pct, Ctx};
use expanse_addr::{fanout16, Prefix};
use expanse_apd::{Apd, ApdConfig, WindowState};
use expanse_stats::{ConcentrationCurve, Counter};
use expanse_zesplot::{plot, render_svg, ZesConfig, ZesEntry};
use std::collections::BTreeMap;

/// Table 3: the fan-out example for 2001:db8:407:8000::/64.
pub(crate) fn table3(_ctx: &mut Ctx) -> String {
    let mut out = header(
        "Table 3: multi-level APD fan-out for 2001:0db8:0407:8000::/64",
        "Table 3",
    );
    let p: Prefix = "2001:db8:407:8000::/64".parse().expect("valid prefix");
    out.push_str("branch  subprefix                      probe address\n");
    for t in fanout16(p, 0xa11a5) {
        out.push_str(&format!(
            "  0x{:x}   {:<28}  {}\n",
            t.branch,
            t.subprefix.to_string(),
            expanse_addr::format::expanded(t.addr)
        ));
    }
    out.push_str("\none pseudo-random address per 4-bit subprefix, deterministic across days\n");
    out
}

/// Collect daily merged-branch bitmaps for interesting prefixes (the
/// raw material for the Table 4 window sweep).
fn daily_bitmaps(ctx: &mut Ctx, days: u16) -> BTreeMap<Prefix, Vec<u16>> {
    let p = ctx.pipeline();
    // Interesting prefixes: every ground-truth aliased region at its own
    // level, plus the specials' children.
    let specials = p.model_ref().population.special.clone();
    let mut plan: Vec<Prefix> = p
        .model_ref()
        .population
        .aliases
        .iter()
        .map(|(px, _)| px)
        .filter(|px| px.len() <= 124)
        .collect();
    plan.extend(specials.rate_limited.iter().copied());
    plan.sort();
    plan.dedup();

    let mut apd = Apd::new(ApdConfig::default());
    let mut history: BTreeMap<Prefix, Vec<u16>> = BTreeMap::new();
    for day in 0..days {
        p.scanner.network_mut().set_day(day);
        let report = apd.run_day(&mut p.scanner, &plan);
        for (px, obs) in &report.observations {
            history.entry(*px).or_default().push(obs.merged());
        }
    }
    history
}

/// Table 4: sliding-window length vs unstable prefix count.
pub(crate) fn table4(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Table 4: impact of the sliding window on unstable prefix count",
        "Table 4",
    );
    let days = 10;
    let history = daily_bitmaps(ctx, days);
    out.push_str(&format!(
        "{} candidate prefixes probed for {days} days\n\n",
        history.len()
    ));
    out.push_str("window (days)    0     1     2     3     4     5\n");
    out.push_str("unstable     ");
    let mut counts = Vec::new();
    for w in 0..=5usize {
        let unstable = history
            .values()
            .filter(|bitmaps| {
                let mut ws = WindowState::new(w);
                for &b in bitmaps.iter() {
                    ws.push_day(b);
                }
                ws.flips() > 0
            })
            .count();
        counts.push(unstable);
        out.push_str(&format!("{unstable:>6}"));
    }
    out.push('\n');
    out.push_str("(paper row:     65    26    22    14    14    13)\n\n");
    let drop = if counts[0] > 0 {
        1.0 - counts[3] as f64 / counts[0] as f64
    } else {
        0.0
    };
    out.push_str(&format!(
        "shape: a 3-day window removes {} of the instability (paper: ≈80%);\n\
         the curve flattens beyond 3 days, matching the paper's choice.\n",
        pct(drop)
    ));
    out
}

/// Fig 4: prefix/AS concentration for aliased vs non-aliased vs all.
pub(crate) fn fig4(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 4: prefix and AS distribution for aliased, non-aliased, all addresses",
        "Fig 4",
    );
    let addrs = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    p.warmup_apd(2);
    let filter = p.apd.filter();
    let (kept, removed) = filter.split(&addrs);
    out.push_str(&format!(
        "hitlist {} = non-aliased {} ({}) + aliased {} ({})\n",
        addrs.len(),
        kept.len(),
        pct(kept.len() as f64 / addrs.len().max(1) as f64),
        removed.len(),
        pct(removed.len() as f64 / addrs.len().max(1) as f64),
    ));
    out.push_str("(paper: 53.4% remain after filtering)\n\n");

    let model = p.model_ref();
    let xs = [1usize, 3, 10, 30, 100];
    out.push_str(&format!("{:<22}", "population [group]"));
    for x in xs {
        out.push_str(&format!(" top{x:>4}"));
    }
    out.push('\n');
    let mut table: Vec<(String, ConcentrationCurve)> = Vec::new();
    for (name, set) in [
        ("all", &addrs),
        ("aliased", &removed),
        ("non-aliased", &kept),
    ] {
        let mut by_as: Counter<u32> = Counter::new();
        let mut by_pfx: Counter<(u128, u8)> = Counter::new();
        for a in set.iter() {
            if let Some((px, asn)) = model.route(*a) {
                by_as.push(asn.0);
                by_pfx.push((px.bits(), px.len()));
            }
        }
        table.push((
            format!("{name} [AS]"),
            ConcentrationCurve::from_counts(by_as.counts()),
        ));
        table.push((
            format!("{name} [prefix]"),
            ConcentrationCurve::from_counts(by_pfx.counts()),
        ));
    }
    for (label, curve) in &table {
        out.push_str(&format!("{label:<22}"));
        for x in xs {
            out.push_str(&format!(" {:>6}", pct(curve.fraction_in_top(x))));
        }
        out.push('\n');
    }
    // Shape: aliased heavily centered on one AS.
    let aliased_as_top1 = table
        .iter()
        .find(|(l, _)| l == "aliased [AS]")
        .map(|(_, c)| c.fraction_in_top(1))
        .unwrap_or(0.0);
    let nonaliased_as_top1 = table
        .iter()
        .find(|(l, _)| l == "non-aliased [AS]")
        .map(|(_, c)| c.fraction_in_top(1))
        .unwrap_or(0.0);
    out.push_str(&format!(
        "\nshape: aliased addresses are concentrated on one CDN AS \
         (top-1 {} vs non-aliased {}), flattening the de-aliased AS \
         distribution — the paper's Fig 4 observation.\n",
        pct(aliased_as_top1),
        pct(nonaliased_as_top1)
    ));
    out
}

/// Fig 5: zesplots of ICMP responses without APD and of detected aliased
/// prefixes (the "hook").
pub(crate) fn fig5(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 5: ICMP responses before APD filtering vs detected aliased prefixes",
        "Fig 5a/5b",
    );
    let addrs = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    // Scan everything (including aliased space) on ICMP.
    let scan = p
        .scanner
        .scan(&addrs, &expanse_zmap6::module::IcmpEchoModule);
    let model = p.model_ref();
    let mut responses: Counter<(u128, u8, u32)> = Counter::new();
    for a in scan.responsive() {
        if let Some((px, asn)) = model.route(a) {
            responses.push((px.bits(), px.len(), asn.0));
        }
    }
    let entries_a: Vec<ZesEntry> = model
        .announcements()
        .iter()
        .map(|(px, asn)| ZesEntry {
            prefix: *px,
            asn: asn.0,
            value: responses.get(&(px.bits(), px.len(), asn.0)) as f64,
        })
        .collect();
    let za = plot(
        entries_a,
        ZesConfig {
            sized: false,
            label: "ICMP responses (no APD)".into(),
        },
    );
    ctx.write("fig5a_responses_no_apd.svg", &render_svg(&za));

    // Detected aliased prefixes, aggregated to BGP prefixes.
    let (entries_b, aliased_len, hook48, announced) = {
        let p = ctx.pipeline();
        p.warmup_apd(2);
        let aliased = p.apd.aliased_prefixes();
        let model = p.model_ref();
        let mut aliased_by_bgp: Counter<(u128, u8, u32)> = Counter::new();
        let mut hook48 = 0usize;
        for px in &aliased {
            if px.len() == 48
                || model
                    .population
                    .special
                    .cdn_hook_48s
                    .iter()
                    .any(|h| h.covers(px))
            {
                hook48 += 1;
            }
            if let Some((bp, asn)) = model.route(px.first()) {
                aliased_by_bgp.push((bp.bits(), bp.len(), asn.0));
            }
        }
        let entries: Vec<ZesEntry> = model
            .announcements()
            .iter()
            .map(|(px, asn)| ZesEntry {
                prefix: *px,
                asn: asn.0,
                value: aliased_by_bgp.get(&(px.bits(), px.len(), asn.0)) as f64,
            })
            .collect();
        (entries, aliased.len(), hook48, model.announcements().len())
    };
    let covered = entries_b.iter().filter(|e| e.value > 0.0).count();
    let zb = plot(
        entries_b,
        ZesConfig {
            sized: false,
            label: "detected aliased prefixes".into(),
        },
    );
    ctx.write("fig5b_aliased_prefixes.svg", &render_svg(&zb));
    out.push_str(&format!(
        "ICMP responders (no APD): {} addresses across {} BGP prefixes\n",
        scan.responsive_count(),
        responses.distinct()
    ));
    out.push_str(&format!(
        "detected aliased prefixes: {} (of which {} in the CDN /48 hook), \
         touching {covered} BGP prefixes ({} of announced — paper: 3.0%)\n",
        aliased_len,
        hook48,
        pct(covered as f64 / announced.max(1) as f64)
    ));
    out.push_str("wrote results/fig5a_responses_no_apd.svg, results/fig5b_aliased_prefixes.svg\n");
    out
}

/// §5.5: ours vs Murdock et al.
pub(crate) fn murdock(ctx: &mut Ctx) -> String {
    let mut out = header(
        "§5.5: multi-level fan-out APD vs Murdock et al.'s static /96",
        "§5.5",
    );
    let addrs = ctx.hitlist_addrs();
    let p = ctx.pipeline();

    // Ours: full multi-level run, 2 days for window stability.
    let plan = expanse_apd::plan_targets(&addrs, &p.cfg.plan);
    let mut apd = Apd::new(ApdConfig::default());
    let mut our_probes = 0u64;
    let mut our_addr_targets = 0u64;
    for day in 0..2u16 {
        p.scanner.network_mut().set_day(day);
        let r = apd.run_day(&mut p.scanner, &plan);
        our_probes += r.probes_sent;
        our_addr_targets += r.targets;
    }
    let our_filter = apd.filter();

    // Baseline.
    let m = expanse_apd::murdock::detect(&mut p.scanner, &addrs, 0x6e6);
    let murdock_filter = expanse_apd::AliasFilter::new(m.aliased.iter().copied());

    // Address-level comparison over the hitlist.
    let mut ours_only = 0usize;
    let mut murdock_only = 0usize;
    let mut both = 0usize;
    for a in &addrs {
        match (our_filter.is_aliased(*a), murdock_filter.is_aliased(*a)) {
            (true, true) => both += 1,
            (true, false) => ours_only += 1,
            (false, true) => murdock_only += 1,
            (false, false) => {}
        }
    }
    out.push_str(&format!(
        "hitlist addresses classified aliased by both methods:      {both}\n"
    ));
    out.push_str(&format!(
        "aliased per fan-out APD but missed by static /96:          {ours_only}\n"
    ));
    out.push_str(&format!(
        "aliased per static /96 but not fan-out APD:                {murdock_only}\n"
    ));
    out.push_str(&format!(
        "\nprobe volume: ours {} probes to {} addresses (2 days);\n\
         Murdock {} probes to {} addresses\n",
        our_probes, our_addr_targets, m.probes_sent, m.addresses_probed
    ));
    out.push_str(&format!(
        "\nshape (paper): ours finds 992.6k more aliased addresses while probing\n\
         less than half the addresses; here: +{ours_only} addresses, probe ratio {:.2}\n",
        our_addr_targets as f64 / m.addresses_probed.max(1) as f64
    ));
    out
}
