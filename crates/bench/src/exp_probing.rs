//! §6 experiments: Figures 6, 7, 8.

use crate::ctx::{header, pct, Ctx};
use expanse_core::Fig8Row;
use expanse_model::SourceId;
use expanse_packet::Protocol;
use expanse_stats::{CondMatrix, Counter};
use expanse_zesplot::{plot, render_svg, ZesConfig, ZesEntry};

/// Fig 6: BGP prefixes colored by ICMP-responsive (non-aliased) counts.
pub(crate) fn fig6(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 6: BGP prefixes by non-aliased ICMP-responsive address count",
        "Fig 6",
    );
    let addrs = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    p.warmup_apd(2);
    let filter = p.apd.filter();
    let (kept, _) = filter.split(&addrs);
    let scan = p
        .scanner
        .scan(&kept, &expanse_zmap6::module::IcmpEchoModule);
    let model = p.model_ref();
    let mut per_prefix: Counter<(u128, u8, u32)> = Counter::new();
    let mut per_as: Counter<u32> = Counter::new();
    for a in scan.responsive() {
        if let Some((px, asn)) = model.route(a) {
            per_prefix.push((px.bits(), px.len(), asn.0));
            per_as.push(asn.0);
        }
    }
    let entries: Vec<ZesEntry> = model
        .announcements()
        .iter()
        .map(|(px, asn)| ZesEntry {
            prefix: *px,
            asn: asn.0,
            value: per_prefix.get(&(px.bits(), px.len(), asn.0)) as f64,
        })
        .collect();
    let covered = entries.iter().filter(|e| e.value > 0.0).count();
    let zp = plot(
        entries,
        ZesConfig {
            sized: false,
            label: "ICMP responses".into(),
        },
    );
    ctx.write("fig6_responses_zesplot.svg", &render_svg(&zp));
    out.push_str(&format!(
        "responsive: {} addresses over {} BGP prefixes and {} ASes\n",
        scan.responsive_count(),
        covered,
        per_as.distinct()
    ));
    out.push_str(
        "(paper: 1.9M responsive over 21,647 BGP prefixes in 9,968 ASes; most\n\
         covered prefixes hold dozens-to-hundreds of responders while a few\n\
         hold 12k+)\n",
    );
    let top = per_prefix.top(3);
    out.push_str("top responding prefixes:\n");
    for ((bits, len, asn), n) in top {
        out.push_str(&format!(
            "  {} (AS{asn}): {n}\n",
            expanse_addr::Prefix::from_bits(bits, len)
        ));
    }
    out.push_str("wrote results/fig6_responses_zesplot.svg\n");
    out
}

/// Fig 7: conditional response-probability matrix.
pub(crate) fn fig7(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 7: conditional probability of responsiveness between services",
        "Fig 7",
    );
    let addrs = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    p.warmup_apd(2);
    let filter = p.apd.filter();
    let (kept, _) = filter.split(&addrs);
    let multi = p
        .scanner
        .scan_battery(&kept, &expanse_zmap6::standard_battery());
    let labels: Vec<&str> = Protocol::ALL.iter().map(|q| q.name()).collect();
    let mut m = CondMatrix::new(&labels);
    for (_, protos) in &multi.responsive {
        let mut mask = 0u32;
        for q in protos.iter() {
            mask |= 1 << q.index();
        }
        m.record_mask(mask);
    }
    out.push_str(&m.render());
    out.push('\n');
    let icmp_given = |q: Protocol| m.cond(Protocol::Icmp.index(), q.index()).unwrap_or(0.0);
    let min_icmp = Protocol::ALL
        .iter()
        .skip(1)
        .map(|q| icmp_given(*q))
        .fold(1.0f64, f64::min);
    out.push_str(&format!(
        "shape checks vs paper:\n\
         - P[ICMP | X] ≥ {:.2} for every X (paper: ≥ 0.89)\n",
        min_icmp
    ));
    let quic_http = m
        .cond(Protocol::Tcp80.index(), Protocol::Udp443.index())
        .unwrap_or(0.0);
    let http_quic = m
        .cond(Protocol::Udp443.index(), Protocol::Tcp80.index())
        .unwrap_or(0.0);
    out.push_str(&format!(
        "- QUIC → HTTP {:.2} vs HTTP → QUIC {:.2} (paper: 0.98 vs 0.035 — strongly asymmetric)\n",
        quic_http, http_quic
    ));
    let https_http = m
        .cond(Protocol::Tcp80.index(), Protocol::Tcp443.index())
        .unwrap_or(0.0);
    out.push_str(&format!("- HTTPS → HTTP {https_http:.2} (paper: 0.91)\n"));
    out
}

/// Fig 8: longitudinal responsiveness over 14 days per source.
pub(crate) fn fig8(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 8: responsiveness over 14 days relative to the day-0 baseline",
        "Fig 8",
    );
    let p = ctx.pipeline();
    p.warmup_apd(3);
    for _ in 0..14 {
        p.run_day();
    }
    out.push_str(&p.ledger.render());
    let final_of = |row: Fig8Row| -> Option<f64> {
        p.ledger.series(row).last().copied().filter(|v| !v.is_nan())
    };
    out.push_str("\nshape checks vs paper (day-14 survival):\n");
    let checks = [
        (Fig8Row::Source(SourceId::DomainLists), 0.98, "DL"),
        (Fig8Row::Source(SourceId::Fdns), 0.97, "FDNS"),
        (Fig8Row::Source(SourceId::RipeAtlas), 0.98, "RA"),
        (Fig8Row::Source(SourceId::Scamper), 0.68, "Scamper"),
        (Fig8Row::Source(SourceId::Bitnodes), 0.80, "Bitnodes"),
    ];
    for (row, paper, name) in checks {
        match final_of(row) {
            Some(v) => out.push_str(&format!(
                "  {name:<9} measured {} (paper {})\n",
                pct(v),
                pct(paper)
            )),
            None => out.push_str(&format!("  {name:<9} no baseline at this scale\n")),
        }
    }
    let quic_ct = p.ledger.series(Fig8Row::SourceQuic(SourceId::Ct));
    if quic_ct.len() > 3 {
        let min = quic_ct.iter().copied().fold(f64::MAX, f64::min);
        let max = quic_ct[1..].iter().copied().fold(f64::MIN, f64::max);
        out.push_str(&format!(
            "  CT-QUIC flaps between {} and {} (paper: 0.70–0.85 daily flapping)\n",
            pct(min),
            pct(max)
        ));
    }
    out
}
