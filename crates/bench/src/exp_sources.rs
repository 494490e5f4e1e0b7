//! §3 experiments: Tables 1–2, Figures 1a–1c.

use crate::ctx::{header, pct, Ctx};
use expanse_core::{render_source_table, source_table, total_row};
use expanse_model::SourceId;
use expanse_stats::{ConcentrationCurve, Counter};
use expanse_zesplot::{plot, render_svg, ZesConfig, ZesEntry};

/// Table 1: this work vs prior hitlists. Prior rows are the paper's
/// published numbers (they are literature values, not reproducible
/// measurements); our row is measured from the pipeline.
pub(crate) fn table1(ctx: &mut Ctx) -> String {
    let mut out = header("Table 1: comparison with previous hitlists", "Table 1");
    let p = ctx.pipeline();
    let hit = &p.hitlist;
    let total = hit.len();
    let model = p.model_ref();
    let mut ases: Counter<u32> = Counter::new();
    let mut pfx: Counter<(u128, u8)> = Counter::new();
    for a in hit.iter() {
        if let Some((px, asn)) = model.bgp.lookup(a) {
            ases.push(asn.0);
            pfx.push((px.bits(), px.len()));
        }
    }
    out.push_str("work                #publ.   #pfx.  #ASes  #priv.  Cts  Prob.  APD\n");
    out.push_str(
        "Gasser et al. 16      2.7M    5.8k   8.6k    149M   y     y     n   (paper row)\n",
    );
    out.push_str(
        "Foremski et al. 16    620k    <100   <100    3.5G   y     y     n   (paper row)\n",
    );
    out.push_str(
        "Fiebig et al. 17      2.8M     n/a    n/a       0   y     n     n   (paper row)\n",
    );
    out.push_str(
        "Murdock et al. 17     1.0M    2.8k   2.4k       0   y     y     ~   (paper row)\n",
    );
    out.push_str(
        "Gasser et al. 18     55.1M   25.5k  10.9k       0   y     y     y   (paper row)\n",
    );
    out.push_str(&format!(
        "this reproduction  {:>7}  {:>6}  {:>5}       0   y     y     y   (measured, scaled model)\n",
        total,
        pfx.distinct(),
        ases.distinct()
    ));
    out.push_str("\nshape check: all-public sources, client addresses included, active probing\n");
    out.push_str("and aliased-prefix detection enabled — the paper's distinguishing column set.\n");
    out
}

/// Table 2: per-source IPs / new IPs / ASes / prefixes / top-AS shares.
pub(crate) fn table2(ctx: &mut Ctx) -> String {
    let mut out = header("Table 2: overview of hitlist sources", "Table 2");
    let p = ctx.pipeline();
    let rows = source_table(&p.hitlist, p.model_ref());
    let total = total_row(&p.hitlist, p.model_ref());
    out.push_str(&render_source_table(&rows, &total));
    out.push_str("\nshape checks vs paper:\n");
    let share = |id: SourceId| {
        rows.iter()
            .find(|r| r.id == id)
            .and_then(|r| r.top_as.first().map(|t| t.1))
            .unwrap_or(0.0)
    };
    out.push_str(&format!(
        "- DL/CT dominated by one CDN AS: DL top-AS {} (paper 89.7%), CT {} (paper 92.3%)\n",
        pct(share(SourceId::DomainLists)),
        pct(share(SourceId::Ct))
    ));
    out.push_str(&format!(
        "- FDNS more balanced: top-AS {} (paper 16.7%)\n",
        pct(share(SourceId::Fdns))
    ));
    let ra = rows
        .iter()
        .find(|r| r.id == SourceId::RipeAtlas)
        .expect("RA row");
    let scamper = rows
        .iter()
        .find(|r| r.id == SourceId::Scamper)
        .expect("Scamper row");
    out.push_str(&format!(
        "- RA covers many prefixes relative to its size: {} prefixes for {} addrs\n",
        ra.n_prefixes, ra.ips
    ));
    out.push_str(&format!(
        "- Scamper is the largest or second-largest source: {} addrs (paper: 26M of 58.5M)\n",
        scamper.ips
    ));
    out
}

/// Fig 1a: cumulative runup of sources over the collection period.
pub(crate) fn fig1a(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 1a: cumulative runup of IPv6 addresses per source",
        "Fig 1a",
    );
    let p = ctx.pipeline();
    let days = p.model_ref().config.runup_days;
    let checkpoints: Vec<u32> = (0..=10).map(|i| days * i / 10).collect();
    out.push_str(&format!("{:<9}", "day"));
    for id in SourceId::ALL {
        out.push_str(&format!(" {:>9}", id.name()));
    }
    out.push('\n');
    let mut series: Vec<Vec<usize>> = Vec::new();
    for &d in &checkpoints {
        let row: Vec<usize> = p.sources.iter().map(|s| s.addrs_on_day(d).len()).collect();
        out.push_str(&format!("{d:<9}"));
        for v in &row {
            out.push_str(&format!(" {v:>9}"));
        }
        out.push('\n');
        series.push(row);
    }
    // Shape checks: scamper late growth, DL early.
    let first = &series[3]; // 30 % of the period
    let last = series.last().expect("nonempty");
    let dl_frac = first[0] as f64 / last[0].max(1) as f64;
    let scamper_frac = first[6] as f64 / last[6].max(1) as f64;
    out.push_str(&format!(
        "\nshape: at 30% of the period DL has revealed {} of its final size,\n\
         scamper only {} (paper: scamper shows 'very strong growth' late).\n",
        pct(dl_frac),
        pct(scamper_frac)
    ));
    ctx.write("fig1a_runup.tsv", &out);
    out
}

/// Fig 1b: AS-concentration CDFs per source.
pub(crate) fn fig1b(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 1b: fraction of addresses in the top-X ASes, per source",
        "Fig 1b",
    );
    let p = ctx.pipeline();
    let model = p.model_ref();
    let xs = [1usize, 2, 5, 10, 20, 50, 100];
    out.push_str(&format!("{:<9}", "source"));
    for x in xs {
        out.push_str(&format!(" top{x:>4}"));
    }
    out.push_str("  gini\n");
    let mut gini_dl = 0.0;
    let mut gini_ra = 0.0;
    for s in &p.sources {
        let mut c: Counter<u32> = Counter::new();
        for a in s.all() {
            if let Some(asn) = model.bgp.origin(*a) {
                c.push(asn.0);
            }
        }
        let curve = ConcentrationCurve::from_counts(c.counts());
        out.push_str(&format!("{:<9}", s.id.name()));
        for x in xs {
            out.push_str(&format!(" {:>6}", pct(curve.fraction_in_top(x))));
        }
        out.push_str(&format!("  {:.2}\n", curve.gini()));
        if s.id == SourceId::DomainLists {
            gini_dl = curve.gini();
        }
        if s.id == SourceId::RipeAtlas {
            gini_ra = curve.gini();
        }
    }
    out.push_str(&format!(
        "\nshape: DL is far more concentrated than RIPE Atlas (gini {gini_dl:.2} vs {gini_ra:.2});\n\
         the paper's Fig 1b shows the same ordering.\n"
    ));
    out
}

/// Fig 1c: zesplot of hitlist addresses over announced BGP prefixes.
pub(crate) fn fig1c(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 1c: hitlist addresses mapped to BGP prefixes (zesplot)",
        "Fig 1c",
    );
    let hitlist = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    let model = p.model_ref();
    let mut per_prefix: Counter<(u128, u8, u32)> = Counter::new();
    for a in &hitlist {
        if let Some((px, asn)) = model.bgp.lookup(*a) {
            per_prefix.push((px.bits(), px.len(), asn.0));
        }
    }
    let entries: Vec<ZesEntry> = model
        .bgp
        .announcements()
        .iter()
        .map(|(px, asn)| ZesEntry {
            prefix: *px,
            asn: asn.0,
            value: per_prefix.get(&(px.bits(), px.len(), asn.0)) as f64,
        })
        .collect();
    let covered = entries.iter().filter(|e| e.value > 0.0).count();
    let announced = entries.len();
    let zp = plot(
        entries,
        ZesConfig {
            sized: true,
            label: "hitlist addresses".into(),
        },
    );
    let svg = render_svg(&zp);
    ctx.write("fig1c_hitlist_zesplot.svg", &svg);
    out.push_str(&format!(
        "prefix coverage: {covered} of {announced} announced prefixes contain hitlist \
         addresses ({})\n",
        pct(covered as f64 / announced.max(1) as f64)
    ));
    out.push_str("(paper: 'We cover half of all announced BGP prefixes, but some prefixes\n");
    out.push_str(" contain unusually large numbers of addresses')\n");
    let top = per_prefix.top(5);
    out.push_str("\ntop prefixes by address count:\n");
    for ((bits, len, asn), n) in top {
        let px = expanse_addr::Prefix::from_bits(bits, len);
        out.push_str(&format!(
            "  {px} (AS{asn}, {}): {n}\n",
            ctx.pipeline()
                .model_ref()
                .as_name(expanse_model::Asn(asn))
                .unwrap_or("?"),
        ));
    }
    out.push_str("\nwrote results/fig1c_hitlist_zesplot.svg\n");
    out
}
