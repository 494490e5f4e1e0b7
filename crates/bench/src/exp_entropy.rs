//! §4 experiments: entropy clustering (Figures 2a, 2b, 3a, 3b).

use crate::ctx::{header, pct, Ctx};
use expanse_entropy::{
    cluster_networks, fingerprints_by_32, fingerprints_by_32_set, render_clusters, Clustering,
};
use expanse_model::Asn;
use expanse_zesplot::{plot, render_svg, ZesConfig, ZesEntry};
use std::collections::BTreeMap;
use std::net::Ipv6Addr;

fn cluster_report<K>(c: &Clustering<K>, what: &str, paper_k: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} networks clustered; elbow chose k = {} (paper: {} clusters)\n",
        c.assignment.len(),
        c.k,
        paper_k
    ));
    out.push_str("SSE curve (k -> SSE): ");
    for (k, sse) in &c.sse_curve {
        out.push_str(&format!("{k}:{sse:.2} "));
    }
    out.push_str("\n\n");
    out.push_str(&render_clusters(c));
    out.push_str(&format!("\n({what})\n"));
    out
}

/// Clusters of full-address fingerprints F9_32 over /32s (Fig 2a).
pub(crate) fn fig2a(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 2a: /32 prefixes clustered by full-address entropy fingerprints (F9_32)",
        "Fig 2a",
    );
    let min = ctx.scale.min_cluster_addrs();
    let seed = ctx.seed;
    // Fingerprint straight off the interned store: no owned address
    // vector, buckets are 4-byte id runs against the shared table.
    let groups = {
        let h = ctx.hitlist();
        fingerprints_by_32_set(h.table(), &h.live_set(), 9, 32, min)
    };
    let pairs: Vec<_> = groups.iter().map(|(p, f, _)| (*p, f.clone())).collect();
    let c = cluster_networks(&pairs, 12, None, seed);
    out.push_str(&cluster_report(
        &c,
        "expected motifs: a dominant near-zero-entropy counter cluster, a structured \
         cluster, a high-entropy random-IID cluster, and ff:fe clusters with a 4-nybble \
         zero notch",
        6,
    ));
    // The paper picked k = 6 from visual elbow inspection; show the same
    // fixed-k view for motif-by-motif comparison.
    let c6 = cluster_networks(&pairs, 12, Some(6), seed);
    out.push_str("\nfixed k = 6 (the paper's choice):\n");
    out.push_str(&render_clusters(&c6));
    // Motif check: the most popular cluster should be low-entropy.
    if let Some(top) = c.clusters.first() {
        let mean: f64 = top.median_entropy.iter().sum::<f64>() / top.median_entropy.len() as f64;
        out.push_str(&format!(
            "\nmost popular cluster mean entropy: {mean:.3} (paper: ≈0 — counters)\n"
        ));
    }
    out
}

/// Clusters of IID fingerprints F17_32 (Fig 2b).
pub(crate) fn fig2b(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 2b: /32 prefixes clustered by IID entropy fingerprints (F17_32)",
        "Fig 2b",
    );
    let min = ctx.scale.min_cluster_addrs();
    let seed = ctx.seed;
    let (full_groups, groups) = {
        let h = ctx.hitlist();
        let live = h.live_set();
        (
            fingerprints_by_32_set(h.table(), &live, 9, 32, min),
            fingerprints_by_32_set(h.table(), &live, 17, 32, min),
        )
    };
    let full_pairs: Vec<_> = full_groups
        .iter()
        .map(|(p, f, _)| (*p, f.clone()))
        .collect();
    let k_full = cluster_networks(&full_pairs, 12, None, seed).k;
    let pairs: Vec<_> = groups.iter().map(|(p, f, _)| (*p, f.clone())).collect();
    let c = cluster_networks(&pairs, 12, None, seed);
    out.push_str(&cluster_report(
        &c,
        "IID-only fingerprints collapse network-half structure",
        4,
    ));
    let c4 = cluster_networks(&pairs, 12, Some(4), seed);
    out.push_str("\nfixed k = 4 (the paper's choice):\n");
    out.push_str(&render_clusters(&c4));
    out.push_str(&format!(
        "\nshape: k_iid = {} <= k_full = {k_full} (paper: 4 vs 6)\n",
        c.k
    ));
    out
}

/// Clusters restricted to UDP/53 responders (Fig 3a).
pub(crate) fn fig3a(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 3a: /32s of UDP/53-responsive addresses, clustered (F9_32)",
        "Fig 3a",
    );
    // Probe the whole (non-aliased) hitlist on UDP/53 only.
    let addrs = ctx.hitlist_addrs();
    let p = ctx.pipeline();
    p.warmup_apd(1);
    let filter = p.apd.filter();
    let (kept, _) = filter.split(&addrs);
    let scan = p.scanner.scan(&kept, &expanse_zmap6::module::DnsModule);
    let responsive: Vec<Ipv6Addr> = scan.responsive().collect();
    out.push_str(&format!(
        "UDP/53 responsive: {} of {} probed ({})\n\n",
        responsive.len(),
        kept.len(),
        pct(responsive.len() as f64 / kept.len().max(1) as f64)
    ));
    // Cluster with a lower gate: the responsive set is much smaller.
    let min = (ctx.scale.min_cluster_addrs() / 4).max(10);
    let groups = fingerprints_by_32(&responsive, 9, 32, min);
    if groups.is_empty() {
        out.push_str("not enough responsive density to cluster at this scale\n");
        return out;
    }
    let pairs: Vec<_> = groups.iter().map(|(p, f, _)| (*p, f.clone())).collect();
    let c = cluster_networks(&pairs, 10, None, ctx.seed);
    out.push_str(&cluster_report(
        &c,
        "paper: 'most clusters exhibit low entropy on all but a few nybbles' — \
         DNS servers are easy probabilistic-scanning targets",
        6,
    ));
    // Motif: average entropy of DNS-responder clusters is low.
    let mean_all: f64 = c
        .clusters
        .iter()
        .flat_map(|cl| cl.median_entropy.iter())
        .sum::<f64>()
        / c.clusters
            .iter()
            .map(|cl| cl.median_entropy.len())
            .sum::<usize>() as f64;
    out.push_str(&format!(
        "\nmean median-entropy across clusters: {mean_all:.3} (low = predictable)\n"
    ));
    out
}

/// BGP prefixes colored by their /32's cluster (Fig 3b, unsized zesplot).
pub(crate) fn fig3b(ctx: &mut Ctx) -> String {
    let mut out = header(
        "Fig 3b: BGP prefixes colored by entropy cluster (unsized zesplot)",
        "Fig 3b",
    );
    let min = ctx.scale.min_cluster_addrs();
    let addrs = ctx.hitlist_addrs();
    let groups = fingerprints_by_32(&addrs, 9, 32, min);
    let pairs: Vec<_> = groups.iter().map(|(p, f, _)| (*p, f.clone())).collect();
    if pairs.is_empty() {
        return out + "no /32 groups at this scale\n";
    }
    let c = cluster_networks(&pairs, 12, None, ctx.seed);
    let cluster_of: BTreeMap<_, usize> = c.assignment.iter().cloned().collect();
    let model = ctx.pipeline().model_ref();
    let entries: Vec<ZesEntry> = model
        .announcements()
        .iter()
        .filter_map(|(px, asn)| {
            let key32 = expanse_addr::Prefix::from_bits(px.bits(), 32);
            cluster_of.get(&key32).map(|cl| ZesEntry {
                prefix: *px,
                asn: asn.0,
                value: *cl as f64,
            })
        })
        .collect();
    out.push_str(&format!(
        "{} BGP prefixes carry a cluster assignment\n",
        entries.len()
    ));
    // Heterogeneity check: short prefixes should mix clusters more than
    // long ones (paper: "the mix of clusters is more heterogeneous for
    // larger prefixes").
    let mut short_counts: BTreeMap<(Asn, usize), ()> = BTreeMap::new();
    let mut long_counts: BTreeMap<(Asn, usize), ()> = BTreeMap::new();
    let mut short_as: BTreeMap<Asn, ()> = BTreeMap::new();
    let mut long_as: BTreeMap<Asn, ()> = BTreeMap::new();
    for ((px, asn), e) in model.announcements().iter().zip(entries.iter()) {
        let cl = e.value as usize;
        if px.len() <= 32 {
            short_counts.insert((*asn, cl), ());
            short_as.insert(*asn, ());
        } else {
            long_counts.insert((*asn, cl), ());
            long_as.insert(*asn, ());
        }
    }
    let short_div = short_counts.len() as f64 / short_as.len().max(1) as f64;
    let long_div = long_counts.len() as f64 / long_as.len().max(1) as f64;
    out.push_str(&format!(
        "clusters per AS: short prefixes {short_div:.2}, long prefixes {long_div:.2} \
         (paper: shorter = more heterogeneous)\n"
    ));
    let zp = plot(
        entries,
        ZesConfig {
            sized: false,
            label: "entropy cluster id".into(),
        },
    );
    ctx.write("fig3b_clusters_zesplot.svg", &render_svg(&zp));
    out.push_str("wrote results/fig3b_clusters_zesplot.svg\n");
    out
}
