//! Entropy atlas (§4): cluster every /32 of the hitlist by entropy
//! fingerprint, print the Fig 2 cluster table, and write zesplot SVGs
//! (Fig 1c / Fig 3b style) to `./out/`.
//!
//! Run with: `cargo run --release --example entropy_atlas`

use expanse::entropy::{cluster_networks, fingerprints_by_32, render_clusters};
use expanse::model::{InternetModel, ModelConfig};
use expanse::stats::Counter;
use expanse::zesplot::{plot, render_svg, ZesConfig, ZesEntry};
use std::net::Ipv6Addr;

fn main() {
    let model = InternetModel::build(ModelConfig::tiny(12));

    // The hitlist = all source pools (aliased space included, as in §4).
    let sources = expanse::model::sources::build_sources(&model);
    let mut hitlist: Vec<Ipv6Addr> = Vec::new();
    for s in &sources {
        hitlist.extend_from_slice(s.all());
    }
    hitlist.sort();
    hitlist.dedup();
    println!("hitlist: {} addresses", hitlist.len());

    // ---- Fig 2a: full-address fingerprints F9_32 ----------------------
    let min_addrs = 60; // scaled-down stand-in for the paper's 100
    let groups32 = fingerprints_by_32(&hitlist, 9, 32, min_addrs);
    println!(
        "/32 prefixes with ≥{min_addrs} addresses: {}",
        groups32.len()
    );
    let pairs: Vec<_> = groups32.iter().map(|(p, f, _)| (*p, f.clone())).collect();
    let clustering = cluster_networks(&pairs, 12, None, 42);
    println!(
        "\n== Fig 2a: clusters of full-address fingerprints (k={}) ==",
        clustering.k
    );
    print!("{}", render_clusters(&clustering));

    // ---- Fig 2b: IID fingerprints F17_32 -------------------------------
    let groups_iid = fingerprints_by_32(&hitlist, 17, 32, min_addrs);
    let pairs_iid: Vec<_> = groups_iid.iter().map(|(p, f, _)| (*p, f.clone())).collect();
    let clustering_iid = cluster_networks(&pairs_iid, 12, None, 42);
    println!(
        "\n== Fig 2b: clusters of IID fingerprints (k={}) ==",
        clustering_iid.k
    );
    print!("{}", render_clusters(&clustering_iid));

    // ---- zesplots -------------------------------------------------------
    std::fs::create_dir_all("out").expect("create out/");

    // Fig 1c: hitlist addresses per announced BGP prefix (sized plot).
    let mut per_prefix: Counter<(u128, u8, u32)> = Counter::new();
    for a in &hitlist {
        if let Some((p, asn)) = model.bgp.lookup(*a) {
            per_prefix.push((p.bits(), p.len(), asn.0));
        }
    }
    let entries: Vec<ZesEntry> = model
        .bgp
        .announcements()
        .iter()
        .map(|(p, asn)| ZesEntry {
            prefix: *p,
            asn: asn.0,
            value: per_prefix.get(&(p.bits(), p.len(), asn.0)) as f64,
        })
        .collect();
    let fig1c = plot(
        entries,
        ZesConfig {
            label: "hitlist addresses".into(),
            ..ZesConfig::default()
        },
    );
    std::fs::write("out/fig1c_hitlist_zesplot.svg", render_svg(&fig1c)).expect("write fig1c");

    // Fig 3b-style: BGP prefixes colored by dominant entropy cluster
    // (unsized plot).
    let cluster_of_32: std::collections::BTreeMap<_, usize> =
        clustering.assignment.iter().cloned().collect();
    let entries3b: Vec<ZesEntry> = model
        .bgp
        .announcements()
        .iter()
        .filter_map(|(p, asn)| {
            let key = expanse::addr::Prefix::from_bits(p.bits(), 32);
            cluster_of_32.get(&key).map(|c| ZesEntry {
                prefix: *p,
                asn: asn.0,
                value: *c as f64,
            })
        })
        .collect();
    let fig3b = plot(
        entries3b,
        ZesConfig {
            sized: false,
            label: "entropy cluster id".into(),
            ..ZesConfig::default()
        },
    );
    std::fs::write("out/fig3b_clusters_zesplot.svg", render_svg(&fig3b)).expect("write fig3b");

    println!("\nwrote out/fig1c_hitlist_zesplot.svg and out/fig3b_clusters_zesplot.svg");
}
