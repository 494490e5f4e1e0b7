//! Target generation (§7): learn new addresses with Entropy/IP and 6Gen
//! from non-aliased seeds, probe what they generate, and compare.
//!
//! Run with: `cargo run --release --example target_generation`

use expanse::eip;
use expanse::model::{AsCategory, InternetModel, ModelConfig};
use expanse::sixgen;
use expanse::zmap6::{module::IcmpEchoModule, ScanConfig, Scanner};
use std::collections::BTreeSet;
use std::net::Ipv6Addr;

fn main() {
    let model = InternetModel::build(ModelConfig::tiny(31));

    // Seeds: known addresses of one hoster site (non-aliased, per §7.1).
    let site = model
        .population
        .sites
        .iter()
        .filter(|s| s.category == AsCategory::Hoster && s.addrs.len() >= 100)
        .max_by_key(|s| s.addrs.len())
        .expect("a populous hoster site");
    // Seed with partial knowledge (every other pool address): the
    // generator's job is to find the live addresses the seeds missed,
    // exactly the paper's setting.
    let seeds: Vec<Ipv6Addr> = site.addrs.iter().copied().step_by(2).collect();
    println!(
        "seeds: {} of {} known addresses in {} ({:?} scheme)\n",
        seeds.len(),
        site.addrs.len(),
        site.site,
        site.scheme
    );

    // ---- Entropy/IP ----------------------------------------------------
    let eip_model = eip::train(&seeds);
    println!("Entropy/IP segments:");
    for s in &eip_model.segments {
        println!(
            "  nybbles {:>2}..{:<2} {:?}",
            s.start + 1,
            s.start + s.len,
            s.band
        );
    }
    let budget = 2000;
    let eip_targets = eip_model.generate(budget);

    // ---- 6Gen -----------------------------------------------------------
    let regions = sixgen::grow_regions(&seeds, &sixgen::SixGenConfig::default());
    println!(
        "\n6Gen: {} regions (top density {:.3})",
        regions.len(),
        regions.first().map_or(0.0, |r| r.density())
    );
    let six_targets = sixgen::generate(&regions, budget);

    // ---- overlap (the paper finds only 0.2 %) ----------------------------
    let eip_set: BTreeSet<&Ipv6Addr> = eip_targets.iter().collect();
    let overlap = six_targets.iter().filter(|a| eip_set.contains(a)).count();
    println!(
        "\ngenerated: Entropy/IP {}, 6Gen {}, overlap {} ({:.2}%)",
        eip_targets.len(),
        six_targets.len(),
        overlap,
        100.0 * overlap as f64 / (eip_targets.len() + six_targets.len()).max(1) as f64
    );

    // ---- probe the generated targets --------------------------------------
    let seed_set: BTreeSet<&Ipv6Addr> = seeds.iter().collect();
    let mut scanner = Scanner::new(model, ScanConfig::default());
    for (name, targets) in [("Entropy/IP", &eip_targets), ("6Gen", &six_targets)] {
        let fresh: Vec<Ipv6Addr> = targets
            .iter()
            .filter(|a| !seed_set.contains(a))
            .copied()
            .collect();
        let result = scanner.scan(&fresh, &IcmpEchoModule);
        println!(
            "{name:<10} {} new targets probed, {} responsive ({:.2}% hit rate)",
            fresh.len(),
            result.responsive_count(),
            100.0 * result.hit_rate()
        );
    }
    println!("\n(the paper reports a 0.3% hit rate over 239M generated targets —");
    println!(" low hit rates are the expected shape for learning-based discovery)");
}
