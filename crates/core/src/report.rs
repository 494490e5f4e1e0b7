//! Source statistics: the Table 2 machinery.

use crate::hitlist::Hitlist;
use expanse_model::{InternetModel, SourceId};
use expanse_stats::Counter;
use std::net::Ipv6Addr;

/// One source's Table 2 row.
#[derive(Debug, Clone)]
pub struct SourceRow {
    /// Which source this row describes.
    pub id: SourceId,
    /// Nature.
    pub nature: &'static str,
    /// Ips.
    pub ips: usize,
    /// New ips.
    pub new_ips: usize,
    /// N ases.
    pub n_ases: usize,
    /// N prefixes.
    pub n_prefixes: usize,
    /// Top-3 AS shares (name, fraction of the source's addresses).
    pub top_as: Vec<(String, f64)>,
}

/// Compute Table 2 rows (per source) plus the Total row.
pub fn source_table(hitlist: &Hitlist, model: &InternetModel) -> Vec<SourceRow> {
    SourceId::ALL
        .into_iter()
        .map(|id| {
            let addrs = hitlist.of_source(id);
            let new_ips = hitlist.new_of_source(id).len();
            row(model, id, id.nature(), addrs.len(), new_ips, addrs)
        })
        .collect()
}

/// Total row over the whole hitlist.
pub fn total_row(hitlist: &Hitlist, model: &InternetModel) -> SourceRow {
    let ips = hitlist.len();
    // The id is unused in the Total row.
    row(
        model,
        SourceId::DomainLists,
        "Total",
        ips,
        ips,
        hitlist.iter(),
    )
}

/// One Table 2 row: `ips` and `new_ips` as given, and the distinct
/// origin ASes and BGP prefixes of `addrs` with its top-3 AS shares.
fn row(
    model: &InternetModel,
    id: SourceId,
    nature: &'static str,
    ips: usize,
    new_ips: usize,
    addrs: impl IntoIterator<Item = Ipv6Addr>,
) -> SourceRow {
    let mut ases: Counter<u32> = Counter::new();
    let mut prefixes: Counter<u128> = Counter::new();
    for a in addrs {
        if let Some((p, asn)) = model.route(a) {
            ases.push(asn.0);
            prefixes.push(p.bits() | u128::from(p.len()));
        }
    }
    let top_as = ases
        .top_shares(3)
        .into_iter()
        .map(|(asn, share)| {
            let name = model.as_name(expanse_model::Asn(asn)).unwrap_or("?");
            (name.to_string(), share)
        })
        .collect();
    SourceRow {
        id,
        nature,
        ips,
        new_ips,
        n_ases: ases.distinct(),
        n_prefixes: prefixes.distinct(),
        top_as,
    }
}

/// Render Table 2.
pub fn render_source_table(rows: &[SourceRow], total: &SourceRow) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<8} {:>9} {:>9} {:>7} {:>7}  top ASes\n",
        "Name", "Nature", "IPs", "new IPs", "#ASes", "#PFXes"
    ));
    let fmt_row = |r: &SourceRow, name: &str| {
        let tops: Vec<String> = r
            .top_as
            .iter()
            .map(|(n, s)| format!("{:.1}% {}", s * 100.0, n))
            .collect();
        format!(
            "{:<8} {:<8} {:>9} {:>9} {:>7} {:>7}  {}\n",
            name,
            r.nature,
            r.ips,
            r.new_ips,
            r.n_ases,
            r.n_prefixes,
            tops.join(", ")
        )
    };
    for r in rows {
        out.push_str(&fmt_row(r, r.id.name()));
    }
    out.push_str(&fmt_row(total, "Total"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use expanse_model::ModelConfig;

    #[test]
    fn table2_rows_consistent() {
        let model = InternetModel::build(ModelConfig::tiny(88));
        let sources = expanse_model::sources::build_sources(&model);
        let mut h = Hitlist::new();
        for s in &sources {
            h.add_from(s.id, s.all(), 0);
        }
        let rows = source_table(&h, &model);
        assert_eq!(rows.len(), 7);
        let total = total_row(&h, &model);
        // new IPs sum to the total uniques.
        let new_sum: usize = rows.iter().map(|r| r.new_ips).sum();
        assert_eq!(new_sum, h.len());
        assert_eq!(total.ips, h.len());
        // Every row is routed (the model only samples announced space).
        for r in &rows {
            assert!(r.n_ases > 0, "{:?} has no ASes", r.id);
            assert!(r.n_prefixes >= r.n_ases / 2);
            assert!(!r.top_as.is_empty());
        }
        // DL is CDN-skewed: top AS share is dominant.
        let dl = rows.iter().find(|r| r.id == SourceId::DomainLists).unwrap();
        assert!(dl.top_as[0].1 > 0.5, "DL top AS share {}", dl.top_as[0].1);
        let render = render_source_table(&rows, &total);
        assert!(render.contains("Scamper"));
        assert!(render.contains("Total"));
    }
}
