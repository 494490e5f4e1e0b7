//! `expanse-zesplot`: squarified-treemap visualization of IPv6 prefix
//! datasets (Hendriks' zesplot, as used in Figures 1c, 3b, 5 and 6 of
//! the paper).
//!
//! A zesplot draws one rectangle per input prefix (never the whole
//! address space). Prefixes are ordered by `{prefix length, ASN}` so a
//! prefix keeps its position across plots of the same input; rectangle
//! areas follow prefix size (or are uniform in the *unsized* variant,
//! which Figures 3b/5/6 use), and colors encode a per-prefix value
//! (address count, response count, cluster id) on a log scale.
//!
//! Layout is the squarified-treemap algorithm of Bruls et al., which the
//! zesplot tool extends with alternating row orientation.

mod squarify;
mod svg;

pub use squarify::{layout, Rect};
pub use svg::render_svg;

use expanse_addr::Prefix;

/// One input prefix with its display attributes.
#[derive(Debug, Clone)]
pub struct ZesEntry {
    /// The prefix this rectangle represents.
    pub prefix: Prefix,
    /// Origin AS number (ordering key).
    pub asn: u32,
    /// Color value (e.g. address count). Zero renders white.
    pub value: f64,
}

/// Canvas width in pixels.
const WIDTH: f64 = 800.0;
/// Canvas height in pixels.
const HEIGHT: f64 = 500.0;

/// Plot configuration.
#[derive(Debug, Clone)]
pub struct ZesConfig {
    /// Sized (area ∝ prefix size) or unsized (uniform boxes) plot.
    pub sized: bool,
    /// Legend/label for the color scale.
    pub label: String,
}

/// A laid-out plot ready for rendering.
#[derive(Debug, Clone)]
pub struct ZesPlot {
    /// `(value, probability)` pairs, descending by probability.
    pub entries: Vec<ZesEntry>,
    /// One rectangle per entry, same order.
    pub rects: Vec<Rect>,
    /// Plot configuration used for layout.
    pub config: ZesConfig,
}

/// Area weight of a prefix: wider prefixes get (dampened) larger areas.
/// True proportionality (2^(128-len)) would leave everything but the
/// widest prefix invisible, so zesplot dampens; we use 1.25^(-len),
/// normalized later.
fn area_weight(len: u8) -> f64 {
    1.25f64.powi(-i32::from(len))
}

/// Build a zesplot: sort by `{len, asn, prefix}`, lay out, attach rects.
pub fn plot(mut entries: Vec<ZesEntry>, config: ZesConfig) -> ZesPlot {
    entries.sort_by(|a, b| {
        a.prefix
            .len()
            .cmp(&b.prefix.len())
            .then_with(|| a.asn.cmp(&b.asn))
            .then_with(|| a.prefix.cmp(&b.prefix))
    });
    let areas: Vec<f64> = if config.sized {
        entries
            .iter()
            .map(|e| area_weight(e.prefix.len()))
            .collect()
    } else {
        vec![1.0; entries.len()]
    };
    let rects = layout(&areas, WIDTH, HEIGHT);
    ZesPlot {
        entries,
        rects,
        config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sized() -> ZesConfig {
        ZesConfig {
            sized: true,
            label: "addresses".to_string(),
        }
    }

    fn entries() -> Vec<ZesEntry> {
        let specs = [
            ("2001:db8::/32", 2, 100.0),
            ("2001:db9::/32", 1, 5.0),
            ("2a00::/19", 3, 1000.0),
            ("2a02:123:456::/48", 1, 0.0),
        ];
        specs
            .iter()
            .map(|(p, asn, v)| ZesEntry {
                prefix: p.parse().unwrap(),
                asn: *asn,
                value: *v,
            })
            .collect()
    }

    #[test]
    fn ordering_is_len_then_asn() {
        let p = plot(entries(), sized());
        let lens: Vec<u8> = p.entries.iter().map(|e| e.prefix.len()).collect();
        assert_eq!(lens, vec![19, 32, 32, 48]);
        // The two /32s ordered by ASN.
        assert_eq!(p.entries[1].asn, 1);
        assert_eq!(p.entries[2].asn, 2);
    }

    #[test]
    fn rects_tile_the_canvas() {
        let p = plot(entries(), sized());
        assert_eq!(p.rects.len(), p.entries.len());
        let total: f64 = p.rects.iter().map(|r| r.w * r.h).sum();
        assert!(
            (total - WIDTH * HEIGHT).abs() < 1.0,
            "area {total} vs canvas {}",
            WIDTH * HEIGHT
        );
        for r in &p.rects {
            assert!(r.x >= -1e-9 && r.y >= -1e-9);
            assert!(r.x + r.w <= WIDTH + 1e-6);
            assert!(r.y + r.h <= HEIGHT + 1e-6);
        }
    }

    #[test]
    fn sized_gives_larger_area_to_shorter_prefix() {
        let p = plot(entries(), sized());
        let a19 = p.rects[0].w * p.rects[0].h;
        let a48 = p.rects[3].w * p.rects[3].h;
        assert!(a19 > a48, "a19={a19} a48={a48}");
    }

    #[test]
    fn unsized_gives_equal_areas() {
        let cfg = ZesConfig {
            sized: false,
            ..sized()
        };
        let p = plot(entries(), cfg);
        let areas: Vec<f64> = p.rects.iter().map(|r| r.w * r.h).collect();
        for a in &areas {
            assert!((a - areas[0]).abs() < 1.0, "{areas:?}");
        }
    }

    #[test]
    fn stable_position_across_plots() {
        // Same input prefixes, different values: same rectangles.
        let mut e2 = entries();
        for e in e2.iter_mut() {
            e.value *= 7.0;
        }
        let a = plot(entries(), sized());
        let b = plot(e2, sized());
        for (ra, rb) in a.rects.iter().zip(&b.rects) {
            assert_eq!(ra, rb);
        }
    }
}
