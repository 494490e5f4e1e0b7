//! SVG rendering of laid-out zesplots.

use crate::{ZesPlot, HEIGHT, WIDTH};

/// Map a value to a white→yellow→red heat color on a log scale relative
/// to `max` (zero → white, like the paper's plots).
fn heat_color(value: f64, max: f64) -> String {
    if value <= 0.0 || max <= 0.0 {
        return "#ffffff".to_string();
    }
    let t = ((value.ln_1p()) / (max.ln_1p())).clamp(0.0, 1.0);
    // 0 → light yellow (255,250,205), 1 → dark red (139,0,0).
    let r = 255.0 + (139.0 - 255.0) * t;
    let g = 250.0 + (0.0 - 250.0) * t;
    let b = 205.0 + (0.0 - 205.0) * t;
    format!("#{:02x}{:02x}{:02x}", r as u8, g as u8, b as u8)
}

/// Render the plot as a standalone SVG document. Each rectangle carries
/// a `<title>` tooltip with prefix, ASN and value.
pub fn render_svg(plot: &ZesPlot) -> String {
    let cfg = &plot.config;
    let max = plot.entries.iter().map(|e| e.value).fold(0.0f64, f64::max);
    let mut out = String::with_capacity(plot.entries.len() * 160 + 512);
    out.push_str(&format!(
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.0} {:.0}">"#,
        WIDTH,
        HEIGHT + 24.0,
        WIDTH,
        HEIGHT + 24.0
    ));
    out.push('\n');
    out.push_str(&format!(
        r#"<text x="4" y="{:.0}" font-family="monospace" font-size="12">{} prefixes, color = {} (log scale, max {})</text>"#,
        HEIGHT + 16.0,
        plot.entries.len(),
        cfg.label,
        max
    ));
    out.push('\n');
    for (e, r) in plot.entries.iter().zip(&plot.rects) {
        if r.w <= 0.0 || r.h <= 0.0 {
            continue;
        }
        let color = heat_color(e.value, max);
        out.push_str(&format!(
            r##"<rect x="{:.2}" y="{:.2}" width="{:.2}" height="{:.2}" fill="{}" stroke="#666" stroke-width="0.4"><title>{} AS{} = {}</title></rect>"##,
            r.x, r.y, r.w, r.h, color, e.prefix, e.asn, e.value
        ));
        out.push('\n');
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plot, ZesConfig, ZesEntry};

    fn sample_plot() -> ZesPlot {
        let entries = vec![
            ZesEntry {
                prefix: "2001:db8::/32".parse().unwrap(),
                asn: 65001,
                value: 50.0,
            },
            ZesEntry {
                prefix: "2a00::/24".parse().unwrap(),
                asn: 65002,
                value: 0.0,
            },
        ];
        let cfg = ZesConfig {
            sized: true,
            label: "addresses".to_string(),
        };
        plot(entries, cfg)
    }

    #[test]
    fn svg_structure() {
        let svg = render_svg(&sample_plot());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<rect").count(), 2);
        assert!(svg.contains("2001:db8::/32 AS65001 = 50"));
    }

    #[test]
    fn zero_value_is_white() {
        let svg = render_svg(&sample_plot());
        assert!(svg.contains("#ffffff"), "zero-value prefix must be white");
    }

    #[test]
    fn heat_scale_monotone() {
        let lo = heat_color(1.0, 1000.0);
        let hi = heat_color(1000.0, 1000.0);
        assert_ne!(lo, hi);
        assert_eq!(heat_color(0.0, 100.0), "#ffffff");
        assert_eq!(heat_color(5.0, 0.0), "#ffffff");
        // Max value maps to the dark end.
        assert_eq!(hi, "#8b0000");
    }
}
