//! Conditional probability matrices over label sets.
//!
//! Figure 7 of the paper: for each pair of protocols (X, Y), the
//! probability that an address responsive on X is also responsive on Y,
//! `P[Y | X] = |X ∩ Y| / |X|`.

/// A conditional co-occurrence matrix over `n` labels.
#[derive(Debug, Clone)]
pub struct CondMatrix {
    labels: Vec<String>,
    /// `joint[x][y]` = number of items carrying both labels x and y.
    joint: Vec<Vec<u64>>,
}

impl CondMatrix {
    /// Create a matrix over the given labels.
    pub fn new(labels: &[&str]) -> Self {
        let n = labels.len();
        CondMatrix {
            labels: labels.iter().map(|s| s.to_string()).collect(),
            joint: vec![vec![0; n]; n],
        }
    }

    /// Number of labels.
    pub(crate) fn n(&self) -> usize {
        self.labels.len()
    }

    /// Record one item with the given label-membership bitmask
    /// (bit `i` set = item carries label `i`).
    pub fn record_mask(&mut self, mask: u32) {
        let n = self.n();
        for x in 0..n {
            if mask & (1 << x) == 0 {
                continue;
            }
            for y in 0..n {
                if mask & (1 << y) != 0 {
                    self.joint[x][y] += 1;
                }
            }
        }
    }

    /// `P[Y | X]`, or `None` if no item carried X.
    pub fn cond(&self, y: usize, x: usize) -> Option<f64> {
        let base = self.joint[x][x];
        if base == 0 {
            None
        } else {
            Some(self.joint[x][y] as f64 / base as f64)
        }
    }

    /// Render the matrix in the layout of Fig 7: rows = Y (reversed),
    /// columns = X, cell = `P[Y|X]`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{:>10} |", "P[Y|X]"));
        for x in &self.labels {
            out.push_str(&format!(" {x:>8}"));
        }
        out.push('\n');
        for y in (0..self.n()).rev() {
            out.push_str(&format!("{:>10} |", self.labels[y]));
            for x in 0..self.n() {
                match self.cond(y, x) {
                    Some(p) => out.push_str(&format!(" {p:>8.3}")),
                    None => out.push_str(&format!(" {:>8}", "-")),
                }
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagonal_is_one() {
        let mut m = CondMatrix::new(&["a", "b"]);
        m.record_mask(0b01);
        m.record_mask(0b11);
        assert_eq!(m.cond(0, 0), Some(1.0));
        assert_eq!(m.cond(1, 1), Some(1.0));
    }

    #[test]
    fn asymmetric_conditionals() {
        let mut m = CondMatrix::new(&["http", "https"]);
        // 3 http-only, 1 both -> P[https|http] = 1/4, P[http|https] = 1.
        for _ in 0..3 {
            m.record_mask(0b01);
        }
        m.record_mask(0b11);
        assert_eq!(m.cond(1, 0), Some(0.25));
        assert_eq!(m.cond(0, 1), Some(1.0));
        assert_eq!(m.joint[0][0], 4);
        assert_eq!(m.joint[1][1], 1);
    }

    #[test]
    fn empty_base_is_none() {
        let mut m = CondMatrix::new(&["a", "b"]);
        m.record_mask(0b01);
        assert_eq!(m.cond(0, 1), None);
    }

    #[test]
    fn render_contains_all_labels() {
        let mut m = CondMatrix::new(&["icmp", "tcp80"]);
        m.record_mask(0b11);
        let r = m.render();
        assert!(r.contains("icmp"));
        assert!(r.contains("tcp80"));
        assert!(r.contains("1.000"));
    }
}
