// Fixture: iteration-order, wall-clock, and ad-hoc threading hazards
// in code that feeds a deterministic byte stream.

use std::collections::HashMap;
use std::collections::HashSet;
use std::time::Instant;
use std::time::SystemTime;

pub fn digest(items: &[u64]) -> u64 {
    let mut seen: HashSet<u64> = HashSet::new();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &i in items {
        seen.insert(i);
        *counts.entry(i).or_default() += 1;
    }
    let t0 = Instant::now();
    let _stamp = SystemTime::now();
    let h = std::thread::spawn(move || 1u64);
    let r = h.join().unwrap_or(0);
    seen.len() as u64 + counts.len() as u64 + t0.elapsed().as_secs() + r
}

// A BTreeMap is fine: ordered iteration keeps the stream stable.
pub fn ordered(items: &[u64]) -> usize {
    let mut m = std::collections::BTreeMap::new();
    for &i in items {
        m.insert(i, ());
    }
    m.len()
}

// An audited exception: the annotation suppresses the finding.
pub fn audited(items: &[u64]) -> bool {
    // check: allow(hashmap, membership probe only; never iterated)
    let seen: std::collections::HashSet<u64> = items.iter().copied().collect();
    seen.contains(&0)
}
