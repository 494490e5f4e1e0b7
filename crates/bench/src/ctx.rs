//! Shared experiment context: one model + hitlist, reused across
//! experiments so `all` doesn't rebuild the world 28 times.

use expanse_core::{Pipeline, PipelineConfig};
use expanse_model::ModelConfig;
use std::net::Ipv6Addr;
use std::path::PathBuf;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Fast smoke runs (CI): tiny model.
    Small,
    /// The default for `experiments all`: ≈1:300 of the paper.
    Mid,
    /// ≈1:100 of the paper; minutes per heavy experiment.
    Full,
}

impl Scale {
    /// Parse from the command-line string form.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "mid" => Some(Scale::Mid),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The model configuration this scale expands to.
    pub(crate) fn model_config(self, seed: u64) -> ModelConfig {
        match self {
            Scale::Small => ModelConfig::tiny(seed),
            Scale::Mid => ModelConfig {
                seed,
                ..ModelConfig::paper_scale(0.3)
            },
            Scale::Full => ModelConfig {
                seed,
                ..ModelConfig::default()
            },
        }
    }

    /// The `n ≥ 100` clustering gate, scaled with the population.
    pub(crate) fn min_cluster_addrs(self) -> usize {
        match self {
            Scale::Small => 50,
            Scale::Mid => 100,
            Scale::Full => 100,
        }
    }
}

/// Shared state for one harness invocation.
pub struct Ctx {
    /// Model scale preset.
    pub scale: Scale,
    /// Master seed for the model.
    pub seed: u64,
    /// Directory experiment reports are written to.
    pub out_dir: PathBuf,
    /// Lazily built model-backed pipeline with fully collected sources.
    pipeline: Option<Pipeline>,
}

impl Ctx {
    /// Create a new instance.
    pub fn new(scale: Scale, seed: u64, out_dir: PathBuf) -> Self {
        std::fs::create_dir_all(&out_dir).expect("create results dir");
        Ctx {
            scale,
            seed,
            out_dir,
            pipeline: None,
        }
    }

    /// The shared pipeline (model + sources + hitlist), built on first
    /// use with all sources fully collected.
    pub(crate) fn pipeline(&mut self) -> &mut Pipeline {
        if self.pipeline.is_none() {
            let model_cfg = self.scale.model_config(self.seed);
            let runup = model_cfg.runup_days;
            let mut p = Pipeline::new(model_cfg, PipelineConfig::default());
            p.collect_sources(runup);
            self.pipeline = Some(p);
        }
        self.pipeline.as_mut().expect("just built")
    }

    /// The full hitlist address vector (materialized from the shared
    /// pipeline's interned store, insertion order).
    pub(crate) fn hitlist_addrs(&mut self) -> Vec<Ipv6Addr> {
        self.pipeline().hitlist.iter().collect()
    }

    /// Write an artifact file under the results dir.
    pub fn write(&self, name: &str, content: &str) {
        let path = self.out_dir.join(name);
        std::fs::write(&path, content).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    }
}

/// Format a share as `12.3%`.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Pretty header for a report section.
pub(crate) fn header(title: &str, paper_ref: &str) -> String {
    format!("=== {title} ===\n    (paper: {paper_ref})\n\n")
}
