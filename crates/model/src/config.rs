//! Model configuration: the knobs of the synthetic Internet that
//! callers vary. The paper-cited rates no caller varies (alias and loss
//! shares, survival rates, QUIC flapping) are constants beside their
//! readers in `population` and `engine`; `ModelConfig::validate`
//! checks them with the rest.
//!
//! The defaults target the paper's *proportions* at roughly 1:100 of its
//! absolute scale (≈550 k hitlist addresses instead of 55.1 M). Tests use
//! [`ModelConfig::tiny`]; the experiment harness uses
//! [`ModelConfig::default`] (or `paper_scale(f)` for sweeps).

use crate::engine::{BASE_LOSS, LOSSY_PREFIX_LOSS, QUIC_FLAP_UP_RATE};
use crate::population::{
    ALIASED_ADDR_SHARE, ALIASED_PREFIX_FRACTION, CLIENT_DAILY_SURVIVAL, CPE_DAILY_SURVIVAL,
    LOSSY_PREFIX_FRACTION, SERVER_DAILY_SURVIVAL,
};
use serde::{Deserialize, Serialize};

/// Knobs for the adversarial periphery scenarios (rotating delegated
/// prefixes, RFC 4941 privacy churn, throttled last-hop routers, and
/// periphery alias fabrics — see `crate::scenario`).
///
/// The default is **all zeros**: every behaviour disabled, which leaves
/// the model byte-identical to a scenario-free build. Tests and the
/// `bench-scenarios` experiment opt in via [`ModelConfig::adversarial`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Delegated /56s that re-number all their hosts every rotation
    /// period (residential prefix rotation).
    pub rotating_56s: usize,
    /// Days between renumber events of a rotating /56.
    pub rotation_period_days: u16,
    /// Live hosts inside each rotating /56 per epoch.
    pub rotation_hosts: usize,
    /// Hosts with RFC 4941 privacy extensions: the temporary IID
    /// regenerates daily while a stable EUI-64 service address persists.
    pub privacy_hosts: usize,
    /// Periphery alias fabrics: whole /64s answering on every probed
    /// address (CPE in promiscuous ndproxy/bridge configurations).
    pub fabric_64s: usize,
    /// Last-hop routers whose ICMPv6 responses sit behind a per-router
    /// token bucket.
    pub throttled_routers: usize,
    /// Token-bucket capacity of a throttled router (tokens).
    pub throttle_capacity: f64,
    /// Token-bucket refill rate of a throttled router (tokens/second).
    pub throttle_refill_per_sec: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            rotating_56s: 0,
            rotation_period_days: 0,
            rotation_hosts: 0,
            privacy_hosts: 0,
            fabric_64s: 0,
            throttled_routers: 0,
            throttle_capacity: 0.0,
            throttle_refill_per_sec: 0.0,
        }
    }
}

impl ScenarioConfig {
    /// Is any adversarial behaviour switched on?
    pub(crate) fn enabled(&self) -> bool {
        self.rotating_56s > 0
            || self.privacy_hosts > 0
            || self.fabric_64s > 0
            || self.throttled_routers > 0
    }
}

/// Top-level configuration for [`crate::InternetModel`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Master seed; all randomness derives from it.
    pub seed: u64,

    // ---- topology ----------------------------------------------------
    /// Number of autonomous systems.
    pub n_as: usize,
    /// Mean announced prefixes per AS (skewed: a few ASes announce many).
    pub mean_prefixes_per_as: f64,

    // ---- population ---------------------------------------------------
    /// Target number of *live* (responsive) hosts across all networks.
    pub n_live_hosts: usize,
    /// Ratio of ghost (known-but-unresponsive) to live addresses in
    /// the address pools sources sample from. The paper observes only
    /// ≈6.5 % of non-aliased hitlist addresses responding (§6.1), i.e.
    /// ≈14 ghosts per live host.
    pub ghost_ratio: f64,

    // ---- aliasing (§5) -------------------------------------------------
    /// Number of Amazon-like aliased /48s under the dominant CDN AS
    /// (the "hook" of Fig 5b; 189 in the paper).
    pub cdn_aliased_48s: usize,
    /// Fraction of aliased machines with a fingerprint pathology
    /// (time-variant option values; Table 5 finds ≈5.7 % inconsistent).
    pub alias_pathology_rate: f64,

    // ---- network weather ------------------------------------------------
    /// Number of ICMP-rate-limited /120 prefixes (§5.1 case 4: six
    /// neighbouring /120s flapping).
    pub rate_limited_120s: usize,

    // ---- simulated days --------------------------------------------------
    /// Length of the source runup history (Fig 1a), in days.
    pub runup_days: u32,

    // ---- adversarial periphery scenarios ---------------------------------
    /// Scenario knobs; all-zero (the default) disables the layer
    /// entirely and keeps legacy builds byte-identical.
    pub scenario: ScenarioConfig,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            seed: 0x6a5c_e227_53d1_90bb,
            n_as: 1000,
            mean_prefixes_per_as: 4.0,
            n_live_hosts: 40_000,
            ghost_ratio: 9.0,
            cdn_aliased_48s: 189,
            alias_pathology_rate: 0.057,
            rate_limited_120s: 6,
            runup_days: 280,
            scenario: ScenarioConfig::default(),
        }
    }
}

impl ModelConfig {
    /// A small configuration for unit/integration tests: builds in
    /// milliseconds, still exhibits every phenomenon (aliasing, schemes,
    /// churn, rate limiting).
    pub fn tiny(seed: u64) -> Self {
        ModelConfig {
            seed,
            n_as: 60,
            mean_prefixes_per_as: 2.5,
            n_live_hosts: 2_500,
            ghost_ratio: 4.0,
            cdn_aliased_48s: 12,
            // Few alias machines exist at tiny scale; a higher pathology
            // rate keeps Table 5's inconsistency mechanics observable.
            alias_pathology_rate: 0.25,
            rate_limited_120s: 2,
            runup_days: 30,
            ..ModelConfig::default()
        }
    }

    /// The tiny configuration with every adversarial periphery behaviour
    /// switched on: rotating delegated /56s, daily privacy-address
    /// churn, periphery alias fabrics, and throttled last-hop routers.
    /// This is what `bench-scenarios` and the stress tests build.
    pub fn adversarial(seed: u64) -> Self {
        ModelConfig {
            scenario: ScenarioConfig {
                rotating_56s: 3,
                rotation_period_days: 3,
                rotation_hosts: 12,
                privacy_hosts: 24,
                fabric_64s: 4,
                throttled_routers: 3,
                throttle_capacity: 6.0,
                throttle_refill_per_sec: 0.02,
            },
            ..ModelConfig::tiny(seed)
        }
    }

    /// Scale population counts by `f` relative to the defaults.
    pub fn paper_scale(f: f64) -> Self {
        let base = ModelConfig::default();
        ModelConfig {
            n_as: ((base.n_as as f64) * f).max(20.0) as usize,
            n_live_hosts: ((base.n_live_hosts as f64) * f).max(500.0) as usize,
            cdn_aliased_48s: ((base.cdn_aliased_48s as f64) * f).max(4.0) as usize,
            ..base
        }
    }

    /// Sanity-check invariants; called by the builder.
    ///
    /// # Panics
    /// Panics on out-of-range probabilities or empty populations.
    pub(crate) fn validate(&self) {
        for (name, p) in [
            ("ALIASED_PREFIX_FRACTION", ALIASED_PREFIX_FRACTION),
            ("ALIASED_ADDR_SHARE", ALIASED_ADDR_SHARE),
            ("alias_pathology_rate", self.alias_pathology_rate),
            ("BASE_LOSS", BASE_LOSS),
            ("LOSSY_PREFIX_FRACTION", LOSSY_PREFIX_FRACTION),
            ("LOSSY_PREFIX_LOSS", LOSSY_PREFIX_LOSS),
            ("SERVER_DAILY_SURVIVAL", SERVER_DAILY_SURVIVAL),
            ("CPE_DAILY_SURVIVAL", CPE_DAILY_SURVIVAL),
            ("CLIENT_DAILY_SURVIVAL", CLIENT_DAILY_SURVIVAL),
            ("QUIC_FLAP_UP_RATE", QUIC_FLAP_UP_RATE),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} = {p} out of [0,1]");
        }
        assert!(self.n_as >= 10, "need at least 10 ASes");
        assert!(self.n_live_hosts >= 100, "need at least 100 live hosts");
        assert!(self.ghost_ratio >= 0.0, "ghost_ratio must be non-negative");
        assert!(self.runup_days >= 14, "need at least 14 days of history");
        if self.scenario.rotating_56s > 0 {
            assert!(
                self.scenario.rotation_period_days >= 1,
                "rotating prefixes need a rotation period of at least one day"
            );
            assert!(
                self.scenario.rotation_hosts >= 1,
                "rotating prefixes need at least one host per epoch"
            );
        }
        if self.scenario.throttled_routers > 0 {
            assert!(
                self.scenario.throttle_capacity > 0.0,
                "throttled routers need a positive bucket capacity"
            );
            assert!(
                self.scenario.throttle_refill_per_sec > 0.0,
                "throttled routers need a positive refill rate"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        ModelConfig::default().validate();
        ModelConfig::tiny(1).validate();
        ModelConfig::paper_scale(0.5).validate();
        ModelConfig::adversarial(1).validate();
    }

    #[test]
    fn scenario_default_is_disabled() {
        assert!(!ScenarioConfig::default().enabled());
        assert!(!ModelConfig::tiny(1).scenario.enabled());
        assert!(ModelConfig::adversarial(1).scenario.enabled());
    }

    #[test]
    #[should_panic(expected = "rotation period")]
    fn rotation_without_period_caught() {
        let cfg = ModelConfig {
            scenario: ScenarioConfig {
                rotating_56s: 2,
                rotation_hosts: 4,
                ..ScenarioConfig::default()
            },
            ..ModelConfig::tiny(1)
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "bucket capacity")]
    fn throttle_without_capacity_caught() {
        let cfg = ModelConfig {
            scenario: ScenarioConfig {
                throttled_routers: 1,
                ..ScenarioConfig::default()
            },
            ..ModelConfig::tiny(1)
        };
        cfg.validate();
    }

    #[test]
    fn tiny_is_small() {
        let t = ModelConfig::tiny(0);
        assert!(t.n_live_hosts < 10_000);
        assert!(t.n_as < 100);
    }

    #[test]
    fn paper_scale_floors() {
        let s = ModelConfig::paper_scale(0.0001);
        s.validate();
        assert!(s.n_as >= 20);
        assert!(s.n_live_hosts >= 500);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_probability_caught() {
        let cfg = ModelConfig {
            alias_pathology_rate: 1.5,
            ..ModelConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn distinct_seeds_distinct_configs() {
        let a = ModelConfig::tiny(1);
        let b = ModelConfig::tiny(2);
        assert_ne!(a.seed, b.seed);
        // Everything else identical.
        assert_eq!(a.n_as, b.n_as);
    }
}
