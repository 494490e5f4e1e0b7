//! `expanse-zmap6`: a ZMapv6-style stateless IPv6 scanner, sans-IO.
//!
//! A faithful port of the ZMap architecture (Durumeric et al., and the
//! TUM ZMapv6 fork the paper uses) to the simulation substrate:
//!
//! - **probe modules** ([`module`]) — ICMPv6 echo, TCP SYN (80/443) with
//!   the §5.4 `synopt` fingerprinting option set, UDP/53 DNS, UDP/443
//!   QUIC;
//! - **stateless validation** ([`validate`]) — probe fields are a keyed
//!   hash of the destination, so replies validate without per-target
//!   state;
//! - **pseudorandom target permutation** (`permute`) — a keyed Feistel
//!   permutation with sharding (zmap uses a multiplicative cyclic group;
//!   same contract);
//! - **the scan loop** (`scanner`) — rate-limited sends over a
//!   [`expanse_netsim::Network`], validated receive path, per-protocol
//!   and merged results (`results`).
//!
//! ```no_run
//! use expanse_zmap6::{ScanConfig, Scanner, module::IcmpEchoModule};
//! use expanse_model::{InternetModel, ModelConfig};
//!
//! let net = InternetModel::build(ModelConfig::tiny(1));
//! let mut scanner = Scanner::new(net, ScanConfig::default());
//! let targets = vec!["2001:db8::1".parse().unwrap()];
//! let result = scanner.scan(&targets, &IcmpEchoModule);
//! println!("{} responsive", result.responsive_count());
//! ```

mod blacklist;
pub mod module;
mod permute;
mod results;
mod scanner;
pub mod validate;

pub use blacklist::Blacklist;
pub use module::{standard_battery, ProbeModule, ReplyKind, SynAckInfo};
pub use permute::Permutation;
pub use results::{MultiScanResult, ProbeReply, ScanResult};
pub use scanner::{ScanConfig, Scanner};
pub use validate::Validator;
