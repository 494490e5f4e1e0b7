//! The world every workload runs in: scale, per-workload pipeline
//! configuration, the deployed pipeline (journal + registry), and the
//! restart phase all workloads end with.

use crate::metrics::{Outcome, Samples, Workload};
use crate::trace::Tracer;
use expanse_addr::fanout::splitmix64;
use expanse_core::{
    Journal, JournalPolicy, JournalRecord, JournalStore, PathStore, PersistedState, Pipeline,
    PipelineConfig, RetentionConfig, SchedConfig,
};
use expanse_model::{InternetModel, ModelConfig, SourceId};
use expanse_serve::{
    execute, protocol::encode_response, Pinned, Query, Request, SnapshotRegistry, SnapshotView,
};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The synthetic Internet is the same for every `--seed`: a different
/// model seed moves hitlist size and day time by ±30 %, which would
/// drown every bound. `--seed` drives the inputs that leave the volume
/// alone — scan secret, APD fan-out salt, request streams.
pub const WORLD_SEED: u64 = 0x6a5c_e227_53d1_90bb;

/// Per-/48 daily cap of the `days-sched-churn` scheduler.
pub const CHURN_PER_48_CAP: u64 = 256;

/// Full APD never recurs inside a run of the workloads that are not
/// about it (the one `warmup_apd(1)` in set-up seeds the filter).
const APD_NEVER: u16 = 4096;

/// How many times the restart paths are timed.
const RESTART_REPS: usize = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `ModelConfig::paper_scale(0.1)`: ≈46 k hitlist rows, ≈22 k
    /// non-aliased targets, ≈111 k battery probes on a hot day.
    Bench,
    /// `ModelConfig::tiny`, for `--check`.
    Tiny,
}

impl Scale {
    pub fn label(self) -> &'static str {
        match self {
            Scale::Bench => "bench (paper_scale 0.1)",
            Scale::Tiny => "tiny",
        }
    }

    /// Set-ups timed per untraced run; `setup_s` is their median.
    pub fn setups(self) -> usize {
        match self {
            Scale::Bench => 3,
            Scale::Tiny => 1,
        }
    }
}

pub fn model_config(scale: Scale, workload: Workload) -> ModelConfig {
    let base = match scale {
        Scale::Bench => ModelConfig {
            seed: WORLD_SEED,
            ..ModelConfig::paper_scale(0.1)
        },
        Scale::Tiny => ModelConfig::tiny(WORLD_SEED),
    };
    if workload == Workload::DaysSchedChurn {
        ModelConfig {
            scenario: ModelConfig::adversarial(WORLD_SEED).scenario,
            ..base
        }
    } else {
        base
    }
}

/// The pipeline configuration of a workload. `days-sched-churn`'s
/// scheduler budget depends on the warmed hitlist and is set by
/// [`warm_pipeline`].
pub fn pipeline_config(workload: Workload, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.scan.seed = seed;
    cfg.apd.salt = splitmix64(seed);
    cfg.full_apd_every = match workload {
        Workload::DaysApd => 1,
        _ => APD_NEVER,
    };
    if workload == Workload::DaysSchedChurn {
        cfg.retention = RetentionConfig {
            window: Some(5),
            every: 1,
        };
    }
    cfg
}

/// Model build + `collect_sources` + `warmup_apd(1)`: a pipeline ready
/// for its first probing day.
pub fn warm_pipeline(
    model_cfg: &ModelConfig,
    cfg: &PipelineConfig,
    workload: Workload,
) -> Pipeline {
    let mut p = Pipeline::new(model_cfg.clone(), cfg.clone());
    p.collect_sources(model_cfg.runup_days);
    p.warmup_apd(1);
    if workload == Workload::DaysSchedChurn {
        let live = p.hitlist.live_set();
        let (kept, _) = p.apd.filter().split_set(p.hitlist.table(), &live);
        p.cfg.sched = SchedConfig::budgeted((kept.len() as u64 / 2).max(1), CHURN_PER_48_CAP);
    }
    p
}

/// A journal store that mirrors every write into shared memory, so the
/// benchmark can read the journal's bytes while the `Journal` owns the
/// store (restart timing on the journal as of a fixed day, byte checks).
pub struct Tap {
    inner: Box<dyn JournalStore>,
    mirror: Rc<RefCell<Vec<u8>>>,
}

impl JournalStore for Tap {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(bytes)?;
        self.mirror.borrow_mut().extend_from_slice(bytes);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.replace(bytes)?;
        let mut m = self.mirror.borrow_mut();
        m.clear();
        m.extend_from_slice(bytes);
        Ok(())
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.inner.read_all()
    }
}

/// Where a workload's journal lives.
pub enum StoreKind {
    /// In memory: the codec's cost without the disk's.
    Memory,
    /// A [`PathStore`] (fsync per append, atomic-rename compaction) in
    /// a scratch directory under `out/`, removed when the deployment
    /// drops.
    Path,
}

/// What one day cycle did.
pub struct Cycle {
    pub wall_ns: u64,
    pub digest: u64,
    pub probes: u64,
    pub expired: usize,
    pub record: JournalRecord,
}

/// A pipeline as deployed: journaled, and published to a registry.
pub struct Deployment {
    pub p: Pipeline,
    pub model_cfg: ModelConfig,
    journal: Journal<Tap>,
    mirror: Rc<RefCell<Vec<u8>>>,
    pub registry: Arc<SnapshotRegistry>,
    scratch: Option<PathBuf>,
    feed: bool,
}

impl Deployment {
    /// Warm a pipeline and put it in service: journal base written,
    /// first view published.
    pub fn start(
        scale: Scale,
        workload: Workload,
        seed: u64,
        store: StoreKind,
        out_dir: &Path,
    ) -> Deployment {
        let model_cfg = model_config(scale, workload);
        let cfg = pipeline_config(workload, seed);
        let mut p = warm_pipeline(&model_cfg, &cfg, workload);
        let mirror = Rc::new(RefCell::new(Vec::new()));
        let (inner, scratch): (Box<dyn JournalStore>, Option<PathBuf>) = match store {
            StoreKind::Memory => (Box::new(Vec::new()), None),
            StoreKind::Path => {
                static NEXT: AtomicU64 = AtomicU64::new(0);
                let dir = out_dir.join(format!(
                    "tmp-{}-{}",
                    std::process::id(),
                    NEXT.fetch_add(1, Ordering::Relaxed)
                ));
                std::fs::create_dir_all(&dir).expect("create journal scratch dir");
                (Box::new(PathStore::new(dir.join("journal.bin"))), Some(dir))
            }
        };
        let tap = Tap {
            inner,
            mirror: Rc::clone(&mirror),
        };
        let journal =
            Journal::create(tap, JournalPolicy::default(), &mut p).expect("write journal base");
        let registry = Arc::new(SnapshotRegistry::new(SnapshotView::publish(&p)));
        Deployment {
            p,
            model_cfg,
            journal,
            mirror,
            registry,
            scratch,
            feed: workload == Workload::DaysSchedChurn,
        }
    }

    /// One day cycle, start of day to "day N is being served":
    /// (scenario feed ingest →) `run_day` → `Journal::record` →
    /// `SnapshotView::publish` → `SnapshotRegistry::publish`. With a
    /// tracer, each call into a layer gets a span.
    pub fn cycle(&mut self, mut tr: Option<&mut Tracer>) -> Cycle {
        let day = self.p.day();
        let op = u32::from(day);
        let t = Instant::now();
        if self.feed {
            ingest_feed(&mut self.p, day);
        }
        let snap = spanned(&mut tr, "untraced.run_day", "", op, || self.p.run_day());
        // Whether the record appended or compacted names its span.
        if let Some(tr) = tr.as_deref_mut() {
            tr.enter("core.journal.append_s", "", op);
        }
        let record = self.journal.record(&mut self.p).expect("journal record");
        if let Some(tr) = tr.as_deref_mut() {
            tr.exit_as(match record {
                JournalRecord::Appended { .. } => "core.journal.append_s",
                JournalRecord::Compacted { .. } => "core.journal.compact_s",
            });
        }
        let view = spanned(&mut tr, "serve.view.publish_s", "", op, || {
            SnapshotView::publish(&self.p)
        });
        spanned(&mut tr, "serve.registry.publish_s", "", op, || {
            self.registry.publish(view)
        });
        Cycle {
            wall_ns: t.elapsed().as_nanos() as u64,
            digest: snap.battery_digest,
            probes: snap.probes_sent,
            expired: snap.expired_today,
            record,
        }
    }

    /// The journal's bytes right now.
    pub fn journal_bytes(&self) -> Vec<u8> {
        self.mirror.borrow().clone()
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        if let Some(dir) = &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Run `f`, inside a span when tracing.
pub fn spanned<T>(
    tr: &mut Option<&mut Tracer>,
    name: &'static str,
    tag: &'static str,
    op: u32,
    f: impl FnOnce() -> T,
) -> T {
    match tr.as_deref_mut() {
        Some(tr) => tr.span(name, tag, op, f),
        None => f(),
    }
}

pub fn bytes_of(record: JournalRecord) -> u64 {
    match record {
        JournalRecord::Appended { bytes } | JournalRecord::Compacted { bytes } => bytes,
    }
}

/// The restart phase of a traced run, on the workload's own final
/// journal: `Pipeline::resume` — a runnable pipeline — and
/// `SnapshotView::load_journal` — a query replica — timed whole
/// [`RESTART_REPS`] times each (medians reported as `restart_s` and
/// `journal_load_s`), then run again as their parts under spans:
/// replay, model build, view build.
pub fn restart_phase(
    journal: &[u8],
    model_cfg: &ModelConfig,
    cfg: &PipelineConfig,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    let mut restart = Samples::default();
    let mut load = Samples::default();
    for rep in 0..RESTART_REPS as u32 {
        let t = Instant::now();
        let r = Pipeline::resume(model_cfg.clone(), cfg.clone(), &mut &journal[..]);
        restart.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let v = SnapshotView::load_journal(cfg.apd.clone(), &mut &journal[..]);
        load.push(t.elapsed().as_nanos() as u64);
        out.attempted += 2;
        out.failed += u64::from(!matches!(&r, Ok((_, replay)) if !replay.torn_tail));
        out.failed += u64::from(!matches!(&v, Ok((_, replay)) if !replay.torn_tail));
        drop((r, v));

        let st = tr.span("core.journal.replay_s", "", rep, || {
            PersistedState::load(cfg.apd.clone(), &mut &journal[..])
        });
        tr.span("model.build_s", "", rep, || {
            InternetModel::build(model_cfg.clone())
        });
        if let Ok((st, _)) = st {
            tr.span("serve.view.from_state_s", "", rep, || {
                SnapshotView::from_state(&st)
            });
        }
    }
    out.set_noted(
        "restart_s",
        restart.median_ns() as f64 / 1e9,
        restart.note(),
    );
    out.set_noted("journal_load_s", load.median_ns() as f64 / 1e9, load.note());
}

/// A fixed mixed probe set: point lookups (hits and misses), filtered
/// pages, samples and stats, over addresses drawn from `view`. (No
/// `Sched` request: with the scheduler on, a journal-loaded view lists
/// another queue than the published one — see README.)
pub fn probe_set(view: &SnapshotView, n: usize) -> Vec<Request> {
    let ids = view.sorted().as_slice();
    let mut rng = Rng::new(0x9e0b_e5e7);
    (0..n)
        .map(|i| {
            let addr = if ids.is_empty() {
                std::net::Ipv6Addr::UNSPECIFIED
            } else {
                view.table().addr(ids[rng.below(ids.len() as u64) as usize])
            };
            match i % 7 {
                0 | 1 => Request::Lookup { addr },
                2 => Request::Lookup {
                    addr: expanse_addr::u128_to_addr(expanse_addr::addr_to_u128(addr) ^ 0x5a5a),
                },
                3 => Request::Select {
                    query: Query::all().responsive(),
                    cursor: Some(expanse_addr::addr_to_u128(addr)),
                    limit: 64,
                },
                4 => Request::Select {
                    query: Query::all().under(expanse_addr::Prefix::new(addr, 32)),
                    cursor: None,
                    limit: 128,
                },
                5 => Request::Sample {
                    query: Query::all().non_aliased(),
                    k: 32,
                    seed: rng.next_u64(),
                },
                _ => Request::Stats {
                    prefix: Some(expanse_addr::Prefix::new(addr, 48)),
                },
            }
        })
        .collect()
}

/// Do two views answer the 256-request probe set byte-identically?
/// Returns the number of requests that differed.
pub fn views_differ(a: SnapshotView, b: SnapshotView) -> usize {
    let reqs = probe_set(&a, 256);
    let pin = |view| Pinned {
        epoch: 0,
        view: Arc::new(view),
    };
    let (a, b) = (pin(a), pin(b));
    reqs.iter()
        .filter(|r| encode_response(&execute(&a, r)) != encode_response(&execute(&b, r)))
        .count()
}

/// Ingest today's scenario feed, as `days-sched-churn` does before
/// every day.
pub fn ingest_feed(p: &mut Pipeline, day: u16) -> usize {
    let feed = p.model_ref().scenario_feed(day);
    p.hitlist.add_from(SourceId::RipeAtlas, &feed, day)
}

/// The journal checks every workload ends with, on its final journal:
/// a journal-loaded view answers like the published one; a resumed
/// pipeline re-encodes byte-identically to the live one; and both run
/// the next day to the same digest and the same delta record.
///
/// The re-encode check is skipped while the scheduler is on:
/// `Scheduler::plan_day` leaves default entries behind without marking
/// them for the journal, so a live `save_full` carries entries a
/// resumed one lacks (same behaviour, different bytes — see README).
pub fn journal_checks(dep: &mut Deployment, out: &mut Outcome) {
    let journal = dep.journal_bytes();
    let cfg = dep.p.cfg.clone();
    match SnapshotView::load_journal(cfg.apd.clone(), &mut &journal[..]) {
        Ok((loaded, _)) => {
            let differ = views_differ(SnapshotView::publish(&dep.p), loaded);
            out.check(
                "journal_view_answers_like_published",
                differ == 0,
                format!("{differ} of 256 probe requests differ"),
            );
        }
        Err(e) => out.check(
            "journal_view_answers_like_published",
            false,
            format!("{e:?}"),
        ),
    }
    let mut resumed = match Pipeline::resume(dep.model_cfg.clone(), cfg.clone(), &mut &journal[..])
    {
        Ok((p, _)) => p,
        Err(e) => {
            out.check(
                "resumed_pipeline_continues_identically",
                false,
                format!("{e:?}"),
            );
            return;
        }
    };
    if !cfg.sched.enabled {
        let encode = |p: &mut Pipeline| {
            let mut bytes = Vec::new();
            p.save_full(&mut bytes).expect("encode pipeline");
            bytes
        };
        let (live, back) = (encode(&mut dep.p), encode(&mut resumed));
        out.check(
            "resume_reencodes_identically",
            live == back,
            format!(
                "{} journal bytes, {} state bytes",
                journal.len(),
                live.len()
            ),
        );
    }
    let feed = dep.feed;
    let next_day = |p: &mut Pipeline| {
        if feed {
            ingest_feed(p, p.day());
        }
        let digest = p.run_day().battery_digest;
        let mut delta = Vec::new();
        p.append_delta(&mut delta).expect("encode delta");
        (digest, delta)
    };
    let (live, back) = (next_day(&mut dep.p), next_day(&mut resumed));
    out.check(
        "resumed_pipeline_continues_identically",
        live == back,
        format!(
            "next day: digest {:016x}, {} delta bytes",
            live.0,
            live.1.len()
        ),
    );
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64 stream: the benchmark's only randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}
