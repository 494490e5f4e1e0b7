//! The three `days-*` workloads: whole day cycles of a deployed
//! pipeline, and — on a traced run — the same days driven a second time
//! through the public stage functions with a span around each.

use crate::metrics::{Outcome, Samples, Workload};
use crate::trace::Tracer;
use crate::world::{self, bytes_of, Deployment, Scale, StoreKind, CHURN_PER_48_CAP};
use expanse_addr::par::par_sort_by_key;
use expanse_addr::{AddrId, Prefix};
use expanse_apd::AliasFilter;
use expanse_core::{JournalRecord, Pipeline};
use expanse_model::SourceId;
use expanse_packet::ProtoSet;
use expanse_scamper6::{TraceConfig, Tracer as Scamper};
use expanse_sched::{
    PrefixDemand, SchedPlan, MAX_DEMAND_SAMPLE, SCHED_PREFIX_LEN, SPLIT_PREFIX_LEN,
};
use expanse_zmap6::standard_battery;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use std::path::Path;
use std::time::Instant;

/// Day cycles per second of `--seconds`: a run does a **fixed number
/// of days** — this rate × seconds, about `--seconds` of wall time on
/// the 2-core box the rates were taken on — not as many as fit. A day's
/// cost depends on which day it is (responders die off, the day-6
/// expiry shrinks the churn hitlist fourfold), so a time-bounded loop
/// would measure different days on a fast host than on a slow one; a
/// fixed count measures the same work everywhere, and makes every count
/// repeat exactly for a seed.
fn days_per_second(w: Workload, scale: Scale) -> f64 {
    match (w, scale) {
        (Workload::DaysApd, Scale::Bench) => 0.9,
        (Workload::DaysSchedChurn, Scale::Bench) => 25.0,
        (_, Scale::Bench) => 8.0,
        // `--check` runs 0.3 s: two APD days, nine others — past the
        // churn workload's day-6 expiry.
        (Workload::DaysApd, Scale::Tiny) => 6.0,
        (_, Scale::Tiny) => 30.0,
    }
}

fn store_kind(w: Workload) -> StoreKind {
    match w {
        Workload::DaysSchedChurn => StoreKind::Path,
        _ => StoreKind::Memory,
    }
}

/// Per-day counts of the staged driver.
#[derive(Debug, Default, Clone, Copy)]
struct DayCounts {
    plan_prefixes: u64,
    apd_probes: u64,
    kept: u64,
    removed: u64,
    admitted: u64,
    battery_probes: u64,
    responders: u64,
    scamper_probes: u64,
    routers: u64,
    expired: u64,
    interned: u64,
}

/// What one staged day produced, for comparison with `run_day`.
struct StagedDay {
    digest: u64,
    probes: u64,
    live: usize,
    counts: DayCounts,
}

/// The staged driver: a second pipeline's parts driven through the
/// public stage functions in `Pipeline::run_day_full`'s order. The
/// `Pipeline` value is only a parts holder (its `run_day` is never
/// called); the day counter and hot-prefix set, private there, are
/// kept here.
struct Staged {
    parts: Pipeline,
    hot: BTreeSet<Prefix>,
    day: u16,
    feed: bool,
}

impl Staged {
    fn new(parts: Pipeline, feed: bool) -> Staged {
        Staged {
            day: parts.day(),
            parts,
            hot: BTreeSet::new(),
            feed,
        }
    }

    fn run_day(&mut self, tr: &mut Tracer) -> StagedDay {
        let day = self.day;
        let op = u32::from(day);
        let p = &mut self.parts;
        let mut c = DayCounts::default();
        let rows_before = p.hitlist.table().len();
        if self.feed {
            // Span and all: the scenario layer's feed generation is
            // cheap next to the hitlist writes it causes.
            tr.span("core.hitlist.add_s", "", op, || world::ingest_feed(p, day));
        }
        tr.enter("core.pipeline.unattributed_s", "", op);
        p.scanner.network_mut().set_day(day);
        let mut probes = 0u64;
        let live = tr.span("core.hitlist.live_set_s", "", op, || p.hitlist.live_set());

        // ---- aliased prefix detection
        let mut plan: Vec<Prefix> = if day.is_multiple_of(p.cfg.full_apd_every) {
            tr.span("apd.plan_s", "", op, || {
                expanse_apd::plan_targets_set(p.hitlist.table(), &live, &p.cfg.plan)
            })
        } else {
            self.hot.iter().copied().collect()
        };
        if p.cfg.sched.enabled && p.cfg.sched.followup_targets > 0 {
            let suspects = p.sched.suspect_prefixes();
            if !suspects.is_empty() {
                plan.extend(suspects);
                plan.sort();
                plan.dedup();
            }
        }
        c.plan_prefixes = plan.len() as u64;
        let report = if plan.is_empty() {
            None
        } else {
            Some(tr.span("apd.probe_s", "", op, || {
                p.apd.run_day(&mut p.scanner, &plan)
            }))
        };
        let aliased_now = tr.span("apd.classify_s", "", op, || p.apd.aliased_prefixes());
        if let Some(report) = report {
            probes += report.probes_sent;
            c.apd_probes = report.probes_sent;
            for (pfx, o) in &report.observations {
                let nearly = o.merged().count_ones() >= 14;
                if nearly && aliased_now.binary_search(pfx).is_err() {
                    self.hot.insert(*pfx);
                } else {
                    self.hot.remove(pfx);
                }
            }
        }
        let (kept, removed) = tr.span("apd.filter_s", "", op, || {
            let filter = AliasFilter::new(aliased_now.iter().copied());
            let (kept_ids, removed) = filter.split_set(p.hitlist.table(), &live);
            let kept: Vec<Ipv6Addr> = kept_ids.addrs(p.hitlist.table()).collect();
            (kept, removed.len())
        });
        c.kept = kept.len() as u64;
        c.removed = removed as u64;

        // ---- probe scheduling
        let (targets, sched_plan) = if p.cfg.sched.enabled {
            let (t, plan) = schedule_targets(p, &self.hot, day, &kept, &aliased_now, tr);
            (t, Some(plan))
        } else {
            (kept, None)
        };
        c.admitted = targets.len() as u64;

        // ---- scamper
        let budget = p.cfg.trace_budget;
        let trace_targets: Vec<Ipv6Addr> = if let Some(plan) = &sched_plan {
            let mut tt = plan.trace_targets();
            tt.truncate(budget);
            let seen: BTreeSet<Ipv6Addr> = tt.iter().copied().collect();
            let room = budget - tt.len();
            tt.extend(
                targets
                    .iter()
                    .copied()
                    .filter(|a| !seen.contains(a))
                    .take(room),
            );
            tt
        } else {
            targets.iter().copied().take(budget).collect()
        };
        let harvest = tr.span("scamper6.harvest_s", "", op, || {
            let cfg = TraceConfig {
                src: p.cfg.scan.src,
                seed: p.cfg.scan.seed ^ 0x7ace,
                ..TraceConfig::default()
            };
            Scamper::new(p.scanner.network_mut(), cfg).harvest(&trace_targets)
        });
        probes += harvest.probes_sent;
        c.scamper_probes = harvest.probes_sent;
        c.routers = harvest.routers.len() as u64;
        tr.span("core.hitlist.add_s", "", op, || {
            p.hitlist.add_from(SourceId::Scamper, &harvest.routers, day)
        });

        // ---- battery
        let threads = expanse_addr::worker_threads();
        let (mut multi, digest) = tr.span("zmap6.battery_s", "", op, || {
            let hl = &p.hitlist;
            let multi = p
                .scanner
                .scan_battery_resolved(&targets, &standard_battery(), &mut |a| {
                    hl.id_of(a).expect("responder not in hitlist")
                });
            let digest = multi.digest();
            (multi, digest)
        });
        probes += multi.total_sent();
        c.battery_probes = multi.total_sent();

        // ---- ledger + responsiveness columns
        let day_pass = tr.span("addr.par_sort_s", "", op, || {
            let mut pass: Vec<(AddrId, ProtoSet)> = multi.resolved_pairs().collect();
            par_sort_by_key(&mut pass, threads, |&(id, _)| id);
            pass
        });
        c.responders = day_pass.len() as u64;
        tr.span("core.ledger.record_s", "", op, || {
            p.ledger
                .record_day_threads(day, &day_pass, &p.hitlist, threads)
        });
        tr.span("core.hitlist.mark_s", "", op, || {
            p.hitlist.mark_responsive_batch(day, &day_pass, threads)
        });

        // ---- discovery-cost accounting
        let outcomes = tr.span("core.hitlist.charge_s", "", op, || {
            let mut outcomes: BTreeMap<Prefix, (u64, u64)> = BTreeMap::new();
            for &a in &targets {
                outcomes
                    .entry(Prefix::new(a, SCHED_PREFIX_LEN))
                    .or_insert((0, 0))
                    .0 += 1;
            }
            for &(id, _) in &day_pass {
                let a = p.hitlist.table().addr(id);
                outcomes
                    .entry(Prefix::new(a, SCHED_PREFIX_LEN))
                    .or_insert((0, 0))
                    .1 += 1;
            }
            for (&net, &(spent, _)) in &outcomes {
                p.hitlist.charge_probes(net, spent);
            }
            outcomes
        });
        if p.cfg.sched.enabled {
            tr.span("sched.record_s", "", op, || {
                let folded: Vec<(Prefix, u64, u64)> = outcomes
                    .iter()
                    .map(|(&net, &(spent, found))| (net, spent, found))
                    .collect();
                p.sched.record_day(day, &folded);
            });
        }

        // ---- retention
        let expired = match p.cfg.retention.window {
            Some(window) if day.is_multiple_of(p.cfg.retention.every.max(1)) => {
                tr.span("core.hitlist.expire_s", "", op, || {
                    p.hitlist.expire_unresponsive(day, window)
                })
            }
            _ => 0,
        };
        c.expired = expired as u64;
        drop(multi.take_responsive());
        tr.exit();
        c.interned = (p.hitlist.table().len() - rows_before) as u64;
        self.day += 1;
        StagedDay {
            digest,
            probes,
            live: p.hitlist.len(),
            counts: c,
        }
    }
}

/// `Pipeline::schedule_targets`, reconstructed from the scheduler's
/// public API: group the kept members by /48, plan the day, admit a
/// day-rotated window of each quota group.
fn schedule_targets(
    p: &mut Pipeline,
    hot: &BTreeSet<Prefix>,
    day: u16,
    kept: &[Ipv6Addr],
    aliased_now: &[Prefix],
    tr: &mut Tracer,
) -> (Vec<Ipv6Addr>, SchedPlan) {
    let op = u32::from(day);
    let (groups, mut plan) = tr.span("sched.plan_s", "", op, || {
        let mut groups: BTreeMap<Prefix, Vec<Ipv6Addr>> = BTreeMap::new();
        for &a in kept {
            groups
                .entry(Prefix::new(a, SCHED_PREFIX_LEN))
                .or_default()
                .push(a);
        }
        let demands: Vec<PrefixDemand> = groups
            .iter()
            .map(|(&net, members)| {
                let mut sample: Vec<Ipv6Addr> =
                    members.iter().copied().take(MAX_DEMAND_SAMPLE).collect();
                sample.sort_unstable();
                PrefixDemand {
                    net,
                    candidates: members.len() as u64,
                    sample,
                }
            })
            .collect();
        let suspects: Vec<Prefix> = hot.iter().copied().collect();
        let plan = p
            .sched
            .plan_day(&p.cfg.sched, day, &demands, aliased_now, &suspects);
        (groups, plan)
    });
    let targets = tr.span("sched.admit_s", "", op, || {
        let mut qgroups: BTreeMap<Prefix, Vec<Ipv6Addr>> = BTreeMap::new();
        for (&net, members) in &groups {
            for &a in members {
                let p52 = Prefix::new(a, SPLIT_PREFIX_LEN);
                let key = if plan.quotas.contains_key(&p52) {
                    p52
                } else {
                    net
                };
                qgroups.entry(key).or_default().push(a);
            }
        }
        let mut selected: BTreeSet<Ipv6Addr> = BTreeSet::new();
        for (key, members) in &qgroups {
            let Some(&quota) = plan.quotas.get(key) else {
                continue;
            };
            let m = members.len();
            let q = quota.min(m as u64) as usize;
            if q == 0 {
                continue;
            }
            let start = if q >= m { 0 } else { (day as usize * q) % m };
            for i in 0..q {
                let a = members[(start + i) % m];
                if plan.admit(a) {
                    selected.insert(a);
                }
            }
        }
        kept.iter()
            .copied()
            .filter(|a| selected.contains(a))
            .collect()
    });
    (targets, plan)
}

/// `(day, /48)` pairs whose battery spend exceeded the cap today.
fn cap_violations(before: &BTreeMap<Prefix, u64>, after: &BTreeMap<Prefix, u64>) -> u64 {
    after
        .iter()
        .filter(|&(net, &cum)| cum - before.get(net).copied().unwrap_or(0) > CHURN_PER_48_CAP)
        .count() as u64
}

/// Run one `days-*` workload.
pub fn run(
    workload: Workload,
    scale: Scale,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
) -> Outcome {
    let mut out = Outcome::default();
    let churn = workload == Workload::DaysSchedChurn;
    // A traced run drives every day twice (untraced + staged), so it
    // does half the days in the same time.
    let n_days = (days_per_second(workload, scale) * seconds / if trace { 2.0 } else { 1.0 })
        .ceil()
        .max(1.0) as usize;

    // ---- set-up
    let mut setup = Samples::default();
    let mut dep = None;
    for _ in 0..if trace { 1 } else { scale.setups() } {
        drop(dep.take());
        let t = Instant::now();
        dep = Some(Deployment::start(
            scale,
            workload,
            seed,
            store_kind(workload),
            out_dir,
        ));
        setup.push(t.elapsed().as_nanos() as u64);
    }
    let mut dep = dep.expect("at least one set-up");
    let mut tracer = trace.then(Tracer::new);
    let mut staged = trace.then(|| {
        // The staged twin is warmed from the base configuration, like
        // the deployment was (the churn budget is derived in warm-up).
        let base = world::pipeline_config(workload, seed);
        let parts = world::warm_pipeline(&dep.model_cfg, &base, workload);
        assert_eq!(
            parts.cfg.sched, dep.p.cfg.sched,
            "twin derived another budget"
        );
        Staged::new(parts, churn)
    });
    out.facts.push(format!(
        "hitlist {} live rows after warm-up; journal on {}",
        dep.p.hitlist.len(),
        if churn { "PathStore (fsync)" } else { "memory" }
    ));

    // ---- the measured days
    let mut cycles = Samples::default();
    let mut journal_bytes = 0u64;
    let mut compactions = 0u64;
    let mut counts: Vec<DayCounts> = Vec::new();
    let mut view_rows = 0u64;
    let mut disagreements = 0u64;
    let mut violations = 0u64;
    let mut spent: BTreeMap<Prefix, u64> = if churn {
        dep.p.hitlist.probes_spent().collect()
    } else {
        BTreeMap::new()
    };
    for _ in 0..n_days {
        let cycle = dep.cycle(tracer.as_mut());
        cycles.push(cycle.wall_ns);
        out.attempted += 1;
        journal_bytes += bytes_of(cycle.record);
        compactions += u64::from(matches!(cycle.record, JournalRecord::Compacted { .. }));
        view_rows += dep.registry.pin().view.len() as u64;
        if churn {
            let after: BTreeMap<Prefix, u64> = dep.p.hitlist.probes_spent().collect();
            violations += cap_violations(&spent, &after);
            spent = after;
        }
        if let (Some(staged), Some(tr)) = (staged.as_mut(), tracer.as_mut()) {
            let day = staged.run_day(tr);
            let agree = day.digest == cycle.digest
                && day.probes == cycle.probes
                && day.live == dep.p.hitlist.len()
                && day.counts.expired == cycle.expired as u64;
            disagreements += u64::from(!agree);
            counts.push(day.counts);
        }
    }
    let days = n_days as f64;
    out.facts.push(format!("{n_days} day cycles measured"));

    // ---- restart phase (traced runs) + checks
    if let Some(tr) = tracer.as_mut() {
        let journal = dep.journal_bytes();
        world::restart_phase(&journal, &dep.model_cfg, &dep.p.cfg, tr, &mut out);
    }
    world::journal_checks(&mut dep, &mut out);
    if churn {
        out.check(
            "per_48_cap_never_exceeded",
            violations == 0,
            format!("{violations} (day, /48) pairs over {CHURN_PER_48_CAP}"),
        );
    }
    if trace {
        out.check(
            "staged_days_agree_with_run_day",
            disagreements == 0,
            format!(
                "{disagreements} of {n_days} days differ in digest, probes, live rows or expiries"
            ),
        );
    }

    // ---- metrics
    let cycle_sum_s = cycles.sum_ns() as f64 / 1e9;
    out.set_noted("setup_s", setup.median_ns() as f64 / 1e9, setup.note());
    out.set_noted("op_p50_ms", cycles.median_ns() as f64 / 1e6, cycles.note());
    out.set("ops_per_s", days / cycle_sum_s);
    out.set("journal_bytes_per_day", journal_bytes as f64 / days);
    out.set("peak_rss_mb", world::peak_rss_mb());
    if let Some(tr) = &tracer {
        let self_times = tr.self_times();
        // Traced minus untraced, over the same days: the staged day
        // span against `run_day`'s.
        let total = |key: &str| self_times.get(key).map_or(0, |s| s.total_ns) as f64;
        let untraced = total("untraced.run_day").max(1.0);
        out.set(
            "trace.overhead_share",
            (total("core.pipeline.unattributed_s") - untraced) / untraced,
        );
        for (key, st) in self_times {
            // Restart spans are per repetition, day spans per day.
            let per = if is_restart_span(&key) {
                st.count as f64
            } else {
                days
            };
            out.set(&key, st.self_ns as f64 / 1e9 / per);
        }
        out.values.remove("untraced.run_day");
        let sum = |f: fn(&DayCounts) -> u64| counts.iter().map(f).sum::<u64>() as f64;
        out.set("zmap6.battery.probes", sum(|c| c.battery_probes) / days);
        out.set("zmap6.battery.responders", sum(|c| c.responders) / days);
        out.set(
            "zmap6.battery.hit_share",
            sum(|c| c.responders) / sum(|c| c.admitted).max(1.0),
        );
        out.set("apd.plan.prefixes", sum(|c| c.plan_prefixes) / days);
        out.set("apd.probe.probes", sum(|c| c.apd_probes) / days);
        out.set("apd.filter.kept", sum(|c| c.kept) / days);
        out.set("apd.filter.removed", sum(|c| c.removed) / days);
        if churn {
            out.set("sched.admitted", sum(|c| c.admitted) / days);
            out.set(
                "sched.yield",
                sum(|c| c.responders) / sum(|c| c.admitted).max(1.0),
            );
        }
        out.set("scamper6.probes", sum(|c| c.scamper_probes) / days);
        out.set("scamper6.routers", sum(|c| c.routers) / days);
        out.set("core.hitlist.expired", sum(|c| c.expired) / days);
        out.set("addr.interned", sum(|c| c.interned) / days);
        out.set("core.journal.append_bytes", journal_bytes as f64 / days);
        out.set("core.journal.compactions", compactions as f64 / days);
        out.set("serve.view.rows", view_rows as f64 / days);
        out.set(
            "core.pipeline.day_cycle_max_s",
            cycles.max_ns() as f64 / 1e9,
        );
        let path = out_dir.join(format!("trace-{}.json", workload.name()));
        tr.write_json(&path, workload.name(), "day")
            .expect("write trace file");
        out.facts
            .push(format!("trace written to {}", path.display()));
    }
    out
}

fn is_restart_span(key: &str) -> bool {
    matches!(
        key,
        "core.journal.replay_s" | "model.build_s" | "serve.view.from_state_s"
    )
}
