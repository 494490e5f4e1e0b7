//! Pipeline throughput bench: the daily merge + responsiveness pass,
//! plus battery, APD-plan, and snapshot save/resume throughput —
//! including the incremental journal (per-day delta bytes vs the full
//! base, and base + delta replay).
//!
//! Not a paper artifact — this is the perf trajectory of the system
//! itself. Besides the rendered report it writes
//! `BENCH_pipeline.json` (machine-readable, uploaded by CI) so the
//! numbers can be tracked across PRs.

use crate::ctx::{header, Ctx};
use expanse_addr::fanout::splitmix64;
use expanse_addr::{u128_to_addr, AddrId, AddrMap};
use expanse_core::{Pipeline, PipelineConfig};
use expanse_packet::ProtoSet;
use std::hint::black_box;
use std::net::Ipv6Addr;
use std::time::Instant;

/// Mean seconds per round of `f` over `rounds` runs.
fn time<T>(rounds: usize, mut f: impl FnMut() -> T) -> f64 {
    let t0 = Instant::now();
    for _ in 0..rounds {
        black_box(f());
    }
    t0.elapsed().as_secs_f64() / rounds as f64
}

/// Run the bench; writes `BENCH_pipeline.json` next to the reports.
pub fn bench_pipeline(ctx: &mut Ctx) -> String {
    let mut out = header(
        "BENCH: daily merge / responsiveness / battery / APD-plan throughput",
        "system perf trajectory, not a paper figure",
    );
    let rounds = match ctx.scale {
        crate::ctx::Scale::Small => 20,
        _ => 5,
    };
    let scale = format!("{:?}", ctx.scale).to_lowercase();
    let model_cfg = ctx.scale.model_config(ctx.seed);
    let synth_n: usize = match ctx.scale {
        crate::ctx::Scale::Small => 400_000,
        _ => 1_000_000,
    };
    let p = ctx.pipeline();
    // Warm the alias filter so the kept set is realistic, then freeze
    // one day's world: targets, battery result, responder set.
    p.warmup_apd(1);
    let live = p.hitlist.live_set();
    let (kept_ids, _) = p.apd.filter().split_set(p.hitlist.table(), &live);
    let kept: Vec<Ipv6Addr> = kept_ids.addrs(p.hitlist.table()).collect();
    let battery = expanse_zmap6::standard_battery();

    // ---- battery: the fan-out grid, as configured ---------------------
    let t0 = Instant::now();
    let multi = p.scanner.scan_battery(&kept, &battery);
    let battery_s = t0.elapsed().as_secs_f64();
    let battery_per_s = (kept.len() * battery.len()) as f64 / battery_s.max(1e-9);

    // ---- daily merge: per-protocol replies → per-address ProtoSet -----
    // Merge into an interned AddrMap; the snapshot takes ownership
    // instead of cloning.
    let merge_col_s = time(rounds, || {
        let mut resp: AddrMap<ProtoSet> = AddrMap::new();
        for r in multi.by_protocol.values() {
            for reply in &r.replies {
                if reply.kind.is_positive() {
                    let e = resp.entry_or(reply.target, ProtoSet::EMPTY);
                    *e = e.with(r.protocol);
                }
            }
        }
        let snapshot_copy = std::mem::take(&mut resp);
        (resp, snapshot_copy)
    });
    let merged = multi.responsive.len().max(1);

    // ---- responsiveness pass: record who answered today ---------------
    // Resolve responders to dense ids once, sort, then write a u16
    // column — the pipeline's actual daily pass.
    let mut last_col: Vec<u16> = vec![u16::MAX; p.hitlist.table().len()];
    let resp_col_s = time(rounds, || {
        let mut day_pass: Vec<(AddrId, ProtoSet)> = multi
            .responsive
            .iter()
            .filter_map(|(a, s)| p.hitlist.id_of(a).map(|id| (id, *s)))
            .collect();
        day_pass.sort_unstable_by_key(|(id, _)| *id);
        for &(id, _) in &day_pass {
            last_col[id.index()] = 7;
        }
        day_pass.len()
    });

    // ---- parallel fan-out: batched day pass --------------------------
    // The model-scale day above sits far below the parallel-dispatch
    // thresholds, so the batched responsiveness column pass is measured
    // on a synthetic hundreds-of-thousands-row hitlist, single-thread
    // vs the worker pool. Outputs are byte-identical by construction
    // (the determinism suites pin that); this measures only throughput.
    let fan_threads = expanse_addr::worker_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Deterministic pseudo-random addresses (splitmix64 is a bijection,
    // so the high halves — and with them the addresses — are distinct).
    let sm = |i: u64| -> u128 {
        let hi = splitmix64(i);
        (u128::from(hi) << 64) | u128::from(splitmix64(hi))
    };
    let fan_rounds = 3;
    // The pass re-marks the same day each round (idempotent), so the
    // timed loops see identical work; a pre-mark outside the timed
    // region takes the one-time column writes off the first round.
    let mut big = expanse_core::Hitlist::new();
    let synth_addrs: Vec<Ipv6Addr> = (0..synth_n as u64).map(sm).map(u128_to_addr).collect();
    big.add_from(expanse_model::SourceId::Ct, &synth_addrs, 0);
    let day_pass_big: Vec<(AddrId, ProtoSet)> = (0..big.table().len())
        .map(|i| {
            (
                AddrId::from_index(i),
                ProtoSet::only(expanse_packet::Protocol::Icmp),
            )
        })
        .collect();
    big.mark_responsive_batch(7, &day_pass_big, 1);
    let mark_1_s = time(fan_rounds, || {
        big.mark_responsive_batch(7, &day_pass_big, 1)
    });
    let mark_n_s = time(fan_rounds, || {
        big.mark_responsive_batch(7, &day_pass_big, fan_threads)
    });
    let resp_par_1 = day_pass_big.len() as f64 / mark_1_s.max(1e-9);
    let resp_par_n = day_pass_big.len() as f64 / mark_n_s.max(1e-9);
    // More threads than cores measures oversubscription, not scaling:
    // the N-thread rate is still recorded, a speedup is not.
    let resp_par_speedup = (fan_threads <= cores).then(|| mark_1_s / mark_n_s.max(1e-12));

    // ---- APD plan off the interned store ------------------------------
    let plan_s = time(rounds.min(5), || {
        expanse_apd::plan_targets_set(p.hitlist.table(), &live, &p.cfg.plan)
    });
    let plan_addrs_per_s = live.len() as f64 / plan_s.max(1e-9);

    // ---- snapshot: persist + resume the whole pipeline state ----------
    // Save is the codec alone; resume also rebuilds the model from
    // config (the deliberate trade: the snapshot stores only
    // pipeline-side state, so restart cost is one model build + one
    // decode instead of replaying every probing day).
    let mut snapshot: Vec<u8> = Vec::new();
    let save_s = time(rounds.min(5), || {
        snapshot.clear();
        p.save_full(&mut snapshot).expect("save_full");
    });
    let snapshot_bytes = snapshot.len();
    // Pair the snapshot size with the hitlist it actually holds: the
    // journal block below runs more probing days and grows the list.
    let hitlist_len = p.hitlist.len();
    let save_mb_per_s = snapshot_bytes as f64 / save_s.max(1e-9) / 1e6;
    let resume_s = time(2, || {
        Pipeline::resume(
            model_cfg.clone(),
            PipelineConfig::default(),
            &mut snapshot.as_slice(),
        )
        .expect("resume")
    });

    // ---- journal: per-day delta records instead of daily full saves ---
    // Run real probing days against the base snapshot above and seal
    // each with one delta record; the ratio of delta to base bytes is
    // what the incremental journal saves a deployment every day, and
    // the replay time is the restart cost of base + deltas.
    let mut journal = snapshot.clone();
    const DELTA_DAYS: usize = 2;
    let mut delta_bytes_per_day = [0u64; DELTA_DAYS];
    let mut delta_append_s = [0f64; DELTA_DAYS];
    let mut last_snapshot = None;
    for (d, bytes) in delta_bytes_per_day.iter_mut().enumerate() {
        last_snapshot = Some(p.run_day());
        let before = journal.len();
        let t0 = Instant::now();
        p.append_delta(&mut journal).expect("append_delta");
        delta_append_s[d] = t0.elapsed().as_secs_f64();
        *bytes = (journal.len() - before) as u64;
    }
    let replay_s = time(2, || {
        let (_, replay) = Pipeline::resume(
            model_cfg.clone(),
            PipelineConfig::default(),
            &mut journal.as_slice(),
        )
        .expect("journal resume");
        assert_eq!(replay.deltas_applied, DELTA_DAYS);
        assert!(!replay.torn_tail);
    });
    let delta_mean = delta_bytes_per_day.iter().sum::<u64>() as f64 / DELTA_DAYS as f64;
    let delta_ratio = delta_mean / snapshot_bytes as f64;

    // ---- service render: the daily publish path -----------------------
    // One hitlist file + one per-protocol view per day; rendering is
    // `write!` into a pre-sized buffer (no per-line `format!`
    // temporary), and this keeps the number under watch.
    let day_snap = last_snapshot.expect("journal block ran at least one day");
    let render_bytes = expanse_core::service::hitlist_file(&day_snap).len()
        + expanse_core::service::protocol_file(&day_snap, expanse_packet::Protocol::Tcp443).len();
    let render_s = time(rounds, || {
        (
            expanse_core::service::hitlist_file(&day_snap),
            expanse_core::service::protocol_file(&day_snap, expanse_packet::Protocol::Tcp443),
        )
    });
    let render_mb_per_s = render_bytes as f64 / render_s.max(1e-9) / 1e6;

    let per_s = |s: f64| merged as f64 / s.max(1e-9);
    out.push_str(&format!(
        "model scale {scale}: hitlist {hitlist_len}, kept {} targets, {} responders\n\n",
        kept.len(),
        merged,
    ));
    out.push_str(&format!(
        "battery           {:>12.0} addr·probe/s  ({} targets × {} protocols)\n",
        battery_per_s,
        kept.len(),
        battery.len()
    ));
    out.push_str(&format!(
        "merge columnar    {:>12.0} addr/s\nrespond columnar  {:>12.0} addr/s\n",
        per_s(merge_col_s),
        per_s(resp_col_s),
    ));
    let speedup_text = resp_par_speedup.map_or_else(
        || "oversubscribed, no speedup reported".to_string(),
        |s| format!("{s:.2}x"),
    );
    out.push_str(&format!(
        "respond par batch {resp_par_1:>12.0} addr/s @1t  {resp_par_n:>12.0} addr/s @{fan_threads}t  ({speedup_text}, {cores} cores)\n",
    ));
    out.push_str(&format!(
        "apd plan          {plan_addrs_per_s:>12.0} addr/s\n"
    ));
    out.push_str(&format!(
        "snapshot save     {:>12.1} MB/s  ({} bytes for {} addresses)\nsnapshot resume   {:>12.3} s  (decode + model rebuild)\n",
        save_mb_per_s, snapshot_bytes, hitlist_len, resume_s,
    ));
    out.push_str(&format!(
        "journal delta     {:>12.0} bytes/day  ({:.1}% of the full snapshot, {DELTA_DAYS} days measured)\njournal replay    {:>12.3} s  (base + {DELTA_DAYS} deltas + model rebuild)\n",
        delta_mean,
        delta_ratio * 100.0,
        replay_s,
    ));
    out.push_str(&format!(
        "service render    {render_mb_per_s:>12.1} MB/s  ({render_bytes} bytes: hitlist + one protocol view)\n",
    ));

    let speedup_json = resp_par_speedup
        .map(|s| format!(", \"parallel_speedup\": {s:.2}"))
        .unwrap_or_default();
    let json = format!(
        "{{\n  \"schema\": 6,\n  \"scale\": \"{scale}\",\n  \"hitlist\": {hitlist_len},\n  \
         \"threads\": {fan_threads},\n  \"cores\": {cores},\n  \
         \"kept_targets\": {},\n  \"responders\": {},\n  \"battery\": {{ \"addr_probes_per_s\": {:.1} }},\n  \
         \"merge\": {{ \"columnar_addrs_per_s\": {:.1} }},\n  \
         \"responsiveness\": {{ \"columnar_addrs_per_s\": {:.1}, \
         \"parallel_batch_addrs_per_s_1t\": {resp_par_1:.1}, \
         \"parallel_batch_addrs_per_s_nt\": {resp_par_n:.1}{speedup_json} }},\n  \
         \"apd_plan\": {{ \"addrs_per_s\": {:.1} }},\n  \
         \"snapshot\": {{ \"bytes\": {snapshot_bytes}, \"save_mb_per_s\": {:.1}, \"resume_s\": {:.4} }},\n  \
         \"journal\": {{ \"delta_days\": {DELTA_DAYS}, \"delta_bytes_per_day\": {:.1}, \
         \"delta_to_base_ratio\": {:.4}, \"append_s_per_day\": {:.5}, \"replay_s\": {:.4} }},\n  \
         \"service\": {{ \"render_bytes\": {render_bytes}, \"render_mb_per_s\": {render_mb_per_s:.1} }}\n}}\n",
        kept.len(),
        merged,
        battery_per_s,
        per_s(merge_col_s),
        per_s(resp_col_s),
        plan_addrs_per_s,
        save_mb_per_s,
        resume_s,
        delta_mean,
        delta_ratio,
        delta_append_s.iter().sum::<f64>() / DELTA_DAYS as f64,
        replay_s,
    );
    ctx.write("BENCH_pipeline.json", &json);
    out.push_str("\nwrote BENCH_pipeline.json\n");
    out
}
