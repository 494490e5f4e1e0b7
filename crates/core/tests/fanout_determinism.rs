//! Determinism guard for the battery fan-out: a default-configured
//! pipeline must produce byte-identical scan results whether the battery
//! grid is executed by the worker pool or by one thread.

use expanse_core::{Pipeline, PipelineConfig};
use expanse_model::{ModelConfig, SourceId};

fn pipeline_with(parallel: bool) -> Pipeline {
    // Keep the virtual day cheap; both paths get the identical config.
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        ..PipelineConfig::default()
    };
    if !parallel {
        cfg.scan.fanout = cfg.scan.fanout.serial();
    }
    cfg.plan.min_targets = 30;
    let mut p = Pipeline::new(ModelConfig::tiny(77), cfg);
    p.collect_sources(30);
    p
}

#[test]
fn default_config_round_trips_parallel_and_serial() {
    assert!(
        PipelineConfig::default().scan.fanout.parallel,
        "the pipeline defaults to the parallel executor"
    );
    let (snap_par, multi_par) = pipeline_with(true).run_day_full();
    let (snap_ser, multi_ser) = pipeline_with(false).run_day_full();

    // The per-protocol battery results are identical, field for field.
    // (The snapshot took ownership of each result's merged responsive
    // map, so this comparison covers `by_protocol`; the responsive maps
    // are compared below via the snapshots, and must not be empty —
    // otherwise the equality would be vacuous.)
    assert_eq!(multi_par, multi_ser);
    assert_eq!(multi_par.digest(), multi_ser.digest());
    assert!(multi_par.responsive.is_empty(), "taken by the snapshot");

    // And everything derived from them in the daily snapshot agrees.
    assert_eq!(snap_par.battery_digest, snap_ser.battery_digest);
    assert!(!snap_par.responsive.is_empty(), "someone must answer");
    assert_eq!(snap_par.responsive, snap_ser.responsive);
    assert_eq!(snap_par.hitlist_total, snap_ser.hitlist_total);
    assert_eq!(snap_par.hitlist_after_apd, snap_ser.hitlist_after_apd);
    assert_eq!(snap_par.aliased_prefixes, snap_ser.aliased_prefixes);
    assert_eq!(snap_par.probes_sent, snap_ser.probes_sent);
}

#[test]
fn digest_is_seed_sensitive() {
    // The digest actually discriminates: a different model seed yields a
    // different battery result.
    let (snap_a, _) = pipeline_with(true).run_day_full();
    let mut cfg = PipelineConfig {
        trace_budget: 30,
        ..PipelineConfig::default()
    };
    cfg.plan.min_targets = 30;
    let mut other = Pipeline::new(ModelConfig::tiny(78), cfg);
    other.collect_sources(30);
    let (snap_b, _) = other.run_day_full();
    assert_ne!(snap_a.battery_digest, snap_b.battery_digest);
}

/// The adversarial scenario layer — per-router ICMPv6 token buckets
/// draining inside the battery grid, rotation renumbering, privacy
/// churn, alias fabrics — must not perturb fan-out determinism: the
/// throttle state is cloned into every scan stream's snapshot, so the
/// grid stays byte-identical whether it runs serial or parallel, and
/// across days of rotation churn.
#[test]
fn adversarial_scenario_round_trips_parallel_and_serial() {
    let run = |parallel: bool| {
        let mut cfg = PipelineConfig {
            trace_budget: 30,
            ..PipelineConfig::default()
        };
        if !parallel {
            cfg.scan.fanout = cfg.scan.fanout.serial();
        }
        cfg.plan.min_targets = 30;
        let mut p = Pipeline::new(ModelConfig::adversarial(77), cfg);
        p.collect_sources(30);
        // Cross a rotation boundary (period 3 in the preset) with the
        // daily scenario feed active, like the bench harness does.
        let mut digests = Vec::new();
        for _ in 0..4u16 {
            let day = p.day();
            let feed = p.model_ref().scenario_feed(day);
            p.hitlist.add_from(SourceId::RipeAtlas, &feed, day);
            let (snap, multi) = p.run_day_full();
            assert!(!snap.responsive.is_empty(), "someone must answer");
            digests.push((snap.battery_digest, multi.digest(), snap.probes_sent));
        }
        digests
    };
    assert_eq!(
        run(true),
        run(false),
        "scenario battery digests drifted between executors"
    );
}

/// The parallel fan-out walks — snapshot encode, delta encode, the
/// batched responsiveness pass, the ledger's per-row joins — are
/// byte-identical across worker counts. This is the in-binary guard
/// (serial vs N-thread within one process); the CI multi-thread lane
/// additionally reruns the whole suite under `EXPANSE_THREADS` 1/2/8.
#[test]
fn parallel_walks_match_serial_bytes() {
    let mut p = pipeline_with(true);
    let snap = p.run_day_full().0;
    assert!(!snap.responsive.is_empty(), "someone must answer");

    // Full snapshot encode: serial vs fanned-out, same envelope bytes.
    let encode_at = |p: &mut Pipeline, threads: usize| -> Vec<u8> {
        let mut enc = expanse_addr::Encoder::new(Vec::new(), b"FANGUARD", 1).expect("enc");
        p.hitlist.encode_par(&mut enc, threads).expect("encode");
        enc.finish().expect("finish")
    };
    let serial = encode_at(&mut p, 1);
    for threads in [2usize, 3, 8] {
        assert_eq!(
            serial,
            encode_at(&mut p, threads),
            "snapshot encode drifted at {threads} threads"
        );
    }

    // Delta encode after another day of mutations.
    let mut base = Vec::new();
    p.save_full(&mut base).expect("save_full");
    p.run_day();
    let delta_at = |p: &Pipeline, threads: usize| -> Vec<u8> {
        let mut enc = expanse_addr::Encoder::new(Vec::new(), b"FANGUARD", 1).expect("enc");
        p.hitlist
            .encode_delta_par(&mut enc, threads)
            .expect("delta");
        enc.finish().expect("finish")
    };
    let serial_delta = delta_at(&p, 1);
    for threads in [2usize, 8] {
        assert_eq!(
            serial_delta,
            delta_at(&p, threads),
            "delta encode drifted at {threads} threads"
        );
    }
}
