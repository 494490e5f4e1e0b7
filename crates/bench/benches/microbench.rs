//! Criterion micro-benchmarks for the performance-critical substrates:
//! trie LPM, fan-out generation, entropy fingerprints, k-means,
//! Entropy/IP and 6Gen generation, packet encode/decode, and the scanner
//! loop.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use expanse_addr::fanout::splitmix64;
use expanse_addr::{addr_to_u128, fanout16, keyed_random_addr, u128_to_addr, Prefix};
use expanse_entropy::Fingerprint;
use expanse_model::{InternetModel, ModelConfig};
use expanse_netsim::{Network, Time};
use expanse_packet::{Datagram, Icmpv6Message, TcpSegment};
use expanse_trie::PrefixTrie;
use expanse_zmap6::{module::IcmpEchoModule, Permutation, ScanConfig, Scanner};
use std::net::Ipv6Addr;

fn bench_trie(c: &mut Criterion) {
    let mut g = c.benchmark_group("trie");
    let mut trie = PrefixTrie::new();
    for i in 0..10_000u128 {
        let len = 32 + ((i % 5) * 8) as u8;
        trie.insert(Prefix::from_bits((0x2000u128 + i) << 96, len), i);
    }
    let queries: Vec<Ipv6Addr> = (0..1024u128)
        .map(|i| u128_to_addr(((0x2000u128 + i * 7) << 96) | i))
        .collect();
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("lpm_10k_prefixes", |b| {
        b.iter(|| {
            let mut hits = 0;
            for q in &queries {
                if trie.longest_match(*q).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    // BGP-table shape: the bench-scale world's announcements (≈ 650
    // prefixes, /32–/48) looked up with its own pool addresses — the
    // route lookup every probe pays.
    let world = InternetModel::build(ModelConfig::paper_scale(0.1));
    let routes: PrefixTrie<u32> = world
        .bgp
        .announcements()
        .iter()
        .map(|(p, asn)| (*p, asn.0))
        .collect();
    let pool: Vec<Ipv6Addr> = world
        .population
        .sites
        .iter()
        .flat_map(|site| site.addrs.iter().copied())
        .collect();
    let mut queries: Vec<Ipv6Addr> = pool.iter().step_by(pool.len() / 4096).copied().collect();
    // Scan order is a keyed permutation, not pool order.
    queries.sort_by_key(|q| splitmix64(addr_to_u128(*q) as u64));
    g.throughput(Throughput::Elements(queries.len() as u64));
    g.bench_function("lpm_bgp_table_shape", |b| {
        b.iter(|| {
            queries
                .iter()
                .filter(|q| routes.longest_match(**q).is_some())
                .count()
        })
    });
    g.finish();
}

fn bench_fanout(c: &mut Criterion) {
    let p: Prefix = "2001:db8:407:8000::/64".parse().unwrap();
    c.bench_function("apd_fanout16", |b| b.iter(|| fanout16(p, 42)));
}

fn bench_fingerprint(c: &mut Criterion) {
    let addrs: Vec<Ipv6Addr> = (1..=1000u128)
        .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | i))
        .collect();
    let mut g = c.benchmark_group("entropy");
    g.throughput(Throughput::Elements(addrs.len() as u64));
    g.bench_function("fingerprint_f9_32_1k_addrs", |b| {
        b.iter(|| Fingerprint::full(&addrs))
    });
    g.finish();
}

fn bench_kmeans(c: &mut Criterion) {
    // 200 fingerprints in 24 dimensions.
    let points: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            (0..24)
                .map(|j| {
                    let k = expanse_addr::fanout::splitmix64((i * 31 + j) as u64);
                    (k % 1000) as f64 / 1000.0
                })
                .collect()
        })
        .collect();
    c.bench_function("kmeans_k6_200x24", |b| {
        b.iter(|| expanse_entropy::kmeans(&points, 6, 7, 1))
    });
}

fn bench_generators(c: &mut Criterion) {
    let seeds: Vec<Ipv6Addr> = (1..=500u128)
        .map(|i| u128_to_addr((0x2001_0db8u128 << 96) | ((i % 4) << 64) | i))
        .collect();
    c.bench_function("eip_train_500_seeds", |b| {
        b.iter(|| expanse_eip::train(&seeds))
    });
    let model = expanse_eip::train(&seeds);
    c.bench_function("eip_generate_1k", |b| b.iter(|| model.generate(1000)));
    c.bench_function("sixgen_grow_500_seeds", |b| {
        b.iter(|| expanse_sixgen::grow_regions(&seeds, &expanse_sixgen::SixGenConfig::default()))
    });
}

fn bench_packet(c: &mut Criterion) {
    let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
    let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
    let mut g = c.benchmark_group("packet");
    g.bench_function("tcp_synopt_emit", |b| {
        let seg = TcpSegment::syn_with_options(40000, 80, 12345, 77);
        b.iter(|| Datagram::tcp(src, dst, 64, &seg).emit())
    });
    let frame = Datagram::icmpv6(
        src,
        dst,
        64,
        Icmpv6Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![0; 16],
        },
    )
    .emit();
    g.bench_function("parse_transport_icmp", |b| {
        b.iter(|| Datagram::parse_transport(&frame).unwrap())
    });
    g.finish();
}

fn bench_permutation(c: &mut Criterion) {
    let perm = Permutation::new(1_000_000, 42);
    c.bench_function("permutation_at_1m_domain", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % 1_000_000;
            perm.at(i)
        })
    });
}

fn bench_scanner(c: &mut Criterion) {
    let model = InternetModel::build(ModelConfig::tiny(42));
    let hook = model.population.special.cdn_hook_48s[0];
    let targets: Vec<Ipv6Addr> = (0..256u64).map(|i| keyed_random_addr(hook, i)).collect();
    let mut g = c.benchmark_group("scanner");
    g.throughput(Throughput::Elements(targets.len() as u64));
    g.bench_function("icmp_scan_256_aliased_targets", |b| {
        b.iter_batched(
            || {
                Scanner::new(
                    InternetModel::build(ModelConfig::tiny(42)),
                    ScanConfig::default(),
                )
            },
            |mut s| s.scan(&targets, &IcmpEchoModule),
            BatchSize::LargeInput,
        )
    });
    g.finish();
    // Raw engine inject throughput.
    let mut m = InternetModel::build(ModelConfig::tiny(42));
    let frame = Datagram::icmpv6(
        "2001:db8:ffff::1".parse().unwrap(),
        targets[0],
        64,
        Icmpv6Message::EchoRequest {
            ident: 1,
            seq: 1,
            payload: vec![0; 8],
        },
    )
    .emit();
    c.bench_function("engine_inject_icmp", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 1000;
            m.inject(Time(t), &frame)
        })
    });
}

criterion_group!(
    benches,
    bench_trie,
    bench_fanout,
    bench_fingerprint,
    bench_kmeans,
    bench_generators,
    bench_packet,
    bench_permutation,
    bench_scanner
);
criterion_main!(benches);
