//! Microbenchmarks: throughput of the simulator's hot paths.
//!
//! These are engineering benchmarks for the simulator itself (the paper
//! reproduction lives in the `figures` binary); they guard against
//! regressions that would make the 3700-simulation-scale studies painful.
//!
//! The harness is a deliberately small std-only timer (median of N
//! timed batches after warmup) so the workspace builds with no external
//! dependencies. Run with `cargo bench -p nbl-bench`; pass a substring
//! argument to select benchmarks by name.

use nbl_core::cache::{CacheConfig, LockupFreeCache};
use nbl_core::geometry::CacheGeometry;
use nbl_core::limit::Limit;
use nbl_core::mshr::inverted::InvertedConfig;
use nbl_core::mshr::{MshrConfig, RegisterFileConfig, TargetPolicy};
use nbl_core::types::{Addr, Dest, LoadFormat, PhysReg};
use nbl_sched::compile::compile;
use nbl_sim::config::{HwConfig, SimConfig};
use nbl_sim::driver::run_tape;
use nbl_trace::tape::TraceTape;
use nbl_trace::workloads::{build, Scale};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over batches of `batch` iterations: 2 warmup batches, then
/// `samples` timed ones; reports the median per-iteration time.
fn bench(name: &str, filter: Option<&str>, batch: u64, f: &mut dyn FnMut()) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    const SAMPLES: usize = 7;
    for _ in 0..2 * batch {
        f();
    }
    let mut per_iter: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                f();
            }
            t0.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    let median = per_iter[SAMPLES / 2];
    let (value, unit) = if median < 1e-6 {
        (median * 1e9, "ns")
    } else if median < 1e-3 {
        (median * 1e6, "µs")
    } else {
        (median * 1e3, "ms")
    };
    println!("{name:<44} {value:>9.2} {unit}/iter");
}

fn cache_hit_path(filter: Option<&str>) {
    let mut cache = LockupFreeCache::new(CacheConfig::baseline(MshrConfig::Inverted(
        InvertedConfig::typical(),
    )));
    // Warm one line.
    cache.access_load(Addr(0x1000), Dest::Reg(PhysReg::int(1)), LoadFormat::WORD);
    cache.fill(cache.block_of(Addr(0x1000)));
    bench(
        "cache_hit_path/direct_mapped",
        filter,
        1_000_000,
        &mut || {
            black_box(cache.access_load(
                black_box(Addr(0x1008)),
                Dest::Reg(PhysReg::int(2)),
                LoadFormat::WORD,
            ));
        },
    );

    // The fully associative geometry of Fig. 10: 256 ways, where the tag
    // probe is the hot linear scan the indexed lookup replaces.
    let mut cfg = CacheConfig::baseline(MshrConfig::Inverted(InvertedConfig::typical()));
    cfg.geometry = CacheGeometry::fully_associative(8 * 1024, 32).expect("valid geometry");
    let mut fa = LockupFreeCache::new(cfg);
    for i in 0..256u64 {
        let a = Addr(i * 32);
        fa.access_load(a, Dest::Reg(PhysReg::int(1)), LoadFormat::WORD);
        fa.fill(fa.block_of(a));
    }
    let mut i = 0u64;
    bench(
        "cache_hit_path/fully_associative",
        filter,
        1_000_000,
        &mut || {
            i = (i + 1) % 256;
            black_box(fa.access_load(
                black_box(Addr(i * 32)),
                Dest::Reg(PhysReg::int(2)),
                LoadFormat::WORD,
            ));
        },
    );
}

fn mshr_miss_fill_cycle(filter: Option<&str>) {
    let organizations: Vec<(&str, MshrConfig)> = vec![
        (
            "register_fc2",
            MshrConfig::Register(RegisterFileConfig {
                entries: Limit::Finite(2),
                targets: TargetPolicy::explicit(Limit::Unlimited),
                max_outstanding_misses: Limit::Unlimited,
                max_fetches_per_set: Limit::Unlimited,
            }),
        ),
        ("inverted", MshrConfig::Inverted(InvertedConfig::typical())),
        (
            "incache",
            MshrConfig::InCache {
                targets: TargetPolicy::explicit(Limit::Unlimited),
                read_extra_cycles: 0,
            },
        ),
    ];
    for (name, mshr) in organizations {
        let mut cache = LockupFreeCache::new(CacheConfig::baseline(mshr));
        let mut addr = 0u64;
        bench(
            &format!("mshr_miss_fill/{name}"),
            filter,
            200_000,
            &mut || {
                addr = addr.wrapping_add(0x2040);
                let a = Addr(addr & 0xff_ffff);
                let r = cache.access_load(a, Dest::Reg(PhysReg::int(3)), LoadFormat::WORD);
                black_box(r);
                black_box(cache.fill(cache.block_of(a)));
            },
        );
    }
}

fn compile_throughput(filter: Option<&str>) {
    for name in ["doduc", "fpppp", "tomcatv"] {
        let p = build(name, Scale::quick()).unwrap();
        bench(&format!("compile/{name}"), filter, 50, &mut || {
            black_box(compile(&p, black_box(10)).unwrap());
        });
    }
}

/// Replay throughput: each tape is recorded once, outside the timed
/// loop, so `simulate_40k/*` measures replay only.
fn end_to_end_simulation(filter: Option<&str>) {
    for (label, hw) in [
        ("blocking", HwConfig::Mc0),
        ("hit_under_miss", HwConfig::Mc(1)),
        ("unrestricted", HwConfig::NoRestrict),
    ] {
        let p = build("doduc", Scale::quick()).unwrap();
        let tape = TraceTape::record(&compile(&p, 10).unwrap());
        let cfg = SimConfig::baseline(hw);
        bench(&format!("simulate_40k/{label}"), filter, 10, &mut || {
            black_box(run_tape("doduc", &tape, &cfg).unwrap());
        });
    }
    // Fully associative geometry: stresses the cache-lookup path the
    // flattened tag store + block index optimize.
    let p = build("xlisp", Scale::quick()).unwrap();
    let tape = TraceTape::record(&compile(&p, 10).unwrap());
    let cfg = SimConfig::baseline(HwConfig::NoRestrict)
        .with_geometry(CacheGeometry::fully_associative(8 * 1024, 32).expect("valid geometry"));
    bench(
        "simulate_40k/fully_associative_xlisp",
        filter,
        10,
        &mut || {
            black_box(run_tape("xlisp", &tape, &cfg).unwrap());
        },
    );
}

fn main() {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| !a.starts_with('-'))
        .collect();
    let filter = args.first().map(String::as_str);
    cache_hit_path(filter);
    mshr_miss_fill_cycle(filter);
    compile_throughput(filter);
    end_to_end_simulation(filter);
}
