//! How the memory gap changes the answer: MCPI vs miss penalty.
//!
//! Sweeps the miss penalty from 4 to 128 cycles (the paper's Fig. 18
//! range — effectively "1990 DRAM" through "the coming memory wall") on a
//! streaming workload, and shows that blocking-cache stall time is linear
//! in the penalty while non-blocking organizations start super-linear
//! growth once their overlap capacity is exhausted.
//!
//! ```text
//! cargo run --release --example miss_penalty_scaling [benchmark]
//! ```

use nonblocking_loads::sim::config::{HwConfig, SimConfig};
use nonblocking_loads::sim::sweep::SweepEngine;
use nonblocking_loads::trace::workloads::{build, Scale};

const PENALTIES: [u32; 6] = [4, 8, 16, 32, 64, 128];

fn main() {
    let bench = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "tomcatv".to_string());
    let program = build(&bench, Scale::full()).expect("known benchmark");
    let configs = [
        HwConfig::Mc0,
        HwConfig::Mc(1),
        HwConfig::Fc(2),
        HwConfig::NoRestrict,
    ];
    let sweep = SweepEngine::new(1)
        .penalty_sweep(
            &program,
            &SimConfig::baseline(HwConfig::NoRestrict),
            &configs,
            &PENALTIES,
        )
        .expect("workloads compile");

    println!("MCPI vs miss penalty for {bench} (load latency 10)\n");
    print!("{:>14}", "config");
    for p in PENALTIES {
        print!("{p:>9}");
    }
    println!("{:>16}", "growth 16->32");
    for (j, config) in sweep.configs.iter().enumerate() {
        print!("{config:>14}");
        for row in &sweep.rows[0] {
            print!("{:>9.3}", row[j].mcpi);
        }
        let at16 = sweep.at(None, config, 16).unwrap().mcpi;
        let at32 = sweep.at(None, config, 32).unwrap().mcpi;
        println!("{:>15.2}x", at32 / at16.max(1e-9));
    }
    println!(
        "\nA growth factor of exactly 2x is linear scaling (the blocking cache);\n\
         anything above it means overlap capacity ran out mid-way — the paper's\n\
         warning that non-blocking gains shrink as the memory gap widens."
    );
}
