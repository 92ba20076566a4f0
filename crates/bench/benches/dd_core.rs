//! Micro-benches for the Delta Debugging core: scaling with component
//! count and the probe-cache ablation.

use std::hint::black_box;
use trim_bench::micro::Runner;
use trim_dd::{ddmin, ddmin_with, DdOptions};

/// A monotone oracle requiring `needed` components spread over the range.
fn spread_oracle(n: u32, needed: usize) -> (Vec<u32>, Vec<u32>) {
    let items: Vec<u32> = (0..n).collect();
    let step = (n as usize / needed.max(1)).max(1) as u32;
    let required: Vec<u32> = (0..n).step_by(step as usize).take(needed).collect();
    (items, required)
}

fn main() {
    let runner = Runner::new();

    for &n in &[64u32, 256, 1024, 4096] {
        let (items, required) = spread_oracle(n, 8);
        runner.bench(&format!("ddmin/scaling/{n}"), || {
            let r = ddmin(&items, &mut |s: &[u32]| {
                required.iter().all(|x| s.contains(x))
            })
            .unwrap();
            black_box(r.minimized.len())
        });
    }

    let (items, required) = spread_oracle(512, 12);
    for (label, cache) in [("cached", true), ("uncached", false)] {
        runner.bench(&format!("ddmin/probe-cache/{label}"), || {
            let r = ddmin_with(
                &items,
                &mut |s: &[u32]| required.iter().all(|x| s.contains(x)),
                DdOptions {
                    cache,
                    ..DdOptions::default()
                },
            )
            .unwrap();
            black_box(r.stats.oracle_invocations)
        });
    }
}
