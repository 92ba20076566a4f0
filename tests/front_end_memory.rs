//! A guard on the long-lived memory of a trim: the syntax trees the
//! registry keeps for every module and the analysis state a trim holds
//! from its first `Analyzer::full` on.
//!
//! The huggingface trim is the peak operation of a corpus pass, and what
//! sets its peak is this state, not the probes (each probe's interpreter
//! is dropped when it finishes). A counting global allocator measures the
//! requested bytes each phase leaves live; requested bytes do not depend
//! on the allocator or the build profile. This file is its own test binary
//! with a single test, so no other test's allocations share the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use trim_analysis::summary::SummaryCache;
use trim_analysis::{AnalysisOptions, Analyzer};

/// The system allocator, counting the bytes live at any moment.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: each method passes its arguments unchanged to `System` and
// returns what `System` returns, so the caller's guarantees reach the
// system allocator as given; the count only reads `layout.size()` and
// `new_size`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const MIB: f64 = (1 << 20) as f64;

/// MiB that `phase` leaves live, with what it returns.
fn live_after<T>(phase: impl FnOnce() -> T) -> (T, f64) {
    let before = LIVE.load(Ordering::Relaxed);
    let out = phase();
    (out, (LIVE.load(Ordering::Relaxed) - before) as f64 / MIB)
}

#[test]
fn huggingface_trees_and_analysis_state_stay_small() {
    let app = trim_apps::app("huggingface").expect("corpus app");
    let registry = &app.registry;
    let modules = registry.module_names();
    assert_eq!(modules.len(), 13);
    let program = pylite::parse(&app.app_source).expect("app parses");

    // The 13 parsed modules, as the registry's parse slots keep them for
    // the whole trim: 7.44 MiB when lists kept `push`'s spare capacity.
    let (trees, parsed) = live_after(|| {
        modules
            .iter()
            .map(|m| registry.parse_module(m).expect("parses"))
            .collect::<Vec<_>>()
    });
    assert!(
        parsed > 1.0,
        "the parse slots were already full ({parsed:.2} MiB)"
    );
    assert!(parsed <= 4.0, "parsed trees take {parsed:.2} MiB");

    // Resolved trees and bytecode exist before a trim analyzes anything
    // (its baseline run builds them), so they stay outside the next count.
    for m in &modules {
        registry.compile_module(m).expect("compiles");
    }

    // What the analysis keeps: the summary cache's converged shards and
    // the full result: 7.01 MiB when origin sets were B-trees.
    let options = AnalysisOptions {
        summary_cache: Some(SummaryCache::shared()),
        ..AnalysisOptions::default()
    };
    let analyzer = Analyzer::new(&program, &options);
    let (full, analysis) = live_after(|| analyzer.full(registry));
    assert!(
        analysis > 1.0,
        "the analysis kept nothing ({analysis:.2} MiB)"
    );
    assert!(analysis <= 6.0, "analysis state takes {analysis:.2} MiB");
    drop((full, trees));
}
