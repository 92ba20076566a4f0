//! # trim-dd — generic Delta Debugging for program minimization
//!
//! An implementation of the DD algorithm of §3.2 / Algorithm 1 of the λ-trim
//! paper (Zeller's `ddmin`, adapted for debloating): given a list of program
//! components and an oracle, find a **1-minimal** subset that still satisfies
//! the oracle — removing any single remaining component makes the oracle
//! return false.
//!
//! The algorithm is generic over the component type; λ-trim instantiates it
//! with module *attributes* (§6.1). Extras beyond the paper's pseudocode:
//!
//! * **probe caching** — candidate subsets are memoized so the quadratic
//!   tail of ddmin never re-runs an oracle on a seen subset;
//! * **oracle accounting** — invocation/cache-hit counters for the
//!   scalability experiments.
//!
//! # Example
//!
//! ```
//! use trim_dd::ddmin;
//!
//! // Minimize a list of numbers subject to "contains 3 and 7".
//! let items: Vec<u32> = (0..20).collect();
//! let result = ddmin(&items, &mut |subset: &[u32]| {
//!     subset.contains(&3) && subset.contains(&7)
//! })
//! .expect("whole set satisfies the oracle");
//! assert_eq!(result.minimized, vec![3, 7]);
//! ```

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

/// Statistics about a DD run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DdStats {
    /// Number of oracle invocations actually performed.
    pub oracle_invocations: u64,
    /// Number of candidate subsets answered from the probe cache.
    pub cache_hits: u64,
    /// Number of outer-loop iterations.
    pub iterations: u64,
}

/// The outcome of a DD run.
#[derive(Debug, Clone, PartialEq)]
pub struct DdResult<T> {
    /// The 1-minimal subset, in original order.
    pub minimized: Vec<T>,
    /// Run statistics.
    pub stats: DdStats,
}

/// Errors from [`ddmin`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DdError {
    /// The oracle rejected the full component list; DD requires `O(A) = T`.
    OracleRejectsWhole,
}

impl fmt::Display for DdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DdError::OracleRejectsWhole => {
                write!(f, "oracle rejects the complete component list")
            }
        }
    }
}

impl std::error::Error for DdError {}

/// Options controlling a DD run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DdOptions {
    /// Memoize oracle verdicts by candidate subset (default: on).
    pub cache: bool,
    /// Hard cap on oracle invocations (0 = unlimited). When hit, the best
    /// passing candidate found so far is returned — still sound (it passes
    /// the oracle) but possibly not 1-minimal.
    pub max_oracle_invocations: u64,
}

impl Default for DdOptions {
    fn default() -> Self {
        DdOptions {
            cache: true,
            max_oracle_invocations: 0,
        }
    }
}

/// Split index set `items` into `n` contiguous partitions of near-equal size.
/// All partitions are nonempty as long as `n <= items.len()`.
fn partitions(len: usize, n: usize) -> Vec<(usize, usize)> {
    let n = n.min(len).max(1);
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let size = base + usize::from(i < extra);
        out.push((start, start + size));
        start += size;
    }
    out
}

struct Runner<'a, T> {
    items: &'a [T],
    cache: HashMap<Vec<u32>, bool>,
    options: DdOptions,
    stats: DdStats,
    budget_exhausted: bool,
}

impl<'a, T: Clone> Runner<'a, T> {
    fn materialize(&self, idx: &[u32]) -> Vec<T> {
        idx.iter()
            .map(|&i| self.items[i as usize].clone())
            .collect()
    }

    fn test(&mut self, idx: &[u32], oracle: &mut dyn FnMut(&[T]) -> bool) -> bool {
        if self.options.cache {
            if let Some(&v) = self.cache.get(idx) {
                self.stats.cache_hits += 1;
                return v;
            }
        }
        if self.options.max_oracle_invocations > 0
            && self.stats.oracle_invocations >= self.options.max_oracle_invocations
        {
            self.budget_exhausted = true;
            return false;
        }
        self.stats.oracle_invocations += 1;
        let materialized = self.materialize(idx);
        let verdict = oracle(&materialized);
        if self.options.cache {
            self.cache.insert(idx.to_vec(), verdict);
        }
        verdict
    }
}

/// Run ddmin with default options.
///
/// # Errors
///
/// [`DdError::OracleRejectsWhole`] if the oracle rejects the full list.
pub fn ddmin<T: Clone>(
    items: &[T],
    oracle: &mut dyn FnMut(&[T]) -> bool,
) -> Result<DdResult<T>, DdError> {
    ddmin_with(items, oracle, DdOptions::default())
}

/// Run ddmin with explicit [`DdOptions`].
///
/// Returns a subset that satisfies the oracle and is 1-minimal (unless the
/// oracle budget was exhausted first).
///
/// # Errors
///
/// [`DdError::OracleRejectsWhole`] if the oracle rejects the full list.
pub fn ddmin_with<T: Clone>(
    items: &[T],
    oracle: &mut dyn FnMut(&[T]) -> bool,
    options: DdOptions,
) -> Result<DdResult<T>, DdError> {
    let mut runner = Runner {
        items,
        cache: HashMap::new(),
        options,
        stats: DdStats::default(),
        budget_exhausted: false,
    };
    let all: Vec<u32> = (0..items.len() as u32).collect();
    if !runner.test(&all, oracle) {
        return Err(DdError::OracleRejectsWhole);
    }
    let mut current = all;
    let mut n = 2usize;
    'outer: while current.len() >= 2 && !runner.budget_exhausted {
        runner.stats.iterations += 1;
        let parts = partitions(current.len(), n);
        // Phase 1: does any single partition satisfy the oracle?
        for &(s, e) in &parts {
            let candidate: Vec<u32> = current[s..e].to_vec();
            if runner.test(&candidate, oracle) {
                current = candidate;
                n = 2;
                continue 'outer;
            }
        }
        // Phase 2: does any complement satisfy the oracle? (For n == 2 the
        // complements equal the partitions in reverse order and were already
        // tested — the optimization Figure 6 of the paper points out.)
        if n > 2 {
            for &(s, e) in &parts {
                let complement: Vec<u32> = current[..s]
                    .iter()
                    .chain(current[e..].iter())
                    .copied()
                    .collect();
                if runner.test(&complement, oracle) {
                    current = complement;
                    n = (n - 1).max(2);
                    continue 'outer;
                }
            }
        }
        // Phase 3: increase granularity or stop.
        if n >= current.len() {
            break;
        }
        n = (2 * n).min(current.len());
    }
    // Classic ddmin stops at singletons; for debloating the empty set is a
    // legal (and common) result — probe it once.
    if current.len() == 1 && runner.test(&[], oracle) {
        current.clear();
    }
    Ok(DdResult {
        minimized: runner.materialize(&current),
        stats: runner.stats,
    })
}

/// Verify that `subset` (a) satisfies the oracle and (b) is 1-minimal:
/// removing any single element makes the oracle fail. Used by property tests
/// and the debloater's self-checks.
pub fn is_one_minimal<T: Clone>(subset: &[T], oracle: &mut dyn FnMut(&[T]) -> bool) -> bool {
    if !oracle(subset) {
        return false;
    }
    for skip in 0..subset.len() {
        let without: Vec<T> = subset
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != skip)
            .map(|(_, v)| v.clone())
            .collect();
        if oracle(&without) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partitions_cover_exactly() {
        for len in 1..30 {
            for n in 1..=len {
                let parts = partitions(len, n);
                assert_eq!(parts.len(), n.min(len));
                assert_eq!(parts[0].0, 0);
                assert_eq!(parts.last().unwrap().1, len);
                for w in parts.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "contiguous");
                }
                assert!(parts.iter().all(|(s, e)| e > s), "nonempty");
            }
        }
    }

    #[test]
    fn minimizes_to_required_pair() {
        let items: Vec<u32> = (0..64).collect();
        let r = ddmin(&items, &mut |s: &[u32]| s.contains(&5) && s.contains(&60)).unwrap();
        assert_eq!(r.minimized, vec![5, 60]);
    }

    #[test]
    fn minimizes_single_required_element() {
        let items: Vec<u32> = (0..100).collect();
        let r = ddmin(&items, &mut |s: &[u32]| s.contains(&42)).unwrap();
        assert_eq!(r.minimized, vec![42]);
    }

    #[test]
    fn empty_result_when_nothing_required() {
        let items: Vec<u32> = (0..16).collect();
        let r = ddmin(&items, &mut |_: &[u32]| true).unwrap();
        assert!(r.minimized.is_empty(), "nothing required => empty result");
    }

    #[test]
    fn rejecting_oracle_is_an_error() {
        let items = vec![1, 2, 3];
        assert_eq!(
            ddmin(&items, &mut |_: &[i32]| false).unwrap_err(),
            DdError::OracleRejectsWhole
        );
    }

    #[test]
    fn result_is_one_minimal_for_superset_oracles() {
        // Oracle: must contain all of a required set (monotone).
        let required = [3u32, 17, 31, 54];
        let items: Vec<u32> = (0..64).collect();
        let mut oracle = |s: &[u32]| required.iter().all(|r| s.contains(r));
        let r = ddmin(&items, &mut oracle).unwrap();
        assert!(is_one_minimal(&r.minimized, &mut oracle));
        assert_eq!(r.minimized, required);
    }

    #[test]
    fn handles_non_monotone_oracles() {
        // Passes iff subset contains 0 and has even length — non-monotone.
        let items: Vec<u32> = (0..8).collect();
        let mut oracle = |s: &[u32]| s.contains(&0) && s.len().is_multiple_of(2);
        let r = ddmin(&items, &mut oracle).unwrap();
        assert!(oracle(&r.minimized), "result satisfies oracle");
    }

    #[test]
    fn caching_reduces_oracle_invocations() {
        let items: Vec<u32> = (0..64).collect();
        let oracle = |s: &[u32]| s.contains(&1) && s.contains(&62);
        let cached = ddmin_with(&items, &mut { oracle }, DdOptions::default()).unwrap();
        let uncached = ddmin_with(
            &items,
            &mut { oracle },
            DdOptions {
                cache: false,
                ..DdOptions::default()
            },
        )
        .unwrap();
        assert_eq!(cached.minimized, uncached.minimized);
        assert!(cached.stats.oracle_invocations <= uncached.stats.oracle_invocations);
    }

    #[test]
    fn budget_exhaustion_still_returns_passing_subset() {
        let items: Vec<u32> = (0..128).collect();
        let mut oracle = |s: &[u32]| s.contains(&7);
        let r = ddmin_with(
            &items,
            &mut oracle,
            DdOptions {
                max_oracle_invocations: 5,
                ..DdOptions::default()
            },
        )
        .unwrap();
        assert!(oracle(&r.minimized));
        assert!(r.stats.oracle_invocations <= 5);
    }

    #[test]
    fn preserves_original_order() {
        let items = vec!["d", "c", "b", "a"];
        let r = ddmin(&items, &mut |s: &[&str]| {
            s.contains(&"c") && s.contains(&"a")
        })
        .unwrap();
        assert_eq!(r.minimized, vec!["c", "a"], "original relative order kept");
    }

    #[test]
    fn invocations_equal_distinct_subsets_the_oracle_saw() {
        // With the cache on, each subset reaches the oracle once: the
        // invocation count is exactly the number of distinct subsets run,
        // and every repeat is a cache hit instead.
        use std::collections::HashSet;
        let mut seen: HashSet<Vec<u32>> = HashSet::new();
        let mut runs = 0u64;
        let items: Vec<u32> = (0..16).collect();
        let r = ddmin_with(
            &items,
            &mut |s: &[u32]| {
                runs += 1;
                seen.insert(s.to_vec());
                s.contains(&3) && s.contains(&12)
            },
            DdOptions::default(),
        )
        .unwrap();
        assert_eq!(r.minimized, vec![3, 12]);
        assert_eq!(r.stats.oracle_invocations, runs);
        assert_eq!(runs, seen.len() as u64, "no subset ran twice");
        assert!(r.stats.cache_hits > 0, "repeats were answered by the cache");
    }

    #[test]
    fn single_element_input() {
        let items = vec![9u32];
        let r = ddmin(&items, &mut |s: &[u32]| s.contains(&9)).unwrap();
        assert_eq!(r.minimized, vec![9]);
    }

    #[test]
    fn empty_input_passes_through() {
        let items: Vec<u32> = vec![];
        let r = ddmin(&items, &mut |_: &[u32]| true).unwrap();
        assert!(r.minimized.is_empty());
    }

    #[test]
    fn stats_count_iterations() {
        let items: Vec<u32> = (0..32).collect();
        let r = ddmin(&items, &mut |s: &[u32]| s.contains(&31)).unwrap();
        assert!(r.stats.iterations > 0);
        assert!(r.stats.oracle_invocations > 0);
    }
}

/// Greedy one-pass reduction: probe the empty set, then try removing each
/// component individually from the current candidate, keeping removals that
/// still satisfy the oracle.
///
/// This is the cheap end of the paper's §8.3 speed-up spectrum ("learning
/// techniques to choose the attribute set that is most probable to pass"):
/// exactly `n + 1` oracle invocations in the worst case, versus ddmin's
/// super-linear tail. The result satisfies the oracle and is 1-minimal with
/// respect to *forward* removal order, but unlike [`ddmin`] it can miss
/// removals that only pass in combination.
///
/// # Errors
///
/// [`DdError::OracleRejectsWhole`] if the oracle rejects the full list.
pub fn greedy_min<T: Clone>(
    items: &[T],
    oracle: &mut dyn FnMut(&[T]) -> bool,
) -> Result<DdResult<T>, DdError> {
    let mut stats = DdStats::default();
    let mut test = |idx: &[u32], stats: &mut DdStats| -> bool {
        stats.oracle_invocations += 1;
        let materialized: Vec<T> = idx.iter().map(|&i| items[i as usize].clone()).collect();
        oracle(&materialized)
    };
    let all: Vec<u32> = (0..items.len() as u32).collect();
    if !test(&all, &mut stats) {
        return Err(DdError::OracleRejectsWhole);
    }
    // Fast path: nothing needed at all.
    if !items.is_empty() && test(&[], &mut stats) {
        return Ok(DdResult {
            minimized: Vec::new(),
            stats,
        });
    }
    let mut current = all;
    let mut i = 0;
    while i < current.len() {
        stats.iterations += 1;
        let mut candidate = current.clone();
        candidate.remove(i);
        if test(&candidate, &mut stats) {
            current = candidate;
            // Do not advance: position i now holds the next element.
        } else {
            i += 1;
        }
    }
    Ok(DdResult {
        minimized: current.iter().map(|&i| items[i as usize].clone()).collect(),
        stats,
    })
}

/// Maximize a *droppable* subset: the dual of [`ddmin_with`] used by the
/// statement-slicing pass. The oracle receives the candidate **dropped**
/// subset and answers whether the program still behaves correctly with
/// those components removed. Returns a 1-maximal droppable subset — adding
/// any single remaining component to the dropped set makes the oracle fail
/// (unless the probe budget ran out first).
///
/// Implemented by complement reduction: `drop(D)` passes iff `keep(A \ D)`
/// passes, so running [`ddmin_with`] on the keep-oracle over component
/// indices yields a 1-minimal keep set whose complement is the 1-maximal
/// drop set.
///
/// # Errors
///
/// [`DdError::OracleRejectsWhole`] if even dropping *nothing* fails — the
/// caller's baseline is broken, not the reduction.
pub fn ddmax_with<T: Clone>(
    items: &[T],
    oracle: &mut dyn FnMut(&[T]) -> bool,
    options: DdOptions,
) -> Result<DdResult<T>, DdError> {
    let indices: Vec<u32> = (0..items.len() as u32).collect();
    let mut keep_oracle = |kept: &[u32]| -> bool {
        let dropped: Vec<T> = indices
            .iter()
            .filter(|i| !kept.contains(i))
            .map(|&i| items[i as usize].clone())
            .collect();
        oracle(&dropped)
    };
    let kept = ddmin_with(&indices, &mut keep_oracle, options)?;
    let minimized: Vec<T> = indices
        .iter()
        .filter(|i| !kept.minimized.contains(i))
        .map(|&i| items[i as usize].clone())
        .collect();
    Ok(DdResult {
        minimized,
        stats: kept.stats,
    })
}

#[cfg(test)]
mod ddmax_tests {
    use super::*;

    #[test]
    fn ddmax_finds_the_full_droppable_complement() {
        // Components 3 and 7 are load-bearing: any drop set containing
        // them fails. The maximal droppable set is everything else.
        let items: Vec<u32> = (0..12).collect();
        let mut oracle = |dropped: &[u32]| !dropped.contains(&3) && !dropped.contains(&7);
        let r = ddmax_with(&items, &mut oracle, DdOptions::default()).unwrap();
        let expected: Vec<u32> = (0..12).filter(|&i| i != 3 && i != 7).collect();
        assert_eq!(r.minimized, expected);
    }

    #[test]
    fn ddmax_result_is_one_maximal() {
        let items: Vec<u32> = (0..16).collect();
        let mut oracle = |dropped: &[u32]| dropped.iter().all(|d| d % 3 != 0);
        let r = ddmax_with(&items, &mut oracle, DdOptions::default()).unwrap();
        assert!(oracle(&r.minimized), "result must pass the oracle");
        for extra in items.iter().filter(|i| !r.minimized.contains(i)) {
            let mut grown = r.minimized.clone();
            grown.push(*extra);
            assert!(!oracle(&grown), "adding {extra} must fail: 1-maximality");
        }
    }

    #[test]
    fn ddmax_on_broken_baseline_is_an_error() {
        // Even the empty drop fails: the caller's baseline is broken.
        let items = vec![1u32, 2];
        assert_eq!(
            ddmax_with(&items, &mut |_: &[u32]| false, DdOptions::default()).unwrap_err(),
            DdError::OracleRejectsWhole
        );
    }

    #[test]
    fn ddmax_with_nothing_droppable_returns_empty() {
        let items: Vec<u32> = (0..6).collect();
        let mut oracle = |dropped: &[u32]| dropped.is_empty();
        let r = ddmax_with(&items, &mut oracle, DdOptions::default()).unwrap();
        assert!(r.minimized.is_empty());
    }
}

#[cfg(test)]
mod greedy_tests {
    use super::*;

    #[test]
    fn greedy_matches_ddmin_on_monotone_oracles() {
        let required = [4u32, 19, 40];
        let items: Vec<u32> = (0..48).collect();
        let mut oracle = |s: &[u32]| required.iter().all(|r| s.contains(r));
        let greedy = greedy_min(&items, &mut oracle).unwrap();
        let dd = ddmin(&items, &mut oracle).unwrap();
        assert_eq!(greedy.minimized, dd.minimized);
    }

    #[test]
    fn greedy_is_linear_in_probes() {
        let items: Vec<u32> = (0..200).collect();
        let mut oracle = |s: &[u32]| s.contains(&100);
        let r = greedy_min(&items, &mut oracle).unwrap();
        assert!(r.stats.oracle_invocations <= items.len() as u64 + 2);
        assert_eq!(r.minimized, vec![100]);
    }

    #[test]
    fn greedy_result_satisfies_oracle_on_non_monotone() {
        // Needs 0 and an even-sized set: individual removals from the full
        // even set flip parity and fail, so greedy may keep more than ddmin
        // — but the result must still pass.
        let items: Vec<u32> = (0..8).collect();
        let mut oracle = |s: &[u32]| s.contains(&0) && s.len().is_multiple_of(2);
        let r = greedy_min(&items, &mut oracle).unwrap();
        assert!(oracle(&r.minimized));
    }

    #[test]
    fn greedy_empty_fast_path() {
        let items: Vec<u32> = (0..64).collect();
        let mut oracle = |_: &[u32]| true;
        let r = greedy_min(&items, &mut oracle).unwrap();
        assert!(r.minimized.is_empty());
        assert_eq!(r.stats.oracle_invocations, 2, "whole + empty probes only");
    }

    #[test]
    fn greedy_rejecting_oracle_is_error() {
        let items = vec![1, 2];
        assert_eq!(
            greedy_min(&items, &mut |_: &[i32]| false).unwrap_err(),
            DdError::OracleRejectsWhole
        );
    }
}
