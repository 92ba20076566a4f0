//! The keep-alive instance pool: warm reuse, keep-alive expiry,
//! provisioned concurrency, concurrency limits and request queueing.
//!
//! [`simulate_pool`] drives a sorted arrival stream through one function's
//! pool. Each arrival reuses an idle, unexpired instance when one exists
//! (a warm start) and boots a new one otherwise (a cold start); an
//! instance expires `keep_alive_secs` after it last finished a request.
//! Two platform features from the paper's related work (§3.1) ride on the
//! same pool, so their cost/latency trade-offs can be compared against
//! debloating:
//!
//! * **provisioned concurrency** — `n` instances are initialized ahead of
//!   time and never expire; requests landing on them are always warm, but
//!   the reserved capacity is billed for the whole window whether used or
//!   not (AWS prices provisioned GB-seconds at a discounted rate);
//! * **concurrency limit** — at most `max_concurrency` instances may run
//!   at once; excess arrivals queue and their queueing delay is added to
//!   E2E latency.
//!
//! With both features off this is the plain keep-alive pool.
//!
//! # Engine
//!
//! The engine is event-driven: busy instances sit in a min-heap on
//! `free_at` and idle instances in sorted deques, so each arrival costs
//! `O(log n)` amortized where a scan over every live instance costs `O(n)`
//! — the difference between linear and quadratic behavior under bursts.
//!
//! That is sound because of a structural invariant of the pool: a
//! non-provisioned instance always satisfies
//! `expires_at == free_at + keep_alive_secs` (set identically on creation
//! and on every warm reuse), and a provisioned instance never expires. An
//! instance's observable state is therefore exactly `(free_at,
//! provisioned)`, which is what the containers key on; instances that tie
//! on that pair are interchangeable, so heap/deque tie-breaking cannot
//! change which request is warm. The test suite keeps the per-arrival
//! `Vec` scan the engine replaced as a reference engine
//! (`tests/naive_pool/mod.rs`), and differential tests pin stats and
//! [`PoolEvent`] streams byte-identical to it.
//!
//! The idle deques stay sorted by pushing at the back because settles
//! arrive in non-decreasing `free_at`: an arrival at `now` settles every
//! busy entry with `free_at <= now`, so every entry left in the heap, and
//! every entry pushed while that arrival dispatches (a finish at or after
//! `now`, or an unchosen cap waiter that frees after `arrival`), is at or
//! after everything already idle. Warm picks take the most recently used
//! instance from the back and reaps pop expired ones from the front, so
//! both are `O(1)`. (A sorted insert keeps the deques exact even on inputs
//! that break the argument, such as a negative execution time.)
//! Provisioned instances that were never used are all idle since 0.0,
//! never expire and are interchangeable, so they are a count: setting up a
//! pool costs `O(1)` whatever `provisioned` is.
//!
//! # Expiry boundary
//!
//! Keep-alive expiry is **exclusive**: an idle instance is reaped when
//! `expires_at < now` and still usable when `expires_at == now`. With
//! `keep_alive_secs == 0` a queued request dispatching at the exact instant
//! its slot frees therefore still reuses it warm.

use crate::platform::{AppProfile, Platform, StartKind, StartMode};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// AWS provisioned-concurrency price: $ per GB-second of reserved capacity
/// (lower than the on-demand duration price).
pub const AWS_PROVISIONED_PRICE_PER_GB_S: f64 = 0.000_004_166_7;

/// Options for [`simulate_pool`].
#[derive(Debug, Clone, PartialEq)]
pub struct PoolOptions {
    /// Idle instance lifetime in seconds.
    pub keep_alive_secs: f64,
    /// How cold starts initialize.
    pub mode: StartMode,
    /// Number of pre-initialized, never-expiring instances.
    pub provisioned: usize,
    /// Maximum concurrently running instances (`None` = unlimited).
    pub max_concurrency: Option<usize>,
    /// Window length in seconds (for provisioned-capacity billing).
    pub window_secs: f64,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            keep_alive_secs: 900.0,
            mode: StartMode::Standard,
            provisioned: 0,
            max_concurrency: None,
            window_secs: 24.0 * 3600.0,
        }
    }
}

/// Results of a pool simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PoolStats {
    /// Cold starts (full initialization on the critical path).
    pub cold_starts: u64,
    /// Warm starts (reused keep-alive or provisioned instances).
    pub warm_starts: u64,
    /// Requests that had to queue for a concurrency slot.
    pub queued_requests: u64,
    /// Total queueing delay in seconds.
    pub total_queue_secs: f64,
    /// Sum of invocation costs (Equation 1) in dollars.
    pub invocation_cost: f64,
    /// Reserved-capacity cost for provisioned instances in dollars.
    pub provisioned_cost: f64,
    /// Sum of E2E latencies (including queueing) in seconds.
    pub total_e2e_secs: f64,
}

impl PoolStats {
    /// Total invocations.
    pub fn invocations(&self) -> u64 {
        self.cold_starts + self.warm_starts
    }

    /// Fraction of invocations that were cold.
    pub fn cold_fraction(&self) -> f64 {
        let n = self.invocations();
        if n == 0 {
            0.0
        } else {
            self.cold_starts as f64 / n as f64
        }
    }

    /// Total dollars: invocations + reserved capacity.
    pub fn total_cost(&self) -> f64 {
        self.invocation_cost + self.provisioned_cost
    }

    /// Mean E2E latency in seconds.
    pub fn mean_e2e_secs(&self) -> f64 {
        let n = self.invocations();
        if n == 0 {
            0.0
        } else {
            self.total_e2e_secs / n as f64
        }
    }
}

/// One dispatched request, reported by [`simulate_pool`]'s event sink. Lets
/// callers reconstruct the full execution timeline — e.g. per-invocation
/// E2E latency percentiles, or an instantaneous-concurrency sweep in a
/// property test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolEvent {
    /// When the request arrived (seconds from window start).
    pub arrival: f64,
    /// When it actually started running (= `arrival` unless it queued).
    pub start: f64,
    /// When it finished (start + invocation E2E).
    pub finish: f64,
    /// Cold or warm.
    pub kind: StartKind,
}

/// Typed errors from the pool simulator's input validation.
#[derive(Debug, Clone, PartialEq)]
pub enum PoolError {
    /// The arrival sequence is not sorted ascending: out-of-order arrivals
    /// silently corrupt cold/warm accounting (the pool clock only moves
    /// forward), so they are rejected up front.
    UnsortedArrivals {
        /// 0-based index of the offending arrival.
        index: usize,
        /// The preceding arrival timestamp.
        previous: f64,
        /// The out-of-order timestamp found at `index`.
        found: f64,
    },
    /// An arrival timestamp is NaN, which has no place on a timeline.
    NanArrival {
        /// 0-based index of the NaN arrival.
        index: usize,
    },
    /// An arrival timestamp lies before the window start (0 s), where no
    /// instance, provisioned or not, exists yet.
    NegativeArrival {
        /// 0-based index of the negative arrival.
        index: usize,
        /// The negative timestamp found at `index`.
        found: f64,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::UnsortedArrivals {
                index,
                previous,
                found,
            } => write!(
                f,
                "arrivals must be sorted ascending: arrivals[{index}] = {found} \
                 after {previous}"
            ),
            PoolError::NanArrival { index } => {
                write!(f, "arrivals[{index}] is NaN")
            }
            PoolError::NegativeArrival { index, found } => {
                write!(
                    f,
                    "arrivals[{index}] = {found} is before the window start (0 s)"
                )
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Total-order key for the busy heap (`f64::total_cmp`); the simulator
/// rejects NaN at the boundary, and all derived times are NaN-free, so the
/// total order coincides with the numeric order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Time(f64);

impl Eq for Time {}

impl PartialOrd for Time {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Time {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The `free_at` times of one kind of idle instance, sorted ascending:
/// the most recently used instance is at the back, the first to expire at
/// the front.
type IdleSet = VecDeque<f64>;

/// Add an instance that became idle at `t`. Settles come in non-decreasing
/// `t` (see the module docs), so this is a push at the back; the sorted
/// insert keeps the set exact on any input.
fn idle_insert(set: &mut IdleSet, t: f64) {
    if set.back().is_none_or(|&last| last <= t) {
        set.push_back(t);
    } else {
        set.insert(set.partition_point(|&x| x <= t), t);
    }
}

/// Simulate an arrival stream through one function's pool: `on_event` is
/// called once per arrival, in arrival order, with the dispatched request's
/// timeline (callers that need no events pass `|_| {}`). Arrivals are
/// consumed as they come, and validated on the fly.
///
/// Busy instances live in a min-heap keyed on `free_at` (tagged
/// provisioned/on-demand); idle instances live in two sorted deques of
/// `free_at` (provisioned instances never expire; on-demand instances
/// expire at `free_at + keep_alive_secs`, so the key determines expiry
/// too), and never-used provisioned instances are a count. Each arrival
/// settles freed instances out of the heap, reaps expired idle instances
/// from the front of the on-demand deque, and — under a concurrency cap —
/// pops exactly `busy - cap + 1` heap entries to find the queued request's
/// dispatch time: the `(busy - cap + 1)`-th earliest `free_at`, when
/// occupancy first drops below the cap. A cap of 0 is treated as 1. Warm
/// and cold starts are priced once, before the first arrival: their
/// latency and cost depend only on the app and the start mode.
///
/// # Errors
///
/// [`PoolError::NanArrival`], [`PoolError::NegativeArrival`] or
/// [`PoolError::UnsortedArrivals`]: arrivals must be NaN-free, at or after
/// the window start and sorted ascending.
pub fn simulate_pool(
    platform: &Platform,
    app: &AppProfile,
    arrivals: impl IntoIterator<Item = f64>,
    options: &PoolOptions,
    mut on_event: impl FnMut(PoolEvent),
) -> Result<PoolStats, PoolError> {
    let keep_alive = options.keep_alive_secs;
    let warm = platform.warm_invocation(app);
    let cold = platform.cold_invocation(app, options.mode);
    let (warm_e2e, cold_e2e) = (warm.e2e_secs(), cold.e2e_secs());
    // Busy = dispatched and not yet freed: min-heap on (free_at, provisioned).
    let mut busy: BinaryHeap<Reverse<(Time, bool)>> = BinaryHeap::new();
    let mut idle_demand = IdleSet::new();
    let mut idle_prov = IdleSet::new();
    // Provisioned instances not yet used: idle since 0.0, never expiring,
    // interchangeable.
    let mut fresh_prov = options.provisioned;
    // Cap-wait candidates of one arrival (see below); reused across arrivals.
    let mut waiters: Vec<(f64, bool)> = Vec::new();

    // Reap idle on-demand instances whose keep-alive ran out strictly
    // before `now` (exclusive expiry; see the module docs). Every entry
    // already satisfies `free_at <= now`, and the reap predicate is
    // monotone in `free_at`, so popping from the front suffices. The
    // negated comparison is deliberate: it is the exact complement of the
    // reap test `expires_at < now`, NaN semantics included.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let reap = |idle_demand: &mut IdleSet, now: f64| {
        while let Some(&t) = idle_demand.front() {
            if !(t + keep_alive < now) {
                break;
            }
            idle_demand.pop_front();
        }
    };

    let mut stats = PoolStats::default();
    let mut prev = f64::NEG_INFINITY;
    for (index, arrival) in arrivals.into_iter().enumerate() {
        if arrival.is_nan() {
            return Err(PoolError::NanArrival { index });
        }
        if arrival < 0.0 {
            return Err(PoolError::NegativeArrival {
                index,
                found: arrival,
            });
        }
        if arrival < prev {
            return Err(PoolError::UnsortedArrivals {
                index,
                previous: prev,
                found: arrival,
            });
        }
        prev = arrival;
        let mut now = arrival;
        // Move every busy instance freed by `now` into its idle set.
        while let Some(&Reverse((t, provisioned))) = busy.peek() {
            if t.0 > now {
                break;
            }
            busy.pop();
            let set = if provisioned {
                &mut idle_prov
            } else {
                &mut idle_demand
            };
            idle_insert(set, t.0);
        }
        reap(&mut idle_demand, now);

        // Concurrency limiting. With `busy >= cap` instances running, the
        // request must wait until the pool is down to `cap - 1` running
        // instances — i.e. until the `(busy - cap + 1)`-th earliest
        // `free_at`, not the earliest (waiting only for the earliest lets a
        // burst of b > cap simultaneous arrivals run b instances at once).
        //
        // Popped entries free *after* `arrival` but by the waited dispatch
        // time; they must NOT settle into the idle sets (the next arrival
        // in a burst may be earlier than the waited clock, at which point
        // they count as busy again). They become warm candidates for this
        // dispatch only, and the unchosen ones go straight back into the
        // busy heap to settle at whatever later arrival overtakes them.
        if let Some(cap) = options.max_concurrency {
            let cap = cap.max(1);
            if busy.len() >= cap {
                for _ in 0..(busy.len() - cap + 1) {
                    let Reverse((t, provisioned)) =
                        busy.pop().expect("pop count bounded by busy.len()");
                    now = t.0;
                    waiters.push((t.0, provisioned));
                }
                // Entries tied at the new clock freed by dispatch time too.
                while let Some(&Reverse((t, _))) = busy.peek() {
                    if t.0 > now {
                        break;
                    }
                    let Reverse((t, provisioned)) = busy.pop().expect("peeked");
                    waiters.push((t.0, provisioned));
                }
                stats.queued_requests += 1;
                stats.total_queue_secs += now - arrival;
                // The wait moved the clock: idle instances (and just-freed
                // waiters) whose keep-alive ran out inside `(arrival, now)`
                // are gone by dispatch time.
                reap(&mut idle_demand, now);
                #[allow(clippy::neg_cmp_op_on_partial_ord)]
                waiters.retain(|&(f, provisioned)| provisioned || !(f + keep_alive < now));
            }
        }

        // Prefer provisioned instances, then the most-recently-used warm
        // one. After settling and reaping, every idle entry and every
        // surviving waiter is dispatchable (`free_at <= now`, not expired),
        // so this is a max over (provisioned, free_at) across all of them.
        enum WarmSource {
            FreshProv,
            IdleProv,
            IdleDemand,
            Waiter(usize),
        }
        let mut best: Option<(bool, Time, WarmSource)> = None;
        let mut consider = |prov: bool, t: Time, src: WarmSource| {
            if best
                .as_ref()
                .is_none_or(|&(bp, bt, _)| (prov, t) > (bp, bt))
            {
                best = Some((prov, t, src));
            }
        };
        if fresh_prov > 0 {
            consider(true, Time(0.0), WarmSource::FreshProv);
        }
        if let Some(&t) = idle_prov.back() {
            consider(true, Time(t), WarmSource::IdleProv);
        }
        if let Some(&t) = idle_demand.back() {
            consider(false, Time(t), WarmSource::IdleDemand);
        }
        for (i, &(f, provisioned)) in waiters.iter().enumerate() {
            consider(provisioned, Time(f), WarmSource::Waiter(i));
        }
        let warm_slot = best.map(|(provisioned, _, src)| {
            match src {
                WarmSource::FreshProv => fresh_prov -= 1,
                WarmSource::IdleProv => {
                    idle_prov.pop_back();
                }
                WarmSource::IdleDemand => {
                    idle_demand.pop_back();
                }
                WarmSource::Waiter(i) => {
                    waiters.swap_remove(i);
                }
            }
            provisioned
        });
        for (f, provisioned) in waiters.drain(..) {
            busy.push(Reverse((Time(f), provisioned)));
        }
        let (inv, e2e, kind, provisioned) = match warm_slot {
            Some(provisioned) => (&warm, warm_e2e, StartKind::Warm, provisioned),
            None => (&cold, cold_e2e, StartKind::Cold, false),
        };
        let finish = now + e2e;
        busy.push(Reverse((Time(finish), provisioned)));
        match kind {
            StartKind::Cold => stats.cold_starts += 1,
            StartKind::Warm => stats.warm_starts += 1,
        }
        stats.invocation_cost += inv.cost;
        stats.total_e2e_secs += e2e + (now - arrival);
        on_event(PoolEvent {
            arrival,
            start: now,
            finish,
            kind,
        });
    }
    // Reserved capacity is billed for the whole window regardless of use.
    let mem_gb = platform.config.pricing.configured_memory_mb(app.mem_mb) as f64 / 1024.0;
    stats.provisioned_cost =
        options.provisioned as f64 * mem_gb * options.window_secs * AWS_PROVISIONED_PRICE_PER_GB_S;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> AppProfile {
        AppProfile::new("demo", 100.0, 1.0, 0.2, 512.0)
    }

    fn run(app: &AppProfile, arrivals: &[f64], options: &PoolOptions) -> PoolStats {
        simulate_pool(
            &Platform::default(),
            app,
            arrivals.iter().copied(),
            options,
            |_| {},
        )
        .expect("sorted arrivals")
    }

    fn keep_alive(keep_alive_secs: f64) -> PoolOptions {
        PoolOptions {
            keep_alive_secs,
            ..PoolOptions::default()
        }
    }

    #[test]
    fn pool_reuses_warm_instances() {
        let app = AppProfile::new("a", 50.0, 0.5, 0.1, 200.0);
        // Arrivals far enough apart to finish, close enough to stay warm.
        let stats = run(&app, &[0.0, 10.0, 20.0, 30.0], &keep_alive(900.0));
        assert_eq!(stats.cold_starts, 1);
        assert_eq!(stats.warm_starts, 3);
    }

    #[test]
    fn pool_expires_idle_instances() {
        let app = AppProfile::new("a", 50.0, 0.5, 0.1, 200.0);
        let stats = run(&app, &[0.0, 10_000.0], &keep_alive(60.0));
        assert_eq!(stats.cold_starts, 2, "keep-alive elapsed between arrivals");
    }

    #[test]
    fn pool_bursts_force_concurrent_cold_starts() {
        let app = AppProfile::new("a", 50.0, 0.5, 2.0, 200.0);
        // Three simultaneous arrivals — no instance is free.
        let stats = run(&app, &[0.0, 0.0, 0.0], &keep_alive(900.0));
        assert_eq!(stats.cold_starts, 3);
    }

    #[test]
    fn pool_stats_cold_fraction() {
        let s = PoolStats {
            cold_starts: 1,
            warm_starts: 3,
            ..PoolStats::default()
        };
        assert!((s.cold_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(PoolStats::default().cold_fraction(), 0.0);
    }

    #[test]
    fn provisioned_instances_eliminate_cold_starts() {
        let arrivals: Vec<f64> = (0..10).map(|i| i as f64 * 100.0).collect();
        let none = run(&app(), &arrivals, &PoolOptions::default());
        let provisioned = run(
            &app(),
            &arrivals,
            &PoolOptions {
                provisioned: 1,
                ..PoolOptions::default()
            },
        );
        assert!(none.cold_starts >= 1);
        assert_eq!(
            provisioned.cold_starts, 0,
            "pre-warmed instance absorbs all"
        );
        assert!(provisioned.provisioned_cost > 0.0);
        assert!(provisioned.mean_e2e_secs() < none.mean_e2e_secs());
    }

    #[test]
    fn provisioned_capacity_costs_even_when_idle() {
        let stats = run(
            &app(),
            &[],
            &PoolOptions {
                provisioned: 3,
                ..PoolOptions::default()
            },
        );
        assert_eq!(stats.invocations(), 0);
        assert!(
            stats.provisioned_cost > 0.0,
            "idle capacity is still billed"
        );
    }

    #[test]
    fn concurrency_limit_queues_bursts() {
        // Ten simultaneous arrivals, capacity two.
        let arrivals = [0.0; 10];
        let limited = run(
            &app(),
            &arrivals,
            &PoolOptions {
                max_concurrency: Some(2),
                ..PoolOptions::default()
            },
        );
        // Exactly the first two arrivals run immediately (cold); the other
        // eight each wait for a slot and reuse the instance that freed it
        // (warm) — capacity 2 means exactly 2 instances ever exist.
        assert_eq!(limited.cold_starts, 2);
        assert_eq!(limited.warm_starts, 8);
        assert_eq!(limited.queued_requests, 8);
        assert!(limited.total_queue_secs > 0.0);
        let unlimited = run(&app(), &arrivals, &PoolOptions::default());
        assert_eq!(unlimited.queued_requests, 0);
        assert!(limited.mean_e2e_secs() > unlimited.mean_e2e_secs());
    }

    /// Max simultaneously running requests over the event timeline.
    fn peak_concurrency(events: &[PoolEvent]) -> usize {
        let mut deltas: Vec<(f64, i64)> = Vec::with_capacity(events.len() * 2);
        for e in events {
            deltas.push((e.start, 1));
            deltas.push((e.finish, -1));
        }
        // At a tie, finishes release their slot before starts claim one.
        deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let (mut cur, mut peak) = (0i64, 0i64);
        for (_, d) in deltas {
            cur += d;
            peak = peak.max(cur);
        }
        peak as usize
    }

    #[test]
    fn burst_larger_than_cap_never_exceeds_cap() {
        // Regression: waiting only for the *earliest* free_at let a burst of
        // b > cap simultaneous arrivals all dispatch at the same instant.
        let platform = Platform::default();
        let arrivals = [0.0; 10];
        for cap in [1, 2, 3] {
            let mut events = Vec::new();
            simulate_pool(
                &platform,
                &app(),
                arrivals.iter().copied(),
                &PoolOptions {
                    max_concurrency: Some(cap),
                    ..PoolOptions::default()
                },
                |e| events.push(e),
            )
            .expect("sorted arrivals");
            assert_eq!(events.len(), 10);
            assert!(
                peak_concurrency(&events) <= cap,
                "cap {cap} violated: peak {}",
                peak_concurrency(&events)
            );
        }
    }

    #[test]
    fn zero_cap_is_treated_as_one() {
        let stats = run(
            &app(),
            &[0.0, 0.0, 0.0],
            &PoolOptions {
                max_concurrency: Some(0),
                ..PoolOptions::default()
            },
        );
        assert_eq!(stats.invocations(), 3, "requests still run, serialized");
        assert_eq!(stats.queued_requests, 2);
    }

    #[test]
    fn queued_request_dispatches_at_slot_free_time() {
        // Reaping and dispatch now both happen at the (possibly waited)
        // dispatch time: the queued request starts exactly when the slot
        // holder frees, and reuses it warm — even at keep_alive 0, where
        // the holder expires the same instant it frees (expiry is
        // exclusive: `expires_at < now` reaps, equality does not).
        let slow = AppProfile::new("slow", 10.0, 0.1, 100.0, 128.0);
        let options = PoolOptions {
            keep_alive_secs: 0.0,
            max_concurrency: Some(1),
            ..PoolOptions::default()
        };
        let mut events = Vec::new();
        let stats = simulate_pool(&Platform::default(), &slow, [0.0, 1.0], &options, |e| {
            events.push(e)
        })
        .expect("sorted arrivals");
        assert_eq!(stats.cold_starts, 1);
        assert_eq!(stats.warm_starts, 1);
        assert_eq!(stats.queued_requests, 1);
        assert_eq!(events[1].arrival, 1.0);
        assert!(
            (events[1].start - events[0].finish).abs() < 1e-12,
            "queued request starts exactly when the slot frees"
        );
        // A third arrival after the pool drains and keep-alive (0 s)
        // elapses must cold-start: the expired instance is not revived.
        let late = run(&slow, &[0.0, 1.0, 500.0], &options);
        assert_eq!(late.cold_starts, 2);
        assert_eq!(late.warm_starts, 1);
    }

    #[test]
    fn unsorted_arrivals_are_a_typed_error() {
        let platform = Platform::default();
        let options = PoolOptions::default();
        let err = simulate_pool(&platform, &app(), [0.0, 10.0, 5.0], &options, |_| {})
            .expect_err("unsorted arrivals must be rejected");
        assert_eq!(
            err,
            PoolError::UnsortedArrivals {
                index: 2,
                previous: 10.0,
                found: 5.0
            }
        );
        assert!(err.to_string().contains("sorted ascending"));
        let nan = simulate_pool(&platform, &app(), [0.0, f64::NAN], &options, |_| {})
            .expect_err("NaN arrivals must be rejected");
        assert_eq!(nan, PoolError::NanArrival { index: 1 });
        // Before the window start no instance exists: a provisioned one
        // idle since 0.0 must not serve an arrival at -5 s.
        let provisioned = PoolOptions {
            provisioned: 1,
            ..PoolOptions::default()
        };
        let negative = simulate_pool(&platform, &app(), [-5.0, 10.0], &provisioned, |_| {})
            .expect_err("negative arrivals must be rejected");
        assert_eq!(
            negative,
            PoolError::NegativeArrival {
                index: 0,
                found: -5.0
            }
        );
        assert!(negative.to_string().contains("before the window start"));
    }

    #[test]
    fn pool_setup_does_not_scale_with_provisioned_instances() {
        // Never-used provisioned instances are a count, so 2^40 of them
        // cost nothing to set up; each arrival takes a fresh one.
        let provisioned = 1usize << 40;
        let options = PoolOptions {
            provisioned,
            ..PoolOptions::default()
        };
        let stats = run(&app(), &[0.0; 10], &options);
        assert_eq!((stats.cold_starts, stats.warm_starts), (0, 10));
        let mem_gb = Platform::default()
            .config
            .pricing
            .configured_memory_mb(app().mem_mb) as f64
            / 1024.0;
        assert_eq!(
            stats.provisioned_cost,
            provisioned as f64 * mem_gb * options.window_secs * AWS_PROVISIONED_PRICE_PER_GB_S
        );
    }

    #[test]
    fn trimming_and_provisioning_are_complementary() {
        // Debloating reduces the per-cold-start bill; provisioning reduces
        // cold-start *count* — both improve E2E but provisioning costs
        // standing money.
        let arrivals: Vec<f64> = (0..50).map(|i| i as f64 * 2400.0).collect();
        let trimmed = AppProfile::new("demo-trim", 100.0, 0.3, 0.2, 380.0);
        let base = run(&app(), &arrivals, &keep_alive(900.0));
        let trim_only = run(&trimmed, &arrivals, &keep_alive(900.0));
        assert!(trim_only.total_cost() < base.total_cost());
        assert!(trim_only.total_e2e_secs < base.total_e2e_secs);
    }
}
