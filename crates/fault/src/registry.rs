//! The thread-safe failpoint registry: per-point hit counters and
//! seeded activation state.
//!
//! One global registry lives behind a mutex; the inert fast path is a
//! single relaxed atomic load, so even in `failpoints` builds an
//! unconfigured process pays next to nothing per hit. Activation
//! decisions happen under the lock; injected sleeps happen *after* the
//! lock is released so a delay action never stalls other points.

// Without the feature, `hit` and friends are never called (lib.rs
// short-circuits), but the registry still compiles so `configure`/`hits`
// keep their types and the feature flip can't break callers.
#![cfg_attr(not(feature = "failpoints"), allow(dead_code))]

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// An injected failure: the typed error a firing failpoint returns.
///
/// Callers map this into their own error domain (an I/O error string, a
/// checkpoint error, …); the point name is carried so the mapped error
/// names the injection site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    point: &'static str,
}

impl Fault {
    /// The failpoint that fired.
    #[must_use]
    pub fn point(&self) -> &'static str {
        self.point
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at {}", self.point)
    }
}

impl std::error::Error for Fault {}

/// When a spec fires relative to the point's hit stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Trigger {
    /// Fire on the first matching hit only.
    Once,
    /// Fire on every matching hit.
    Always,
    /// Never fire — counting-only probe.
    Never,
    /// Fire on every Nth matching hit (hits N, 2N, …).
    EveryNth(u64),
    /// Fire each matching hit with this probability (seeded SplitMix64).
    Prob(f64),
}

/// What a firing spec does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Return [`Fault`] from the point.
    Fail,
    /// Sleep, then succeed — the schedule-shuffling action.
    Sleep(Duration),
}

/// One parsed `point[@tag]=trigger[:action]` clause.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Spec {
    pub tag: Option<String>,
    pub trigger: Trigger,
    pub action: Action,
}

/// A spec plus its live activation state.
struct SpecState {
    spec: Spec,
    /// Matching hits seen (tag filter applied).
    matched: u64,
    once_done: bool,
    /// SplitMix64 state for `Prob` draws.
    rng: u64,
}

#[derive(Default)]
struct PointState {
    hits: u64,
    fired: u64,
    specs: Vec<SpecState>,
}

#[derive(Default)]
struct Registry {
    points: HashMap<String, PointState>,
}

/// Fast-path switch: hits return immediately while no scenario is active.
static ACTIVE: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

/// A poisoned registry lock only means some thread panicked mid-update;
/// counters are monotone u64s, so the state is still usable — recover.
fn lock_registry() -> MutexGuard<'static, Option<Registry>> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// SplitMix64 output function (also used to decorrelate seeds).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the point name, to give every point its own seed stream.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Advance a SplitMix64 state and return a uniform draw in `[0, 1)`.
fn next_unit(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl Registry {
    fn hit(&mut self, name: &str, tag: Option<&str>) -> Option<Action> {
        let point = self.points.entry(name.to_owned()).or_default();
        point.hits += 1;
        for s in &mut point.specs {
            let matches = s.spec.tag.as_deref().is_none_or(|t| Some(t) == tag);
            if !matches {
                continue;
            }
            s.matched += 1;
            let fire = match s.spec.trigger {
                Trigger::Once => !std::mem::replace(&mut s.once_done, true),
                Trigger::Always => true,
                Trigger::Never => false,
                Trigger::EveryNth(n) => s.matched % n == 0,
                Trigger::Prob(p) => next_unit(&mut s.rng) < p,
            };
            if fire {
                point.fired += 1;
                return Some(s.spec.action);
            }
        }
        None
    }
}

/// Evaluate one hit of `name` against the active scenario.
pub(crate) fn hit(name: &'static str, tag: Option<&str>) -> Result<(), Fault> {
    if !ACTIVE.load(Ordering::Acquire) {
        return Ok(());
    }
    let action = {
        let mut guard = lock_registry();
        match guard.as_mut() {
            Some(reg) => reg.hit(name, tag),
            None => return Ok(()),
        }
    };
    match action {
        None => Ok(()),
        Some(Action::Fail) => Err(Fault { point: name }),
        // Sleep outside the lock: a delay must shuffle thread schedules,
        // not serialize every other failpoint behind it.
        Some(Action::Sleep(d)) => {
            std::thread::sleep(d);
            Ok(())
        }
    }
}

/// Install `specs` as the active scenario, resetting all counters.
pub(crate) fn install(specs: Vec<(String, Spec)>, seed: u64) {
    let mut reg = Registry::default();
    for (index, (name, spec)) in specs.into_iter().enumerate() {
        let rng = mix(seed ^ fnv1a(&name) ^ (index as u64).wrapping_mul(0x9E37_79B9));
        let point = reg.points.entry(name).or_default();
        point.specs.push(SpecState { spec, matched: 0, once_done: false, rng });
    }
    let mut guard = lock_registry();
    *guard = Some(reg);
    ACTIVE.store(true, Ordering::Release);
}

/// Deactivate the scenario and drop all counters.
pub(crate) fn uninstall() {
    let mut guard = lock_registry();
    ACTIVE.store(false, Ordering::Release);
    *guard = None;
}

/// Total hits of `name` since the scenario was installed.
///
/// Every hit is counted while a scenario is active — including points the
/// scenario never names — so a `never` probe (or any unrelated active
/// spec) turns arbitrary points into observable counters for tests.
/// Returns 0 with no active scenario.
#[must_use]
pub fn hits(name: &str) -> u64 {
    lock_registry().as_ref().and_then(|r| r.points.get(name)).map_or(0, |p| p.hits)
}

/// How many hits of `name` actually fired an action.
///
/// Returns 0 with no active scenario.
#[must_use]
pub fn fired(name: &str) -> u64 {
    lock_registry().as_ref().and_then(|r| r.points.get(name)).map_or(0, |p| p.fired)
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    // Scenario-holding tests must serialize on the global guard; these use
    // the public `scenario` API for exactly that reason.
    use crate::scenario;

    #[test]
    fn every_nth_fires_on_schedule() {
        let _g = scenario::scenario("reg::nth=1in3", 1).expect("scenario");
        let fired: Vec<bool> = (0..9).map(|_| crate::hit("reg::nth", None).is_err()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
        assert_eq!(hits("reg::nth"), 9);
        assert_eq!(super::fired("reg::nth"), 3);
    }

    #[test]
    fn once_fires_exactly_once() {
        let _g = scenario::scenario("reg::once=once", 1).expect("scenario");
        assert!(crate::hit("reg::once", None).is_err());
        for _ in 0..10 {
            assert!(crate::hit("reg::once", None).is_ok());
        }
        assert_eq!(super::fired("reg::once"), 1);
    }

    #[test]
    fn probability_stream_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            let _g = scenario::scenario("reg::prob=p0.5", seed).expect("scenario");
            (0..64).map(|_| crate::hit("reg::prob", None).is_err()).collect()
        };
        assert_eq!(run(42), run(42), "same seed must replay the same faults");
        assert_ne!(run(42), run(43), "different seeds should diverge");
        let fires = run(7).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&fires), "p0.5 over 64 hits fired {fires} times");
    }

    #[test]
    fn tags_scope_injection() {
        let _g = scenario::scenario("reg::tagged@ICWS=always", 1).expect("scenario");
        assert!(crate::hit("reg::tagged", Some("MinHash")).is_ok());
        assert!(crate::hit("reg::tagged", Some("ICWS")).is_err());
        assert!(crate::hit("reg::tagged", None).is_ok());
    }

    #[test]
    fn never_probe_counts_without_firing() {
        let _g = scenario::scenario("reg::probe=never", 1).expect("scenario");
        for _ in 0..5 {
            assert!(crate::hit("reg::probe", None).is_ok());
        }
        // Unconfigured points are counted too while a scenario is active.
        assert!(crate::hit("reg::unnamed", None).is_ok());
        assert_eq!(hits("reg::probe"), 5);
        assert_eq!(hits("reg::unnamed"), 1);
        assert_eq!(super::fired("reg::probe"), 0);
    }

    #[test]
    fn sleep_action_succeeds_after_delay() {
        let _g = scenario::scenario("reg::nap=always:sleep1ms", 1).expect("scenario");
        let start = std::time::Instant::now();
        assert!(crate::hit("reg::nap", None).is_ok());
        assert!(start.elapsed() >= Duration::from_millis(1));
    }

    #[test]
    fn inert_guard_holds_the_lock_with_nothing_installed() {
        let _g = scenario::inert();
        assert!(crate::hit("reg::inert", None).is_ok());
        assert_eq!(hits("reg::inert"), 0, "no scenario is active under the guard");
    }

    #[test]
    fn counters_reset_between_scenarios() {
        {
            let _g = scenario::scenario("reg::reset=never", 1).expect("scenario");
            crate::hit("reg::reset", None).ok();
            assert_eq!(hits("reg::reset"), 1);
        }
        assert_eq!(hits("reg::reset"), 0, "cleared scenario must drop counters");
        let _g = scenario::scenario("reg::reset=never", 1).expect("scenario");
        assert_eq!(hits("reg::reset"), 0);
    }
}
