//! Cooperative cancellation: deadline and budget tokens, and the
//! quality flag a degraded solve carries.
//!
//! A [`Deadline`] is cheap to clone (an `Arc` around atomics) and is
//! threaded by reference through the solver engine. Phase boundaries call [`Deadline::check`], which consumes
//! one unit of a logical budget (when one is set) and reports expiry as
//! a typed [`PmcError`]; inner parallel loops use the non-consuming
//! [`Deadline::expired`] probe. An expired solve does not block or
//! abort — it returns the best answer found so far with a
//! [`SolveQuality::Degraded`] flag naming the reason.
//!
//! Three expiry sources compose: a wall-clock instant
//! ([`Deadline::within`]), a logical tick budget ([`Deadline::ticks`],
//! deterministic and therefore the form the chaos suite replays), and
//! explicit cancellation ([`Deadline::cancel`], also the lever the
//! fault plane's `exhaust` action pulls).

use crate::error::PmcError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why a solve returned a degraded (but still valid and flagged)
/// answer instead of the exact one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The wall-clock deadline passed (or the token was cancelled).
    DeadlineExpired { phase: &'static str },
    /// The logical work budget ran out.
    BudgetExhausted { phase: &'static str },
    /// An injected fault (the deterministic fault plane) fired at the
    /// named probe point.
    InjectedFault { point: String },
    /// A worker-side panic was absorbed and the fallback answer
    /// returned in its place.
    WorkerPanic,
}

/// Quality flag on solver results: exact, or degraded with the reason.
/// "Degraded" answers are always genuine cuts of the input graph (the
/// best candidate found before expiry, or the min-degree fallback), so
/// they over-estimate at worst — never silently wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveQuality {
    Exact,
    Degraded(DegradeReason),
}

impl SolveQuality {
    #[inline]
    pub fn is_exact(&self) -> bool {
        matches!(self, SolveQuality::Exact)
    }

    #[inline]
    pub fn is_degraded(&self) -> bool {
        !self.is_exact()
    }
}

struct DeadlineInner {
    /// Wall-clock expiry, if any.
    wall: Option<Instant>,
    /// Remaining logical ticks; `u64::MAX` sentinel means "no budget".
    ticks: AtomicU64,
    /// Set by [`Deadline::cancel`] (and the fault plane's `exhaust`).
    cancelled: AtomicBool,
}

const NO_BUDGET: u64 = u64::MAX;

/// A cloneable cancellation token combining an optional wall-clock
/// deadline, an optional logical tick budget, and manual cancellation.
#[derive(Clone)]
pub struct Deadline {
    inner: Arc<DeadlineInner>,
}

impl Deadline {
    fn build(wall: Option<Instant>, ticks: u64) -> Deadline {
        Deadline {
            inner: Arc::new(DeadlineInner {
                wall,
                ticks: AtomicU64::new(ticks),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// A token that never expires (the default for plain entry points).
    pub fn never() -> Deadline {
        Deadline::build(None, NO_BUDGET)
    }

    /// Expire `d` from now (wall clock).
    pub fn within(d: Duration) -> Deadline {
        Deadline::build(Instant::now().checked_add(d), NO_BUDGET)
    }

    /// A logical budget of `n` phase-boundary checks — deterministic,
    /// so chaos fixtures built on it replay bit-identically. `n = 0`
    /// is already expired.
    pub fn ticks(n: u64) -> Deadline {
        Deadline::build(None, n.min(NO_BUDGET - 1))
    }

    /// Cancel cooperatively: every subsequent `expired`/`check` fails.
    pub fn cancel(&self) {
        // Relaxed: a monotone one-way flag; readers only need to see it
        // eventually, and the solver re-checks at every phase boundary.
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Non-consuming expiry probe for inner loops (does not spend a
    /// tick).
    pub fn expired(&self) -> bool {
        // Relaxed: see `cancel`; the flag and counter are independent
        // monotone signals, no cross-variable ordering is required.
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.inner.ticks.load(Ordering::Relaxed) == 0 {
            return true;
        }
        matches!(self.inner.wall, Some(t) if Instant::now() >= t)
    }

    /// Phase-boundary check: consumes one tick of the logical budget
    /// (when one is set) and returns the typed reason on expiry.
    pub fn check(&self, phase: &'static str) -> Result<(), PmcError> {
        // Relaxed: monotone flags/counters, see `expired`.
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(PmcError::DeadlineExpired { phase });
        }
        if matches!(self.inner.wall, Some(t) if Instant::now() >= t) {
            return Err(PmcError::DeadlineExpired { phase });
        }
        let ticks = &self.inner.ticks;
        // Relaxed CAS loop: the tick counter is a pure admission
        // budget; no memory is published through it.
        let mut cur = ticks.load(Ordering::Relaxed);
        loop {
            if cur == NO_BUDGET {
                return Ok(());
            }
            if cur == 0 {
                return Err(PmcError::BudgetExhausted { phase });
            }
            // Relaxed on success and failure alike: pure admission
            // budget, no memory published through the counter.
            match ticks.compare_exchange_weak(cur, cur - 1, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return Ok(()),
                Err(now) => cur = now,
            }
        }
    }

    /// The degradation reason this token's current state corresponds
    /// to, for flagging a partial answer produced after `expired()`
    /// turned true mid-phase.
    pub fn degrade_reason(&self, phase: &'static str) -> DegradeReason {
        // Relaxed: same monotone signals as `expired`.
        if self.inner.ticks.load(Ordering::Relaxed) == 0 {
            DegradeReason::BudgetExhausted { phase }
        } else {
            DegradeReason::DeadlineExpired { phase }
        }
    }

    /// Drain the token completely (budget to zero and cancelled): the
    /// fault plane's `exhaust` action.
    pub fn exhaust(&self) {
        // Relaxed: monotone one-way transition, see `cancel`.
        self.inner.ticks.store(0, Ordering::Relaxed);
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Relaxed: diagnostic snapshot only.
        f.debug_struct("Deadline")
            .field("wall", &self.inner.wall)
            .field("ticks", &self.inner.ticks.load(Ordering::Relaxed))
            .field("cancelled", &self.inner.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_never_expires() {
        let d = Deadline::never();
        assert!(!d.expired());
        for _ in 0..1000 {
            d.check("loop").expect("never-deadline must not expire");
        }
    }

    #[test]
    fn tick_budget_counts_down_and_reports_phase() {
        let d = Deadline::ticks(2);
        d.check("a").expect("tick 1");
        assert!(!d.expired());
        d.check("b").expect("tick 2");
        assert!(d.expired(), "budget drained");
        let err = d.check("c").expect_err("third check must fail");
        assert_eq!(err, PmcError::BudgetExhausted { phase: "c" });
        assert_eq!(d.degrade_reason("c"), DegradeReason::BudgetExhausted { phase: "c" });
    }

    #[test]
    fn zero_ticks_is_born_expired() {
        let d = Deadline::ticks(0);
        assert!(d.expired());
        assert!(d.check("start").is_err());
    }

    #[test]
    fn cancel_expires_all_clones() {
        let d = Deadline::ticks(100);
        let d2 = d.clone();
        d.cancel();
        assert!(d2.expired());
        assert_eq!(
            d2.check("p").expect_err("cancelled"),
            PmcError::DeadlineExpired { phase: "p" }
        );
    }

    #[test]
    fn wall_clock_deadline_expires() {
        let d = Deadline::within(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(d.expired());
        assert!(matches!(d.check("w"), Err(PmcError::DeadlineExpired { .. })));
    }

    #[test]
    fn exhaust_drains_budget_and_cancels() {
        let d = Deadline::ticks(50);
        d.exhaust();
        assert!(d.expired());
        assert_eq!(d.degrade_reason("x"), DegradeReason::BudgetExhausted { phase: "x" });
    }

    #[test]
    fn quality_predicates() {
        assert!(SolveQuality::Exact.is_exact());
        assert!(SolveQuality::Degraded(DegradeReason::WorkerPanic).is_degraded());
    }
}
