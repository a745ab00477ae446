//! pmc-fault — deterministic fault-injection plane and cooperative
//! cancellation for the pmc workspace.
//!
//! This crate sits below every other workspace crate (it is
//! dependency-free) and provides three things:
//!
//! 1. **Probe points** ([`point`] / [`point_panicking`]): named
//!    call-sites sprinkled through the scheduler
//!    (`vendor/rayon/src/pool.rs`) and the solver engine
//!    (`pmc-mincut`). When no [`FaultScope`] is active they cost one
//!    relaxed atomic load and branch — nothing else.
//! 2. **Fault plans** ([`FaultPlan`]): seeded, record/replayable lists
//!    of (point, hit-count, action) ops. Activating a plan arms the
//!    probes; the `fp1;…` fixture string replays a failure
//!    bit-identically, mirroring the concurrency model checker's
//!    schedule strings.
//! 3. **Cancellation and degradation vocabulary** ([`Deadline`],
//!    [`SolveQuality`], [`DegradeReason`], [`PmcError`]): the types the
//!    engine uses to return *flagged, still-valid* answers instead of
//!    hanging or dying when time, budget, or luck runs out.
//!
//! # Probe capability split
//!
//! [`point`] honours only `delay` and `exhaust` actions; `panic` ops
//! at such a probe are ignored. [`point_panicking`] additionally
//! honours `panic` by raising a typed [`InjectedPanic`] payload via
//! `panic_any`. Probes are declared panicking **only** where an unwind
//! is provably absorbed (inside a job's `catch_unwind`, or inside the
//! robust entry point's guard) — this is what lets the chaos suite
//! throw arbitrary generated plans at the stack without ever being
//! able to orphan a latch or poison scheduler state.
//!
//! # Concurrency
//!
//! Fault activation is process-global (probes are free functions), so
//! [`FaultScope`] holds a global mutex for its whole lifetime:
//! fault-activating tests serialize against each other automatically
//! and cannot contaminate concurrently running fault-free tests beyond
//! the armed plan itself (which only they asked for).

mod deadline;
mod error;
mod plan;

pub use deadline::{Deadline, DegradeReason, SolveQuality};
pub use error::PmcError;
pub use plan::{FaultAction, FaultOp, FaultPlan};

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

/// Panic payload raised by a `panic` fault op at a panic-capable probe.
/// The robust entry points downcast for this type to distinguish
/// injected chaos (degrade gracefully) from genuine bugs (surface as
/// [`PmcError::SolvePanicked`]).
#[derive(Debug, Clone)]
pub struct InjectedPanic {
    /// The probe point the op fired at.
    pub point: String,
}

impl InjectedPanic {
    /// Downcast a `catch_unwind` payload to an injected panic, if it
    /// is one.
    pub fn from_payload(payload: &(dyn std::any::Any + Send)) -> Option<&InjectedPanic> {
        payload.downcast_ref::<InjectedPanic>()
    }
}

impl std::fmt::Display for InjectedPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected fault at probe '{}'", self.point)
    }
}

/// One armed op: the plan's op plus a live hit counter and fired flag.
struct ArmedOp {
    point: String,
    hit: u32,
    action: FaultAction,
    /// Executions of `point` seen so far (monotone).
    seen: AtomicU32,
    /// Each op fires at most once.
    fired: AtomicBool,
}

struct ActiveScope {
    ops: Vec<ArmedOp>,
    /// Deadline the `exhaust` action drains, when the caller registered
    /// one.
    deadline: Option<Deadline>,
}

/// `ACTIVE` is the fast-path gate: probes load it first and return
/// immediately when false, so disabled probes cost one relaxed load.
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// The armed plan. Probes read it under this lock only after `ACTIVE`
/// says a scope exists.
fn scope_cell() -> &'static Mutex<Option<ActiveScope>> {
    static CELL: OnceLock<Mutex<Option<ActiveScope>>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(None))
}

/// Serializes fault-activating callers against each other for the whole
/// lifetime of a [`FaultScope`] (not just the arming instant).
fn serial_lock() -> &'static Mutex<()> {
    static CELL: OnceLock<Mutex<()>> = OnceLock::new();
    CELL.get_or_init(|| Mutex::new(()))
}

/// RAII guard for an armed fault plan. Arms on construction, disarms on
/// drop, and holds the global serialization mutex in between so two
/// scopes can never overlap.
pub struct FaultScope {
    _serial: MutexGuard<'static, ()>,
}

impl FaultScope {
    /// Arm `plan` with no registered deadline (`exhaust` ops become
    /// no-ops).
    pub fn activate(plan: &FaultPlan) -> FaultScope {
        FaultScope::arm(plan, None)
    }

    /// Arm `plan` and register `deadline` as the token the `exhaust`
    /// action drains.
    pub fn activate_with_deadline(plan: &FaultPlan, deadline: &Deadline) -> FaultScope {
        FaultScope::arm(plan, Some(deadline.clone()))
    }

    fn arm(plan: &FaultPlan, deadline: Option<Deadline>) -> FaultScope {
        // A panicking fault-activating test may poison either mutex;
        // both protect state this function rebuilds from scratch, so
        // recover the guard.
        let serial = serial_lock().lock().unwrap_or_else(|e| e.into_inner());
        let ops = plan
            .ops
            .iter()
            .map(|op| ArmedOp {
                point: op.point.clone(),
                hit: op.hit,
                action: op.action,
                seen: AtomicU32::new(0),
                fired: AtomicBool::new(false),
            })
            .collect();
        *scope_cell().lock().unwrap_or_else(|e| e.into_inner()) =
            Some(ActiveScope { ops, deadline });
        // Release: publish the armed scope before probes see the gate.
        ACTIVE.store(true, Ordering::Release);
        FaultScope { _serial: serial }
    }
}

impl Drop for FaultScope {
    fn drop(&mut self) {
        // Release: order the disarm after any probe work in this scope.
        ACTIVE.store(false, Ordering::Release);
        *scope_cell().lock().unwrap_or_else(|e| e.into_inner()) = None;
        // `_serial` drops last, letting the next scope in.
    }
}

/// What a probe found it should do. Split out so the panic is raised
/// *after* the scope mutex is released.
enum Firing {
    Delay(Duration),
    Panic(String),
}

fn consult(name: &str, allow_panic: bool) -> Option<Firing> {
    // Acquire: pairs with the Release store in `arm`, so a true gate
    // implies the armed scope (behind its own mutex) is initialized.
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    let guard = scope_cell().lock().unwrap_or_else(|e| e.into_inner());
    let scope = guard.as_ref()?;
    for op in &scope.ops {
        if op.point != name {
            continue;
        }
        // Relaxed: the counter is only read/written under the scope
        // mutex here; atomics are used so `ArmedOp` stays Sync.
        let seen = op.seen.fetch_add(1, Ordering::Relaxed) + 1;
        if seen != op.hit || op.fired.swap(true, Ordering::Relaxed) {
            continue;
        }
        match op.action {
            FaultAction::Delay(ms) => return Some(Firing::Delay(Duration::from_millis(ms))),
            FaultAction::Exhaust => {
                if let Some(d) = &scope.deadline {
                    d.exhaust();
                }
                return None;
            }
            FaultAction::Panic => {
                if allow_panic {
                    return Some(Firing::Panic(name.to_string()));
                }
                // Panic op at a non-panic-capable probe: ignored by
                // design (see crate docs), but it still consumed its
                // firing so plans behave deterministically.
                return None;
            }
        }
    }
    None
}

fn execute(firing: Option<Firing>) {
    match firing {
        None => {}
        Some(Firing::Delay(d)) => std::thread::sleep(d),
        Some(Firing::Panic(point)) => std::panic::panic_any(InjectedPanic { point }),
    }
}

/// A named probe point that honours `delay` and `exhaust` ops. Safe to
/// place anywhere, including regions that must not unwind.
#[inline]
pub fn point(name: &str) {
    // Relaxed pre-check: the disabled fast path. `consult` re-checks
    // with Acquire before touching the scope.
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    execute(consult(name, false));
}

/// A named probe point that additionally honours `panic` ops by raising
/// an [`InjectedPanic`]. Place **only** where an unwind is provably
/// absorbed (inside a job's `catch_unwind` or a robust entry guard).
#[inline]
pub fn point_panicking(name: &str) {
    // Relaxed pre-check: see `point`.
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    execute(consult(name, true));
}

/// True when a fault scope is currently armed (diagnostics only).
pub fn faults_active() -> bool {
    // Relaxed: advisory snapshot.
    ACTIVE.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_probes_are_inert() {
        // Sibling tests arm scopes on other test threads; holding the
        // serial lock keeps every scope disarmed for this test's body.
        let _serial = serial_lock().lock().unwrap_or_else(|e| e.into_inner());
        point("nope");
        point_panicking("nope");
        assert!(!faults_active());
    }

    #[test]
    fn delay_fires_on_exact_hit_only_once() {
        let plan = FaultPlan::parse("fp1;seed=0;t:delay@2=delay:1").expect("plan");
        let _scope = FaultScope::activate(&plan);
        let t0 = std::time::Instant::now();
        point("t:delay"); // hit 1 — no-op
        let before_hit = t0.elapsed();
        point("t:delay"); // hit 2 — sleeps 1ms
        let after_hit = t0.elapsed();
        assert!(after_hit - before_hit >= Duration::from_millis(1));
        point("t:delay"); // hit 3 — already fired
    }

    #[test]
    fn panic_op_raises_typed_payload_at_panicking_probe() {
        let plan = FaultPlan::parse("fp1;seed=0;t:boom@1=panic").expect("plan");
        let _scope = FaultScope::activate(&plan);
        let err = std::panic::catch_unwind(|| point_panicking("t:boom"))
            .expect_err("must panic");
        let injected = InjectedPanic::from_payload(err.as_ref()).expect("typed payload");
        assert_eq!(injected.point, "t:boom");
    }

    #[test]
    fn panic_op_is_ignored_at_plain_probe() {
        let plan = FaultPlan::parse("fp1;seed=0;t:quiet@1=panic").expect("plan");
        let _scope = FaultScope::activate(&plan);
        point("t:quiet"); // must not panic
    }

    #[test]
    fn exhaust_drains_registered_deadline() {
        let plan = FaultPlan::parse("fp1;seed=0;t:budget@1=exhaust").expect("plan");
        let deadline = Deadline::never();
        let _scope = FaultScope::activate_with_deadline(&plan, &deadline);
        assert!(!deadline.expired());
        point("t:budget");
        assert!(deadline.expired(), "exhaust must drain the deadline");
    }

    #[test]
    fn exhaust_without_deadline_is_a_noop() {
        let plan = FaultPlan::parse("fp1;seed=0;t:budget@1=exhaust").expect("plan");
        let _scope = FaultScope::activate(&plan);
        point("t:budget");
    }

    #[test]
    fn scope_drop_disarms() {
        let plan = FaultPlan::parse("fp1;seed=0;t:gone@1=delay:1").expect("plan");
        {
            let _scope = FaultScope::activate(&plan);
            assert!(faults_active());
        }
        assert!(!faults_active());
        point("t:gone"); // disarmed — inert
    }

    #[test]
    fn scopes_serialize() {
        // Two scopes in sequence from different threads never overlap;
        // the second activation blocks until the first guard drops.
        let plan = FaultPlan::parse("fp1;seed=0;t:ser@1=delay:1").expect("plan");
        let scope1 = FaultScope::activate(&plan);
        let plan2 = plan.clone();
        let handle = std::thread::spawn(move || {
            let _scope2 = FaultScope::activate(&plan2);
            faults_active()
        });
        std::thread::sleep(Duration::from_millis(5));
        drop(scope1);
        assert!(handle.join().expect("second scope thread"), "second scope armed after first dropped");
    }
}
