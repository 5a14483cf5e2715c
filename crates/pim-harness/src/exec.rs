//! The work-stealing plan executor.
//!
//! A [`UnitPool`] runs plans: it flattens the units of every requested
//! [`ScenarioPlan`] into one global work list and lets up to `jobs` workers claim
//! units from `desim::par`'s shared atomic index. Scheduling *units* (grid points)
//! rather than whole scenarios is what keeps every worker busy to the end of a
//! batch: under the old scenario-granular runner the slowest scenario (Figure 12's
//! 56-point grid) serialized the batch tail on a single worker while the rest sat
//! idle.
//!
//! Determinism: unit outputs are written back by flattened index and handed to each
//! plan's assembly step in unit order, and every unit derives its randomness from
//! plan-time values (scenario seed + grid index) — so reports are byte-identical for
//! any `jobs` value, including `1`.
//!
//! Incremental execution: given a persistent [`UnitCache`],
//! [`UnitPool::run`] consults it *before* a worker runs a claimed unit
//! and writes the result back on completion. Because a unit's cache key is derived
//! entirely from plan-time values and each entry is one appended frame that readers
//! index only once it is complete, hit/miss behaviour is independent of claim order
//! and worker count — a warm batch produces byte-identical artifacts at any
//! `--jobs`, only faster. Each call that has units left to look up first asks the
//! cache to index what other processes appended since.
//!
//! # One call
//!
//! [`UnitPool::run`] is the one way to execute plans. Its [`RunHooks`] carry the
//! caller's progress observer and cancellation probe; batches pass the default,
//! which holds neither. A sharded batch ([`crate::runner`]) keeps the units its
//! shard owns and runs them through the same crate-private core, without
//! assembling reports. Every failure is a [`RunError`].
//! [`UnitPool::run_plans_cached`] renders that error as a `String` for the
//! tracer's replay in `perfbench/tracer`, its only caller outside tests.
//!
//! A unit whose closure panics fails its call with [`RunError::UnitPanicked`]:
//! its flight resolves as failed, so waiters re-contest it, and its compute
//! permit returns. Caller hooks never run under one of the pool's locks, and
//! the pool's `Drop` impls never panic, so a panicking unit or hook costs only
//! its own call.
//!
//! # The persistent pool
//!
//! A pool's lifetime is decoupled from any single batch. A batch (`run_batch`,
//! [`Scenario::run`](crate::scenario::Scenario::run)) is *one client* of an
//! ephemeral pool; a long-lived service ([`crate::serve`]) keeps one pool across
//! requests and gains three things batches cannot express alone:
//!
//! * a **compute-permit gate** — at most `jobs` units execute at any instant across
//!   every concurrent client of the pool, however many request threads are active;
//! * a **warm in-memory result map** (digest → the payload's compact JSON) —
//!   repeat queries are served without touching the disk cache, resolved on
//!   the calling thread before any worker starts (an all-warm call spawns no
//!   thread, takes the map's lock once and probes its cancellation hook once).
//!   With a disk cache, a unit joins the map when it is loaded from disk, not
//!   when it is computed, so one-off units stay out of memory;
//! * **single-flight deduplication** per [`UnitKey`] digest — when two clients
//!   need the same unit concurrently, exactly one computes it and the other
//!   blocks until the result is published, then decodes it as a hit.
//!
//! Unit results are pure functions of their key, so a deduplicated or memory-served
//! payload is byte-identical to a recomputed one; the pool changes *when* work
//! happens, never *what* is produced.

use crate::cache::{CacheCounts, CacheEvent, CacheLookup, UnitCache, UnitKey};
use crate::report::ScenarioReport;
use crate::scenario::{PlanUnit, ScenarioPlan, UnitCodec, UnitOutput};
use desim::par::unpoisoned;
use serde::Value;
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, LockResult, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Resolve a user-facing `jobs` knob: `0` means one worker per available core.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        desim::par::available_threads()
    } else {
        jobs
    }
}

/// A progress observer for one executor call: invoked after every completed unit
/// with `(completed_so_far, total_units)`, one call at a time, so
/// `completed_so_far` arrives as 1, 2, …, total. Memory hits tick first, in unit
/// order, on the calling thread; computed units tick from worker threads, so it
/// must be `Sync`. Keep it cheap: it runs inside the claim loop.
pub type Progress<'p> = &'p (dyn Fn(usize, usize) + Sync);

/// A cancellation probe for one executor call: polled once when the call starts,
/// once per claimed unit that is not memory-warm, and while queued on the
/// compute gate or a foreign flight; returning `true` makes the call abandon
/// its remaining work and fail with [`RunError::Cancelled`]. An all-warm call
/// probes it exactly once. Called from worker threads too, so it must be
/// `Sync`; keep it cheap — the pool polls it every 25 ms while blocked.
///
/// Cancellation only abandons work *this* call uniquely owns: a flight it was
/// computing resolves as failed, waking any foreign waiters to re-contest
/// ownership, and results already published to the pool's caches stay valid.
pub type Cancel<'c> = &'c (dyn Fn() -> bool + Sync);

/// The caller's hooks on one [`UnitPool::run`] call. The default holds
/// neither: no progress reports and no cancellation.
#[derive(Default)]
pub struct RunHooks<'h> {
    /// Called after every completed unit (see [`Progress`]).
    pub progress: Option<Progress<'h>>,
    /// Polled at the call's scheduling edges; `true` cancels it (see
    /// [`Cancel`]).
    pub cancel: Option<Cancel<'h>>,
}

/// Why an executor call failed.
#[derive(Debug, PartialEq, Eq)]
pub enum RunError {
    /// The caller's cancellation probe fired.
    Cancelled,
    /// Storing a computed unit in the disk cache failed; the message names the
    /// operation and the path. An unwritable cache mid-run is an environment
    /// error the user must see, not a silent performance cliff.
    Store(String),
    /// A unit's closure panicked. Its flight resolved as failed and its compute
    /// permit returned, so the pool serves later calls as before.
    UnitPanicked {
        /// The unit's scenario.
        scenario: String,
        /// The unit's flattened grid-point index within its scenario's plan.
        grid_index: u64,
        /// The unit's replication index within its grid point.
        replication_index: u64,
        /// The panic's message.
        message: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Cancelled => f.write_str("execution cancelled by caller"),
            RunError::Store(message) => f.write_str(message),
            RunError::UnitPanicked {
                scenario,
                grid_index,
                replication_index,
                message,
            } => write!(
                f,
                "scenario '{scenario}' unit (grid index {grid_index}, replication \
                 {replication_index}) panicked: {message}"
            ),
        }
    }
}

/// The text of a caught panic: its payload when that is a string, as `panic!`
/// and failed assertions produce.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|text| (*text).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "a panic without a message".to_string())
}

/// How often blocked waits (gate queue, foreign flights) poll a cancellation
/// probe. Uncancellable waits (no probe) never wake early.
const CANCEL_POLL: Duration = Duration::from_millis(25);

/// Block on `cond` until `take` gets what the caller waits for out of the
/// state behind `lock`. Without a probe only that ends the wait. With one,
/// the probe is polled before each wait of at most [`CANCEL_POLL`], and the
/// wait fails with [`RunError::Cancelled`] once it fires. The probe is the
/// caller's code, so it runs with the lock released: a probe that panics
/// unwinds its own caller and cannot poison the lock for anyone else.
fn wait_for<T, R>(
    lock: &Mutex<T>,
    cond: &Condvar,
    cancel: Option<Cancel<'_>>,
    mut take: impl FnMut(&mut T) -> Option<R>,
) -> Result<R, RunError> {
    let mut state = unpoisoned(lock.lock());
    loop {
        if let Some(taken) = take(&mut state) {
            return Ok(taken);
        }
        let Some(probe) = cancel else {
            state = unpoisoned(cond.wait(state));
            continue;
        };
        drop(state);
        if probe() {
            return Err(RunError::Cancelled);
        }
        state = unpoisoned(lock.lock());
        if let Some(taken) = take(&mut state) {
            return Ok(taken);
        }
        state = unpoisoned(cond.wait_timeout(state, CANCEL_POLL)).0;
    }
}

/// A lock's guard even when a panic poisoned the lock. The pool's `Drop` impls
/// and [`Flight::resolve`] take their locks through it, because a panic in
/// `Drop` while another panic unwinds aborts the process. Every critical
/// section on those locks is one step (a counter update, a table insert or
/// removal, a state assignment), so a poisoned lock still guards valid data.
fn recovered<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Decode one warm-map entry: its JSON, then the unit's codec. `None` when
/// either step fails, which sends the unit down the normal compute path.
fn decode_warm(text: &str, codec: &UnitCodec) -> Option<UnitOutput> {
    (codec.decode)(&serde_json::value_from_str(text).ok()?)
}

/// A plan's report plus its cache accounting (all-zero when uncached).
pub struct PlanOutcome {
    /// The assembled scenario report.
    pub report: ScenarioReport,
    /// How the plan's units interacted with the unit cache (memory-served and
    /// flight-deduplicated units count as hits).
    pub cache: CacheCounts,
}

/// The state of one in-flight unit computation, keyed by digest in
/// [`UnitPool::flights`]. Waiters block on `done` until the owner publishes the
/// encoded payload (or fails, sending them back to claim ownership themselves).
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum FlightState {
    /// The owner is still computing.
    Pending,
    /// The owner published the encoded payload.
    Done(Value),
    /// The owner aborted (a cancellation, or a panic unwound through its
    /// guard); a waiter should retry ownership.
    Failed,
}

impl Flight {
    /// Block until the flight resolves; `Ok(Some(payload))` on success,
    /// `Ok(None)` when the owner failed and ownership should be re-contested,
    /// `Err(Cancelled)` when the caller's probe fired while waiting (the
    /// flight itself is untouched — its owner and other waiters are foreign).
    fn wait(&self, cancel: Option<Cancel<'_>>) -> Result<Option<Value>, RunError> {
        wait_for(&self.state, &self.done, cancel, |state| match state {
            FlightState::Pending => None,
            FlightState::Done(payload) => Some(Some(payload.clone())),
            FlightState::Failed => Some(None),
        })
    }

    fn resolve(&self, state: FlightState) {
        *recovered(self.state.lock()) = state;
        self.done.notify_all();
    }
}

/// The owner's handle on a flight. Removes the flight from the table on drop,
/// failing it first unless the owner completed it — so a panicking unit closure
/// can never strand waiters.
struct FlightGuard<'p> {
    pool: &'p UnitPool,
    digest: u128,
    flight: Arc<Flight>,
    completed: bool,
}

impl FlightGuard<'_> {
    /// Publish the payload to every waiter and deregister the flight.
    fn complete(mut self, payload: Value) {
        self.flight.resolve(FlightState::Done(payload));
        self.completed = true;
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            self.flight.resolve(FlightState::Failed);
        }
        recovered(self.pool.flights.lock()).remove(&self.digest);
    }
}

/// What [`UnitPool::claim_flight`] handed this worker for a digest.
enum FlightClaim<'p> {
    /// This worker owns the computation and must resolve the flight.
    Owner(FlightGuard<'p>),
    /// Another worker owns it; wait on this flight.
    Waiter(Arc<Flight>),
}

/// A counting semaphore over compute slots: at most `total` unit closures run
/// concurrently across every client of the pool. Cache and memory hits bypass the
/// gate — warm serving never queues behind cold computation.
struct Gate {
    permits: Mutex<usize>,
    freed: Condvar,
    /// The full permit budget, for occupancy reporting (`total - available`).
    total: usize,
}

impl Gate {
    /// Take one compute permit, blocking while none are free. With a probe,
    /// the queued wait gives up with `Err(Cancelled)` instead of computing for
    /// a caller that is gone.
    fn acquire(&self, cancel: Option<Cancel<'_>>) -> Result<GatePermit<'_>, RunError> {
        wait_for(&self.permits, &self.freed, cancel, |free| {
            (*free > 0).then(|| *free -= 1)
        })?;
        Ok(GatePermit { gate: self })
    }

    /// Permits currently held by running unit closures.
    fn in_use(&self) -> usize {
        let available = *unpoisoned(self.permits.lock());
        self.total.saturating_sub(available)
    }
}

/// RAII compute permit; releasing wakes one queued worker.
struct GatePermit<'g> {
    gate: &'g Gate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        *recovered(self.gate.permits.lock()) += 1;
        self.gate.freed.notify_one();
    }
}

/// A persistent unit scheduler (see the module docs): compute-permit gate, warm
/// in-memory result map and single-flight deduplication, shared by every client
/// for the pool's lifetime. One-shot batches construct one per call; a daemon
/// keeps one for its whole life.
pub struct UnitPool {
    /// The raw `jobs` knob (0 = one per core), resolved per call against the
    /// actual unit count by `desim::par`'s claim loop.
    jobs: usize,
    gate: Gate,
    /// Digest → compact JSON of an encoded payload (one that survives a JSON
    /// round trip). A call without a disk cache admits every unit it
    /// computes. With a disk cache, a computed unit goes to disk only and is
    /// admitted when a later call loads it from there: a unit asked for once
    /// (a fresh-seed sweep) never takes memory, so the map grows with reuse,
    /// not with traffic, and it never holds a payload the disk refused. The
    /// map is never evicted, so its footprint is kept proportional to the
    /// entries it holds: JSON text is a fraction of a `Value` tree's size,
    /// and a B-tree grows node by node where a hash table would reallocate
    /// and rehash itself whole at every doubling.
    mem: Mutex<BTreeMap<u128, Arc<str>>>,
    /// Digest → in-flight computation, for single-flight deduplication.
    flights: Mutex<HashMap<u128, Arc<Flight>>>,
}

impl UnitPool {
    /// A pool admitting at most [`resolve_jobs`]`(jobs)` concurrent unit
    /// computations across all its clients.
    pub fn new(jobs: usize) -> UnitPool {
        let total = resolve_jobs(jobs).max(1);
        UnitPool {
            jobs,
            gate: Gate {
                permits: Mutex::new(total),
                freed: Condvar::new(),
                total,
            },
            mem: Mutex::new(BTreeMap::new()),
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Number of payloads currently held by the warm in-memory result map.
    pub fn mem_entries(&self) -> usize {
        unpoisoned(self.mem.lock()).len()
    }

    /// The pool's full compute-permit budget (the resolved `jobs` knob).
    pub fn permits_total(&self) -> usize {
        self.gate.total
    }

    /// Compute permits currently held by running unit closures — the pool's
    /// instantaneous occupancy, `0..=permits_total()`.
    pub fn permits_in_use(&self) -> usize {
        self.gate.in_use()
    }

    /// Digests with a computation currently in flight (single-flight table
    /// occupancy): owners computing plus entries waiters are blocked on.
    pub fn flights_in_progress(&self) -> usize {
        unpoisoned(self.flights.lock()).len()
    }

    /// Execute every plan's units and assemble one report per plan, in input
    /// order: the one way to run plans. Workers consult `cache` before running
    /// a claimed unit and store results back on completion.
    ///
    /// `hooks` carries the caller's progress observer and cancellation probe.
    /// When the probe fires the call stops claiming units, abandons any
    /// gate/flight queue position it holds, and fails with
    /// [`RunError::Cancelled`]; flights this call owned resolve as failed so
    /// foreign waiters re-contest ownership, and everything already published
    /// to the pool's caches stays valid for future callers.
    ///
    /// Cache *reads* never fail the call (a corrupt entry is evicted and
    /// recomputed); cache *writes* do, with [`RunError::Store`]. A unit that
    /// panics fails it with [`RunError::UnitPanicked`].
    pub fn run(
        &self,
        plans: Vec<ScenarioPlan<'_>>,
        cache: Option<&UnitCache>,
        hooks: &RunHooks<'_>,
    ) -> Result<Vec<PlanOutcome>, RunError> {
        let mut units = Vec::new();
        let mut assembles = Vec::with_capacity(plans.len());
        for plan in plans {
            let (plan_units, assemble) = plan.into_parts();
            assembles.push((plan_units.len(), assemble));
            units.extend(plan_units);
        }
        let mut executed = self.execute(units, cache, hooks)?.into_iter();
        Ok(assembles
            .into_iter()
            .map(|(len, assemble)| {
                let mut counts = CacheCounts::default();
                let outputs = executed
                    .by_ref()
                    .take(len)
                    .map(|(output, event)| {
                        counts.record(event);
                        output
                    })
                    .collect();
                PlanOutcome {
                    report: assemble(outputs),
                    cache: counts,
                }
            })
            .collect())
    }

    /// [`UnitPool::run`] without hooks, its error rendered as a `String`. The
    /// tracer's replay in `perfbench/tracer` calls it; other callers use
    /// `run`, and the wrapper goes once the tracer does too.
    pub fn run_plans_cached(
        &self,
        plans: Vec<ScenarioPlan<'_>>,
        cache: Option<&UnitCache>,
    ) -> Result<Vec<PlanOutcome>, String> {
        self.run(plans, cache, &RunHooks::default())
            .map_err(|err| err.to_string())
    }

    /// A payload from the warm map, decoded; `None` on absence (or on a decode
    /// mismatch, which sends the caller down the normal compute path).
    fn load_mem(&self, digest: u128, codec: &UnitCodec) -> Option<UnitOutput> {
        let text = unpoisoned(self.mem.lock()).get(&digest).cloned()?;
        decode_warm(&text, codec)
    }

    /// Admit a payload to the warm map under the disk cache's round-trip rule.
    fn store_mem(&self, digest: u128, payload: &Value) {
        if !crate::cache::json_round_trips(payload) {
            return;
        }
        if let Ok(text) = serde_json::to_string(payload) {
            unpoisoned(self.mem.lock()).insert(digest, Arc::from(text));
        }
    }

    /// Register interest in a digest: either this worker becomes the owner
    /// (and resolves the flight through the returned guard) or it gets the
    /// existing flight to wait on.
    fn claim_flight(&self, digest: u128) -> FlightClaim<'_> {
        let mut flights = unpoisoned(self.flights.lock());
        if let Some(flight) = flights.get(&digest) {
            return FlightClaim::Waiter(Arc::clone(flight));
        }
        let flight = Arc::new(Flight {
            state: Mutex::new(FlightState::Pending),
            done: Condvar::new(),
        });
        flights.insert(digest, Arc::clone(&flight));
        FlightClaim::Owner(FlightGuard {
            pool: self,
            digest,
            flight,
            completed: false,
        })
    }

    /// Run one claimed unit through memory cache → single-flight → disk cache →
    /// gated computation, returning its output and cache event. Fails with
    /// [`RunError::Cancelled`] when the caller's probe fired while queued (a
    /// flight this worker owned resolves as failed via its guard, waking foreign
    /// waiters to re-contest), with [`RunError::Store`] when the disk cache
    /// refused the computed payload, and with [`RunError::UnitPanicked`] when
    /// the unit's closure panicked.
    fn run_unit(
        &self,
        unit: PlanUnit<'_>,
        cache: Option<&UnitCache>,
        cancel: Option<Cancel<'_>>,
    ) -> Result<(UnitOutput, CacheEvent), RunError> {
        let (key, codec) = (&unit.key, &unit.codec);
        let digest = key.digest_u128();
        if let Some(output) = self.load_mem(digest, codec) {
            return Ok((output, CacheEvent::Hit));
        }
        // Plain batches over a fresh pool keep the historical accounting: with no
        // disk cache configured, computed units are uncached, not misses.
        let base_event = if cache.is_some() {
            CacheEvent::Miss
        } else {
            CacheEvent::Uncached
        };
        let guard = loop {
            match self.claim_flight(digest) {
                FlightClaim::Owner(guard) => break guard,
                FlightClaim::Waiter(flight) => match flight.wait(cancel)? {
                    Some(payload) => match (codec.decode)(&payload) {
                        // Deduplicated: another client computed this unit while
                        // we waited. Byte-identical by the purity contract.
                        Some(output) => return Ok((output, CacheEvent::Hit)),
                        // A payload this codec cannot read (digest collision
                        // across incompatible unit types — not constructible
                        // from well-formed scenarios). Compute it directly.
                        None => {
                            let output = self.compute(unit.run, key, cancel)?;
                            return Ok((output, base_event));
                        }
                    },
                    // The owner failed; contest ownership again.
                    None => continue,
                },
            }
        };
        let mut event = base_event;
        if let Some(cache) = cache {
            match cache.load(key) {
                CacheLookup::Hit(payload) => match (codec.decode)(&payload) {
                    Some(output) => {
                        self.store_mem(digest, &payload);
                        guard.complete(payload);
                        return Ok((output, CacheEvent::Hit));
                    }
                    None => {
                        // Checksum-intact but shape-incompatible payload (e.g. a
                        // unit output type changed without a schema bump):
                        // evict, recompute.
                        cache.evict(key);
                        event = CacheEvent::Recomputed;
                    }
                },
                CacheLookup::Corrupt => event = CacheEvent::Recomputed,
                CacheLookup::Miss => {}
            }
        }
        // A cancelled gate wait or a panicking unit drops `guard` un-completed:
        // the flight resolves Failed and waiters re-contest.
        let output = self.compute(unit.run, key, cancel)?;
        let payload = (codec.encode)(&*output);
        // With a disk cache the payload goes to disk only: it becomes
        // memory-warm when a later call loads it back (the disk-hit branch
        // above). Waiters on this flight get the payload either way.
        let stored = match cache {
            Some(cache) => cache.store(key, &payload),
            None => {
                self.store_mem(digest, &payload);
                Ok(())
            }
        };
        guard.complete(payload);
        stored.map_err(RunError::Store)?;
        Ok((output, event))
    }

    /// Run one unit's closure under a compute permit. A panic in the closure is
    /// caught and returned as [`RunError::UnitPanicked`]; the permit returns
    /// either way.
    fn compute(
        &self,
        run: impl FnOnce() -> UnitOutput,
        key: &UnitKey,
        cancel: Option<Cancel<'_>>,
    ) -> Result<UnitOutput, RunError> {
        let _permit = self.gate.acquire(cancel)?;
        // A unit only reads its plan's data and its output is dropped with the
        // panic, so nothing it left half done is seen again.
        std::panic::catch_unwind(AssertUnwindSafe(run)).map_err(|payload| RunError::UnitPanicked {
            scenario: key.scenario.clone(),
            grid_index: key.grid_index,
            replication_index: key.replication_index,
            message: panic_message(&*payload),
        })
    }

    /// Run a flattened unit list, returning each unit's output and cache event
    /// in unit order. The crate's one execution core: [`UnitPool::run`] and a
    /// sharded batch ([`crate::runner::run_batch`]) both call it.
    ///
    /// Memory-warm units resolve first, on the calling thread: one probe of
    /// the cancel hook, one `mem` lock for the whole list, payload decodes
    /// outside the lock. Only the rest go to `desim::par`'s claim loop, where
    /// up to `jobs` workers claim them and probe the hook once per claim; the
    /// pool's gate additionally bounds *computation* across every concurrent
    /// call. An all-warm call therefore spawns no thread.
    pub(crate) fn execute(
        &self,
        units: Vec<PlanUnit<'_>>,
        cache: Option<&UnitCache>,
        hooks: &RunHooks<'_>,
    ) -> Result<Vec<(UnitOutput, CacheEvent)>, RunError> {
        let RunHooks { progress, cancel } = *hooks;
        if cancel.is_some_and(|probe| probe()) {
            return Err(RunError::Cancelled);
        }
        let total = units.len();
        // Serialized, so observers see 1, 2, …, total in order.
        let completed = Mutex::new(0);
        let tick = || {
            if let Some(progress) = progress {
                let mut done = unpoisoned(completed.lock());
                *done += 1;
                progress(*done, total);
            }
        };

        let payloads: Vec<Option<Arc<str>>> = {
            let mem = unpoisoned(self.mem.lock());
            units
                .iter()
                .map(|unit| mem.get(&unit.key.digest_u128()).cloned())
                .collect()
        };
        // `None` marks a unit left for the claim loop. A payload its codec
        // cannot read takes `run_unit`'s path like any other miss.
        let mut results: Vec<Option<(UnitOutput, CacheEvent)>> = Vec::with_capacity(total);
        // The claim loop lends each worker a shared reference; the slot lets the
        // claiming worker take its `FnOnce` unit by value.
        let mut slots: Vec<Mutex<Option<PlanUnit<'_>>>> = Vec::new();
        for (unit, payload) in units.into_iter().zip(payloads) {
            let hit = payload.and_then(|text| decode_warm(&text, &unit.codec));
            if let Some(output) = hit {
                tick();
                results.push(Some((output, CacheEvent::Hit)));
            } else {
                results.push(None);
                slots.push(Mutex::new(Some(unit)));
            }
        }

        // Units not warm in memory may sit in segments another process appended
        // since the cache was opened; an all-warm call never touches the disk.
        if let (Some(cache), false) = (cache, slots.is_empty()) {
            cache.refresh();
        }

        // The call's first failure; once set, its outputs are discarded, so
        // later claims return at once.
        let failure = OnceLock::new();
        let computed = desim::par::work_steal_map(&slots, self.jobs, |_, slot| {
            if failure.get().is_some() {
                return None;
            }
            if cancel.is_some_and(|probe| probe()) {
                let _ = failure.set(RunError::Cancelled);
                return None;
            }
            let unit = unpoisoned(slot.lock()).take();
            // audit:allow(unwrap-in-library): the claim loop hands each index to exactly one worker
            match self.run_unit(unit.expect("each unit claimed once"), cache, cancel) {
                Ok(done) => {
                    tick();
                    Some(done)
                }
                Err(err) => {
                    let _ = failure.set(err);
                    None
                }
            }
        });
        if let Some(err) = failure.into_inner() {
            return Err(err);
        }
        // Without a failure no claim returned early: every slot has an output,
        // and the slots are the `None`s of `results`, in order.
        let mut computed = computed.into_iter().flatten();
        Ok(results
            .into_iter()
            .filter_map(|warm| warm.or_else(|| computed.next()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::UnitKeyer;
    use crate::report::ScenarioReport;
    use serde::Value;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn plan_squaring<'s>(name: &'s str, n: usize) -> ScenarioPlan<'s> {
        let keyer = UnitKeyer::new(name, &Value::Map(vec![]), 0);
        let units: Vec<_> = (0..n).map(|i| (keyer.key(i, 0), move || i * i)).collect();
        ScenarioPlan::cached_map_reduce(units, move |squares: Vec<usize>| {
            let mut report = ScenarioReport::new(name, "squares", 0, Value::Map(vec![]));
            for (i, sq) in squares.iter().enumerate() {
                report = report.with_metric(&format!("sq{i}"), *sq as f64);
            }
            report
        })
    }

    /// Like `plan_squaring` but cacheable: every unit carries a key, and executions
    /// are counted so tests can prove which units actually ran.
    fn plan_squaring_cached<'s>(
        name: &'s str,
        n: usize,
        runs: &'s AtomicUsize,
    ) -> ScenarioPlan<'s> {
        plan_squaring_at(name, (0..n).collect(), runs)
    }

    /// `plan_squaring_cached` over the given grid indices only.
    fn plan_squaring_at<'s>(
        name: &'s str,
        indices: Vec<usize>,
        runs: &'s AtomicUsize,
    ) -> ScenarioPlan<'s> {
        let keyer = UnitKeyer::new(name, &Value::Map(vec![]), 1);
        let units: Vec<_> = indices
            .into_iter()
            .map(|i| {
                (keyer.key(i, 0), move || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    i * i
                })
            })
            .collect();
        ScenarioPlan::cached_map_reduce(units, move |squares: Vec<usize>| {
            let mut report = ScenarioReport::new(name, "squares", 0, Value::Map(vec![]));
            for (i, sq) in squares.iter().enumerate() {
                report = report.with_metric(&format!("sq{i}"), *sq as f64);
            }
            report
        })
    }

    /// Hooks holding only the cancellation probe `probe`.
    fn cancelled_by<'c>(probe: Cancel<'c>) -> RunHooks<'c> {
        RunHooks {
            cancel: Some(probe),
            ..RunHooks::default()
        }
    }

    /// Run plans on a fresh pool without a disk cache, keeping only the reports.
    fn run_uncached(plans: Vec<ScenarioPlan<'_>>, jobs: usize) -> Vec<ScenarioReport> {
        UnitPool::new(jobs)
            .run_plans_cached(plans, None)
            .unwrap()
            .into_iter()
            .map(|outcome| outcome.report)
            .collect()
    }

    #[test]
    fn outputs_arrive_in_unit_order_for_any_job_count() {
        for jobs in [1, 2, 8] {
            let report = run_uncached(vec![plan_squaring("sq", 40)], jobs).remove(0);
            for i in 0..40 {
                assert_eq!(
                    report.metric(&format!("sq{i}")),
                    Some((i * i) as f64),
                    "jobs={jobs}"
                );
            }
        }
    }

    #[test]
    fn plans_keep_their_outputs_separate() {
        let reports = run_uncached(vec![plan_squaring("a", 7), plan_squaring("b", 13)], 4);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].scenario, "a");
        assert_eq!(reports[0].metrics.len(), 7);
        assert_eq!(reports[1].scenario, "b");
        assert_eq!(reports[1].metrics.len(), 13);
    }

    #[test]
    fn single_plan_runs_whole_scenario_as_one_unit() {
        let key = UnitKeyer::new("one", &Value::Map(vec![]), 7).key(0, 0);
        let plan = ScenarioPlan::cached_single(key, || {
            ScenarioReport::new("one", "single unit", 7, Value::Map(vec![])).with_metric("x", 1.0)
        });
        assert_eq!(plan.unit_count(), 1);
        let report = run_uncached(vec![plan], 8).remove(0);
        assert_eq!(report.scenario, "one");
        assert_eq!(report.metric("x"), Some(1.0));
    }

    #[test]
    fn resolve_jobs_maps_zero_to_available_parallelism() {
        assert_eq!(resolve_jobs(0), desim::par::available_threads());
        assert_eq!(resolve_jobs(3), 3);
    }

    #[test]
    fn warm_plan_is_served_from_cache_without_running_units() {
        let root = std::env::temp_dir().join(format!("pim-exec-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        let runs = AtomicUsize::new(0);

        let cold = UnitPool::new(4)
            .run_plans_cached(vec![plan_squaring_cached("sq", 20, &runs)], Some(&cache))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 20);
        assert_eq!(
            cold.cache,
            CacheCounts {
                hits: 0,
                misses: 20,
                recomputed: 0
            }
        );

        // Warm: every unit hits, no closure runs, report is identical — at a
        // different job count, so hit behaviour is claim-order independent.
        for jobs in [1, 8] {
            let warm = UnitPool::new(jobs)
                .run_plans_cached(vec![plan_squaring_cached("sq", 20, &runs)], Some(&cache))
                .unwrap()
                .pop()
                .unwrap();
            assert_eq!(
                runs.load(Ordering::Relaxed),
                20,
                "jobs={jobs}: units re-ran"
            );
            assert_eq!(
                warm.cache,
                CacheCounts {
                    hits: 20,
                    misses: 0,
                    recomputed: 0
                }
            );
            assert_eq!(warm.report.to_json(), cold.report.to_json(), "jobs={jobs}");
        }

        // Without the cache handle the same plan runs everything again.
        let uncached = UnitPool::new(2)
            .run_plans_cached(vec![plan_squaring_cached("sq", 20, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 40);
        assert_eq!(uncached.cache, CacheCounts::default());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn changed_key_fields_miss_instead_of_hitting() {
        let root = std::env::temp_dir().join(format!("pim-exec-keys-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        let runs = AtomicUsize::new(0);
        fn plan_with_seed(seed: u64, runs: &AtomicUsize) -> ScenarioPlan<'_> {
            let keyer = UnitKeyer::new("sq", &Value::Map(vec![]), seed);
            let units: Vec<_> = (0..4usize)
                .map(|i| {
                    (keyer.key(i, 0), move || {
                        runs.fetch_add(1, Ordering::Relaxed);
                        i
                    })
                })
                .collect();
            ScenarioPlan::cached_map_reduce(units, |_: Vec<usize>| {
                ScenarioReport::new("sq", "d", 0, Value::Map(vec![]))
            })
        }
        UnitPool::new(2)
            .run_plans_cached(vec![plan_with_seed(1, &runs)], Some(&cache))
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 4);
        // A different seed addresses different entries: all units run again.
        let other = UnitPool::new(2)
            .run_plans_cached(vec![plan_with_seed(2, &runs)], Some(&cache))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 8);
        assert_eq!(other.cache.misses, 4);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_failed_store_fails_the_call_and_leaves_nothing_memory_warm() {
        let root = std::env::temp_dir().join(format!("pim-exec-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        // A regular file where the entry directory must be: every store fails,
        // even for root-privileged test runners.
        let units = root.join("units");
        std::fs::remove_dir_all(&units).unwrap();
        std::fs::write(&units, "x").unwrap();
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        let Err(RunError::Store(message)) = pool.run(
            vec![plan_squaring_cached("sq", 6, &runs)],
            Some(&cache),
            &RunHooks::default(),
        ) else {
            panic!("a failed store did not fail the call");
        };
        assert!(message.contains("units"), "{message}");
        assert_eq!(
            pool.mem_entries(),
            0,
            "a refused payload became memory-warm"
        );
        assert_eq!(pool.flights_in_progress(), 0);

        // With the directory back, the same pool computes and stores every unit:
        // nothing from the failed call is served as a hit. Computed units go
        // to disk only.
        std::fs::remove_file(&units).unwrap();
        std::fs::create_dir(&units).unwrap();
        let outcome = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 6, &runs)], Some(&cache))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(outcome.cache.misses, 6);
        assert_eq!(pool.mem_entries(), 0);

        // A repeat loads every unit from disk, and that is what warms memory.
        let outcome = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 6, &runs)], Some(&cache))
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(outcome.cache.hits, 6);
        assert_eq!(pool.mem_entries(), 6);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn units_loaded_from_disk_stay_warm_when_the_disk_cache_is_gone() {
        let root = std::env::temp_dir().join(format!("pim-exec-promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        let run = || {
            pool.run_plans_cached(vec![plan_squaring_cached("sq", 8, &runs)], Some(&cache))
                .unwrap()
                .pop()
                .unwrap()
        };
        let cold = run();
        assert_eq!(cold.cache.misses, 8);
        assert_eq!(
            pool.mem_entries(),
            0,
            "a computed unit was admitted to memory"
        );
        assert_eq!(run().cache.hits, 8);
        assert_eq!(pool.mem_entries(), 8);

        // Every unit is memory-warm now: the repeat needs neither the disk
        // cache nor a computation.
        std::fs::remove_dir_all(&root).unwrap();
        let warm = run();
        assert_eq!(
            warm.cache,
            CacheCounts {
                hits: 8,
                misses: 0,
                recomputed: 0
            }
        );
        assert_eq!(runs.load(Ordering::Relaxed), 8);
        assert_eq!(warm.report.to_json(), cold.report.to_json());
    }

    #[test]
    fn persistent_pool_serves_repeat_batches_from_memory() {
        // No disk cache anywhere: the pool's own result map must carry the
        // warmth across batches, which an ephemeral pool cannot do.
        let pool = UnitPool::new(4);
        let runs = AtomicUsize::new(0);
        let cold = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 12, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 12);
        assert_eq!(pool.mem_entries(), 12);
        let warm = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 12, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(
            runs.load(Ordering::Relaxed),
            12,
            "memory-warm batch re-ran units"
        );
        assert_eq!(warm.cache.hits, 12);
        assert_eq!(warm.report.to_json(), cold.report.to_json());
    }

    type Exact = (f64, i64, u64, String);

    /// A cacheable plan whose units return `outputs`, reporting them with
    /// every float as its bit pattern so any drift shows in the JSON.
    fn plan_exact<'s>(outputs: &'s [Exact], runs: &'s AtomicUsize) -> ScenarioPlan<'s> {
        let keyer = UnitKeyer::new("exact", &Value::Map(vec![]), 3);
        let units: Vec<_> = outputs
            .iter()
            .enumerate()
            .map(|(i, out)| {
                (keyer.key(i, 0), move || {
                    runs.fetch_add(1, Ordering::Relaxed);
                    out.clone()
                })
            })
            .collect();
        ScenarioPlan::cached_map_reduce(units, |outs: Vec<Exact>| {
            let rows = outs
                .into_iter()
                .map(|(x, i, u, s)| {
                    Value::Seq(vec![
                        Value::U64(x.to_bits()),
                        Value::I64(i),
                        Value::U64(u),
                        Value::Str(s),
                    ])
                })
                .collect();
            ScenarioReport::new("exact", "outputs", 0, Value::Seq(rows))
        })
    }

    #[test]
    fn memory_hits_restore_outputs_bit_for_bit() {
        // The warm map holds payloads as JSON text: a memory hit must bring
        // back float bits, integer extremes and escaped strings unchanged.
        let outputs: Vec<Exact> = vec![
            (0.1 + 0.2, i64::MIN, u64::MAX, "\"q\" \\ \n\t\u{1}".into()),
            (-0.0, -1, 0, "é ✓ 𝄞".into()),
            (f64::MIN_POSITIVE / 1024.0, i64::MAX, 1, String::new()),
            (f64::MAX, 0, u64::from(u32::MAX), "plain".into()),
        ];
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        let run = || {
            pool.run_plans_cached(vec![plan_exact(&outputs, &runs)], None)
                .unwrap()
                .pop()
                .unwrap()
        };
        let cold = run();
        let warm = run();
        assert_eq!(runs.load(Ordering::Relaxed), outputs.len());
        assert_eq!(warm.cache.hits, outputs.len() as u64);
        assert_eq!(warm.report.to_json(), cold.report.to_json());
    }

    #[test]
    fn non_finite_payloads_stay_out_of_the_warm_map() {
        // `Some(NaN)` renders as JSON `null`, which reads back as `None`: a warm
        // copy of this unit would change its report, so it recomputes instead.
        let plan = || {
            let key = UnitKeyer::new("nan", &Value::Map(vec![]), 3).key(0, 0);
            ScenarioPlan::cached_map_reduce(vec![(key, || Some(f64::NAN))], |out| {
                ScenarioReport::new("nan", "non-finite", 3, Value::Map(vec![]))
                    .with_metric("present", f64::from(u8::from(out[0].is_some())))
            })
        };
        let run = |pool: &UnitPool| {
            let outcome = pool.run_plans_cached(vec![plan()], None).unwrap().remove(0);
            (outcome.report.to_json(), outcome.cache.hits)
        };
        let pool = UnitPool::new(2);
        run(&pool);
        let (fresh, _) = run(&UnitPool::new(2));
        assert_eq!(run(&pool), (fresh, 0));
    }

    /// Spin until `cond` holds (the pool exposes occupancy, not wakeups).
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition never became true: {what}");
    }

    #[test]
    fn occupancy_counters_expose_gate_and_flight_tables() {
        let pool = UnitPool::new(2);
        assert_eq!(pool.permits_total(), 2);
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let keyer = UnitKeyer::new("occ", &Value::Map(vec![]), 9);
                let units = vec![(keyer.key(0, 0), move || {
                    rx.recv().unwrap();
                    7usize
                })];
                let plan = ScenarioPlan::cached_map_reduce(units, |_: Vec<usize>| {
                    ScenarioReport::new("occ", "d", 0, Value::Map(vec![]))
                });
                pool.run_plans_cached(vec![plan], None).unwrap();
            });
            wait_for("one permit held and one flight registered", || {
                pool.permits_in_use() == 1 && pool.flights_in_progress() == 1
            });
            tx.send(()).unwrap();
            handle.join().unwrap();
        });
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
        assert_eq!(pool.mem_entries(), 1);
    }

    #[test]
    fn a_cancelled_call_fails_without_running_units_and_the_pool_survives() {
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        let probe = || true;
        let Err(err) = pool.run(
            vec![plan_squaring_cached("sq", 8, &runs)],
            None,
            &cancelled_by(&probe),
        ) else {
            panic!("cancelled call succeeded");
        };
        assert_eq!(err, RunError::Cancelled);
        assert_eq!(runs.load(Ordering::Relaxed), 0, "cancelled call ran units");
        assert_eq!(pool.flights_in_progress(), 0);
        assert_eq!(pool.permits_in_use(), 0);
        // The pool is fully reusable afterwards.
        let outcome = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 8, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(runs.load(Ordering::Relaxed), 8);
        assert_eq!(outcome.report.metrics.len(), 8);
    }

    #[test]
    fn a_warm_call_probes_once_and_runs_no_unit() {
        let pool = UnitPool::new(4);
        let runs = AtomicUsize::new(0);
        let cold = pool
            .run_plans_cached(vec![plan_squaring_cached("sq", 16, &runs)], None)
            .unwrap()
            .pop()
            .unwrap();
        let probes = AtomicUsize::new(0);
        let probe = || {
            probes.fetch_add(1, Ordering::Relaxed);
            false
        };
        let warm = pool
            .run(
                vec![plan_squaring_cached("sq", 16, &runs)],
                None,
                &cancelled_by(&probe),
            )
            .unwrap()
            .pop()
            .unwrap();
        assert_eq!(probes.load(Ordering::Relaxed), 1, "one probe per warm call");
        assert_eq!(runs.load(Ordering::Relaxed), 16, "a warm unit ran");
        assert_eq!(warm.cache.hits, 16);
        assert_eq!(warm.report.to_json(), cold.report.to_json());
    }

    #[test]
    fn a_warm_call_whose_probe_fired_is_cancelled() {
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        pool.run_plans_cached(vec![plan_squaring_cached("sq", 6, &runs)], None)
            .unwrap();
        let probe = || true;
        let Err(err) = pool.run(
            vec![plan_squaring_cached("sq", 6, &runs)],
            None,
            &cancelled_by(&probe),
        ) else {
            panic!("a cancelled warm call succeeded");
        };
        assert_eq!(err, RunError::Cancelled);
        assert_eq!(runs.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn a_half_warm_plan_ticks_in_order_and_assembles_the_cold_report() {
        const UNITS: usize = 20;
        let runs = AtomicUsize::new(0);
        let cold = run_uncached(vec![plan_squaring_cached("sq", UNITS, &runs)], 2).remove(0);
        for jobs in [1, 8] {
            let pool = UnitPool::new(jobs);
            // Warm every other unit, so hits and computed units interleave.
            let evens = (0..UNITS).step_by(2).collect();
            pool.run_plans_cached(vec![plan_squaring_at("sq", evens, &runs)], None)
                .unwrap();
            let before = runs.load(Ordering::Relaxed);
            let ticks = Mutex::new(Vec::new());
            let progress = |done: usize, total: usize| {
                assert_eq!(total, UNITS);
                ticks.lock().unwrap().push(done);
            };
            let hooks = RunHooks {
                progress: Some(&progress),
                ..RunHooks::default()
            };
            let outcome = pool
                .run(vec![plan_squaring_cached("sq", UNITS, &runs)], None, &hooks)
                .unwrap()
                .pop()
                .unwrap();
            let expected: Vec<usize> = (1..=UNITS).collect();
            assert_eq!(ticks.into_inner().unwrap(), expected, "jobs={jobs}");
            assert_eq!(outcome.cache.hits as usize, UNITS / 2, "jobs={jobs}");
            assert_eq!(runs.load(Ordering::Relaxed) - before, UNITS / 2);
            assert_eq!(outcome.report.to_json(), cold.to_json(), "jobs={jobs}");
        }
    }

    #[test]
    fn a_cancelled_flight_owner_fails_over_to_foreign_waiters() {
        // Client A owns unit U's flight but is queued on the (fully occupied)
        // gate when its client vanishes. Cancelling A must fail its flight so
        // client B — a foreign waiter on the same digest — re-contests
        // ownership and computes U itself once a permit frees up.
        let pool = UnitPool::new(1);
        assert_eq!(pool.permits_total(), 1);
        let runs = AtomicUsize::new(0);
        let (block_tx, block_rx) = std::sync::mpsc::channel::<()>();
        let cancel_a = AtomicBool::new(false);
        std::thread::scope(|scope| {
            // X holds the pool's only compute permit, and the flight of its own
            // unit, until told to finish.
            let x = scope.spawn(|| {
                let key = UnitKeyer::new("block", &Value::Map(vec![]), 0).key(0, 0);
                let plan = ScenarioPlan::cached_single(key, move || {
                    block_rx.recv().unwrap();
                    ScenarioReport::new("block", "d", 0, Value::Map(vec![]))
                });
                pool.run_plans_cached(vec![plan], None).unwrap();
            });
            wait_for("X holds the only permit", || pool.permits_in_use() == 1);

            // A claims U's flight, then blocks on the gate behind X.
            let a = scope.spawn(|| {
                let probe = || cancel_a.load(Ordering::Relaxed);
                pool.run(
                    vec![plan_squaring_cached("u", 1, &runs)],
                    None,
                    &cancelled_by(&probe),
                )
            });
            // X's flight plus A's.
            wait_for("A registered U's flight", || {
                pool.flights_in_progress() == 2
            });

            // B waits on A's flight (same digest, no cancellation).
            let b = scope
                .spawn(|| pool.run_plans_cached(vec![plan_squaring_cached("u", 1, &runs)], None));
            std::thread::sleep(Duration::from_millis(100));

            cancel_a.store(true, Ordering::Relaxed);
            let Err(err) = a.join().unwrap() else {
                panic!("cancelled owner succeeded");
            };
            assert_eq!(err, RunError::Cancelled);
            assert_eq!(
                runs.load(Ordering::Relaxed),
                0,
                "cancelled owner computed U"
            );

            // B survives A's cancellation: it re-contests, computes U once the
            // permit frees, and produces the correct report.
            block_tx.send(()).unwrap();
            x.join().unwrap();
            let outcome = b.join().unwrap().unwrap().pop().unwrap();
            assert_eq!(runs.load(Ordering::Relaxed), 1);
            assert_eq!(outcome.report.metric("sq0"), Some(0.0));
        });
        assert_eq!(pool.flights_in_progress(), 0);
        assert_eq!(pool.permits_in_use(), 0);
    }

    #[test]
    fn a_panicking_unit_fails_its_call_and_the_pool_keeps_serving() {
        let plan = || {
            let keyer = UnitKeyer::new("boom", &Value::Map(vec![]), 5);
            let units: Vec<_> = (0..4usize)
                .map(|i| {
                    (keyer.key(i, 0), move || {
                        if i == 2 {
                            panic!("unit {i} failed");
                        }
                        i
                    })
                })
                .collect();
            ScenarioPlan::cached_map_reduce(units, |_: Vec<usize>| {
                ScenarioReport::new("boom", "d", 0, Value::Map(vec![]))
            })
        };
        let pool = UnitPool::new(2);
        let Err(err) = pool.run(vec![plan()], None, &RunHooks::default()) else {
            panic!("a panicking unit did not fail the call");
        };
        let RunError::UnitPanicked {
            scenario,
            grid_index,
            replication_index,
            message,
        } = &err
        else {
            panic!("wrong error: {err:?}");
        };
        assert_eq!(
            (scenario.as_str(), *grid_index, *replication_index),
            ("boom", 2, 0)
        );
        assert!(message.contains("unit 2 failed"), "{message}");
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
        // The wrapper renders the same error as its `String`.
        assert_eq!(
            pool.run_plans_cached(vec![plan()], None).err(),
            Some(err.to_string())
        );

        let runs = AtomicUsize::new(0);
        let outcome = pool
            .run(
                vec![plan_squaring_cached("sq", 8, &runs)],
                None,
                &RunHooks::default(),
            )
            .unwrap()
            .remove(0);
        assert_eq!(outcome.report.metrics.len(), 8);
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
    }

    /// A one-unit plan keyed like `plan_squaring_cached(name, 1, _)` whose unit
    /// blocks until `release` yields.
    fn plan_blocked<'s>(name: &'s str, release: std::sync::mpsc::Receiver<()>) -> ScenarioPlan<'s> {
        let key = UnitKeyer::new(name, &Value::Map(vec![]), 1).key(0, 0);
        let unit = move || {
            release.recv().unwrap();
            0usize
        };
        ScenarioPlan::cached_map_reduce(vec![(key, unit)], move |_: Vec<usize>| {
            ScenarioReport::new(name, "blocked", 0, Value::Map(vec![]))
        })
    }

    /// X holds the pool's only permit while it computes unit 0 of `blocker`.
    /// B, then A, run unit 0 of `b_unit` and `a_unit` and queue behind X: on
    /// the gate, or on X's flight when their unit is X's. B's probe only counts
    /// its polls; A's panics on its third, the first one while queued (after
    /// the call's start and its claim). X and B must still finish, and the pool
    /// must serve later calls.
    fn a_queued_probe_panic_costs_only_its_own_call(blocker: &str, a_unit: &str, b_unit: &str) {
        let pool = UnitPool::new(1);
        let runs = AtomicUsize::new(0);
        let (a_polls, b_polls) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let a_probe = || {
            if a_polls.fetch_add(1, Ordering::SeqCst) == 2 {
                panic!("probe failed");
            }
            false
        };
        let b_probe = || {
            b_polls.fetch_add(1, Ordering::SeqCst);
            false
        };
        let run = |unit: &str, hooks: &RunHooks<'_>| {
            pool.run(vec![plan_squaring_cached(unit, 1, &runs)], None, hooks)
        };
        let (release, blocked) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let x = scope.spawn(|| {
                pool.run(
                    vec![plan_blocked(blocker, blocked)],
                    None,
                    &RunHooks::default(),
                )
            });
            wait_for("X holds the only permit", || pool.permits_in_use() == 1);
            let b = scope.spawn(|| run(b_unit, &cancelled_by(&b_probe)));
            wait_for("B is queued", || b_polls.load(Ordering::SeqCst) >= 3);
            let a = scope.spawn(|| run(a_unit, &cancelled_by(&a_probe)));
            assert!(
                a.join().is_err(),
                "the probe's panic did not reach its caller"
            );
            assert_eq!(a_polls.load(Ordering::SeqCst), 3);
            release.send(()).unwrap();
            assert!(x.join().unwrap().is_ok(), "X failed with A");
            assert!(b.join().unwrap().is_ok(), "B failed with A");
        });
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
        for _ in 0..2 {
            let outcome = run(a_unit, &RunHooks::default()).unwrap().remove(0);
            assert_eq!(outcome.report.metric("sq0"), Some(0.0));
        }
        assert_eq!(pool.permits_in_use(), 0);
        assert_eq!(pool.flights_in_progress(), 0);
    }

    #[test]
    fn a_probe_panicking_on_the_gate_leaves_other_callers_running() {
        a_queued_probe_panic_costs_only_its_own_call("x", "a", "b");
    }

    #[test]
    fn a_probe_panicking_on_a_foreign_flight_leaves_other_callers_running() {
        a_queued_probe_panic_costs_only_its_own_call("x", "x", "x");
    }

    #[test]
    fn concurrent_identical_batches_compute_each_unit_exactly_once() {
        // N clients of one pool submit the same 16-unit plan at once. Single
        // flight means the closure bodies run exactly 16 times in total, and the
        // summed accounting shows one non-hit per unit — the rest are hits.
        const CLIENTS: usize = 6;
        const UNITS: usize = 16;
        let pool = UnitPool::new(4);
        let runs = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(CLIENTS);
        let outcomes: Vec<PlanOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        pool.run_plans_cached(vec![plan_squaring_cached("sq", UNITS, &runs)], None)
                            .unwrap()
                            .pop()
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(
            runs.load(Ordering::Relaxed),
            UNITS,
            "units recomputed despite single-flight deduplication"
        );
        let mut computed = 0;
        let mut hits = 0;
        for outcome in &outcomes {
            computed += outcome.cache.misses + outcome.cache.recomputed;
            hits += outcome.cache.hits;
            assert_eq!(
                outcome.report.to_json(),
                outcomes[0].report.to_json(),
                "concurrent clients saw different reports"
            );
        }
        // Accounting proof: with no disk cache, first-computation events are
        // "uncached" (invisible), so every counted event is a dedup/memory hit.
        assert_eq!(computed, 0);
        assert_eq!(hits as usize, CLIENTS * UNITS - UNITS);
    }

    #[test]
    fn pool_dedup_counts_one_miss_per_unit_with_a_disk_cache() {
        let root = std::env::temp_dir().join(format!("pim-exec-flight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = UnitCache::open(&root).unwrap();
        const CLIENTS: usize = 4;
        const UNITS: usize = 10;
        let pool = UnitPool::new(2);
        let runs = AtomicUsize::new(0);
        let barrier = std::sync::Barrier::new(CLIENTS);
        let outcomes: Vec<PlanOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        pool.run_plans_cached(
                            vec![plan_squaring_cached("sq", UNITS, &runs)],
                            Some(&cache),
                        )
                        .unwrap()
                        .pop()
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::Relaxed), UNITS);
        let (mut misses, mut hits, mut recomputed) = (0, 0, 0);
        for outcome in &outcomes {
            misses += outcome.cache.misses;
            hits += outcome.cache.hits;
            recomputed += outcome.cache.recomputed;
        }
        assert_eq!(misses as usize, UNITS, "exactly one miss per unit key");
        assert_eq!(recomputed, 0);
        assert_eq!(hits as usize, CLIENTS * UNITS - UNITS);
        let _ = std::fs::remove_dir_all(&root);
    }
}
