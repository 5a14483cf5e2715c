//! The discrete-event simulation engine.
//!
//! The engine is *event-oriented*: a model implements [`Model`], defining an event
//! payload type and a handler that receives each event in time order together with a
//! [`Scheduler`] through which it can schedule future events. This mirrors
//! the transaction-oriented style of SES/Workbench while remaining borrow-checker
//! friendly (the model owns all mutable state; the engine owns the clock and the
//! pending events).
//!
//! The pending events sit in one `std::collections::BinaryHeap` ordered by
//! `(time, seq)`, where `seq` counts schedule calls: the earliest event fires
//! first, and simultaneous events fire in the order they were scheduled — the
//! same guarantee SES/Workbench provides. Payloads sit inline in the heap
//! entries.
//!
//! ```
//! use desim::prelude::*;
//!
//! /// A counter that re-schedules itself every 10 ns, five times.
//! struct Ticker { fired: u32 }
//!
//! impl Model for Ticker {
//!     type Event = ();
//!     fn handle(&mut self, _now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
//!         self.fired += 1;
//!         if self.fired < 5 {
//!             sched.schedule_in(SimDuration::from_ns(10), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Ticker { fired: 0 });
//! sim.scheduler().schedule_at(SimTime::ZERO, ());
//! let dispatched = sim.run();
//! assert_eq!(sim.model().fired, 5);
//! assert_eq!(dispatched, 5);
//! assert_eq!(sim.now(), SimTime::from_ns(40));
//! ```

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A simulation model: the owner of all model state and the handler of all events.
pub trait Model {
    /// The event payload type dispatched through the engine.
    type Event;

    /// Handle one event occurring at `now`. New events may be scheduled through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// A pending event. `seq` is unique, so `(time, seq)` orders all of them.
struct Pending<E> {
    time: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Pending<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, and the smallest key fires first.
        other.key().cmp(&self.key())
    }
}

/// Interface handed to the model for scheduling future events. It owns the clock
/// and the pending events, so a scheduled event goes straight into the heap.
pub struct Scheduler<E> {
    now: SimTime,
    next_seq: u64,
    pending: BinaryHeap<Pending<E>>,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            pending: BinaryHeap::new(),
        }
    }

    /// Schedule `event` at absolute time `at`, which must not precede the current
    /// time. Simultaneous events fire in the order they were scheduled.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={} requested={}",
            self.now,
            at
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push(Pending {
            time: at,
            seq,
            payload: event,
        });
    }

    /// Schedule `event` after a delay relative to the current time.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event)
    }
}

/// The simulation engine: owns the model and, through its [`Scheduler`], the clock
/// and the pending events.
pub struct Simulation<M: Model> {
    model: M,
    scheduler: Scheduler<M::Event>,
    horizon: Option<SimTime>,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `model` with no pending events.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            scheduler: Scheduler::new(),
            horizon: None,
            events_processed: 0,
        }
    }

    /// Set a time horizon: the run stops before dispatching any event strictly after it.
    pub fn set_horizon(&mut self, horizon: SimTime) -> &mut Self {
        self.horizon = Some(horizon);
        self
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.scheduler.now
    }

    /// Immutable access to the model.
    #[inline]
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Access the scheduler to seed initial events before calling [`Simulation::run`].
    pub fn scheduler(&mut self) -> &mut Scheduler<M::Event> {
        &mut self.scheduler
    }

    /// Run an initialization closure with simultaneous access to the model and the
    /// scheduler, for models whose setup needs to schedule their own first events.
    pub fn init<F>(&mut self, f: F)
    where
        F: FnOnce(&mut M, &mut Scheduler<M::Event>),
    {
        f(&mut self.model, &mut self.scheduler);
    }

    /// Number of events dispatched so far across all `run` calls.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Run until no event is pending or the next one lies beyond the horizon, and
    /// return the number of events this call dispatched. A horizon stop leaves the
    /// clock at the horizon; the run may be resumed after moving the horizon out,
    /// and time never goes backwards.
    ///
    /// The loop pops the next event directly and, in the rare case it lies beyond the
    /// horizon, pushes it back intact (same `seq`, so its order is unaffected) rather
    /// than peeking before every pop.
    pub fn run(&mut self) -> u64 {
        let sched = &mut self.scheduler;
        let mut dispatched = 0u64;
        while let Some(ev) = sched.pending.pop() {
            if let Some(h) = self.horizon {
                if ev.time > h {
                    sched.pending.push(ev);
                    sched.now = h;
                    break;
                }
            }
            debug_assert!(ev.time >= sched.now, "pending event lies in the past");
            sched.now = ev.time;
            self.model.handle(ev.time, ev.payload, sched);
            dispatched += 1;
        }
        self.events_processed += dispatched;
        dispatched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ev {
        Ping(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, Ev)>,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, _sched: &mut Scheduler<Ev>) {
            self.seen.push((now.ticks(), ev));
        }
    }

    fn times(sim: &Simulation<Recorder>) -> Vec<u64> {
        sim.model().seen.iter().map(|(t, _)| *t).collect()
    }

    #[test]
    fn dispatches_in_time_order() {
        let mut sim = Simulation::new(Recorder::default());
        let s = sim.scheduler();
        s.schedule_at(SimTime::from_ticks(30), Ev::Ping(3));
        s.schedule_at(SimTime::from_ticks(10), Ev::Ping(1));
        s.schedule_at(SimTime::from_ticks(20), Ev::Ping(2));
        assert_eq!(sim.run(), 3);
        assert_eq!(times(&sim), vec![10, 20, 30]);
        // Nothing is left: another run dispatches nothing and leaves the clock.
        assert_eq!(sim.run(), 0);
        assert_eq!(sim.now(), SimTime::from_ticks(30));
    }

    #[test]
    fn horizon_stops_run_and_clamps_clock() {
        let mut sim = Simulation::new(Recorder::default());
        sim.set_horizon(SimTime::from_ticks(15));
        let s = sim.scheduler();
        s.schedule_at(SimTime::from_ticks(10), Ev::Ping(1));
        s.schedule_at(SimTime::from_ticks(20), Ev::Ping(2));
        assert_eq!(sim.run(), 1);
        assert_eq!(sim.now(), SimTime::from_ticks(15));
        // The beyond-horizon event stays pending: a later horizon dispatches it,
        // and a run that drains stops the clock at its last event, not at the
        // horizon.
        sim.set_horizon(SimTime::from_ticks(100));
        assert_eq!(sim.run(), 1);
        assert_eq!(times(&sim), vec![10, 20]);
        assert_eq!(sim.now(), SimTime::from_ticks(20));
        assert_eq!(sim.events_processed(), 2);
    }

    #[test]
    fn schedule_now_runs_after_simultaneous_events() {
        struct Chainer {
            order: Vec<u32>,
        }
        impl Model for Chainer {
            type Event = u32;
            fn handle(&mut self, now: SimTime, ev: u32, sched: &mut Scheduler<u32>) {
                self.order.push(ev);
                if ev == 1 {
                    sched.schedule_at(now, 3);
                }
            }
        }
        let mut sim = Simulation::new(Chainer { order: vec![] });
        let s = sim.scheduler();
        s.schedule_at(SimTime::from_ticks(10), 1);
        s.schedule_at(SimTime::from_ticks(10), 2);
        sim.run();
        assert_eq!(sim.model().order, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: SimTime, _ev: (), sched: &mut Scheduler<()>) {
                sched.schedule_at(SimTime::from_ticks(now.ticks() - 1), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.scheduler().schedule_at(SimTime::from_ticks(5), ());
        sim.run();
    }

    #[test]
    fn horizon_push_back_keeps_fifo_band_ordered() {
        // A beyond-horizon event is popped and pushed back intact; an earlier
        // event scheduled after the stop, with a later `seq`, must still fire
        // first.
        let mut sim = Simulation::new(Recorder::default());
        sim.set_horizon(SimTime::from_ticks(100));
        sim.scheduler()
            .schedule_at(SimTime::from_ticks(5_000), Ev::Ping(2));
        assert_eq!(sim.run(), 0);
        assert_eq!(sim.now(), SimTime::from_ticks(100));

        sim.set_horizon(SimTime::from_ticks(10_000));
        sim.scheduler()
            .schedule_at(SimTime::from_ticks(200), Ev::Ping(1));
        assert_eq!(sim.run(), 2);
        assert_eq!(times(&sim), vec![200, 5_000]);
    }
}
