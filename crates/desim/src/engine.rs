//! The discrete-event simulation engine.
//!
//! The engine is *event-oriented*: a model implements [`Model`], defining an event
//! payload type and a handler that receives each event in time order together with a
//! [`Scheduler`] through which it can schedule future events. This mirrors
//! the transaction-oriented style of SES/Workbench while remaining borrow-checker
//! friendly (the model owns all mutable state; the engine owns the clock and the
//! pending event set).
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
//! let report = sim.run();
//! assert_eq!(sim.model().fired, 5);
//! assert_eq!(report.events_processed, 5);
//! assert_eq!(sim.now(), SimTime::from_ns(40));
//! ```

use crate::event::{EventQueue, FifoBandQueue, ScheduledEvent};
use crate::time::{SimDuration, SimTime};

/// A simulation model: the owner of all model state and the handler of all events.
pub trait Model {
    /// The event payload type dispatched through the engine.
    type Event;

    /// Handle one event occurring at `now`. New events may be scheduled through `sched`.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Interface handed to the model for scheduling future events. It owns the clock
/// and the pending-event set, so a scheduled event goes straight into the queue.
pub struct Scheduler<E> {
    now: SimTime,
    next_seq: u64,
    queue: FifoBandQueue<E>,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            next_seq: 0,
            queue: FifoBandQueue::new(),
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
        self.queue.push(ScheduledEvent {
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

/// Why a run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The pending event set drained.
    Exhausted,
    /// The configured time horizon was reached.
    HorizonReached,
}

/// Summary of a completed run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Number of events dispatched to the model.
    pub events_processed: u64,
    /// Why the run returned.
    pub reason: StopReason,
}

/// The simulation engine: owns the model and, through its [`Scheduler`], the clock
/// and the pending event set.
pub struct Simulation<M: Model> {
    model: M,
    scheduler: Scheduler<M::Event>,
    horizon: Option<SimTime>,
    events_processed: u64,
}

impl<M: Model> Simulation<M> {
    /// Create a simulation over `model`. Its pending-event set is the two-band
    /// [`FifoBandQueue`], which dispatches in the same `(time, seq)` order as the
    /// reference [`crate::event::BinaryHeapQueue`].
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

    /// Run until the pending set drains or the horizon is hit. May be called
    /// repeatedly (after moving the horizon out); time never goes backwards.
    ///
    /// The loop pops the next event directly and, in the rare case it lies beyond the
    /// horizon, pushes it back intact (same `seq`, so its order is unaffected) rather
    /// than peeking before every pop.
    pub fn run(&mut self) -> RunReport {
        let sched = &mut self.scheduler;
        let mut dispatched_this_run = 0u64;
        let reason = loop {
            let Some(ev) = sched.queue.pop() else {
                break StopReason::Exhausted;
            };
            if let Some(h) = self.horizon {
                if ev.time > h {
                    sched.queue.push(ev);
                    sched.now = h;
                    break StopReason::HorizonReached;
                }
            }
            debug_assert!(
                ev.time >= sched.now,
                "event queue returned an event in the past"
            );
            sched.now = ev.time;
            self.model.handle(ev.time, ev.payload, sched);
            dispatched_this_run += 1;
        };
        self.events_processed += dispatched_this_run;
        RunReport {
            events_processed: dispatched_this_run,
            reason,
        }
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
        let report = sim.run();
        assert_eq!(report.reason, StopReason::Exhausted);
        assert_eq!(report.events_processed, 3);
        assert_eq!(times(&sim), vec![10, 20, 30]);
    }

    #[test]
    fn horizon_stops_run_and_clamps_clock() {
        let mut sim = Simulation::new(Recorder::default());
        sim.set_horizon(SimTime::from_ticks(15));
        let s = sim.scheduler();
        s.schedule_at(SimTime::from_ticks(10), Ev::Ping(1));
        s.schedule_at(SimTime::from_ticks(20), Ev::Ping(2));
        let report = sim.run();
        assert_eq!(report.reason, StopReason::HorizonReached);
        assert_eq!(report.events_processed, 1);
        assert_eq!(sim.now(), SimTime::from_ticks(15));
        // The beyond-horizon event stays pending: a later horizon dispatches it.
        sim.set_horizon(SimTime::from_ticks(100));
        let report = sim.run();
        assert_eq!(report.reason, StopReason::Exhausted);
        assert_eq!(report.events_processed, 1);
        assert_eq!(times(&sim), vec![10, 20]);
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
                sched.schedule_at(now - SimDuration::from_ticks(1), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.scheduler().schedule_at(SimTime::from_ticks(5), ());
        sim.run();
    }

    #[test]
    fn horizon_push_back_keeps_fifo_band_ordered() {
        // A beyond-horizon event is popped and pushed back into the (now empty)
        // FIFO band; an earlier event scheduled later lands under its tail, in
        // the heap band. The next run must still dispatch in time order.
        let mut sim = Simulation::new(Recorder::default());
        sim.set_horizon(SimTime::from_ticks(100));
        sim.scheduler()
            .schedule_at(SimTime::from_ticks(5_000), Ev::Ping(2));
        let r1 = sim.run();
        assert_eq!(r1.reason, StopReason::HorizonReached);
        assert_eq!(sim.model().seen.len(), 0);

        sim.set_horizon(SimTime::from_ticks(10_000));
        sim.scheduler()
            .schedule_at(SimTime::from_ticks(200), Ev::Ping(1));
        let r2 = sim.run();
        assert_eq!(r2.events_processed, 2);
        assert_eq!(times(&sim), vec![200, 5_000]);
    }
}
