//! The reference clock: client-observed time with the sandbox's own speed
//! changes taken out.
//!
//! The sandbox this benchmark runs in does not hold its speed. For tens of
//! seconds at a time everything — a fixed arithmetic loop and the served
//! workloads alike — runs 10–40% slower, so whole runs land in a slow spell:
//! over 80 runs at the seed commit (10 per workload) the interquartile spread
//! of the wall-clock `p50_ms` was 21% on `khop_k2` and that of `p90_ms` 27% on
//! `khop_k6`, more than the 25% the widest bound a benchmark may declare
//! tolerates. No statistic inside a run can repair a run that is slow from
//! end to end; the README has the table.
//!
//! So the traffic is timed on a clock that advances at the machine's measured
//! speed. Between requests the first connection times a fixed arithmetic
//! kernel ([`SHARE`] of the time); during such a *tick* the [`Gate`] keeps
//! every connection from sending, so no request is in flight, the
//! server is idle, and what the server does with its cores cannot change what
//! the kernel reads. Between two ticks the reference clock advances at
//! `NOMINAL_UNIT_US / measured unit time`; during a tick it stands still.
//! Latencies and rates are differences of reference-clock readings, the
//! wall-clock figure is printed beside each (`raw=`), and set-up time, memory
//! and every per-layer figure are wall-clock as measured.

use crate::stats::median;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// What one [`unit`] takes on this sandbox when it is not in a slow spell, in
/// µs. It only fixes the scale — figures read as this sandbox's usual
/// wall-clock — and is the same on both sides of any comparison.
pub const NOMINAL_UNIT_US: f64 = 32.0;

/// Share of the time spent on ticks.
const SHARE: f64 = 0.02;

/// Units per tick, at least (a tick's reading is their median) and at most
/// (after a request of most of a second the share would buy hundreds).
const TICK_UNITS: (usize, usize) = (64, 128);

/// The kernel: 20 000 dependent SplitMix64 steps, cache-resident and
/// branch-free.
#[inline(never)]
fn unit() -> u64 {
    let mut z: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..20_000 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= x ^ (x >> 31);
    }
    acc
}

/// One tick: when it began and ended (seconds since the run's start) and the
/// median unit time it read.
#[derive(Clone, Copy)]
struct Tick {
    from_s: f64,
    to_s: f64,
    unit_us: f64,
}

/// Keeps requests and ticks apart. (A `std::sync::RwLock` would be the same
/// thing, but it lets the other connection's next burst overtake a waiting
/// tick: on `point_read` a tick then waited 50–260 ms for its turn.)
#[derive(Default)]
struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    bursts_in_flight: usize,
    tick_waiting: bool,
}

/// A burst in flight; dropping it lets a waiting tick through.
pub struct InFlight<'a>(&'a Gate);

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        // A poisoned gate means another connection already panicked; let
        // that panic be the one reported.
        if let Ok(mut state) = self.0.state.lock() {
            state.bursts_in_flight -= 1;
            if state.bursts_in_flight == 0 {
                self.0.changed.notify_all();
            }
        }
    }
}

/// What the connections of one run share: the start of time, the gate, and
/// the ticks taken.
pub struct Pace {
    began: Instant,
    gate: Gate,
    ticks: Mutex<Vec<Tick>>,
}

impl Pace {
    pub fn start() -> Pace {
        Pace { began: Instant::now(), gate: Gate::default(), ticks: Mutex::new(Vec::new()) }
    }

    /// Wall-clock seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.began.elapsed().as_secs_f64()
    }

    /// Seconds from the start to `at`.
    pub fn at(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.began).as_secs_f64()
    }

    /// Hold this while a burst is in flight: a tick waits for it, and a burst
    /// waits for a tick.
    pub fn in_flight(&self) -> InFlight<'_> {
        let gate = &self.gate;
        let mut state = gate.state.lock().expect("no connection panics at the gate");
        while state.tick_waiting {
            state = gate.changed.wait(state).expect("no connection panics at the gate");
        }
        state.bursts_in_flight += 1;
        InFlight(gate)
    }

    /// Take a tick if [`SHARE`] of the time since the last one buys one.
    /// One connection calls this, between its bursts.
    pub fn tick(&self) {
        let last = self.ticks.lock().expect("ticks").last().map_or(0.0, |t| t.to_s);
        let afford = (self.wall_s() - last) * SHARE * 1e6 / NOMINAL_UNIT_US;
        if afford < TICK_UNITS.0 as f64 {
            return;
        }
        let gate = &self.gate;
        let mut state = gate.state.lock().expect("no connection panics at the gate");
        state.tick_waiting = true;
        while state.bursts_in_flight > 0 {
            state = gate.changed.wait(state).expect("no connection panics at the gate");
        }
        drop(state);
        let from_s = self.wall_s();
        let us: Vec<f64> = (0..(afford as usize).min(TICK_UNITS.1))
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(unit());
                started.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        let tick = Tick { from_s, to_s: self.wall_s(), unit_us: median(&us) };
        gate.state.lock().expect("no connection panics at the gate").tick_waiting = false;
        gate.changed.notify_all();
        self.ticks.lock().expect("ticks").push(tick);
    }

    /// The reference clock over the ticks taken so far.
    pub fn reference(&self) -> Reference {
        Reference::new(&self.ticks.lock().expect("ticks"), true)
    }

    /// The wall clock with the ticks cut out: what the reference clock would
    /// read had every tick read nominal speed.
    pub fn wall_clock(&self) -> Reference {
        Reference::new(&self.ticks.lock().expect("ticks"), false)
    }
}

/// Wall-clock seconds → reference seconds: piecewise linear, flat across each
/// tick, and between two ticks as steep as the mean of their speeds.
pub struct Reference {
    /// `(wall s, reference s)` at every tick's beginning and end, ascending.
    knots: Vec<(f64, f64)>,
    /// Speed after the last knot (and everywhere, when there is no tick).
    tail_speed: f64,
}

impl Reference {
    fn new(ticks: &[Tick], at_measured_speed: bool) -> Reference {
        let speed = |t: &Tick| if at_measured_speed { NOMINAL_UNIT_US / t.unit_us } else { 1.0 };
        let mut knots = Vec::with_capacity(2 * ticks.len());
        let (mut wall, mut reference) = (0.0, 0.0);
        for (i, tick) in ticks.iter().enumerate() {
            // Before the first tick only that tick's reading exists.
            let slope = (speed(&ticks[i.saturating_sub(1)]) + speed(tick)) / 2.0;
            reference += (tick.from_s - wall) * slope;
            knots.push((tick.from_s, reference));
            knots.push((tick.to_s, reference));
            wall = tick.to_s;
        }
        Reference { knots, tail_speed: ticks.last().map_or(1.0, speed) }
    }

    /// Reference seconds at `wall_s` seconds since the run's start.
    pub fn at(&self, wall_s: f64) -> f64 {
        let next = self.knots.partition_point(|k| k.0 <= wall_s);
        match (next.checked_sub(1).map(|i| self.knots[i]), self.knots.get(next)) {
            (Some((w0, r0)), Some(&(w1, r1))) => r0 + (r1 - r0) * (wall_s - w0) / (w1 - w0),
            (Some((w0, r0)), None) => r0 + (wall_s - w0) * self.tail_speed,
            (None, Some(&(w1, r1))) => r1 * wall_s / w1,
            (None, None) => wall_s * self.tail_speed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_clock_runs_at_the_measured_speed_and_stops_for_ticks() {
        // No tick: wall-clock.
        assert_eq!(Reference::new(&[], true).at(2.5), 2.5);
        // Nominal until 1 s, a tick to 1.1 s, then half speed read at 2.1 s.
        let ticks = [
            Tick { from_s: 1.0, to_s: 1.1, unit_us: NOMINAL_UNIT_US },
            Tick { from_s: 2.1, to_s: 2.2, unit_us: 2.0 * NOMINAL_UNIT_US },
        ];
        let r = Reference::new(&ticks, true);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        assert!(close(r.at(0.5), 0.5));
        assert!(close(r.at(1.0), 1.0) && close(r.at(1.05), 1.0) && close(r.at(1.1), 1.0));
        assert!(close(r.at(1.6), 1.0 + 0.5 * 0.75), "mean of both speeds in between");
        assert!(close(r.at(2.2), 1.75));
        assert!(close(r.at(3.2), 1.75 + 0.5), "the last reading holds to the end");
        let wall = Reference::new(&ticks, false);
        assert!(close(wall.at(1.6), 1.5) && close(wall.at(3.2), 3.0), "only the ticks are cut out");
    }

    #[test]
    fn ticks_are_taken_at_their_share_and_never_beside_a_request() {
        let pace = Pace::start();
        pace.tick();
        assert!(pace.ticks.lock().unwrap().is_empty(), "nothing to spend yet");
        while pace.ticks.lock().unwrap().is_empty() {
            let request = pace.in_flight();
            std::thread::sleep(std::time::Duration::from_millis(5));
            drop(request);
            pace.tick();
        }
        let tick = pace.ticks.lock().unwrap()[0];
        assert!(tick.to_s > tick.from_s && tick.unit_us > 0.0);
        let r = pace.reference();
        assert_eq!(r.at(tick.from_s), r.at(tick.to_s));
        assert!(r.at(tick.to_s + 1.0) > r.at(tick.to_s));
    }
}
