//! Tracing from outside the program: sampled timing probes and the
//! decorators that wrap the engine's and the daemon's plug-in traits.
//!
//! Counts are exact on every call. Durations are sampled at one call in
//! `every` (chosen by a seeded generator, so periodic call patterns cannot
//! alias with the sampling), and the measured cost of an empty timed call is
//! subtracted from each estimate. Every decorator forwards `name()` and
//! `event_driven()`, so the engine replays cached consults exactly as it
//! does for the undecorated pieces and outcomes stay bit-identical.

use bas_battery::{BatteryModel, StepOutcome};
use bas_core::{Report, Scenario};
use bas_serve::ScenarioService;
use bas_sim::{
    ActualSampler, FrequencyGovernor, SimEvent, SimObserver, SimState, SliceInfo, TaskPolicy,
    TaskRef,
};
use bas_taskgraph::{Cycles, GraphId, NodeId};
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Default sampling period: one timed call in this many. On a 2-core VM,
/// timing one call in 16 on the monotonic clock added about 8 % to the
/// engine's run time on top of the decorators' own 10 %; one in 64 added
/// nothing measurable and still samples thousands of calls per boundary in
/// a run.
pub const DEFAULT_EVERY: u64 = 64;

/// A timestamp in clock ticks: the time-stamp counter on x86-64 (about
/// 20 ns to read and no memory access, so a sparse sample pays the same as a
/// hot one), the monotonic clock in nanoseconds elsewhere.
#[inline]
fn ticks() -> u64 {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `rdtsc` has no preconditions on x86-64; it only reads the
    // time-stamp counter into a register.
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        static START: OnceLock<Instant> = OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Ticks per nanosecond, measured once against the monotonic clock (the
/// counter runs at a constant rate on current x86-64 parts).
fn ticks_per_ns() -> f64 {
    static RATE: OnceLock<f64> = OnceLock::new();
    *RATE.get_or_init(|| {
        let (wall, start) = (Instant::now(), ticks());
        while wall.elapsed() < Duration::from_millis(20) {}
        (ticks() - start) as f64 / wall.elapsed().as_nanos() as f64
    })
}

/// A sampled call timer for one boundary.
#[derive(Debug, Clone)]
pub struct Probe {
    every: u64,
    rng: u64,
    /// Untimed calls left before the next timed one.
    skip: u64,
    /// Calls made through the boundary (exact).
    pub calls: u64,
    sampled: u64,
    sampled_ticks: u64,
}

/// Seeds handed to new probes. Decorators are built afresh for every engine
/// cell, and a short cell makes only a few calls per boundary, so each probe
/// must start at another point of its gap sequence; otherwise every cell
/// would time the same call index.
static NEXT_SEED: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

impl Probe {
    /// A probe timing one call in `every` (`1` times every call).
    pub fn new(every: u64) -> Self {
        let mut probe = Probe {
            every: every.max(1),
            // Odd, so never the xorshift's stuck zero state.
            rng: NEXT_SEED.fetch_add(0x6a09_e667_f3bc_c909, Ordering::Relaxed) | 1,
            skip: 0,
            calls: 0,
            sampled: 0,
            sampled_ticks: 0,
        };
        probe.skip = probe.next_gap();
        probe
    }

    /// The untimed calls before the next timed one: uniform in
    /// `0..2·every − 1`, so one call in `every` is timed on average and the
    /// gaps cannot lock onto a periodic call pattern.
    fn next_gap(&mut self) -> u64 {
        if self.every == 1 {
            return 0;
        }
        // xorshift64: cheap and seeded.
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x % (2 * self.every - 1)
    }

    /// Run `f`, counting the call and timing it when it is sampled.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.skip > 0 {
            self.skip -= 1;
            return f();
        }
        let start = ticks();
        let out = f();
        // A thread moved between cores may read a slightly earlier count.
        self.sampled_ticks += ticks().saturating_sub(start);
        self.sampled += 1;
        self.skip = self.next_gap();
        out
    }

    /// Fold another probe's counts and samples into this one.
    pub fn absorb(&mut self, other: &Probe) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ticks += other.sampled_ticks;
    }

    /// Estimated nanoseconds per call, with `empty_ns` (the cost of an empty
    /// timed call) taken off each sample; 0 when nothing was sampled.
    pub fn ns_per_call(&self, empty_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let ns = self.sampled_ticks as f64 / ticks_per_ns();
        (ns / self.sampled as f64 - empty_ns).max(0.0)
    }

    /// Estimated nanoseconds spent in the boundary over all calls.
    pub fn total_ns(&self, empty_ns: f64) -> f64 {
        self.ns_per_call(empty_ns) * self.calls as f64
    }
}

/// The measured cost of an empty timed call at sampling period `every`,
/// nanoseconds: the median of several batch means, so a preempted batch
/// does not skew it. Between calls the loop writes across a 512 KiB buffer,
/// as engine work does between sampled calls, so the timed path is as cold
/// as it is in use.
pub fn empty_call_ns(every: u64) -> f64 {
    let mut scratch = vec![0u64; 1 << 16];
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut probe = Probe::new(every);
            for i in 0..(2_000 * every.clamp(1, 64)) as usize {
                probe.time(|| black_box(()));
                let slot = i.wrapping_mul(7_919) % scratch.len();
                scratch[slot] = scratch[slot].wrapping_add(i as u64);
            }
            probe.ns_per_call(0.0)
        })
        .collect();
    black_box(&scratch);
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

/// A [`FrequencyGovernor`] decorator timing consults and event hooks.
pub struct TimedGovernor<'a> {
    inner: &'a mut dyn FrequencyGovernor,
    /// `frequency` calls.
    pub consult: Probe,
    /// `on_release` and `on_completion` calls.
    pub hooks: Probe,
}

impl<'a> TimedGovernor<'a> {
    /// Wrap `inner`, sampling one call in `every`.
    pub fn new(inner: &'a mut dyn FrequencyGovernor, every: u64) -> Self {
        TimedGovernor { inner, consult: Probe::new(every), hooks: Probe::new(every) }
    }
}

impl FrequencyGovernor for TimedGovernor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn frequency(&mut self, state: &SimState) -> f64 {
        let inner = &mut *self.inner;
        self.consult.time(|| inner.frequency(state))
    }

    fn on_release(&mut self, state: &SimState, graph: GraphId) {
        let inner = &mut *self.inner;
        self.hooks.time(|| inner.on_release(state, graph));
    }

    fn on_completion(&mut self, state: &SimState, task: TaskRef, actual: f64) {
        let inner = &mut *self.inner;
        self.hooks.time(|| inner.on_completion(state, task, actual));
    }

    fn event_driven(&self) -> bool {
        self.inner.event_driven()
    }
}

/// A [`TaskPolicy`] decorator timing picks and completion hooks, and
/// summing the ready-list length each pick is offered.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn TaskPolicy,
    /// `pick` calls.
    pub pick: Probe,
    /// `on_completion` calls.
    pub hooks: Probe,
    /// Sum of `ready.len()` over all picks.
    pub ready_len: u64,
}

impl<'a> TimedPolicy<'a> {
    /// Wrap `inner`, sampling one call in `every`.
    pub fn new(inner: &'a mut dyn TaskPolicy, every: u64) -> Self {
        TimedPolicy { inner, pick: Probe::new(every), hooks: Probe::new(every), ready_len: 0 }
    }
}

impl TaskPolicy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn pick(&mut self, state: &SimState, ready: &[TaskRef], fref_hz: f64) -> Option<TaskRef> {
        self.ready_len += ready.len() as u64;
        let inner = &mut *self.inner;
        self.pick.time(|| inner.pick(state, ready, fref_hz))
    }

    fn on_completion(&mut self, state: &SimState, task: TaskRef, actual: f64) {
        let inner = &mut *self.inner;
        self.hooks.time(|| inner.on_completion(state, task, actual));
    }

    fn event_driven(&self) -> bool {
        self.inner.event_driven()
    }
}

/// An [`ActualSampler`] decorator timing every draw.
pub struct TimedSampler<'a> {
    inner: &'a mut dyn ActualSampler,
    /// `sample` calls.
    pub sample: Probe,
}

impl<'a> TimedSampler<'a> {
    /// Wrap `inner`, sampling one call in `every`.
    pub fn new(inner: &'a mut dyn ActualSampler, every: u64) -> Self {
        TimedSampler { inner, sample: Probe::new(every) }
    }
}

impl ActualSampler for TimedSampler<'_> {
    fn sample(&mut self, graph: GraphId, node: NodeId, instance: u64, wcet: Cycles) -> f64 {
        let inner = &mut *self.inner;
        self.sample.time(|| inner.sample(graph, node, instance, wcet))
    }
}

/// A [`BatteryModel`] decorator timing steps and the view queries the
/// engine makes after each one. The queries take `&self`, so their probe
/// sits in a `RefCell`.
pub struct TimedBattery<'a> {
    inner: &'a mut dyn BatteryModel,
    /// `step` calls.
    pub step: Probe,
    /// `is_exhausted`, `charge_delivered` and `state_of_charge` calls.
    pub view: RefCell<Probe>,
}

impl<'a> TimedBattery<'a> {
    /// Wrap `inner`, sampling one call in `every`.
    pub fn new(inner: &'a mut dyn BatteryModel, every: u64) -> Self {
        TimedBattery { inner, step: Probe::new(every), view: RefCell::new(Probe::new(every)) }
    }
}

impl BatteryModel for TimedBattery<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn step(&mut self, current: f64, dt: f64) -> StepOutcome {
        let inner = &mut *self.inner;
        self.step.time(|| inner.step(current, dt))
    }

    fn is_exhausted(&self) -> bool {
        self.view.borrow_mut().time(|| self.inner.is_exhausted())
    }

    fn charge_delivered(&self) -> f64 {
        self.view.borrow_mut().time(|| self.inner.charge_delivered())
    }

    fn state_of_charge(&self) -> f64 {
        self.view.borrow_mut().time(|| self.inner.state_of_charge())
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Event counts seen by a [`CountingObserver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// `Release` events.
    pub release: u64,
    /// `Start` events.
    pub start: u64,
    /// `Complete` events.
    pub complete: u64,
    /// `Preempt` events.
    pub preempt: u64,
    /// `FreqChange` events.
    pub freq_change: u64,
    /// `BatteryStep` events.
    pub battery_step: u64,
    /// `DeadlineMiss` events.
    pub miss: u64,
    /// `on_slice` calls.
    pub slices: u64,
}

impl EventCounts {
    /// Add `other` into `self`.
    pub fn absorb(&mut self, other: &EventCounts) {
        self.release += other.release;
        self.start += other.start;
        self.complete += other.complete;
        self.preempt += other.preempt;
        self.freq_change += other.freq_change;
        self.battery_step += other.battery_step;
        self.miss += other.miss;
        self.slices += other.slices;
    }
}

/// A [`SimObserver`] that only counts what the engine emits.
#[derive(Debug, Default)]
pub struct CountingObserver {
    /// The counts so far.
    pub counts: EventCounts,
}

impl SimObserver for CountingObserver {
    fn on_event(&mut self, _state: &SimState, event: &SimEvent) {
        let c = &mut self.counts;
        match event {
            SimEvent::Release { .. } => c.release += 1,
            SimEvent::Start { .. } => c.start += 1,
            SimEvent::Complete { .. } => c.complete += 1,
            SimEvent::Preempt { .. } => c.preempt += 1,
            SimEvent::FreqChange { .. } => c.freq_change += 1,
            SimEvent::BatteryStep { .. } => c.battery_step += 1,
            SimEvent::DeadlineMiss { .. } => c.miss += 1,
            _ => {}
        }
    }

    fn on_slice(&mut self, _state: &SimState, _slice: &SliceInfo) {
        self.counts.slices += 1;
    }
}

/// A [`ScenarioService`] decorator counting and timing every job the
/// daemon's workers run. Jobs take milliseconds, so every call is timed.
#[derive(Debug, Default)]
pub struct TimedService<S> {
    inner: S,
    jobs: AtomicU64,
    ns: AtomicU64,
}

impl<S> TimedService<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedService { inner, jobs: AtomicU64::new(0), ns: AtomicU64::new(0) }
    }

    /// Jobs run so far and the nanoseconds they took.
    pub fn totals(&self) -> (u64, u64) {
        (self.jobs.load(Ordering::Relaxed), self.ns.load(Ordering::Relaxed))
    }
}

impl<S: ScenarioService> ScenarioService for TimedService<S> {
    fn run(&self, scenario: &Scenario) -> Result<Report, String> {
        let start = Instant::now();
        let out = self.inner.run(scenario);
        self.ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.jobs.fetch_add(1, Ordering::Relaxed);
        out
    }

    fn presets_json(&self) -> String {
        self.inner.presets_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bas_core::SamplerKind;
    use bas_cpu::presets::unit_processor;
    use bas_cpu::Platform;

    #[test]
    fn governor_and_policy_decorators_forward_identity() {
        let platform = Platform::single(unit_processor());
        for spec in bas_core::runner::all_specs() {
            let mut bank = spec.build_governor_bank(&platform);
            let mut policies = spec.build_policy_bank(7, 1);
            let governor = bank.as_muts().pop().unwrap();
            let (name, driven) = (governor.name(), governor.event_driven());
            let timed = TimedGovernor::new(governor, DEFAULT_EVERY);
            assert_eq!((timed.name(), timed.event_driven()), (name, driven), "{spec}");

            let policy: &mut dyn TaskPolicy = policies[0].as_mut();
            let (name, driven) = (policy.name(), policy.event_driven());
            let timed = TimedPolicy::new(policy, DEFAULT_EVERY);
            assert_eq!((timed.name(), timed.event_driven()), (name, driven), "{spec}");
        }
    }

    #[test]
    fn sampler_and_battery_decorators_forward_values() {
        let mut plain = SamplerKind::Persistent.build(3);
        let mut wrapped = SamplerKind::Persistent.build(3);
        let mut timed = TimedSampler::new(wrapped.as_mut(), 1);
        for instance in 0..50 {
            let (g, n) = (GraphId::from_index(0), NodeId::from_index(instance as usize % 5));
            assert_eq!(plain.sample(g, n, instance, 40), timed.sample(g, n, instance, 40));
        }
        assert_eq!(timed.sample.calls, 50);

        let mut plain = bas_battery::registry::by_name("kibam", 1).unwrap();
        let mut wrapped = bas_battery::registry::by_name("kibam", 1).unwrap();
        let mut timed = TimedBattery::new(wrapped.as_mut(), DEFAULT_EVERY);
        assert_eq!(timed.name(), plain.name());
        for _ in 0..20 {
            assert_eq!(plain.step(0.5, 30.0), timed.step(0.5, 30.0));
            assert_eq!(plain.state_of_charge().to_bits(), timed.state_of_charge().to_bits());
            assert_eq!(plain.charge_delivered().to_bits(), timed.charge_delivered().to_bits());
            assert_eq!(plain.is_exhausted(), timed.is_exhausted());
        }
        assert_eq!(timed.step.calls, 20);
        assert_eq!(timed.view.borrow().calls, 60);
    }

    #[test]
    fn service_decorator_forwards_runs_and_catalog() {
        let scenario = Scenario::from_toml(
            "kind = \"sweep\"\ntrials = 1\nhorizon = 50.0\nworkload = \"unit\"\n\
             processor = \"unit\"\nbattery = \"none\"\nspecs = [\"EDF\"]\n",
        )
        .unwrap();
        let timed = TimedService::new(bas_cli::serve::CliService);
        let plain = bas_cli::serve::CliService;
        assert_eq!(timed.presets_json(), plain.presets_json());
        assert_eq!(
            timed.run(&scenario).unwrap().to_json(),
            plain.run(&scenario).unwrap().to_json()
        );
        assert_eq!(timed.totals().0, 1);
    }

    #[test]
    fn probe_counts_every_call_and_samples_some() {
        let mut probe = Probe::new(16);
        for i in 0..16_000u64 {
            assert_eq!(probe.time(|| i * 2), i * 2);
        }
        assert_eq!(probe.calls, 16_000);
        assert!(probe.sampled > 500 && probe.sampled < 1_500, "{}", probe.sampled);
        let mut all = Probe::new(1);
        all.time(|| ());
        assert_eq!((all.calls, all.sampled), (1, 1));
    }
}
