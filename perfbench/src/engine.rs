//! The engine workloads: `paper-sweep`, `big-dag` and `grammar-race`.
//!
//! Each run replays a fixed op sequence derived from the seed. The untraced
//! run times each op through the program's own entry points and checks it
//! against a reference computed untimed afterwards; the traced run assembles
//! the same engine cells from the public builders with every plug-in
//! wrapped in a timing decorator, and checks each against `Experiment::run`
//! bit for bit.

use crate::clock::process_cpu_s;
use crate::stats;
use crate::trace::{
    CountingObserver, EventCounts, Probe, TimedBattery, TimedGovernor, TimedPolicy, TimedSampler,
};
use crate::{Layers, Outcome};
use bas_battery::BatteryModel;
use bas_core::{MapperKind, Report, Scenario, SchedulerSpec, Sweep};
use bas_cpu::Platform;
use bas_sim::{DeadlineMode, FrequencyGovernor, SimConfig, SimOutcome, Simulation, TaskPolicy};
use bas_taskgraph::{Mapping, TaskGraphBuilder, TaskSet};
use std::path::Path;
use std::time::Instant;

/// One of the three engine workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The paper's sweep: Table-2 lineup plus BAS-soc and BAS-kv over a
    /// stochastic KiBaM; an op is one trial × spec cell.
    PaperSweep,
    /// A fresh 10,000-node layered DAG per trial on 4 PEs; an op is one
    /// trial (generate, then run EDF and BAS-2).
    BigDag,
    /// All 40 grammar specs at unit scale; an op is one race plus its
    /// report rendering.
    GrammarRace,
}

/// Ops per CPU second each workload runs at on the reference box (a 2-core
/// VM). A run does `seconds ×` this many ops: fixed work for given
/// arguments, so two runs differ only by the machine, sized to take about
/// `seconds` there.
fn nominal_ops_per_s(kind: Kind) -> f64 {
    match kind {
        Kind::PaperSweep => 4.5,
        Kind::BigDag => 1.45,
        Kind::GrammarRace => 170.0,
    }
}

/// Fewest ops a run makes, so the tail rule always has ten samples beyond.
const MIN_OPS: usize = 12;

/// Set-up is timed in batches of this many back-to-back set-ups (tens of
/// microseconds each, too short to time one by one against clock noise)...
const SETUP_BATCH: usize = 20;
/// ...and `setup_s` is the median over this many batches of the mean.
const SETUP_BATCHES: usize = 15;

/// The loaded, validated scenario and everything built from it once.
pub struct Bench {
    kind: Kind,
    scenario: Scenario,
    platform: Platform,
    specs: Vec<(String, SchedulerSpec)>,
}

impl Bench {
    /// Load and validate the workload's scenario file, build the platform
    /// and expand the spec lineup: what a process pays before its first op.
    pub fn setup(kind: Kind) -> Result<Bench, String> {
        let path = match kind {
            Kind::PaperSweep => "scenarios/sweep.toml",
            Kind::BigDag => "scenarios/big-dag.toml",
            Kind::GrammarRace => "scenarios/portfolio.toml",
        };
        let mut scenario = Scenario::load(Path::new(path)).map_err(|e| e.to_string())?;
        let set = |sc: &mut Scenario, key: &str, value: &str| {
            sc.set(key, value).map_err(|e| format!("{path}: {key}: {e}"))
        };
        set(&mut scenario, "threads", "1")?;
        match kind {
            Kind::PaperSweep => {
                set(&mut scenario, "specs", "EDF,ccEDF,laEDF,BAS-1,BAS-2,BAS-soc,BAS-kv")?
            }
            Kind::BigDag => set(&mut scenario, "pes", "4")?,
            Kind::GrammarRace => {}
        }
        scenario.validate().map_err(|e| format!("{path}: {e}"))?;
        let platform = scenario.build_platform().map_err(|e| e.to_string())?;
        let specs = match kind {
            Kind::GrammarRace => {
                bas_core::expand_spec_patterns(&scenario.specs).map_err(|e| e.to_string())?
            }
            _ => scenario.parsed_specs().map_err(|e| e.to_string())?,
        };
        Ok(Bench { kind, scenario, platform, specs })
    }

    fn deadline_mode(&self) -> DeadlineMode {
        match self.kind {
            // The portfolio counts misses as data, as `bas portfolio` does.
            Kind::GrammarRace => DeadlineMode::DropAndCount,
            _ => DeadlineMode::Fail,
        }
    }
}

/// One op of the sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// A trial seed and an index into the spec lineup.
    Cell(u64, usize),
    /// A trial seed: generate the DAG, run every spec.
    Trial(u64),
    /// A race seed: the portfolio's base seed for one race.
    Race(u64),
}

fn plan(bench: &Bench, seed: u64, seconds: f64) -> Vec<Op> {
    let ops = ((seconds * nominal_ops_per_s(bench.kind)).ceil() as usize).max(MIN_OPS);
    match bench.kind {
        // Each cell gets its own trial, specs in rotation: a run then spans
        // as many task sets as cells, so its statistics vary little by seed.
        Kind::PaperSweep => {
            (0..ops).map(|i| Op::Cell(Sweep::seed_for(seed, i), i % bench.specs.len())).collect()
        }
        Kind::BigDag => (0..ops).map(|t| Op::Trial(Sweep::seed_for(seed, t))).collect(),
        Kind::GrammarRace => {
            (0..ops).map(|r| Op::Race(crate::scenario_seed(Sweep::seed_for(seed, r)))).collect()
        }
    }
}

/// What an op produced, compared against the reference.
#[derive(Debug, Clone, PartialEq)]
enum Check {
    /// Per cell: decisions, energy bits, deadline misses.
    Cells(Vec<(u64, u64, u64)>),
    /// FNV-1a of the race's report JSON.
    Report(u64),
}

fn cell_check(out: &SimOutcome) -> (u64, u64, u64) {
    (out.metrics.decisions, out.metrics.energy.to_bits(), out.metrics.deadline_misses)
}

fn run_cell(
    bench: &Bench,
    set: &TaskSet,
    spec: &(String, SchedulerSpec),
    seed: u64,
) -> Result<SimOutcome, String> {
    let sc = &bench.scenario;
    let mut battery = sc.build_battery(seed);
    let mut experiment = sc
        .trial_experiment(set, spec.1, seed, &bench.platform)
        .deadline_mode(bench.deadline_mode());
    if let Some(cell) = battery.as_mut() {
        experiment = experiment.battery(cell.as_mut());
    }
    experiment.run().map_err(|e| format!("{} (seed {seed}): {e}", spec.0))
}

fn trial_set(bench: &Bench, seed: u64) -> Result<TaskSet, String> {
    bench.scenario.trial_set(seed).map_err(|e| e.to_string())
}

fn race_scenario(bench: &Bench, seed: u64) -> Scenario {
    let mut scenario = bench.scenario.clone();
    scenario.seed = crate::scenario_seed(seed);
    scenario
}

/// Run one op through the program's own entry points.
fn run_op(bench: &Bench, op: Op) -> Result<Check, String> {
    match op {
        Op::Cell(seed, s) => {
            let set = trial_set(bench, seed)?;
            Ok(Check::Cells(vec![cell_check(&run_cell(bench, &set, &bench.specs[s], seed)?)]))
        }
        Op::Trial(seed) => {
            let set = trial_set(bench, seed)?;
            let cells = bench
                .specs
                .iter()
                .map(|spec| run_cell(bench, &set, spec, seed).map(|out| cell_check(&out)))
                .collect::<Result<_, _>>()?;
            Ok(Check::Cells(cells))
        }
        Op::Race(seed) => {
            let (_text, report) = bas_cli::run_scenario(&race_scenario(bench, seed))?;
            Ok(Check::Report(bas_serve::store::fnv1a64(report.to_json().as_bytes())))
        }
    }
}

/// Decisions a race makes: every (trial × spec) cell of the portfolio,
/// run directly. The race's report does not carry them.
fn race_decisions(bench: &Bench, race_seed: u64) -> Result<u64, String> {
    let mut decisions = 0;
    for t in 0..bench.scenario.trials {
        let seed = Sweep::seed_for(race_seed, t);
        let set = trial_set(bench, seed)?;
        for spec in &bench.specs {
            decisions += run_cell(bench, &set, spec, seed)?.metrics.decisions;
        }
    }
    Ok(decisions)
}

/// The untraced run: end-to-end metrics. Set-up and ops are timed on the
/// process's CPU clock (see [`crate::clock`]); the window is single-threaded.
pub fn run(kind: Kind, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut setup_s = Vec::with_capacity(SETUP_BATCHES);
    let mut bench = None;
    for _ in 0..SETUP_BATCHES {
        let start = process_cpu_s();
        for _ in 0..SETUP_BATCH {
            bench = Some(Bench::setup(kind)?);
        }
        setup_s.push((process_cpu_s() - start) / SETUP_BATCH as f64);
    }
    let bench = bench.expect("at least one set-up");
    let ops = plan(&bench, seed, seconds);

    let mut op_ms = Vec::with_capacity(ops.len());
    let mut results = Vec::with_capacity(ops.len());
    let window = Instant::now();
    for &op in &ops {
        let start = process_cpu_s();
        let result = run_op(&bench, op);
        op_ms.push((process_cpu_s() - start) * 1e3);
        results.push(result);
    }
    let wall = window.elapsed().as_secs_f64();
    let cpu = op_ms.iter().sum::<f64>() / 1e3;
    // Before the reference below, which runs two ops at once.
    let rss = crate::peak_rss_mb();

    // The reference: every op again, untimed, on both cores.
    let reference = bas_core::parallel_map(ops.len(), 2, |i| {
        let check = run_op(&bench, ops[i])?;
        let decisions = match ops[i] {
            Op::Race(seed) => race_decisions(&bench, seed)?,
            _ => 0,
        };
        Ok::<_, String>((check, decisions))
    });

    let mut outcome = Outcome::new(ops.len() as u64);
    let mut decisions = 0u64;
    for (i, (result, reference)) in results.iter().zip(&reference).enumerate() {
        match (result, reference) {
            (Ok(check), Ok((expected, race))) if check == expected => {
                decisions += match check {
                    Check::Cells(cells) => cells.iter().map(|c| c.0).sum(),
                    Check::Report(_) => *race,
                };
            }
            (Ok(_), Ok(_)) => outcome.fail(format!("op {i}: output differs from the reference")),
            (Err(e), _) | (_, Err(e)) => outcome.fail(format!("op {i}: {e}")),
        }
    }
    outcome.timings(&op_ms, op_ms.len(), cpu, stats::median(&setup_s));
    outcome.metric("decisions_per_s", decisions as f64 / cpu, "1/s");
    outcome.peak_rss(rss);
    outcome.note(format!(
        "{} ops: {cpu:.2} s on the CPU in a {wall:.2} s window ({:.1} % of it off the CPU)",
        ops.len(),
        100.0 * (1.0 - cpu / wall)
    ));
    Ok(outcome)
}

/// Replay every graph of `set` through a fresh [`TaskGraphBuilder`] and
/// return the nanoseconds the builder took; the rebuilt graph must equal
/// the original.
fn replay_build(set: &TaskSet) -> Result<f64, String> {
    let mut ns = 0.0;
    for (_, periodic) in set.iter() {
        let graph = periodic.graph();
        let start = Instant::now();
        let mut builder = TaskGraphBuilder::new(graph.name());
        for (_, node) in graph.nodes() {
            builder.add_node(node.name.clone(), node.wcet);
        }
        for from in graph.node_ids() {
            for (to, bytes) in graph.out_edges(from) {
                builder.add_edge_weighted(from, to, bytes).map_err(|e| e.to_string())?;
            }
        }
        let rebuilt = builder.build().map_err(|e| e.to_string())?;
        ns += start.elapsed().as_nanos() as f64;
        if rebuilt != *graph {
            return Err(format!("graph {} does not rebuild identically", graph.name()));
        }
    }
    Ok(ns)
}

/// Per-layer accumulators of the traced engine run.
#[derive(Debug)]
struct EngineLayers {
    every: u64,
    ops: u64,
    cells: u64,
    gen_ns: f64,
    build_ns: f64,
    map_ns: f64,
    setup_ns: f64,
    run_ns: f64,
    consult: Probe,
    gov_hooks: Probe,
    pick: Probe,
    pol_hooks: Probe,
    ready_len: u64,
    sample: Probe,
    step: Probe,
    view: Probe,
    events: EventCounts,
    decisions: u64,
    race_ns: f64,
    analyze_ns: f64,
    report_ns: f64,
    plain_ns: f64,
    traced_ns: f64,
}

impl EngineLayers {
    fn new(every: u64) -> Self {
        EngineLayers {
            every,
            ops: 0,
            cells: 0,
            gen_ns: 0.0,
            build_ns: 0.0,
            map_ns: 0.0,
            setup_ns: 0.0,
            run_ns: 0.0,
            consult: Probe::new(every),
            gov_hooks: Probe::new(every),
            pick: Probe::new(every),
            pol_hooks: Probe::new(every),
            ready_len: 0,
            sample: Probe::new(every),
            step: Probe::new(every),
            view: Probe::new(every),
            events: EventCounts::default(),
            decisions: 0,
            race_ns: 0.0,
            analyze_ns: 0.0,
            report_ns: 0.0,
            plain_ns: 0.0,
            traced_ns: 0.0,
        }
    }

    /// The per-layer metrics, per op for times unless named per call.
    fn report(&self, empty_ns: f64, layers: &mut Layers) {
        let ops = self.ops.max(1) as f64;
        let per_op_ms = |ns: f64| ns / ops / 1e6;
        let gov_ns = self.consult.total_ns(empty_ns) + self.gov_hooks.total_ns(empty_ns);
        let pol_ns = self.pick.total_ns(empty_ns) + self.pol_hooks.total_ns(empty_ns);
        let bat_ns = self.step.total_ns(empty_ns) + self.view.total_ns(empty_ns);
        let sample_ns = self.sample.total_ns(empty_ns);
        let decisions = self.decisions as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

        layers.set("workload.gen_ms", per_op_ms(self.gen_ns));
        layers.set("taskgraph.build_ms", per_op_ms(self.build_ns));
        layers.set("taskgraph.gen_ms", per_op_ms((self.gen_ns - self.build_ns).max(0.0)));
        layers.set("taskgraph.map_ms", per_op_ms(self.map_ns));
        layers.set("dvs.consults", self.consult.calls as f64);
        layers.set("dvs.consult_ns", self.consult.ns_per_call(empty_ns));
        layers.set("dvs.consult_ratio", ratio(self.consult.calls as f64, decisions));
        layers.set("dvs.hook_ns", self.gov_hooks.ns_per_call(empty_ns));
        layers.set("core.picks", self.pick.calls as f64);
        layers.set("core.pick_ns", self.pick.ns_per_call(empty_ns));
        layers.set("core.ready_len", ratio(self.ready_len as f64, self.pick.calls as f64));
        layers.set("core.hook_ns", self.pol_hooks.ns_per_call(empty_ns));
        layers.set("battery.steps", self.step.calls as f64);
        layers.set("battery.step_ns", ratio(bat_ns, self.step.calls as f64));
        layers.set("sim.decisions", decisions);
        layers.set("sim.samples", self.sample.calls as f64);
        layers.set("sim.sample_ns", self.sample.ns_per_call(empty_ns));
        let e = &self.events;
        layers.set("sim.events.release", e.release as f64);
        layers.set("sim.events.start", e.start as f64);
        layers.set("sim.events.complete", e.complete as f64);
        layers.set("sim.events.preempt", e.preempt as f64);
        layers.set("sim.events.freq_change", e.freq_change as f64);
        layers.set("sim.events.battery_step", e.battery_step as f64);
        layers.set("sim.events.miss", e.miss as f64);
        layers.set("sim.slices", e.slices as f64);
        layers.set("sim.setup_us", self.setup_ns / self.cells.max(1) as f64 / 1e3);
        layers.set("sim.run_ms", per_op_ms(self.run_ns));
        // Self time is taken from the untraced cells, so the decorators'
        // own cost does not land in it: their run time less the traced
        // cells' mapping and set-up, less the plug-in layers' estimates.
        let plug_ins = gov_ns + pol_ns + bat_ns + sample_ns;
        let plain_run_ns = self.plain_ns - self.map_ns - self.setup_ns;
        layers.set("sim.self_ms", per_op_ms((plain_run_ns - plug_ins).max(0.0)));
        layers.set("portfolio.race_ms", per_op_ms(self.race_ns));
        layers.set("portfolio.analyze_us", self.analyze_ns / ops / 1e3);
        layers.set("core.report_us", self.report_ns / ops / 1e3);
        layers.set(
            "trace.overhead_pct",
            100.0 * ratio(self.traced_ns - self.plain_ns, self.plain_ns),
        );
    }
}

/// Run one cell assembled exactly as `Experiment::run` assembles it, with
/// every plug-in wrapped in a timing decorator.
fn traced_cell(
    bench: &Bench,
    set: &TaskSet,
    spec: SchedulerSpec,
    seed: u64,
    battery: Option<&mut dyn BatteryModel>,
    layers: &mut EngineLayers,
) -> Result<SimOutcome, String> {
    let (sc, platform, every) = (&bench.scenario, &bench.platform, layers.every);
    let start = Instant::now();
    let mapping = if platform.len() == 1 {
        Mapping::single_pe(set)
    } else {
        match sc.mapper_kind() {
            MapperKind::Weighted => Mapping::list_schedule_weighted(set, &platform.fmax_per_pe()),
            MapperKind::Hetero => {
                let (latency, bps) = platform
                    .interconnect()
                    .map(|ic| (ic.latency, ic.bytes_per_sec))
                    .unwrap_or((0.0, f64::INFINITY));
                Mapping::list_schedule_hetero(set, &platform.fmax_per_pe(), latency, bps)
            }
        }
    };
    let mapped = Instant::now();
    layers.map_ns += (mapped - start).as_nanos() as f64;

    let mut bank = spec.build_governor_bank(platform);
    let mut policies = spec.build_policy_bank(seed, platform.len());
    let mut sampler = sc.sampler.build(seed);
    let mut cfg = SimConfig::with_platform(platform.clone());
    cfg.record_trace = false;
    cfg.deadline_mode = bench.deadline_mode();
    cfg.freq_policy = sc.freq;
    cfg.check_feasibility = true;
    let mut governors: Vec<TimedGovernor> =
        bank.as_muts().into_iter().map(|g| TimedGovernor::new(g, every)).collect();
    let mut timed_policies: Vec<TimedPolicy> = policies
        .iter_mut()
        .map(|p| TimedPolicy::new(&mut **p as &mut dyn TaskPolicy, every))
        .collect();
    let mut timed_sampler = TimedSampler::new(sampler.as_mut(), every);
    let mut timed_battery = battery.map(|b| TimedBattery::new(b, every));
    let mut observer = CountingObserver::default();
    let sim = Simulation::with_platform(
        set.clone(),
        mapping,
        cfg,
        governors.iter_mut().map(|g| g as &mut dyn FrequencyGovernor).collect(),
        timed_policies.iter_mut().map(|p| p as &mut dyn TaskPolicy).collect(),
        &mut timed_sampler,
    );
    let mut sim = sim.map_err(|e| format!("{spec} (seed {seed}): {e}"))?;
    if let Some(b) = timed_battery.as_mut() {
        sim.mount_battery(b);
    }
    sim.attach(&mut observer);
    let ready = Instant::now();
    layers.setup_ns += (ready - mapped).as_nanos() as f64;
    let ran = sim.run_until(sc.horizon);
    let out = sim.finish();
    layers.run_ns += ready.elapsed().as_nanos() as f64;
    ran.map_err(|e| format!("{spec} (seed {seed}): {e}"))?;

    layers.cells += 1;
    for g in &governors {
        layers.consult.absorb(&g.consult);
        layers.gov_hooks.absorb(&g.hooks);
    }
    for p in &timed_policies {
        layers.pick.absorb(&p.pick);
        layers.pol_hooks.absorb(&p.hooks);
        layers.ready_len += p.ready_len;
    }
    layers.sample.absorb(&timed_sampler.sample);
    if let Some(b) = &timed_battery {
        layers.step.absorb(&b.step);
        layers.view.absorb(&b.view.borrow());
    }
    layers.events.absorb(&observer.counts);
    layers.decisions += out.metrics.decisions;
    Ok(out)
}

/// Run one cell both ways — through `Experiment::run` and decorated — and
/// require the outcomes to match bit for bit. The order alternates with
/// `flip`, so neither side always runs on warm caches.
fn paired_cell(
    bench: &Bench,
    set: &TaskSet,
    spec: &(String, SchedulerSpec),
    seed: u64,
    flip: bool,
    layers: &mut EngineLayers,
) -> Result<(), String> {
    let plain = |layers: &mut EngineLayers| {
        let start = Instant::now();
        let out = run_cell(bench, set, spec, seed);
        layers.plain_ns += start.elapsed().as_nanos() as f64;
        out
    };
    let traced = |layers: &mut EngineLayers| {
        let mut battery = bench.scenario.build_battery(seed);
        let start = Instant::now();
        let battery = battery.as_mut().map(|b| b.as_mut() as &mut dyn BatteryModel);
        let out = traced_cell(bench, set, spec.1, seed, battery, layers);
        layers.traced_ns += start.elapsed().as_nanos() as f64;
        out
    };
    let (expected, got) = if flip {
        let got = traced(layers)?;
        (plain(layers)?, got)
    } else {
        let expected = plain(layers)?;
        (expected, traced(layers)?)
    };
    let lifetime = |o: &SimOutcome| o.battery.as_ref().map(|b| b.lifetime.to_bits());
    if expected.metrics != got.metrics || lifetime(&expected) != lifetime(&got) {
        return Err(format!("{} (seed {seed}): traced cell differs from Experiment::run", spec.0));
    }
    Ok(())
}

fn generate(bench: &Bench, seed: u64, layers: &mut EngineLayers) -> Result<TaskSet, String> {
    let start = Instant::now();
    let set = trial_set(bench, seed)?;
    layers.gen_ns += start.elapsed().as_nanos() as f64;
    layers.build_ns += replay_build(&set)?;
    Ok(set)
}

/// One traced op; `flip` alternates which side of each pair runs first.
fn traced_op(bench: &Bench, op: Op, flip: bool, layers: &mut EngineLayers) -> Result<(), String> {
    match op {
        Op::Cell(seed, s) => {
            let set = generate(bench, seed, layers)?;
            paired_cell(bench, &set, &bench.specs[s], seed, flip, layers)
        }
        Op::Trial(seed) => {
            let set = generate(bench, seed, layers)?;
            for spec in &bench.specs {
                paired_cell(bench, &set, spec, seed, flip, layers)?;
            }
            Ok(())
        }
        Op::Race(seed) => {
            let scenario = race_scenario(bench, seed);
            let (_text, expected) = bas_cli::run_scenario(&scenario)?;
            let expected = expected.to_json();

            let start = Instant::now();
            let portfolio = bas_portfolio::run_portfolio(&scenario).map_err(|e| e.to_string())?;
            layers.race_ns += start.elapsed().as_nanos() as f64;
            // The minimization-oriented points and reference `run_portfolio`
            // analyzed, rebuilt from its report.
            let orient = |values: &[f64]| -> Vec<f64> {
                let axes = portfolio.axes.iter().zip(values);
                axes.map(|(a, &v)| if a.maximize() { -v } else { v }).collect()
            };
            let points: Vec<Vec<f64>> = portfolio.specs.iter().map(|s| orient(&s.point)).collect();
            let reference = (!scenario.reference.is_empty()).then(|| orient(&scenario.reference));
            let start = Instant::now();
            std::hint::black_box(bas_portfolio::analyze(&points, reference.as_deref()));
            layers.analyze_ns += start.elapsed().as_nanos() as f64;
            let mut report =
                Report::from_sweep(&scenario.name, scenario.kind.name(), &portfolio.sweep);
            report.pes = scenario.pes;
            let start = Instant::now();
            let json = report.to_json();
            layers.report_ns += start.elapsed().as_nanos() as f64;
            if json != expected {
                return Err(format!("race seed {seed}: report differs from bas_cli::run_scenario"));
            }

            for t in 0..scenario.trials {
                let trial_seed = Sweep::seed_for(seed, t);
                let set = generate(bench, trial_seed, layers)?;
                for spec in &bench.specs {
                    paired_cell(bench, &set, spec, trial_seed, flip, layers)?;
                }
            }
            Ok(())
        }
    }
}

/// The traced run: per-layer metrics. `every` is the sampling period.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: f64,
    every: u64,
) -> Result<(Outcome, Layers), String> {
    let empty_ns = crate::trace::empty_call_ns(every);
    let bench = Bench::setup(kind)?;
    let ops = plan(&bench, seed, seconds);
    let mut layers = EngineLayers::new(every);
    let mut outcome = Outcome::new(ops.len() as u64);
    for (i, &op) in ops.iter().enumerate() {
        layers.ops += 1;
        if let Err(e) = traced_op(&bench, op, i % 2 == 1, &mut layers) {
            outcome.fail(format!("op {i}: {e}"));
        }
    }
    let mut out = Layers::default();
    layers.report(empty_ns, &mut out);
    Ok((outcome, out))
}
