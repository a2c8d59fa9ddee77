//! WfCommons workflow-instance import.
//!
//! [WfCommons](https://wfcommons.org) publishes execution traces of real
//! scientific workflows (Montage, Epigenomics, 1000-genome…) in a common
//! JSON format; the same shape is emitted by Pegasus and WRENCH tooling.
//! The subset consumed here is the task list of the `workflow` object:
//!
//! ```json
//! {
//!   "name": "montage",
//!   "workflow": {
//!     "tasks": [
//!       {"name": "mProject_1", "runtime": 12.0,
//!        "parents": [], "children": ["mDiffFit_12"],
//!        "files": [{"link": "output", "name": "p1.fits", "sizeInBytes": 4194304}]},
//!       ...
//!     ]
//!   }
//! }
//! ```
//!
//! Mapping onto the scheduling model:
//!
//! * **runtime → WCET cycles.** Trace runtimes are seconds on some
//!   reference machine; multiplying by [`ImportConfig::ref_speed`]
//!   (cycles/second) and rounding up yields the node's worst-case cycle
//!   demand. Every node gets at least one cycle.
//! * **files → edge payloads.** A DAG edge `p → c` carries the summed
//!   `sizeInBytes` of the files `p` produces (`"link": "output"`) and `c`
//!   consumes (`"link": "input"`), matched by file name. When the two
//!   endpoints are mapped to different PEs, the simulator charges the
//!   platform interconnect's transfer time for exactly these bytes.
//!
//! Format tolerance, matching what's found in the published instances: the
//! task list may be keyed `tasks` or `jobs`; runtimes may be keyed
//! `runtime` or `runtimeInSeconds`; file sizes `sizeInBytes` or `size`;
//! dependencies may come from `parents`, `children`, or both (the union is
//! taken, so redundant listings are fine).

use crate::error::WorkloadError;
use crate::json::{self, Json};
use bas_taskgraph::{Cycles, NodeId, PeriodicTaskGraph, TaskGraph, TaskGraphBuilder};
use std::collections::{BTreeSet, HashMap};

/// Knobs for translating a workflow instance into a task graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImportConfig {
    /// Reference machine speed in cycles per second: a task that ran
    /// `r` seconds becomes `ceil(r · ref_speed)` WCET cycles (min 1).
    pub ref_speed: f64,
}

impl Default for ImportConfig {
    /// 1 GHz — runtimes in seconds become cycles at the paper processor's
    /// peak frequency.
    fn default() -> Self {
        ImportConfig { ref_speed: 1e9 }
    }
}

/// A successfully imported workflow.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkflowImport {
    /// Workflow name (top-level `name`, falling back to `"workflow"`).
    pub name: String,
    /// The imported DAG: WCETs in cycles, edge payloads in bytes.
    pub graph: TaskGraph,
}

impl WorkflowImport {
    /// Wrap the DAG in a periodic envelope sized for a target worst-case
    /// utilization on a `fmax`-cycles/sec processor: the period is
    /// `total WCET / (utilization · fmax)`, widened if necessary so the
    /// critical path fits in one period (structural feasibility).
    pub fn into_periodic(
        self,
        utilization: f64,
        fmax: f64,
    ) -> Result<PeriodicTaskGraph, WorkloadError> {
        periodic_envelope(self.graph, utilization, fmax)
    }
}

/// Shared periodic-envelope construction (import and generation paths).
pub fn periodic_envelope(
    graph: TaskGraph,
    utilization: f64,
    fmax: f64,
) -> Result<PeriodicTaskGraph, WorkloadError> {
    if !(utilization > 0.0 && utilization <= 1.0) {
        return Err(WorkloadError::Schema(format!("utilization {utilization} outside (0, 1]")));
    }
    if !(fmax.is_finite() && fmax > 0.0) {
        return Err(WorkloadError::Schema(format!("fmax {fmax} must be finite and positive")));
    }
    let period =
        (graph.total_wcet() as f64 / (utilization * fmax)).max(graph.critical_path() as f64 / fmax);
    Ok(PeriodicTaskGraph::new(graph, period)?)
}

/// One task as read from the instance, before graph construction.
struct RawTask {
    name: String,
    wcet: Cycles,
    /// Names of declared predecessor tasks.
    parents: Vec<String>,
    /// Names of declared successor tasks.
    children: Vec<String>,
    /// `(file name, bytes)` this task produces.
    outputs: Vec<(String, u64)>,
    /// File names this task consumes.
    inputs: Vec<String>,
}

/// Import a WfCommons JSON instance into a weighted task graph.
pub fn import_str(input: &str, cfg: &ImportConfig) -> Result<WorkflowImport, WorkloadError> {
    if !(cfg.ref_speed.is_finite() && cfg.ref_speed > 0.0) {
        return Err(WorkloadError::Schema(format!(
            "ref_speed {} must be finite and positive",
            cfg.ref_speed
        )));
    }
    let doc = json::parse(input).map_err(WorkloadError::Json)?;
    let name = doc.get("name").and_then(Json::as_str).unwrap_or("workflow").to_string();
    let workflow = doc
        .get("workflow")
        .ok_or_else(|| WorkloadError::Schema("missing top-level `workflow` object".into()))?;
    let tasks = workflow
        .get("tasks")
        .or_else(|| workflow.get("jobs"))
        .and_then(Json::as_array)
        .ok_or_else(|| WorkloadError::Schema("`workflow.tasks` (or `.jobs`) missing".into()))?;
    if tasks.is_empty() {
        return Err(WorkloadError::Schema("workflow has no tasks".into()));
    }

    let mut raw: Vec<RawTask> = Vec::with_capacity(tasks.len());
    let mut index: HashMap<String, usize> = HashMap::with_capacity(tasks.len());
    for (i, task) in tasks.iter().enumerate() {
        let t = parse_task(task, i, cfg.ref_speed)?;
        if index.insert(t.name.clone(), i).is_some() {
            return Err(WorkloadError::Schema(format!("duplicate task name {:?}", t.name)));
        }
        raw.push(t);
    }

    // Dependency edges: union of every `parents` and `children` listing.
    let mut edge_set: BTreeSet<(usize, usize)> = BTreeSet::new();
    for (i, t) in raw.iter().enumerate() {
        for p in &t.parents {
            let &pi = index.get(p).ok_or_else(|| {
                WorkloadError::Schema(format!("task {:?} lists unknown parent {p:?}", t.name))
            })?;
            edge_set.insert((pi, i));
        }
        for c in &t.children {
            let &ci = index.get(c).ok_or_else(|| {
                WorkloadError::Schema(format!("task {:?} lists unknown child {c:?}", t.name))
            })?;
            edge_set.insert((i, ci));
        }
    }

    let mut b = TaskGraphBuilder::with_capacity(name.clone(), raw.len(), edge_set.len());
    for t in &raw {
        b.add_node(t.name.clone(), t.wcet);
    }
    for &(pi, ci) in &edge_set {
        // Payload: bytes the producer outputs that the consumer inputs.
        let consumer_inputs: &[String] = &raw[ci].inputs;
        let bytes: u64 = raw[pi]
            .outputs
            .iter()
            .filter(|(f, _)| consumer_inputs.iter().any(|g| g == f))
            .map(|&(_, size)| size)
            .sum();
        b.add_edge_weighted(NodeId::from_index(pi), NodeId::from_index(ci), bytes)?;
    }
    Ok(WorkflowImport { name, graph: b.build()? })
}

fn parse_task(task: &Json, i: usize, ref_speed: f64) -> Result<RawTask, WorkloadError> {
    let at = |what: &str| format!("task #{i}: {what}");
    let name = task
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| WorkloadError::Schema(at("missing string `name`")))?
        .to_string();
    let runtime = task
        .get("runtime")
        .or_else(|| task.get("runtimeInSeconds"))
        .and_then(Json::as_f64)
        .ok_or_else(|| {
            WorkloadError::Schema(format!(
                "task {name:?}: missing numeric `runtime` (or `runtimeInSeconds`)"
            ))
        })?;
    if !(runtime.is_finite() && runtime >= 0.0) {
        return Err(WorkloadError::Schema(format!("task {name:?}: bad runtime {runtime}")));
    }
    // Every node needs at least one cycle of demand (a zero-WCET node
    // would never be schedulable work).
    let wcet = ((runtime * ref_speed).ceil() as Cycles).max(1);

    let names_of = |key: &str| -> Result<Vec<String>, WorkloadError> {
        match task.get(key) {
            None | Some(Json::Null) => Ok(Vec::new()),
            Some(v) => v
                .as_array()
                .ok_or_else(|| {
                    WorkloadError::Schema(format!("task {name:?}: `{key}` not an array"))
                })?
                .iter()
                .map(|item| {
                    item.as_str().map(str::to_string).ok_or_else(|| {
                        WorkloadError::Schema(format!(
                            "task {name:?}: `{key}` entries must be task-name strings"
                        ))
                    })
                })
                .collect(),
        }
    };
    let parents = names_of("parents")?;
    let children = names_of("children")?;

    let mut outputs = Vec::new();
    let mut inputs = Vec::new();
    if let Some(files) = task.get("files") {
        let files = files
            .as_array()
            .ok_or_else(|| WorkloadError::Schema(format!("task {name:?}: `files` not an array")))?;
        for file in files {
            let link = file.get("link").and_then(Json::as_str).ok_or_else(|| {
                WorkloadError::Schema(format!("task {name:?}: file entry missing `link`"))
            })?;
            let fname = file.get("name").and_then(Json::as_str).ok_or_else(|| {
                WorkloadError::Schema(format!("task {name:?}: file entry missing `name`"))
            })?;
            // Size is optional in older instances; a missing size means the
            // edge carries no accountable payload.
            let size = file
                .get("sizeInBytes")
                .or_else(|| file.get("size"))
                .map(|v| {
                    v.as_u64().ok_or_else(|| {
                        WorkloadError::Schema(format!(
                            "task {name:?}: file {fname:?} has a non-integer size"
                        ))
                    })
                })
                .transpose()?
                .unwrap_or(0);
            match link {
                "output" => outputs.push((fname.to_string(), size)),
                "input" => inputs.push(fname.to_string()),
                other => {
                    return Err(WorkloadError::Schema(format!(
                        "task {name:?}: file {fname:?} has unknown link {other:?}"
                    )))
                }
            }
        }
    }
    Ok(RawTask { name, wcet, parents, children, outputs, inputs })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond_json() -> &'static str {
        r#"{
          "name": "d",
          "workflow": {"tasks": [
            {"name": "a", "runtime": 1.0, "children": ["b", "c"],
             "files": [{"link": "output", "name": "x", "sizeInBytes": 100},
                       {"link": "output", "name": "y", "sizeInBytes": 7}]},
            {"name": "b", "runtime": 2.0, "parents": ["a"],
             "files": [{"link": "input", "name": "x", "sizeInBytes": 100},
                       {"link": "output", "name": "z", "sizeInBytes": 50}]},
            {"name": "c", "runtime": 0.5, "parents": ["a"],
             "files": [{"link": "input", "name": "y", "sizeInBytes": 7}]},
            {"name": "e", "runtime": 1.0, "parents": ["b", "c"],
             "files": [{"link": "input", "name": "z", "sizeInBytes": 50}]}
          ]}
        }"#
    }

    #[test]
    fn diamond_imports_with_payloads() {
        let wf = import_str(diamond_json(), &ImportConfig { ref_speed: 10.0 }).unwrap();
        let g = &wf.graph;
        assert_eq!(wf.name, "d");
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        let id = |i| NodeId::from_index(i);
        assert_eq!(g.wcet(id(0)), 10);
        assert_eq!(g.wcet(id(1)), 20);
        assert_eq!(g.wcet(id(2)), 5);
        assert_eq!(g.edge_bytes(id(0), id(1)), Some(100));
        assert_eq!(g.edge_bytes(id(0), id(2)), Some(7));
        assert_eq!(g.edge_bytes(id(1), id(3)), Some(50));
        assert_eq!(g.edge_bytes(id(2), id(3)), Some(0), "no shared file on c->e");
        assert_eq!(g.total_edge_bytes(), 157);
    }

    #[test]
    fn redundant_parent_and_child_listings_collapse_to_one_edge() {
        let wf = import_str(
            r#"{"workflow": {"jobs": [
                {"name": "a", "runtime": 1, "children": ["b"]},
                {"name": "b", "runtimeInSeconds": 1, "parents": ["a"]}
            ]}}"#,
            &ImportConfig::default(),
        )
        .unwrap();
        assert_eq!(wf.name, "workflow");
        assert_eq!(wf.graph.edge_count(), 1);
    }

    #[test]
    fn sub_cycle_runtimes_round_up_to_one_cycle() {
        let wf = import_str(
            r#"{"workflow": {"tasks": [{"name": "a", "runtime": 0.25}]}}"#,
            &ImportConfig { ref_speed: 1.0 },
        )
        .unwrap();
        assert_eq!(wf.graph.wcet(NodeId::from_index(0)), 1);
    }

    #[test]
    fn periodic_envelope_respects_the_critical_path() {
        let wf = import_str(diamond_json(), &ImportConfig { ref_speed: 10.0 }).unwrap();
        // Total = 45 cycles, critical path a->b->e = 40 cycles: at u = 1
        // the utilization period (45/fmax) already covers the critical
        // path (40/fmax) on both machines.
        let pg = wf.clone().into_periodic(1.0, 10.0).unwrap();
        assert!((pg.period() - 4.5).abs() < 1e-12);
        let pg = wf.into_periodic(1.0, 1.0).unwrap();
        assert!((pg.period() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn bad_instances_are_rejected_with_reasons() {
        let cfg = ImportConfig::default();
        for (input, needle) in [
            ("{}", "missing top-level `workflow`"),
            (r#"{"workflow": {}}"#, "`workflow.tasks`"),
            (r#"{"workflow": {"tasks": []}}"#, "no tasks"),
            (r#"{"workflow": {"tasks": [{"runtime": 1}]}}"#, "missing string `name`"),
            (r#"{"workflow": {"tasks": [{"name": "a"}]}}"#, "missing numeric `runtime`"),
            (r#"{"workflow": {"tasks": [{"name": "a", "runtime": -1}]}}"#, "bad runtime"),
            (
                r#"{"workflow": {"tasks": [{"name": "a", "runtime": 1},
                                            {"name": "a", "runtime": 1}]}}"#,
                "duplicate task name",
            ),
            (
                r#"{"workflow": {"tasks": [{"name": "a", "runtime": 1, "parents": ["ghost"]}]}}"#,
                "unknown parent",
            ),
            (
                r#"{"workflow": {"tasks": [{"name": "a", "runtime": 1,
                    "files": [{"link": "sideways", "name": "x"}]}]}}"#,
                "unknown link",
            ),
        ] {
            let e = import_str(input, &cfg).unwrap_err();
            assert!(e.to_string().contains(needle), "{input:?} -> {e}");
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let e = import_str(&deep, &ImportConfig::default()).unwrap_err();
        assert!(matches!(e, WorkloadError::Json(_)), "{e}");
        assert!(e.to_string().contains("nesting deeper than 128 levels"), "{e}");
    }

    #[test]
    fn dependency_cycles_surface_as_graph_errors() {
        let e = import_str(
            r#"{"workflow": {"tasks": [
                {"name": "a", "runtime": 1, "parents": ["b"]},
                {"name": "b", "runtime": 1, "parents": ["a"]}
            ]}}"#,
            &ImportConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(e, WorkloadError::Graph(_)), "{e}");
    }
}
