//! Workload inputs from the scenario registry.

use std::fmt::Write as _;
use std::path::Path;

use rtic_history::log::format_log;
use rtic_workload::{library, Expected, Generated, ScenarioParams};

use crate::stats::Report;

/// A registry scenario plus the shared knobs that fully determine its
/// generated history.
#[derive(Clone, Debug)]
pub struct ScenarioSpec {
    /// Registry name (`library::find`).
    pub name: String,
    /// Shared generator knobs.
    pub params: ScenarioParams,
}

impl ScenarioSpec {
    /// Runs the scenario's generator.
    pub fn generate(&self) -> Result<Generated, String> {
        let scenario =
            library::find(&self.name).ok_or_else(|| format!("unknown scenario `{}`", self.name))?;
        Ok(scenario.generate(&self.params))
    }

    /// Only the injected violations (the history is dropped).
    pub fn expected(&self) -> Result<Vec<Expected>, String> {
        Ok(self.generate()?.expected)
    }
}

/// The constraint file for a generated workload, in the syntax
/// `rtic check` reads.
pub fn constraint_file(generated: &Generated) -> String {
    let mut text = String::new();
    for name in generated.catalog.names() {
        let Some(schema) = generated.catalog.schema_of(name) else {
            continue;
        };
        let attrs: Vec<String> = schema.attributes().iter().map(|a| format!("{a}")).collect();
        let _ = writeln!(text, "relation {name}({})", attrs.join(", "));
    }
    for c in &generated.constraints {
        let _ = writeln!(text, "{c}");
    }
    text
}

/// Writes `constraints.rtic` and `log.rticlog` into `dir`.
pub fn write_inputs(spec: &ScenarioSpec, dir: &Path) -> Result<Report, String> {
    let generated = spec.generate()?;
    let constraints = constraint_file(&generated);
    let log = format_log(&generated.transitions);
    let io = |e: std::io::Error| format!("cannot write inputs into {}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    std::fs::write(dir.join("constraints.rtic"), &constraints).map_err(io)?;
    std::fs::write(dir.join("log.rticlog"), &log).map_err(io)?;
    let tuples: usize = generated.transitions.iter().map(|t| t.update.len()).sum();
    let mut report = Report::default();
    report
        .int("transitions", generated.transitions.len() as u64)
        .int("tuples", tuples as u64)
        .int("bytes", log.len() as u64)
        .int("constraints", generated.constraints.len() as u64)
        .int("expected", generated.expected.len() as u64);
    Ok(report)
}
