//! `--check`: the self-test that the harness and `BENCHMARK.json` agree.

use crate::{run_once, Args};
use serde_json::Value;
use std::path::Path;

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .as_object()
        .and_then(|fields| serde::find(fields, key))
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(value: &Value, key: &str) -> Result<String, String> {
    match field(value, key)? {
        Value::String(s) => Ok(s.clone()),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a string")),
    }
}

/// The `(name, unit)` pairs of one metric list.
fn declared(root: &Value, list: &str) -> Result<Vec<(String, String)>, String> {
    match field(root, list)? {
        Value::Array(items) => items
            .iter()
            .map(|m| Ok((text(m, "name")?, text(m, "unit")?)))
            .collect(),
        _ => Err(format!("BENCHMARK.json: `{list}` is not a list")),
    }
}

fn name_is_valid(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Every declared metric is printed once with its declared unit, and
/// nothing else is printed.
fn compare(
    kind: &str,
    declared: &[(String, String)],
    printed: &crate::util::Metrics,
) -> Result<(), String> {
    for (name, unit) in declared {
        if !name_is_valid(name) {
            return Err(format!(
                "{kind} metric name `{name}` is not [A-Za-z0-9][A-Za-z0-9_.-]*"
            ));
        }
        match printed
            .iter()
            .filter(|(n, _, _)| n == name)
            .collect::<Vec<_>>()
            .as_slice()
        {
            [(_, _, printed_unit)] if printed_unit == unit => {}
            [(_, _, printed_unit)] => {
                return Err(format!(
                    "{kind} metric {name}: declared unit {unit}, printed {printed_unit}"
                ));
            }
            [] => {
                return Err(format!(
                    "{kind} metric {name} is declared but was not printed"
                ))
            }
            _ => return Err(format!("{kind} metric {name} was printed more than once")),
        }
    }
    match printed
        .iter()
        .find(|(n, _, _)| !declared.iter().any(|(d, _)| d == n))
    {
        Some((name, _, _)) => Err(format!(
            "{kind} metric {name} was printed but is not declared"
        )),
        None => Ok(()),
    }
}

/// Units of counts made by the program: they must repeat exactly.
const EXACT_UNITS: [&str; 3] = ["count", "B", "bp"];

pub fn run(args: &Args, workdir: &Path) -> Result<(), String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the current directory: {e}"))?;
    let root: Value = serde_json::from_str(&json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let workloads = match field(&root, "workloads")? {
        Value::Array(items) => items
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err("BENCHMARK.json: `workloads` is not a list".into()),
    };
    if workloads != crate::WORKLOADS {
        return Err(format!(
            "BENCHMARK.json declares workloads {workloads:?}, the harness runs {:?}",
            crate::WORKLOADS
        ));
    }
    let end_to_end = declared(&root, "end_to_end")?;
    let per_layer = declared(&root, "per_layer")?;

    let untraced = run_once(
        &Args {
            trace: false,
            ..args.clone()
        },
        workdir,
    );
    println!("{}", crate::result_line(&untraced));
    compare("end-to-end", &end_to_end, &untraced.metrics)?;
    if !untraced.correct {
        return Err("the untraced run failed its own correctness checks".into());
    }

    let first = run_once(
        &Args {
            trace: true,
            ..args.clone()
        },
        workdir,
    );
    println!("{}", crate::result_line(&first));
    compare("per-layer", &per_layer, &first.metrics)?;
    let second = run_once(
        &Args {
            trace: true,
            ..args.clone()
        },
        workdir,
    );
    if !(first.correct && second.correct) {
        return Err("a traced run failed its own correctness checks".into());
    }
    for (name, value, unit) in first
        .metrics
        .iter()
        .filter(|(_, _, u)| EXACT_UNITS.contains(u))
    {
        let again = second.metrics.get(name);
        if again != Some(*value) {
            return Err(format!(
                "count {name} ({unit}) read {value} then {again:?}: it must repeat exactly"
            ));
        }
    }
    if let Some(shared) = crate::shared_contigs(args, workdir) {
        // Reported, not gated: see README, "What the checks found".
        println!("contigs shared by asm_inmem and asm_extsort: {shared}");
    }
    println!(
        "check passed: {} end-to-end and {} per-layer metrics",
        end_to_end.len(),
        per_layer.len()
    );
    Ok(())
}
