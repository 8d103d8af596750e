//! CI guard: validates a telemetry JSONL file written via `--metrics-out`.
//!
//! Every line must parse as a JSON object whose `type` discriminator is one
//! of the four event kinds emitted by `snia-telemetry` (`span_enter`,
//! `span_exit`, `metric`, `record`) and carry that kind's required fields.
//! The file must contain at least one span pair and one metric so an
//! accidentally disabled sink fails the smoke job instead of passing
//! vacuously.
//!
//! Crash tolerance: a process killed mid-write may leave a final line with
//! no trailing newline; such a cleanly-truncated final line is warned about
//! and ignored rather than failing validation. With `--crashed`, unbalanced
//! spans (enters > exits) are also tolerated, since a killed process never
//! exits its open spans.
//!
//! With `--scores`, the file is validated as `snia serve` output instead:
//! every line must be an object with an integer `id` and a finite `score`
//! in `[0, 1]`, ids must be unique, and `--expect <n>` additionally pins
//! the line count.
//!
//! Usage: `validate_jsonl [--crashed] <events.jsonl>`
//!        `validate_jsonl --scores [--expect <n>] <scores.jsonl>`

use std::process::ExitCode;

use serde::Value;

fn require_str(v: &Value, key: &str) -> Result<(), String> {
    match v.get(key).and_then(Value::as_str) {
        Some(_) => Ok(()),
        None => Err(format!("missing string field '{key}'")),
    }
}

fn require_u64(v: &Value, key: &str) -> Result<(), String> {
    match v.get(key).and_then(Value::as_u64) {
        Some(_) => Ok(()),
        None => Err(format!("missing integer field '{key}'")),
    }
}

fn validate_line(line: &str) -> Result<&'static str, String> {
    let v: Value = serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e:?}"))?;
    if v.as_map().is_none() {
        return Err("line is not a JSON object".into());
    }
    let ty = v
        .get("type")
        .and_then(Value::as_str)
        .ok_or("missing 'type' discriminator")?
        .to_string();
    require_u64(&v, "ts_ns")?;
    match ty.as_str() {
        "span_enter" => {
            require_str(&v, "name")?;
            require_str(&v, "path")?;
            require_u64(&v, "depth")?;
            Ok("span_enter")
        }
        "span_exit" => {
            require_str(&v, "name")?;
            require_str(&v, "path")?;
            require_u64(&v, "depth")?;
            require_u64(&v, "elapsed_ns")?;
            Ok("span_exit")
        }
        "metric" => {
            require_str(&v, "name")?;
            require_str(&v, "kind")?;
            v.get("value")
                .and_then(Value::as_f64)
                .ok_or("missing numeric field 'value'")?;
            Ok("metric")
        }
        "record" => {
            require_str(&v, "kind")?;
            v.get("value").ok_or("missing field 'value'")?;
            Ok("record")
        }
        other => Err(format!("unknown event type '{other}'")),
    }
}

fn run(path: &str, crashed: bool) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let ends_with_newline = text.ends_with('\n');
    let all: Vec<&str> = text.lines().collect();
    let (mut enters, mut exits, mut metrics, mut records) = (0usize, 0usize, 0usize, 0usize);
    let (mut lines, mut truncated) = (0usize, 0usize);
    for (i, line) in all.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match validate_line(line) {
            Ok("span_enter") => enters += 1,
            Ok("span_exit") => exits += 1,
            Ok("metric") => metrics += 1,
            Ok(_) => records += 1,
            Err(e) => {
                // A crash mid-write leaves a half-line with no trailing
                // newline; tolerate exactly that shape of damage.
                if i + 1 == all.len() && !ends_with_newline {
                    eprintln!(
                        "warning: {path}:{}: ignoring truncated final line ({e})",
                        i + 1
                    );
                    truncated += 1;
                    continue;
                }
                return Err(format!("{path}:{}: {e}", i + 1));
            }
        }
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: no events — was telemetry enabled?"));
    }
    if enters == 0 || exits == 0 {
        return Err(format!(
            "{path}: expected span_enter and span_exit events (got {enters}/{exits})"
        ));
    }
    if metrics == 0 {
        return Err(format!("{path}: expected at least one metric event"));
    }
    if enters != exits {
        if crashed && enters > exits {
            eprintln!(
                "warning: {path}: {} span(s) left open by the crash",
                enters - exits
            );
        } else {
            return Err(format!(
                "{path}: unbalanced spans: {enters} enters vs {exits} exits"
            ));
        }
    }
    println!(
        "{path}: OK — {lines} events ({enters}/{exits} spans, {metrics} metrics, \
         {records} records, {truncated} truncated)"
    );
    Ok(())
}

/// Validates `snia serve` output: unique integer ids, finite scores in
/// `[0, 1]`, and (when `expect` is set) an exact line count.
fn run_scores(path: &str, expect: Option<usize>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut seen = std::collections::HashSet::new();
    let mut lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("{path}:{}: invalid JSON: {e:?}", i + 1))?;
        let id = v
            .get("id")
            .and_then(Value::as_u64)
            .ok_or(format!("{path}:{}: missing integer field 'id'", i + 1))?;
        if !seen.insert(id) {
            return Err(format!("{path}:{}: duplicate id {id}", i + 1));
        }
        let score = v
            .get("score")
            .and_then(Value::as_f64)
            .ok_or(format!("{path}:{}: missing numeric field 'score'", i + 1))?;
        if !score.is_finite() || !(0.0..=1.0).contains(&score) {
            return Err(format!("{path}:{}: score {score} outside [0, 1]", i + 1));
        }
        lines += 1;
    }
    if lines == 0 {
        return Err(format!("{path}: no scored responses"));
    }
    if let Some(want) = expect {
        if lines != want {
            return Err(format!("{path}: expected {want} responses, got {lines}"));
        }
    }
    println!("{path}: OK — {lines} scored responses, all ids unique");
    Ok(())
}

const USAGE: &str = "usage: validate_jsonl [--crashed] <events.jsonl>
       validate_jsonl --scores [--expect <n>] <scores.jsonl>";

/// The options and path on the command line: `(crashed, scores, expect, path)`.
fn parse_args(args: Vec<String>) -> Result<(bool, bool, Option<usize>, String), String> {
    let (mut crashed, mut scores, mut expect, mut path) = (false, false, None, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--crashed" => crashed = true,
            "--scores" => scores = true,
            "--expect" => {
                let n = args.next().unwrap_or_default();
                expect = Some(n.parse().map_err(|_| {
                    format!("invalid --expect value {n:?}: expected a response count")
                })?);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ if path.is_none() => path = Some(arg),
            _ => return Err(format!("unexpected argument {arg:?}")),
        }
    }
    let path = path.ok_or("missing the JSONL path")?;
    Ok((crashed, scores, expect, path))
}

fn main() -> ExitCode {
    let (crashed, scores, expect, path) = match parse_args(std::env::args().skip(1).collect()) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if scores {
        run_scores(&path, expect)
    } else {
        run(&path, crashed)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(bool, bool, Option<usize>, String), String> {
        parse_args(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn arguments_parse_or_fail_loudly() {
        assert_eq!(
            parse(&["e.jsonl"]),
            Ok((false, false, None, "e.jsonl".into()))
        );
        assert_eq!(
            parse(&["--crashed", "e.jsonl"]),
            Ok((true, false, None, "e.jsonl".into()))
        );
        assert_eq!(
            parse(&["--scores", "--expect", "100", "s.jsonl"]),
            Ok((false, true, Some(100), "s.jsonl".into()))
        );
        for bad in [
            &["--scores", "--expect", "abc", "s.jsonl"][..],
            &["--scores", "s.jsonl", "--expect"],
            &["--expect", "--scores", "s.jsonl"],
            &["--bogus", "e.jsonl"],
            &["--scores"],
            &["a.jsonl", "b.jsonl"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
