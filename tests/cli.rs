//! The `snia` binary rejects malformed and unknown flags with exit code 2
//! before doing any work, naming the offending flag or variable.

use std::process::{Command, Output};

type Env = &'static [(&'static str, &'static str)];

fn snia(args: &[&str], env: Env) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_snia"));
    cmd.args(args);
    for var in ["SNIA_RESUME", "SNIA_FAULT", "SNIA_RENDER_CACHE"] {
        cmd.env_remove(var);
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("snia runs")
}

#[test]
fn bad_input_exits_2_before_any_work() {
    let cases: [(&[&str], Env, &str); 5] = [
        (&["classify", "--threads", "0"], &[], "--threads"),
        (&["classify", "--thraeds", "4"], &[], "--thraeds"),
        (&["dataset", "--threads", "0"], &[], "--threads"),
        (
            &["serve", "--model", "no-such-bundle", "--workers", "0"],
            &[],
            "--workers",
        ),
        (&["classify"], &[("SNIA_FAULT", "bogus")], "SNIA_FAULT"),
    ];
    for (args, env, name) in cases {
        let out = snia(args, env);
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {stderr}");
        assert!(
            stderr.contains(name),
            "{args:?}: stderr {stderr:?} names no {name}"
        );
        assert!(stdout.is_empty(), "{args:?} did work first: {stdout}");
    }
}

#[test]
fn help_exits_0() {
    let out = snia(&["help"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}
