//! The report binaries refuse a seed they cannot parse, rather than
//! printing tables headed with a default seed nobody asked for.

use std::process::Command;

fn refuses(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} printed {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("usage:"),
        "{bin} {args:?}"
    );
}

#[test]
fn experiments_refuses_an_unparsable_seed() {
    refuses(env!("CARGO_BIN_EXE_experiments"), &["abc"]);
}

#[test]
fn pilot_refuses_an_unparsable_seed() {
    refuses(env!("CARGO_BIN_EXE_pilot"), &["matopiba", "abc"]);
    refuses(env!("CARGO_BIN_EXE_pilot"), &["all", "-1"]);
}

#[test]
fn pilot_takes_a_numeric_seed() {
    let out = Command::new(env!("CARGO_BIN_EXE_pilot"))
        .args(["matopiba", "7"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.starts_with("SWAMP pilot season runner (seed 7)"),
        "{stdout}"
    );
}
