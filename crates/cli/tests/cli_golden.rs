//! Behaviour gate for `damlab` output: each case runs one command
//! in-process through [`dam_cli::run`] and compares its text with the
//! committed golden `tests/golden/<name>.txt`. The harness and the serving
//! engine are deterministic, so any change to what they check, count or
//! print shows up as a row diff. `DAM_BLESS=1 cargo test -p dam-cli --test
//! cli_golden` rewrites the goldens.

use std::path::PathBuf;

fn golden(name: &str, cmd: &str) {
    let argv: Vec<String> = cmd.split_whitespace().map(str::to_string).collect();
    let text = dam_cli::run(&argv).unwrap_or_else(|e| panic!("damlab {cmd}: {e}"));
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("DAM_BLESS").is_some_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &text).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (DAM_BLESS=1 writes it from this build)",
            path.display()
        )
    });
    if want != text {
        let mut diff = String::new();
        let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), text.lines().collect());
        for i in 0..w.len().max(g.len()) {
            if w.get(i) != g.get(i) {
                diff.push_str(&format!("line {}:\n", i + 1));
                if let Some(a) = w.get(i) {
                    diff.push_str(&format!("- {a}\n"));
                }
                if let Some(b) = g.get(i) {
                    diff.push_str(&format!("+ {b}\n"));
                }
            }
        }
        panic!(
            "damlab {cmd} differs from {} (- golden, + this build):\n{diff}",
            path.display()
        );
    }
}

#[test]
fn check_all_modes() {
    golden("check_seed7", "check --ops 600 --seed 7");
}

#[test]
fn check_persistent_mode() {
    golden(
        "check_persistent_seed7",
        "check --mode persistent --ops 600 --seed 7",
    );
}

#[test]
fn check_concurrent_mode() {
    golden(
        "check_concurrent_k8_seed7",
        "check --mode concurrent --clients 8 --ops 600 --seed 7",
    );
}

#[test]
fn serve_smoke() {
    golden("serve_smoke", "serve --smoke");
}
