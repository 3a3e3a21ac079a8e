//! Suites resolve their repo-relative workload files from any working
//! directory, not only from the repository root.

use std::process::Command;

#[test]
fn table2_file_workload_runs_outside_the_repo_root() {
    let cwd = std::env::temp_dir().join(format!("table2-cwd-{}", std::process::id()));
    std::fs::create_dir_all(&cwd).expect("create a scratch working directory");
    let out = Command::new(env!("CARGO_BIN_EXE_table2"))
        .args(["--quick", "--seeds", "1", "T2.1f"])
        .current_dir(&cwd)
        .output()
        .expect("run table2");
    let _ = std::fs::remove_dir_all(&cwd);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "table2 failed from {}:\n{}",
        cwd.display(),
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("T2.1f"), "no T2.1f rows:\n{stdout}");
}
