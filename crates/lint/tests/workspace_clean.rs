//! The acceptance gate: the whole workspace scans clean. Any new
//! violation — or any allow that went stale — fails this test (and the
//! dedicated CI step that runs the binary).

use std::path::Path;

#[test]
fn workspace_has_zero_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let findings = lidc_lint::scan_workspace(&root).expect("scan");
    let rendered: Vec<String> = findings.iter().map(|f| f.render()).collect();
    assert!(
        findings.is_empty(),
        "the workspace must lint clean; findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn workspace_scan_is_deterministic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let a = lidc_lint::scan_workspace(&root).expect("scan");
    let b = lidc_lint::scan_workspace(&root).expect("scan");
    assert_eq!(a, b, "a linter about determinism had better be deterministic");
}

/// The catalogue must carry all eight enforced rules (plus the two that
/// police the allow directives themselves), and the workspace must be
/// clean under every one of them — reported per rule so a regression
/// names the contract it broke.
#[test]
fn every_rule_is_cataloged_and_workspace_clean() {
    let enforced = [
        "wall-clock",
        "ambient-rng",
        "unordered-iter",
        "actor-isolation",
        "float-accum",
        "panic-path",
        "effect-purity",
        "metric-key",
    ];
    let police = ["unused-allow", "allow-syntax"];
    for r in enforced.iter().chain(&police) {
        assert!(
            lidc_lint::rules::ALL.contains(r),
            "rule `{r}` missing from the catalogue"
        );
        assert!(!lidc_lint::rules::describe(r).is_empty());
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    let findings = lidc_lint::scan_workspace(&root).expect("scan");
    for r in enforced.iter().chain(&police) {
        let hits: Vec<String> =
            findings.iter().filter(|f| f.rule == *r).map(|f| f.render()).collect();
        assert!(hits.is_empty(), "rule `{r}` regressed:\n{}", hits.join("\n"));
    }
}

/// `--changed` reporting is a strict narrowing of the full scan: it must
/// never invent findings the workspace pass does not have.
#[test]
fn changed_scan_is_a_subset_of_the_full_scan() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).unwrap().to_path_buf();
    if !root.join(".git").exists() {
        return; // packaged source, no git metadata — nothing to diff
    }
    let full = lidc_lint::scan_workspace(&root).expect("scan");
    let changed = lidc_lint::scan_changed(&root, "HEAD").expect("changed scan");
    for f in &changed {
        assert!(full.contains(f), "changed-only finding {} not in the full scan", f.render());
    }
}
