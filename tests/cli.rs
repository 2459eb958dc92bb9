//! Integration tests for the `dexctl` binary.

use std::process::Command;

fn dexctl(args: &[&str]) -> (String, String, bool) {
    let output = Command::new(env!("CARGO_BIN_EXE_dexctl"))
        .args(args)
        .output()
        .expect("dexctl runs");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

#[test]
fn help_lists_commands() {
    let (stdout, _, ok) = dexctl(&["help"]);
    assert!(ok);
    for command in ["list", "show", "search", "compare", "suggest", "partitions"] {
        assert!(stdout.contains(command), "missing {command}");
    }
}

#[test]
fn no_args_fails_with_usage() {
    let (_, stderr, ok) = dexctl(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"));
}

#[test]
fn list_filters_by_category() {
    let (stdout, _, ok) = dexctl(&["list", "filter"]);
    assert!(ok);
    assert_eq!(stdout.lines().count(), 27, "filtering category size");
    assert!(stdout.contains("fl:"));
    let (_, stderr, ok) = dexctl(&["list", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown category"));
}

#[test]
fn show_prints_interface_and_examples() {
    let (stdout, _, ok) = dexctl(&["show", "dr:get_uniprot_record"]);
    assert!(ok);
    assert!(stdout.contains("UniprotAccession"));
    assert!(stdout.contains("data examples (1)"));
    let (_, stderr, ok) = dexctl(&["show", "nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown module"));
}

#[test]
fn compare_prints_verdict() {
    let (stdout, _, ok) = dexctl(&[
        "compare",
        "dr:get_uniprot_record",
        "dr:get_uniprot_record_ebi",
    ]);
    assert!(ok);
    assert!(stdout.contains("equivalent"));
}

#[test]
fn partitions_prints_subdomains() {
    let (stdout, _, ok) = dexctl(&["partitions", "BiologicalSequence"]);
    assert!(ok);
    assert!(stdout.contains("DNASequence"));
    assert!(stdout.contains("ProteinSequence"));
    let (_, stderr, ok) = dexctl(&["partitions", "Nope"]);
    assert!(!ok);
    assert!(stderr.contains("unknown concept"));
}

#[test]
fn search_combines_filters() {
    let (stdout, _, ok) = dexctl(&[
        "search",
        "--consumes",
        "UniprotAccession",
        "--produces",
        "ProteinSequence",
    ]);
    assert!(ok);
    assert!(stdout.contains("get_protein_sequence"));
    let (stdout, stderr, ok) = dexctl(&["search", "--consumes", "ProteinSequenc"]);
    assert!(
        !ok,
        "an unknown concept is an error, not a filter: {stdout}"
    );
    assert!(
        stderr.contains("unknown concept `ProteinSequenc`"),
        "{stderr}"
    );
}

#[test]
fn search_prints_the_pinned_listings() {
    for (args, golden) in [
        (
            &[
                "--consumes",
                "UniprotAccession",
                "--produces",
                "ProteinSequence",
            ][..],
            include_str!("golden/dexctl/search_consumes_produces.stdout"),
        ),
        (
            &["--name", "BLAST"],
            include_str!("golden/dexctl/search_name.stdout"),
        ),
        (
            &[
                "--consumes",
                "Identifier",
                "--produces",
                "BiologicalSequence",
                "--name",
                "get",
            ],
            include_str!("golden/dexctl/search_subsumption_and_name.stdout"),
        ),
    ] {
        let (stdout, stderr, ok) = dexctl(&[&["search"][..], args].concat());
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(stdout, golden, "{args:?}");
    }
}

#[test]
fn surplus_arguments_fail_with_usage() {
    for args in [
        &["show", "dr:get_uniprot_record", "dr:get_uniprot_record_ebi"][..],
        &["list", "ft", "extra"],
        &["ontology", "extra"],
        &[
            "compare",
            "dr:get_uniprot_record",
            "dr:get_uniprot_record_ebi",
            "extra",
        ],
        &["suggest", "dr:get_uniprot_record", "extra"],
        &["partitions", "BiologicalSequence", "extra"],
        &["help", "extra"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_dexctl"))
            .args(args)
            .output()
            .expect("dexctl runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
        let surplus = args[args.len() - 1];
        assert!(
            stderr.contains(&format!("unexpected argument `{surplus}`"))
                && stderr.contains("usage"),
            "{args:?}: {stderr}"
        );
    }
}
