//! The fidelity contract, executed: every figure of the paper's evaluation
//! is rerun (`bench::figures`), every number the paper states is held
//! against the simulated one inside its recorded band, and the checked-in
//! `FIGURES.md` is exactly what this tree generates. A change that moves a
//! simulated number by more than 5 % fails here and must re-record the
//! band next to the claim — in the table, not in a sentence.

use bench::figures::{fidelity_markdown, registry, Report};
use localut::canonical::CanonicalLut;
use localut::reorder::ReorderLut;
use quant::NumericFormat;
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// The whole registry, run once for every test in this file.
fn reports() -> &'static [Report] {
    static REPORTS: OnceLock<Vec<Report>> = OnceLock::new();
    REPORTS.get_or_init(|| {
        registry()
            .iter()
            .map(|figure| {
                figure
                    .run()
                    .unwrap_or_else(|e| panic!("{} failed: {e}", figure.name))
            })
            .collect()
    })
}

fn repo_file(name: &str) -> String {
    let path = format!("{}/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn every_claim_sits_in_its_band_and_every_gap_names_its_substitution() {
    for report in reports() {
        let name = report.figure.name;
        assert!(!report.claims.is_empty(), "{name} holds no paper number");
        for claim in &report.claims {
            assert!(
                claim.holds(),
                "out of band: {claim} — if the move is intended, re-record the band and \
                 regenerate FIGURES.md"
            );
            let gap = claim.ratio().is_some_and(|r| !(0.80..=1.25).contains(&r));
            assert!(
                !gap || claim.caveat.is_some(),
                "a gap with no DESIGN.md §10 caveat: {claim}"
            );
        }
    }
}

#[test]
fn registry_and_design_section_9_name_the_same_figures() {
    let names: Vec<&str> = registry().iter().map(|f| f.name).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate registry name");

    let design = repo_file("DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("9. "))
        .expect("DESIGN.md has a §9");
    let marker = "bench::figures::";
    let documented: BTreeSet<&str> = section
        .match_indices(marker)
        .map(|(at, _)| {
            let rest = &section[at + marker.len()..];
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .collect();
    assert_eq!(
        documented, unique,
        "DESIGN.md §9 and bench::figures::registry() disagree"
    );
}

#[test]
fn checked_in_figures_md_is_what_this_tree_generates() {
    assert!(
        fidelity_markdown(reports()) == repo_file("FIGURES.md"),
        "FIGURES.md is stale: regenerate with `bench-runner --figures --out FIGURES.md`"
    );
}

/// Fig. 6's byte columns are closed forms; the images `localut::image`
/// materialises must weigh exactly that, wherever building one is cheap.
#[test]
fn fig06_rows_equal_the_materialised_image_sizes() {
    let fig06 = reports().iter().find(|r| r.figure.name == "fig06");
    let (_, table) = &fig06.expect("fig06 is registered").tables[0];
    let mut checked = 0;
    for row in table.rows() {
        let p: u32 = row[0].parse().unwrap();
        if p > 5 {
            continue;
        }
        let (wf, af) = (NumericFormat::Bipolar, NumericFormat::Int(3));
        let canonical = CanonicalLut::<i32>::build(wf, af, p, 1 << 24).unwrap();
        let reorder = ReorderLut::build(wf.bits(), p, 1 << 24).unwrap();
        assert_eq!(
            row[2],
            canonical.image_bytes().len().to_string(),
            "canonical, p={p}"
        );
        assert_eq!(
            row[3],
            reorder.image_bytes().len().to_string(),
            "reordering, p={p}"
        );
        checked += 1;
    }
    assert_eq!(checked, 4, "Fig. 6 plots p = 2..=8");
}
