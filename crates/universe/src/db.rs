//! Deterministic simulated databases and analysis backends.
//!
//! The paper's modules front real molecular databases (Uniprot, KEGG, PDB,
//! …) and analysis programs (BLAST, Mascot-style identification, text
//! mining). Here each backend is an *infinite deterministic function*: the
//! record for an accession is derived from a seed hashed out of the database
//! name and the accession itself. Two modules querying the same simulated
//! database therefore return byte-identical results — which is what makes
//! "the SOAP and REST front-ends of the same provider are equivalent"
//! (paper §6, the KEGG case) true in the simulation, and what makes
//! substitution verification meaningful.
//!
//! A `salt` argument distinguishes *providers with genuinely different
//! algorithms* (different alignment programs return different hits); salt 0
//! is the canonical backend.

use dex_values::formats::accession::AccessionKind;
use dex_values::formats::records::{EntryRecord, RecordFormat, SeqEntry};
use dex_values::formats::reports::{
    newick_ladder, AlignmentHit, AlignmentReport, AnnotationReport, IdentificationReport,
};
use dex_values::formats::sequence::SequenceKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// FNV-1a hash over the parts, used to seed per-query generators.
pub fn seed_for(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for part in parts {
        for b in part.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x100000001b3);
        }
        h ^= 0x1f; // separator so ("ab","c") != ("a","bc")
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn rng_for(parts: &[&str], salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed_for(parts) ^ salt.wrapping_mul(0x9e3779b97f4a7c15))
}

/// The logical sequence-database entry behind `accession` in `database`.
///
/// The entry's accession field echoes the query accession; description,
/// organism and sequence are derived deterministically.
pub fn seq_entry_for(database: &str, accession: &str, kind: SequenceKind) -> SeqEntry {
    let mut rng = rng_for(&["seq-entry", database, accession], 0);
    const ADJ: &[&str] = &["putative", "conserved", "hypothetical", "predicted"];
    const NOUN: &[&str] = &["kinase", "transporter", "polymerase", "receptor", "ligase"];
    const ORG: &[&str] = &[
        "Homo sapiens",
        "Mus musculus",
        "Escherichia coli",
        "Saccharomyces cerevisiae",
    ];
    let len = rng.gen_range(40..100);
    SeqEntry {
        accession: accession.to_string(),
        description: format!(
            "{} {}",
            ADJ[rng.gen_range(0..ADJ.len())],
            NOUN[rng.gen_range(0..NOUN.len())]
        ),
        organism: ORG[rng.gen_range(0..ORG.len())].to_string(),
        sequence: kind.generate(&mut rng, len),
    }
}

/// The flat-text record behind `accession` in `database`, rendered in
/// `format`. Protein-ish formats carry protein sequences, nucleotide-ish
/// formats DNA.
pub fn record_for(database: &str, accession: &str, format: RecordFormat) -> String {
    let kind = match format {
        RecordFormat::Uniprot | RecordFormat::Pdb | RecordFormat::Fasta => SequenceKind::Protein,
        RecordFormat::GenBank | RecordFormat::Embl => SequenceKind::Dna,
    };
    format.render(&seq_entry_for(database, accession, kind))
}

/// Renders a [`SeqEntry`] in the generic `SEQUENCE-RECORD` format.
pub fn render_generic_record(entry: &SeqEntry) -> String {
    format!(
        "SEQUENCE-RECORD {}\nDESC {}\nORG  {}\nSEQ  {}\n",
        entry.accession, entry.description, entry.organism, entry.sequence
    )
}

/// Parses the generic `SEQUENCE-RECORD` format.
pub fn parse_generic_record(text: &str) -> Option<SeqEntry> {
    let mut accession = None;
    let mut description = String::new();
    let mut organism = String::new();
    let mut sequence = None;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("SEQUENCE-RECORD ") {
            accession = Some(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("DESC ") {
            description = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("ORG  ") {
            organism = rest.trim().to_string();
        } else if let Some(rest) = line.strip_prefix("SEQ  ") {
            sequence = Some(rest.trim().to_string());
        }
    }
    Some(SeqEntry {
        accession: accession?,
        description,
        organism,
        sequence: sequence?,
    })
}

/// Parses any of the five concrete record formats *or* the generic
/// `SEQUENCE-RECORD` format.
pub fn parse_any_record(text: &str) -> Option<SeqEntry> {
    if text.starts_with("SEQUENCE-RECORD") {
        return parse_generic_record(text);
    }
    RecordFormat::detect(text).and_then(|f| f.parse(text).ok())
}

/// The KEGG-style entry behind `accession` (pathway/enzyme/compound/…).
pub fn kegg_entry_for(kind: &str, accession: &str) -> String {
    let mut rng = rng_for(&["kegg-entry", kind, accession], 0);
    const NAMES: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];
    let links = (0..rng.gen_range(1..4usize))
        .map(|_| AccessionKind::KeggGene.generate(&mut rng))
        .collect();
    EntryRecord {
        accession: accession.to_string(),
        kind: kind.to_string(),
        name: format!(
            "{}-{}",
            kind.to_lowercase(),
            NAMES[rng.gen_range(0..NAMES.len())]
        ),
        definition: format!("{kind} entry for {accession}"),
        links,
    }
    .render()
}

/// Deterministically maps an accession to a target syntax — the backend of
/// every identifier-mapping module. A function of `(target, accession,
/// salt)` only, so independent providers implementing "the" Uniprot→GO
/// mapping agree.
pub fn map_accession(target: AccessionKind, accession: &str, salt: u64) -> String {
    let mut rng = rng_for(&["map", &format!("{target}"), accession], salt);
    target.generate(&mut rng)
}

/// Alignment hits for `query` against `database`, using the algorithm
/// identified by `program` (different programs = different hit lists, which
/// is why the paper's homology modules were *not* interchangeable).
pub fn homology_report(database: &str, program: &str, query: &str, salt: u64) -> String {
    let mut rng = rng_for(&["homology", database, program, query], salt);
    let n = rng.gen_range(2..6usize);
    let hits = (0..n)
        .map(|i| AlignmentHit {
            accession: AccessionKind::Uniprot.generate(&mut rng),
            score: (rng.gen_range(3000..9000u32) as f64) / 10.0 - (i as f64) * 25.0,
            evalue: 10f64.powi(-(rng.gen_range(10..70i32))),
        })
        .collect();
    AlignmentReport {
        program: program.to_string(),
        database: database.to_string(),
        query: elide(query, 24),
        hits,
    }
    .render()
}

/// The GO term associated with an accession.
pub fn go_term_for(accession: &str, salt: u64) -> String {
    let mut rng = rng_for(&["go", accession], salt);
    AccessionKind::GoTerm.generate(&mut rng)
}

/// Protein identification from peptide masses at a tolerance — the backend
/// of the paper's `Identify` module (Figure 1). The result depends on the
/// masses and (coarsely) on the tolerance bucket, like a real search engine
/// widening its candidate set.
pub fn identify_protein(masses: &[f64], tolerance: f64, salt: u64) -> IdentificationReport {
    let bucket = if tolerance < 1.0 {
        "strict"
    } else if tolerance < 5.0 {
        "normal"
    } else {
        "loose"
    };
    let mass_key: String = masses.iter().map(|m| format!("{:.1};", m)).collect();
    let mut rng = rng_for(&["identify", bucket, &mass_key], salt);
    IdentificationReport {
        accession: AccessionKind::Uniprot.generate(&mut rng),
        confidence: (rng.gen_range(600..999u32) as f64) / 1000.0,
        matched_peptides: masses.len().saturating_sub(rng.gen_range(0..3usize)).max(1),
    }
}

/// Functional annotation of an accession.
pub fn annotation_for(accession: &str, salt: u64) -> String {
    let mut rng = rng_for(&["annotate", accession], salt);
    let n = rng.gen_range(1..4usize);
    let terms = (0..n)
        .map(|_| {
            (
                AccessionKind::GoTerm.generate(&mut rng),
                (rng.gen_range(100..999u32) as f64) / 1000.0,
            )
        })
        .collect();
    AnnotationReport {
        accession: accession.to_string(),
        terms,
    }
    .render()
}

/// A phylogenetic tree over homologs of the given sequence key.
pub fn tree_for(key: &str, salt: u64) -> String {
    let mut rng = rng_for(&["tree", key], salt);
    let n = rng.gen_range(3..6usize);
    let leaves: Vec<String> = (0..n)
        .map(|_| AccessionKind::Uniprot.generate(&mut rng))
        .collect();
    newick_ladder(&leaves)
}

fn elide(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        s.chars().take(max).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_distinguishes_part_boundaries() {
        assert_ne!(seed_for(&["ab", "c"]), seed_for(&["a", "bc"]));
        assert_ne!(seed_for(&["a"]), seed_for(&["a", ""]));
        assert_eq!(seed_for(&["x", "y"]), seed_for(&["x", "y"]));
    }

    #[test]
    fn records_are_deterministic_and_echo_accession() {
        let a = record_for("uniprot", "P12345", RecordFormat::Uniprot);
        let b = record_for("uniprot", "P12345", RecordFormat::Uniprot);
        assert_eq!(a, b);
        let parsed = RecordFormat::Uniprot.parse(&a).unwrap();
        assert_eq!(parsed.accession, "P12345");
    }

    #[test]
    fn different_databases_differ() {
        let a = record_for("uniprot", "P12345", RecordFormat::Fasta);
        let b = record_for("trembl", "P12345", RecordFormat::Fasta);
        assert_ne!(a, b);
    }

    #[test]
    fn generic_record_round_trips() {
        let text =
            render_generic_record(&seq_entry_for("any", "XDB:000123", SequenceKind::Generic));
        let parsed = parse_generic_record(&text).unwrap();
        assert_eq!(parsed.accession, "XDB:000123");
        assert!(!parsed.sequence.is_empty());
        assert_eq!(parse_any_record(&text).unwrap(), parsed);
    }

    #[test]
    fn parse_any_handles_all_formats() {
        for format in RecordFormat::ALL {
            let text = record_for("db", "AB123456", format);
            let parsed = parse_any_record(&text).unwrap();
            assert_eq!(parsed.accession, "AB123456", "{}", format.name());
        }
        assert!(parse_any_record("garbage").is_none());
    }

    #[test]
    fn mapping_is_functional_and_salted() {
        let a = map_accession(AccessionKind::GoTerm, "P12345", 0);
        let b = map_accession(AccessionKind::GoTerm, "P12345", 0);
        let c = map_accession(AccessionKind::GoTerm, "P12345", 7);
        let d = map_accession(AccessionKind::GoTerm, "Q99999", 0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert!(AccessionKind::GoTerm.is_valid(&a));
    }

    #[test]
    fn homology_depends_on_program() {
        let blast = homology_report("uniprot", "blastp", "MKVL", 0);
        let fasta = homology_report("uniprot", "fasta", "MKVL", 0);
        assert_ne!(blast, fasta);
        let parsed = AlignmentReport::parse(&blast).unwrap();
        assert_eq!(parsed.program, "blastp");
        assert!(!parsed.hits.is_empty());
    }

    #[test]
    fn identification_depends_on_tolerance_bucket() {
        let masses = [1200.5, 980.2, 1500.1];
        let strict = identify_protein(&masses, 0.5, 0);
        let strict2 = identify_protein(&masses, 0.9, 0);
        let loose = identify_protein(&masses, 9.0, 0);
        assert_eq!(strict, strict2, "same bucket, same result");
        assert_ne!(strict.accession, loose.accession);
    }

    #[test]
    fn kegg_entry_parses() {
        let text = kegg_entry_for("Pathway", "path:map00010");
        let entry = EntryRecord::parse(&text).unwrap();
        assert_eq!(entry.kind, "Pathway");
        assert_eq!(entry.accession, "path:map00010");
    }

    #[test]
    fn annotation_and_tree_and_goterm_are_deterministic() {
        assert_eq!(annotation_for("P12345", 1), annotation_for("P12345", 1));
        assert_eq!(tree_for("k", 0), tree_for("k", 0));
        assert_eq!(go_term_for("P12345", 0), go_term_for("P12345", 0));
        assert_ne!(go_term_for("P12345", 0), go_term_for("P12345", 1));
    }
}
