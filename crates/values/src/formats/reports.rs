//! Analysis report formats: alignment reports, identification reports,
//! annotation summaries and newick trees.
//!
//! Data-analysis modules emit these; the matcher compares them verbatim, so
//! renderings are deterministic functions of their logical content.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One hit inside an alignment report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlignmentHit {
    /// Accession of the matched entry.
    pub accession: String,
    /// Alignment score (higher is better).
    pub score: f64,
    /// E-value (lower is better).
    pub evalue: f64,
}

/// A sequence-similarity search report (BLAST-like or FASTA-like).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlignmentReport {
    /// Name of the algorithm that produced the report (e.g. `blastp`).
    pub program: String,
    /// Database searched.
    pub database: String,
    /// Echo of the query (possibly elided).
    pub query: String,
    /// Hits, best first.
    pub hits: Vec<AlignmentHit>,
}

impl AlignmentReport {
    /// Renders the report as flat text; [`AlignmentReport::parse`] inverts it.
    pub fn render(&self) -> String {
        let mut out = format!(
            "PROGRAM  {}\nDATABASE {}\nQUERY    {}\nHITS     {}\n",
            self.program,
            self.database,
            self.query,
            self.hits.len()
        );
        for (rank, hit) in self.hits.iter().enumerate() {
            out.push_str(&format!(
                "{:>4}  {:<16} score={:.1} evalue={:e}\n",
                rank + 1,
                hit.accession,
                hit.score,
                hit.evalue
            ));
        }
        out
    }

    /// Parses a rendered report.
    pub fn parse(text: &str) -> Option<AlignmentReport> {
        let mut program = None;
        let mut database = None;
        let mut query = None;
        let mut hits = Vec::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("PROGRAM  ") {
                program = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("DATABASE ") {
                database = Some(rest.trim().to_string());
            } else if let Some(rest) = line.strip_prefix("QUERY    ") {
                query = Some(rest.trim().to_string());
            } else if line.starts_with("HITS") {
                // count line; individual hits follow
            } else {
                let mut parts = line.split_whitespace();
                let _rank = parts.next()?;
                let accession = parts.next()?.to_string();
                let score = parts.next()?.strip_prefix("score=")?.parse::<f64>().ok()?;
                let evalue = parts.next()?.strip_prefix("evalue=")?.parse::<f64>().ok()?;
                hits.push(AlignmentHit {
                    accession,
                    score,
                    evalue,
                });
            }
        }
        Some(AlignmentReport {
            program: program?,
            database: database?,
            query: query?,
            hits,
        })
    }
}

/// A protein identification result (what the paper's `Identify` module emits).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IdentificationReport {
    /// Best-matching protein accession.
    pub accession: String,
    /// Identification confidence in `[0, 1]`.
    pub confidence: f64,
    /// Number of peptide masses that matched.
    pub matched_peptides: usize,
}

impl fmt::Display for IdentificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IDENTIFIED {} confidence={:.3} peptides={}",
            self.accession, self.confidence, self.matched_peptides
        )
    }
}

impl IdentificationReport {
    /// Parses the `Display` rendering.
    pub fn parse(text: &str) -> Option<IdentificationReport> {
        let mut parts = text.split_whitespace();
        if parts.next()? != "IDENTIFIED" {
            return None;
        }
        let accession = parts.next()?.to_string();
        let confidence = parts.next()?.strip_prefix("confidence=")?.parse().ok()?;
        let matched_peptides = parts.next()?.strip_prefix("peptides=")?.parse().ok()?;
        Some(IdentificationReport {
            accession,
            confidence,
            matched_peptides,
        })
    }
}

/// A functional-annotation summary: term → evidence weight.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AnnotationReport {
    /// Subject of the annotation.
    pub accession: String,
    /// `(term, weight)` pairs, strongest first.
    pub terms: Vec<(String, f64)>,
}

impl AnnotationReport {
    /// Renders as `ANNOTATION acc\nterm weight` lines.
    pub fn render(&self) -> String {
        let mut out = format!("ANNOTATION {}\n", self.accession);
        for (term, weight) in &self.terms {
            out.push_str(&format!("{term} {weight:.4}\n"));
        }
        out
    }

    /// Parses a rendered annotation report.
    pub fn parse(text: &str) -> Option<AnnotationReport> {
        let mut lines = text.lines();
        let accession = lines.next()?.strip_prefix("ANNOTATION ")?.to_string();
        let mut terms = Vec::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let (term, weight) = line.rsplit_once(' ')?;
            terms.push((term.to_string(), weight.parse().ok()?));
        }
        Some(AnnotationReport { accession, terms })
    }
}

/// A phylogenetic tree in newick-like syntax, built from leaf labels.
///
/// The shape is a deterministic left-leaning ladder: `(((a,b),c),d);` — what
/// matters for behavior characterization is that equal inputs give equal
/// trees and different inputs give different trees.
pub fn newick_ladder(leaves: &[String]) -> String {
    match leaves {
        [] => ";".to_string(),
        [single] => format!("{single};"),
        [first, rest @ ..] => {
            let mut tree = first.clone();
            for leaf in rest {
                tree = format!("({tree},{leaf})");
            }
            format!("{tree};")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> AlignmentReport {
        AlignmentReport {
            program: "blastp".into(),
            database: "uniprot".into(),
            query: "P12345".into(),
            hits: vec![
                AlignmentHit {
                    accession: "Q99999".into(),
                    score: 812.5,
                    evalue: 1e-80,
                },
                AlignmentHit {
                    accession: "O11111".into(),
                    score: 230.0,
                    evalue: 2e-12,
                },
            ],
        }
    }

    #[test]
    fn alignment_report_round_trips() {
        let r = report();
        let text = r.render();
        let back = AlignmentReport::parse(&text).unwrap();
        assert_eq!(back.program, r.program);
        assert_eq!(back.database, r.database);
        assert_eq!(back.hits.len(), 2);
        assert_eq!(back.hits[0].accession, "Q99999");
        assert_eq!(back.hits[1].accession, "O11111");
        assert!((back.hits[0].score - 812.5).abs() < 1e-9);
    }

    #[test]
    fn alignment_report_with_no_hits() {
        let r = AlignmentReport {
            program: "fasta".into(),
            database: "pdb".into(),
            query: "1ABC".into(),
            hits: vec![],
        };
        let back = AlignmentReport::parse(&r.render()).unwrap();
        assert!(back.hits.is_empty());
    }

    #[test]
    fn alignment_parse_rejects_garbage() {
        assert!(AlignmentReport::parse("hello").is_none());
    }

    #[test]
    fn identification_report_round_trips() {
        let r = IdentificationReport {
            accession: "P12345".into(),
            confidence: 0.917,
            matched_peptides: 14,
        };
        let back = IdentificationReport::parse(&r.to_string()).unwrap();
        assert_eq!(back.accession, "P12345");
        assert_eq!(back.matched_peptides, 14);
        assert!((back.confidence - 0.917).abs() < 1e-9);
        assert!(IdentificationReport::parse("nope").is_none());
    }

    #[test]
    fn annotation_report_round_trips() {
        let r = AnnotationReport {
            accession: "hsa:10458".into(),
            terms: vec![("GO:0008150".into(), 0.93), ("GO:0003674".into(), 0.41)],
        };
        let back = AnnotationReport::parse(&r.render()).unwrap();
        assert_eq!(back.accession, r.accession);
        assert_eq!(back.terms.len(), 2);
        assert_eq!(back.terms[0].0, "GO:0008150");
    }

    #[test]
    fn newick_shapes() {
        assert_eq!(newick_ladder(&[]), ";");
        assert_eq!(newick_ladder(&["a".into()]), "a;");
        assert_eq!(
            newick_ladder(&["a".into(), "b".into(), "c".into()]),
            "((a,b),c);"
        );
    }
}
