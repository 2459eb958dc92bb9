//! A myGrid-like life-science domain ontology.
//!
//! The paper annotates its 252 modules with the myGrid ontology (Figure 4
//! shows the `BiologicalSequence` fragment). The original OWL ontology is not
//! redistributable here, so this module ships a faithful reconstruction of
//! the fragments the paper exercises: sequences, database accessions,
//! database records, analysis reports, documents, configuration parameters
//! and mass-spectrometry data.
//!
//! The ontology is defined in the crate's own [text format](crate::text) and
//! parsed at construction time, which doubles as an integration test of the
//! parser.

use crate::ontology::Ontology;
use crate::text;

/// The text-format source of the ontology. Public so tools can display it.
pub const MYGRID_TEXT: &str = "\
ontology mygrid
BioinformaticsData: root of all annotated life-science data
  BiologicalSequence: a sequence of residues
    NucleotideSequence [abstract]: nucleic-acid sequences, covered by DNA and RNA
      DNASequence: deoxyribonucleic acid sequence
      RNASequence: ribonucleic acid sequence
    ProteinSequence: amino-acid sequence
  Identifier: a symbolic name for a biological entity
    DatabaseAccession: an accession in some molecular database
      UniprotAccession: Uniprot protein accession, e.g. P12345
      PDBAccession: Protein Data Bank accession
      EMBLAccession: EMBL nucleotide accession
      GenBankAccession: GenBank nucleotide accession
      KEGGAccession [abstract]: KEGG identifiers, covered by the entry kinds
        KEGGGeneId: KEGG gene identifier
        KEGGPathwayId: KEGG pathway identifier
        KEGGCompoundId: KEGG compound identifier
        KEGGEnzymeId: KEGG enzyme identifier
      GlycanAccession: KEGG glycan accession
      LigandAccession: ligand database accession
    OntologyTerm: a term from a bio-ontology
      GOTerm: Gene Ontology term
      ECNumber: enzyme commission number
    GeneIdentifier: identifier of a gene
      EntrezGeneId: NCBI Entrez gene id
      EnsemblGeneId: Ensembl gene id
      GeneSymbol: HGNC-style gene symbol
  BiologicalRecord [abstract]: structured database entries
    SequenceRecord: a record describing a sequence
      UniprotRecord: Uniprot flat-file protein record
      FastaRecord: FASTA-formatted sequence record
      GenBankRecord: GenBank flat-file record
      EMBLRecord: EMBL flat-file record
      PDBRecord: PDB structure record
    PathwayRecord: a pathway database entry
    EnzymeRecord: an enzyme database entry
    CompoundRecord: a small-molecule entry
    GlycanRecord: KEGG glycan entry
    LigandRecord: ligand database entry
    GeneRecord: a gene database entry
  Report: the output of an analysis
    AlignmentReport: result of a sequence alignment search
      BlastReport: BLAST alignment report
      FastaAlignmentReport: FASTA-program alignment report
    IdentificationReport: protein/peptide identification result
    PhylogeneticTree: result of a phylogenetic analysis
    AnnotationReport: functional annotation summary
  Document: natural-language content
    LiteratureAbstract: abstract of a publication
    FullTextArticle: full text of a publication
  AnnotationData: derived semantic annotations
    PathwayConcept: pathway concept extracted from text
    FunctionalCategory: coarse functional category
    KeywordSet: curated keyword list
    CrossReferenceSet: cross-references to other databases
  Setting [abstract]: configuration values supplied to modules
    ErrorTolerance: identification error tolerance (percentage)
    AlgorithmName: name of an algorithm to apply
    DatabaseName: name of a target database
    ScoreThreshold: numeric score cut-off
    EValueCutoff: alignment e-value cut-off
  MeasurementData: raw experimental measurements
    PeptideMassList: peptide masses from mass-spectrometric analysis
    MassSpectrum: a raw mass spectrum
    ExpressionProfile: gene-expression measurements
";

/// Builds the myGrid-like ontology.
///
/// # Panics
/// Never panics in practice: the embedded text is validated by this crate's
/// tests; a parse failure here would be a build defect of the library itself.
pub fn ontology() -> Ontology {
    text::parse(MYGRID_TEXT).expect("embedded myGrid ontology must parse")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ontology_parses_and_has_expected_size() {
        let o = ontology();
        assert_eq!(o.name(), "mygrid");
        assert_eq!(o.len(), 64);
        assert_eq!(o.roots().count(), 1);
    }

    #[test]
    fn figure4_fragment_matches_paper() {
        // The paper's Figure 4 / Example 3: partitioning BiologicalSequence
        // yields BiologicalSequence, NucleotideSequence, RNASequence,
        // DNASequence, ProteinSequence — except that our NucleotideSequence is
        // abstract (DNA + RNA cover it), so it contributes no partition.
        let o = ontology();
        let bio = o.id("BiologicalSequence").unwrap();
        let parts: Vec<&str> = o
            .partitions_of(bio)
            .iter()
            .map(|&c| o.concept_name(c))
            .collect();
        assert_eq!(
            parts,
            vec![
                "BiologicalSequence",
                "DNASequence",
                "RNASequence",
                "ProteinSequence"
            ]
        );
    }

    #[test]
    fn abstract_concepts_are_exactly_the_marked_ones() {
        let o = ontology();
        let abstracts: Vec<&str> = o
            .iter()
            .filter(|&c| !o.can_be_realized(c))
            .map(|c| o.concept_name(c))
            .collect();
        assert_eq!(
            abstracts,
            vec![
                "NucleotideSequence",
                "KEGGAccession",
                "BiologicalRecord",
                "Setting"
            ]
        );
    }

    #[test]
    fn kegg_ids_partition_under_database_accession() {
        let o = ontology();
        let acc = o.id("DatabaseAccession").unwrap();
        let parts = o.partitions_of(acc);
        // 1 (itself) + 4 concrete accessions + 4 KEGG kinds + glycan + ligand.
        assert_eq!(parts.len(), 11);
    }
}
