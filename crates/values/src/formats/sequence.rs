//! Biological sequence alphabets, generation and classification.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// DNA alphabet.
pub const DNA_ALPHABET: &[u8] = b"ACGT";
/// RNA alphabet.
pub const RNA_ALPHABET: &[u8] = b"ACGU";
/// The twenty proteinogenic amino acids.
pub const PROTEIN_ALPHABET: &[u8] = b"ACDEFGHIKLMNPQRSTVWY";
/// IUPAC nucleotide ambiguity codes (excluding the concrete ACGT/U).
pub const AMBIGUITY_CODES: &[u8] = b"NRYSWKM";

/// The kind of a biological sequence, as recoverable from its residues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SequenceKind {
    Dna,
    Rna,
    Protein,
    /// A nucleotide-ish sequence containing IUPAC ambiguity codes — an
    /// instance of `BiologicalSequence` that realizes no leaf concept.
    Generic,
}

impl SequenceKind {
    /// Generates a sequence of `len` residues.
    ///
    /// `Generic` sequences mix DNA residues with ambiguity codes so that they
    /// are *not* classifiable as plain DNA/RNA/protein: they realize the
    /// `BiologicalSequence` concept itself.
    pub fn generate<R: Rng + ?Sized>(self, rng: &mut R, len: usize) -> String {
        assert!(len > 0, "sequences must be non-empty");
        match self {
            SequenceKind::Dna => random_from(rng, DNA_ALPHABET, len),
            SequenceKind::Rna => random_from(rng, RNA_ALPHABET, len),
            SequenceKind::Protein => {
                // Ensure at least one residue outside the nucleotide alphabet
                // so the classifier can never mistake it for DNA/RNA.
                let mut s = random_from(rng, PROTEIN_ALPHABET, len);
                if classify(&s) != Some(SequenceKind::Protein) {
                    let pos = rng.gen_range(0..len);
                    // Amino acids that are neither nucleotides nor IUPAC
                    // ambiguity codes, so the classifier cannot confuse the
                    // result with a nucleotide-ish sequence.
                    let replacement = *b"DEFHILPQV"
                        .get(rng.gen_range(0..9))
                        .expect("non-empty set");
                    set_residue(&mut s, pos, replacement);
                }
                s
            }
            SequenceKind::Generic => {
                let mut s = random_from(rng, DNA_ALPHABET, len);
                // Sprinkle ambiguity codes over ~10% of positions (at least one).
                let n = (len / 10).max(1);
                for _ in 0..n {
                    let pos = rng.gen_range(0..len);
                    let code = AMBIGUITY_CODES[rng.gen_range(0..AMBIGUITY_CODES.len())];
                    set_residue(&mut s, pos, code);
                }
                s
            }
        }
    }
}

/// Classifies residues into the most specific [`SequenceKind`], or `None` if
/// the text is not a biological sequence at all.
///
/// Priority: a sequence over `{A,C,G,T}` is DNA; over `{A,C,G,U}` RNA; over
/// the amino-acid alphabet protein; nucleotide + ambiguity codes is
/// `Generic`. Empty or foreign-character strings are rejected.
pub fn classify(seq: &str) -> Option<SequenceKind> {
    if seq.is_empty() {
        return None;
    }
    let bytes = seq.as_bytes();
    let all_in = |set: &[u8]| bytes.iter().all(|b| set.contains(b));
    if all_in(DNA_ALPHABET) {
        Some(SequenceKind::Dna)
    } else if all_in(RNA_ALPHABET) {
        Some(SequenceKind::Rna)
    } else if bytes.iter().all(|b| {
        DNA_ALPHABET.contains(b) || RNA_ALPHABET.contains(b) || AMBIGUITY_CODES.contains(b)
    }) {
        // Nucleotide residues plus IUPAC ambiguity codes. Checked *before*
        // protein because every ambiguity code doubles as an amino-acid
        // letter; the protein generator guarantees at least one residue
        // outside this union, so real proteins never land here.
        Some(SequenceKind::Generic)
    } else if all_in(PROTEIN_ALPHABET) {
        Some(SequenceKind::Protein)
    } else {
        None
    }
}

/// Reverse-complements a DNA sequence. Non-ACGT characters map to `N`.
pub fn reverse_complement(dna: &str) -> String {
    dna.bytes()
        .rev()
        .map(|b| match b {
            b'A' => 'T',
            b'T' => 'A',
            b'C' => 'G',
            b'G' => 'C',
            _ => 'N',
        })
        .collect()
}

/// Transcribes DNA to RNA (T → U).
pub fn transcribe(dna: &str) -> String {
    dna.replace('T', "U")
}

/// Fraction of G/C residues, `0.0` for an empty sequence.
pub fn gc_content(seq: &str) -> f64 {
    if seq.is_empty() {
        return 0.0;
    }
    let gc = seq.bytes().filter(|&b| b == b'G' || b == b'C').count();
    gc as f64 / seq.len() as f64
}

/// Translates DNA to protein with a fixed, simplified codon table
/// (deterministic, reading frame 0, stops dropped).
pub fn translate(dna: &str) -> String {
    dna.as_bytes()
        .chunks_exact(3)
        .filter_map(codon_to_aa)
        .collect()
}

fn codon_to_aa(codon: &[u8]) -> Option<char> {
    // A compact, deterministic mapping: hash the codon into the amino-acid
    // alphabet. Not the real genetic code, but total, fixed, and sufficient
    // for black-box behavior characterization.
    let idx = codon
        .iter()
        .fold(0usize, |acc, &b| acc * 5 + (b % 5) as usize);
    let table = PROTEIN_ALPHABET;
    match idx % 21 {
        20 => None, // simulated stop codon
        i => Some(table[i] as char),
    }
}

fn random_from<R: Rng + ?Sized>(rng: &mut R, alphabet: &[u8], len: usize) -> String {
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
        .collect()
}

/// Overwrites the residue at byte `pos` of an ASCII sequence with the
/// ASCII `residue`.
fn set_residue(s: &mut String, pos: usize, residue: u8) {
    s.replace_range(pos..=pos, char::from(residue).encode_utf8(&mut [0; 4]));
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generated_sequences_classify_as_their_kind() {
        let mut rng = StdRng::seed_from_u64(3);
        for kind in [
            SequenceKind::Dna,
            SequenceKind::Rna,
            SequenceKind::Protein,
            SequenceKind::Generic,
        ] {
            for len in [1usize, 5, 60, 300] {
                let s = kind.generate(&mut rng, len);
                assert_eq!(s.len(), len);
                let got = classify(&s).unwrap_or_else(|| panic!("unclassifiable {s}"));
                // DNA/RNA can collide on tiny alphabet subsets (e.g. "ACCA"
                // is valid for both and classified DNA-first); protein can
                // only be ambiguous at very short lengths which generate()
                // patches, so demand exactness except RNA→DNA at A/C/G-only.
                match kind {
                    SequenceKind::Rna => {
                        assert!(matches!(got, SequenceKind::Rna | SequenceKind::Dna))
                    }
                    other => assert_eq!(got, other, "sequence {s}"),
                }
            }
        }
    }

    #[test]
    fn classify_rejects_non_sequences() {
        assert_eq!(classify(""), None);
        assert_eq!(classify("hello world"), None);
        assert_eq!(classify("ACGT-1"), None);
    }

    #[test]
    fn classify_known_strings() {
        assert_eq!(classify("ACGTACGT"), Some(SequenceKind::Dna));
        assert_eq!(classify("ACGUACGU"), Some(SequenceKind::Rna));
        assert_eq!(classify("MKVLAT"), Some(SequenceKind::Protein));
        // All-letters-shared-with-ambiguity-codes strings are Generic by the
        // documented precedence.
        assert_eq!(classify("NKWS"), Some(SequenceKind::Generic));
        assert_eq!(classify("ACGTN"), Some(SequenceKind::Generic));
    }

    #[test]
    fn reverse_complement_involution() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let s = SequenceKind::Dna.generate(&mut rng, 50);
            assert_eq!(reverse_complement(&reverse_complement(&s)), s);
        }
    }

    #[test]
    fn transcription_produces_rna() {
        let rna = transcribe("ACGTTT");
        assert_eq!(rna, "ACGUUU");
        assert_eq!(classify(&rna), Some(SequenceKind::Rna));
    }

    #[test]
    fn gc_content_bounds() {
        assert_eq!(gc_content(""), 0.0);
        assert_eq!(gc_content("GGCC"), 1.0);
        assert_eq!(gc_content("AATT"), 0.0);
        assert!((gc_content("ACGT") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn translate_is_deterministic_and_shrinks_by_three() {
        let p1 = translate("ACGTGACGTACG");
        let p2 = translate("ACGTGACGTACG");
        assert_eq!(p1, p2);
        assert!(p1.len() <= 4);
        assert!(p1.bytes().all(|b| PROTEIN_ALPHABET.contains(&b)));
    }
}
