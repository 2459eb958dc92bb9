//! Synthetic pool construction: one curator-in-a-box.

use crate::instance::AnnotatedInstance;
use crate::pool::InstancePool;
use dex_ontology::Ontology;
use dex_values::synth;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a pool holding `per_concept` synthetic realizations of every
/// realizable concept of `ontology` that the synthesizer supports.
///
/// Deterministic in `seed`. Concepts are visited in ontology insertion
/// order; unsupported concepts (none, for the shipped myGrid-like ontology)
/// are skipped silently — callers can detect gaps via
/// [`InstancePool::covered_concepts`].
pub fn build_synthetic_pool(ontology: &Ontology, per_concept: usize, seed: u64) -> InstancePool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = InstancePool::new(format!("synthetic-{seed}"));
    for concept in ontology.iter() {
        if !ontology.can_be_realized(concept) {
            continue;
        }
        let name = ontology.concept_name(concept);
        for _ in 0..per_concept {
            if let Some(value) = synth::synthesize(name, &mut rng) {
                pool.add(AnnotatedInstance::synthetic(value, name));
            }
        }
    }
    pool
}

/// The canonical text of the `k`-th pool instance of `concept` under `seed`,
/// as produced by [`build_text_pool`]: `ec:{concept}:{k:04}:{salt:08x}`.
///
/// The concept name sits between fixed `:` delimiters, so a value's
/// partition is recoverable from its text alone — the contract the scaled
/// universe's overlapping-module cores key their divergence on
/// (`dex_universe::scale`), pinned by that crate's tests.
pub fn text_instance(concept: &str, k: usize, seed: u64) -> dex_values::Value {
    // FNV-1a over (concept, k, seed): cheap, stable, dependency-free.
    let mut salt = 0xcbf2_9ce4_8422_2325u64;
    for byte in concept
        .bytes()
        .chain(k.to_le_bytes())
        .chain(seed.to_le_bytes())
    {
        salt ^= u64::from(byte);
        salt = salt.wrapping_mul(0x1000_0000_01b3);
    }
    // The text is assembled in a stack buffer (a heap one for a name too
    // long for it) and copied once into the allocation the value keeps.
    let k_digits = k.checked_ilog10().map_or(1, |d| d as usize + 1).max(4);
    let k_at = 3 + concept.len() + 1;
    let salt_at = k_at + k_digits + 1;
    let len = salt_at + 8;
    let mut stack = [0u8; 64];
    let mut heap = Vec::new();
    let text = if len <= stack.len() {
        &mut stack[..len]
    } else {
        heap.resize(len, 0);
        &mut heap[..]
    };
    text[..3].copy_from_slice(b"ec:");
    text[3..k_at - 1].copy_from_slice(concept.as_bytes());
    text[k_at - 1] = b':';
    write_digits(&mut text[k_at..salt_at - 1], k as u64, 10);
    text[salt_at - 1] = b':';
    write_digits(&mut text[salt_at..], u64::from(salt as u32), 16);
    dex_values::Value::text(std::str::from_utf8(text).expect("ASCII around a UTF-8 concept name"))
}

/// Writes `n` into `out` in lower-case `radix` digits, right-aligned and
/// zero-padded to the slice's length.
fn write_digits(out: &mut [u8], mut n: u64, radix: u64) {
    for digit in out.iter_mut().rev() {
        *digit = b"0123456789abcdef"[(n % radix) as usize];
        n /= radix;
    }
}

/// Builds a pool holding `per_concept` deterministic *text* realizations of
/// every realizable concept of `ontology` — no synthesizer involved, so it
/// works for ontologies whose concepts the hard-coded myGrid synthesizer
/// has never heard of (the scaled EDAM-shaped ontologies of
/// `dex_universe::scale`, where `build_synthetic_pool` would silently skip
/// every concept and yield an empty pool).
///
/// Deterministic in `seed`; concepts are visited in ontology insertion
/// order and every realizable concept is covered by construction.
pub fn build_text_pool(ontology: &Ontology, per_concept: usize, seed: u64) -> InstancePool {
    let realizable = || ontology.iter().filter(|&c| ontology.can_be_realized(c));
    let mut pool =
        InstancePool::with_capacity(format!("text-{seed}"), realizable().count() * per_concept);
    for concept in realizable() {
        let name = ontology.concept_name(concept);
        for k in 0..per_concept {
            pool.add(AnnotatedInstance::synthetic(
                text_instance(name, k, seed),
                name,
            ));
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_ontology::mygrid;
    use dex_values::StructuralType;

    #[test]
    fn pool_covers_every_realizable_concept() {
        let onto = mygrid::ontology();
        let pool = build_synthetic_pool(&onto, 3, 1);
        let realizable = onto.iter().filter(|&c| onto.can_be_realized(c)).count();
        assert_eq!(pool.covered_concepts().len(), realizable);
        assert_eq!(pool.len(), realizable * 3);
    }

    #[test]
    fn pool_is_deterministic() {
        let onto = mygrid::ontology();
        let a = build_synthetic_pool(&onto, 2, 42);
        let b = build_synthetic_pool(&onto, 2, 42);
        let va: Vec<_> = a.iter().map(|i| i.value.clone()).collect();
        let vb: Vec<_> = b.iter().map(|i| i.value.clone()).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let onto = mygrid::ontology();
        let a = build_synthetic_pool(&onto, 2, 1);
        let b = build_synthetic_pool(&onto, 2, 2);
        let va: Vec<_> = a.iter().map(|i| i.value.clone()).collect();
        let vb: Vec<_> = b.iter().map(|i| i.value.clone()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn text_pool_covers_every_realizable_concept_of_any_ontology() {
        let mut builder = Ontology::builder("alien");
        builder.root("Thing").unwrap();
        builder.abstract_child("Abstract", "Thing").unwrap();
        builder.child("ConcreteA", "Abstract").unwrap();
        builder.child("ConcreteB", "Abstract").unwrap();
        let onto = builder.build().unwrap();
        // The synthesizer knows none of these names…
        assert_eq!(build_synthetic_pool(&onto, 2, 1).len(), 0);
        // …but the text pool covers all three realizable concepts.
        let pool = build_text_pool(&onto, 2, 1);
        assert_eq!(pool.len(), 6);
        for concept in ["Thing", "ConcreteA", "ConcreteB"] {
            let inst = pool
                .get_instance(concept, &StructuralType::Text, 0)
                .unwrap_or_else(|| panic!("no realization for {concept}"));
            let text = inst.value.as_text().unwrap();
            assert!(
                text.starts_with(&format!("ec:{concept}:")),
                "value text {text} must carry its partition tag"
            );
        }
        assert!(pool
            .get_instance("Abstract", &StructuralType::Text, 0)
            .is_none());
    }

    #[test]
    fn text_pool_is_deterministic_and_seed_sensitive() {
        let onto = mygrid::ontology();
        let a: Vec<_> = build_text_pool(&onto, 2, 9).iter().cloned().collect();
        let b: Vec<_> = build_text_pool(&onto, 2, 9).iter().cloned().collect();
        let c: Vec<_> = build_text_pool(&onto, 2, 10).iter().cloned().collect();
        assert_eq!(a, b);
        assert_ne!(
            a.iter().map(|i| i.value.clone()).collect::<Vec<_>>(),
            c.iter().map(|i| i.value.clone()).collect::<Vec<_>>()
        );
    }

    /// The exact texts every stored pool and golden holds: past the
    /// four-digit pad, at both sides of the 64-byte stack buffer, and for a
    /// name longer than it.
    #[test]
    fn text_instance_writes_the_pinned_texts() {
        let at_buffer = "x".repeat(47);
        let past_buffer = "y".repeat(48);
        let long = "Concept".repeat(20);
        let cases = [
            ("Thing", 0, 1, "ec:Thing:0000:01d5454e".to_string()),
            (
                "sc.f000012.b",
                3,
                42,
                "ec:sc.f000012.b:0003:47778d85".into(),
            ),
            (
                "UniprotAccession",
                10_000,
                7,
                "ec:UniprotAccession:10000:361fc70e".into(),
            ),
            ("", 123_456, 0, "ec::123456:f75aed76".into()),
            (&at_buffer, 9, 5, format!("ec:{at_buffer}:0009:7a2de993")),
            (
                &past_buffer,
                9,
                5,
                format!("ec:{past_buffer}:0009:ced391d9"),
            ),
            (&long, 12, 99, format!("ec:{long}:0012:0c80e36a")),
        ];
        for (concept, k, seed, text) in cases {
            assert_eq!(
                text_instance(concept, k, seed).as_text(),
                Some(text.as_str())
            );
        }
    }

    #[test]
    fn get_instance_works_for_key_concepts() {
        let onto = mygrid::ontology();
        let pool = build_synthetic_pool(&onto, 2, 7);
        for concept in ["UniprotAccession", "ProteinSequence", "PeptideMassList"] {
            let ty = dex_values::synth::structural_type_of(concept).unwrap();
            assert!(
                pool.get_instance(concept, &ty, 0).is_some(),
                "no realization for {concept}"
            );
        }
        // Abstract concepts have no realizations.
        assert!(pool
            .get_instance("NucleotideSequence", &StructuralType::Text, 0)
            .is_none());
    }
}
