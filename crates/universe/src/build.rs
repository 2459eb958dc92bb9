//! Construction of the simulated module universe.
//!
//! Builds the population the paper characterizes (§5, Table 3): 252 modern
//! modules across five categories of data manipulation, plus 72 legacy
//! modules whose behavior the case study (§6) tries to re-identify among the
//! modern population. Every module is a deterministic closure over the
//! simulated backend in [`crate::db`], so example generation and matching are
//! reproducible.

use crate::behavior::{BehaviorClass, BehaviorSpec, Pred};
use crate::category::Category;
use crate::db;
use dex_modules::{
    FnModule, InvocationError, ModuleCatalog, ModuleDescriptor, ModuleId, ModuleKind, Parameter,
};
use dex_ontology::{mygrid, Ontology};
use dex_values::formats::accession::AccessionKind;
use dex_values::formats::document;
use dex_values::formats::records::{EntryRecord, RecordFormat};
use dex_values::formats::sequence::{self, SequenceKind};
use dex_values::synth;
use dex_values::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The verdict the case-study ground truth expects for one legacy module.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExpectedMatch {
    /// A modern module with the same observable behavior exists.
    Equivalent(ModuleId),
    /// A modern module agreeing on part of the input space exists.
    Overlapping(ModuleId),
    /// No modern module shares behavior with the legacy module.
    None,
}

/// The full simulated world: catalog, ontology, and ground-truth metadata.
pub struct Universe {
    /// Every module, modern and legacy alike.
    pub catalog: ModuleCatalog,
    /// The myGrid-like annotation ontology.
    pub ontology: Ontology,
    /// Category of each modern module (Table 3).
    pub categories: BTreeMap<ModuleId, Category>,
    /// Ground-truth behavior spec of each modern module.
    pub specs: BTreeMap<ModuleId, BehaviorSpec>,
    /// Legacy module ids, sorted.
    pub legacy: Vec<ModuleId>,
    /// Ground-truth matching verdict for each legacy module.
    pub expected_match: BTreeMap<ModuleId, ExpectedMatch>,
    /// Modern modules most users recognize by interface alone.
    pub popular: BTreeSet<ModuleId>,
    /// Modern retrievals whose output databases most users cannot assess.
    pub unfamiliar_output: BTreeSet<ModuleId>,
    /// Modern modules whose output-space coverage is necessarily partial.
    pub partial_output: BTreeSet<ModuleId>,
}

impl Universe {
    /// Ids of the modern (non-legacy) modules still present in the catalog.
    pub fn available_ids(&self) -> Vec<ModuleId> {
        self.catalog
            .available_ids()
            .into_iter()
            .filter(|id| !self.is_legacy(id))
            .collect()
    }

    /// Whether `id` names a legacy module.
    pub fn is_legacy(&self, id: &ModuleId) -> bool {
        self.legacy.binary_search(id).is_ok()
    }

    /// Withdraws every legacy module, leaving only the modern population.
    pub fn decay(&mut self) {
        for id in &self.legacy {
            self.catalog.withdraw(id);
        }
    }
}

/// Whether a legacy module's behavior diverges from its modern counterpart on
/// the input identified by `key` (the half of the input space where an
/// Overlapping pair disagrees).
pub fn legacy_divergent(key: &str) -> bool {
    db::seed_for(&[key]) % 2 == 1
}

// --------------------------------------------------------------------------
// Deterministic value builders shared by modern modules and their legacy
// twins. A `Core` maps one text input to one output value; modules whose
// behavior must coincide share a core constructed with identical arguments.
// --------------------------------------------------------------------------

type Core = Arc<dyn Fn(&str) -> Value + Send + Sync>;
type KeyFn = Arc<dyn Fn(&str) -> Option<String> + Send + Sync>;

/// Salt reserved for legacy-only derivations; no modern module uses it.
const LEGACY_SALT: u64 = 0xA5C1;

fn rng_local(parts: &[&str], salt: u64) -> StdRng {
    StdRng::seed_from_u64(db::seed_for(parts) ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn text_core(f: impl Fn(&str) -> String + Send + Sync + 'static) -> Core {
    Arc::new(move |s| Value::text(f(s)))
}

const KEYWORD_VOCAB: &[&str] = &[
    "binding",
    "transport",
    "catalysis",
    "signaling",
    "membrane",
    "nuclear",
    "repair",
    "folding",
];

fn keywords_for(key: &str, salt: u64) -> String {
    let mut rng = rng_local(&["keywords", key], salt);
    let n = rng.gen_range(2..4usize);
    let mut picked: Vec<&str> = Vec::new();
    while picked.len() < n {
        let w = KEYWORD_VOCAB[rng.gen_range(0..KEYWORD_VOCAB.len())];
        if !picked.contains(&w) {
            picked.push(w);
        }
    }
    format!("keywords:{}", picked.join(","))
}

fn xrefs_for(key: &str, salt: u64) -> String {
    let mut rng = rng_local(&["xrefs", key], salt);
    let a = AccessionKind::Uniprot.generate(&mut rng);
    let b = AccessionKind::Uniprot.generate(&mut rng);
    format!("xrefs:{a}|{b}")
}

fn abstract_for(key: &str, salt: u64) -> String {
    let mut rng = rng_local(&["abstract", key], salt);
    let n = rng.gen_range(1..4usize);
    let mut concepts: Vec<&str> = Vec::new();
    while concepts.len() < n {
        let c = document::PATHWAY_CONCEPTS[rng.gen_range(0..document::PATHWAY_CONCEPTS.len())];
        if !concepts.contains(&c) {
            concepts.push(c);
        }
    }
    document::generate_abstract(&mut rng, &concepts)
}

/// Entrez gene id for `key`; padded so the id never collides with the
/// four-character PDB accession shape.
fn entrez_for(key: &str, salt: u64) -> String {
    let mut v = db::map_accession(AccessionKind::Entrez, key, salt);
    while v.len() < 5 {
        v.insert(0, '1');
    }
    v
}

fn digest_masses(seq: &str, salt: u64) -> Vec<Value> {
    let mut rng = rng_local(&["digest", seq], salt);
    let n = rng.gen_range(6..=12usize);
    (0..n)
        .map(|_| Value::Float((rng.gen_range(500.0..3000.0f64) * 10.0).round() / 10.0))
        .collect()
}

fn seq_stats_text(seq: &str) -> String {
    format!(
        "REPORT seq-stats\nSTATUS ok\nPAYLOAD length={} gc={:.2}\n",
        seq.len(),
        sequence::gc_content(seq)
    )
}

fn record_core(dbname: &'static str, format: RecordFormat) -> Core {
    text_core(move |acc| db::record_for(dbname, acc, format))
}

fn kegg_core(kind: &'static str) -> Core {
    text_core(move |acc| db::kegg_entry_for(kind, acc))
}

fn seq_core(dbname: &'static str, kind: SequenceKind) -> Core {
    text_core(move |acc| db::seq_entry_for(dbname, acc, kind).sequence)
}

fn map_core(target: AccessionKind, salt: u64) -> Core {
    text_core(move |s| db::map_accession(target, s, salt))
}

fn entrez_core(salt: u64) -> Core {
    text_core(move |s| entrez_for(s, salt))
}

fn go_core(salt: u64) -> Core {
    text_core(move |s| db::go_term_for(s, salt))
}

fn annotate_core(salt: u64) -> Core {
    text_core(move |s| db::annotation_for(s, salt))
}

fn abstract_core(salt: u64) -> Core {
    text_core(move |s| abstract_for(s, salt))
}

fn tree_core(salt: u64) -> Core {
    text_core(move |s| db::tree_for(s, salt))
}

fn homology_core(dbname: &'static str, program: &'static str, salt: u64) -> Core {
    text_core(move |s| db::homology_report(dbname, program, s, salt))
}

fn keywords_core(salt: u64) -> Core {
    text_core(move |s| keywords_for(s, salt))
}

fn xrefs_core(salt: u64) -> Core {
    text_core(move |s| xrefs_for(s, salt))
}

fn echo_core() -> Core {
    Arc::new(|s| Value::text(s))
}

/// Parses `from` (or any known record shape) and re-renders as `to`.
fn conv_core(from: RecordFormat, to: RecordFormat) -> Core {
    text_core(
        move |text| match from.parse(text).ok().or_else(|| db::parse_any_record(text)) {
            Some(e) => to.render(&e),
            None => text.to_string(),
        },
    )
}

fn acc_core(format: RecordFormat) -> Core {
    text_core(move |text| {
        match format
            .parse(text)
            .ok()
            .or_else(|| db::parse_any_record(text))
        {
            Some(e) => e.accession,
            None => text.to_string(),
        }
    })
}

fn entry_acc_core() -> Core {
    text_core(|text| match EntryRecord::parse(text) {
        Ok(e) => e.accession,
        Err(_) => text.to_string(),
    })
}

fn generic_core() -> Core {
    text_core(|text| match db::parse_any_record(text) {
        Some(e) => db::render_generic_record(&e),
        None => text.to_string(),
    })
}

fn to_fasta_core() -> Core {
    text_core(|text| match db::parse_any_record(text) {
        Some(e) => RecordFormat::Fasta.render(&e),
        None => text.to_string(),
    })
}

/// Re-renders any record as FASTA under a canonical (EBI-style) accession,
/// so outputs share one shape regardless of the source format.
fn canonical_fasta_core(salt: u64) -> Core {
    text_core(move |text| match db::parse_any_record(text) {
        Some(mut e) => {
            e.accession = db::map_accession(AccessionKind::Uniprot, &e.accession, salt);
            RecordFormat::Fasta.render(&e)
        }
        None => text.to_string(),
    })
}

fn revcomp_core() -> Core {
    text_core(sequence::reverse_complement)
}

fn gc_core() -> Core {
    Arc::new(|s| Value::Float(sequence::gc_content(s)))
}

fn stats_core() -> Core {
    text_core(seq_stats_text)
}

fn digest_core(salt: u64) -> Core {
    Arc::new(move |s| Value::List(digest_masses(s, salt)))
}

fn first_concept_core() -> Core {
    text_core(|text| {
        document::extract_concepts(text)
            .into_iter()
            .next()
            .unwrap_or_else(|| "glycolysis".to_string())
    })
}

fn pick_core(list: &'static [&'static str], tag: &'static str, salt: u64) -> Core {
    text_core(move |s| {
        list[((db::seed_for(&[tag, s]) ^ salt) % list.len() as u64) as usize].to_string()
    })
}

/// Phylogeny keyed on the sequence inside a FASTA record.
fn tree_of_fasta_core(salt: u64) -> Core {
    text_core(move |text| {
        let key = RecordFormat::Fasta
            .parse(text)
            .map(|e| e.sequence)
            .unwrap_or_else(|_| text.to_string());
        db::tree_for(&key, salt)
    })
}

/// `dr:get_biological_sequence`: protein databases get protein sequences,
/// everything else is served as DNA.
fn bioseq_core() -> Core {
    text_core(|acc| {
        let kind = if AccessionKind::Uniprot.is_valid(acc) || AccessionKind::Pdb.is_valid(acc) {
            SequenceKind::Protein
        } else {
            SequenceKind::Dna
        };
        db::seq_entry_for("seqdb", acc, kind).sequence
    })
}

// --------------------------------------------------------------------------
// Legacy-divergence combinators.
// --------------------------------------------------------------------------

fn raw_key() -> KeyFn {
    Arc::new(|s| Some(s.to_string()))
}

fn fmt_acc_key(format: RecordFormat) -> KeyFn {
    Arc::new(move |s| format.parse(s).ok().map(|e| e.accession))
}

fn fasta_seq_key() -> KeyFn {
    Arc::new(|s| RecordFormat::Fasta.parse(s).ok().map(|e| e.sequence))
}

/// Overlapping-legacy body: agrees with `agree` except where the divergence
/// key says the archived implementation drifted.
fn overlap_core(agree: Core, key: KeyFn, divergent: Core) -> Core {
    Arc::new(move |s| match key(s) {
        Some(k) if legacy_divergent(&k) => divergent(s),
        _ => agree(s),
    })
}

/// Forces `alt` to differ from `agree` on every input (divergent halves must
/// never accidentally coincide with the modern output).
fn distinct_from(agree: Core, alt: Core) -> Core {
    Arc::new(move |s| {
        let a = agree(s);
        let d = alt(s);
        if d != a {
            return d;
        }
        match d {
            Value::Text(t) => Value::text(format!("{t}#archival")),
            Value::Float(f) => Value::Float(f + 1.0),
            Value::List(mut l) => {
                l.push(Value::Float(0.0));
                Value::List(l)
            }
            other => other,
        }
    })
}

/// Divergent retrieval: same backend record with an archival description.
fn archival_record_core(dbname: &'static str, format: RecordFormat) -> Core {
    text_core(move |acc| {
        let text = db::record_for(dbname, acc, format);
        match format.parse(&text) {
            Ok(mut e) => {
                e.description.push_str(" (archival copy)");
                format.render(&e)
            }
            Err(_) => format!("{text}#archival"),
        }
    })
}

/// Divergent conversion: parse, tweak the description, re-render.
fn archival_conv_core(from: RecordFormat, to: RecordFormat) -> Core {
    text_core(
        move |text| match from.parse(text).ok().or_else(|| db::parse_any_record(text)) {
            Some(mut e) => {
                e.description.push_str(" (archival copy)");
                to.render(&e)
            }
            None => format!("{text}#archival"),
        },
    )
}

// --------------------------------------------------------------------------
// Behavior-spec builders for the multi-class module families.
// --------------------------------------------------------------------------

fn two_class(task: &str, special: &str, guard: Pred, general: &str) -> BehaviorSpec {
    BehaviorSpec::new(
        task,
        vec![
            BehaviorClass::new(special, guard),
            BehaviorClass::new(general, Pred::Always),
        ],
    )
}

fn recode_spec() -> BehaviorSpec {
    two_class(
        "recode biological sequence",
        "transcribe nucleotide sequence",
        Pred::SeqKindIn(0, vec![SequenceKind::Dna, SequenceKind::Rna]),
        "recode protein sequence",
    )
}

fn resolve_gene_spec() -> BehaviorSpec {
    two_class(
        "resolve gene identifier",
        "resolve curated gene id",
        Pred::AnyOf(vec![
            Pred::TextPrefixed(0, "gene-".into()),
            Pred::ConceptIs(0, "EnsemblGeneId".into()),
        ]),
        "resolve aliased gene id",
    )
}

fn identifier_family_spec() -> BehaviorSpec {
    let family = |name: &str, concept: &str| {
        BehaviorClass::new(name.to_string(), Pred::ConceptIs(0, concept.into()))
    };
    BehaviorSpec::new(
        "normalize identifier to entrez gene id",
        vec![
            family("normalize uniprot accession", "UniprotAccession"),
            family("normalize pdb accession", "PDBAccession"),
            family("normalize embl accession", "EMBLAccession"),
            family("normalize genbank accession", "GenBankAccession"),
            family("normalize go term", "GOTerm"),
            family("normalize ec number", "ECNumber"),
            family("normalize entrez gene id", "EntrezGeneId"),
            family("normalize ensembl gene id", "EnsemblGeneId"),
            BehaviorClass::new("normalize any other identifier", Pred::Always),
        ],
    )
}

fn align_seq_spec() -> BehaviorSpec {
    two_class(
        "align biological sequence",
        "align nucleotide query",
        Pred::SeqKindIn(0, vec![SequenceKind::Dna, SequenceKind::Rna]),
        "align protein query",
    )
}

fn annotate_term_spec() -> BehaviorSpec {
    BehaviorSpec::new(
        "annotate ontology term",
        vec![
            BehaviorClass::new(
                "annotate generic term with free text",
                Pred::All(vec![
                    Pred::TextPrefixed(0, "TERM:".into()),
                    Pred::TextPrefixed(1, "annotation:".into()),
                ]),
            ),
            BehaviorClass::new(
                "annotate generic term with pathway concept",
                Pred::All(vec![
                    Pred::TextPrefixed(0, "TERM:".into()),
                    Pred::ConceptIs(1, "PathwayConcept".into()),
                ]),
            ),
            BehaviorClass::new(
                "annotate go term with category",
                Pred::All(vec![
                    Pred::ConceptIs(0, "GOTerm".into()),
                    Pred::ConceptIs(1, "FunctionalCategory".into()),
                ]),
            ),
            BehaviorClass::new(
                "annotate go term with keywords",
                Pred::All(vec![
                    Pred::ConceptIs(0, "GOTerm".into()),
                    Pred::TextPrefixed(1, "keywords:".into()),
                ]),
            ),
            BehaviorClass::new(
                "annotate ec number with cross references",
                Pred::All(vec![
                    Pred::ConceptIs(0, "ECNumber".into()),
                    Pred::TextPrefixed(1, "xrefs:".into()),
                ]),
            ),
            BehaviorClass::new(
                "annotate ec number with free text",
                Pred::All(vec![
                    Pred::ConceptIs(0, "ECNumber".into()),
                    Pred::TextPrefixed(1, "annotation:".into()),
                ]),
            ),
            BehaviorClass::new("annotate remaining term", Pred::Always),
        ],
    )
}

fn filter_annotation_spec() -> BehaviorSpec {
    two_class(
        "filter annotation data",
        "forward structured annotation",
        Pred::AnyOf(vec![
            Pred::TextPrefixed(0, "annotation:".into()),
            Pred::ConceptIs(0, "PathwayConcept".into()),
            Pred::ConceptIs(0, "FunctionalCategory".into()),
        ]),
        "summarize free annotation",
    )
}

fn analyze_record_spec() -> BehaviorSpec {
    BehaviorSpec::new(
        "analyze sequence record",
        vec![
            BehaviorClass::new(
                "analyze curated record",
                Pred::AnyOf(vec![
                    Pred::GenericSeqRecord(0),
                    Pred::ConceptIs(0, "UniprotRecord".into()),
                ]),
            ),
            BehaviorClass::new(
                "analyze sequence-file record",
                Pred::AnyOf(vec![
                    Pred::ConceptIs(0, "FastaRecord".into()),
                    Pred::ConceptIs(0, "GenBankRecord".into()),
                ]),
            ),
            BehaviorClass::new("analyze empty record", Pred::TextEmpty(0)),
            BehaviorClass::new("analyze other record", Pred::Always),
        ],
    )
}

fn profile_annotation_spec() -> BehaviorSpec {
    BehaviorSpec::new(
        "profile annotation data",
        vec![
            BehaviorClass::new(
                "profile free-text annotation",
                Pred::TextPrefixed(0, "annotation:".into()),
            ),
            BehaviorClass::new(
                "profile pathway annotation",
                Pred::ConceptIs(0, "PathwayConcept".into()),
            ),
            BehaviorClass::new(
                "profile category annotation",
                Pred::ConceptIs(0, "FunctionalCategory".into()),
            ),
            BehaviorClass::new(
                "profile keyword annotation",
                Pred::TextPrefixed(0, "keywords:".into()),
            ),
            BehaviorClass::new("profile empty annotation", Pred::TextEmpty(0)),
            BehaviorClass::new(
                "profile oversized annotation",
                Pred::TextLongerThan(0, 9999),
            ),
            BehaviorClass::new(
                "profile degenerate annotation",
                Pred::All(vec![Pred::TextEmpty(0), Pred::TextLongerThan(0, 9999)]),
            ),
            BehaviorClass::new("profile cross-reference annotation", Pred::Always),
        ],
    )
}

fn normalize_record_spec() -> BehaviorSpec {
    BehaviorSpec::new(
        "normalize sequence record",
        vec![
            BehaviorClass::new(
                "normalize curated record",
                Pred::AnyOf(vec![
                    Pred::GenericSeqRecord(0),
                    Pred::ConceptIs(0, "UniprotRecord".into()),
                ]),
            ),
            BehaviorClass::new(
                "normalize sequence-file record",
                Pred::AnyOf(vec![
                    Pred::ConceptIs(0, "FastaRecord".into()),
                    Pred::ConceptIs(0, "GenBankRecord".into()),
                ]),
            ),
            BehaviorClass::new("normalize empty record", Pred::TextEmpty(0)),
            BehaviorClass::new("normalize oversized record", Pred::TextLongerThan(0, 9999)),
            BehaviorClass::new("normalize other record", Pred::Always),
        ],
    )
}

fn filter_term_spec() -> BehaviorSpec {
    BehaviorSpec::new(
        "filter ontology terms",
        vec![
            BehaviorClass::new(
                "forward generic term",
                Pred::TextPrefixed(0, "TERM:".into()),
            ),
            BehaviorClass::new("forward go term", Pred::ConceptIs(0, "GOTerm".into())),
            BehaviorClass::new("drop empty term", Pred::TextEmpty(0)),
            BehaviorClass::new("drop oversized term", Pred::TextLongerThan(0, 9999)),
            BehaviorClass::new(
                "drop degenerate term",
                Pred::All(vec![Pred::TextEmpty(0), Pred::TextLongerThan(0, 9999)]),
            ),
            BehaviorClass::new("forward remaining term", Pred::Always),
        ],
    )
}

// --------------------------------------------------------------------------
// Registrar.
// --------------------------------------------------------------------------

fn kind_for(i: usize) -> ModuleKind {
    match i % 9 {
        0..=4 => ModuleKind::SoapService,
        5 | 6 => ModuleKind::RestService,
        _ => ModuleKind::LocalProgram,
    }
}

fn category_of(id: &str) -> Category {
    match id.split(':').next().unwrap_or("") {
        "ft" => Category::FormatTransformation,
        "dr" => Category::DataRetrieval,
        "mi" => Category::MappingIdentifiers,
        "fl" => Category::Filtering,
        "da" => Category::DataAnalysis,
        other => panic!("unknown category prefix {other:?}"),
    }
}

fn pretty_name(id: &str) -> String {
    let tail = id.split_once(':').map(|(_, t)| t).unwrap_or(id);
    tail.split('_')
        .map(|w| {
            let mut cs = w.chars();
            match cs.next() {
                Some(f) => f.to_uppercase().collect::<String>() + cs.as_str(),
                None => String::new(),
            }
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn param(name: &str, concept: &str) -> Parameter {
    let structural = synth::structural_type_of(concept)
        .unwrap_or_else(|| panic!("no structural grounding for concept {concept:?}"));
    Parameter::required(name, structural, concept)
}

struct Builder {
    catalog: ModuleCatalog,
    categories: BTreeMap<ModuleId, Category>,
    specs: BTreeMap<ModuleId, BehaviorSpec>,
    legacy: Vec<ModuleId>,
    expected: BTreeMap<ModuleId, ExpectedMatch>,
    modern_count: usize,
}

impl Builder {
    fn new() -> Self {
        Builder {
            catalog: ModuleCatalog::new(),
            categories: BTreeMap::new(),
            specs: BTreeMap::new(),
            legacy: Vec::new(),
            expected: BTreeMap::new(),
            modern_count: 0,
        }
    }

    fn register(
        &mut self,
        id: &str,
        kind: ModuleKind,
        inputs: Vec<Parameter>,
        outputs: Vec<Parameter>,
        body: impl Fn(&[Value]) -> Result<Vec<Value>, InvocationError> + Send + Sync + 'static,
    ) {
        let descriptor = ModuleDescriptor::new(id, pretty_name(id), kind, inputs, outputs);
        self.catalog.register(FnModule::shared(descriptor, body));
    }

    /// Registers a modern module with an arbitrary body.
    fn modern(
        &mut self,
        id: &str,
        inputs: &[(&str, &str)],
        output: (&str, &str),
        spec: BehaviorSpec,
        body: impl Fn(&[Value]) -> Result<Vec<Value>, InvocationError> + Send + Sync + 'static,
    ) {
        let kind = kind_for(self.modern_count);
        self.modern_count += 1;
        let ins = inputs.iter().map(|(n, c)| param(n, c)).collect();
        let outs = vec![param(output.0, output.1)];
        self.register(id, kind, ins, outs, body);
        let mid = ModuleId::new(id);
        self.categories.insert(mid.clone(), category_of(id));
        self.specs.insert(mid, spec);
    }

    /// Registers a modern module whose body is a single-text-input `Core`.
    fn modern_core(&mut self, id: &str, in_c: &str, out_c: &str, spec: BehaviorSpec, core: Core) {
        self.modern(
            id,
            &[("input", in_c)],
            ("output", out_c),
            spec,
            move |inputs: &[Value]| {
                let s = inputs.first().and_then(Value::as_text).unwrap_or_default();
                Ok(vec![core(s)])
            },
        );
    }

    /// Registers a modern module that rejects payloads its parser cannot
    /// handle — a strict single-format service, unlike the lenient cores
    /// that echo unparseable input through.
    fn modern_core_strict(
        &mut self,
        id: &str,
        in_c: &str,
        out_c: &str,
        spec: BehaviorSpec,
        accepts: impl Fn(&str) -> bool + Send + Sync + 'static,
        core: Core,
    ) {
        self.modern(
            id,
            &[("input", in_c)],
            ("output", out_c),
            spec,
            move |inputs: &[Value]| {
                let s = inputs.first().and_then(Value::as_text).unwrap_or_default();
                if !accepts(s) {
                    return Err(InvocationError::BadInput {
                        parameter: "input".to_string(),
                        reason: "payload does not parse as the expected record format".to_string(),
                    });
                }
                Ok(vec![core(s)])
            },
        );
    }

    /// Registers a legacy module (single input, single output).
    fn legacy_core(
        &mut self,
        id: &str,
        in_c: &str,
        out_c: &str,
        expected: ExpectedMatch,
        core: Core,
    ) {
        self.register(
            id,
            ModuleKind::SoapService,
            vec![param("input", in_c)],
            vec![param("output", out_c)],
            move |inputs: &[Value]| {
                let s = inputs.first().and_then(Value::as_text).unwrap_or_default();
                Ok(vec![core(s)])
            },
        );
        let mid = ModuleId::new(id);
        self.legacy.push(mid.clone());
        self.expected.insert(mid, expected);
    }
}

// --------------------------------------------------------------------------
// The universe.
// --------------------------------------------------------------------------

/// Record formats paired with their concept names.
const FORMATS: [(&str, RecordFormat, &str); 5] = [
    ("uniprot", RecordFormat::Uniprot, "UniprotRecord"),
    ("fasta", RecordFormat::Fasta, "FastaRecord"),
    ("genbank", RecordFormat::GenBank, "GenBankRecord"),
    ("embl", RecordFormat::Embl, "EMBLRecord"),
    ("pdb", RecordFormat::Pdb, "PDBRecord"),
];

fn uniform(task: &str) -> BehaviorSpec {
    BehaviorSpec::uniform(task)
}

fn add_format_transformations(b: &mut Builder) {
    // Pairwise format conversions (20 shims).
    for (a_name, a_fmt, a_concept) in FORMATS {
        for (b_name, b_fmt, b_concept) in FORMATS {
            if a_name == b_name {
                continue;
            }
            b.modern_core_strict(
                &format!("ft:conv_{a_name}_{b_name}"),
                a_concept,
                b_concept,
                uniform(&format!("convert {a_name} record to {b_name}")),
                move |s| a_fmt.parse(s).is_ok(),
                conv_core(a_fmt, b_fmt),
            );
        }
    }
    // Canonicalizers (5).
    for (name, fmt, concept) in FORMATS {
        b.modern_core_strict(
            &format!("ft:normalize_{name}"),
            concept,
            concept,
            uniform(&format!("normalize {name} record")),
            move |s| fmt.parse(s).is_ok(),
            conv_core(fmt, fmt),
        );
    }
    // Accession extraction from flat-file records (3).
    for (name, fmt, concept, acc_concept) in [
        (
            "uniprot",
            RecordFormat::Uniprot,
            "UniprotRecord",
            "UniprotAccession",
        ),
        ("pdb", RecordFormat::Pdb, "PDBRecord", "PDBAccession"),
        ("embl", RecordFormat::Embl, "EMBLRecord", "EMBLAccession"),
    ] {
        b.modern_core(
            &format!("ft:acc_of_{name}"),
            concept,
            acc_concept,
            uniform(&format!("extract {name} accession")),
            acc_core(fmt),
        );
    }
    // Accession extraction from KEGG-style entries (6).
    for (name, concept, acc_concept) in [
        ("pathway", "PathwayRecord", "KEGGPathwayId"),
        ("enzyme", "EnzymeRecord", "KEGGEnzymeId"),
        ("compound", "CompoundRecord", "KEGGCompoundId"),
        ("glycan", "GlycanRecord", "GlycanAccession"),
        ("ligand", "LigandRecord", "LigandAccession"),
        ("gene", "GeneRecord", "KEGGGeneId"),
    ] {
        b.modern_core(
            &format!("ft:kegg_acc_of_{name}"),
            concept,
            acc_concept,
            uniform(&format!("extract {name} entry accession")),
            entry_acc_core(),
        );
    }
    // Simple value-level shims (5).
    b.modern_core(
        "ft:revcomp",
        "DNASequence",
        "DNASequence",
        uniform("reverse-complement dna"),
        revcomp_core(),
    );
    b.modern_core(
        "ft:canonical_go",
        "GOTerm",
        "GOTerm",
        uniform("canonicalize go term"),
        echo_core(),
    );
    b.modern_core(
        "ft:format_ec",
        "ECNumber",
        "ECNumber",
        uniform("format ec number"),
        echo_core(),
    );
    b.modern_core(
        "ft:norm_symbol",
        "GeneSymbol",
        "GeneSymbol",
        uniform("normalize gene symbol"),
        echo_core(),
    );
    b.modern_core(
        "ft:render_tree",
        "PhylogeneticTree",
        "PhylogeneticTree",
        uniform("render phylogenetic tree"),
        echo_core(),
    );
    // Generic renderers over any record shape (2, partial output coverage).
    for i in 0..2 {
        b.modern_core(
            &format!("ft:render_generic_v{i}"),
            "SequenceRecord",
            "SequenceRecord",
            uniform("render generic sequence record"),
            generic_core(),
        );
    }
    // Record-to-FASTA shim over any record shape: one behavior class across
    // six input partitions, so its example set is maximally redundant.
    b.modern_core(
        "ft:record_to_fasta_ebi",
        "SequenceRecord",
        "FastaRecord",
        uniform("convert any sequence record to fasta"),
        canonical_fasta_core(16),
    );
    // Sequence recoders: interval-classified behavior (9).
    for (i, dbname) in [
        "recode-v0",
        "recode-v1",
        "recode-v2",
        "recode-v3",
        "recode-v4",
        "recode-v5",
        "recode-v6",
        "recode-v7",
        "recode-v8",
    ]
    .into_iter()
    .enumerate()
    {
        b.modern_core(
            &format!("ft:recode_seq_v{i}"),
            "BiologicalSequence",
            "ProteinSequence",
            recode_spec(),
            seq_core(dbname, SequenceKind::Protein),
        );
    }
    // Record normalizers with partially exercised specs (2).
    for i in 0..2 {
        b.modern_core(
            &format!("ft:normalize_record_v{i}"),
            "SequenceRecord",
            "FastaRecord",
            normalize_record_spec(),
            to_fasta_core(),
        );
    }
}

fn add_data_retrievals(b: &mut Builder) {
    // Primary flat-file retrievals.
    b.modern_core(
        "dr:get_uniprot_record",
        "UniprotAccession",
        "UniprotRecord",
        uniform("retrieve uniprot record"),
        record_core("uniprot", RecordFormat::Uniprot),
    );
    b.modern_core(
        "dr:get_uniprot_record_ebi",
        "UniprotAccession",
        "UniprotRecord",
        uniform("retrieve uniprot record"),
        record_core("uniprot", RecordFormat::Uniprot),
    );
    b.modern_core(
        "dr:get_pdb_record",
        "PDBAccession",
        "PDBRecord",
        uniform("retrieve pdb record"),
        record_core("pdb", RecordFormat::Pdb),
    );
    b.modern_core(
        "dr:get_embl_record",
        "EMBLAccession",
        "EMBLRecord",
        uniform("retrieve embl record"),
        record_core("embl", RecordFormat::Embl),
    );
    b.modern_core(
        "dr:get_genbank_record",
        "GenBankAccession",
        "GenBankRecord",
        uniform("retrieve genbank record"),
        record_core("genbank", RecordFormat::GenBank),
    );
    b.modern_core(
        "dr:get_fasta_uniprot",
        "UniprotAccession",
        "FastaRecord",
        uniform("retrieve fasta entry"),
        record_core("uniprot", RecordFormat::Fasta),
    );
    // Alternate providers for the same formats (8).
    for (fmt_name, fmt, in_c, out_c) in [
        (
            "uniprot",
            RecordFormat::Uniprot,
            "UniprotAccession",
            "UniprotRecord",
        ),
        ("pdb", RecordFormat::Pdb, "PDBAccession", "PDBRecord"),
        ("embl", RecordFormat::Embl, "EMBLAccession", "EMBLRecord"),
        (
            "genbank",
            RecordFormat::GenBank,
            "GenBankAccession",
            "GenBankRecord",
        ),
    ] {
        for (prov, dbname) in [
            (
                "ddbj",
                ["uniprot-ddbj", "pdb-ddbj", "embl-ddbj", "genbank-ddbj"],
            ),
            (
                "ncbi",
                ["uniprot-ncbi", "pdb-ncbi", "embl-ncbi", "genbank-ncbi"],
            ),
        ] {
            let idx = match fmt_name {
                "uniprot" => 0,
                "pdb" => 1,
                "embl" => 2,
                _ => 3,
            };
            b.modern_core(
                &format!("dr:get_{fmt_name}_record_{prov}"),
                in_c,
                out_c,
                uniform(&format!("retrieve {fmt_name} record from {prov}")),
                record_core(dbname[idx], fmt),
            );
        }
    }
    // FASTA from other databases (3).
    for (suffix, dbname, in_c) in [
        ("pdb", "fasta-pdb", "PDBAccession"),
        ("embl", "fasta-embl", "EMBLAccession"),
        ("genbank", "fasta-genbank", "GenBankAccession"),
    ] {
        b.modern_core(
            &format!("dr:get_fasta_{suffix}"),
            in_c,
            "FastaRecord",
            uniform("retrieve fasta entry"),
            record_core(dbname, RecordFormat::Fasta),
        );
    }
    // Enzyme-to-genes lookup: leaf input, broad output (the returned
    // identifier is only classifiable as a generic gene identifier, so the
    // output partition space is never fully witnessed).
    b.modern_core(
        "dr:get_genes_by_enzyme",
        "ECNumber",
        "GeneIdentifier",
        uniform("list genes catalyzing an enzyme"),
        text_core(|s| format!("gene-{}", db::seed_for(&["ec-genes", s]))),
    );
    // KEGG-style entry retrievals (10) plus lookups by symbol / EC (2).
    for (suffix, kind, in_c, out_c) in [
        ("pathway_entry", "Pathway", "KEGGPathwayId", "PathwayRecord"),
        ("enzyme_entry", "Enzyme", "KEGGEnzymeId", "EnzymeRecord"),
        (
            "compound_entry",
            "Compound",
            "KEGGCompoundId",
            "CompoundRecord",
        ),
        ("glycan_entry", "Glycan", "GlycanAccession", "GlycanRecord"),
        ("ligand_entry", "Ligand", "LigandAccession", "LigandRecord"),
    ] {
        b.modern_core(
            &format!("dr:get_{suffix}"),
            in_c,
            out_c,
            uniform(&format!("retrieve {kind} entry")),
            kegg_core(kind),
        );
        b.modern_core(
            &format!("dr:get_{suffix}_rest"),
            in_c,
            out_c,
            uniform(&format!("retrieve {kind} entry")),
            kegg_core(kind),
        );
    }
    b.modern_core(
        "dr:get_symbol_gene_entry",
        "GeneSymbol",
        "GeneRecord",
        uniform("retrieve gene entry by symbol"),
        kegg_core("Gene"),
    );
    b.modern_core(
        "dr:get_enzyme_by_ec",
        "ECNumber",
        "EnzymeRecord",
        uniform("retrieve enzyme entry by ec"),
        kegg_core("Enzyme"),
    );
    // Gene entries (2, same backend).
    b.modern_core(
        "dr:get_gene_record",
        "KEGGGeneId",
        "GeneRecord",
        uniform("retrieve gene entry"),
        kegg_core("Gene"),
    );
    b.modern_core(
        "dr:get_gene_record_rest",
        "KEGGGeneId",
        "GeneRecord",
        uniform("retrieve gene entry"),
        kegg_core("Gene"),
    );
    // Sequence retrievals (5).
    b.modern_core(
        "dr:get_protein_sequence_ddbj",
        "UniprotAccession",
        "ProteinSequence",
        uniform("retrieve protein sequence"),
        seq_core("seqdb", SequenceKind::Protein),
    );
    b.modern_core(
        "dr:get_protein_sequence_ebi",
        "UniprotAccession",
        "ProteinSequence",
        uniform("retrieve protein sequence"),
        seq_core("seqdb", SequenceKind::Protein),
    );
    b.modern_core(
        "dr:get_protein_sequence_pdb",
        "PDBAccession",
        "ProteinSequence",
        uniform("retrieve protein sequence"),
        seq_core("pdbseq", SequenceKind::Protein),
    );
    b.modern_core(
        "dr:get_dna_sequence",
        "EMBLAccession",
        "DNASequence",
        uniform("retrieve dna sequence"),
        seq_core("embl-dna", SequenceKind::Dna),
    );
    b.modern_core(
        "dr:get_dna_sequence_genbank",
        "GenBankAccession",
        "DNASequence",
        uniform("retrieve dna sequence"),
        seq_core("genbank-dna", SequenceKind::Dna),
    );
    b.modern_core(
        "dr:get_dna_sequence_ddbj",
        "EMBLAccession",
        "DNASequence",
        uniform("retrieve dna sequence"),
        seq_core("ddbj-dna", SequenceKind::Dna),
    );
    // Literature (4).
    for (suffix, in_c, salt) in [
        ("", "UniprotAccession", 0u64),
        ("_pdb", "PDBAccession", 1),
        ("_gene", "EntrezGeneId", 2),
        ("_embl", "EMBLAccession", 3),
    ] {
        b.modern_core(
            &format!("dr:get_abstract{suffix}"),
            in_c,
            "LiteratureAbstract",
            uniform("retrieve literature abstract"),
            abstract_core(salt),
        );
    }
    // Annotations (4).
    for (suffix, in_c, salt) in [
        ("annotation_uniprot", "UniprotAccession", 4u64),
        ("annotation_pdb", "PDBAccession", 5),
        ("annotation_gene", "EntrezGeneId", 6),
        ("go_annotation", "GOTerm", 7),
    ] {
        b.modern_core(
            &format!("dr:get_{suffix}"),
            in_c,
            "AnnotationReport",
            uniform("retrieve stored annotation"),
            annotate_core(salt),
        );
    }
    // Precomputed trees, keywords, xrefs (4).
    b.modern_core(
        "dr:get_tree_uniprot",
        "UniprotAccession",
        "PhylogeneticTree",
        uniform("retrieve precomputed tree"),
        tree_core(8),
    );
    b.modern_core(
        "dr:get_tree_gene",
        "EntrezGeneId",
        "PhylogeneticTree",
        uniform("retrieve precomputed tree"),
        tree_core(9),
    );
    b.modern_core(
        "dr:get_keywords_uniprot",
        "UniprotAccession",
        "KeywordSet",
        uniform("retrieve curated keywords"),
        keywords_core(10),
    );
    b.modern_core(
        "dr:get_xrefs_uniprot",
        "UniprotAccession",
        "CrossReferenceSet",
        uniform("retrieve cross references"),
        xrefs_core(11),
    );
    // Polymorphic sequence retrieval (1, partial output coverage).
    b.modern_core(
        "dr:get_biological_sequence",
        "DatabaseAccession",
        "BiologicalSequence",
        uniform("retrieve biological sequence"),
        bioseq_core(),
    );
}

fn add_identifier_mappings(b: &mut Builder) {
    // Pinned mappings mirrored by legacy modules.
    b.modern_core(
        "mi:map_uniprot_go",
        "UniprotAccession",
        "GOTerm",
        uniform("map uniprot to go"),
        go_core(0),
    );
    b.modern_core(
        "mi:map_uniprot_embl",
        "UniprotAccession",
        "EMBLAccession",
        uniform("map uniprot to embl"),
        map_core(AccessionKind::Embl, 0),
    );
    b.modern_core(
        "mi:map_uniprot_entrez",
        "UniprotAccession",
        "EntrezGeneId",
        uniform("map uniprot to entrez"),
        entrez_core(0),
    );
    b.modern_core(
        "mi:map_entrez_ensembl",
        "EntrezGeneId",
        "EnsemblGeneId",
        uniform("map entrez to ensembl"),
        map_core(AccessionKind::Ensembl, 0),
    );
    b.modern_core(
        "mi:map_symbol_entrez",
        "GeneSymbol",
        "EntrezGeneId",
        uniform("map symbol to entrez"),
        entrez_core(0),
    );
    b.modern_core(
        "mi:resolve_term",
        "GOTerm",
        "KeywordSet",
        uniform("resolve go term to keywords"),
        keywords_core(0),
    );
    // Bulk mapping table (44).
    const SRCS: [(&str, &str); 8] = [
        ("uniprot", "UniprotAccession"),
        ("pdb", "PDBAccession"),
        ("embl", "EMBLAccession"),
        ("genbank", "GenBankAccession"),
        ("entrez", "EntrezGeneId"),
        ("ensembl", "EnsemblGeneId"),
        ("symbol", "GeneSymbol"),
        ("go", "GOTerm"),
    ];
    const DSTS: [(&str, &str); 7] = [
        ("uniprot", "UniprotAccession"),
        ("pdb", "PDBAccession"),
        ("embl", "EMBLAccession"),
        ("entrez", "EntrezGeneId"),
        ("ensembl", "EnsemblGeneId"),
        ("go", "GOTerm"),
        ("kegg_gene", "KEGGGeneId"),
    ];
    const SKIP: [(&str, &str); 7] = [
        ("uniprot", "go"),
        ("uniprot", "embl"),
        ("uniprot", "entrez"),
        ("entrez", "ensembl"),
        ("symbol", "entrez"),
        ("go", "kegg_gene"),
        ("pdb", "go"),
    ];
    let mut bulk = 0usize;
    for (src, in_c) in SRCS {
        for (dst, out_c) in DSTS {
            if src == dst || SKIP.contains(&(src, dst)) {
                continue;
            }
            let core = match dst {
                "uniprot" => map_core(AccessionKind::Uniprot, 0),
                "pdb" => map_core(AccessionKind::Pdb, 0),
                "embl" => map_core(AccessionKind::Embl, 0),
                "entrez" => entrez_core(0),
                "ensembl" => map_core(AccessionKind::Ensembl, 0),
                "go" => map_core(AccessionKind::GoTerm, 0),
                _ => map_core(AccessionKind::KeggGene, 0),
            };
            b.modern_core(
                &format!("mi:map_{src}_{dst}"),
                in_c,
                out_c,
                uniform(&format!("map {src} to {dst}")),
                core,
            );
            bulk += 1;
        }
    }
    assert_eq!(bulk, 43, "bulk identifier-mapping census drifted");
    // Alternate provider for the pinned GO mapping (same upstream source).
    b.modern_core(
        "mi:map_uniprot_go_ebi",
        "UniprotAccession",
        "GOTerm",
        uniform("map uniprot to go"),
        go_core(0),
    );
    // Identifier normalizer: accepts any identifier family and resolves it
    // to an Entrez gene id. Its spec distinguishes nine identifier
    // families, so ten of the nineteen partition-driven examples are
    // redundant.
    b.modern_core(
        "mi:normalize_identifier_v0",
        "Identifier",
        "EntrezGeneId",
        identifier_family_spec(),
        entrez_core(60),
    );
    // Gene-identifier resolvers with two-class behavior (11).
    for i in 0..11u64 {
        b.modern_core(
            &format!("mi:resolve_gene_v{i}"),
            "GeneIdentifier",
            "EntrezGeneId",
            resolve_gene_spec(),
            entrez_core(40 + i),
        );
    }
}

fn add_filters(b: &mut Builder) {
    // Concept-preserving pass-through filters (21).
    const ECHOES: [(&str, &str); 21] = [
        ("filter_uniprot_acc", "UniprotAccession"),
        ("filter_pdb_acc", "PDBAccession"),
        ("filter_embl_acc", "EMBLAccession"),
        ("filter_go_terms", "GOTerm"),
        ("filter_ensembl_ids", "EnsemblGeneId"),
        ("filter_symbols", "GeneSymbol"),
        ("filter_ec_numbers", "ECNumber"),
        ("filter_dna", "DNASequence"),
        ("filter_protein", "ProteinSequence"),
        ("filter_uniprot_records", "UniprotRecord"),
        ("filter_fasta_records", "FastaRecord"),
        ("filter_embl_records", "EMBLRecord"),
        ("filter_pdb_records", "PDBRecord"),
        ("filter_blast_reports", "BlastReport"),
        ("filter_fasta_reports", "FastaAlignmentReport"),
        ("filter_trees", "PhylogeneticTree"),
        ("filter_annotations", "AnnotationReport"),
        ("filter_pathway_terms", "PathwayConcept"),
        ("filter_categories", "FunctionalCategory"),
        ("filter_keywords", "KeywordSet"),
        ("filter_xrefs", "CrossReferenceSet"),
    ];
    for (suffix, concept) in ECHOES {
        b.modern_core(
            &format!("fl:{suffix}"),
            concept,
            concept,
            uniform(&format!("filter {concept} values")),
            echo_core(),
        );
    }
    // Annotation filters with two-class behavior (4).
    for i in 0..4u64 {
        b.modern_core(
            &format!("fl:filter_annotation_v{i}"),
            "AnnotationData",
            "KeywordSet",
            filter_annotation_spec(),
            keywords_core(40 + i),
        );
    }
    // Term filters whose spec is partially dead (2).
    for i in 0..2u64 {
        b.modern_core(
            &format!("fl:filter_term_v{i}"),
            "OntologyTerm",
            "GOTerm",
            filter_term_spec(),
            go_core(20 + i),
        );
    }
}

fn add_data_analyses(b: &mut Builder) {
    // Peptide-mass identification (pinned interface).
    b.modern(
        "da:identify",
        &[
            ("masses", "PeptideMassList"),
            ("tolerance", "ErrorTolerance"),
        ],
        ("output", "UniprotAccession"),
        uniform("identify protein from masses"),
        |inputs: &[Value]| {
            let masses: Vec<f64> = inputs
                .first()
                .and_then(Value::as_list)
                .map(|l| l.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            let tolerance = inputs.get(1).and_then(Value::as_f64).unwrap_or(1.0);
            let key: String = masses.iter().map(|m| format!("{m:.1};")).collect();
            let bucket = if tolerance < 1.0 {
                "strict"
            } else if tolerance < 5.0 {
                "normal"
            } else {
                "loose"
            };
            Ok(vec![Value::text(db::map_accession(
                AccessionKind::Uniprot,
                &format!("{bucket}:{key}"),
                21,
            ))])
        },
    );
    b.modern_core(
        "da:annotate_protein",
        "UniprotAccession",
        "AnnotationReport",
        uniform("annotate protein function"),
        annotate_core(0),
    );
    b.modern_core(
        "da:digest_protein",
        "ProteinSequence",
        "PeptideMassList",
        uniform("digest protein into peptide masses"),
        digest_core(0),
    );
    b.modern_core(
        "da:build_tree",
        "FastaRecord",
        "PhylogeneticTree",
        uniform("build phylogenetic tree"),
        tree_of_fasta_core(0),
    );
    b.modern_core(
        "da:get_concept",
        "LiteratureAbstract",
        "PathwayConcept",
        uniform("extract pathway concept"),
        first_concept_core(),
    );
    b.modern_core(
        "da:get_most_similar_protein",
        "ProteinSequence",
        "UniprotAccession",
        uniform("find most similar protein"),
        map_core(AccessionKind::Uniprot, 1),
    );
    b.modern_core(
        "da:blast_pdb_ddbj",
        "ProteinSequence",
        "FastaAlignmentReport",
        uniform("search pdb with fasta"),
        homology_core("pdb", "fasta", 0),
    );
    b.modern_core(
        "da:blast_pdb_ncbi",
        "ProteinSequence",
        "FastaAlignmentReport",
        uniform("search pdb with ssearch"),
        homology_core("pdb", "ssearch", 0),
    );
    b.modern_core(
        "da:blast_uniprot_ebi",
        "ProteinSequence",
        "BlastReport",
        uniform("blast uniprot"),
        homology_core("uniprot", "blastp", 0),
    );
    b.modern_core(
        "da:blast_uniprot_ddbj",
        "ProteinSequence",
        "BlastReport",
        uniform("blast uniprot translated"),
        homology_core("uniprot", "tblastx", 0),
    );
    b.modern_core(
        "da:gc_content",
        "DNASequence",
        "MeasurementData",
        uniform("compute gc content"),
        gc_core(),
    );
    b.modern_core(
        "da:seq_stats",
        "ProteinSequence",
        "Report",
        uniform("summarize sequence statistics"),
        stats_core(),
    );
    // Bulk analyses (14).
    b.modern_core(
        "da:translate_orf",
        "DNASequence",
        "ProteinSequence",
        uniform("translate open reading frame"),
        seq_core("translate", SequenceKind::Protein),
    );
    for (suffix, salt) in [("ebi", 2u64), ("ddbj", 3), ("ncbi", 4)] {
        b.modern_core(
            &format!("da:find_homolog_{suffix}"),
            "ProteinSequence",
            "UniprotAccession",
            uniform("find closest homolog"),
            map_core(AccessionKind::Uniprot, salt),
        );
    }
    b.modern_core(
        "da:mine_concepts",
        "FullTextArticle",
        "PathwayConcept",
        uniform("mine pathway concepts"),
        first_concept_core(),
    );
    b.modern_core(
        "da:classify_enzyme",
        "ProteinSequence",
        "FunctionalCategory",
        uniform("classify enzyme family"),
        pick_core(synth::FUNCTIONAL_CATEGORIES, "fcat", 0),
    );
    b.modern_core(
        "da:extract_keywords",
        "AnnotationReport",
        "KeywordSet",
        uniform("extract keywords from annotation"),
        keywords_core(12),
    );
    b.modern_core(
        "da:cross_refs",
        "UniprotAccession",
        "CrossReferenceSet",
        uniform("derive cross references"),
        xrefs_core(13),
    );
    b.modern_core(
        "da:predict_structure",
        "ProteinSequence",
        "PDBAccession",
        uniform("predict closest structure"),
        map_core(AccessionKind::Pdb, 5),
    );
    b.modern_core(
        "da:phylo_protein",
        "ProteinSequence",
        "PhylogeneticTree",
        uniform("build protein phylogeny"),
        tree_core(1),
    );
    b.modern(
        "da:mass_fingerprint",
        &[("masses", "PeptideMassList")],
        ("output", "IdentificationReport"),
        uniform("fingerprint peptide masses"),
        |inputs: &[Value]| {
            let masses: Vec<f64> = inputs
                .first()
                .and_then(Value::as_list)
                .map(|l| l.iter().filter_map(Value::as_f64).collect())
                .unwrap_or_default();
            Ok(vec![Value::text(
                db::identify_protein(&masses, 1.0, 7).to_string(),
            )])
        },
    );
    b.modern_core(
        "da:scan_motifs",
        "DNASequence",
        "KeywordSet",
        uniform("scan for sequence motifs"),
        keywords_core(14),
    );
    b.modern_core(
        "da:summarize_abstract",
        "LiteratureAbstract",
        "KeywordSet",
        uniform("summarize abstract"),
        keywords_core(15),
    );
    b.modern_core(
        "da:pick_database",
        "UniprotAccession",
        "DatabaseName",
        uniform("suggest search database"),
        pick_core(synth::DATABASE_NAMES, "pickdb", 0),
    );
    // Document aligners (4, partial output coverage).
    for i in 0..4u64 {
        b.modern_core(
            &format!("da:align_docs_v{i}"),
            "Document",
            "AlignmentReport",
            uniform("align document contents"),
            homology_core("textdb", "blastp", i),
        );
    }
    // Annotation aligners (8, partial output coverage).
    for i in 0..8u64 {
        let program = if i % 2 == 0 { "blastp" } else { "fasta" };
        b.modern_core(
            &format!("da:align_annotation_v{i}"),
            "AnnotationData",
            "AlignmentReport",
            uniform("align annotation payloads"),
            homology_core("anndb", program, 10 + i),
        );
    }
    // Parameterized search (pinned interface; partial output coverage).
    b.modern(
        "da:search_simple",
        &[
            ("query", "SequenceRecord"),
            ("algorithm", "AlgorithmName"),
            ("database", "DatabaseName"),
        ],
        ("output", "AlignmentReport"),
        uniform("run similarity search"),
        |inputs: &[Value]| {
            let query = inputs.first().and_then(Value::as_text).unwrap_or_default();
            let algorithm = inputs.get(1).and_then(Value::as_text).unwrap_or("blastp");
            let database = inputs.get(2).and_then(Value::as_text).unwrap_or("uniprot");
            Ok(vec![Value::text(db::homology_report(
                database, algorithm, query, 0,
            ))])
        },
    );
    // Sequence aligner with two-class behavior.
    b.modern_core(
        "da:align_seq_ebi",
        "BiologicalSequence",
        "BlastReport",
        align_seq_spec(),
        homology_core("ebi", "blastp", 20),
    );
    // The same aligner at a second provider (distinct backend).
    b.modern_core(
        "da:align_seq_ddbj",
        "BiologicalSequence",
        "BlastReport",
        align_seq_spec(),
        homology_core("ddbj-align", "blastp", 22),
    );
    // Term annotators over two inputs (6).
    for i in 0..6u64 {
        b.modern(
            &format!("da:annotate_term_v{i}"),
            &[("term", "OntologyTerm"), ("annotation", "AnnotationData")],
            ("output", "AnnotationReport"),
            annotate_term_spec(),
            move |inputs: &[Value]| {
                let term = inputs.first().and_then(Value::as_text).unwrap_or_default();
                let annotation = inputs.get(1).and_then(Value::as_text).unwrap_or_default();
                Ok(vec![Value::text(db::annotation_for(
                    &format!("{term}|{annotation}"),
                    100 + i,
                ))])
            },
        );
    }
    // Record analyzers with a partially dead spec (8).
    for i in 0..8u64 {
        b.modern(
            &format!("da:analyze_record_v{i}"),
            &[("record", "SequenceRecord")],
            ("output", "AnnotationReport"),
            analyze_record_spec(),
            move |inputs: &[Value]| {
                let text = inputs.first().and_then(Value::as_text).unwrap_or_default();
                let key = db::parse_any_record(text)
                    .map(|e| e.accession)
                    .unwrap_or_else(|| text.to_string());
                Ok(vec![Value::text(db::annotation_for(&key, 200 + i))])
            },
        );
    }
    // Annotation profilers with a mostly dead spec (4).
    for i in 0..4u64 {
        b.modern_core(
            &format!("da:profile_annotation_v{i}"),
            "AnnotationData",
            "KeywordSet",
            profile_annotation_spec(),
            keywords_core(300 + i),
        );
    }
}

fn arch_core(id: &str) -> Core {
    let tag = id.to_string();
    Arc::new(move |s| {
        Value::text(format!(
            "ARCHIVED {} {}",
            tag,
            db::seed_for(&["arch", &tag, s])
        ))
    })
}

fn add_legacy(b: &mut Builder) {
    use ExpectedMatch::{Equivalent, Overlapping};

    // -- Equivalent twins (16): the archived service and a modern module wrap
    // the same backend computation.
    let eq = |target: &str| Equivalent(ModuleId::new(target));
    b.legacy_core(
        "legacy:get_protein_sequence",
        "UniprotAccession",
        "ProteinSequence",
        eq("dr:get_protein_sequence_ddbj"),
        seq_core("seqdb", SequenceKind::Protein),
    );
    b.legacy_core(
        "legacy:get_uniprot_entry",
        "UniprotAccession",
        "UniprotRecord",
        eq("dr:get_uniprot_record"),
        record_core("uniprot", RecordFormat::Uniprot),
    );
    b.legacy_core(
        "legacy:get_pdb_entry",
        "PDBAccession",
        "PDBRecord",
        eq("dr:get_pdb_record"),
        record_core("pdb", RecordFormat::Pdb),
    );
    b.legacy_core(
        "legacy:get_embl_entry",
        "EMBLAccession",
        "EMBLRecord",
        eq("dr:get_embl_record"),
        record_core("embl", RecordFormat::Embl),
    );
    b.legacy_core(
        "legacy:get_fasta_entry",
        "UniprotAccession",
        "FastaRecord",
        eq("dr:get_fasta_uniprot"),
        record_core("uniprot", RecordFormat::Fasta),
    );
    b.legacy_core(
        "legacy:get_gene_entry",
        "KEGGGeneId",
        "GeneRecord",
        eq("dr:get_gene_record"),
        kegg_core("Gene"),
    );
    b.legacy_core(
        "legacy:get_pathway_entry_v1",
        "KEGGPathwayId",
        "PathwayRecord",
        eq("dr:get_pathway_entry"),
        kegg_core("Pathway"),
    );
    b.legacy_core(
        "legacy:map_protein_go",
        "UniprotAccession",
        "GOTerm",
        eq("mi:map_uniprot_go"),
        go_core(0),
    );
    b.legacy_core(
        "legacy:annotate_uniprot",
        "UniprotAccession",
        "AnnotationReport",
        eq("da:annotate_protein"),
        annotate_core(0),
    );
    b.legacy_core(
        "legacy:digest_peptides",
        "ProteinSequence",
        "PeptideMassList",
        eq("da:digest_protein"),
        digest_core(0),
    );
    b.legacy_core(
        "legacy:build_phylo",
        "FastaRecord",
        "PhylogeneticTree",
        eq("da:build_tree"),
        tree_of_fasta_core(0),
    );
    b.legacy_core(
        "legacy:conv_uniprot_fasta_v1",
        "UniprotRecord",
        "FastaRecord",
        eq("ft:conv_uniprot_fasta"),
        conv_core(RecordFormat::Uniprot, RecordFormat::Fasta),
    );
    b.legacy_core(
        "legacy:extract_uniprot_acc",
        "UniprotRecord",
        "UniprotAccession",
        eq("ft:acc_of_uniprot"),
        acc_core(RecordFormat::Uniprot),
    );
    b.legacy_core(
        "legacy:revcomp_v1",
        "DNASequence",
        "DNASequence",
        eq("ft:revcomp"),
        revcomp_core(),
    );
    b.legacy_core(
        "legacy:gc_percent",
        "DNASequence",
        "MeasurementData",
        eq("da:gc_content"),
        gc_core(),
    );
    b.legacy_core(
        "legacy:seq_report",
        "ProteinSequence",
        "Report",
        eq("da:seq_stats"),
        stats_core(),
    );

    // -- Overlapping (23): agree with the modern counterpart on half the key
    // space, drifted on the other half.
    let ov = |target: &str| Overlapping(ModuleId::new(target));
    for (id, dbname, fmt, in_c, out_c, target) in [
        (
            "legacy:get_uniprot_record_old",
            "uniprot",
            RecordFormat::Uniprot,
            "UniprotAccession",
            "UniprotRecord",
            "dr:get_uniprot_record",
        ),
        (
            "legacy:get_pdb_record_old",
            "pdb",
            RecordFormat::Pdb,
            "PDBAccession",
            "PDBRecord",
            "dr:get_pdb_record",
        ),
        (
            "legacy:get_embl_record_old",
            "embl",
            RecordFormat::Embl,
            "EMBLAccession",
            "EMBLRecord",
            "dr:get_embl_record",
        ),
        (
            "legacy:get_genbank_record_old",
            "genbank",
            RecordFormat::GenBank,
            "GenBankAccession",
            "GenBankRecord",
            "dr:get_genbank_record",
        ),
        (
            "legacy:get_fasta_uniprot_old",
            "uniprot",
            RecordFormat::Fasta,
            "UniprotAccession",
            "FastaRecord",
            "dr:get_fasta_uniprot",
        ),
    ] {
        b.legacy_core(
            id,
            in_c,
            out_c,
            ov(target),
            overlap_core(
                record_core(dbname, fmt),
                raw_key(),
                archival_record_core(dbname, fmt),
            ),
        );
    }
    b.legacy_core(
        "legacy:map_uniprot_go_old",
        "UniprotAccession",
        "GOTerm",
        ov("mi:map_uniprot_go"),
        overlap_core(
            go_core(0),
            raw_key(),
            distinct_from(go_core(0), go_core(LEGACY_SALT)),
        ),
    );
    b.legacy_core(
        "legacy:map_uniprot_embl_old",
        "UniprotAccession",
        "EMBLAccession",
        ov("mi:map_uniprot_embl"),
        overlap_core(
            map_core(AccessionKind::Embl, 0),
            raw_key(),
            distinct_from(
                map_core(AccessionKind::Embl, 0),
                map_core(AccessionKind::Embl, LEGACY_SALT),
            ),
        ),
    );
    b.legacy_core(
        "legacy:map_uniprot_entrez_old",
        "UniprotAccession",
        "EntrezGeneId",
        ov("mi:map_uniprot_entrez"),
        overlap_core(
            entrez_core(0),
            raw_key(),
            distinct_from(entrez_core(0), entrez_core(LEGACY_SALT)),
        ),
    );
    b.legacy_core(
        "legacy:map_entrez_ensembl_old",
        "EntrezGeneId",
        "EnsemblGeneId",
        ov("mi:map_entrez_ensembl"),
        overlap_core(
            map_core(AccessionKind::Ensembl, 0),
            raw_key(),
            distinct_from(
                map_core(AccessionKind::Ensembl, 0),
                map_core(AccessionKind::Ensembl, LEGACY_SALT),
            ),
        ),
    );
    b.legacy_core(
        "legacy:map_symbol_entrez_old",
        "GeneSymbol",
        "EntrezGeneId",
        ov("mi:map_symbol_entrez"),
        overlap_core(
            entrez_core(0),
            raw_key(),
            distinct_from(entrez_core(0), entrez_core(LEGACY_SALT)),
        ),
    );
    b.legacy_core(
        "legacy:get_dna_sequence_old",
        "EMBLAccession",
        "DNASequence",
        ov("dr:get_dna_sequence"),
        overlap_core(
            seq_core("embl-dna", SequenceKind::Dna),
            raw_key(),
            distinct_from(
                seq_core("embl-dna", SequenceKind::Dna),
                seq_core("embl-dna-arch", SequenceKind::Dna),
            ),
        ),
    );
    b.legacy_core(
        "legacy:get_abstract_old",
        "UniprotAccession",
        "LiteratureAbstract",
        ov("dr:get_abstract"),
        overlap_core(
            abstract_core(0),
            raw_key(),
            text_core(|acc| {
                format!(
                    "{} Archival context retained for provenance.",
                    abstract_for(acc, LEGACY_SALT)
                )
            }),
        ),
    );
    b.legacy_core(
        "legacy:annotate_protein_old",
        "UniprotAccession",
        "AnnotationReport",
        ov("da:annotate_protein"),
        overlap_core(
            annotate_core(0),
            raw_key(),
            distinct_from(annotate_core(0), annotate_core(LEGACY_SALT)),
        ),
    );
    b.legacy_core(
        "legacy:resolve_term_old",
        "GOTerm",
        "KeywordSet",
        ov("mi:resolve_term"),
        overlap_core(
            keywords_core(0),
            raw_key(),
            distinct_from(keywords_core(0), keywords_core(LEGACY_SALT)),
        ),
    );
    b.legacy_core(
        "legacy:digest_protein_old",
        "ProteinSequence",
        "PeptideMassList",
        ov("da:digest_protein"),
        overlap_core(
            digest_core(0),
            raw_key(),
            distinct_from(
                digest_core(0),
                Arc::new(|s: &str| {
                    let mut masses = digest_masses(s, LEGACY_SALT);
                    masses.push(Value::Float(999.9));
                    Value::List(masses)
                }),
            ),
        ),
    );
    b.legacy_core(
        "legacy:seq_stats_old",
        "ProteinSequence",
        "Report",
        ov("da:seq_stats"),
        overlap_core(
            stats_core(),
            raw_key(),
            text_core(|s| format!("{}ARCHIVE rev=2\n", seq_stats_text(s))),
        ),
    );
    b.legacy_core(
        "legacy:gc_content_old",
        "DNASequence",
        "MeasurementData",
        ov("da:gc_content"),
        overlap_core(
            gc_core(),
            raw_key(),
            Arc::new(|s: &str| Value::Float(sequence::gc_content(s) + 1.0)),
        ),
    );
    b.legacy_core(
        "legacy:get_concept_old",
        "LiteratureAbstract",
        "PathwayConcept",
        ov("da:get_concept"),
        Arc::new(|s: &str| {
            let concepts = document::extract_concepts(s);
            let pick = if legacy_divergent(s) && concepts.len() >= 2 {
                concepts.last().cloned()
            } else {
                concepts.first().cloned()
            };
            Value::text(pick.unwrap_or_else(|| "glycolysis".to_string()))
        }),
    );
    for (id, fmt, in_c, target) in [
        (
            "legacy:conv_genbank_fasta_old",
            RecordFormat::GenBank,
            "GenBankRecord",
            "ft:conv_genbank_fasta",
        ),
        (
            "legacy:conv_embl_fasta_old",
            RecordFormat::Embl,
            "EMBLRecord",
            "ft:conv_embl_fasta",
        ),
        (
            "legacy:conv_pdb_fasta_old",
            RecordFormat::Pdb,
            "PDBRecord",
            "ft:conv_pdb_fasta",
        ),
    ] {
        b.legacy_core(
            id,
            in_c,
            "FastaRecord",
            ov(target),
            overlap_core(
                conv_core(fmt, RecordFormat::Fasta),
                fmt_acc_key(fmt),
                archival_conv_core(fmt, RecordFormat::Fasta),
            ),
        );
    }
    b.legacy_core(
        "legacy:normalize_uniprot_old",
        "UniprotRecord",
        "UniprotRecord",
        ov("ft:normalize_uniprot"),
        overlap_core(
            conv_core(RecordFormat::Uniprot, RecordFormat::Uniprot),
            fmt_acc_key(RecordFormat::Uniprot),
            archival_conv_core(RecordFormat::Uniprot, RecordFormat::Uniprot),
        ),
    );
    b.legacy_core(
        "legacy:build_tree_old",
        "FastaRecord",
        "PhylogeneticTree",
        ov("da:build_tree"),
        overlap_core(
            tree_of_fasta_core(0),
            fasta_seq_key(),
            distinct_from(tree_of_fasta_core(0), tree_of_fasta_core(LEGACY_SALT)),
        ),
    );

    // -- No modern counterpart (33): archived one-off tasks whose outputs no
    // modern module reproduces.
    b.legacy_core(
        "legacy:get_homologous",
        "ProteinSequence",
        "Report",
        ExpectedMatch::None,
        arch_core("legacy:get_homologous"),
    );
    const ARCH_INPUTS: [&str; 11] = [
        "UniprotAccession",
        "PDBAccession",
        "EMBLAccession",
        "GOTerm",
        "DNASequence",
        "ProteinSequence",
        "GeneSymbol",
        "ECNumber",
        "EnsemblGeneId",
        "KEGGPathwayId",
        "KEGGGeneId",
    ];
    for i in 0..32usize {
        let id = format!("legacy:arch_task_v{i:02}");
        let core = arch_core(&id);
        b.legacy_core(
            &id,
            ARCH_INPUTS[i % ARCH_INPUTS.len()],
            "Report",
            ExpectedMatch::None,
            core,
        );
    }
}

/// Modern modules most study users know by interface alone (popular
/// services: mainstream retrievals, shims, and flagship analyses).
const POPULAR: [&str; 55] = [
    "dr:get_uniprot_record",
    "dr:get_uniprot_record_ebi",
    "dr:get_pdb_record",
    "dr:get_embl_record",
    "dr:get_genbank_record",
    "dr:get_fasta_uniprot",
    "dr:get_dna_sequence",
    "dr:get_abstract",
    "dr:get_protein_sequence_ddbj",
    "dr:get_protein_sequence_ebi",
    "dr:get_gene_record",
    "dr:get_gene_record_rest",
    "dr:get_pathway_entry",
    "dr:get_enzyme_entry",
    "dr:get_compound_entry",
    "dr:get_uniprot_record_ddbj",
    "dr:get_uniprot_record_ncbi",
    "dr:get_pdb_record_ddbj",
    "ft:conv_uniprot_fasta",
    "ft:conv_genbank_fasta",
    "ft:conv_embl_fasta",
    "ft:conv_pdb_fasta",
    "ft:conv_fasta_uniprot",
    "ft:normalize_uniprot",
    "ft:normalize_fasta",
    "ft:acc_of_uniprot",
    "ft:acc_of_pdb",
    "ft:acc_of_embl",
    "ft:revcomp",
    "ft:canonical_go",
    "ft:kegg_acc_of_pathway",
    "ft:kegg_acc_of_gene",
    "ft:norm_symbol",
    "mi:map_uniprot_go",
    "mi:map_uniprot_embl",
    "mi:map_uniprot_entrez",
    "mi:map_entrez_ensembl",
    "mi:map_symbol_entrez",
    "mi:resolve_term",
    "mi:map_uniprot_pdb",
    "mi:map_pdb_uniprot",
    "mi:map_embl_uniprot",
    "mi:map_genbank_uniprot",
    "mi:map_go_uniprot",
    "mi:map_ensembl_entrez",
    "da:annotate_protein",
    "da:digest_protein",
    "da:build_tree",
    "da:identify",
    "da:get_concept",
    "da:blast_uniprot_ebi",
    "da:blast_pdb_ddbj",
    "da:gc_content",
    "fl:filter_uniprot_acc",
    "fl:filter_go_terms",
];

/// Retrievals against niche databases whose outputs users cannot assess.
const UNFAMILIAR_OUTPUT: [&str; 8] = [
    "dr:get_glycan_entry",
    "dr:get_ligand_entry",
    "dr:get_glycan_entry_rest",
    "dr:get_ligand_entry_rest",
    "dr:get_symbol_gene_entry",
    "dr:get_enzyme_by_ec",
    "dr:get_tree_uniprot",
    "dr:get_tree_gene",
];

/// Modern modules whose generated examples cannot witness every output
/// partition (§4: output-space coverage is necessarily partial).
const PARTIAL_OUTPUT: [&str; 19] = [
    "da:align_docs_v0",
    "da:align_docs_v1",
    "da:align_docs_v2",
    "da:align_docs_v3",
    "da:align_annotation_v0",
    "da:align_annotation_v1",
    "da:align_annotation_v2",
    "da:align_annotation_v3",
    "da:align_annotation_v4",
    "da:align_annotation_v5",
    "da:align_annotation_v6",
    "da:align_annotation_v7",
    "da:search_simple",
    "dr:get_biological_sequence",
    "dr:get_genes_by_enzyme",
    "ft:render_generic_v0",
    "ft:render_generic_v1",
    "da:gc_content",
    "da:seq_stats",
];

fn id_set(catalog: &ModuleCatalog, ids: &[&str]) -> BTreeSet<ModuleId> {
    ids.iter()
        .map(|id| {
            let mid = ModuleId::new(*id);
            assert!(
                catalog.descriptor(&mid).is_some(),
                "universe set references unknown module {id}"
            );
            mid
        })
        .collect()
}

/// Builds the full simulated universe: 252 modern modules (Table 3 census)
/// plus 72 legacy modules with ground-truth matching verdicts.
pub fn build() -> Universe {
    let _span = dex_telemetry::span("universe.build");
    let ontology = mygrid::ontology();
    let mut b = Builder::new();
    add_format_transformations(&mut b);
    add_data_retrievals(&mut b);
    add_identifier_mappings(&mut b);
    add_filters(&mut b);
    add_data_analyses(&mut b);
    add_legacy(&mut b);
    b.legacy.sort();

    assert_eq!(b.modern_count, 252, "modern census drifted");
    assert_eq!(b.legacy.len(), 72, "legacy census drifted");
    for cat in Category::ALL {
        let n = b.categories.values().filter(|c| **c == cat).count();
        assert_eq!(n, cat.paper_count(), "census drifted for {cat}");
    }

    let popular = id_set(&b.catalog, &POPULAR);
    let unfamiliar_output = id_set(&b.catalog, &UNFAMILIAR_OUTPUT);
    let partial_output = id_set(&b.catalog, &PARTIAL_OUTPUT);
    assert!(
        popular.is_disjoint(&unfamiliar_output),
        "popular and unfamiliar sets must not overlap"
    );

    Universe {
        catalog: b.catalog,
        ontology,
        categories: b.categories,
        specs: b.specs,
        legacy: b.legacy,
        expected_match: b.expected,
        popular,
        unfamiliar_output,
        partial_output,
    }
}
