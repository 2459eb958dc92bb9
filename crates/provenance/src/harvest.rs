//! Building annotated instance pools out of provenance traces (§4.1).

use crate::corpus::ProvenanceCorpus;
use dex_core::ValueClassifier;
use dex_modules::ModuleCatalog;
use dex_pool::{AnnotatedInstance, InstancePool};
use dex_values::Value;
use dex_workflow::EnactmentTrace;
use std::collections::HashSet;

/// Incremental harvest: absorbs enactment traces one at a time into a
/// concept-indexed pool, so a caller can enact → absorb → drop each trace
/// without ever materializing a corpus. Memory is bounded by *distinct*
/// harvested data, not by trace volume — the property the repository-scale
/// pipelines rely on.
///
/// [`harvest_pool`] is implemented on top of this sink, so the streaming and
/// materialized paths produce byte-identical pools by construction (pinned
/// by property tests in `dex-repair`).
pub struct HarvestSink<'c> {
    pool: InstancePool,
    seen: HashSet<(Value, String)>,
    catalog: &'c ModuleCatalog,
    classifier: ValueClassifier,
    values_seen: u64,
    skipped: u64,
    duplicates: u64,
}

impl<'c> HarvestSink<'c> {
    /// A fresh sink producing a pool named `name`. The annotation rules are
    /// those of [`harvest_pool`]: classifier first, declared parameter
    /// concept (via `catalog`) as fallback, skip when neither applies.
    pub fn new(
        name: impl Into<String>,
        catalog: &'c ModuleCatalog,
        classifier: ValueClassifier,
    ) -> Self {
        HarvestSink {
            pool: InstancePool::new(name),
            seen: HashSet::new(),
            catalog,
            classifier,
            values_seen: 0,
            skipped: 0,
            duplicates: 0,
        }
    }

    /// Streams one trace into the pool; the trace can be dropped afterwards.
    pub fn absorb(&mut self, trace: &EnactmentTrace) {
        for record in &trace.steps {
            let descriptor = self.catalog.descriptor(&record.module);
            let sides: [(&[Value], bool); 2] = [(&record.inputs, false), (&record.outputs, true)];
            for (values, is_output) in sides {
                for (idx, value) in values.iter().enumerate() {
                    if value.is_null() {
                        continue;
                    }
                    self.values_seen += 1;
                    let declared = descriptor.and_then(|d| {
                        let params = if is_output { &d.outputs } else { &d.inputs };
                        params.get(idx).map(|p| p.semantic.as_str())
                    });
                    let concept = match (self.classifier)(value) {
                        Some(c) => c.to_string(),
                        None => match declared {
                            Some(c) => c.to_string(),
                            None => {
                                self.skipped += 1;
                                continue;
                            }
                        },
                    };
                    if self.seen.insert((value.clone(), concept.clone())) {
                        let parameter = declared
                            .map(|_| {
                                let d = descriptor.expect("declared implies descriptor");
                                let params = if is_output { &d.outputs } else { &d.inputs };
                                params[idx].name.clone()
                            })
                            .unwrap_or_else(|| format!("arg{idx}"));
                        self.pool.add(AnnotatedInstance::from_provenance(
                            value.clone(),
                            concept,
                            trace.workflow.clone(),
                            record.module.to_string(),
                            parameter,
                        ));
                    } else {
                        self.duplicates += 1;
                    }
                }
            }
        }
    }

    /// Instances harvested so far.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when nothing has been harvested yet.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Publishes the harvest counters and yields the finished pool.
    pub fn finish(self) -> InstancePool {
        if dex_telemetry::is_enabled() {
            dex_telemetry::counter_add("dex.provenance.values_seen", self.values_seen);
            dex_telemetry::counter_add(
                "dex.provenance.instances_harvested",
                self.pool.len() as u64,
            );
            dex_telemetry::counter_add("dex.provenance.values_skipped", self.skipped);
            dex_telemetry::counter_add("dex.provenance.duplicates_collapsed", self.duplicates);
        }
        self.pool
    }
}

/// Harvests a pool of annotated instances from a corpus.
///
/// Every input and output value of every recorded invocation becomes a pool
/// instance. The annotation is the most specific concept the `classifier`
/// recognizes in the value; when the value is syntactically opaque, the
/// declared concept of the parameter that carried it (looked up in
/// `catalog`) is used instead — exactly the paper's "thanks to those
/// annotations" fallback. Values whose carrying module is unknown *and*
/// unclassifiable are skipped. Duplicate `(value, concept)` pairs are kept
/// only once, so the pool size is bounded by distinct data, not by trace
/// volume.
///
/// This is the materialized-corpus convenience over [`HarvestSink`]; callers
/// that produce traces on the fly should feed a sink directly and skip the
/// corpus.
pub fn harvest_pool(
    corpus: &ProvenanceCorpus,
    catalog: &ModuleCatalog,
    classifier: ValueClassifier,
) -> InstancePool {
    let _span = dex_telemetry::span("provenance.harvest");
    let mut sink = HarvestSink::new(format!("harvest-{}", corpus.name), catalog, classifier);
    for trace in corpus.traces() {
        sink.absorb(trace);
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_modules::{FnModule, ModuleDescriptor, ModuleKind, Parameter};
    use dex_values::classify::classify_concept;
    use dex_values::StructuralType;
    use dex_workflow::{EnactmentTrace, StepRecord};

    fn catalog() -> ModuleCatalog {
        let mut c = ModuleCatalog::new();
        c.register(FnModule::shared(
            ModuleDescriptor::new(
                "m",
                "M",
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "acc",
                    StructuralType::Text,
                    "UniprotAccession",
                )],
                vec![Parameter::required(
                    "blob",
                    StructuralType::Text,
                    "Document",
                )],
            ),
            |i| Ok(vec![i[0].clone()]),
        ));
        c
    }

    fn corpus_with(input: &str, output: &str) -> ProvenanceCorpus {
        let mut corpus = ProvenanceCorpus::new("t");
        corpus.add(EnactmentTrace {
            workflow: "w".into(),
            inputs: vec![Value::text(input)],
            steps: vec![StepRecord {
                step: 0,
                step_name: "s".into(),
                module: "m".into(),
                inputs: vec![Value::text(input)],
                outputs: vec![Value::text(output)],
            }],
            outputs: vec![],
        });
        corpus
    }

    #[test]
    fn classifiable_values_use_syntactic_concept() {
        let corpus = corpus_with("P12345", "GO:0008150");
        let pool = harvest_pool(&corpus, &catalog(), classify_concept);
        assert_eq!(pool.realizations_of("UniprotAccession").count(), 1);
        assert_eq!(pool.realizations_of("GOTerm").count(), 1);
    }

    #[test]
    fn opaque_values_fall_back_to_declared_concept() {
        // "%%%" is unclassifiable; the output parameter declares Document.
        let corpus = corpus_with("P12345", "%%%");
        let pool = harvest_pool(&corpus, &catalog(), classify_concept);
        assert_eq!(pool.realizations_of("Document").count(), 1);
    }

    #[test]
    fn duplicates_are_collapsed() {
        let mut corpus = corpus_with("P12345", "GO:0008150");
        for t in corpus_with("P12345", "GO:0008150").traces() {
            corpus.add(t.clone());
        }
        let pool = harvest_pool(&corpus, &catalog(), classify_concept);
        assert_eq!(pool.len(), 2, "one accession + one GO term");
    }

    #[test]
    fn unknown_module_and_opaque_value_is_skipped() {
        let mut corpus = ProvenanceCorpus::new("t");
        corpus.add(EnactmentTrace {
            workflow: "w".into(),
            inputs: vec![],
            steps: vec![StepRecord {
                step: 0,
                step_name: "s".into(),
                module: "ghost".into(),
                inputs: vec![Value::text("%%%"), Value::text("P12345")],
                outputs: vec![Value::Null],
            }],
            outputs: vec![],
        });
        let pool = harvest_pool(&corpus, &catalog(), classify_concept);
        // Opaque + unknown module skipped; the accession still classifies.
        assert_eq!(pool.len(), 1);
        let inst = pool.realizations_of("UniprotAccession").next().unwrap();
        assert!(inst.source.to_string().contains("ghost"));
    }
}
