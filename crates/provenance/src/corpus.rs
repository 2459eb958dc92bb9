//! The trace corpus.

use dex_modules::ModuleId;
use dex_workflow::{EnactmentTrace, StepRecord};
use serde::{Deserialize, Serialize};

/// A corpus of workflow enactment traces.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProvenanceCorpus {
    /// Corpus name (e.g. `"taverna-2013"`).
    pub name: String,
    traces: Vec<EnactmentTrace>,
}

impl ProvenanceCorpus {
    /// An empty corpus.
    pub fn new(name: impl Into<String>) -> Self {
        ProvenanceCorpus {
            name: name.into(),
            traces: Vec::new(),
        }
    }

    /// Adds a trace.
    pub fn add(&mut self, trace: EnactmentTrace) {
        self.traces.push(trace);
    }

    /// Number of traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Iterates all traces.
    pub fn traces(&self) -> impl Iterator<Item = &EnactmentTrace> {
        self.traces.iter()
    }

    /// All recorded invocations of one module, in trace order.
    pub fn invocations_of<'a>(
        &'a self,
        module: &'a ModuleId,
    ) -> impl Iterator<Item = &'a StepRecord> {
        self.traces
            .iter()
            .flat_map(move |t| t.steps.iter().filter(move |s| &s.module == module))
    }

    /// Serializes the corpus to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Loads a corpus from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<ProvenanceCorpus> {
        serde_json::from_str(json)
    }

    /// Traces of one workflow.
    pub fn traces_of<'a>(
        &'a self,
        workflow_id: &'a str,
    ) -> impl Iterator<Item = &'a EnactmentTrace> {
        self.traces
            .iter()
            .filter(move |t| t.workflow == workflow_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_values::Value;

    fn trace(wf: &str, module: &str, input: &str, output: &str) -> EnactmentTrace {
        EnactmentTrace {
            workflow: wf.to_string(),
            inputs: vec![Value::text(input)],
            steps: vec![StepRecord {
                step: 0,
                step_name: "s".into(),
                module: module.into(),
                inputs: vec![Value::text(input)],
                outputs: vec![Value::text(output)],
            }],
            outputs: vec![Value::text(output)],
        }
    }

    #[test]
    fn corpus_accumulates_and_indexes() {
        let mut c = ProvenanceCorpus::new("t");
        assert!(c.is_empty());
        c.add(trace("w1", "m1", "a", "b"));
        c.add(trace("w1", "m2", "c", "d"));
        c.add(trace("w2", "m1", "e", "f"));
        assert_eq!(c.len(), 3);
        assert_eq!(c.invocations_of(&"m1".into()).count(), 2);
        assert_eq!(c.traces_of("w1").count(), 2);
        assert_eq!(c.traces_of("w3").count(), 0);
    }

    #[test]
    fn serde_round_trip() {
        let mut c = ProvenanceCorpus::new("t");
        c.add(trace("w", "m", "x", "y"));
        let json = c.to_json().unwrap();
        let back = ProvenanceCorpus::from_json(&json).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back.name, "t");
        assert_eq!(back.invocations_of(&"m".into()).count(), 1);
    }
}
