//! The data-example model (paper §2).

use dex_modules::ModuleId;
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// One `⟨parameter, value⟩` binding inside a data example.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Binding {
    /// Parameter name. Reference-counted: the generator creates it once per
    /// parameter of a module, and every example of the module shares it.
    pub parameter: Arc<str>,
    /// Concrete value.
    pub value: Value,
}

impl Binding {
    /// Creates a binding.
    pub fn new(parameter: impl Into<Arc<str>>, value: Value) -> Self {
        Binding {
            parameter: parameter.into(),
            value,
        }
    }
}

/// A data example `δ = ⟨I, O⟩`: concrete input values a module consumed and
/// the output values it delivered as a result (paper §2).
///
/// `input_partitions` records which ontology partition each input value was
/// drawn from when the example was produced by the generator; it is empty
/// for examples reconstructed from provenance traces, where the partition is
/// unknown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataExample {
    /// Input bindings `I`, in the module's input declaration order.
    pub inputs: Vec<Binding>,
    /// Output bindings `O`, in the module's output declaration order.
    pub outputs: Vec<Binding>,
    /// Concept name of the partition each input value realizes (parallel to
    /// `inputs`), when known.
    pub input_partitions: Vec<String>,
}

impl DataExample {
    /// Builds an example with known partitions.
    pub fn new(inputs: Vec<Binding>, outputs: Vec<Binding>, input_partitions: Vec<String>) -> Self {
        debug_assert!(input_partitions.is_empty() || input_partitions.len() == inputs.len());
        DataExample {
            inputs,
            outputs,
            input_partitions,
        }
    }

    /// Builds an example with unknown partitions (provenance reconstruction).
    pub fn reconstructed(inputs: Vec<Binding>, outputs: Vec<Binding>) -> Self {
        DataExample {
            inputs,
            outputs,
            input_partitions: Vec::new(),
        }
    }

    /// Input values in declaration order.
    pub fn input_values(&self) -> Vec<&Value> {
        self.inputs.iter().map(|b| &b.value).collect()
    }
}

impl fmt::Display for DataExample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, b) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", b.parameter, b.value.preview(40))?;
        }
        write!(f, " ⟼ ")?;
        for (i, b) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", b.parameter, b.value.preview(40))?;
        }
        write!(f, "⟩")
    }
}

/// The set `∆(m)` of data examples describing one module's behavior.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExampleSet {
    /// The module the examples describe.
    pub module: ModuleId,
    /// The examples, in deterministic generation order.
    pub examples: Vec<DataExample>,
}

impl ExampleSet {
    /// An empty set for a module.
    pub fn new(module: ModuleId) -> Self {
        ExampleSet {
            module,
            examples: Vec::new(),
        }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.examples.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.examples.is_empty()
    }

    /// Iterates the examples.
    pub fn iter(&self) -> impl Iterator<Item = &DataExample> {
        self.examples.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example(input: &str, output: &str) -> DataExample {
        DataExample::new(
            vec![Binding::new("in", Value::text(input))],
            vec![Binding::new("out", Value::text(output))],
            vec!["SomeConcept".into()],
        )
    }

    #[test]
    fn display_shows_bindings() {
        let e = example("P12345", "record");
        let s = e.to_string();
        assert!(s.contains("in=P12345"));
        assert!(s.contains("out=record"));
        assert!(s.contains('⟼'));
    }

    #[test]
    fn value_accessors() {
        let e = example("a", "b");
        assert_eq!(e.input_values(), vec![&Value::text("a")]);
    }

    #[test]
    fn example_set_basics() {
        let mut set = ExampleSet::new(ModuleId::from("m"));
        assert!(set.is_empty());
        set.examples.push(example("a", "b"));
        assert_eq!(set.len(), 1);
        assert_eq!(set.iter().count(), 1);
    }

    #[test]
    fn reconstructed_examples_have_no_partitions() {
        let e = DataExample::reconstructed(
            vec![Binding::new("in", Value::text("x"))],
            vec![Binding::new("out", Value::text("y"))],
        );
        assert!(e.input_partitions.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let e = example("in", "out");
        let json = serde_json::to_string(&e).unwrap();
        // The form stored reports and `AnnotateModule` replies carry.
        assert_eq!(
            json,
            r#"{"inputs":[{"parameter":"in","value":{"Text":"in"}}],"outputs":[{"parameter":"out","value":{"Text":"out"}}],"input_partitions":["SomeConcept"]}"#
        );
        let back: DataExample = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
