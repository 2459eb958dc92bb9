//! The black-box invocation boundary.

use crate::invoke::InvocationError;
use crate::module::ModuleDescriptor;
use dex_values::Value;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Process-wide invocation counters, resolved once.
fn invoke_counters() -> &'static (
    dex_telemetry::Counter,
    dex_telemetry::Counter,
    dex_telemetry::Counter,
) {
    static COUNTERS: OnceLock<(
        dex_telemetry::Counter,
        dex_telemetry::Counter,
        dex_telemetry::Counter,
    )> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            dex_telemetry::counter("dex.invoke.total"),
            dex_telemetry::counter("dex.invoke.ok"),
            dex_telemetry::counter("dex.invoke.abnormal"),
        )
    })
}

/// A scientific module as the outside world sees it: an interface plus an
/// invoke button.
///
/// Implementations must be deterministic for a fixed input vector — the
/// services the paper characterizes are (retrievals, transformations,
/// analyses), and both data-example generation and the matcher compare
/// outputs across invocations.
pub trait BlackBox: Send + Sync {
    /// The module's externally visible interface.
    fn descriptor(&self) -> &ModuleDescriptor;

    /// Invokes the module on one value per declared input, in declaration
    /// order. Returns one value per declared output, or the error that
    /// prevented normal termination.
    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError>;
}

/// Shared ownership handle for heterogeneous module populations.
pub type SharedModule = Arc<dyn BlackBox>;

/// A module implemented by a Rust closure, with input validation applied
/// before the closure runs and optional-parameter defaulting applied to
/// `Null` inputs.
pub struct FnModule {
    descriptor: ModuleDescriptor,
    #[allow(clippy::type_complexity)]
    body: Box<dyn Fn(&[Value]) -> Result<Vec<Value>, InvocationError> + Send + Sync>,
    /// Per-module (ok, abnormal) counters, interned on first enabled invoke.
    counters: OnceLock<(dex_telemetry::Counter, dex_telemetry::Counter)>,
}

impl FnModule {
    /// Wraps `body` as a module with the given interface.
    ///
    /// # Panics
    /// Panics if the descriptor fails [`ModuleDescriptor::validate`] — a
    /// malformed interface is a programming error in the universe builder,
    /// not a runtime condition.
    pub fn new(
        descriptor: ModuleDescriptor,
        body: impl Fn(&[Value]) -> Result<Vec<Value>, InvocationError> + Send + Sync + 'static,
    ) -> Self {
        if let Err(e) = descriptor.validate() {
            panic!("invalid module descriptor: {e}");
        }
        FnModule {
            descriptor,
            body: Box::new(body),
            counters: OnceLock::new(),
        }
    }

    /// Builds a [`SharedModule`] directly.
    pub fn shared(
        descriptor: ModuleDescriptor,
        body: impl Fn(&[Value]) -> Result<Vec<Value>, InvocationError> + Send + Sync + 'static,
    ) -> SharedModule {
        Arc::new(FnModule::new(descriptor, body))
    }
}

impl FnModule {
    fn invoke_inner(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        let params = &self.descriptor.inputs;
        if inputs.len() != params.len() {
            return Err(InvocationError::Arity {
                expected: params.len(),
                got: inputs.len(),
            });
        }
        // Validate and apply defaults; the inputs are copied only when a
        // `Null` takes its parameter's default.
        let mut effective = Cow::Borrowed(inputs);
        for (i, (param, value)) in params.iter().zip(inputs).enumerate() {
            if !param.admits(value) {
                return Err(InvocationError::BadInput {
                    parameter: param.name.clone(),
                    reason: if value.is_null() {
                        "null fed to a mandatory parameter".to_string()
                    } else {
                        format!("value does not conform to {}", param.structural)
                    },
                });
            }
            if value.is_null() {
                effective.to_mut()[i] = param.default.clone();
            }
        }
        let outputs = (self.body)(&effective)?;
        debug_assert_eq!(
            outputs.len(),
            self.descriptor.outputs.len(),
            "module {} produced a wrong-arity output vector",
            self.descriptor.id
        );
        Ok(outputs)
    }
}

impl BlackBox for FnModule {
    fn descriptor(&self) -> &ModuleDescriptor {
        &self.descriptor
    }

    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        let result = self.invoke_inner(inputs);
        // Per-module invocation accounting covers every termination path,
        // including input-validation rejections (§3.2's "abnormal
        // termination" is anything but a normal result vector). Counter
        // handles are cached so the cost per invoke is one atomic add.
        if dex_telemetry::is_enabled() {
            let (total, ok, abnormal) = invoke_counters();
            total.add(1);
            let (module_ok, module_abnormal) = self.counters.get_or_init(|| {
                let id = &self.descriptor.id;
                (
                    dex_telemetry::counter(&format!("dex.invoke.module.{id}.ok")),
                    dex_telemetry::counter(&format!("dex.invoke.module.{id}.abnormal")),
                )
            });
            if result.is_ok() {
                ok.add(1);
                module_ok.add(1);
            } else {
                abnormal.add(1);
                module_abnormal.add(1);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::ModuleKind;
    use crate::param::Parameter;
    use dex_values::StructuralType;

    fn upper_module() -> FnModule {
        FnModule::new(
            ModuleDescriptor::new(
                "op:upper",
                "ToUpper",
                ModuleKind::LocalProgram,
                vec![
                    Parameter::required("text", StructuralType::Text, "Document"),
                    Parameter::optional(
                        "suffix",
                        StructuralType::Text,
                        "Document",
                        Value::text("!"),
                    ),
                ],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            |inputs| {
                let text = inputs[0].as_text().expect("validated");
                let suffix = inputs[1].as_text().expect("defaulted");
                Ok(vec![Value::text(format!(
                    "{}{}",
                    text.to_uppercase(),
                    suffix
                ))])
            },
        )
    }

    #[test]
    fn happy_path_invocation() {
        let m = upper_module();
        let out = m.invoke(&[Value::text("abc"), Value::text("?")]).unwrap();
        assert_eq!(out, vec![Value::text("ABC?")]);
    }

    #[test]
    fn null_optional_uses_default() {
        let m = upper_module();
        let out = m.invoke(&[Value::text("abc"), Value::Null]).unwrap();
        assert_eq!(out, vec![Value::text("ABC!")]);
    }

    #[test]
    fn null_mandatory_rejected() {
        let m = upper_module();
        let err = m.invoke(&[Value::Null, Value::Null]).unwrap_err();
        assert!(matches!(err, InvocationError::BadInput { .. }));
    }

    #[test]
    fn arity_checked() {
        let m = upper_module();
        assert_eq!(
            m.invoke(&[Value::text("x")]).unwrap_err(),
            InvocationError::Arity {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn structural_mismatch_rejected() {
        let m = upper_module();
        let err = m.invoke(&[Value::Integer(3), Value::Null]).unwrap_err();
        assert!(matches!(err, InvocationError::BadInput { .. }));
    }

    #[test]
    #[should_panic(expected = "invalid module descriptor")]
    fn malformed_descriptor_panics() {
        let _ = FnModule::new(
            ModuleDescriptor::new("bad", "Bad", ModuleKind::LocalProgram, vec![], vec![]),
            |_| Ok(vec![]),
        );
    }
}
