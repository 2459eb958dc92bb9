//! The volatile population of modules supplied by third-party providers.

use crate::blackbox::SharedModule;
use crate::invoke::InvocationError;
use crate::module::{ModuleDescriptor, ModuleId};
use dex_values::Value;
use std::collections::{BTreeMap, BTreeSet};

/// A catalog of modules keyed by id, with provider-withdrawal tracking.
///
/// This models the world the paper's §6 describes: "there is no agreement
/// that compels the providers to continuously supply their modules". Code
/// that *uses* modules goes through [`ModuleCatalog::invoke`], which fails
/// with [`InvocationError::Unavailable`] once a module has been withdrawn —
/// even though the descriptor may still be known from old registries.
///
/// A `BTreeMap` keeps iteration deterministic, which the experiment harness
/// relies on for reproducible tables.
#[derive(Default)]
pub struct ModuleCatalog {
    modules: BTreeMap<ModuleId, SharedModule>,
    withdrawn: BTreeSet<ModuleId>,
}

impl ModuleCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a module. Replaces any previous module with the same id and
    /// clears its withdrawn flag (a provider re-publishing a service).
    pub fn register(&mut self, module: SharedModule) {
        let id = module.descriptor().id.clone();
        self.withdrawn.remove(&id);
        self.modules.insert(id, module);
    }

    /// Number of registered modules (including withdrawn ones).
    pub fn len(&self) -> usize {
        self.modules.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.modules.is_empty()
    }

    /// Marks a module as withdrawn by its provider. Returns `false` when the
    /// id is unknown.
    pub fn withdraw(&mut self, id: &ModuleId) -> bool {
        if self.modules.contains_key(id) {
            self.withdrawn.insert(id.clone());
            true
        } else {
            false
        }
    }

    /// Restores a withdrawn module (provider resumed supply).
    pub fn restore(&mut self, id: &ModuleId) -> bool {
        self.withdrawn.remove(id)
    }

    /// Whether the module exists and is currently supplied.
    pub fn is_available(&self, id: &ModuleId) -> bool {
        self.modules.contains_key(id) && !self.withdrawn.contains(id)
    }

    /// The module's interface, if known — descriptors survive withdrawal
    /// (registries keep stale metadata; only invocation dies).
    pub fn descriptor(&self, id: &ModuleId) -> Option<&ModuleDescriptor> {
        self.modules.get(id).map(|m| m.descriptor())
    }

    /// The module handle, only while available.
    pub fn get(&self, id: &ModuleId) -> Option<&SharedModule> {
        if self.withdrawn.contains(id) {
            None
        } else {
            self.modules.get(id)
        }
    }

    /// Invokes a module through the availability gate.
    pub fn invoke(&self, id: &ModuleId, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        if self.withdrawn.contains(id) || !self.modules.contains_key(id) {
            dex_telemetry::counter_add("dex.catalog.unavailable_invocations", 1);
            return Err(InvocationError::Unavailable);
        }
        self.modules[id].invoke(inputs)
    }

    /// Ids of all currently available modules, in deterministic order.
    pub fn available_ids(&self) -> Vec<ModuleId> {
        self.modules
            .keys()
            .filter(|id| !self.withdrawn.contains(*id))
            .cloned()
            .collect()
    }

    /// Ids of withdrawn modules, in deterministic order.
    pub fn withdrawn_ids(&self) -> Vec<ModuleId> {
        self.withdrawn.iter().cloned().collect()
    }

    /// Iterates `(id, module)` pairs of available modules.
    pub fn iter_available(&self) -> impl Iterator<Item = (&ModuleId, &SharedModule)> {
        self.modules
            .iter()
            .filter(|(id, _)| !self.withdrawn.contains(*id))
    }

    /// Replaces every registered module — withdrawn ones included — with
    /// `wrap(id, module)`, preserving ids and withdrawal flags. This is how
    /// a fault injector (see [`crate::fault::FaultInjector`]) decorates a
    /// whole population without re-plumbing the universe builder.
    ///
    /// # Panics
    /// Panics if a wrapper changes the module's id: the catalog key, cache
    /// keys and experiment tables all assume the decorated module is
    /// externally indistinguishable from the original.
    pub fn wrap_modules(&mut self, mut wrap: impl FnMut(&ModuleId, SharedModule) -> SharedModule) {
        let ids: Vec<ModuleId> = self.modules.keys().cloned().collect();
        for id in ids {
            let module = self.modules.get(&id).expect("listed above").clone();
            let wrapped = wrap(&id, module);
            assert_eq!(
                wrapped.descriptor().id,
                id,
                "module wrappers must preserve the module id"
            );
            self.modules.insert(id, wrapped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::FnModule;
    use crate::module::ModuleKind;
    use crate::param::Parameter;
    use dex_values::StructuralType;

    fn echo(id: &str) -> SharedModule {
        FnModule::shared(
            ModuleDescriptor::new(
                id,
                format!("Echo-{id}"),
                ModuleKind::RestService,
                vec![Parameter::required("in", StructuralType::Text, "Document")],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            |inputs| Ok(vec![inputs[0].clone()]),
        )
    }

    #[test]
    fn register_and_invoke() {
        let mut cat = ModuleCatalog::new();
        cat.register(echo("a"));
        let id = ModuleId::from("a");
        assert!(cat.is_available(&id));
        let out = cat.invoke(&id, &[Value::text("hi")]).unwrap();
        assert_eq!(out, vec![Value::text("hi")]);
    }

    #[test]
    fn withdrawal_blocks_invocation_but_keeps_descriptor() {
        let mut cat = ModuleCatalog::new();
        cat.register(echo("a"));
        let id = ModuleId::from("a");
        assert!(cat.withdraw(&id));
        assert!(!cat.is_available(&id));
        assert_eq!(
            cat.invoke(&id, &[Value::text("hi")]).unwrap_err(),
            InvocationError::Unavailable
        );
        assert!(cat.descriptor(&id).is_some());
        assert!(cat.get(&id).is_none());
    }

    #[test]
    fn restore_resumes_supply() {
        let mut cat = ModuleCatalog::new();
        cat.register(echo("a"));
        let id = ModuleId::from("a");
        cat.withdraw(&id);
        assert!(cat.restore(&id));
        assert!(cat.is_available(&id));
        assert!(!cat.restore(&id), "double restore is a no-op");
    }

    #[test]
    fn unknown_module_is_unavailable() {
        let cat = ModuleCatalog::new();
        let id = ModuleId::from("ghost");
        assert!(!cat.is_available(&id));
        assert_eq!(
            cat.invoke(&id, &[]).unwrap_err(),
            InvocationError::Unavailable
        );
        let mut cat = cat;
        assert!(!cat.withdraw(&id));
    }

    #[test]
    fn id_listings_are_sorted_and_partitioned() {
        let mut cat = ModuleCatalog::new();
        for id in ["c", "a", "b"] {
            cat.register(echo(id));
        }
        cat.withdraw(&ModuleId::from("b"));
        assert_eq!(
            cat.available_ids(),
            vec![ModuleId::from("a"), ModuleId::from("c")]
        );
        assert_eq!(cat.withdrawn_ids(), vec![ModuleId::from("b")]);
        assert_eq!(cat.len(), 3);
        assert_eq!(cat.iter_available().count(), 2);
    }

    #[test]
    fn reregistration_clears_withdrawal() {
        let mut cat = ModuleCatalog::new();
        cat.register(echo("a"));
        let id = ModuleId::from("a");
        cat.withdraw(&id);
        cat.register(echo("a"));
        assert!(cat.is_available(&id));
    }

    #[test]
    fn wrap_modules_preserves_ids_and_withdrawal() {
        use crate::fault::{FaultInjector, FaultPlan};
        let mut cat = ModuleCatalog::new();
        for id in ["a", "b"] {
            cat.register(echo(id));
        }
        cat.withdraw(&ModuleId::from("b"));
        let injector = FaultInjector::new(FaultPlan::none(1));
        cat.wrap_modules(|_, m| injector.wrap(m));
        assert!(cat.is_available(&ModuleId::from("a")));
        assert!(!cat.is_available(&ModuleId::from("b")), "flag survives");
        let out = cat
            .invoke(&ModuleId::from("a"), &[Value::text("hi")])
            .unwrap();
        assert_eq!(out, vec![Value::text("hi")]);
        assert_eq!(injector.stats().invocations, 1, "wrapper is in the path");
    }
}
