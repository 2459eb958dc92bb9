//! A myExperiment-like workflow repository with a planned population.

use crate::keys::diverges_on;
use dex_modules::{ModuleCatalog, ModuleDescriptor, ModuleId, Parameter};
use dex_ontology::ConceptId;
use dex_pool::InstancePool;
use dex_universe::{ExpectedMatch, Universe};
use dex_values::Value;
use dex_workflow::{Source, Workflow};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which population a generated workflow belongs to. Generation metadata
/// only: the repair engine never reads it (tests use it to check that
/// computed outcomes match the plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanGroup {
    /// Uses only modules that will stay available.
    Healthy,
    /// Uses one legacy module that has an equivalent substitute.
    EquivalentFull,
    /// Equivalent-substitutable legacy + an unsubstitutable one.
    EquivalentPartial,
    /// Overlapping-substitutable legacy, sample input on the agreeing side.
    OverlapFull,
    /// Agreeing overlapping legacy + an unsubstitutable one.
    OverlapPartial,
    /// Overlapping legacy, sample input on the *disagreeing* side — the
    /// substitute exists but does not play the same role here.
    OverlapOdd,
    /// Uses only unsubstitutable legacy modules.
    NoneOnly,
}

/// One repository record: the workflow plus the example inputs its author
/// published with it (myExperiment workflows ship sample inputs; the paper
/// enacts repaired workflows "using samples of randomly selected inputs").
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StoredWorkflow {
    /// The workflow definition.
    pub workflow: Workflow,
    /// Sample values for the workflow-level inputs.
    pub sample_inputs: Vec<Value>,
    /// Generation metadata.
    pub group: PlanGroup,
}

/// The repository.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WorkflowRepository {
    /// Stored workflows, in generation order.
    pub workflows: Vec<StoredWorkflow>,
}

impl WorkflowRepository {
    /// Number of stored workflows.
    pub fn len(&self) -> usize {
        self.workflows.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.workflows.is_empty()
    }

    /// Serializes the repository to JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string(self)
    }

    /// Loads a repository from JSON.
    pub fn from_json(json: &str) -> serde_json::Result<WorkflowRepository> {
        serde_json::from_str(json)
    }
}

/// Population sizes for repository generation. The defaults approximate the
/// paper's §6 numbers: ~3000 workflows, roughly half broken, 334 of them
/// repairable (321 via equivalents + 13 via usable overlaps, 73 partial).
#[derive(Debug, Clone)]
pub struct RepositoryPlan {
    pub healthy: usize,
    pub equivalent_full: usize,
    pub equivalent_partial: usize,
    pub overlap_full: usize,
    pub overlap_partial: usize,
    pub overlap_odd: usize,
    pub none_only: usize,
    /// Generation seed.
    pub seed: u64,
}

impl Default for RepositoryPlan {
    fn default() -> Self {
        RepositoryPlan {
            healthy: 1466,
            equivalent_full: 255,
            equivalent_partial: 66,
            overlap_full: 6,
            overlap_partial: 7,
            overlap_odd: 400,
            none_only: 800,
            seed: 0x5eed,
        }
    }
}

impl RepositoryPlan {
    /// Total workflows the plan generates.
    pub fn total(&self) -> usize {
        self.healthy
            + self.equivalent_full
            + self.equivalent_partial
            + self.overlap_full
            + self.overlap_partial
            + self.overlap_odd
            + self.none_only
    }

    /// A small plan for tests.
    pub fn small(seed: u64) -> Self {
        RepositoryPlan {
            healthy: 30,
            equivalent_full: 20,
            equivalent_partial: 8,
            overlap_full: 6,
            overlap_partial: 4,
            overlap_odd: 20,
            none_only: 15,
            seed,
        }
    }
}

/// Generates a repository against a universe (pre-decay) and a pool used
/// for the sample inputs.
pub fn generate_repository(
    universe: &Universe,
    pool: &InstancePool,
    plan: &RepositoryPlan,
) -> WorkflowRepository {
    let mut rng = StdRng::seed_from_u64(plan.seed);
    let gen = Generator::new(universe, pool);
    let mut repo = WorkflowRepository::default();

    let mut eq_legacy: Vec<&ModuleId> = Vec::new();
    let mut ov_legacy: Vec<&ModuleId> = Vec::new();
    let mut none_legacy: Vec<&ModuleId> = Vec::new();
    for (id, expected) in &universe.expected_match {
        match expected {
            ExpectedMatch::Equivalent(_) => eq_legacy.push(id),
            ExpectedMatch::Overlapping(_) => ov_legacy.push(id),
            ExpectedMatch::None => none_legacy.push(id),
        }
    }
    let available: Vec<ModuleId> = universe.available_ids();

    let mut counter = 0usize;
    let push = |repo: &mut WorkflowRepository, stored: StoredWorkflow| {
        repo.workflows.push(stored);
    };

    for _ in 0..plan.healthy {
        let first = &available[rng.gen_range(0..available.len())];
        let stored = gen.compose(first, None, None, PlanGroup::Healthy, counter, &mut rng);
        counter += 1;
        push(&mut repo, stored);
    }
    for i in 0..plan.equivalent_full {
        let first = eq_legacy[i % eq_legacy.len()];
        let stored = gen.compose(
            first,
            None,
            None,
            PlanGroup::EquivalentFull,
            counter,
            &mut rng,
        );
        counter += 1;
        push(&mut repo, stored);
    }
    for i in 0..plan.equivalent_partial {
        let first = eq_legacy[i % eq_legacy.len()];
        let extra = none_legacy[i % none_legacy.len()];
        let stored = gen.compose(
            first,
            Some(extra),
            None,
            PlanGroup::EquivalentPartial,
            counter,
            &mut rng,
        );
        counter += 1;
        push(&mut repo, stored);
    }
    for i in 0..plan.overlap_full {
        let first = ov_legacy[i % ov_legacy.len()];
        let stored = gen.compose(
            first,
            None,
            Some(false),
            PlanGroup::OverlapFull,
            counter,
            &mut rng,
        );
        counter += 1;
        push(&mut repo, stored);
    }
    for i in 0..plan.overlap_partial {
        let first = ov_legacy[(plan.overlap_full + i) % ov_legacy.len()];
        let extra = none_legacy[i % none_legacy.len()];
        let stored = gen.compose(
            first,
            Some(extra),
            Some(false),
            PlanGroup::OverlapPartial,
            counter,
            &mut rng,
        );
        counter += 1;
        push(&mut repo, stored);
    }
    for i in 0..plan.overlap_odd {
        let first = ov_legacy[i % ov_legacy.len()];
        let stored = gen.compose(
            first,
            None,
            Some(true),
            PlanGroup::OverlapOdd,
            counter,
            &mut rng,
        );
        counter += 1;
        push(&mut repo, stored);
    }
    for i in 0..plan.none_only {
        let first = none_legacy[i % none_legacy.len()];
        let stored = gen.compose(first, None, None, PlanGroup::NoneOnly, counter, &mut rng);
        counter += 1;
        push(&mut repo, stored);
    }

    repo
}

/// Composition machinery shared across groups.
struct Generator<'a> {
    universe: &'a Universe,
    pool: &'a InstancePool,
    /// The available modern modules by their first input's semantic
    /// concept, each with that input: the candidates `downstream` merges.
    by_input: std::collections::BTreeMap<ConceptId, Vec<(ModuleId, &'a Parameter)>>,
}

/// Descriptor lookup with context: generation never *invokes* modules, so a
/// missing descriptor is a broken universe invariant, never a transient
/// fault — panic loudly, naming the module.
fn described(catalog: &ModuleCatalog, id: &ModuleId) -> ModuleDescriptor {
    catalog
        .descriptor(id)
        .unwrap_or_else(|| panic!("module {id} has no descriptor in the generation catalog"))
        .clone()
}

impl<'a> Generator<'a> {
    fn new(universe: &'a Universe, pool: &'a InstancePool) -> Self {
        let ontology = &universe.ontology;
        // Invert the compatibility check: bucket the candidates by their
        // first input's semantic concept, so `downstream` walks the ancestor
        // chain of an output concept and merges the buckets along it.
        let mut by_input: std::collections::BTreeMap<ConceptId, Vec<(ModuleId, &Parameter)>> =
            std::collections::BTreeMap::new();
        for cand in universe.available_ids() {
            let cin = &universe
                .catalog
                .descriptor(&cand)
                .unwrap_or_else(|| {
                    panic!("candidate {cand} vanished from the catalog it came from")
                })
                .inputs[0];
            // Candidates annotated outside the ontology can never subsume
            // anything, matching the `(None, _)` arm of the pairwise check.
            if let Some(t) = ontology.id(&cin.semantic) {
                by_input.entry(t).or_default().push((cand, cin));
            }
        }
        Generator {
            universe,
            pool,
            by_input,
        }
    }

    /// Downstream candidates of `id`, in id order: the other available
    /// modern modules whose first input accepts `id`'s first output. `t
    /// subsumes s` iff `t` is an ancestor-or-self of `s`, so the ancestor
    /// walk visits exactly the concepts whose candidates pass the semantic
    /// test — O(depth) buckets instead of a scan over every module. A
    /// module that is not available (legacy ones are: their outputs feed
    /// downstream steps too) chains nothing.
    fn downstream(&self, id: &ModuleId) -> Vec<&ModuleId> {
        let catalog = &self.universe.catalog;
        let mut compatible = Vec::new();
        if !catalog.is_available(id) {
            return compatible;
        }
        let ontology = &self.universe.ontology;
        // Audit note: descriptor lookups never invoke the module, so this
        // cannot fail transiently — a miss here is a broken universe
        // invariant, and the panic message says which module.
        let out = &catalog
            .descriptor(id)
            .unwrap_or_else(|| panic!("module {id} vanished from the catalog it came from"))
            .outputs[0];
        if let Some(s) = ontology.id(&out.semantic) {
            for t in ontology.ancestors(s) {
                for (cand, cin) in self.by_input.get(&t).into_iter().flatten() {
                    if cand != id && cin.structural.accepts(&out.structural) {
                        compatible.push(cand);
                    }
                }
            }
        }
        compatible.sort();
        compatible
    }

    /// Builds one workflow: `first` as step 0 (all inputs from workflow
    /// inputs), an optional parallel `extra` legacy step, and 0–2 chained
    /// downstream steps. `want_divergent` controls the parity of the sample
    /// value feeding `first` (overlapping-legacy groups only).
    fn compose(
        &self,
        first: &ModuleId,
        extra: Option<&ModuleId>,
        want_divergent: Option<bool>,
        group: PlanGroup,
        counter: usize,
        rng: &mut StdRng,
    ) -> StoredWorkflow {
        let catalog = &self.universe.catalog;
        let mut builder = Workflow::builder(
            format!("wf{counter:05}"),
            format!("workflow {counter} ({first})"),
        );
        let mut sample_inputs: Vec<Value> = Vec::new();

        // Step 0: the focus module.
        let d0 = described(catalog, first);
        let s0 = builder.step(d0.name.clone(), first.clone());
        for (j, p) in d0.inputs.iter().enumerate() {
            let idx = builder.input(p.clone());
            builder.link(Source::WorkflowInput(idx), s0, j);
            let value = if j == 0 {
                self.sample_value(first, p, want_divergent, rng)
            } else {
                self.plain_sample(p, rng)
            };
            sample_inputs.push(value);
        }

        // Optional parallel legacy step.
        if let Some(extra_id) = extra {
            let d1 = described(catalog, extra_id);
            let s1 = builder.step(d1.name.clone(), extra_id.clone());
            for (j, p) in d1.inputs.iter().enumerate() {
                let idx = builder.input(p.clone());
                builder.link(Source::WorkflowInput(idx), s1, j);
                sample_inputs.push(self.plain_sample(p, rng));
            }
        }

        // Chain 0–2 downstream steps off step 0's first output.
        let mut upstream = (s0, first.clone());
        let chain_len = rng.gen_range(0..=2usize);
        for _ in 0..chain_len {
            let candidates = self.downstream(&upstream.1);
            if candidates.is_empty() {
                break;
            }
            let next = candidates[rng.gen_range(0..candidates.len())];
            let dn = described(catalog, next);
            let sn = builder.step(dn.name.clone(), next.clone());
            builder.link(
                Source::StepOutput {
                    step: upstream.0,
                    output: 0,
                },
                sn,
                0,
            );
            for (j, p) in dn.inputs.iter().enumerate().skip(1) {
                let idx = builder.input(p.clone());
                builder.link(Source::WorkflowInput(idx), sn, j);
                sample_inputs.push(self.plain_sample(p, rng));
            }
            upstream = (sn, next.clone());
        }

        let last_step = upstream.0;
        builder.output(
            "result",
            Source::StepOutput {
                step: last_step,
                output: 0,
            },
        );
        StoredWorkflow {
            workflow: builder.build(),
            sample_inputs,
            group,
        }
    }

    /// Any pool realization of the parameter's concept.
    fn plain_sample(&self, p: &Parameter, rng: &mut StdRng) -> Value {
        let skip = rng.gen_range(0..6usize);
        self.pool
            .get_instance(&p.semantic, &p.structural, skip)
            .or_else(|| self.pool.get_instance(&p.semantic, &p.structural, 0))
            .unwrap_or_else(|| panic!("pool has no realization of {}", p.semantic))
            .value
            .clone()
    }

    /// A realization with a chosen divergence parity, when requested.
    fn sample_value(
        &self,
        module: &ModuleId,
        p: &Parameter,
        want_divergent: Option<bool>,
        rng: &mut StdRng,
    ) -> Value {
        let Some(want) = want_divergent else {
            return self.plain_sample(p, rng);
        };
        let mut matching: Vec<Value> = Vec::new();
        for skip in 0..32usize {
            let Some(inst) = self.pool.get_instance(&p.semantic, &p.structural, skip) else {
                break;
            };
            if diverges_on(module, &inst.value) == Some(want) {
                matching.push(inst.value.clone());
            }
        }
        if matching.is_empty() {
            // No value with the requested parity in the pool prefix; fall
            // back (tests assert this does not happen for the shipped pool).
            return self.plain_sample(p, rng);
        }
        matching[rng.gen_range(0..matching.len())].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_pool::build_synthetic_pool;
    use dex_universe::build;
    use dex_workflow::validate;

    fn fixture() -> (Universe, InstancePool) {
        let u = build();
        let pool = build_synthetic_pool(&u.ontology, 40, 77);
        (u, pool)
    }

    #[test]
    fn generated_workflows_validate_and_enact_pre_decay() {
        let (u, pool) = fixture();
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(1));
        assert_eq!(repo.len(), RepositoryPlan::small(1).total());
        for stored in &repo.workflows {
            validate(&stored.workflow, &u.catalog, &u.ontology)
                .unwrap_or_else(|e| panic!("{}: {e:?}", stored.workflow.id));
            dex_workflow::enact(
                &stored.workflow,
                &u.catalog,
                &stored.sample_inputs,
                None,
                &dex_modules::Retrier::none(),
            )
            .unwrap_or_else(|e| panic!("{}: {e}", stored.workflow.id));
        }
    }

    #[test]
    fn overlap_groups_have_requested_parity() {
        let (u, pool) = fixture();
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(2));
        for stored in &repo.workflows {
            let want = match stored.group {
                PlanGroup::OverlapFull | PlanGroup::OverlapPartial => Some(false),
                PlanGroup::OverlapOdd => Some(true),
                _ => None,
            };
            if let Some(want) = want {
                let module = &stored.workflow.steps[0].module;
                let got = diverges_on(module, &stored.sample_inputs[0]);
                assert_eq!(got, Some(want), "{} ({module})", stored.workflow.id);
            }
        }
    }

    #[test]
    fn broken_groups_reference_legacy_modules() {
        let (u, pool) = fixture();
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(3));
        for stored in &repo.workflows {
            let uses_legacy = stored.workflow.module_ids().iter().any(|m| u.is_legacy(m));
            assert_eq!(
                uses_legacy,
                stored.group != PlanGroup::Healthy,
                "{}",
                stored.workflow.id
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (u, pool) = fixture();
        let a = generate_repository(&u, &pool, &RepositoryPlan::small(4));
        let b = generate_repository(&u, &pool, &RepositoryPlan::small(4));
        for (x, y) in a.workflows.iter().zip(&b.workflows) {
            assert_eq!(x.workflow, y.workflow);
            assert_eq!(x.sample_inputs, y.sample_inputs);
        }
    }

    #[test]
    fn repository_round_trips_through_json() {
        let (u, pool) = fixture();
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(6));
        let json = repo.to_json().unwrap();
        let back = WorkflowRepository::from_json(&json).unwrap();
        assert_eq!(back.len(), repo.len());
        for (a, b) in repo.workflows.iter().zip(&back.workflows) {
            assert_eq!(a.workflow, b.workflow);
            assert_eq!(a.sample_inputs, b.sample_inputs);
            assert_eq!(a.group, b.group);
        }
    }

    #[test]
    fn legacy_modules_are_referenced_by_stored_workflows() {
        let (u, pool) = fixture();
        let repo = generate_repository(&u, &pool, &RepositoryPlan::small(5));
        let legacy = &u.legacy[0];
        let direct = repo
            .workflows
            .iter()
            .filter(|w| w.workflow.steps.iter().any(|s| &s.module == legacy))
            .count();
        assert!(direct > 0, "legacy module {legacy} unused in repository");
    }
}
