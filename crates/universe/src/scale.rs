//! Parameterized universe construction at repository scale.
//!
//! [`build()`](crate::build()) reproduces the paper's 252-module population
//! byte-for-byte and stays untouched; this module grows *around* it. A
//! [`ScalePlan`] describes a heavy-tailed catalog of 10k–100k+ modules over a
//! deep EDAM-shaped ontology, and [`build_scaled`] materializes it
//! deterministically from the plan's seed.
//!
//! The generated world preserves the structural properties the matching
//! pipeline exercises on the paper profile:
//!
//! * **Families.** Modules come in behavior families of Zipf-like size
//!   (half the families are singletons; a heavy tail reaches
//!   [`ScalePlan::max_family`]). Members cycle through ground-truth roles —
//!   the family anchor, behaviorally [`MemberRole::Equivalent`] twins,
//!   [`MemberRole::Overlapping`] variants that diverge on exactly one input
//!   partition, and [`MemberRole::Distinct`] modules that share the interface
//!   but agree nowhere.
//! * **Deep ontology.** Five category branches (one per [`Category`]) each
//!   carry a spine of [`ScalePlan::depth`] levels; families hang their
//!   domain concepts off a sampled spine level, so concept depth and family
//!   placement are both heavy-tailed.
//! * **Partitioned input domains.** Each family's input concept has two leaf
//!   children, so the paper's partition machinery produces three partitions
//!   (the concept itself plus both children). Overlapping members diverge on
//!   the second child, keyed on the `ec:{concept}:` value-text tag that
//!   `dex_pool::build_text_pool` stamps on every instance.
//! * **Fingerprint skew.** Every [`ScalePlan::shared_shape_every`]-th family
//!   reuses one of [`ScalePlan::shared_shapes`] shared interface shapes, so
//!   fingerprint blocking sees a heavy-tailed bucket distribution with
//!   cross-family `Disjoint` pairs inside the big buckets — the hard case
//!   for the sub-quadratic matcher.
//!
//! Module behavior is a pure function of the module's identity and the
//! input text (via [`db::seed_for`]), so example generation, matching, and
//! repair over a scaled world are exactly as reproducible as on the paper
//! profile.

use crate::build::Universe;
use crate::category::Category;
use crate::db;
use dex_modules::{
    FnModule, InvocationError, ModuleCatalog, ModuleDescriptor, ModuleId, ModuleKind, Parameter,
};
use dex_values::{StructuralType, Value};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Recipe for a scaled universe. Two plans with equal fields produce
/// byte-identical worlds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScalePlan {
    /// Total number of modules to generate (exact).
    pub modules: usize,
    /// Master seed; every size, placement, and behavior derives from it.
    pub seed: u64,
    /// Levels in each category branch's concept spine. The ontology's
    /// maximum depth is at least this.
    pub depth: usize,
    /// Cap on family size (the heavy tail's truncation point).
    pub max_family: usize,
    /// Every n-th family reuses a shared interface shape instead of minting
    /// its own concepts (0 disables sharing).
    pub shared_shape_every: usize,
    /// Number of distinct shared interface shapes.
    pub shared_shapes: usize,
}

impl ScalePlan {
    /// The default knobs at a given module count and seed: depth-10 spines,
    /// families capped at 64, every 24th family on one of 64 shared shapes.
    pub fn new(modules: usize, seed: u64) -> Self {
        ScalePlan {
            modules,
            seed,
            depth: 10,
            max_family: 64,
            shared_shape_every: 24,
            shared_shapes: 64,
        }
    }
}

/// Ground-truth role of a family member relative to the family anchor
/// (member 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberRole {
    /// The family's reference behavior.
    Anchor,
    /// Same observable behavior as the anchor on every input.
    Equivalent,
    /// Agrees with the anchor except on the divergent child partition.
    Overlapping,
    /// Shares the interface, agrees on no input.
    Distinct,
}

fn role_for(member: usize) -> MemberRole {
    match member {
        0 => MemberRole::Anchor,
        m if m % 3 == 1 => MemberRole::Equivalent,
        m if m % 3 == 2 => MemberRole::Overlapping,
        _ => MemberRole::Distinct,
    }
}

/// Ground truth for one generated behavior family.
#[derive(Debug, Clone)]
pub struct FamilyInfo {
    /// Member module ids, anchor first.
    pub members: Vec<ModuleId>,
    /// Role of each member, aligned with `members`.
    pub roles: Vec<MemberRole>,
    /// The input parameter's semantic concept (has two leaf children).
    pub input_concept: String,
    /// The child concept Overlapping members diverge on.
    pub divergent_concept: String,
    /// The output parameter's semantic concept.
    pub output_concept: String,
    /// Category the family was assigned to (heavy-tailed mass).
    pub category: Category,
    /// Index of the shared interface shape, if the family uses one.
    pub shared_shape: Option<usize>,
}

/// A scaled universe plus the ground truth needed to score it.
pub struct ScaledWorld {
    /// Catalog + ontology in the same shape the paper profile uses, so the
    /// whole pipeline (generation, matching, delta, repair) runs unchanged.
    pub universe: Universe,
    /// Behavior families, in generation order.
    pub families: Vec<FamilyInfo>,
    /// The plan that produced this world.
    pub plan: ScalePlan,
}

impl ScaledWorld {
    /// Total generated modules (equals `plan.modules`).
    pub fn module_count(&self) -> usize {
        self.families.iter().map(|f| f.members.len()).sum()
    }
}

/// Names of the four concepts forming one interface shape.
#[derive(Clone)]
struct ShapeConcepts {
    parent: String,
    child_b: String,
    out: String,
}

/// Zipf-like family size: `P(2^k) = 2^-(k+1)`, truncated at `cap`.
fn sample_family_size(rng: &mut StdRng, cap: usize) -> usize {
    let g = rng.next_u64().trailing_zeros().min(16);
    (1usize << g).min(cap.max(1))
}

/// Heavy-tailed category mass: weights 16:8:4:2:1 over [`Category::ALL`].
fn sample_category(rng: &mut StdRng) -> Category {
    let v = rng.gen_range(0..31u32);
    let idx = match v {
        0..=15 => 0,
        16..=23 => 1,
        24..=27 => 2,
        28..=29 => 3,
        _ => 4,
    };
    Category::ALL[idx]
}

const KINDS: [ModuleKind; 3] = [
    ModuleKind::LocalProgram,
    ModuleKind::RestService,
    ModuleKind::SoapService,
];

/// A behaviour core's output text: `tag` then `hash` as 16 lower-case hex
/// digits, written without an intermediate `String`.
fn tagged(tag: &[u8; 4], hash: u64) -> Value {
    let mut text = [0u8; 20];
    text[..4].copy_from_slice(tag);
    for (i, digit) in text[4..].iter_mut().enumerate() {
        *digit = b"0123456789abcdef"[(hash >> (60 - 4 * i)) as usize & 0xf];
    }
    Value::text(std::str::from_utf8(&text).expect("ASCII tag and digits"))
}

/// Materializes `plan` into a deterministic scaled world.
///
/// # Panics
/// Panics if `plan.modules == 0` or `plan.depth < 2` — a degenerate plan is
/// a programming error, not a runtime condition.
pub fn build_scaled(plan: &ScalePlan) -> ScaledWorld {
    assert!(plan.modules > 0, "a scaled world needs at least one module");
    assert!(plan.depth >= 2, "spines need at least two levels");
    let _span = dex_telemetry::span("universe.build_scaled");

    let mut rng = StdRng::seed_from_u64(plan.seed ^ 0x5CA1_AB1E_0000_0001);
    let mut builder = dex_ontology::Ontology::builder(format!("scaled-{}", plan.seed));
    builder.root("Data").expect("fresh root");

    // Five category branches, each a spine of `depth` concrete levels.
    let branches = Category::ALL.len();
    for b in 0..branches {
        let top = format!("sc.b{b}");
        builder.child(&top, "Data").expect("fresh branch");
        let mut parent = top;
        for l in 0..plan.depth {
            let name = format!("sc.b{b}.l{l:02}");
            builder.child(&name, &parent).expect("fresh spine level");
            parent = name;
        }
    }

    let mut shapes: Vec<Option<ShapeConcepts>> = vec![None; plan.shared_shapes.max(1)];
    let mut catalog = ModuleCatalog::new();
    let mut categories = BTreeMap::new();
    let mut families = Vec::new();

    let mut remaining = plan.modules;
    let mut f = 0usize;
    while remaining > 0 {
        let size = sample_family_size(&mut rng, plan.max_family).min(remaining);
        let category = sample_category(&mut rng);
        let branch = Category::ALL
            .iter()
            .position(|c| *c == category)
            .expect("category in ALL");
        let level = rng.gen_range(1..plan.depth);

        let shared = plan.shared_shape_every > 0
            && plan.shared_shapes > 0
            && f.is_multiple_of(plan.shared_shape_every);
        let (concepts, shape_idx) = if shared {
            let s = (f / plan.shared_shape_every) % plan.shared_shapes;
            if shapes[s].is_none() {
                // Shared shapes live deep on a branch picked by shape index,
                // independent of the families that borrow them.
                let spine = format!("sc.b{}.l{:02}", s % branches, plan.depth - 1);
                let parent = format!("sc.shape{s:03}.dom");
                builder.child(&parent, &spine).expect("fresh shape parent");
                let child_a = format!("sc.shape{s:03}.a");
                let child_b = format!("sc.shape{s:03}.b");
                builder.child(&child_a, &parent).expect("fresh shape child");
                builder.child(&child_b, &parent).expect("fresh shape child");
                let out = format!("sc.shape{s:03}.out");
                builder.child(&out, &spine).expect("fresh shape output");
                shapes[s] = Some(ShapeConcepts {
                    parent,
                    child_b,
                    out,
                });
            }
            (shapes[s].clone().expect("just ensured"), Some(s))
        } else {
            let spine = format!("sc.b{branch}.l{level:02}");
            let parent = format!("sc.f{f:06}.dom");
            builder.child(&parent, &spine).expect("fresh family parent");
            let child_a = format!("sc.f{f:06}.a");
            let child_b = format!("sc.f{f:06}.b");
            builder
                .child(&child_a, &parent)
                .expect("fresh family child");
            builder
                .child(&child_b, &parent)
                .expect("fresh family child");
            let out = format!("sc.f{f:06}.out");
            builder.child(&out, &spine).expect("fresh family output");
            (
                ShapeConcepts {
                    parent,
                    child_b,
                    out,
                },
                None,
            )
        };

        // One family key and one divergence prefix, shared by the members'
        // behaviour cores.
        let fam_key: Arc<str> = format!("sc.f{f:06}").into();
        let mut divergence: Option<Arc<str>> = None;
        let mut members = Vec::with_capacity(size);
        let mut roles = Vec::with_capacity(size);
        for m in 0..size {
            let role = role_for(m);
            let member_key = || format!("{fam_key}.m{m:02}");
            let core: Arc<dyn Fn(&str) -> Value + Send + Sync> = match role {
                MemberRole::Anchor | MemberRole::Equivalent => {
                    let key = Arc::clone(&fam_key);
                    Arc::new(move |s| tagged(b"out:", db::seed_for(&[&key, s])))
                }
                MemberRole::Overlapping => {
                    let (key, member_key) = (Arc::clone(&fam_key), member_key());
                    let prefix = Arc::clone(
                        divergence
                            .get_or_insert_with(|| format!("ec:{}:", concepts.child_b).into()),
                    );
                    Arc::new(move |s| {
                        if s.starts_with(&*prefix) {
                            tagged(b"odd:", db::seed_for(&[&member_key, s]))
                        } else {
                            tagged(b"out:", db::seed_for(&[&key, s]))
                        }
                    })
                }
                MemberRole::Distinct => {
                    let member_key = member_key();
                    Arc::new(move |s| tagged(b"own:", db::seed_for(&[&member_key, s])))
                }
            };
            let id = ModuleId::new(format!("sc{f:06}.{m:02}"));
            let descriptor = ModuleDescriptor::new(
                id.clone(),
                format!("scaled/f{f:06}/m{m:02}"),
                KINDS[(f + m) % KINDS.len()],
                vec![Parameter::required(
                    "input",
                    StructuralType::Text,
                    concepts.parent.as_str(),
                )],
                vec![Parameter::required(
                    "output",
                    StructuralType::Text,
                    concepts.out.as_str(),
                )],
            );
            catalog.register(Arc::new(FnModule::new(descriptor, move |inputs| {
                let text = inputs[0]
                    .as_text()
                    .ok_or_else(|| InvocationError::BadInput {
                        parameter: "input".into(),
                        reason: "scaled modules consume text".into(),
                    })?;
                Ok(vec![core(text)])
            })));
            categories.insert(id.clone(), category);
            members.push(id);
            roles.push(role);
        }

        families.push(FamilyInfo {
            members,
            roles,
            input_concept: concepts.parent.clone(),
            divergent_concept: concepts.child_b.clone(),
            output_concept: concepts.out.clone(),
            category,
            shared_shape: shape_idx,
        });
        remaining -= size;
        f += 1;
    }

    let ontology = builder.build().expect("scaled ontology is well-formed");
    dex_telemetry::counter("dex.scale.modules").add(plan.modules as u64);
    dex_telemetry::counter("dex.scale.families").add(families.len() as u64);
    dex_telemetry::counter("dex.scale.concepts").add(ontology.len() as u64);

    ScaledWorld {
        universe: Universe {
            catalog,
            ontology,
            categories,
            specs: BTreeMap::new(),
            legacy: Vec::new(),
            expected_match: BTreeMap::new(),
            popular: Default::default(),
            unfamiliar_output: Default::default(),
            partial_output: Default::default(),
        },
        families,
        plan: plan.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::{compare_modules, GenerationConfig, MatchVerdict};
    use dex_pool::build_text_pool;

    fn small_plan() -> ScalePlan {
        ScalePlan {
            modules: 120,
            seed: 11,
            depth: 6,
            max_family: 16,
            shared_shape_every: 8,
            shared_shapes: 4,
        }
    }

    #[test]
    fn module_count_is_exact_and_ids_are_structural() {
        let world = build_scaled(&small_plan());
        assert_eq!(world.module_count(), 120);
        assert_eq!(world.universe.catalog.available_ids().len(), 120);
        let first = &world.families[0];
        assert_eq!(first.members[0].as_str(), "sc000000.00");
    }

    #[test]
    fn worlds_are_deterministic_in_the_plan_and_sensitive_to_the_seed() {
        let a = build_scaled(&small_plan());
        let b = build_scaled(&small_plan());
        let ids = |w: &ScaledWorld| w.universe.catalog.available_ids();
        assert_eq!(ids(&a), ids(&b));
        // Behavior is deterministic too: same module, same input, same output.
        let id = &a.families[0].members[0];
        let probe = vec![Value::text("ec:probe:0001:deadbeef")];
        let out_a = a.universe.catalog.get(id).unwrap().invoke(&probe).unwrap();
        let out_b = b.universe.catalog.get(id).unwrap().invoke(&probe).unwrap();
        assert_eq!(out_a, out_b);

        let mut other = small_plan();
        other.seed = 12;
        let c = build_scaled(&other);
        assert_ne!(
            a.families
                .iter()
                .map(|f| f.members.len())
                .collect::<Vec<_>>(),
            c.families
                .iter()
                .map(|f| f.members.len())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn family_sizes_are_heavy_tailed() {
        let world = build_scaled(&ScalePlan::new(2_000, 3));
        let sizes: Vec<usize> = world.families.iter().map(|f| f.members.len()).collect();
        let small = sizes.iter().filter(|&&s| s <= 2).count();
        let max = sizes.iter().copied().max().unwrap();
        assert!(
            small * 4 >= sizes.len(),
            "expected >=25% small families, got {small}/{}",
            sizes.len()
        );
        assert!(max >= 8, "expected a heavy tail, max family was {max}");
    }

    #[test]
    fn category_mass_is_heavy_tailed() {
        let world = build_scaled(&ScalePlan::new(2_000, 3));
        let mut mass = BTreeMap::new();
        for fam in &world.families {
            *mass.entry(fam.category).or_insert(0usize) += fam.members.len();
        }
        let max = *mass.values().max().unwrap();
        let min = *mass.values().min().unwrap();
        assert!(
            max >= 4 * min.max(1),
            "expected skewed category mass, got {mass:?}"
        );
    }

    #[test]
    fn ontology_reaches_the_planned_depth() {
        let plan = small_plan();
        let world = build_scaled(&plan);
        let onto = &world.universe.ontology;
        let max_depth = onto.iter().map(|c| onto.depth(c)).max().unwrap();
        assert!(
            max_depth >= plan.depth as u32,
            "max depth {max_depth} < planned {}",
            plan.depth
        );
        // Family input concepts really have the two partition children.
        let fam = &world.families[0];
        let parent = onto.id(&fam.input_concept).expect("input concept exists");
        assert_eq!(onto.partitions_of(parent).len(), 3);
    }

    #[test]
    fn shared_shapes_produce_interface_collisions() {
        let world = build_scaled(&small_plan());
        let shared: Vec<&FamilyInfo> = world
            .families
            .iter()
            .filter(|f| f.shared_shape.is_some())
            .collect();
        assert!(
            shared.len() >= 2,
            "plan should produce shared-shape families"
        );
        let by_shape: BTreeMap<usize, usize> = shared.iter().fold(BTreeMap::new(), |mut acc, f| {
            *acc.entry(f.shared_shape.unwrap()).or_insert(0) += 1;
            acc
        });
        assert!(
            by_shape.values().any(|&n| n >= 2),
            "some shape must be reused across families: {by_shape:?}"
        );
    }

    #[test]
    fn member_roles_yield_the_expected_verdicts() {
        let plan = ScalePlan {
            modules: 80,
            seed: 7,
            depth: 5,
            max_family: 16,
            shared_shape_every: 0,
            shared_shapes: 0,
        };
        let world = build_scaled(&plan);
        let pool = build_text_pool(&world.universe.ontology, 6, plan.seed);
        let fam = world
            .families
            .iter()
            .find(|f| f.members.len() >= 4)
            .expect("a family with all four roles");
        assert_eq!(
            &fam.roles[..4],
            &[
                MemberRole::Anchor,
                MemberRole::Equivalent,
                MemberRole::Overlapping,
                MemberRole::Distinct
            ]
        );
        let module = |i: usize| world.universe.catalog.get(&fam.members[i]).unwrap();
        let anchor = module(0);
        let verdict = |candidate: usize| {
            compare_modules(
                anchor.as_ref(),
                module(candidate).as_ref(),
                &world.universe.ontology,
                &pool,
                &GenerationConfig::default(),
            )
            .unwrap_or_else(|e| panic!("role members are comparable: {e}"))
        };
        assert!(matches!(verdict(1), MatchVerdict::Equivalent { .. }));
        assert!(matches!(verdict(2), MatchVerdict::Overlapping { .. }));
        assert!(matches!(verdict(3), MatchVerdict::Disjoint { .. }));
    }
}
