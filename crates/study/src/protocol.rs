//! The two-phase study protocol of §5.

use crate::user::UserModel;
use dex_core::ExampleSet;
use dex_modules::ModuleId;
use dex_universe::{Category, Universe};
use std::collections::{BTreeMap, BTreeSet};

/// One participant's results.
#[derive(Debug, Clone)]
pub struct UserOutcome {
    /// Participant name.
    pub user: String,
    /// Modules identified from name + annotations alone (phase 1).
    pub identified_without: BTreeSet<ModuleId>,
    /// Modules identified after examining data examples (phase 2;
    /// superset of phase 1 — the paper observed no regressions).
    pub identified_with: BTreeSet<ModuleId>,
    /// Phase-2 identification per category: `(identified, total)`.
    pub per_category: BTreeMap<Category, (usize, usize)>,
}

impl UserOutcome {
    /// Phase-1 count.
    pub fn without_count(&self) -> usize {
        self.identified_without.len()
    }

    /// Phase-2 count.
    pub fn with_count(&self) -> usize {
        self.identified_with.len()
    }
}

/// The full study result.
#[derive(Debug, Clone)]
pub struct StudyOutcome {
    /// Per-user outcomes, in panel order.
    pub users: Vec<UserOutcome>,
    /// Number of modules shown.
    pub modules: usize,
}

impl StudyOutcome {
    /// Mean phase-2 identification rate across users — the paper's "in
    /// average the three users were able to correctly identify the behavior
    /// of 73% of the modules".
    pub fn mean_with_rate(&self) -> f64 {
        if self.users.is_empty() || self.modules == 0 {
            return 0.0;
        }
        let total: usize = self.users.iter().map(UserOutcome::with_count).sum();
        total as f64 / (self.users.len() * self.modules) as f64
    }
}

/// Runs the two-phase protocol over every available module of the universe.
///
/// `examples` pairs module ids with the data examples generated for them,
/// as the incremental engine's reports lend them; modules without examples
/// convey nothing extra in phase 2.
pub fn run_user_study<'a>(
    universe: &Universe,
    examples: impl IntoIterator<Item = (&'a ModuleId, &'a ExampleSet)>,
) -> StudyOutcome {
    let examples: BTreeMap<&ModuleId, &ExampleSet> = examples.into_iter().collect();
    let panel = UserModel::panel();
    let empty = |id: &ModuleId| ExampleSet::new(id.clone());
    let mut users = Vec::with_capacity(panel.len());

    for user in &panel {
        let mut identified_without = BTreeSet::new();
        let mut identified_with = BTreeSet::new();
        let mut per_category: BTreeMap<Category, (usize, usize)> = Category::ALL
            .iter()
            .map(|c| (*c, (0usize, 0usize)))
            .collect();

        for (id, category) in &universe.categories {
            let descriptor = universe
                .catalog
                .descriptor(id)
                .expect("available module registered");
            let popular = universe.popular.contains(id);
            let unfamiliar = universe.unfamiliar_output.contains(id);
            let phase1 = user.identifies_by_interface(descriptor, popular);
            if phase1 {
                identified_without.insert(id.clone());
            }
            let owned;
            let set = match examples.get(id) {
                Some(set) => *set,
                None => {
                    owned = empty(id);
                    &owned
                }
            };
            // Phase 2 is cumulative: the data examples are shown *in
            // addition* to everything phase 1 offered.
            let phase2 =
                phase1 || user.identifies_with_examples(descriptor, set, *category, unfamiliar);
            let entry = per_category.get_mut(category).expect("all categories");
            entry.1 += 1;
            if phase2 {
                identified_with.insert(id.clone());
                entry.0 += 1;
            }
        }

        users.push(UserOutcome {
            user: user.name.clone(),
            identified_without,
            identified_with,
            per_category,
        });
    }

    StudyOutcome {
        users,
        modules: universe.categories.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dex_core::{generate_examples, GenerationConfig};
    use dex_pool::build_synthetic_pool;

    /// The study over every module shown, each module's examples from its
    /// own generation.
    fn study() -> StudyOutcome {
        let universe = dex_universe::build();
        let pool = build_synthetic_pool(&universe.ontology, 4, 9);
        let examples: BTreeMap<ModuleId, ExampleSet> = universe
            .categories
            .keys()
            .map(|id| {
                let module = universe
                    .catalog
                    .get(id)
                    .expect("shown modules are available");
                let report = generate_examples(
                    module.as_ref(),
                    &universe.ontology,
                    &pool,
                    &GenerationConfig::default(),
                )
                .unwrap_or_else(|e| panic!("{id}: {e}"));
                (id.clone(), report.examples)
            })
            .collect();
        run_user_study(&universe, &examples)
    }

    #[test]
    fn figure5_shape_holds() {
        let outcome = study();
        assert_eq!(outcome.users.len(), 3);
        assert_eq!(outcome.modules, 252);
        for user in &outcome.users {
            // Phase 1: a minority, in the tens (paper: 47 for user1).
            assert!(
                (30..70).contains(&user.without_count()),
                "{}: {}",
                user.user,
                user.without_count()
            );
            // Phase 2: the clear majority (paper: 169 for user1).
            assert!(
                (150..200).contains(&user.with_count()),
                "{}: {}",
                user.user,
                user.with_count()
            );
            // Monotone: nothing un-identified by seeing examples.
            assert!(user.identified_without.is_subset(&user.identified_with));
        }
        // Mean identification ≈ 73% (paper §5).
        let mean = outcome.mean_with_rate();
        assert!((0.60..0.80).contains(&mean), "mean rate {mean}");
    }

    #[test]
    fn per_category_findings_match_section5() {
        let outcome = study();
        for user in &outcome.users {
            let c = &user.per_category;
            // Shims: fully identified.
            assert_eq!(c[&Category::FormatTransformation].0, 53, "{}", user.user);
            assert_eq!(c[&Category::MappingIdentifiers].0, 62, "{}", user.user);
            // Retrieval: all but the unfamiliar-output modules (8), modulo
            // the popular ones the user knew by name anyway.
            let (dr_hit, dr_total) = c[&Category::DataRetrieval];
            assert_eq!(dr_total, 51);
            assert!((43..=47).contains(&dr_hit), "{}: {dr_hit}", user.user);
            // Filtering and analysis: small fractions.
            let (f_hit, f_total) = c[&Category::Filtering];
            assert_eq!(f_total, 27);
            assert!((2..=10).contains(&f_hit), "{}: {f_hit}", user.user);
            let (da_hit, da_total) = c[&Category::DataAnalysis];
            assert_eq!(da_total, 59);
            assert!((4..=16).contains(&da_hit), "{}: {da_hit}", user.user);
        }
    }

    #[test]
    fn without_examples_everything_needs_popularity() {
        let outcome = study();
        let universe = dex_universe::build();
        for user in &outcome.users {
            for id in &user.identified_without {
                assert!(universe.popular.contains(id), "{}: {id}", user.user);
            }
        }
    }
}
