//! Module categories (the paper's Table 3 taxonomy of data manipulation).

use serde::{Deserialize, Serialize};
use std::fmt;

/// The five kinds of data manipulation the paper classifies its 252 modules
/// into (§5, Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Category {
    /// Shims translating between representations (Uniprot → FASTA, …).
    FormatTransformation,
    /// Accession → record lookups against scientific databases.
    DataRetrieval,
    /// Identifier translation between data sources (Uniprot → GO, …).
    MappingIdentifiers,
    /// Extracting the input values meeting given criteria.
    Filtering,
    /// Complex analyses: alignment, identification, text mining, ….
    DataAnalysis,
}

impl Category {
    /// All categories in Table 3 order.
    pub const ALL: [Category; 5] = [
        Category::FormatTransformation,
        Category::DataRetrieval,
        Category::MappingIdentifiers,
        Category::Filtering,
        Category::DataAnalysis,
    ];

    /// The paper's Table 3 module count for this category.
    pub fn paper_count(self) -> usize {
        match self {
            Category::FormatTransformation => 53,
            Category::DataRetrieval => 51,
            Category::MappingIdentifiers => 62,
            Category::Filtering => 27,
            Category::DataAnalysis => 59,
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Category::FormatTransformation => "format transformation",
            Category::DataRetrieval => "data retrieval",
            Category::MappingIdentifiers => "mapping identifiers",
            Category::Filtering => "filtering",
            Category::DataAnalysis => "data analysis",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_counts_sum_to_252() {
        let total: usize = Category::ALL.iter().map(|c| c.paper_count()).sum();
        assert_eq!(total, 252);
    }

    #[test]
    fn display_names() {
        assert_eq!(Category::Filtering.to_string(), "filtering");
    }
}
