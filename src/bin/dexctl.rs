//! `dexctl` — command-line explorer for the data-examples system.
//!
//! ```text
//! dexctl list [category]        list modules (optionally one category)
//! dexctl show <module-id>       interface + generated data examples
//! dexctl search [--consumes C] [--produces C] [--name N]
//! dexctl compare <a> <b>        behavior comparison verdict
//! dexctl suggest <module-id>    data-example-guided downstream suggestions
//! dexctl partitions <concept>   ontology partitions of a concept
//! dexctl ontology               print the annotation ontology
//! ```
//!
//! Everything runs against the built-in synthetic universe with fixed
//! seeds, so output is reproducible.

use data_examples::core::{
    compare_modules, generate_examples, suggest_downstream, GenerationConfig,
};
use data_examples::ontology::mygrid;
use data_examples::pool::build_synthetic_pool;
use data_examples::registry::SearchQuery;
use data_examples::universe::{Category, Universe};
use std::process::ExitCode;

/// Writes a line to stdout, exiting quietly when the reader has gone away
/// (`dexctl … | head` closes the pipe early; that is not an error).
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write;
        let mut stdout = std::io::stdout();
        if writeln!(stdout, $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // The most arguments each command takes after its name; `search` checks
    // its own flags, and an unknown command is reported below.
    let takes = match command.as_str() {
        "list" | "show" | "suggest" | "partitions" => 1,
        "compare" => 2,
        "ontology" | "help" | "--help" | "-h" => 0,
        _ => usize::MAX,
    };
    if let Some(surplus) = args.get(takes.saturating_add(1)) {
        eprintln!("unexpected argument `{surplus}`\n{USAGE}");
        return ExitCode::FAILURE;
    }
    let universe = data_examples::universe::build();
    match command.as_str() {
        "list" => list(&universe, args.get(1).map(String::as_str)),
        "show" => with_arg(&args, 1, "module id", |id| show(&universe, id)),
        "search" => search(&universe, &args[1..]),
        "compare" => {
            let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
                eprintln!("usage: dexctl compare <module-a> <module-b>");
                return ExitCode::FAILURE;
            };
            compare(&universe, a, b)
        }
        "suggest" => with_arg(&args, 1, "module id", |id| suggest(&universe, id)),
        "partitions" => with_arg(&args, 1, "concept name", |c| partitions(&universe, c)),
        "ontology" => {
            out!("{}", mygrid::MYGRID_TEXT.trim_end());
            ExitCode::SUCCESS
        }
        "help" | "--help" | "-h" => {
            out!("{}", USAGE.trim_end());
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
dexctl — explore scientific modules through data examples

usage:
  dexctl list [category]        categories: ft, dr, mi, filter, da
  dexctl show <module-id>       interface + generated data examples
  dexctl search [--consumes C] [--produces C] [--name N]
  dexctl compare <a> <b>        behavior comparison verdict
  dexctl suggest <module-id>    downstream composition suggestions
  dexctl partitions <concept>   ontology partitions of a concept
  dexctl ontology               print the annotation ontology
";

fn with_arg(
    args: &[String],
    idx: usize,
    what: &str,
    run: impl FnOnce(&str) -> ExitCode,
) -> ExitCode {
    match args.get(idx) {
        Some(value) => run(value),
        None => {
            eprintln!("missing {what}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn parse_category(tag: &str) -> Option<Category> {
    match tag {
        "ft" | "format" => Some(Category::FormatTransformation),
        "dr" | "retrieval" => Some(Category::DataRetrieval),
        "mi" | "mapping" => Some(Category::MappingIdentifiers),
        "filter" | "filtering" => Some(Category::Filtering),
        "da" | "analysis" => Some(Category::DataAnalysis),
        _ => None,
    }
}

fn list(universe: &Universe, category: Option<&str>) -> ExitCode {
    let filter = match category {
        Some(tag) => match parse_category(tag) {
            Some(c) => Some(c),
            None => {
                eprintln!("unknown category `{tag}` (use ft, dr, mi, filter, da)");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    for (id, cat) in &universe.categories {
        if filter.is_some_and(|f| f != *cat) {
            continue;
        }
        let d = universe.catalog.descriptor(id).expect("registered");
        out!("{id:<36} [{cat}] {}", d.signature());
    }
    ExitCode::SUCCESS
}

fn show(universe: &Universe, id: &str) -> ExitCode {
    let module_id = id.into();
    let Some(descriptor) = universe.catalog.descriptor(&module_id) else {
        eprintln!("unknown module `{id}`");
        return ExitCode::FAILURE;
    };
    out!("id:        {}", descriptor.id);
    out!("name:      {}", descriptor.name);
    out!("kind:      {}", descriptor.kind);
    if let Some(category) = universe.categories.get(&module_id) {
        out!("category:  {category}");
    }
    out!("signature: {}", descriptor.signature());
    if !universe.catalog.is_available(&module_id) {
        out!("status:    WITHDRAWN by its provider");
        return ExitCode::SUCCESS;
    }
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    let module = universe.catalog.get(&module_id).expect("available");
    match generate_examples(
        module.as_ref(),
        &universe.ontology,
        &pool,
        &GenerationConfig::default(),
    ) {
        Ok(report) => {
            out!("\ndata examples ({}):", report.examples.len());
            for example in report.examples.iter() {
                out!("  {example}");
            }
        }
        Err(e) => out!("\nexample generation failed: {e}"),
    }
    ExitCode::SUCCESS
}

fn search(universe: &Universe, flags: &[String]) -> ExitCode {
    let mut query = SearchQuery::any();
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let target = match flag.as_str() {
            "--consumes" => &mut query.consumes,
            "--produces" => &mut query.produces,
            "--name" => &mut query.name_contains,
            other => {
                eprintln!("unknown flag `{other}`");
                return ExitCode::FAILURE;
            }
        };
        match it.next() {
            Some(value) => *target = Some(value.clone()),
            None => {
                eprintln!("flag `{flag}` needs a value");
                return ExitCode::FAILURE;
            }
        }
    }
    let hits = match query.run(&universe.catalog, &universe.ontology) {
        Ok(hits) => hits,
        Err(unknown) => {
            eprintln!("{unknown}");
            return ExitCode::FAILURE;
        }
    };
    for d in &hits {
        out!("{:<36} {}", d.id, d.signature());
    }
    out!("\n{} modules", hits.len());
    ExitCode::SUCCESS
}

fn compare(universe: &Universe, a: &str, b: &str) -> ExitCode {
    let (Some(ma), Some(mb)) = (
        universe.catalog.get(&a.into()),
        universe.catalog.get(&b.into()),
    ) else {
        eprintln!("both modules must exist and be available");
        return ExitCode::FAILURE;
    };
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    match compare_modules(
        ma.as_ref(),
        mb.as_ref(),
        &universe.ontology,
        &pool,
        &GenerationConfig::default(),
    ) {
        Ok(verdict) => {
            out!("{a} vs {b}: {verdict}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot compare: {e}");
            ExitCode::FAILURE
        }
    }
}

fn suggest(universe: &Universe, id: &str) -> ExitCode {
    let module_id = id.into();
    let Some(module) = universe.catalog.get(&module_id) else {
        eprintln!("unknown or withdrawn module `{id}`");
        return ExitCode::FAILURE;
    };
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    let report = match generate_examples(
        module.as_ref(),
        &universe.ontology,
        &pool,
        &GenerationConfig::default(),
    ) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("example generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let suggestions = suggest_downstream(
        module.as_ref(),
        &report.examples,
        &universe.catalog,
        &universe.ontology,
    );
    out!("downstream suggestions for {id} (by empirical acceptance):");
    for s in suggestions.iter().take(15) {
        out!(
            "  {:<36} {:>3.0}%  (output {} -> input {})",
            s.module,
            s.score.ratio() * 100.0,
            s.score.upstream_output,
            s.score.downstream_input
        );
    }
    ExitCode::SUCCESS
}

fn partitions(universe: &Universe, concept: &str) -> ExitCode {
    let ontology = &universe.ontology;
    let Some(id) = ontology.id(concept) else {
        eprintln!("unknown concept `{concept}`");
        return ExitCode::FAILURE;
    };
    out!("partitions of the domain of `{concept}`:");
    for p in ontology.partitions_of(id) {
        out!("  {}", ontology.concept_name(p));
    }
    ExitCode::SUCCESS
}
