//! `dexd` — the resident annotation service.
//!
//! Everything else in this workspace is batch-shaped: build the universe,
//! run the pipeline, print a table, exit. Real registries don't work that
//! way — clients ask "what does this module do?" and "what can replace
//! it?" continuously, and the expensive part (annotating every module and
//! matching every pair, §4–§6 of the paper) is the same work every time.
//! `dexd` pays that cost once: [`Dexd::launch`] bootstraps the full
//! operating state — catalog, ontology interval index, concept-indexed
//! pool, fingerprint index, live incremental pipeline with every module's
//! data examples — and then answers requests from it until told to stop.
//! The generation reports are the only record of past invocations it
//! keeps: a write regenerates a module from its own previous report.
//!
//! Three layers:
//!
//! - [`proto`] — the wire protocol: [`Request`]/[`Response`] enums framed
//!   as length-prefixed JSON.
//! - [`service`] — the core: admission control, panic containment, and
//!   the readers/writer pipeline lock. A request is answered on the thread
//!   that sends it; [`Client`] drives it in-process.
//! - [`server`] — the Unix-socket front end ([`serve_unix`]) and the
//!   matching [`SocketClient`].
//!
//! ```no_run
//! use dexd::{Client, Dexd, Request, Response, ServiceConfig};
//!
//! let svc = Dexd::launch(&ServiceConfig::default());
//! let client = Client::new(svc.clone());
//! match client.call(Request::FindSubstitutes { id: "blast".into() }) {
//!     Response::Substitutes(reply) => println!("{} candidates", reply.ranked.len()),
//!     other => eprintln!("{other:?}"),
//! }
//! svc.shutdown();
//! svc.join();
//! ```

pub mod proto;
pub mod server;
pub mod service;

pub use proto::{
    read_frame, read_message, write_frame, write_message, AnnotationReply, BrokenStep, Request,
    Response, StatsReply, SubstitutesReply, ValidationReply, MAX_FRAME,
};
pub use server::{serve_unix, SocketClient};
pub use service::{Client, Dexd, ServiceConfig};
