//! # cgra-iso — subgraph monomorphism search
//!
//! The spatial half of the `monomap` mapper (paper §IV-C): given the
//! scheduled DFG (an undirected graph whose vertices are labelled with
//! kernel slots) and the MRRG (a much larger labelled graph), find an
//! **injective, label-preserving, edge-preserving** map — a
//! monomorphism (paper §IV-A, properties mono1–mono3).
//!
//! The engine is a VF2-family backtracking search in the spirit of the
//! algorithms the paper cites (RI, VF3), specialised to the structure of
//! the problem:
//!
//! * vertices are matched in a connectivity-first order (greatest
//!   constraint first), so candidate sets shrink by neighbourhood
//!   intersection rather than label scan;
//! * candidate sets are bit sets; each extension intersects the
//!   neighbourhood bit rows of already-mapped neighbours;
//! * label partitioning (every DFG node can only map into its own MRRG
//!   time layer) and degree pruning are applied up front;
//! * a step budget makes the search interruptible for the mapper's
//!   timeout handling.
//!
//! The crate is independent of CGRA specifics: it works on any pair of
//! labelled graphs.
//!
//! ## Example
//!
//! ```
//! use cgra_iso::{Pattern, Target, find_monomorphism};
//!
//! // Pattern: a labelled path a(0) - b(1) - c(0).
//! let pattern = Pattern::new(vec![0, 1, 0], vec![(0, 1), (1, 2)]);
//! // Target: a labelled square with one diagonal.
//! let mut target = Target::new(vec![0, 1, 0, 1]);
//! for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)] {
//!     target.add_edge(a, b);
//! }
//! let m = find_monomorphism(&pattern, &target).expect("embeddable");
//! assert_eq!(m.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod search;

pub use cgra_base::CancelFlag;
pub use graph::{Pattern, Target};
pub use search::{
    count_monomorphisms, find_monomorphism, is_monomorphism, MonoOutcome, MonoStats, SearchConfig,
    Searcher,
};
