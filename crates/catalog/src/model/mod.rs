//! The generic entity–relationship data model (§4.2.2).
//!
//! Every securable is an [`entity::Entity`] persisted in the backing
//! database together with index rows maintained in the same transaction:
//! the order-preserving tree index ([`treekey`], DESIGN.md §11) — the one
//! name index, which gives namespace uniqueness and makes by-name reads
//! point gets and listings, subtree drops, and ancestor-chain resolution
//! single range scans — and a path index (the one-asset-per-path
//! invariant). [`manifest`] is the declarative asset-type registry:
//! per-kind privileges, hierarchy position, storage behaviour, and
//! validation hooks — the extension point through which registered
//! models were added (§4.2.3).

pub mod entity;
pub mod keys;
pub mod manifest;
pub mod paths;
pub mod treekey;
