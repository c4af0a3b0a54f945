//! Page identity.
//!
//! A page is an id and whatever range of rows its owner says it covers:
//! `parqp-data` views a relation's flat storage as fixed-size,
//! row-aligned pages and never copies a row into one. The store only
//! ever sees the id — the pool tracks which ids are resident, the
//! ledger counts touches — so there is no page *content* type here.

/// Globally unique page identifier, allocated monotonically by the
/// [`runtime`](crate::runtime) (or locally by an uninstalled owner).
pub type PageId = u64;
