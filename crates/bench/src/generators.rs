//! The full generator registry: base families plus hard instances.
//!
//! `localavg_graph::gen::registry()` holds the families the graph crate
//! can express by itself; the lower-bound hard instances
//! (`lb/cluster-tree/*`, `lb/lift/*`, `lb/doubled/1`) live in
//! `localavg_lowerbound::families` because the graph crate cannot depend
//! on the lower-bound crate. This module is where the two meet: every
//! measurement front end in this crate (`exp sweep`, `exp fuzz`, `exp
//! serve`) resolves generator keys through [`registry`] (by way of
//! [`crate::cell::family`]), so hard instances are ordinary workloads
//! everywhere.

use localavg_graph::gen::GenRegistry;
use std::sync::OnceLock;

/// The composed registry: every base family of
/// [`localavg_graph::gen::registry`] followed by every lower-bound
/// family of [`localavg_lowerbound::families::generators`].
pub fn registry() -> &'static GenRegistry {
    static REGISTRY: OnceLock<GenRegistry> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut entries: Vec<_> = localavg_graph::gen::registry().iter().copied().collect();
        entries.extend(localavg_lowerbound::families::generators());
        GenRegistry::from_entries(entries)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_registry_contains_both_layers() {
        let r = registry();
        for key in [
            "regular/4",
            "tree/random",
            "tree/bounded/3",
            "tree/caterpillar",
            "tree/spider",
            "lb/cluster-tree/1",
            "lb/cluster-tree/2",
            "lb/lift/1",
            "lb/lift/2",
            "lb/doubled/1",
        ] {
            assert!(r.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            r.len(),
            localavg_graph::gen::registry().len()
                + localavg_lowerbound::families::generators().len()
        );
    }

    #[test]
    fn composed_registry_suggests_across_layers() {
        assert_eq!(registry().suggest("lb/lifft/1"), Some("lb/lift/1"));
        assert_eq!(registry().suggest("regullar/8"), Some("regular/8"));
        assert_eq!(registry().suggest("zzzz"), None);
    }
}
