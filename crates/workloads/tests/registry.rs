//! Pins the registry's lookups to its full listing: `by_name` and
//! `names` must agree with `all_small` entry for entry, program
//! included, so every compile key derived from a looked-up program
//! matches the one derived from the listing.

use sara_workloads::{all_small, by_name, names};

#[test]
fn by_name_matches_the_listing_field_for_field() {
    let listed = all_small();
    for name in names() {
        let w = by_name(name).unwrap_or_else(|| panic!("{name}: listed but not found"));
        let e = listed.iter().find(|e| e.name == name).expect("names() lists all_small()");
        assert_eq!(w.name, e.name);
        assert_eq!(w.domain, e.domain, "{name}: domain");
        assert_eq!(w.data_dependent, e.data_dependent, "{name}: data_dependent");
        assert_eq!(w.tunable_loops, e.tunable_loops, "{name}: tunable_loops");
        assert_eq!(w.program, e.program, "{name}: program");
    }
}

#[test]
fn names_list_the_registry_in_order() {
    let listed: Vec<&str> = all_small().iter().map(|w| w.name).collect();
    assert_eq!(names(), listed);
    assert_eq!(listed.len(), 16);
    assert!(by_name("nonexistent").is_none());
    assert!(by_name("").is_none());
}
