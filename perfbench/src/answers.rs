//! Known answers, frozen in `answers/*.tsv` and compiled into the
//! binary. Nothing here is computed by the code under test at run time.

use std::collections::HashMap;

const EXPERIMENTS: &str = include_str!("../answers/experiments.tsv");
const DPOR_CLASSES: &str = include_str!("../answers/dpor_classes.tsv");
const LITMUS: &str = include_str!("../answers/litmus.tsv");
const ZOO: &str = include_str!("../answers/zoo.tsv");

fn rows(table: &'static str) -> impl Iterator<Item = Vec<&'static str>> {
    table
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split('\t').collect())
}

fn parse_bool(s: &str) -> bool {
    match s {
        "true" => true,
        "false" => false,
        other => panic!("answer table holds {other:?} where true/false belongs"),
    }
}

/// Fixed experiment id → whether the paper says a violating trace exists.
pub fn experiment_violates() -> HashMap<&'static str, bool> {
    rows(EXPERIMENTS)
        .map(|r| (r[0], r[1] == "violation"))
        .collect()
}

/// Exhaustive experiment id → history classes the brute-force oracle found.
pub fn dpor_classes() -> HashMap<&'static str, usize> {
    rows(DPOR_CLASSES)
        .map(|r| (r[0], r[1].parse().expect("class count is a number")))
        .collect()
}

/// `(litmus/outcome, model key, kind)` → verdict.
pub fn litmus() -> HashMap<(&'static str, &'static str, &'static str), bool> {
    rows(LITMUS)
        .map(|r| ((r[0], r[1], r[2]), parse_bool(r[3])))
        .collect()
}

/// `(algorithm, model key)` → every sampled trace opaque.
pub fn zoo() -> HashMap<(&'static str, &'static str), bool> {
    rows(ZOO)
        .map(|r| ((r[0], r[1]), parse_bool(r[2])))
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn tables_have_the_documented_sizes() {
        assert_eq!(super::experiment_violates().len(), 20);
        assert_eq!(super::dpor_classes().len(), 3);
        assert!(super::dpor_classes().values().all(|&c| c == 299));
        assert_eq!(super::litmus().len(), 544);
        assert_eq!(super::zoo().len(), 40);
    }
}
