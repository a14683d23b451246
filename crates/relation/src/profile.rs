//! Key-distribution profiling.
//!
//! The paper's closing future-work item is "a complete cost model for
//! cyclo-join" (§VII); a cost model is only as good as its workload
//! estimates. [`estimate_equi_matches`] computes the *exact* equi-join
//! output cardinality of two relations in O(|R| + |S|), the quantity the
//! analytic model needs most.

use std::collections::HashMap;

use crate::relation::Relation;
use crate::tuple::Key;

/// Exact equi-join output cardinality `|R ⋈ S|` in O(|R| + |S|) time:
/// `Σ_k count_R(k) · count_S(k)`.
pub fn estimate_equi_matches(r: &Relation, s: &Relation) -> u64 {
    // Count the smaller side, stream the larger.
    let (small, large) = if r.len() <= s.len() { (r, s) } else { (s, r) };
    let mut counts: HashMap<Key, u64> = HashMap::new();
    for &k in small.keys() {
        *counts.entry(k).or_insert(0) += 1;
    }
    large
        .keys()
        .iter()
        .map(|k| counts.get(k).copied().unwrap_or(0))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::GenSpec;
    use crate::relation::Relation;

    #[test]
    fn match_estimate_is_exact() {
        let r = GenSpec::uniform(1_500, 3).generate();
        let s = GenSpec::uniform(1_500, 4).generate();
        let mut brute = 0u64;
        for rt in r.iter() {
            for st in s.iter() {
                if rt.key == st.key {
                    brute += 1;
                }
            }
        }
        assert_eq!(estimate_equi_matches(&r, &s), brute);
        assert_eq!(estimate_equi_matches(&s, &r), brute);
    }

    #[test]
    fn empty_profiles() {
        let some = GenSpec::uniform(100, 5).generate();
        assert_eq!(estimate_equi_matches(&Relation::new(), &Relation::new()), 0);
        assert_eq!(estimate_equi_matches(&Relation::new(), &some), 0);
        assert_eq!(estimate_equi_matches(&some, &Relation::new()), 0);
    }
}
