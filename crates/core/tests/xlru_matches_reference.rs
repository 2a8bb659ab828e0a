//! xLRU and plain LRU against Figure 1 (§5) on the hot/cold request shape,
//! through the lockstep oracle ([`oracle`]).

mod oracle;

#[test]
fn lru_matches_reference() {
    oracle::lru_hot_cold();
}

#[test]
fn xlru_matches_reference() {
    oracle::xlru_restores();
}
