//! The `CachePolicy` contract on the small request shape, and the §6 and
//! §8 references on the long ones. Every case runs through the lockstep
//! oracle ([`oracle`]), which checks the contract and the paper-literal
//! reference on every request.

mod oracle;

#[test]
fn lru_contract() {
    oracle::lru_small();
}

#[test]
fn xlru_contract() {
    oracle::xlru_small();
}

#[test]
fn cafe_contract() {
    oracle::cafe_small();
}

#[test]
fn psychic_contract() {
    oracle::psychic_small();
}

#[test]
fn policies_are_deterministic() {
    oracle::cafe_twice();
}

#[test]
fn full_hits_are_always_served() {
    oracle::cafe_full_hits();
}

#[test]
fn cafe_matches_reference() {
    oracle::cafe_long();
}

#[test]
fn psychic_matches_reference() {
    oracle::psychic_long();
}
