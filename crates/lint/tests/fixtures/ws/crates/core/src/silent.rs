//! Constructs the rules must read past: no line here may be reported,
//! though every name below is declared an integer.

pub struct Sizes { pub len_bytes: u64 }

pub fn operands<T: Add<Output = T> + Sub>(a: &Sizes, x_ms: u64, n_bytes: &u64, r: f64) -> f64 {
    let d_ms = *n_bytes;
    let p = &mut d_ms.clone();
    let f = |w_ms: u64| w_ms + 1;
    assert!(matches!(xs(), [0, ..]), "{}", f(0) + a.len_bytes() + foo(*n_bytes, &d_ms));
    x_ms as f64 * r + ((x_ms >> 3) + (x_ms << 2)) as f64 + *p.max(&mut 0) as f64
}

#[test]
fn outside_a_test_module(xs: &[u8], t_ms: u64) -> bool { xs[0] == 1 && 1.0 == 0.5 && t_ms + 1 > 0 }

pub mod outer {
    #[cfg(test)]
    mod inner { fn f(xs: &[u8], t_ms: u64) -> u64 { xs[0] as u64 + t_ms } }
}

pub fn items(xs: &[u8]) -> u8 {
    const FIRST: u8 = [1, 2][0];
    macro_rules! first { ($v:expr) => { $v[0] == 1.0 }; }
    let (buf, v) = ([0u8; 4], vec![0]);
    for x in [0] { g(x); }
    if let [a, .., z] = xs { g(*a + *z); }
    let [_, second] = [buf, buf];
    #[allow(unused)]
    [0][..].len() as u8 + FIRST + v.len() as u8 + second.len() as u8
}
