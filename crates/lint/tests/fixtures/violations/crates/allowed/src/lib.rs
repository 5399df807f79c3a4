//! Fixture crate where every would-be violation carries a well-formed
//! `lint:allow` annotation — contributes no rule violation and a
//! positive suppressed count. The one exception is a stale annotation
//! that suppresses nothing, which is reported as R0.

// lint:allow(error_hygiene): fixture — legacy API kept for compatibility
pub fn allowed_stringly() -> Result<(), String> {
    Ok(())
}

// lint:zero_alloc
pub fn allowed_alloc() -> Vec<u8> {
    // lint:allow(alloc_hygiene): fixture — a multi-line reason keeps
    // its coverage through the rest of the comment block
    let mut v = Vec::new();
    v.push(1); // lint:allow(alloc_hygiene): fixture — trailing form
    v
}

pub fn allowed_float(xs: &mut [f64]) {
    // lint:allow(float_order): fixture — comparator is total on this data
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
}

// lint:zero_alloc
pub fn stale_allow(buf: &mut [u8]) {
    // lint:allow(alloc_hygiene): fixture — stale, nothing below allocates
    buf[0] = 1;
}
