//! Fixture crate that violates every chainnet-lint rule. Never
//! compiled — only scanned by the chainnet-lint integration tests.

pub struct Registry;

pub fn r4_metrics(r: &Registry) {
    r.counter("code.only_metric").inc(); // R4: not in the README table
    r.gauge("Bad-Name").set(1.0); // R4: charset violation
}

pub fn r5_stringly() -> Result<(), String> {
    // R5
    Err("stringly".to_string())
}

pub fn r5_boxed() -> Result<(), Box<dyn std::error::Error>> {
    // R5
    Ok(())
}

// lint:zero_alloc
pub fn r6_allocating_hot_loop(xs: &[u64]) -> u64 {
    let mut buf = Vec::new(); // R6
    buf.push(xs.len() as u64); // R6
    let doubled: Vec<u64> = xs.iter().map(|x| x * 2).collect(); // R6
    let label = format!("{}", doubled.len()); // R6
    buf[0] + label.len() as u64
}

pub fn r6_unannotated_fn_allocates_freely() -> Vec<u8> {
    // Negative case: no `lint:zero_alloc` marker, so R6 stays silent.
    let mut v = Vec::new();
    v.push(1);
    v
}

pub fn r8_float_order(xs: &mut [f64]) -> Option<f64> {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); // R8: one site
    xs.iter()
        .copied()
        .max_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal)) // R8: one site
}

pub fn r8_total_cmp_is_clean(xs: &mut [f64]) {
    // Negative case: total order comparator, R8 stays silent.
    xs.sort_by(|a, b| a.total_cmp(b));
}

// lint:allow(alloc_hygiene) missing the colon-reason — R0 malformed annotation
pub fn r0_bad_annotation() {}

pub fn masked_patterns_do_not_fire() -> &'static str {
    // None of the patterns below may produce a violation: they sit in
    // comments and string literals. a.partial_cmp(b).unwrap() /
    // r.gauge("Bad-Name") / pub fn f() -> Result<(), String> (comment mentions).
    "contains a.partial_cmp(b).unwrap() and pub fn f() -> Result<(), String>"
}

#[cfg(test)]
mod tests {
    pub fn helper() -> Result<(), String> {
        Ok(())
    }

    #[test]
    fn test_code_is_exempt() {
        let mut xs = [2.0f64, 1.0];
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        helper().unwrap();
    }

    // lint:zero_alloc
    #[test]
    fn zero_alloc_marker_is_inert_in_tests() {
        // R6 ignores `#[cfg(test)]` items even when annotated.
        let mut v = Vec::new();
        v.push(1.5f64);
    }
}
