//! Fixture: hot-path allocation rule. Scanned by `fixture_findings.rs` with a
//! library rel-path; the engine's workspace walk skips `fixtures/` directories.

// analysis: hot_path
pub fn hot_with_violations(xs: &[u32]) -> usize {
    let grown = vec![0u32; xs.len()]; // line 6: vec! macro
    let copied = xs.to_vec(); // line 7: .to_vec()
    let mut scratch: Vec<u32> = Vec::new(); // line 8: Vec::new
    scratch.extend_from_slice(&copied);
    grown.len() + scratch.len()
}

// analysis: hot_path
pub fn hot_with_grant(xs: &[u32]) -> Vec<u32> {
    // analysis: allow(alloc, reason = "the returned buffer is the output")
    let mut out = Vec::with_capacity(xs.len());
    out.extend_from_slice(xs);
    out
}

pub fn cold_allocates_freely(xs: &[u32]) -> Vec<u32> {
    let mut out = xs.to_vec();
    out.push(0);
    out
}

#[cfg(test)]
mod tests {
    // analysis: hot_path
    fn hot_in_tests_is_still_checked() -> Vec<u32> {
        Vec::new() // line 31: hot_path applies inside tests too
    }
}

// analysis: hot_path
pub fn hot_turbofish_ctor() -> usize {
    Vec::<u8>::with_capacity(1).capacity() // line 37: turbofish on the type
}
