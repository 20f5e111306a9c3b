//! Helpers shared by the artifact regression tests.

/// FNV-1a over a rendered artifact's bytes.
pub fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// Asserts the FNV-1a digest of each named rendering against its pinned
/// value. The pins were taken from the renderer before it moved onto the
/// row schema, so any change to a column's order, format or separator
/// fails here; the message lists every digest so that a deliberate
/// change can re-pin them.
pub fn assert_digests(renders: &[(&str, &str)], pinned: &[u64]) {
    let got: Vec<u64> = renders.iter().map(|(_, s)| fnv1a(s)).collect();
    let report: Vec<String> = renders
        .iter()
        .zip(&got)
        .map(|((name, _), d)| format!("{name}: {d:#018x}"))
        .collect();
    assert_eq!(got, pinned, "rendered bytes moved: {}", report.join(", "));
}
