//! Plain-text graph exchange format.
//!
//! A DIMACS-flavoured line format:
//!
//! ```text
//! p <n> <m>
//! e <u> <v> <w>
//! ...
//! c free-form comment
//! ```
//!
//! Vertices are 0-based. The format is intentionally minimal — it exists
//! so experiment inputs can be checked in and replayed.

use crate::graph::{Graph, GraphBuilder, TOTAL_WEIGHT_LIMIT};
use std::fmt::Write as _;

/// The largest vertex count [`parse_graph`] accepts: 2^24. Building a
/// graph allocates two `(n + 1)`-entry `u32` arrays whatever the edge
/// count, 128 MiB at this bound, so a header alone cannot ask for more.
pub const MAX_VERTICES: usize = 1 << 24;

/// Serialization error for [`parse_graph`]. Every malformed input —
/// truncated files, garbage records, negative weights, out-of-range
/// endpoints, self-loops — maps to a typed variant with the failing
/// line attached; the parser never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    MissingHeader,
    BadLine { line_no: usize, reason: String },
    EdgeCountMismatch { declared: usize, found: usize },
    /// An edge endpoint is `>= n` — would trip the builder's internal
    /// bounds assertion, so it is rejected here with context instead.
    EndpointOutOfRange { line_no: usize, endpoint: u32, n: usize },
    /// A self-loop `e v v w`. Loops carry no cut weight and the solver
    /// stack assumes loop-free inputs, so the parser rejects them
    /// rather than silently dropping weight.
    SelfLoop { line_no: usize, v: u32 },
    /// A negative edge weight. Weights are unsigned throughout the
    /// workspace (min-cut needs non-negative weights); a leading `-`
    /// gets this dedicated variant instead of a generic parse failure.
    NegativeWeight { line_no: usize },
    /// The running total edge weight reached [`TOTAL_WEIGHT_LIMIT`] at
    /// this line.
    WeightTooLarge { line_no: usize },
    /// The header's vertex count is above [`MAX_VERTICES`]. Rejected
    /// before anything is allocated for the vertices.
    TooManyVertices { line_no: usize, n: usize },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingHeader => write!(f, "missing 'p <n> <m>' header line"),
            ParseError::BadLine { line_no, reason } => {
                write!(f, "line {line_no}: {reason}")
            }
            ParseError::EdgeCountMismatch { declared, found } => {
                write!(f, "header declared {declared} edges but found {found}")
            }
            ParseError::EndpointOutOfRange { line_no, endpoint, n } => {
                write!(f, "line {line_no}: endpoint {endpoint} out of range for {n} vertices")
            }
            ParseError::SelfLoop { line_no, v } => {
                write!(f, "line {line_no}: self-loop at vertex {v}")
            }
            ParseError::NegativeWeight { line_no } => {
                write!(f, "line {line_no}: negative edge weight")
            }
            ParseError::WeightTooLarge { line_no } => {
                write!(f, "line {line_no}: total edge weight reaches 2^62, beyond the solver's range")
            }
            ParseError::TooManyVertices { line_no, n } => {
                write!(f, "line {line_no}: {n} vertices, above the limit of {MAX_VERTICES}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ParseError> for pmc_fault::PmcError {
    fn from(e: ParseError) -> Self {
        pmc_fault::PmcError::Parse { message: e.to_string() }
    }
}

/// Render a graph in the text format.
pub fn write_graph(g: &Graph) -> String {
    let mut out = String::with_capacity(16 + g.m() * 12);
    let _ = writeln!(out, "p {} {}", g.n(), g.m());
    for e in g.edges() {
        let _ = writeln!(out, "e {} {} {}", e.u, e.v, e.w);
    }
    out
}

/// Parse a graph from the text format.
pub fn parse_graph(text: &str) -> Result<Graph, ParseError> {
    let mut builder: Option<GraphBuilder> = None;
    let mut declared_n = 0usize;
    let mut declared_m = 0usize;
    let mut found_m = 0usize;
    let mut total = 0u64;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        let mut it = line.split_ascii_whitespace();
        match it.next() {
            Some("p") => {
                if builder.is_some() {
                    return Err(ParseError::BadLine {
                        line_no,
                        reason: "duplicate 'p' header".into(),
                    });
                }
                let n: usize = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine { line_no, reason: "bad n".into() })?;
                declared_m = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine { line_no, reason: "bad m".into() })?;
                if n > MAX_VERTICES {
                    return Err(ParseError::TooManyVertices { line_no, n });
                }
                declared_n = n;
                builder = Some(GraphBuilder::new(n));
            }
            Some("e") => {
                let b = builder.as_mut().ok_or(ParseError::MissingHeader)?;
                let u: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine { line_no, reason: "bad u".into() })?;
                let v: u32 = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| ParseError::BadLine { line_no, reason: "bad v".into() })?;
                let w_text = it
                    .next()
                    .ok_or_else(|| ParseError::BadLine { line_no, reason: "missing w".into() })?;
                if w_text.starts_with('-') {
                    return Err(ParseError::NegativeWeight { line_no });
                }
                let w: u64 = w_text
                    .parse()
                    .map_err(|_| ParseError::BadLine { line_no, reason: "bad w".into() })?;
                // Validate before the builder sees the edge: its
                // internal `add_edge` asserts on out-of-range
                // endpoints, and untrusted input must never reach an
                // assertion.
                for endpoint in [u, v] {
                    if endpoint as usize >= declared_n {
                        return Err(ParseError::EndpointOutOfRange {
                            line_no,
                            endpoint,
                            n: declared_n,
                        });
                    }
                }
                if u == v {
                    return Err(ParseError::SelfLoop { line_no, v: u });
                }
                total = total.saturating_add(w);
                if total >= TOTAL_WEIGHT_LIMIT {
                    return Err(ParseError::WeightTooLarge { line_no });
                }
                b.add_edge(u, v, w);
                found_m += 1;
            }
            Some(other) => {
                return Err(ParseError::BadLine {
                    line_no,
                    reason: format!("unknown record '{other}'"),
                })
            }
            None => {}
        }
    }
    let b = builder.ok_or(ParseError::MissingHeader)?;
    if declared_m != found_m {
        return Err(ParseError::EdgeCountMismatch { declared: declared_m, found: found_m });
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm_connected(12, 20, 9, &mut rng);
        let text = write_graph(&g);
        let g2 = parse_graph(&text).expect("round-tripped text parses");
        assert_eq!(g.n(), g2.n());
        assert_eq!(g.m(), g2.m());
        assert_eq!(g.total_weight(), g2.total_weight());
        assert_eq!(g.edges(), g2.edges());
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "c hello\n\np 3 2\ne 0 1 4\nc mid comment\ne 1 2 6\n";
        let g = parse_graph(text).expect("comments and blanks are skippable");
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 2);
        assert_eq!(g.total_weight(), 10);
    }

    #[test]
    fn missing_header_rejected() {
        assert!(matches!(parse_graph("e 0 1 2\n"), Err(ParseError::MissingHeader)));
    }

    #[test]
    fn count_mismatch_rejected() {
        let err = parse_graph("p 3 5\ne 0 1 2\n").unwrap_err();
        assert!(matches!(err, ParseError::EdgeCountMismatch { declared: 5, found: 1 }));
    }

    #[test]
    fn bad_line_reported_with_number() {
        let err = parse_graph("p 3 1\ne 0 x 2\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line_no: 2, .. }));
    }

    #[test]
    fn out_of_range_endpoint_rejected_not_panicking() {
        let err = parse_graph("p 3 1\ne 0 7 2\n").unwrap_err();
        assert_eq!(err, ParseError::EndpointOutOfRange { line_no: 2, endpoint: 7, n: 3 });
        // Both endpoint positions are covered.
        let err = parse_graph("p 3 1\ne 9 1 2\n").unwrap_err();
        assert_eq!(err, ParseError::EndpointOutOfRange { line_no: 2, endpoint: 9, n: 3 });
    }

    #[test]
    fn self_loops_rejected() {
        let err = parse_graph("p 3 2\ne 0 1 2\ne 2 2 5\n").unwrap_err();
        assert_eq!(err, ParseError::SelfLoop { line_no: 3, v: 2 });
    }

    #[test]
    fn negative_weight_rejected() {
        let err = parse_graph("p 3 1\ne 0 1 -4\n").unwrap_err();
        assert_eq!(err, ParseError::NegativeWeight { line_no: 2 });
    }

    #[test]
    fn total_weight_bound_is_exclusive() {
        let under = format!("p 3 2\ne 0 1 {}\ne 1 2 1\n", TOTAL_WEIGHT_LIMIT - 2);
        let g = parse_graph(&under).expect("total 2^62 - 1 is in range");
        assert_eq!(g.total_weight(), TOTAL_WEIGHT_LIMIT - 1);
        let at = format!("p 3 2\ne 0 1 {}\ne 1 2 2\n", TOTAL_WEIGHT_LIMIT - 2);
        assert_eq!(parse_graph(&at).unwrap_err(), ParseError::WeightTooLarge { line_no: 3 });
        let huge = format!("p 3 2\ne 0 1 {}\ne 1 2 {}\n", u64::MAX, u64::MAX);
        assert_eq!(parse_graph(&huge).unwrap_err(), ParseError::WeightTooLarge { line_no: 2 });
    }

    /// Refused at the header, before the builder exists: from one past
    /// [`MAX_VERTICES`] to beyond the `u32` vertex ids.
    #[test]
    fn vertex_count_beyond_u32_rejected_not_panicking() {
        for n in [MAX_VERTICES + 1, u32::MAX as usize, 1usize << 32] {
            let err = parse_graph(&format!("c big\np {n} 1\ne 0 1 1\n")).unwrap_err();
            assert_eq!(err, ParseError::TooManyVertices { line_no: 2, n });
            assert!(err.to_string().contains(&n.to_string()), "{err}");
        }
    }

    #[test]
    fn duplicate_header_rejected() {
        let err = parse_graph("p 3 1\np 4 1\ne 0 1 2\n").unwrap_err();
        assert!(matches!(err, ParseError::BadLine { line_no: 2, .. }));
    }

    /// Corrupt fixtures: truncated and garbage inputs must all come
    /// back as typed errors, never panics. (The panic-freedom claim is
    /// exactly what `catch_unwind`-free test execution asserts — a
    /// panic here would fail the test run.)
    #[test]
    fn corrupt_fixtures_return_typed_errors() {
        let fixtures: &[&str] = &[
            "",                                 // empty file
            "p",                                // truncated header
            "p 3",                              // header missing m
            "p 3 2\ne 0 1 4\n",                 // truncated edge list
            "p 3 1\ne 0 1\n",                   // truncated edge record
            "p 3 1\ne 0 1 4\ne 1 2 5\n",        // extra edges
            "p x y\n",                          // garbage header
            "q 3 1\n",                          // unknown record
            "p 3 1\nexplode\n",                 // garbage record
            "p 3 1\ne 0 1 99999999999999999999999\n", // weight overflow
            "p 3 1\ne 0 1 -0\n",                // negative zero weight
            // Total weight 3·2^62: Stoer–Wagner answers, the coverage
            // pass overflowed `i64`.
            "p 3 3\ne 0 1 4611686018427387904\ne 1 2 4611686018427387904\ne 0 2 4611686018427387904\n",
            // Total weight 4·2^62 overflowed the builder's `u64` sum.
            "p 4 4\ne 0 1 4611686018427387904\ne 1 2 4611686018427387904\ne 2 3 4611686018427387904\ne 3 0 4611686018427387904\n",
            "\u{0}\u{1}\u{2}",                  // binary garbage
        ];
        for (i, text) in fixtures.iter().enumerate() {
            let result = parse_graph(text);
            assert!(result.is_err(), "fixture {i} must be rejected: {text:?}");
        }
    }

    #[test]
    fn parse_error_lifts_into_pmc_error() {
        let err = parse_graph("p 3 1\ne 0 1 -4\n").unwrap_err();
        let lifted: pmc_fault::PmcError = err.into();
        assert!(matches!(lifted, pmc_fault::PmcError::Parse { .. }));
        assert!(lifted.to_string().contains("negative"));
    }
}
