//! Property tests for the wire protocol's JSON layer.
//!
//! - Rendering any document and parsing it back gives the same document:
//!   nested arrays and objects, every finite number, strings with escapes,
//!   control characters and non-ASCII text.
//! - No input makes `Json::parse` or `protocol::parse_request` panic: every
//!   line, from arbitrary (lossily decoded) bytes to near-requests whose
//!   fields hold hostile values, comes back as a value or a typed error.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use sciborq_serve::json::Json;
use sciborq_serve::protocol::{parse_request, ProtocolError};

/// Characters that take every branch of the string writer and parser: the
/// short escapes, other control characters (`\u00XX`), and one- to
/// four-byte UTF-8.
const TRICKY: &str = "\"\\/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}éß∑中🚀\u{10ffff}";

/// Numbers at the edges of the `f64` range next to everyday ones.
const EDGES: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -1.0,
    f64::EPSILON,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    1e21,
    1e23,
    9_007_199_254_740_993.0,
];

fn string(rng: &mut StdRng) -> String {
    let len = rng.gen_range(0..12usize);
    (0..len)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => {
                let n = TRICKY.chars().count();
                TRICKY.chars().nth(rng.gen_range(0..n)).unwrap_or('"')
            }
            1 => char::from(rng.gen_range(b' '..=b'~')),
            _ => char::from_u32(rng.gen_range(0..0x11_0000u32)).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// A finite number: an integer, a unit fraction, an edge value, or any
/// finite bit pattern (subnormals and huge exponents included).
fn number(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..4u32) {
        0 => rng.gen_range(-1_000_000i64..1_000_000) as f64,
        1 => rng.gen_range(-1.0..1.0),
        2 => EDGES[rng.gen_range(0..EDGES.len())],
        _ => loop {
            let x = f64::from_bits(rng.gen());
            if x.is_finite() {
                break x;
            }
        },
    }
}

/// A document with at most `depth` levels of arrays and objects.
fn document(rng: &mut StdRng, depth: u32) -> Json {
    let kinds = if depth == 0 { 4 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen()),
        2 => Json::Num(number(rng)),
        3 => Json::Str(string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0..5usize))
                .map(|_| document(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..5usize))
                .map(|_| (string(rng), document(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// Generated documents up to four containers deep.
struct Document;

impl Strategy for Document {
    type Value = Json;

    fn sample(&self, rng: &mut StdRng) -> Json {
        document(rng, 4)
    }
}

/// Fragments that get a line past the parser's first byte, spliced with
/// arbitrary bytes. `1e400` parses to infinity.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "0",
    "-",
    "1e400",
    "9",
    ".",
    "e+",
    "true",
    "null",
    "fals",
    " ",
    "\"id\"",
    "\"query\"",
    "\"bounds\"",
    "\"op\"",
    "\"cmd\"",
];

/// One line off the wire: a token soup, or a rendered document cut short or
/// with a byte overwritten. Decoded lossily, as the server decodes lines.
struct Line;

impl Strategy for Line {
    type Value = String;

    fn sample(&self, rng: &mut StdRng) -> String {
        let mut bytes: Vec<u8> = Vec::new();
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(0..40usize) {
                if rng.gen_bool(0.3) {
                    bytes.push(rng.gen());
                } else {
                    bytes.extend_from_slice(TOKENS[rng.gen_range(0..TOKENS.len())].as_bytes());
                }
            }
        } else {
            bytes = document(rng, 3).render().into_bytes();
            if !bytes.is_empty() {
                let at = rng.gen_range(0..bytes.len());
                if rng.gen_bool(0.5) {
                    bytes.truncate(at);
                } else {
                    bytes[at] = rng.gen();
                }
            }
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }
}

/// `plausible` most of the time, otherwise any document.
fn field(rng: &mut StdRng, plausible: Json) -> Json {
    if rng.gen_bool(0.8) {
        plausible
    } else {
        document(rng, 2)
    }
}

/// A [`number`] most of the time, otherwise any document.
fn number_field(rng: &mut StdRng) -> Json {
    let n = number(rng);
    field(rng, Json::Num(n))
}

fn text(s: &str) -> Json {
    Json::Str(s.to_owned())
}

fn object(rng: &mut StdRng, fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .filter(|_| rng.gen_bool(0.95))
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn predicate(rng: &mut StdRng, depth: u32) -> Json {
    const OPS: &[&str] = &[
        "true",
        "false",
        "lt",
        "le",
        "gt",
        "ge",
        "eq",
        "ne",
        "between",
        "is_null",
        "is_not_null",
        "and",
        "or",
        "not",
        "nope",
    ];
    let op = OPS[rng.gen_range(0..OPS.len())];
    let mut fields = vec![
        ("op", field(rng, text(op))),
        ("column", field(rng, text("ra"))),
        ("value", number_field(rng)),
        ("low", number_field(rng)),
        ("high", number_field(rng)),
    ];
    if depth > 0 {
        let args = (0..rng.gen_range(0..3usize))
            .map(|_| predicate(rng, depth - 1))
            .collect();
        fields.push(("args", field(rng, Json::Arr(args))));
        fields.push(("arg", predicate(rng, depth - 1)));
    }
    object(rng, fields)
}

/// A request with every field present most of the time and plausible most
/// of the time, its numbers drawn from [`number`] (so bounds such as
/// `time_budget_ms` see values far outside their range).
struct NearRequest;

impl Strategy for NearRequest {
    type Value = Json;

    fn sample(&self, rng: &mut StdRng) -> Json {
        if rng.gen_bool(0.2) {
            let cmd = ["metrics", "trace", "nope"][rng.gen_range(0..3usize)];
            let fields = vec![
                ("id", document(rng, 1)),
                ("cmd", field(rng, text(cmd))),
                ("limit", number_field(rng)),
            ];
            return object(rng, fields);
        }
        const KINDS: &[&str] = &["select", "count", "sum", "avg", "min", "max", "var", "nope"];
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let query = vec![
            ("table", field(rng, text("photoobj"))),
            ("kind", field(rng, text(kind))),
            ("column", field(rng, text("ra"))),
            ("limit", number_field(rng)),
            ("predicate", predicate(rng, 1)),
        ];
        let bounds = vec![
            ("max_relative_error", number_field(rng)),
            ("confidence", number_field(rng)),
            ("max_rows_scanned", number_field(rng)),
            ("time_budget_ms", number_field(rng)),
            ("min_result_rows", number_field(rng)),
        ];
        let fields = vec![
            ("id", document(rng, 1)),
            ("query", object(rng, query)),
            ("bounds", object(rng, bounds)),
        ];
        object(rng, fields)
    }
}

fn is_malformed(line: &str) -> bool {
    matches!(parse_request(line), Err(ProtocolError::Malformed(_)))
}

proptest! {
    #[test]
    fn render_then_parse_is_identity(doc in Document) {
        let rendered = doc.render();
        prop_assert_eq!(Json::parse(&rendered), Ok(doc), "{}", rendered);
    }

    #[test]
    fn arbitrary_lines_parse_or_fail_typed(line in Line) {
        // A line is malformed exactly when it is not JSON, and neither
        // parser panics on the way to saying so.
        prop_assert_eq!(is_malformed(&line), Json::parse(&line).is_err(), "{:?}", line);
    }

}

proptest! {
    // Few near-requests get past the query to the bounds, so draw more.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn near_requests_decode_or_fail_typed(request in NearRequest) {
        let line = request.render();
        prop_assert!(!is_malformed(&line), "{}", line);
    }
}
