//! Hostile-input wall for the hand-rolled JSON parser in
//! `tp_bench::json` — the code that reads `--trace-out` files, which
//! arrive from disk and must be treated as untrusted. Every case here
//! must fail loudly (an `Err`, never a panic) or parse to the
//! documented value.

use tp_bench::json::{parse_json_lines, Json};

#[test]
fn truncated_documents_error_instead_of_panicking() {
    for bad in [
        "{",
        "{\"a\"",
        "{\"a\":",
        "{\"a\":1",
        "{\"a\":1,",
        "[",
        "[1,",
        "[1,2",
        "\"unterminated",
        "{\"a\":\"b",
        "{\"a\":{\"b\":1}",
        "-",
        "tru",
        "nul",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn duplicate_keys_resolve_to_the_first_and_survive_round_trips() {
    // The parser keeps insertion order and `get` returns the FIRST
    // match — a malicious file cannot shadow an already-checked
    // field by appending a second copy.
    let v = Json::parse(r#"{"ns": 1, "ns": 999}"#).unwrap();
    assert_eq!(v.get("ns").unwrap().as_f64(), Some(1.0));
    let Json::Obj(members) = &v else {
        panic!("object expected");
    };
    assert_eq!(members.len(), 2, "both members are preserved");
    // Round-tripping must not silently drop or reorder the duplicate.
    let mut out = String::new();
    v.render_compact(&mut out);
    assert_eq!(out, r#"{"ns":1,"ns":999}"#);
    assert_eq!(Json::parse(&out).unwrap(), v);
}

#[test]
fn non_finite_and_overflowing_numbers_are_rejected() {
    // JSON has no NaN/Infinity; an overflowing literal like 1e999
    // parses to `inf` at the f64 layer and must not leak through —
    // a NaN would sail through every `>` comparison a reader makes.
    for bad in [
        "1e999",
        "-1e999",
        "1e99999999",
        "NaN",
        "Infinity",
        "-Infinity",
        "nan",
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        assert!(
            Json::parse(&format!("{{\"ns_per_step\": {bad}}}")).is_err(),
            "{bad:?} must be rejected inside an object"
        );
    }
    // The largest finite doubles still parse.
    for ok in ["1e308", "-1e308", "1.7976931348623157e308", "0", "-0.0"] {
        let v = Json::parse(ok).unwrap();
        assert!(v.as_f64().unwrap().is_finite(), "{ok:?} is finite");
    }
}

#[test]
fn malformed_numbers_and_literals_error() {
    for bad in ["1.2.3", "1e", "--1", "+1", "1e+", "truefalse", "nullx"] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn string_escapes_are_validated() {
    assert_eq!(
        Json::parse(r#""a\"b\\c\nd""#).unwrap().as_str(),
        Some("a\"b\\c\nd")
    );
    assert_eq!(Json::parse(r#""A""#).unwrap().as_str(), Some("A"));
    for bad in [
        r#""\x""#,     // unknown escape
        r#""\u12""#,   // short hex
        r#""\uZZZZ""#, // non-hex
        r#""\ud800""#, // lone surrogate: not a scalar value
        "\"\\",        // dangling escape at EOF
    ] {
        assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
    }
}

#[test]
fn crlf_and_blank_lines_parse_as_json_lines() {
    // A trace file written on Windows or piped through a CRLF-normalising
    // tool still parses; blank lines (including whitespace-only) skip.
    let doc = "{\"t\":\"span\",\"kind\":\"prove\",\"cell\":0,\"start_us\":1,\"dur_us\":2}\r\n\
               \r\n\
               \t \r\n\
               {\"t\":\"manifest\",\"schema\":\"tp-telemetry/v1\",\"cells\":4}\r\n";
    let vals = parse_json_lines(doc).unwrap();
    assert_eq!(vals.len(), 2);
    assert_eq!(vals[0].get("kind").unwrap().as_str(), Some("prove"));
    assert_eq!(
        vals[1].get("schema").unwrap().as_str(),
        Some("tp-telemetry/v1")
    );
    // An error names the 1-based physical line, blank lines included.
    let err = parse_json_lines("{\"ok\":1}\r\n\r\n{oops\r\n").unwrap_err();
    assert!(err.starts_with("line 3:"), "{err}");
}

#[test]
fn deep_nesting_is_bounded_by_input_length_not_stack_death() {
    // 200 levels is far beyond anything the emitters write but well
    // within what a recursive-descent parser must survive.
    let depth = 200;
    let doc = format!("{}1{}", "[".repeat(depth), "]".repeat(depth));
    let mut v = Json::parse(&doc).unwrap();
    for _ in 0..depth {
        let Json::Arr(items) = v else {
            panic!("array expected");
        };
        v = items.into_iter().next().unwrap();
    }
    assert_eq!(v.as_f64(), Some(1.0));
    // Unbalanced variants still error.
    assert!(Json::parse(&"[".repeat(depth)).is_err());
}
