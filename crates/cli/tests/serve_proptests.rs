//! Property tests for the decision daemon's wire layer: the frame codec
//! and the `/decide` body parsers must be *total* — arbitrary bytes,
//! truncated frames, oversized payloads and malformed law specs produce
//! a typed result (an answer, `NeedMore`, or an
//! `{"error":{"kind":…}}` body), never a panic. The daemon is a
//! long-running process fed by untrusted sockets, so this discipline is
//! a hard contract (ISSUE 8, fuzz satellite).
//!
//! Generators are biased toward garbage and near-misses (JSON braces,
//! law-spec separators, half-formed numbers) so the cases land in the
//! parsers' error branches rather than triggering real — and expensive —
//! exact solves; case counts stay modest for the same reason.

use proptest::prelude::*;
use resq::obs::http::{decode_frame, encode_frame, FrameDecode};
use resq::obs::json;
use resq_cli::serve::{task_params, DecisionService};

/// Character pool biased toward the wire grammar: JSON punctuation, the
/// daemon's field names, law-spec separators, numbers, unicode noise.
const POOL: &[char] = &[
    '{', '}', '[', ']', '"', ':', ',', '@', '.', '-', '+', 'e', 'E', '0', '1', '2', '5', '9', 't',
    'a', 's', 'k', 'c', 'p', 'm', 'n', 'r', 'w', 'o', 'u', 'l', 'x', ' ', '\n', '\\', 'µ', '∞',
];

fn pool_string(picks: &[usize]) -> String {
    picks.iter().map(|&i| POOL[i % POOL.len()]).collect()
}

/// An exact-only service (no lattices): garbage bodies die in the
/// parsers long before any solver runs.
fn service() -> DecisionService {
    DecisionService::new(Vec::new(), 2, 8)
}

/// Every body the service emits must itself be valid JSON carrying
/// either an answer (`source`) or a typed error (`error.kind`).
fn assert_typed_json(body: &str, context: &str) {
    let parsed = json::parse(body)
        .unwrap_or_else(|e| panic!("{context}: response is not JSON ({e}): {body}"));
    let one_is_typed = |v: &json::JsonValue| {
        v.get("source").and_then(|s| s.as_str()).is_some()
            || v.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(|k| k.as_str())
                .is_some()
    };
    match &parsed {
        json::JsonValue::Array(items) => {
            for item in items {
                assert!(
                    one_is_typed(item),
                    "{context}: untyped batch item in {body}"
                );
            }
        }
        v => assert!(one_is_typed(v), "{context}: untyped response {body}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode_frame` is total over arbitrary bytes: it classifies every
    /// prefix as Complete/NeedMore/TooLarge without panicking, and a
    /// Complete never claims more bytes than it was given.
    #[test]
    fn decode_frame_never_panics(
        bytes in prop::collection::vec(any::<u8>(), 0..64),
        max_len in 0usize..4096,
    ) {
        match decode_frame(&bytes, max_len) {
            FrameDecode::Complete { payload, consumed } => {
                prop_assert!(consumed <= bytes.len());
                prop_assert_eq!(payload.len() + 4, consumed);
            }
            FrameDecode::NeedMore => {}
            FrameDecode::TooLarge(len) => prop_assert!(len as usize > max_len),
        }
    }

    /// encode → decode round-trips the payload byte-for-byte, and every
    /// strict prefix of the encoding is NeedMore — a truncated frame is
    /// never misread as complete or oversized.
    #[test]
    fn frame_roundtrip_and_truncation(payload in prop::collection::vec(any::<u8>(), 0..48)) {
        let frame = encode_frame(&payload);
        match decode_frame(&frame, frame.len()) {
            FrameDecode::Complete { payload: back, consumed } => {
                prop_assert_eq!(back, payload);
                prop_assert_eq!(consumed, frame.len());
            }
            other => prop_assert!(false, "round-trip failed: {:?}", other),
        }
        for cut in 0..frame.len() {
            prop_assert!(
                matches!(decode_frame(&frame[..cut], frame.len()), FrameDecode::NeedMore),
                "prefix of {cut} bytes must be NeedMore"
            );
        }
    }

    /// A frame whose declared length exceeds the cap is TooLarge, not a
    /// huge allocation or a panic.
    #[test]
    fn oversized_declared_length_is_rejected(len in 1025u32..u32::MAX) {
        let mut buf = len.to_le_bytes().to_vec();
        buf.extend_from_slice(b"xx");
        prop_assert!(matches!(decode_frame(&buf, 1024), FrameDecode::TooLarge(l) if l == len));
    }

    /// `task_params` is total over garbage law specs.
    #[test]
    fn task_params_never_panics(picks in prop::collection::vec(0usize..64, 0..40)) {
        let _ = task_params(&pool_string(&picks));
    }

    /// `answer_single` over arbitrary near-JSON garbage: always a typed
    /// result, and every error kind is from the documented set.
    #[test]
    fn answer_single_is_total(picks in prop::collection::vec(0usize..64, 0..48)) {
        let body = pool_string(&picks);
        match service().answer_single(&body) {
            Ok(ans) => assert_typed_json(&ans, "answer_single ok"),
            Err(e) => {
                prop_assert!(
                    matches!(e.kind, "parse" | "spec" | "domain"),
                    "unexpected kind {} for {body}", e.kind
                );
                assert_typed_json(&e.render(), "answer_single err");
            }
        }
    }

    /// `answer_batch` over garbage arrays: one malformed item yields an
    /// inline typed error, never a panic or a dropped neighbor.
    #[test]
    fn answer_batch_is_total(
        items in prop::collection::vec(prop::collection::vec(0usize..64, 0..24), 0..6),
    ) {
        let body = format!(
            "[{}]",
            items
                .iter()
                .map(|p| {
                    let s = pool_string(p);
                    // Keep it a syntactic array element often enough to
                    // reach per-item parsing: wrap half the cases in an
                    // object shell.
                    if p.len() % 2 == 0 { format!("{{\"task\":{s:?}}}") } else { s }
                })
                .collect::<Vec<_>>()
                .join(",")
        );
        match service().answer_batch(&body) {
            Ok(ans) => assert_typed_json(&ans, "answer_batch ok"),
            Err(e) => {
                prop_assert!(
                    matches!(e.kind, "parse" | "spec" | "domain" | "batch"),
                    "unexpected kind {} for {body}", e.kind
                );
                assert_typed_json(&e.render(), "answer_batch err");
            }
        }
    }

    /// `answer_frame` over raw bytes — including invalid UTF-8 — always
    /// returns a JSON body and never leaks an in-flight admission slot.
    #[test]
    fn answer_frame_is_total(bytes in prop::collection::vec(any::<u8>(), 0..48)) {
        let svc = service();
        let text = svc.answer_frame(&bytes);
        assert_typed_json(&text, "answer_frame");
        prop_assert_eq!(svc.inflight(), 0, "admission slot leaked");
    }
}
