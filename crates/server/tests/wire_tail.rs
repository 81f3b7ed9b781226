//! Wire tail-codec property tests (seeded, mirror of `wire_v4.rs`).
//!
//! The request/response tails of `reverse_topk` / `shard_reverse_topk`
//! are trailing-optional: a frame without the tail-flags word must decode
//! exactly like a v7-shaped frame, a truncated tail must error (never
//! panic), and a flag bit the receiving kind does not define — including
//! the retired bit `1 << 1` — must be rejected. These properties are
//! pinned here over seeded random draws.

use rand::{rngs::StdRng, Rng, SeedableRng};
use rtk_api::EngineInfo;
use rtk_obs::TraceSpan;
use rtk_server::wire;
use rtk_server::{Request, Response, StatsSnapshot};
use rtk_sparse::codec::DecodeError;

const CASES: u64 = 64;

/// The tail bit wire v8 spent on the approximate screen; v9 retired it.
const RETIRED_BIT: u32 = 1 << 1;

fn arb_bool(rng: &mut StdRng) -> bool {
    rng.gen::<u32>() % 2 == 0
}

fn arb_pmpn(rng: &mut StdRng) -> Vec<f64> {
    let len = rng.gen_range(1usize..64);
    (0..len).map(|_| rng.gen_range(0.0..1.0)).collect()
}

fn decode_request(payload: &[u8]) -> Result<Request, String> {
    wire::decode_request(payload)
        .map(|(_token, req)| req)
        .map_err(|e| e.to_string())
}

fn plain_result(query: u32) -> wire::WireQueryResult {
    wire::WireQueryResult {
        query,
        k: 3,
        nodes: vec![1, 2, 3],
        proximities: vec![0.5, 0.25, 0.125],
        candidates: 4,
        hits: 3,
        refined_nodes: 1,
        refine_iterations: 2,
        server_seconds: 0.001,
        trace: None,
    }
}

#[test]
fn shard_requests_round_trip_with_every_tail_combination() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5A8D + case);
        let req = Request::ShardReverseTopk {
            q: rng.gen(),
            k: rng.gen_range(1u32..64),
            update: arb_bool(&mut rng),
            trace: arb_bool(&mut rng),
            pmpn: arb_bool(&mut rng).then(|| arb_pmpn(&mut rng)),
            want_pmpn: arb_bool(&mut rng),
        };
        let payload = wire::encode_request(&req);
        let back = decode_request(&payload).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, req, "case {case}");
    }
}

/// Truncating the payload at every prefix either errors cleanly or — at
/// exactly the tail boundary — decodes as the same request with the tail
/// features stripped (that *is* the v7 compatibility contract: an absent
/// tail means a plain frame). No prefix may panic or decode to anything
/// else.
#[test]
fn truncation_at_every_prefix_errors_or_strips_the_tail() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x7B8C + case);
        let q: u32 = rng.gen();
        let k: u32 = rng.gen_range(1u32..64);
        let update: bool = arb_bool(&mut rng);
        let req = Request::ShardReverseTopk {
            q,
            k,
            update,
            trace: true,
            pmpn: Some(arb_pmpn(&mut rng)),
            want_pmpn: true,
        };
        // The only decodable proper prefix: the fixed fields with the whole
        // tail absent (a v7-shaped plain frame).
        let stripped =
            Request::ShardReverseTopk { q, k, update, trace: false, pmpn: None, want_pmpn: false };
        let payload = wire::encode_request(&req);
        for cut in 0..payload.len() {
            match decode_request(&payload[..cut]) {
                Err(_) => {}
                Ok(back) => assert_eq!(
                    back, stripped,
                    "case {case}: cut {cut} decoded to unexpected {back:?}"
                ),
            }
        }
        assert_eq!(decode_request(&payload).unwrap(), req, "case {case}: full frame");
    }
}

#[test]
fn unknown_tail_flag_bits_are_rejected() {
    let req = Request::ShardReverseTopk {
        q: 1,
        k: 2,
        update: false,
        trace: false,
        pmpn: None,
        want_pmpn: true,
    };
    let mut payload = wire::encode_request(&req);
    // The request tail is the trailing flags u32 alone; poke an undefined
    // high bit into it.
    let flags_at = payload.len() - 4;
    payload[flags_at + 3] |= 0x80;
    let err = decode_request(&payload).unwrap_err();
    assert!(err.contains("bits"), "{err}");
}

#[test]
fn retired_tail_bit_is_rejected_on_requests_and_responses() {
    // Requests: a plain frame plus a flags word carrying the retired bit,
    // alone or next to defined bits, with or without the 24 section bytes
    // a v8 sender would have appended.
    let plain = Request::ReverseTopk { q: 5, k: 2, update: false, trace: false };
    let shard = Request::ShardReverseTopk {
        q: 5,
        k: 2,
        update: false,
        trace: false,
        pmpn: None,
        want_pmpn: false,
    };
    for req in [plain, shard] {
        for flags in [RETIRED_BIT, RETIRED_BIT | 1] {
            for section in [0usize, 24] {
                let mut payload = wire::encode_request(&req);
                payload.extend_from_slice(&flags.to_le_bytes());
                payload.extend(std::iter::repeat_n(0u8, section));
                let err = decode_request(&payload).unwrap_err();
                assert!(err.contains("bits"), "{req:?} flags {flags:#x}: {err}");
            }
        }
    }

    // Responses: both single-result kinds reject the bit the same way.
    let responses = [
        Response::ReverseTopk(plain_result(5)),
        Response::ShardReverseTopk(wire::WireShardResult {
            shard_id: 0,
            node_lo: 0,
            node_hi: 10,
            result: plain_result(5),
            pmpn: None,
        }),
    ];
    for resp in responses {
        for section in [0usize, 24] {
            let mut payload = wire::encode_response(&resp);
            payload.extend_from_slice(&RETIRED_BIT.to_le_bytes());
            payload.extend(std::iter::repeat_n(0u8, section));
            let err = wire::decode_response(&payload).unwrap_err().to_string();
            assert!(err.contains("bits"), "{resp:?}: {err}");
        }
    }
}

#[test]
fn v8_frame_header_gets_unsupported_version() {
    // A v8 peer's frame: same magic and header shape, older version word.
    let payload = wire::encode_request(&Request::Ping);
    let mut frame = Vec::new();
    frame.extend_from_slice(wire::WIRE_MAGIC);
    frame.extend_from_slice(&8u32.to_le_bytes());
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let err = wire::read_frame(&mut std::io::Cursor::new(frame), 1024).unwrap_err();
    assert!(matches!(err, DecodeError::UnsupportedVersion { found: 8, supported: 9 }), "{err:?}");
}

#[test]
fn stats_snapshot_ends_at_the_per_kind_records() {
    // The v8 versioned stats tail (a version stamp plus four counters) is
    // gone: the snapshot ends at its last per-kind latency record, and a
    // response still carrying those 40 bytes is rejected as trailing junk.
    let info = EngineInfo {
        nodes: 10,
        edges: 20,
        max_k: 3,
        workers: 1,
        shard_lo: 0,
        shard_hi: 10,
        index_digest: 7,
    };
    let resp = Response::Stats(Box::new(StatsSnapshot::local(info, vec![10], vec![128])));
    let mut payload = wire::encode_response(&resp);
    assert_eq!(wire::decode_response(&payload).unwrap(), resp);
    payload.extend_from_slice(&1u64.to_le_bytes());
    payload.extend(std::iter::repeat_n(0u8, 32));
    assert!(wire::decode_response(&payload).is_err(), "v8 stats tail must be rejected");
}

#[test]
fn plain_frames_stay_byte_identical_to_the_v7_shape() {
    // A request with no tail feature engaged must not grow a tail word:
    // its payload must be byte-identical to the fixed v7 fields, which
    // every tailed frame of the same query starts with.
    let plain = Request::ShardReverseTopk {
        q: 11,
        k: 3,
        update: true,
        trace: false,
        pmpn: None,
        want_pmpn: false,
    };
    let shipped = Request::ShardReverseTopk {
        q: 11,
        k: 3,
        update: true,
        trace: false,
        pmpn: Some(vec![0.5, 0.25]),
        want_pmpn: false,
    };
    let plain_payload = wire::encode_request(&plain);
    let shipped_payload = wire::encode_request(&shipped);
    // flags u32 + count u64 + 2 × f64.
    assert_eq!(shipped_payload.len(), plain_payload.len() + 4 + 8 + 16);
    assert_eq!(
        &shipped_payload[..plain_payload.len()],
        &plain_payload[..],
        "fixed fields unchanged by the tail"
    );

    // Trace-only requests keep the v7 layout too: the flags word in trace
    // position carries the same value the v7 trace flag word did.
    let plain = Request::ReverseTopk { q: 11, k: 3, update: true, trace: false };
    let traced = Request::ReverseTopk { q: 11, k: 3, update: true, trace: true };
    let plain_payload = wire::encode_request(&plain);
    let traced_payload = wire::encode_request(&traced);
    assert_eq!(traced_payload.len(), plain_payload.len() + 4, "trace tail is one u32");
    assert_eq!(&traced_payload[..plain_payload.len()], &plain_payload[..]);
    assert_eq!(&traced_payload[plain_payload.len()..], 1u32.to_le_bytes().as_slice());

    // Responses: an untraced answer without a returned vector carries no
    // tail word at all.
    let resp = Response::ReverseTopk(plain_result(11));
    let mut traced_result = plain_result(11);
    traced_result.trace = Some(TraceSpan::new("engine:reverse_topk", 0.5));
    let traced_resp = Response::ReverseTopk(traced_result);
    let plain_bytes = wire::encode_response(&resp);
    let traced_bytes = wire::encode_response(&traced_resp);
    assert_eq!(&traced_bytes[..plain_bytes.len()], &plain_bytes[..]);
    assert_eq!(
        &traced_bytes[plain_bytes.len()..plain_bytes.len() + 4],
        1u32.to_le_bytes().as_slice()
    );
}

#[test]
fn responses_round_trip_with_trace_and_pmpn() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xE5F0 + case);
        let mut result = plain_result(rng.gen());
        result.candidates = rng.gen_range(0u64..100);
        result.refine_iterations = rng.gen_range(0u64..100);
        result.trace = arb_bool(&mut rng)
            .then(|| TraceSpan::new("engine:shard_reverse_topk", rng.gen_range(0.0..1.0)));
        let resp = Response::ShardReverseTopk(wire::WireShardResult {
            shard_id: rng.gen_range(0u32..8),
            node_lo: 0,
            node_hi: 100,
            result,
            pmpn: arb_bool(&mut rng).then(|| arb_pmpn(&mut rng)),
        });
        let payload = wire::encode_response(&resp);
        let back = wire::decode_response(&payload).unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(back, resp, "case {case}");
        // Truncating the response tail must error, never panic.
        for cut in (payload.len().saturating_sub(16))..payload.len() {
            let _ = wire::decode_response(&payload[..cut]);
        }
    }
}

#[test]
fn shipped_pmpn_vectors_with_non_finite_entries_are_rejected() {
    let req = Request::ShardReverseTopk {
        q: 0,
        k: 1,
        update: false,
        trace: false,
        pmpn: Some(vec![0.25, f64::NAN, 0.5]),
        want_pmpn: false,
    };
    let payload = wire::encode_request(&req);
    assert!(decode_request(&payload).is_err(), "NaN pmpn entry must be rejected");
}
