//! Resumable-proto equivalence suite: the event-loop I/O front parses frames
//! through [`sc_serve::proto::FrameDecoder`], which must agree byte-for-byte
//! with the blocking [`sc_serve::proto::read_frame`] no matter how the kernel
//! fragments the stream. A request frame, response frames, ping/pong frames,
//! and admin frames are fed byte-by-byte and at seeded random split points,
//! and the decoder's reused buffer must not churn allocations across frames.

use sc_serve::proto::{
    decode_admin_response, decode_message, decode_pong, decode_response, read_frame, write_admin,
    write_admin_response, write_ping, write_pong, write_request_v3, write_response, AdminOp,
    AdminResponse, ErrorCode, FrameDecoder, Message, Response,
};

/// SplitMix64 — the repo's standard deterministic test RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// What a payload parses to with every payload parser, so the comparison
/// covers every side that accepts the frame.
#[derive(Debug, PartialEq)]
struct ParseOutcome {
    message: Option<Message>,
    response: Option<Response>,
    pong: Option<u64>,
    admin_response: Option<AdminResponse>,
}

fn decoder_outcome(payload: &[u8]) -> ParseOutcome {
    ParseOutcome {
        message: decode_message(payload).ok(),
        response: decode_response(payload).ok(),
        pong: decode_pong(payload).ok(),
        admin_response: decode_admin_response(payload).ok(),
    }
}

/// The outcome of reading `wire` with the blocking reader.
fn one_shot_outcome(wire: &[u8]) -> ParseOutcome {
    read_frame(&mut &wire[..], |payload| Ok(decoder_outcome(payload)))
        .unwrap()
        .expect("one complete frame")
}

/// One frame of every wire shape the serving plane produces.
fn seed_frames() -> Vec<(&'static str, Vec<u8>)> {
    let pixels: Vec<f32> = (0..20).map(|i| (i as f32 - 10.0) / 8.0).collect();
    let mut request = Vec::new();
    write_request_v3(&mut request, 103, 3, 750, [1, 4, 5], &pixels).unwrap();
    let mut ok = Vec::new();
    write_response(
        &mut ok,
        &Response::Ok {
            id: 104,
            argmax: 7,
            logits: vec![0.5, -1.25, 0.0625, 3.0],
        },
    )
    .unwrap();
    let mut err = Vec::new();
    write_response(
        &mut err,
        &Response::Err {
            id: 105,
            code: ErrorCode::Overloaded,
            message: "queue full".into(),
        },
    )
    .unwrap();
    let mut ping = Vec::new();
    write_ping(&mut ping, 0x51AB_70FF).unwrap();
    let mut pong = Vec::new();
    write_pong(&mut pong, 0x51AB_70FF).unwrap();
    let mut admin = Vec::new();
    write_admin(&mut admin, &AdminOp::UnloadModel { model: 2 }).unwrap();
    let mut admin_response = Vec::new();
    write_admin_response(
        &mut admin_response,
        &AdminResponse {
            ok: true,
            draining: false,
            generation: 4,
            models: vec![0, 1],
            message: String::new(),
        },
    )
    .unwrap();
    vec![
        ("request", request),
        ("ok response", ok),
        ("err response", err),
        ("ping", ping),
        ("pong", pong),
        ("admin", admin),
        ("admin response", admin_response),
    ]
}

/// Runs `wire` through a decoder in the given chunk sizes and returns the
/// completed payload. Panics if the frame doesn't complete exactly at the
/// last byte.
fn decode_in_chunks(decoder: &mut FrameDecoder, wire: &[u8], chunks: &[usize]) -> Vec<u8> {
    let mut offset = 0;
    for &chunk in chunks {
        let end = (offset + chunk).min(wire.len());
        let mut slice = &wire[offset..end];
        while !slice.is_empty() {
            let consumed = decoder.feed(slice).unwrap();
            assert!(consumed > 0, "feed must make progress on non-empty input");
            slice = &slice[consumed..];
        }
        offset = end;
    }
    assert_eq!(offset, wire.len(), "chunk plan must cover the frame");
    let payload = decoder
        .frame()
        .expect("frame complete at last byte")
        .to_vec();
    decoder.take_frame();
    payload
}

#[test]
fn byte_by_byte_decoding_matches_one_shot_readers() {
    for (label, wire) in seed_frames() {
        let expected = one_shot_outcome(&wire);
        let mut decoder = FrameDecoder::new();
        // Mid-frame state must be visible to the idle reaper at every
        // intermediate byte.
        for (index, byte) in wire.iter().enumerate() {
            assert!(
                decoder.frame().is_none(),
                "{label}: frame complete before byte {index}"
            );
            if index > 0 {
                assert!(
                    decoder.mid_frame(),
                    "{label}: not mid-frame at byte {index}"
                );
            }
            assert_eq!(
                decoder.feed(std::slice::from_ref(byte)).unwrap(),
                1,
                "{label}"
            );
        }
        assert!(
            !decoder.mid_frame(),
            "{label}: complete frame is not mid-frame"
        );
        let payload = decoder
            .frame()
            .unwrap_or_else(|| panic!("{label}: incomplete"));
        assert_eq!(decoder_outcome(payload), expected, "{label}");
    }
}

#[test]
fn random_split_points_match_one_shot_readers() {
    let mut rng = Rng(0xC0FF_EE00);
    for (label, wire) in seed_frames() {
        let expected = one_shot_outcome(&wire);
        let mut decoder = FrameDecoder::new();
        for round in 0..64 {
            // A random composition of the frame into 1..=5 chunks.
            let mut cuts: Vec<usize> = (0..rng.below(5))
                .map(|_| 1 + rng.below(wire.len() - 1))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut chunks = Vec::new();
            let mut previous = 0;
            for cut in cuts {
                chunks.push(cut - previous);
                previous = cut;
            }
            chunks.push(wire.len() - previous);
            let payload = decode_in_chunks(&mut decoder, &wire, &chunks);
            assert_eq!(
                decoder_outcome(&payload),
                expected,
                "{label} round {round} chunks {chunks:?}"
            );
        }
    }
}

#[test]
fn pipelined_frames_are_split_at_exact_boundaries() {
    // Two different frames concatenated, fed in one buffer: the decoder must
    // stop at the first frame boundary and leave the second frame's bytes
    // unconsumed for the next cycle.
    let mut first = Vec::new();
    write_request_v3(&mut first, 7, 0, 0, [1, 2, 2], &[0.1, 0.2, 0.3, 0.4]).unwrap();
    let mut second = Vec::new();
    write_ping(&mut second, 99).unwrap();
    let mut stream = first.clone();
    stream.extend_from_slice(&second);

    let mut decoder = FrameDecoder::new();
    let consumed = decoder.feed(&stream).unwrap();
    assert_eq!(consumed, first.len(), "feed stops at the frame boundary");
    let request = decode_message(decoder.frame().unwrap()).unwrap();
    assert!(matches!(request, Message::Request(ref r) if r.id == 7));
    // Nothing further is consumed until the completed frame is taken.
    assert_eq!(decoder.feed(&stream[consumed..]).unwrap(), 0);
    decoder.take_frame();
    let consumed_second = decoder.feed(&stream[consumed..]).unwrap();
    assert_eq!(consumed_second, second.len());
    assert!(matches!(
        decode_message(decoder.frame().unwrap()).unwrap(),
        Message::Ping { nonce: 99 }
    ));
}

#[test]
fn buffer_is_reused_across_frames_without_reallocation_churn() {
    // Steady-state decoding of same-sized frames must not grow (or shrink)
    // the accumulation buffer after the first frame sized it.
    let pixels: Vec<f32> = (0..64).map(|i| i as f32 / 64.0).collect();
    let mut wire = Vec::new();
    write_request_v3(&mut wire, 1, 0, 0, [1, 8, 8], &pixels).unwrap();

    let mut decoder = FrameDecoder::new();
    decoder.feed(&wire).unwrap();
    assert!(decoder.frame().is_some());
    let settled = decoder.buffer_capacity();
    decoder.take_frame();
    for round in 0..100 {
        let mut frame = Vec::new();
        write_request_v3(&mut frame, round, 0, 0, [1, 8, 8], &pixels).unwrap();
        let mut remaining = frame.as_slice();
        while !remaining.is_empty() {
            let consumed = decoder.feed(remaining).unwrap();
            remaining = &remaining[consumed..];
        }
        assert!(decoder.frame().is_some(), "round {round}");
        assert_eq!(
            decoder.buffer_capacity(),
            settled,
            "round {round}: buffer capacity churned"
        );
        decoder.take_frame();
    }
    // A smaller frame reuses the same buffer rather than shrinking it.
    let mut small = Vec::new();
    write_ping(&mut small, 5).unwrap();
    decoder.feed(&small).unwrap();
    assert!(decoder.frame().is_some());
    assert_eq!(
        decoder.buffer_capacity(),
        settled,
        "small frame shrank the buffer"
    );
}

#[test]
fn truncation_and_corruption_are_typed_errors_incrementally() {
    for (label, wire) in seed_frames() {
        // Corruption at every payload/trailer byte is detected regardless of
        // how the frame was fragmented on its way in.
        for offset in 4..wire.len() {
            let mut corrupt = wire.clone();
            corrupt[offset] ^= 0x10;
            let mut decoder = FrameDecoder::new();
            let mut remaining = corrupt.as_slice();
            let mut failed = false;
            while !remaining.is_empty() {
                match decoder.feed(&remaining[..1.max(remaining.len() / 3)]) {
                    Ok(consumed) => remaining = &remaining[consumed..],
                    Err(error) => {
                        assert_eq!(
                            error.kind(),
                            std::io::ErrorKind::InvalidData,
                            "{label} offset {offset}"
                        );
                        failed = true;
                        break;
                    }
                }
            }
            assert!(
                failed || decoder.frame().is_none(),
                "{label} offset {offset}: corruption slipped through"
            );
        }
        // An oversized declared length fails at header completion, before
        // any allocation in the frame's claimed size.
        let mut huge = wire.clone();
        huge[..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        let mut decoder = FrameDecoder::new();
        let error = decoder.feed(&huge).unwrap_err();
        assert!(error.to_string().contains("cap"), "{label}: {error}");
    }
}
