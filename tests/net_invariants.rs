//! Property-based invariants for the middleware: the codec never panics on
//! arbitrary bytes, and the hub's round stream is well-formed under any
//! interleaving of sensor messages — and the same stream the naive reference
//! hub (`reference/naive_hub.rs`) assembles.

use avoc::net::{
    BatchReading, BatchResult, Message, Rows, SensorHub, SpecSource, MAX_BATCH_READINGS,
    MAX_BATCH_RESULTS,
};
use avoc::prelude::*;
use bytes::{BufMut, BytesMut};
use proptest::prelude::*;

#[path = "reference/naive_hub.rs"]
mod naive_hub;
use naive_hub::NaiveHub;

/// One message of every frame tag (1–13 and 16–18; 14–15 are retired), in
/// tag order, built from one set of generated field values — the strategy
/// the every-tag properties share.
#[allow(clippy::too_many_arguments)]
fn every_tag(
    session: u64,
    modules: u32,
    round: u64,
    value: f64,
    text: &str,
    acked: Option<u64>,
    high: Option<u64>,
    flag: bool,
    blob: &[u8],
) -> Vec<Message> {
    let module = ModuleId::new(modules);
    vec![
        Message::Reading {
            module,
            round,
            value,
        },
        Message::Missing { module, round },
        Message::Heartbeat { module },
        Message::Shutdown,
        Message::OpenSession {
            session,
            modules,
            spec: SpecSource::Named(text.to_string()),
        },
        Message::CloseSession { session },
        Message::SessionReading {
            session,
            module,
            round,
            value,
        },
        Message::SessionResult {
            session,
            round,
            value: flag.then_some(value),
            voted: flag,
        },
        Message::Error {
            session,
            message: text.to_string(),
        },
        Message::FeedBatch {
            session,
            readings: vec![
                BatchReading {
                    module,
                    round,
                    value
                };
                3
            ],
        },
        Message::ResumeSession {
            session,
            modules,
            spec: SpecSource::Inline(text.to_string()),
            token: round,
            last_acked: acked,
        },
        Message::Resumed {
            session,
            high_round: high,
            warm: flag,
        },
        Message::ResultBatch {
            session,
            results: vec![
                BatchResult {
                    round,
                    value: flag.then_some(value),
                    voted: flag
                };
                2
            ],
        },
        Message::Redirect {
            session,
            epoch: round,
            addr: "127.0.0.1:4100".into(),
        },
        Message::ExportSession {
            session,
            target_node: round,
            epoch: round,
            auth: round,
            target_addr: "127.0.0.1:4200".into(),
        },
        Message::SessionState {
            session,
            epoch: round,
            auth: round,
            meta: blob.to_vec(),
            wal: blob.to_vec(),
        },
    ]
}

/// Rounds as comparable bits: one `(round, module, value)` per ballot, in
/// emission order.
fn ballot_bits(rounds: &[Round]) -> Vec<(u64, ModuleId, Option<u64>)> {
    let ballots = rounds
        .iter()
        .flat_map(|r| r.ballots.iter().map(|b| (r.round, b)));
    ballots
        .map(|(round, b)| {
            let value = b.value.as_ref().and_then(Value::as_number);
            (round, b.module, value.map(f64::to_bits))
        })
        .collect()
}

/// Emitted rows on `to_bits`: each row's round id and values.
fn row_bits(rows: &Rows) -> Vec<(u64, Vec<u64>)> {
    let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    rows.iter().map(|(round, xs)| (round, bits(xs))).collect()
}

/// The rows `rounds` stand for, on `to_bits`: a missing ballot is NaN.
fn rounds_as_row_bits(rounds: &[Round]) -> Vec<(u64, Vec<u64>)> {
    let bits = |b: &Ballot| {
        let value = b.value.as_ref().and_then(Value::as_number);
        value.unwrap_or(f64::NAN).to_bits()
    };
    let row = |r: &Round| r.ballots.iter().map(bits).collect();
    rounds.iter().map(|r| (r.round, row(r))).collect()
}

/// Frames `payload` under a truthful length prefix.
fn framed(payload: &[u8]) -> BytesMut {
    let mut buf = BytesMut::new();
    buf.put_u32(payload.len() as u32);
    buf.extend_from_slice(payload);
    buf
}

proptest! {
    /// Feeding arbitrary garbage to the decoder never panics, and always
    /// either consumes something, reports an incomplete frame, or declares
    /// the stream dead on an oversized length prefix (which is never
    /// consumed — there is nothing to resync past).
    #[test]
    fn decoder_survives_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut buf = BytesMut::from(&data[..]);
        for _ in 0..data.len() + 1 {
            let before = buf.len();
            match Message::decode(&mut buf) {
                Ok(_) => prop_assert!(buf.len() < before),
                Err(avoc::net::message::DecodeError::Incomplete) => break,
                Err(avoc::net::message::DecodeError::FrameTooLarge { len }) => {
                    prop_assert!(len > avoc::net::message::MAX_FRAME_LEN);
                    prop_assert_eq!(buf.len(), before, "oversized frames are not consumed");
                    break;
                }
                Err(_) => prop_assert!(buf.len() < before, "error frames must be consumed"),
            }
        }
    }

    /// A decoder fed valid frames split at arbitrary boundaries recovers
    /// every message exactly once.
    #[test]
    fn decoder_reassembles_split_frames(
        values in prop::collection::vec(-100.0f64..100.0, 1..20),
        split in 1usize..7,
    ) {
        let msgs: Vec<Message> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| Message::Reading {
                module: ModuleId::new((i % 3) as u32),
                round: i as u64,
                value: v,
            })
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode());
        }

        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(split) {
            buf.extend_from_slice(chunk);
            loop {
                match Message::decode(&mut buf) {
                    Ok(m) => decoded.push(m),
                    Err(avoc::net::message::DecodeError::Incomplete) => break,
                    Err(e) => prop_assert!(false, "unexpected decode error {e}"),
                }
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// However sensor messages interleave, the hub emits each round id at
    /// most once, in strictly increasing order, with the full expected
    /// ballot width.
    #[test]
    fn hub_rounds_are_well_formed(
        order in prop::collection::vec((0u32..4, 0u64..6), 0..60),
    ) {
        let expected: Vec<ModuleId> = (0..4).map(ModuleId::new).collect();
        let mut hub = SensorHub::new(expected).with_lag_tolerance(2);
        let mut emitted: Vec<u64> = Vec::new();
        for (module, round) in order {
            for r in hub.accept(Message::Reading {
                module: ModuleId::new(module),
                round,
                value: module as f64,
            }) {
                prop_assert_eq!(r.expected_count(), 4);
                emitted.push(r.round);
            }
        }
        for r in hub.flush_all() {
            prop_assert_eq!(r.expected_count(), 4);
            emitted.push(r.round);
        }
        prop_assert!(emitted.windows(2).all(|w| w[0] < w[1]),
            "rounds must be strictly increasing: {emitted:?}");
    }

    /// The slot hub against the tree hub it replaced, message by message:
    /// the same rounds (ids, and ballots on `to_bits`) and the same
    /// straggler count, whatever arrives — duplicates, unknown modules,
    /// explicit missings, heartbeats, shutdowns, rounds out of order and
    /// far apart, a positional or a scattered module set, a resume floor —
    /// and the same rows, NaN for a missing ballot, where a reading goes in
    /// through the row entry point.
    #[test]
    fn hub_matches_the_naive_reference(
        positional in any::<bool>(),
        lag in 0u64..5,
        floor in prop::option::of(0u64..4),
        script in prop::collection::vec(
            (0u8..16, 0usize..7, 0u64..160, any::<f64>()),
            0..120,
        ),
    ) {
        let ids: &[u32] = if positional { &[0, 1, 2] } else { &[3, 7, 42] };
        let expected: Vec<ModuleId> = ids.iter().copied().map(ModuleId::new).collect();
        let mut hub = SensorHub::new(expected.clone())
            .with_lag_tolerance(lag)
            .with_completed_through(floor);
        let mut naive = NaiveHub::new(expected, lag, floor);
        let mut rows = Rows::default();
        for (kind, pick, place, value) in script {
            // Four of the seven ids are unknown to either set.
            let module = ModuleId::new([0, 1, 2, 3, 7, 42, 5][pick]);
            // Mostly a few rounds in flight; one in eight far away.
            let near = place % 10;
            let round = match place / 10 {
                0 => 1_000_000 + near,
                1 => u64::MAX - near,
                _ => near,
            };
            let msg = match kind {
                0 | 1 => Message::Missing { module, round },
                2 => Message::Heartbeat { module },
                3 => Message::Shutdown,
                _ => Message::Reading { module, round, value },
            };
            let want = naive.accept(msg.clone());
            match msg {
                // Half the readings leave as rows, half as rounds.
                Message::Reading { module, round, value } if kind % 2 == 1 => {
                    hub.accept_reading_into(module, round, value, &mut rows);
                    prop_assert_eq!(row_bits(&rows), rounds_as_row_bits(&want));
                    rows.clear();
                }
                msg => prop_assert_eq!(ballot_bits(&hub.accept(msg)), ballot_bits(&want)),
            }
            prop_assert_eq!(hub.straggler_count(), naive.straggler_count());
        }
        prop_assert_eq!(ballot_bits(&hub.flush_all()), ballot_bits(&naive.flush_all()));
    }

    /// Whole rounds assembled in one step against the tree hub fed the
    /// same readings one by one: where `accept_round` takes a round
    /// and where it refuses one (a round open, a round at or below the
    /// floor, a scattered module set) and the caller falls back to one
    /// `accept_reading_into` per module, the rows emitted (ids, and values
    /// on `to_bits`, NaN for a missing ballot) and the straggler count are
    /// the same after every step, and so is everything the hubs do after
    /// it — single readings, missings, heartbeats and shutdowns between the
    /// whole rounds, and the final flush.
    #[test]
    fn whole_rounds_match_the_naive_reference(
        positional in any::<bool>(),
        lag in 0u64..5,
        floor in prop::option::of(0u64..6),
        script in prop::collection::vec(
            (0u8..12, 0usize..4, 0u64..12, prop::collection::vec(any::<f64>(), 3)),
            0..80,
        ),
    ) {
        let ids: &[u32] = if positional { &[0, 1, 2] } else { &[3, 7, 42] };
        let expected: Vec<ModuleId> = ids.iter().copied().map(ModuleId::new).collect();
        let mut hub = SensorHub::new(expected.clone())
            .with_lag_tolerance(lag)
            .with_completed_through(floor);
        let mut naive = NaiveHub::new(expected.clone(), lag, floor);
        let mut rows = Rows::default();
        let mut taken = 0;
        for (kind, pick, round, values) in script {
            let mut want = Vec::new();
            match kind {
                // Mostly whole rounds, a few rounds apart or repeated.
                0..=6 => {
                    for (&module, &value) in expected.iter().zip(&values) {
                        want.extend(naive.accept(Message::Reading { module, round, value }));
                    }
                    if hub.accept_round(round, &values, &mut rows) {
                        taken += 1;
                    } else {
                        for (&module, &value) in expected.iter().zip(&values) {
                            hub.accept_reading_into(module, round, value, &mut rows);
                        }
                    }
                }
                // Between them, single messages that leave rounds open.
                kind => {
                    let module = ModuleId::new([0, 1, 2, 7][pick]);
                    let msg = match kind {
                        7 => Message::Missing { module, round },
                        8 => Message::Heartbeat { module },
                        9 => Message::Shutdown,
                        _ => Message::Reading { module, round, value: values[0] },
                    };
                    want = naive.accept(msg.clone());
                    match msg {
                        Message::Reading { module, round, value } => {
                            hub.accept_reading_into(module, round, value, &mut rows);
                        }
                        msg => {
                            prop_assert_eq!(ballot_bits(&hub.accept(msg)), ballot_bits(&want));
                            want.clear();
                        }
                    }
                }
            }
            prop_assert_eq!(row_bits(&rows), rounds_as_row_bits(&want));
            prop_assert_eq!(hub.straggler_count(), naive.straggler_count());
            rows.clear();
        }
        prop_assert!(positional || taken == 0, "a scattered module set is never taken whole");
        hub.flush_all_into(&mut rows);
        prop_assert_eq!(row_bits(&rows), rounds_as_row_bits(&naive.flush_all()));
    }

    /// Every session-control frame (tags 5–9) survives an encode/decode
    /// round trip byte-exactly, including empty and non-trivial strings.
    #[test]
    fn control_frames_round_trip(
        kind in 0u8..5,
        session in any::<u64>(),
        modules in any::<u32>(),
        round in any::<u64>(),
        value in -1.0e9f64..1.0e9,
        text in "[a-zA-Z0-9 _/.-]{0,40}",
        named in any::<bool>(),
        has_value in any::<bool>(),
        voted in any::<bool>(),
    ) {
        let msg = match kind {
            0 => Message::OpenSession {
                session,
                modules,
                spec: if named {
                    SpecSource::Named(text)
                } else {
                    SpecSource::Inline(text)
                },
            },
            1 => Message::CloseSession { session },
            2 => Message::SessionReading {
                session,
                module: ModuleId::new(modules),
                round,
                value,
            },
            3 => Message::SessionResult {
                session,
                round,
                value: has_value.then_some(value),
                voted,
            },
            _ => Message::Error { session, message: text },
        };
        let mut buf = BytesMut::from(&msg.encode()[..]);
        let decoded = Message::decode(&mut buf);
        prop_assert_eq!(decoded.ok(), Some(msg));
        prop_assert!(buf.is_empty(), "a frame decodes to exactly one message");
    }

    /// Control frames interleaved with legacy reading frames reassemble
    /// from arbitrary split points just like a homogeneous stream.
    #[test]
    fn mixed_frame_streams_reassemble(
        sessions in prop::collection::vec(any::<u64>(), 1..12),
        split in 1usize..9,
    ) {
        let msgs: Vec<Message> = sessions
            .iter()
            .enumerate()
            .flat_map(|(i, &s)| {
                vec![
                    Message::SessionReading {
                        session: s,
                        module: ModuleId::new(i as u32),
                        round: i as u64,
                        value: i as f64,
                    },
                    Message::Reading {
                        module: ModuleId::new(i as u32),
                        round: i as u64,
                        value: -(i as f64),
                    },
                ]
            })
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&m.encode());
        }
        let mut buf = BytesMut::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(split) {
            buf.extend_from_slice(chunk);
            loop {
                match Message::decode(&mut buf) {
                    Ok(m) => decoded.push(m),
                    Err(avoc::net::message::DecodeError::Incomplete) => break,
                    Err(e) => prop_assert!(false, "unexpected decode error {e}"),
                }
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// Arbitrary non-empty batches round-trip byte-exactly through the
    /// tag-10 codec, preserving reading order.
    #[test]
    fn feed_batch_round_trips(
        session in any::<u64>(),
        triples in prop::collection::vec(
            (any::<u32>(), any::<u64>(), -1.0e12f64..1.0e12),
            1..200,
        ),
    ) {
        let readings: Vec<BatchReading> = triples
            .iter()
            .map(|&(m, r, v)| BatchReading {
                module: ModuleId::new(m),
                round: r,
                value: v,
            })
            .collect();
        let msg = Message::FeedBatch { session, readings };
        let mut buf = BytesMut::from(&msg.encode()[..]);
        let decoded = Message::decode(&mut buf);
        prop_assert_eq!(decoded.ok(), Some(msg));
        prop_assert!(buf.is_empty(), "a frame decodes to exactly one message");
    }

    /// A batch frame whose count disagrees with its length — lying high
    /// (allocation fishing), lying low, or truncated mid-reading — is
    /// rejected and fully consumed so the stream can resynchronise.
    #[test]
    fn hostile_batch_counts_are_rejected(
        session in any::<u64>(),
        actual in 1u32..30,
        claimed in 0u32..200_000,
        chop in 1usize..19,
    ) {
        // (no prop_assume in the vendored shim: dodge the honest count)
        let claimed = if claimed == actual { claimed + 1 } else { claimed };
        let mut payload = BytesMut::new();
        payload.put_u8(10);
        payload.put_u64(session);
        payload.put_u32(claimed);
        for i in 0..actual {
            payload.put_u32(i);
            payload.put_u64(u64::from(i));
            payload.put_f64(f64::from(i));
        }
        let mut frame = BytesMut::new();
        frame.put_u32(payload.len() as u32);
        frame.extend_from_slice(&payload);

        let mut buf = frame.clone();
        prop_assert!(matches!(
            Message::decode(&mut buf),
            Err(avoc::net::message::DecodeError::BadLength { tag: 10, .. })
        ));
        prop_assert!(buf.is_empty(), "bad frames are consumed for resync");

        // Truncation: cut the honest frame mid-reading and fix the prefix.
        let mut honest = frame;
        honest[4 + 9..4 + 13].copy_from_slice(&actual.to_be_bytes());
        let cut = honest.len() - chop;
        let mut truncated = BytesMut::from(&honest[..cut]);
        truncated[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        prop_assert!(matches!(
            Message::decode(&mut truncated),
            Err(avoc::net::message::DecodeError::BadLength { tag: 10, .. })
        ));
        prop_assert!(truncated.is_empty(), "bad frames are consumed for resync");
    }

    /// The crash-recovery handshake (tags 11–12) round-trips byte-exactly
    /// for every combination of optional fields.
    #[test]
    fn resume_handshake_frames_round_trip(
        session in any::<u64>(),
        modules in any::<u32>(),
        token in any::<u64>(),
        acked in prop::option::of(any::<u64>()),
        high in prop::option::of(any::<u64>()),
        warm in any::<bool>(),
        named in any::<bool>(),
        text in "[a-zA-Z0-9 _/.-]{0,40}",
    ) {
        let resume = Message::ResumeSession {
            session,
            modules,
            spec: if named {
                SpecSource::Named(text.clone())
            } else {
                SpecSource::Inline(text)
            },
            token,
            last_acked: acked,
        };
        let resumed = Message::Resumed { session, high_round: high, warm };
        for msg in [resume, resumed] {
            let mut buf = BytesMut::from(&msg.encode()[..]);
            let decoded = Message::decode(&mut buf);
            prop_assert_eq!(decoded.ok(), Some(msg));
            prop_assert!(buf.is_empty(), "a frame decodes to exactly one message");
        }
    }

    /// Hostile mutations of a resume-handshake frame — a flag byte outside
    /// {0, 1}, or a truncation anywhere inside the payload with the length
    /// prefix rewritten to match — are rejected with the frame consumed, so
    /// the stream resynchronises. A decoder that accepts a frame must
    /// re-encode it to exactly the bytes it read (canonical acceptance):
    /// nothing hostile sneaks through by reinterpretation.
    #[test]
    fn hostile_resume_frames_are_rejected_or_canonical(
        session in any::<u64>(),
        token in any::<u64>(),
        acked in prop::option::of(any::<u64>()),
        high in prop::option::of(any::<u64>()),
        bad_flag in 2u8..=255,
        cut_back in 1usize..24,
    ) {
        let frames = [
            Message::ResumeSession {
                session,
                modules: 3,
                spec: SpecSource::Named("avoc".into()),
                token,
                last_acked: acked,
            }
            .encode(),
            Message::Resumed { session, high_round: high, warm: true }.encode(),
        ];
        for frame in frames {
            // The optional-field flag sits right after session (+ modules +
            // token for tag 11); poison it.
            let flag_at = match frame[4] {
                11 => 4 + 1 + 8 + 4 + 8,
                _ => 4 + 1 + 8,
            };
            let mut poisoned = BytesMut::from(&frame[..]);
            poisoned[flag_at] = bad_flag;
            prop_assert!(matches!(
                Message::decode(&mut poisoned),
                Err(avoc::net::message::DecodeError::BadLength { .. })
            ));
            prop_assert!(poisoned.is_empty(), "bad frames are consumed for resync");

            // Truncate anywhere inside the payload, rewriting the length
            // prefix so the decoder sees a "complete" (but short) frame.
            let cut = (frame.len() - cut_back % (frame.len() - 4)).max(5);
            let mut truncated = BytesMut::from(&frame[..cut]);
            truncated[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
            let before = truncated.clone();
            match Message::decode(&mut truncated) {
                Ok(m) => prop_assert_eq!(
                    &m.encode()[..],
                    &before[..],
                    "accepted frames must be canonical"
                ),
                Err(avoc::net::message::DecodeError::Incomplete
                    | avoc::net::message::DecodeError::FrameTooLarge { .. }) => {
                    prop_assert!(false, "rewritten prefix cannot be incomplete or oversized")
                }
                Err(_) => {}
            }
            prop_assert!(truncated.is_empty(), "the frame is consumed either way");
        }
    }

    /// The allocation-free encoder is byte-identical to the allocating one
    /// for EVERY frame tag (1–13, 16–18), including when frames append to a buffer
    /// already holding unrelated bytes — the per-connection scratch-reuse
    /// contract the whole wire path now leans on.
    #[test]
    fn encode_into_matches_encode_for_every_tag(
        session in any::<u64>(),
        modules in any::<u32>(),
        round in any::<u64>(),
        value in -1.0e9f64..1.0e9,
        text in "[a-zA-Z0-9 _/.-]{0,24}",
        acked in prop::option::of(any::<u64>()),
        high in prop::option::of(any::<u64>()),
        flag in any::<bool>(),
        prefix in prop::collection::vec(any::<u8>(), 0..32),
    ) {
        let msgs = every_tag(session, modules, round, value, &text, acked, high, flag, &prefix);
        let mut frame = BytesMut::new();
        frame.extend_from_slice(&prefix);
        let mut expected: Vec<u8> = prefix.clone();
        for m in &msgs {
            m.encode_into(&mut frame);
            expected.extend_from_slice(&m.encode());
        }
        prop_assert_eq!(&frame[..], &expected[..]);
        // The appended stream decodes back to the same messages.
        let mut buf = BytesMut::from(&frame[prefix.len()..]);
        let mut decoded = Vec::new();
        while !buf.is_empty() {
            match Message::decode(&mut buf) {
                Ok(m) => decoded.push(m),
                Err(e) => prop_assert!(false, "unexpected decode error {e}"),
            }
        }
        prop_assert_eq!(decoded, msgs);
    }

    /// For EVERY frame tag: each strict prefix of a valid payload, and the
    /// payload plus one trailing byte, re-framed under a truthful length
    /// prefix, is a layout fault — `BadLength`, never a panic and never a
    /// reinterpretation — that consumes exactly its own frame, so a valid
    /// frame behind it still decodes.
    #[test]
    fn every_tag_rejects_truncation_and_trailing_bytes(
        session in any::<u64>(),
        modules in any::<u32>(),
        round in any::<u64>(),
        value in -1.0e9f64..1.0e9,
        text in "[a-zA-Z0-9 _/.-]{0,24}",
        acked in prop::option::of(any::<u64>()),
        high in prop::option::of(any::<u64>()),
        flag in any::<bool>(),
        blob in prop::collection::vec(any::<u8>(), 0..32),
        trailing in any::<u8>(),
    ) {
        let follower = Message::Heartbeat { module: ModuleId::new(modules) };
        for msg in every_tag(session, modules, round, value, &text, acked, high, flag, &blob) {
            let frame = msg.encode();
            let payload = &frame[4..];
            let mut hostile: Vec<Vec<u8>> = (0..payload.len()).map(|cut| payload[..cut].to_vec()).collect();
            hostile.push([payload, &[trailing]].concat());
            for bad in hostile {
                let mut buf = framed(&bad);
                buf.extend_from_slice(&follower.encode());
                let got = Message::decode(&mut buf);
                prop_assert!(
                    matches!(got, Err(avoc::net::message::DecodeError::BadLength { .. })),
                    "tag {} payload of {} bytes cut/extended to {}: {:?}",
                    payload[0], payload.len(), bad.len(), got
                );
                prop_assert_eq!(Message::decode(&mut buf), Ok(follower.clone()));
                prop_assert!(buf.is_empty());
            }
        }
    }

    /// For EVERY frame tag: replacing any one payload byte of a valid frame
    /// either rejects the frame or yields a message that re-encodes to
    /// exactly the mutated bytes (canonical acceptance) — no byte of any
    /// layout is read loosely. The frame is consumed either way.
    #[test]
    fn every_tag_mutated_byte_is_rejected_or_canonical(
        session in any::<u64>(),
        modules in any::<u32>(),
        round in any::<u64>(),
        value in -1.0e9f64..1.0e9,
        text in "[a-zA-Z0-9 _/.-]{0,24}",
        acked in prop::option::of(any::<u64>()),
        high in prop::option::of(any::<u64>()),
        flag in any::<bool>(),
        blob in prop::collection::vec(any::<u8>(), 0..32),
        at in 0usize..4096,
        byte in any::<u8>(),
    ) {
        for msg in every_tag(session, modules, round, value, &text, acked, high, flag, &blob) {
            let mut mutated = BytesMut::from(&msg.encode()[..]);
            let at = 4 + at % (mutated.len() - 4);
            mutated[at] = byte;
            let before = mutated.clone();
            match Message::decode(&mut mutated) {
                Ok(m) => prop_assert_eq!(
                    &m.encode()[..],
                    &before[..],
                    "accepted frames must be canonical (byte {} of {:?})", at, msg
                ),
                Err(avoc::net::message::DecodeError::Incomplete
                    | avoc::net::message::DecodeError::FrameTooLarge { .. }) => {
                    prop_assert!(false, "an untouched prefix cannot be incomplete or oversized")
                }
                Err(_) => {}
            }
            prop_assert!(mutated.is_empty(), "the frame is consumed either way");
        }
    }

    /// Arbitrary non-empty result batches round-trip byte-exactly through
    /// the tag-13 codec, preserving verdict order and the value/voted
    /// combinations.
    #[test]
    fn result_batch_frames_round_trip(
        session in any::<u64>(),
        triples in prop::collection::vec(
            (any::<u64>(), prop::option::of(-1.0e12f64..1.0e12), any::<bool>()),
            1..200,
        ),
    ) {
        let results: Vec<BatchResult> = triples
            .iter()
            .map(|&(round, value, voted)| BatchResult { round, value, voted })
            .collect();
        let msg = Message::ResultBatch { session, results };
        let mut buf = BytesMut::from(&msg.encode()[..]);
        let decoded = Message::decode(&mut buf);
        prop_assert_eq!(decoded.ok(), Some(msg));
        prop_assert!(buf.is_empty(), "a frame decodes to exactly one message");
    }

    /// A result-batch frame whose count disagrees with its length — lying
    /// high, lying low, or truncated mid-entry — is rejected and fully
    /// consumed so the stream can resynchronise.
    #[test]
    fn hostile_result_batch_counts_are_rejected(
        session in any::<u64>(),
        actual in 1u32..30,
        claimed in 0u32..200_000,
        chop in 1usize..17,
    ) {
        // (no prop_assume in the vendored shim: dodge the honest count)
        let claimed = if claimed == actual { claimed + 1 } else { claimed };
        let mut payload = BytesMut::new();
        payload.put_u8(13);
        payload.put_u64(session);
        payload.put_u32(claimed);
        for i in 0..actual {
            payload.put_u64(u64::from(i));
            payload.put_u8(u8::from(i % 2 == 0)); // has_value flag
            payload.put_f64(if i % 2 == 0 { f64::from(i) } else { 0.0 });
        }
        let mut frame = BytesMut::new();
        frame.put_u32(payload.len() as u32);
        frame.extend_from_slice(&payload);

        let mut buf = frame.clone();
        prop_assert!(matches!(
            Message::decode(&mut buf),
            Err(avoc::net::message::DecodeError::BadLength { tag: 13, .. })
        ));
        prop_assert!(buf.is_empty(), "bad frames are consumed for resync");

        // Truncation: cut the honest frame mid-entry and fix the prefix.
        let mut honest = frame;
        honest[4 + 9..4 + 13].copy_from_slice(&actual.to_be_bytes());
        let cut = honest.len() - chop;
        let mut truncated = BytesMut::from(&honest[..cut]);
        truncated[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        prop_assert!(matches!(
            Message::decode(&mut truncated),
            Err(avoc::net::message::DecodeError::BadLength { tag: 13, .. })
        ));
        prop_assert!(truncated.is_empty(), "bad frames are consumed for resync");
    }

    /// The cluster-tier frames (tags 16–18) round-trip byte-exactly for
    /// arbitrary addresses, epochs and raw (non-UTF-8) state blobs.
    #[test]
    fn cluster_frames_round_trip(
        session in any::<u64>(),
        epoch in any::<u64>(),
        addr in "[a-zA-Z0-9 _/.:-]{0,40}",
        meta in prop::collection::vec(any::<u8>(), 0..300),
        wal in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let msgs = [
            Message::Redirect { session, epoch, addr: addr.clone() },
            Message::ExportSession {
                session,
                target_node: epoch,
                epoch,
                auth: epoch,
                target_addr: addr,
            },
            Message::SessionState { session, epoch, auth: epoch, meta, wal },
        ];
        for msg in msgs {
            let mut buf = BytesMut::from(&msg.encode()[..]);
            let decoded = Message::decode(&mut buf);
            prop_assert_eq!(decoded.ok(), Some(msg));
            prop_assert!(buf.is_empty(), "a frame decodes to exactly one message");
        }
    }

    /// Hostile mutations of a SessionState frame — blob lengths lying high
    /// (fishing past the frame) or low (leaving trailing bytes), or a
    /// truncation anywhere inside the payload with the length prefix
    /// rewritten to match — are rejected with the frame consumed; anything
    /// accepted must re-encode to exactly the bytes read (canonical
    /// acceptance), the same bar as FeedBatch/ResultBatch.
    #[test]
    fn hostile_session_state_frames_are_rejected_or_canonical(
        session in any::<u64>(),
        epoch in any::<u64>(),
        meta in prop::collection::vec(any::<u8>(), 1..60),
        wal in prop::collection::vec(any::<u8>(), 1..60),
        lie in 0u32..200_000,
        cut_back in 1usize..40,
    ) {
        let frame = Message::SessionState {
            session,
            epoch,
            auth: epoch,
            meta: meta.clone(),
            wal: wal.clone(),
        }
        .encode();

        // Poison the meta blob length (sits after len + tag + session +
        // epoch + auth). Dodge the honest value — the shim has no
        // prop_assume.
        let lie = if lie as usize == meta.len() { lie + 1 } else { lie };
        let mut poisoned = BytesMut::from(&frame[..]);
        poisoned[29..33].copy_from_slice(&lie.to_be_bytes());
        let before = poisoned.clone();
        match Message::decode(&mut poisoned) {
            Ok(m) => prop_assert_eq!(
                &m.encode()[..],
                &before[..],
                "accepted frames must be canonical"
            ),
            Err(avoc::net::message::DecodeError::BadLength { tag: 18, .. }) => {}
            Err(e) => prop_assert!(false, "unexpected decode error {e}"),
        }
        prop_assert!(poisoned.is_empty(), "the frame is consumed either way");

        // Truncate anywhere inside the payload, rewriting the prefix so the
        // decoder sees a "complete" (but short) frame.
        let cut = (frame.len() - cut_back % (frame.len() - 4)).max(5);
        let mut truncated = BytesMut::from(&frame[..cut]);
        truncated[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
        let before = truncated.clone();
        match Message::decode(&mut truncated) {
            Ok(m) => prop_assert_eq!(
                &m.encode()[..],
                &before[..],
                "accepted frames must be canonical"
            ),
            Err(avoc::net::message::DecodeError::Incomplete
                | avoc::net::message::DecodeError::FrameTooLarge { .. }) => {
                prop_assert!(false, "rewritten prefix cannot be incomplete or oversized")
            }
            Err(_) => {}
        }
        prop_assert!(truncated.is_empty(), "the frame is consumed either way");
    }

    /// Hostile mutations of the redirect/export frames: truncation with a
    /// rewritten prefix is rejected-or-canonical, and a non-UTF-8 address
    /// always rejects.
    #[test]
    fn hostile_redirect_frames_are_rejected_or_canonical(
        session in any::<u64>(),
        epoch in any::<u64>(),
        addr in "[a-zA-Z0-9.:-]{1,30}",
        cut_back in 1usize..20,
        junk in prop::collection::vec(0x80u8..0xC0, 1..8),
    ) {
        let frames = [
            Message::Redirect { session, epoch, addr: addr.clone() }.encode(),
            Message::ExportSession {
                session,
                target_node: epoch,
                epoch,
                auth: epoch,
                target_addr: addr,
            }
            .encode(),
        ];
        for frame in frames {
            let tag = frame[4];
            let cut = (frame.len() - cut_back % (frame.len() - 4)).max(5);
            let mut truncated = BytesMut::from(&frame[..cut]);
            truncated[0..4].copy_from_slice(&((cut - 4) as u32).to_be_bytes());
            let before = truncated.clone();
            match Message::decode(&mut truncated) {
                Ok(m) => prop_assert_eq!(
                    &m.encode()[..],
                    &before[..],
                    "accepted frames must be canonical"
                ),
                Err(avoc::net::message::DecodeError::Incomplete
                    | avoc::net::message::DecodeError::FrameTooLarge { .. }) => {
                    prop_assert!(false, "rewritten prefix cannot be incomplete or oversized")
                }
                Err(_) => {}
            }
            prop_assert!(truncated.is_empty(), "the frame is consumed either way");

            // Replace the address with continuation bytes (invalid UTF-8
            // at every position): must reject, consuming the frame.
            // Export carries target_node + epoch + auth where Redirect
            // carries only its epoch.
            let extra = if tag == 17 { 16 } else { 0 };
            let mut bad = BytesMut::new();
            bad.put_u32((1 + 8 + 8 + extra + 4 + junk.len()) as u32);
            bad.put_u8(tag);
            bad.put_u64(session);
            bad.put_u64(epoch);
            if extra > 0 {
                bad.put_u64(epoch);
                bad.put_u64(epoch);
            }
            bad.put_u32(junk.len() as u32);
            bad.extend_from_slice(&junk);
            prop_assert!(matches!(
                Message::decode(&mut bad),
                Err(avoc::net::message::DecodeError::BadLength { .. })
            ));
            prop_assert!(bad.is_empty(), "bad frames are consumed for resync");
        }
    }

    /// A one-session daemon fed a randomly gappy trace by one thread per
    /// sensor emits, once closed, exactly one verdict per round it heard a
    /// reading for, in round order. (The daemon never hears an explicit
    /// `Missing`: a gap surfaces when a later round completes, or at close.)
    #[test]
    fn pipeline_emits_one_output_per_round(
        gaps in prop::collection::vec(prop::collection::vec(any::<bool>(), 4..=4), 5..15),
    ) {
        let mut spec = VdxSpec::avoc();
        spec.quorum = avoc::vdx::QuorumKind::Any;
        let service = VoterService::start(
            ServeConfig {
                lag_tolerance: gaps.len() as u64,
                ..ServeConfig::default()
            },
            std::sync::Arc::new(SpecRegistry::new()),
        );
        let (sink, results) = crossbeam::channel::unbounded();
        let inline = SpecSource::Inline(spec.to_json());
        service.open_session(1, 4, &inline, sink).unwrap();
        std::thread::scope(|feeders| {
            for sensor in 0..4 {
                let (service, gaps) = (&service, &gaps);
                feeders.spawn(move || {
                    let module = ModuleId::new(sensor as u32);
                    let value = 18.0 + sensor as f64 * 0.01;
                    for (round, _) in gaps.iter().enumerate().filter(|(_, row)| row[sensor]) {
                        service.feed(1, module, round as u64, value).unwrap();
                    }
                });
            }
        });
        service.close_session(1).unwrap();
        service.drain();
        let mut fused = Vec::new();
        for frame in results.try_iter() {
            match frame {
                Message::ResultBatch { results, .. } => {
                    fused.extend(results.iter().map(|r| r.round))
                }
                Message::SessionResult { round, .. } => fused.push(round),
                other => prop_assert!(false, "unexpected frame {:?}", other),
            }
        }
        let heard = (0u64..).zip(&gaps).filter(|(_, row)| row.contains(&true));
        prop_assert_eq!(fused, heard.map(|(round, _)| round).collect::<Vec<_>>());
    }
}

/// A zero-reading batch is protocol spam: rejected (consuming the frame),
/// never decoded into an empty message.
/// The fixed case of the mutated-byte property that the tag-8 decoder used
/// to get wrong: `voted` was the one boolean read as `!= 0`, so a frame
/// carrying 2 decoded and re-encoded to different bytes.
#[test]
fn session_result_voted_byte_is_strictly_zero_or_one() {
    for value in [Some(18.5), None] {
        let frame = Message::SessionResult {
            session: 7,
            round: 3,
            value,
            voted: true,
        }
        .encode();
        let mut buf = BytesMut::from(&frame[..]);
        let last = buf.len() - 1;
        buf[last] = 2;
        assert!(matches!(
            Message::decode(&mut buf),
            Err(avoc::net::message::DecodeError::BadLength { tag: 8, .. })
        ));
        assert!(buf.is_empty(), "bad frame must be consumed for resync");
    }
}

#[test]
fn zero_reading_batch_is_rejected() {
    let mut buf = BytesMut::new();
    buf.put_u32(13);
    buf.put_u8(10);
    buf.put_u64(77);
    buf.put_u32(0);
    assert!(matches!(
        Message::decode(&mut buf),
        Err(avoc::net::message::DecodeError::BadLength { tag: 10, .. })
    ));
    assert!(buf.is_empty());
}

/// The advertised maximum result batch is exactly the largest that fits
/// under the frame cap: one 17-byte entry more would not fit.
#[test]
fn max_result_batch_is_tight_against_frame_cap() {
    let result = BatchResult {
        round: 0,
        value: Some(0.0),
        voted: true,
    };
    let frame = Message::ResultBatch {
        session: 1,
        results: vec![result; MAX_BATCH_RESULTS],
    }
    .encode();
    let payload = frame.len() - 4;
    assert!(payload <= avoc::net::message::MAX_FRAME_LEN);
    assert!(payload + 17 > avoc::net::message::MAX_FRAME_LEN);
    let mut buf = BytesMut::from(&frame[..]);
    assert!(Message::decode(&mut buf).is_ok());
}

/// The advertised maximum batch is exactly the largest that fits under the
/// frame cap: one reading more would not fit.
#[test]
fn max_batch_is_tight_against_frame_cap() {
    let reading = BatchReading {
        module: ModuleId::new(0),
        round: 0,
        value: 0.0,
    };
    let frame = Message::FeedBatch {
        session: 1,
        readings: vec![reading; MAX_BATCH_READINGS],
    }
    .encode();
    let payload = frame.len() - 4;
    assert!(payload <= avoc::net::message::MAX_FRAME_LEN);
    assert!(payload + 20 > avoc::net::message::MAX_FRAME_LEN);
    let mut buf = BytesMut::from(&frame[..]);
    assert!(Message::decode(&mut buf).is_ok());
}
