//! Re-entrant streaming frame decoding for non-blocking reads.
//!
//! The blocking servers fed [`Message::decode`] straight from a read
//! loop; a reactor instead receives arbitrary byte slivers — half a
//! length prefix here, three frames and a tail there — whenever the
//! socket turns readable. [`StreamDecoder`] owns the carry-over buffer
//! and re-enters the frame codec at every readiness event, yielding the
//! exact same frame sequence the one-shot decoder produces on the whole
//! stream (property-tested in this module).
//!
//! Hostility handling is sticky: a length prefix beyond
//! [`crate::message::MAX_FRAME_LEN`] poisons the decoder — the carry
//! buffer is released immediately and later [`StreamDecoder::extend`]
//! calls are discarded, so a hostile peer can neither grow daemon memory
//! nor resynchronise past the attack.

use crate::message::{BatchView, DecodeError, Decoded, Message};
use bytes::{Buf, BytesMut};

/// What one [`StreamDecoder::next`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodeStep {
    /// A complete, well-formed frame.
    Frame(Message),
    /// A malformed frame was consumed whole; the stream resynchronises at
    /// the next frame boundary (carries the reason for accounting).
    Skipped(DecodeError),
    /// No complete frame is buffered — feed more bytes.
    Incomplete,
    /// A hostile length prefix was seen: the stream is dead, nothing is
    /// buffered, and every further byte is discarded. Sticky.
    Dead(DecodeError),
}

/// What one [`StreamDecoder::next_from`] call produced: a
/// [`DecodeStep`] whose `FeedBatch` frames stay where they were parsed.
#[derive(Debug)]
pub(crate) enum InPlaceStep<'a> {
    /// A complete, well-formed frame other than a batch.
    Frame(Message),
    /// A complete, well-formed `FeedBatch` frame, its readings borrowed
    /// from the read or the decoder's carry until the next call.
    Batch {
        /// Target session.
        session: u64,
        /// The frame's readings.
        readings: BatchView<'a>,
    },
    /// As [`DecodeStep::Skipped`].
    Skipped(DecodeError),
    /// As [`DecodeStep::Incomplete`].
    Incomplete,
    /// As [`DecodeStep::Dead`].
    Dead(DecodeError),
}

impl InPlaceStep<'_> {
    /// The owned step: a batch's readings copied out.
    fn into_owned(self) -> DecodeStep {
        match self {
            InPlaceStep::Frame(msg) => DecodeStep::Frame(msg),
            InPlaceStep::Batch { session, readings } => {
                DecodeStep::Frame(Decoded::Batch { session, readings }.into_message())
            }
            InPlaceStep::Skipped(e) => DecodeStep::Skipped(e),
            InPlaceStep::Incomplete => DecodeStep::Incomplete,
            InPlaceStep::Dead(e) => DecodeStep::Dead(e),
        }
    }
}

/// The per-connection streaming decoder: extend with whatever the socket
/// yields, then pull [`DecodeStep`]s until [`DecodeStep::Incomplete`]. A
/// reactor instead hands each read to `next_from`, which copies only what
/// the read leaves incomplete.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    /// Bytes not yet decoded: a frame a read cut off, or what `extend`
    /// appended.
    buf: BytesMut,
    /// Length of the last frame handed out, still at the front of `buf`
    /// (a batch may borrow it) until the next call consumes it.
    parsed: usize,
    poisoned: Option<DecodeError>,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> StreamDecoder {
        StreamDecoder {
            buf: BytesMut::with_capacity(4096),
            parsed: 0,
            poisoned: None,
        }
    }

    /// Appends bytes read off the socket. Discarded (not buffered) once
    /// the decoder is poisoned.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.advance(std::mem::take(&mut self.parsed));
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Decodes the next frame out of the carry buffer — the owned form of
    /// [`StreamDecoder::next_from`] with nothing more read, a batch's
    /// readings copied out.
    pub fn next_frame(&mut self) -> DecodeStep {
        self.next_from(&mut &[][..]).into_owned()
    }

    /// Decodes the next frame of the stream — what the decoder carries,
    /// then `input`, bytes just read, which it advances past what it takes.
    /// A frame that lies whole in `input` is parsed where it lies, so a
    /// read is not copied; only a frame the end of a read cuts off is
    /// carried, and completed from the next read. A `FeedBatch` comes back
    /// as a [`BatchView`] over whichever holds it, until the next call.
    /// Once poisoned, `input` is discarded.
    pub(crate) fn next_from<'r, 'i: 'r>(&'r mut self, input: &mut &'i [u8]) -> InPlaceStep<'r> {
        self.buf.advance(std::mem::take(&mut self.parsed));
        if self.buf.is_empty() {
            // The next carry starts at the front: a buffer that once held
            // a whole frame holds any later one without growing.
            self.buf.clear();
        }
        if let Some(e) = &self.poisoned {
            *input = &[];
            return InPlaceStep::Dead(e.clone());
        }
        let bytes: &'i [u8] = input;
        if self.buf.is_empty() {
            return match Message::frame_len(bytes) {
                Ok(used) => {
                    let (frame, rest) = bytes.split_at(used);
                    *input = rest;
                    parse(&frame[4..])
                }
                Err(DecodeError::Incomplete) => {
                    self.buf.extend_from_slice(bytes);
                    *input = &[];
                    InPlaceStep::Incomplete
                }
                Err(e) => {
                    *input = &[];
                    self.poison(e)
                }
            };
        }
        // Complete the carried frame from `input`: its length prefix first,
        // then the rest of it, and never more.
        let mut bytes = bytes;
        loop {
            match Message::frame_len(&self.buf) {
                Ok(used) => {
                    *input = bytes;
                    self.parsed = used;
                    return parse(&self.buf[4..used]);
                }
                Err(DecodeError::Incomplete) if !bytes.is_empty() => {
                    let missing = match self.buf.first_chunk::<4>() {
                        None => 4 - self.buf.len(),
                        Some(&prefix) => 4 + u32::from_be_bytes(prefix) as usize - self.buf.len(),
                    };
                    let (head, rest) = bytes.split_at(missing.min(bytes.len()));
                    self.buf.extend_from_slice(head);
                    bytes = rest;
                }
                Err(DecodeError::Incomplete) => {
                    *input = &[];
                    return InPlaceStep::Incomplete;
                }
                Err(e) => {
                    *input = &[];
                    return self.poison(e);
                }
            }
        }
    }

    /// A hostile length prefix: fatal and non-consuming, so the buffer is
    /// dropped *now* rather than accumulated toward a multi-GiB frame that
    /// may never arrive.
    fn poison(&mut self, e: DecodeError) -> InPlaceStep<'static> {
        self.buf = BytesMut::new();
        self.poisoned = Some(e.clone());
        InPlaceStep::Dead(e)
    }
}

/// One whole frame's payload, parsed where it lies.
fn parse(payload: &[u8]) -> InPlaceStep<'_> {
    match Message::decode_payload(payload) {
        Ok(Decoded::Message(msg)) => InPlaceStep::Frame(msg),
        Ok(Decoded::Batch { session, readings }) => InPlaceStep::Batch { session, readings },
        Err(e) => InPlaceStep::Skipped(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MAX_FRAME_LEN;
    use avoc_core::ModuleId;
    use proptest::prelude::*;

    /// The reference: one-shot decoding of the whole stream with the raw
    /// codec, recording every step the server loop would take.
    fn one_shot(stream: &[u8]) -> Vec<DecodeStep> {
        let mut buf = BytesMut::from(stream);
        let mut steps = Vec::new();
        loop {
            match Message::decode(&mut buf) {
                Ok(m) => steps.push(DecodeStep::Frame(m)),
                Err(DecodeError::Incomplete) => break,
                Err(e @ DecodeError::FrameTooLarge { .. }) => {
                    steps.push(DecodeStep::Dead(e));
                    break;
                }
                Err(e) => steps.push(DecodeStep::Skipped(e)),
            }
        }
        steps
    }

    /// Pulls steps until the decoder wants more bytes, recording a dead
    /// stream once: a server drops the connection there.
    fn drain(steps: &mut Vec<DecodeStep>, mut next: impl FnMut() -> DecodeStep) {
        loop {
            match next() {
                DecodeStep::Incomplete => break,
                DecodeStep::Dead(e) => {
                    if !matches!(steps.last(), Some(DecodeStep::Dead(_))) {
                        steps.push(DecodeStep::Dead(e));
                    }
                    break;
                }
                step => steps.push(step),
            }
        }
    }

    /// Streaming decoding with the given chunking, both ways a reader
    /// feeds the decoder: `extend` then `next_frame`, and the reactor's
    /// `next_from` over each read, which must take the same steps and
    /// carry the same bytes.
    fn streamed(stream: &[u8], cuts: &[usize]) -> (Vec<DecodeStep>, StreamDecoder) {
        let (mut dec, mut in_place) = (StreamDecoder::new(), StreamDecoder::new());
        let (mut steps, mut steps_in_place) = (Vec::new(), Vec::new());
        let mut reads = Vec::new();
        let mut consumed = 0;
        for &cut in cuts {
            let cut = cut.min(stream.len());
            if cut > consumed {
                reads.push(&stream[consumed..cut]);
                consumed = cut;
            }
        }
        if consumed < stream.len() {
            reads.push(&stream[consumed..]);
        }
        for read in reads {
            dec.extend(read);
            drain(&mut steps, || dec.next_frame());
            let mut input = read;
            drain(&mut steps_in_place, || {
                in_place.next_from(&mut input).into_owned()
            });
            assert!(input.is_empty(), "a read is taken whole");
        }
        assert_eq!(steps_in_place, steps, "in place vs extend");
        in_place.buf.advance(in_place.parsed);
        assert_eq!(in_place.buf.len(), dec.buf.len(), "carried bytes");
        (steps, dec)
    }

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Reading {
                module: ModuleId::new(3),
                round: 41,
                value: -2.75,
            },
            Message::Missing {
                module: ModuleId::new(1),
                round: 42,
            },
            Message::Heartbeat {
                module: ModuleId::new(2),
            },
            Message::SessionReading {
                session: 77,
                module: ModuleId::new(4),
                round: 43,
                value: 19.25,
            },
            Message::SessionResult {
                session: 77,
                round: 43,
                value: Some(19.0),
                voted: true,
            },
            Message::OpenSession {
                session: 5,
                modules: 4,
                spec: crate::message::SpecSource::Named("avoc".into()),
            },
            Message::CloseSession { session: 5 },
            Message::Error {
                session: 9,
                message: "mailbox full".into(),
            },
            Message::Shutdown,
            Message::FeedBatch {
                session: 77,
                readings: (0..3)
                    .map(|k| crate::message::BatchReading {
                        module: ModuleId::new(k),
                        round: 44,
                        value: 19.0 + f64::from(k),
                    })
                    .collect(),
            },
        ]
    }

    #[test]
    fn byte_by_byte_matches_one_shot_for_every_frame_kind() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            let cuts: Vec<usize> = (1..bytes.len()).collect();
            let (steps, dec) = streamed(&bytes, &cuts);
            assert_eq!(steps, one_shot(&bytes), "frame {msg:?} split per byte");
            assert_eq!(dec.buf.len(), 0, "no carry-over after a whole frame");
        }
    }

    #[test]
    fn a_batch_in_place_reads_as_its_owned_frame() {
        let msgs = sample_messages();
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&msg.encode());
        }
        let mut dec = StreamDecoder::new();
        let mut input = &stream[..];
        let mut frames = Vec::new();
        loop {
            match dec.next_from(&mut input) {
                InPlaceStep::Frame(msg) => frames.push(msg),
                InPlaceStep::Batch { session, readings } => {
                    assert_eq!(readings.len(), 3);
                    assert!(readings.iter().eq((0..3).map(|i| readings.get(i))));
                    frames.push(Message::FeedBatch {
                        session,
                        readings: readings.to_vec(),
                    });
                }
                InPlaceStep::Incomplete => break,
                step => panic!("unexpected {step:?}"),
            }
        }
        assert_eq!(frames, msgs);
        assert_eq!(dec.buf.len(), 0, "whole frames are never copied");
    }

    #[test]
    fn a_retired_tag_is_skipped_and_the_next_frame_still_decodes() {
        let open = Message::OpenSession {
            session: 5,
            modules: 4,
            spec: crate::message::SpecSource::Named("avoc".into()),
        };
        // Tag 14 once asked a daemon for its counters; it is unknown now.
        let mut stream = vec![0, 0, 0, 1, 14];
        stream.extend_from_slice(&open.encode());
        for cuts in [&[][..], &[2, 5, 9]] {
            let (steps, dec) = streamed(&stream, cuts);
            assert_eq!(
                steps,
                vec![
                    DecodeStep::Skipped(DecodeError::UnknownTag(14)),
                    DecodeStep::Frame(open.clone()),
                ]
            );
            assert_eq!(dec.buf.len(), 0);
        }
    }

    #[test]
    fn hostile_length_prefix_dies_without_buffering() {
        let huge = ((MAX_FRAME_LEN + 1) as u32).to_be_bytes();
        let mut dec = StreamDecoder::new();
        dec.extend(&huge);
        let step = dec.next_frame();
        assert!(matches!(
            step,
            DecodeStep::Dead(DecodeError::FrameTooLarge { .. })
        ));
        assert_eq!(dec.buf.len(), 0, "hostile prefix is not retained");
        // The poisoning is sticky and feeding more never buffers.
        dec.extend(&vec![0u8; 1 << 16]);
        assert!(matches!(dec.next_frame(), DecodeStep::Dead(_)));
        assert_eq!(dec.buf.len(), 0);
        assert!(dec.poisoned.is_some());
    }

    proptest! {
        /// Any frame sequence, cut at any split points — the streaming
        /// decoder yields the byte-identical step sequence the one-shot
        /// decoder produces, with no bytes left behind.
        #[test]
        fn random_splits_match_one_shot(
            picks in proptest::collection::vec(0usize..10, 1..8),
            cuts in proptest::collection::vec(0usize..4096, 0..12),
            trailing in proptest::collection::vec(any::<u8>(), 0..7),
        ) {
            let msgs = sample_messages();
            let mut stream = Vec::new();
            for &p in &picks {
                stream.extend_from_slice(&msgs[p].encode());
            }
            // A truncated tail exercises the Incomplete carry path.
            stream.extend_from_slice(&trailing);
            let mut cuts = cuts;
            cuts.sort_unstable();
            let (steps, dec) = streamed(&stream, &cuts);
            prop_assert_eq!(&steps, &one_shot(&stream));
            prop_assert!(dec.buf.len() <= stream.len());
            if dec.poisoned.is_none() {
                prop_assert!(dec.buf.len() < 4 + trailing.len().max(4));
            }
        }

        /// Hostile prefixes injected mid-stream kill the stream at the
        /// same frame boundary regardless of chunking, and never buffer.
        #[test]
        fn random_splits_agree_on_hostile_streams(
            lead in 0usize..4,
            claimed in (MAX_FRAME_LEN as u32 + 1)..u32::MAX,
            cuts in proptest::collection::vec(0usize..256, 0..8),
        ) {
            let msgs = sample_messages();
            let mut stream = Vec::new();
            for m in msgs.iter().take(lead) {
                stream.extend_from_slice(&m.encode());
            }
            stream.extend_from_slice(&claimed.to_be_bytes());
            stream.extend_from_slice(&[7u8; 32]); // junk after the attack
            let mut cuts = cuts;
            cuts.sort_unstable();
            let (steps, dec) = streamed(&stream, &cuts);
            prop_assert_eq!(&steps, &one_shot(&stream));
            prop_assert!(matches!(steps.last(), Some(DecodeStep::Dead(_))));
            prop_assert_eq!(dec.buf.len(), 0, "hostile stream buffers nothing");
        }
    }
}
