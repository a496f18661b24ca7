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

use crate::message::{DecodeError, Message};
use bytes::BytesMut;

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

/// The per-connection streaming decoder: extend with whatever the socket
/// yields, then pull [`DecodeStep`]s until [`DecodeStep::Incomplete`].
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: BytesMut,
    poisoned: Option<DecodeError>,
}

impl StreamDecoder {
    /// An empty decoder.
    pub fn new() -> StreamDecoder {
        StreamDecoder {
            buf: BytesMut::with_capacity(4096),
            poisoned: None,
        }
    }

    /// Appends bytes read off the socket. Discarded (not buffered) once
    /// the decoder is poisoned.
    pub fn extend(&mut self, bytes: &[u8]) {
        if self.poisoned.is_none() {
            self.buf.extend_from_slice(bytes);
        }
    }

    /// Decodes the next frame out of the carry buffer.
    pub fn next_frame(&mut self) -> DecodeStep {
        if let Some(e) = self.poisoned.clone() {
            return DecodeStep::Dead(e);
        }
        match Message::decode(&mut self.buf) {
            Ok(msg) => DecodeStep::Frame(msg),
            Err(DecodeError::Incomplete) => DecodeStep::Incomplete,
            Err(e @ DecodeError::FrameTooLarge { .. }) => {
                // Fatal and non-consuming: drop the buffer *now* rather
                // than accumulate toward a multi-GiB frame that may never
                // arrive.
                self.buf = BytesMut::new();
                self.poisoned = Some(e.clone());
                DecodeStep::Dead(e)
            }
            Err(e) => DecodeStep::Skipped(e),
        }
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

    /// Streaming decoding with the given chunking.
    fn streamed(stream: &[u8], cuts: &[usize]) -> (Vec<DecodeStep>, StreamDecoder) {
        let mut dec = StreamDecoder::new();
        let mut steps = Vec::new();
        let mut consumed = 0;
        let feed = |dec: &mut StreamDecoder, steps: &mut Vec<DecodeStep>, chunk: &[u8]| {
            dec.extend(chunk);
            loop {
                match dec.next_frame() {
                    DecodeStep::Incomplete => break,
                    DecodeStep::Dead(e) => {
                        // Record once; a server drops the connection here.
                        if !matches!(steps.last(), Some(DecodeStep::Dead(_))) {
                            steps.push(DecodeStep::Dead(e));
                        }
                        break;
                    }
                    step => steps.push(step),
                }
            }
        };
        for &cut in cuts {
            let cut = cut.min(stream.len());
            if cut > consumed {
                feed(&mut dec, &mut steps, &stream[consumed..cut]);
                consumed = cut;
            }
        }
        if consumed < stream.len() {
            feed(&mut dec, &mut steps, &stream[consumed..]);
        }
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
            picks in proptest::collection::vec(0usize..9, 1..8),
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
