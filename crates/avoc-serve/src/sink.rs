//! Where a session's frames go.
//!
//! A reactor-owned connection's sink is its [`Outbox`]: the shard step
//! that fused a verdict encodes it straight into the connection's
//! outbound bytes, under the outbox lock, on whatever thread ran the step.
//! The owning reactor flushes those bytes after the read it is handling,
//! or when the outbox's wake reaches it. In-process callers (benchmarks,
//! tests, the drain path) convert a bare `Sender<Message>` into a sink
//! and receive decoded frames, batched exactly as the wire would carry
//! them.

use avoc_net::{BatchResult, Message, Outbox, PackedResult};
use crossbeam::channel::Sender;
use std::sync::Arc;

/// Where a session's results, errors and resume acknowledgements go: a
/// connection's outbox, or an in-process channel.
#[derive(Debug, Clone)]
pub struct ResultSink(Route);

#[derive(Debug, Clone)]
enum Route {
    Outbox(Arc<Outbox>),
    Channel(Sender<Message>),
}

impl ResultSink {
    /// A sink nobody will ever read — what a lingering session holds after
    /// its connection died (see `Session::detach`).
    pub(crate) fn dead() -> Self {
        let (tx, _) = crossbeam::channel::bounded(1);
        tx.into()
    }

    /// Sends one frame without blocking. `false` means it was shed: the
    /// outbox is full or closed, or the channel full or disconnected —
    /// shard steps never wait on a tenant.
    pub(crate) fn send(&self, msg: Message) -> bool {
        match &self.0 {
            Route::Outbox(outbox) => outbox.push(&msg),
            Route::Channel(tx) => tx.try_send(msg).is_ok(),
        }
    }

    /// Sends the entries of `parts` (1 ..= `MAX_BATCH_RESULTS` of one
    /// session's verdicts between them, in fuse order) as one frame: a
    /// plain [`Message::SessionResult`] for one, a [`Message::ResultBatch`]
    /// otherwise. An outbox gets the entries copied into the frame as they
    /// stand, with nothing unpacked on the way. Sheds like
    /// [`ResultSink::send`].
    pub(crate) fn send_results(&self, session: u64, parts: &[&[PackedResult]]) -> bool {
        let mut entries = parts.iter().copied().flatten();
        if let (Some(&only), None) = (entries.next(), entries.next()) {
            let BatchResult {
                round,
                value,
                voted,
            } = only.into();
            let msg = Message::SessionResult {
                session,
                round,
                value,
                voted,
            };
            return self.send(msg);
        }
        match &self.0 {
            Route::Outbox(outbox) => {
                outbox.push_with(|bytes| Message::encode_result_batch_into(session, parts, bytes))
            }
            Route::Channel(tx) => tx
                .try_send(Message::ResultBatch {
                    session,
                    results: parts.iter().copied().flatten().map(|&p| p.into()).collect(),
                })
                .is_ok(),
        }
    }

    /// Whether this sink delivers where `other` does — the detach path's
    /// identity check, so an old connection's teardown cannot tear a
    /// re-attached session off its *new* sink.
    pub(crate) fn same_route(&self, other: &ResultSink) -> bool {
        match (&self.0, &other.0) {
            (Route::Outbox(a), Route::Outbox(b)) => Arc::ptr_eq(a, b),
            (Route::Channel(a), Route::Channel(b)) => a.same_channel(b),
            _ => false,
        }
    }
}

impl From<Sender<Message>> for ResultSink {
    fn from(tx: Sender<Message>) -> Self {
        ResultSink(Route::Channel(tx))
    }
}

impl From<Arc<Outbox>> for ResultSink {
    fn from(outbox: Arc<Outbox>) -> Self {
        ResultSink(Route::Outbox(outbox))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;

    #[test]
    fn bare_senders_convert_and_deliver() {
        let (tx, rx) = channel::unbounded();
        let sink: ResultSink = tx.into();
        assert!(sink.send(Message::Shutdown));
        assert!(matches!(rx.try_recv(), Ok(Message::Shutdown)));
    }

    #[test]
    fn results_travel_as_one_frame_each_call() {
        let (tx, rx) = channel::unbounded();
        let sink: ResultSink = tx.into();
        let result = |round| BatchResult {
            round,
            value: Some(1.5),
            voted: true,
        };
        let packed: Vec<PackedResult> = (0..3).map(|round| result(round).into()).collect();
        assert!(sink.send_results(3, &[&packed[..1]]));
        assert!(sink.send_results(3, &[&packed[1..2], &packed[2..]]));
        assert!(matches!(
            rx.try_recv(),
            Ok(Message::SessionResult {
                session: 3,
                round: 0,
                ..
            })
        ));
        match rx.try_recv() {
            Ok(Message::ResultBatch {
                session: 3,
                results,
            }) => {
                assert_eq!(results, [result(1), result(2)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn same_route_tracks_the_inner_sender() {
        let (tx, _rx) = channel::unbounded::<Message>();
        let a: ResultSink = tx.clone().into();
        let b: ResultSink = tx.into();
        let (other, _rx2) = channel::unbounded::<Message>();
        let c: ResultSink = other.into();
        assert!(a.same_route(&b));
        assert!(a.same_route(&a.clone()));
        assert!(!a.same_route(&c));
    }

    #[test]
    fn dead_sinks_refuse_without_blocking() {
        // The receiver is dropped at construction, so every send fails
        // fast — emissions to a detached session are shed and counted,
        // never queued or waited on.
        let sink = ResultSink::dead();
        assert!(!sink.send(Message::Shutdown));
        assert!(!sink.send(Message::Shutdown));
    }
}
