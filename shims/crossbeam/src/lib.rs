//! Offline shim for the `crossbeam` crate.
//!
//! Provides [`channel`]: multi-producer multi-consumer channels with the
//! `crossbeam-channel` API surface this workspace uses — `unbounded`,
//! `bounded`, blocking/non-blocking/timed sends and receives, receiver
//! cloning, and iterator draining — implemented over `Mutex` + `Condvar`.
//! The surface is a strict subset of the real crate's, so swapping the
//! vendored shim back for `crossbeam-channel` stays a drop-in change.
//!
//! # When it enters the kernel
//!
//! std's `Condvar::notify_one` is an unconditional `futex(FUTEX_WAKE)` on
//! Linux, parked peer or not. The channel therefore counts its parked
//! peers under the mutex every operation already takes, and notifies only
//! when the count says somebody is waiting — which is what the real
//! `crossbeam-channel` does:
//!
//! * `send`/`try_send` notify `not_empty` only while a receiver is parked
//!   in `recv`, `recv_timeout` or a blocking iterator;
//! * `recv`/`try_recv`/`recv_timeout` notify `not_full` only while a
//!   sender is parked in `send`;
//! * the last sender or receiver going away still `notify_all`s, parked
//!   peer or not (disconnects are rare and must never be missed).
//!
//! A waiter bumps its count before it parks and the notifier reads it after
//! it queued or popped, both under the same mutex, so no wake-up can be
//! lost: either the waiter sees the queue change before it parks, or the
//! notifier sees the waiter. An uncontended `try_send`/`try_recv` pair is
//! two uncontended mutex round trips and no syscall.

#![forbid(unsafe_code)]

pub mod channel {
    //! MPMC channels (`crossbeam-channel` API subset).

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers parked on `not_empty` (or woken and not yet holding
        /// the mutex again).
        parked_receivers: usize,
        /// Senders parked on `not_full`, likewise.
        parked_senders: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        cap: Option<usize>,
    }

    #[cfg(test)]
    thread_local! {
        /// Condvar notifies issued by this thread's queue operations
        /// (disconnects excluded).
        pub(crate) static NOTIFIES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Wakes one waiter on `cv` if the count read under the mutex said one
    /// is parked. Called after the unlock, so the woken peer does not run
    /// straight into a held mutex.
    fn notify_if(parked: bool, cv: &Condvar) {
        if parked {
            #[cfg(test)]
            NOTIFIES.with(|n| n.set(n.get() + 1));
            cv.notify_one();
        }
    }

    impl<T> Inner<T> {
        /// A message was queued: wake one receiver, if one is parked.
        fn queued(&self, st: MutexGuard<'_, State<T>>) {
            let parked = st.parked_receivers > 0;
            drop(st);
            notify_if(parked, &self.not_empty);
        }

        /// A message was popped: wake one sender, if one is parked.
        fn popped(&self, st: MutexGuard<'_, State<T>>) {
            let parked = st.parked_senders > 0;
            drop(st);
            notify_if(parked, &self.not_full);
        }
    }

    #[cfg(test)]
    impl<T> Sender<T> {
        /// Spins until exactly `senders` senders and `receivers` receivers
        /// are parked, so a test acts on a peer that is known to be waiting.
        pub(crate) fn await_parked(&self, senders: usize, receivers: usize) {
            loop {
                let st = self.inner.state.lock().unwrap();
                if (st.parked_senders, st.parked_receivers) == (senders, receivers) {
                    return;
                }
                drop(st);
                std::thread::yield_now();
            }
        }
    }

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_cap(None)
    }

    /// Creates a bounded channel holding at most `cap` queued messages.
    ///
    /// A zero capacity is rounded up to one: this shim has no rendezvous
    /// mode, and the workspace never asks for one.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_cap(Some(cap.max(1)))
    }

    fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                parked_receivers: 0,
                parked_senders: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    /// The sending half.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half.
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// The channel is disconnected (no receivers remain).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// A non-blocking send failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is at capacity.
        Full(T),
        /// No receivers remain.
        Disconnected(T),
    }

    /// The channel is empty and disconnected.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// A non-blocking receive failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently queued.
        Empty,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    /// A timed receive failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with no message.
        Timeout,
        /// The channel is empty and all senders are gone.
        Disconnected,
    }

    impl<T: fmt::Debug> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    impl<T> Sender<T> {
        /// Blocks until the message is queued (or returns it if every
        /// receiver is gone).
        ///
        /// # Errors
        ///
        /// [`SendError`] carrying the message back when disconnected.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.inner.state.lock().unwrap();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.inner.cap {
                    Some(cap) if st.queue.len() >= cap => {
                        st.parked_senders += 1;
                        st = self.inner.not_full.wait(st).unwrap();
                        st.parked_senders -= 1;
                    }
                    _ => break,
                }
            }
            st.queue.push_back(msg);
            self.inner.queued(st);
            Ok(())
        }

        /// Queues the message without blocking.
        ///
        /// # Errors
        ///
        /// [`TrySendError::Full`] at capacity, [`TrySendError::Disconnected`]
        /// when every receiver is gone; both return the message.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut st = self.inner.state.lock().unwrap();
            if st.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if let Some(cap) = self.inner.cap {
                if st.queue.len() >= cap {
                    return Err(TrySendError::Full(msg));
                }
            }
            st.queue.push_back(msg);
            self.inner.queued(st);
            Ok(())
        }

        /// Whether `self` and `other` are handles to the same channel
        /// (mirrors `crossbeam-channel`'s `Sender::same_channel`).
        pub fn same_channel(&self, other: &Sender<T>) -> bool {
            Arc::ptr_eq(&self.inner, &other.inner)
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.inner.state.lock().unwrap().queue.len()
        }

        /// Whether no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap();
            st.senders -= 1;
            let none_left = st.senders == 0;
            drop(st);
            if none_left {
                self.inner.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives.
        ///
        /// # Errors
        ///
        /// [`RecvError`] when the channel is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.inner.state.lock().unwrap();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    self.inner.popped(st);
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st.parked_receivers += 1;
                st = self.inner.not_empty.wait(st).unwrap();
                st.parked_receivers -= 1;
            }
        }

        /// Pops a queued message without blocking.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when nothing is queued,
        /// [`TryRecvError::Disconnected`] when additionally every sender is
        /// gone.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.inner.state.lock().unwrap();
            if let Some(msg) = st.queue.pop_front() {
                self.inner.popped(st);
                return Ok(msg);
            }
            if st.senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocks up to `timeout` for a message.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] on expiry,
        /// [`RecvTimeoutError::Disconnected`] when empty with no senders.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut st = self.inner.state.lock().unwrap();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    self.inner.popped(st);
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                st.parked_receivers += 1;
                let (guard, _) = self
                    .inner
                    .not_empty
                    .wait_timeout(st, deadline - now)
                    .unwrap();
                st = guard;
                st.parked_receivers -= 1;
            }
        }

        /// Queued message count.
        pub fn len(&self) -> usize {
            self.inner.state.lock().unwrap().queue.len()
        }

        /// Whether no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// A blocking iterator draining the channel until disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }

        /// A non-blocking iterator over currently queued messages.
        pub fn try_iter(&self) -> TryIter<'_, T> {
            TryIter { rx: self }
        }
    }

    /// Iterator returned by [`Receiver::try_iter`].
    #[derive(Debug)]
    pub struct TryIter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for TryIter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.try_recv().ok()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().receivers += 1;
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.inner.state.lock().unwrap();
            st.receivers -= 1;
            let none_left = st.receivers == 0;
            drop(st);
            if none_left {
                self.inner.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }

    /// Blocking draining iterator (see [`Receiver::iter`]).
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    /// Owned draining iterator.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;
    use std::time::Duration;

    #[test]
    fn unbounded_fifo() {
        let (tx, rx) = channel::unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let got: Vec<i32> = rx.iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = channel::bounded(2);
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        assert_eq!(rx.try_recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn cloned_receiver_drains_the_same_queue() {
        // Drop-oldest backpressure in avoc-serve sheds via a receiver
        // clone: a pop through either handle frees a slot for try_send.
        let (tx, rx) = channel::bounded(2);
        let shed = rx.clone();
        tx.try_send(1).unwrap();
        tx.try_send(2).unwrap();
        assert!(matches!(
            tx.try_send(3),
            Err(channel::TrySendError::Full(3))
        ));
        assert_eq!(shed.try_recv().unwrap(), 1);
        tx.try_send(3).unwrap();
        drop(tx);
        drop(shed);
        assert_eq!(rx.iter().collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn blocking_send_wakes_on_recv() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let t = std::thread::spawn(move || tx.send(2).unwrap());
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(rx.recv().unwrap(), 2);
        t.join().unwrap();
    }

    #[test]
    fn recv_timeout_expires() {
        let (tx, rx) = channel::bounded::<u8>(1);
        let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, channel::RecvTimeoutError::Timeout);
        drop(tx);
        let err = rx.recv_timeout(Duration::from_millis(10)).unwrap_err();
        assert_eq!(err, channel::RecvTimeoutError::Disconnected);
    }

    #[test]
    fn try_recv_releases_a_sender_blocked_on_a_full_channel() {
        let (tx, rx) = channel::bounded(1);
        tx.send(1).unwrap();
        let probe = tx.clone();
        let t = std::thread::spawn(move || tx.send(2).unwrap());
        probe.await_parked(1, 0);
        let before = channel::NOTIFIES.with(std::cell::Cell::get);
        assert_eq!(rx.try_recv().unwrap(), 1);
        assert_eq!(channel::NOTIFIES.with(std::cell::Cell::get), before + 1);
        t.join().unwrap();
        assert_eq!(rx.try_recv().unwrap(), 2);
    }

    #[test]
    fn try_send_releases_a_receiver_parked_in_recv_timeout() {
        let (tx, rx) = channel::bounded(1);
        let t = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(30)));
        tx.await_parked(0, 1);
        let before = channel::NOTIFIES.with(std::cell::Cell::get);
        tx.try_send(7).unwrap();
        assert_eq!(channel::NOTIFIES.with(std::cell::Cell::get), before + 1);
        // A lost wake-up would sit out the 30 s timeout.
        let t0 = std::time::Instant::now();
        assert_eq!(t.join().unwrap(), Ok(7));
        assert!(t0.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn contended_capacity_two_channel_loses_nothing() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 25_000;
        let (tx, rx) = channel::bounded::<u64>(2);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || rx.iter().collect::<Vec<u64>>())
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut got: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    }

    #[test]
    fn uncontended_try_operations_never_notify() {
        let (tx, rx) = channel::bounded(4);
        let before = channel::NOTIFIES.with(std::cell::Cell::get);
        for i in 0..10_000 {
            tx.try_send(i).unwrap();
            assert_eq!(rx.try_recv().unwrap(), i);
        }
        assert_eq!(channel::NOTIFIES.with(std::cell::Cell::get), before);
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let (tx, rx) = channel::unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }
}
