//! Reactor health metrics: how hard the event loop is working.

// Registration is idempotent: re-registering under the same labels lands on
// the same cells, so the serve daemon's counters snapshot and the reactor
// itself can share them. All cells are relaxed atomics; recording adds no
// locks to the event loop.
avoc_obs::facts! {
    /// Live registry handles for one reactor.
    pub struct ReactorMetrics => pub struct ReactorSnapshot {
        /// Sockets currently owned by the reactor.
        pub connections_open: Gauge = "avoc_net_connections_open",
        /// Event-loop wakeups (epoll_wait/poll returns).
        pub epoll_wakeups: Counter = "avoc_net_epoll_wakeups_total",
        // The events-per-wakeup batching factor is what makes a reactor
        // cheaper than a thread per socket.
        /// Readiness events dispatched; divide by avoc_net_epoll_wakeups_total
        /// for events per wakeup.
        pub events: Counter = "avoc_net_reactor_events_total",
        // Reads, frame decoding, handler calls and flushes, before the loop
        // sleeps again.
        /// Nanoseconds dispatching one wakeup's readiness events.
        pub readiness_dispatch_ns: Histogram = "avoc_net_readiness_dispatch_ns",
        /// Connections accepted by the reactor.
        pub accepted: Counter = "avoc_net_connections_accepted_total",
        // The timer-wheel replacement for `SO_SNDTIMEO`.
        /// Connections closed for staying unwritable past the write deadline.
        pub wedged_closed: Counter = "avoc_net_wedged_closed_total",
        // On EMFILE/ENFILE; each pause resumes on a timer once the emergency
        // reserve re-arms.
        /// Times the reactor paused accepting on fd exhaustion.
        pub accept_pauses: Counter = "avoc_net_accept_pauses_total",
        // Dispatch, dirty pumping and timer expiry. Compared across
        // `{reactor}` labels this exposes a hot or imbalanced reactor.
        /// Nanoseconds of work per event-loop iteration (wakeup to park).
        pub loop_iter_ns: Histogram = "avoc_net_loop_iter_ns",
    }
}
