//! The TCP front end: accept loop, reactor fleet, graceful shutdown.
//!
//! The acceptor is the only blocking socket user left. Each accepted
//! connection is counted against `max_connections`, given a connection id,
//! and handed to the reactor `conn % reactors` through its wake channel;
//! from then on all of its I/O is event-driven (`reactor.rs`) and its
//! classification runs on the worker shards its **channels** hash to
//! (`ChannelKey::shard`, `worker.rs`) — one multiplexed connection fans
//! out across the whole pool.

use crate::sync::{AtomicBool, AtomicU64, Ordering};
use lc_core::MultiLanguageClassifier;
use lc_wire::WireResponse;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::chaos::{ChaosConfig, FaultPlan};
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::outbound::{NewConn, ReactorWaker};
use crate::reactor::{spawn_reactor, ReactorConfig, ReactorControl};
use crate::ring::RingSet;
use crate::trace::{HistoryRing, HistorySlot, SpanSet};
use crate::worker::WorkerPool;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker (match-engine) count; 0 means one per available core.
    pub workers: usize,
    /// Bounded queue depth per worker (jobs, not bytes).
    pub queue_depth: usize,
    /// Watchdog period: a session stalled mid-document longer than this is
    /// reset.
    pub watchdog: Duration,
    /// Reactor (connection I/O) thread count; 0 means one per four
    /// available cores (reactors are I/O-bound; workers want the cores).
    pub reactors: usize,
    /// Concurrent connection cap; accepts beyond it are dropped and
    /// counted in `accepts_rejected`. Budget roughly **two fds per
    /// connection** (the stream plus the write-through dup) against the
    /// process fd limit — see [`crate::raise_nofile_limit`]; `lcbloom
    /// serve` raises the limit to match this cap at startup.
    pub max_connections: usize,
    /// Channels one connection may multiplex (wire v2). Each channel is an
    /// independent session with O(counters) state on a worker shard; a
    /// peer opening more than this is answered with a fault and closed.
    pub max_channels: usize,
    /// Outbound queue high-water mark in bytes: above it the connection's
    /// `EPOLLIN` is masked (no new commands) until the queue drains.
    pub outbound_high_water: usize,
    /// A connection whose outbound queue accepts no bytes for this long
    /// (the socket full and the peer reading nothing, at any queue size)
    /// is reset and counted in `slow_consumer_resets` — a peer that will
    /// not read may stall only itself, and only for so long.
    pub slow_consumer_deadline: Duration,
    /// `SO_SNDBUF` for accepted sockets; 0 keeps the OS default. Small
    /// values make slow-consumer behaviour observable quickly (tests,
    /// benches).
    pub send_buffer: usize,
    /// Deterministic fault injection ([`ChaosConfig`]); `None` (or a
    /// config with every rate at zero) serves clean. Same seed + same
    /// client schedule ⇒ same fault schedule.
    pub chaos: Option<ChaosConfig>,
    /// Keep a per-reactor flight recorder (a fixed-size lock-free event
    /// ring, [`crate::ring::EventRing`]) of reactor-loop events. Off by
    /// default; when on, `GetStats { detail: 1 }` dumps the rings.
    pub trace_ring: bool,
    /// Head-based document trace sampling: keep 1-in-N spans (0 = off).
    /// Chaos-faulted and `trace_slow_us` documents force-sample
    /// regardless; spans leave via `GetStats { detail: 2 }`.
    pub trace_sample: u32,
    /// Force-sample any document whose end-to-end time exceeds this many
    /// microseconds (0 = off) — slow outliers become individually
    /// inspectable even with head sampling off.
    pub trace_slow_us: u64,
    /// Cadence of the time-series sampler thread: one
    /// [`crate::trace::HistorySlot`] delta per interval, the last
    /// [`crate::trace::HISTORY_SLOTS`] kept.
    pub history_interval: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_depth: 64,
            watchdog: Duration::from_secs(5),
            reactors: 0,
            max_connections: 1024,
            max_channels: 256,
            outbound_high_water: 1 << 20,
            slow_consumer_deadline: Duration::from_secs(10),
            send_buffer: 0,
            chaos: None,
            trace_ring: false,
            trace_sample: 0,
            trace_slow_us: 0,
            history_interval: Duration::from_secs(1),
        }
    }
}

impl ServiceConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            available_cores()
        }
    }

    fn effective_reactors(&self) -> usize {
        if self.reactors > 0 {
            self.reactors
        } else {
            (available_cores() / 4).clamp(1, 4)
        }
    }
}

fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A running server. Dropping the handle without calling
/// [`ServerHandle::shutdown`] leaves the threads running detached.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    draining: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    sampler_thread: Option<JoinHandle<()>>,
    metrics: Arc<ServiceMetrics>,
    rings: Option<Arc<RingSet>>,
    spans: Option<Arc<SpanSet>>,
    history: Arc<HistoryRing>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared metrics.
    pub fn metrics(&self) -> &Arc<ServiceMetrics> {
        &self.metrics
    }

    /// The per-reactor flight-recorder rings, when the server was started
    /// with [`ServiceConfig::trace_ring`].
    pub fn rings(&self) -> Option<&Arc<RingSet>> {
        self.rings.as_ref()
    }

    /// The document span plane, when tracing is on
    /// ([`ServiceConfig::trace_sample`], [`ServiceConfig::trace_slow_us`],
    /// or any chaos plan — injected faults must be traceable).
    pub fn spans(&self) -> Option<&Arc<SpanSet>> {
        self.spans.as_ref()
    }

    /// The time-series history ring the sampler thread feeds.
    pub fn history(&self) -> &Arc<HistoryRing> {
        &self.history
    }

    /// Graceful drain, then shutdown. Sets the drain flag — new accepts
    /// are refused (`accepts_rejected`) and every *new* document is
    /// answered with a `ShuttingDown` fault (`drain_shed`) while documents
    /// already in flight run to completion — then waits up to `deadline`
    /// for the connection count to reach zero (well-behaved clients close
    /// when told the server is going away) before the hard shutdown.
    /// Returns the final metrics as the shutdown snapshot.
    pub fn drain(self, deadline: Duration) -> MetricsSnapshot {
        // ordering: Release pairs with the reactors' Acquire load of the
        // drain flag — the shed path happens-after everything set up
        // before the drain was requested. A one-way latch needs no
        // SeqCst total order.
        self.draining.store(true, Ordering::Release);
        let start = std::time::Instant::now();
        while start.elapsed() < deadline {
            if self.metrics.connections_current.load(Ordering::Relaxed) == 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.shutdown()
    }

    /// Stop accepting, drain connections, reactors and workers, join all
    /// threads. Returns the final metrics as a shutdown summary.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        // ordering: Release pairs with the Acquire loads in the reactor
        // loop, the sampler, and the acceptor; the flag is a one-way
        // latch, so Release/Acquire is all the ordering it carries.
        self.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop with a dummy connection. An unspecified
        // bind address (0.0.0.0 / ::) is not connectable on every
        // platform; aim at loopback on the bound port instead.
        let mut target = self.addr;
        if target.ip().is_unspecified() {
            target.set_ip(match target {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&target, Duration::from_secs(1));
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        if let Some(h) = self.sampler_thread.take() {
            let _ = h.join();
        }
        self.metrics.snapshot()
    }
}

/// Bind and serve `classifier` on `addr` (e.g. `"127.0.0.1:0"`).
pub fn serve(
    classifier: Arc<MultiLanguageClassifier>,
    addr: impl ToSocketAddrs,
    config: ServiceConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(ServiceMetrics::with_topology(
        classifier.names().to_vec(),
        config.effective_workers(),
    ));
    // Surface the classifier's resolved probe path (scalar vs AVX2) on the
    // stats plane, so `lcbloom query --stats` can verify a live server's
    // dispatch without shell access to the host.
    metrics.set_simd(classifier.simd_level().as_str());
    let shutdown = Arc::new(AtomicBool::new(false));
    let draining = Arc::new(AtomicBool::new(false));
    // One fault plan for the whole server: every injection site draws from
    // its own per-site counter stream, so the schedule is a pure function
    // of the seed and each site's draw ordinal.
    let plan: Option<Arc<FaultPlan>> = config
        .chaos
        .as_ref()
        .filter(|c| c.is_active())
        .map(|c| Arc::new(FaultPlan::new(c.clone())));
    // The span plane exists when tracing was asked for — or whenever a
    // chaos plan is active, so injected faults always force-sample their
    // documents and stay inspectable even with head sampling off.
    let spans: Option<Arc<SpanSet>> =
        (config.trace_sample > 0 || config.trace_slow_us > 0 || plan.is_some()).then(|| {
            Arc::new(SpanSet::new(
                config.trace_sample,
                config.trace_slow_us,
                config.effective_workers(),
            ))
        });
    let history = Arc::new(HistoryRing::new());
    let pool = WorkerPool::new(
        Arc::clone(&classifier),
        Arc::clone(&metrics),
        config.effective_workers(),
        config.queue_depth,
        config.watchdog,
        plan.clone(),
        spans.clone(),
    )?;

    // The Hello banner is identical for every connection: encode it once.
    let hello = {
        let mut bytes = Vec::new();
        WireResponse::Hello {
            languages: classifier.names().to_vec(),
        }
        .encode(&mut bytes)?;
        Arc::new(bytes)
    };

    let reactor_cfg = ReactorConfig {
        outbound_high_water: config.outbound_high_water.max(1),
        slow_consumer_deadline: config.slow_consumer_deadline,
        send_buffer: config.send_buffer,
        max_channels: config.max_channels.max(1),
    };
    let reactor_count = config.effective_reactors();
    // One flight-recorder ring per reactor thread, so recording is
    // contention-free in the steady state (the ring itself is still
    // multi-producer safe for the waker's cross-thread fault records).
    let rings: Option<Arc<RingSet>> = config
        .trace_ring
        .then(|| Arc::new(RingSet::new(reactor_count)));
    let mut wakers: Vec<Arc<ReactorWaker>> = Vec::with_capacity(reactor_count);
    let mut reactor_threads: Vec<JoinHandle<()>> = Vec::with_capacity(reactor_count);
    let spawned: std::io::Result<()> = (0..reactor_count).try_for_each(|i| {
        let waker = Arc::new(ReactorWaker::new(
            plan.as_ref().map(|p| (Arc::clone(p), Arc::clone(&metrics))),
            rings.as_ref().and_then(|r| r.ring(i)).cloned(),
        )?);
        let handle = spawn_reactor(
            i,
            Arc::clone(&waker),
            pool.senders(),
            Arc::clone(&hello),
            Arc::clone(&metrics),
            ReactorControl {
                shutdown: Arc::clone(&shutdown),
                drain: Arc::clone(&draining),
                plan: plan.clone(),
                rings: rings.clone(),
                spans: spans.clone(),
                history: Some(Arc::clone(&history)),
            },
            reactor_cfg.clone(),
        )?;
        wakers.push(waker);
        reactor_threads.push(handle);
        Ok(())
    });
    if let Err(e) = spawned {
        // Don't leak the reactors that did start (plausible under fd
        // exhaustion: each needs an epoll fd + an eventfd): signal, wake,
        // join, and drain the workers before reporting failure.
        // ordering: Release — same shutdown latch as ServerHandle::shutdown.
        shutdown.store(true, Ordering::Release);
        for waker in &wakers {
            waker.wake();
        }
        for handle in reactor_threads {
            let _ = handle.join();
        }
        pool.shutdown();
        return Err(e);
    }

    // The time-series sampler: one HistorySlot delta per interval, from
    // the same snapshots `lcbloom stats` reads — so the rate plane costs
    // one snapshot per second, independent of load or watcher count.
    let sampler_thread = {
        let metrics = Arc::clone(&metrics);
        let history = Arc::clone(&history);
        let shutdown = Arc::clone(&shutdown);
        let interval = config.history_interval.max(Duration::from_millis(10));
        std::thread::Builder::new()
            .name("lc-history".into())
            .spawn(move || {
                let epoch = Instant::now();
                let mut prev = metrics.snapshot();
                let mut last = epoch;
                // Nap in short slices so shutdown is noticed promptly even
                // under a long interval.
                let nap = interval.min(Duration::from_millis(50));
                // ordering: Acquire pairs with the shutdown latch's
                // Release stores.
                while !shutdown.load(Ordering::Acquire) {
                    std::thread::sleep(nap);
                    let now = Instant::now();
                    if now.duration_since(last) < interval {
                        continue;
                    }
                    let cur = metrics.snapshot();
                    history.push(HistorySlot::delta(
                        &prev,
                        &cur,
                        now.duration_since(epoch).as_nanos() as u64,
                        now.duration_since(last),
                    ));
                    prev = cur;
                    last = now;
                }
            })
    };
    let sampler_thread = match sampler_thread {
        Ok(h) => h,
        Err(e) => {
            // ordering: Release — the shutdown latch again.
            shutdown.store(true, Ordering::Release);
            for waker in &wakers {
                waker.wake();
            }
            for handle in reactor_threads {
                let _ = handle.join();
            }
            pool.shutdown();
            return Err(e);
        }
    };

    let accept_metrics = Arc::clone(&metrics);
    let accept_shutdown = Arc::clone(&shutdown);
    let accept_draining = Arc::clone(&draining);
    let cleanup_wakers: Vec<Arc<ReactorWaker>> = wakers.clone();
    let max_connections = config.max_connections.max(1) as u64;
    let accept_thread = std::thread::Builder::new()
        .name("lc-accept".into())
        .spawn(move || {
            let next_session = AtomicU64::new(0);
            for stream in listener.incoming() {
                // ordering: Acquire pairs with the shutdown latch's
                // Release stores.
                if accept_shutdown.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else {
                    // accept() errors (EMFILE above all) do not consume the
                    // pending connection: looping straight back would spin
                    // hot forever. Back off and let fds free up.
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                };
                // ordering: Acquire pairs with drain()'s Release store.
                if accept_draining.load(Ordering::Acquire) {
                    // Draining: existing connections finish their in-flight
                    // documents; new arrivals go elsewhere.
                    accept_metrics
                        .accepts_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if accept_metrics.connections_current.load(Ordering::Relaxed) >= max_connections {
                    accept_metrics
                        .accepts_rejected
                        .fetch_add(1, Ordering::Relaxed);
                    continue; // dropping the stream closes it
                }
                let session = next_session.fetch_add(1, Ordering::Relaxed);
                accept_metrics.connections.fetch_add(1, Ordering::Relaxed);
                let current = accept_metrics
                    .connections_current
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                accept_metrics
                    .connections_peak
                    .fetch_max(current, Ordering::Relaxed);
                wakers[(session % reactor_count as u64) as usize].push_conn(NewConn {
                    stream,
                    conn: session,
                });
            }
            // Shutdown: wake every reactor (the flag is already set), join
            // them, then drain the workers. A connection pushed after a
            // reactor's own final queue drain is un-counted here, where no
            // reactor can race us anymore.
            for waker in &wakers {
                waker.wake();
            }
            for handle in reactor_threads {
                let _ = handle.join();
            }
            for waker in &wakers {
                let (orphans, _) = waker.take();
                for _ in orphans {
                    accept_metrics
                        .connections_current
                        .fetch_sub(1, Ordering::Relaxed);
                }
            }
            pool.shutdown();
        });
    let accept_thread = match accept_thread {
        Ok(h) => h,
        Err(e) => {
            // The closure was dropped with everything it captured: the
            // pool's senders are gone (workers exit on disconnect, the
            // supervisor reaps them) and the reactor join handles are
            // detached — set the flag and wake them so they exit too.
            // Nothing joins them, but nothing leaks either.
            // ordering: Release — the shutdown latch again.
            shutdown.store(true, Ordering::Release);
            for waker in &cleanup_wakers {
                waker.wake();
            }
            return Err(e);
        }
    };

    Ok(ServerHandle {
        addr,
        shutdown,
        draining,
        accept_thread: Some(accept_thread),
        sampler_thread: Some(sampler_thread),
        metrics,
        rings,
        spans,
        history,
    })
}
