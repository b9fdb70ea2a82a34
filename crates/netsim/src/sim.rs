//! The simulator core: node registry, connection table and event loop.

use crate::addr::{AddressAllocator, HostAddr};
use crate::app::{Action, App, ConnId, Ctx, Direction, NodeId};
use crate::event::{EventKind, EventQueue};
use crate::faults::{ChunkFate, FaultPlan};
use crate::metrics::SimMetrics;
use crate::pool::{BufferPool, Payload};
use crate::profile::Subsystem;
use crate::queue::Scheduler;
use crate::shard::ShardedSim;
use crate::telemetry::{
    EventBody, EventCategory, FaultKind, Gauge, SimHist, Telemetry, TelemetryEvent,
};
use crate::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Tunables for the simulated internet.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// One-way latency range sampled per connection, in microseconds.
    pub latency_us: (u64, u64),
    /// Default upload bandwidth range (bytes/sec) sampled per node,
    /// modelling the DSL/cable mix of 2006.
    pub upload_bps: (u64, u64),
    /// Default download bandwidth range (bytes/sec) sampled per node.
    pub download_bps: (u64, u64),
    /// When set, delivered data is fragmented into chunks of at most this
    /// many bytes, exercising protocol reframing. `None` delivers each
    /// `send` as one chunk (cheaper for month-scale runs).
    pub mss: Option<usize>,
    /// Seed-deterministic fault injection. The default
    /// [`FaultPlan::none()`] draws no randomness and leaves runs
    /// byte-identical to a fault-free simulator.
    pub faults: FaultPlan,
    /// Number of simulation shards. `1` (the default) runs the untouched
    /// serial event loop; `>= 2` switches to the sharded deterministic
    /// engine (see [`crate::shard_of`] and the `shard` module docs): nodes
    /// partition across shards, each with its own calendar queue on a
    /// scoped worker thread, synchronized in conservative sim-time windows.
    /// The sharded trajectory is deterministic and identical for *every*
    /// shard count `>= 2`, but distinct from the serial one (the serial
    /// loop threads all randomness through one RNG in dispatch order, which
    /// no parallel schedule can reproduce).
    pub shards: usize,
    /// Lookahead window length for sharded runs, in microseconds. Cross-
    /// shard latency is floored at one window, so shorter windows tighten
    /// latency fidelity while adding barrier crossings. Ignored when
    /// `shards == 1`.
    pub shard_window_us: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            latency_us: (20_000, 150_000),
            upload_bps: (16_000, 128_000),
            download_bps: (64_000, 512_000),
            mss: None,
            faults: FaultPlan::none(),
            shards: 1,
            shard_window_us: 1_000_000,
        }
    }
}

/// Per-node spawn parameters.
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Behind NAT: gets an RFC 1918 local address and rejects inbound dials.
    pub nat: bool,
    /// Port to accept connections on (ignored for NAT nodes, which cannot
    /// be dialed).
    pub listen_port: Option<u16>,
    /// Override the sampled upload bandwidth.
    pub upload_bps: Option<u64>,
    /// Override the sampled download bandwidth.
    pub download_bps: Option<u64>,
    /// Exempt from fault-plan churn (instrumented crawlers, always-on
    /// infrastructure the measurement depends on).
    pub durable: bool,
}

impl NodeSpec {
    /// A publicly addressable node.
    pub fn public() -> Self {
        NodeSpec {
            nat: false,
            listen_port: None,
            upload_bps: None,
            download_bps: None,
            durable: false,
        }
    }

    /// A NATed node: advertises a private address, cannot be dialed.
    pub fn nat() -> Self {
        NodeSpec {
            nat: true,
            ..Self::public()
        }
    }

    /// Listen for inbound connections on `port`.
    pub fn listen(mut self, port: u16) -> Self {
        self.listen_port = Some(port);
        self
    }

    pub fn upload(mut self, bps: u64) -> Self {
        self.upload_bps = Some(bps);
        self
    }

    pub fn download(mut self, bps: u64) -> Self {
        self.download_bps = Some(bps);
        self
    }

    /// Never enrolled in fault-plan churn.
    pub fn durable(mut self) -> Self {
        self.durable = true;
        self
    }
}

struct NodeSlot {
    app: Option<Box<dyn App>>,
    local_addr: HostAddr,
    external_addr: HostAddr,
    upload_bps: u64,
    download_bps: u64,
    alive: bool,
    nat: bool,
    /// Registered a listener at spawn; churn revival re-registers it.
    listener: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// SYN in flight; only the initiator knows about the connection.
    Pending,
    Open,
    Closed,
}

struct Conn {
    initiator: NodeId,
    /// Set when the connection is accepted.
    acceptor: Option<NodeId>,
    latency: SimDuration,
    /// Effective bytes/sec each way: min(sender upload, receiver download).
    bandwidth: [u64; 2],
    /// Earliest time each direction's link is free (serialization).
    next_free: [SimTime; 2],
    state: ConnState,
}

/// The discrete-event simulator. See the crate docs for an end-to-end
/// example.
pub struct Simulator {
    config: SimConfig,
    rng: StdRng,
    now: SimTime,
    nodes: Vec<NodeSlot>,
    conns: HashMap<u64, Conn>,
    listeners: HashMap<HostAddr, NodeId>,
    queue: EventQueue,
    alloc: AddressAllocator,
    next_conn_id: u64,
    metrics: SimMetrics,
    pool: BufferPool,
    telemetry: Telemetry,
    /// The sharded engine, engaged when `config.shards >= 2`; every public
    /// method delegates to it and the serial state above stays empty.
    sharded: Option<Box<ShardedSim>>,
}

impl Simulator {
    pub fn new(config: SimConfig, seed: u64) -> Self {
        let queue = EventQueue::default();
        let sharded = if config.shards > 1 {
            Some(Box::new(ShardedSim::new(config.clone(), seed)))
        } else {
            None
        };
        Simulator {
            config,
            rng: StdRng::seed_from_u64(seed),
            now: SimTime::ZERO,
            nodes: Vec::new(),
            conns: HashMap::new(),
            listeners: HashMap::new(),
            queue,
            alloc: AddressAllocator::new(),
            next_conn_id: 0,
            metrics: SimMetrics::default(),
            pool: BufferPool::default(),
            telemetry: Telemetry::disabled(),
            sharded,
        }
    }

    /// Number of shards this simulator runs on (1 = serial).
    pub fn shard_count(&self) -> usize {
        self.sharded.as_ref().map_or(1, |s| s.shard_count())
    }

    /// Lookahead window length of a sharded run, in microseconds (0 when
    /// serial — the serial loop has no windows).
    pub fn shard_window_us(&self) -> u64 {
        self.sharded.as_ref().map_or(0, |s| s.window_us())
    }

    /// Attaches the telemetry sink hub. The default ([`Telemetry::disabled`])
    /// emits nothing, draws no randomness, and leaves trajectories
    /// byte-identical to a simulator without the telemetry layer.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        if let Some(s) = &mut self.sharded {
            s.set_telemetry(telemetry);
            return;
        }
        self.telemetry = telemetry;
    }

    /// Flushes every attached telemetry sink (harness end-of-run hook; file
    /// sinks also flush on drop).
    pub fn flush_telemetry(&mut self) {
        if let Some(s) = &mut self.sharded {
            s.flush_telemetry();
            return;
        }
        self.telemetry.flush();
    }

    /// Samples the scheduled-event queue depth into the metrics registry
    /// (gauge: latest value; histogram: every sample). Deterministic —
    /// harness loops call this unconditionally, e.g. once per simulated day.
    /// Sharded runs additionally sample the global depth at every window
    /// boundary on their own.
    pub fn sample_queue_depth(&mut self) {
        if let Some(s) = &mut self.sharded {
            s.sample_queue_depth();
            return;
        }
        let depth = self.queue.len() as u64;
        self.metrics.telemetry.set_gauge(Gauge::QueueDepth, depth);
        self.metrics.telemetry.record(SimHist::QueueDepth, depth);
    }

    /// Journals one injected fault. Only constructs the event with sinks
    /// attached; never draws randomness either way.
    #[inline]
    fn emit_fault(&mut self, kind: FaultKind) {
        if self.telemetry.enabled(EventCategory::Fault) {
            self.telemetry.emit(TelemetryEvent::new(
                self.now,
                EventBody::FaultInjected { kind },
            ));
        }
    }

    /// Brings a node online now; `on_start` runs at the current time.
    pub fn spawn(&mut self, spec: NodeSpec, app: Box<dyn App>) -> NodeId {
        if let Some(s) = &mut self.sharded {
            return s.spawn(spec, app);
        }
        let id = NodeId(self.nodes.len());
        let external_ip = self.alloc.alloc_public(&mut self.rng);
        let port = spec.listen_port.unwrap_or(0);
        let external_addr = HostAddr::new(external_ip, port);
        let local_addr = if spec.nat {
            HostAddr::new(self.alloc.alloc_private(&mut self.rng), port)
        } else {
            external_addr
        };
        let upload = spec.upload_bps.unwrap_or_else(|| {
            self.rng
                .gen_range(self.config.upload_bps.0..=self.config.upload_bps.1)
        });
        let download = spec.download_bps.unwrap_or_else(|| {
            self.rng
                .gen_range(self.config.download_bps.0..=self.config.download_bps.1)
        });
        let listener = spec.listen_port.is_some() && !spec.nat;
        self.nodes.push(NodeSlot {
            app: Some(app),
            local_addr,
            external_addr,
            upload_bps: upload,
            download_bps: download,
            alive: true,
            nat: spec.nat,
            listener,
        });
        if listener {
            self.listeners.insert(external_addr, id);
        }
        self.metrics.nodes_spawned += 1;
        self.queue.push(self.now, EventKind::Start { node: id });
        // Fault-plan churn enrollment: a sampled fraction of non-durable
        // nodes get a first session-end scheduled. No draw when churn is
        // off (the FaultPlan::none() byte-identity contract).
        if let Some(churn) = self.config.faults.churn {
            if !spec.durable && churn.fraction > 0.0 && self.rng.gen_bool(churn.fraction) {
                let up = self
                    .rng
                    .gen_range(churn.uptime_secs.0..=churn.uptime_secs.1);
                self.queue.push(
                    self.now + SimDuration::from_secs(up),
                    EventKind::ChurnDown { node: id },
                );
            }
        }
        id
    }

    /// The routable address of `node` (where peers can dial it).
    pub fn node_addr(&self, node: NodeId) -> HostAddr {
        if let Some(s) = &self.sharded {
            return s.node_addr(node);
        }
        self.nodes[node.0].external_addr
    }

    /// The address `node` believes it has (private when behind NAT).
    pub fn node_local_addr(&self, node: NodeId) -> HostAddr {
        if let Some(s) = &self.sharded {
            return s.node_local_addr(node);
        }
        self.nodes[node.0].local_addr
    }

    /// Whether the node is currently online.
    pub fn is_alive(&self, node: NodeId) -> bool {
        if let Some(s) = &self.sharded {
            return s.is_alive(node);
        }
        self.nodes[node.0].alive
    }

    /// Takes a node offline from outside the simulation (harness-driven
    /// churn). Peers of its open connections get `on_closed`.
    pub fn stop_node(&mut self, node: NodeId) {
        if let Some(s) = &mut self.sharded {
            s.stop_node(node);
            return;
        }
        self.shutdown_node(node);
    }

    pub fn now(&self) -> SimTime {
        if let Some(s) = &self.sharded {
            return s.now();
        }
        self.now
    }

    pub fn metrics(&self) -> &SimMetrics {
        if let Some(s) = &self.sharded {
            return s.metrics();
        }
        &self.metrics
    }

    /// Records a memory-accounting snapshot into `metrics().memory`: every
    /// live app's [`App::memory_estimate`] summed, plus the process RSS
    /// gauges. Diagnostics only — draws no randomness, schedules nothing,
    /// and the snapshot hides behind an always-equal `PartialEq` shield.
    pub fn record_memory(&mut self) {
        if let Some(s) = &mut self.sharded {
            s.record_memory();
            return;
        }
        let mut mem = crate::metrics::MemoryStats::default();
        for slot in &self.nodes {
            if let Some(app) = &slot.app {
                mem.nodes += 1;
                mem.app_bytes += app.memory_estimate();
            }
        }
        let (peak, current) = crate::metrics::process_rss_kb();
        mem.peak_rss_kb = peak;
        mem.current_rss_kb = current;
        self.metrics.memory = mem;
    }

    /// Mutable access to the seeded RNG (for harness-level sampling that
    /// must stay on the deterministic stream). Sharded runs hand out the
    /// control stream (spawn-time draws), which the event loop never
    /// touches.
    pub fn rng(&mut self) -> &mut StdRng {
        if let Some(s) = &mut self.sharded {
            return s.rng();
        }
        &mut self.rng
    }

    /// Runs until the queue drains or the clock passes `deadline`.
    /// Returns the number of events dispatched.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        if let Some(s) = &mut self.sharded {
            return s.run_until(deadline);
        }
        let (wall, before) = self.profile_loop_start();
        let mut n = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (time, kind) = self.queue.pop().expect("peeked");
            self.now = time;
            self.dispatch(kind);
            n += 1;
        }
        // Advance the clock to the deadline even if the queue went quiet.
        if self.now < deadline {
            self.now = deadline;
        }
        self.profile_loop_end(wall, before);
        n
    }

    /// Runs until the event queue is empty.
    pub fn run_to_quiescence(&mut self) -> u64 {
        if let Some(s) = &mut self.sharded {
            return s.run_to_quiescence();
        }
        let (wall, before) = self.profile_loop_start();
        let mut n = 0;
        while let Some((time, kind)) = self.queue.pop() {
            self.now = time;
            self.dispatch(kind);
            n += 1;
        }
        self.profile_loop_end(wall, before);
        n
    }

    /// Run-loop profiling prologue: a wall-clock mark plus the nanos already
    /// attributed to callbacks, so the epilogue can assign the remainder —
    /// queue operations, conn table, dispatch overhead — to `Scheduler`
    /// without per-event clock reads beyond the ones `with_app` makes.
    fn profile_loop_start(&self) -> (std::time::Instant, u64) {
        let t = &self.metrics.timing;
        (
            std::time::Instant::now(),
            t.nanos(Subsystem::App) + t.nanos(Subsystem::TcpPump),
        )
    }

    fn profile_loop_end(&mut self, wall: std::time::Instant, before: u64) {
        let total = wall.elapsed().as_nanos() as u64;
        let t = &self.metrics.timing;
        let callbacks = t.nanos(Subsystem::App) + t.nanos(Subsystem::TcpPump) - before;
        self.metrics
            .timing
            .record(Subsystem::Scheduler, total.saturating_sub(callbacks));
    }

    /// Number of events currently scheduled.
    pub fn pending_events(&self) -> usize {
        if let Some(s) = &self.sharded {
            return s.pending_events();
        }
        self.queue.len()
    }

    /// Mirrors pool and queue statistics into the metrics snapshot.
    fn sync_stats(&mut self) {
        let s = &self.pool.stats;
        self.metrics.pool_hits = s.hits;
        self.metrics.pool_misses = s.misses;
        self.metrics.pool_recycled_bytes = s.recycled_bytes;
        self.metrics.pool_high_water = s.high_water;
        self.metrics.queue_high_water = self.queue.high_water() as u64;
    }

    fn dispatch(&mut self, kind: EventKind) {
        self.metrics.events_processed += 1;
        match kind {
            EventKind::Start { node } => {
                self.with_app(node, |app, ctx| app.on_start(ctx));
            }
            EventKind::ConnAttempt { conn, target } => {
                let initiator = match self.conns.get(&conn.0) {
                    Some(c) => c.initiator,
                    None => return,
                };
                let acceptor =
                    self.listeners.get(&target).copied().filter(|&n| {
                        self.nodes[n.0].alive && !self.nodes[n.0].nat && n != initiator
                    });
                match acceptor {
                    Some(acc) if self.nodes[initiator.0].alive => {
                        let (up_i, down_i) = (
                            self.nodes[initiator.0].upload_bps,
                            self.nodes[initiator.0].download_bps,
                        );
                        let (up_a, down_a) =
                            (self.nodes[acc.0].upload_bps, self.nodes[acc.0].download_bps);
                        {
                            let c = self.conns.get_mut(&conn.0).expect("conn exists");
                            c.acceptor = Some(acc);
                            c.state = ConnState::Open;
                            // Direction 0: initiator -> acceptor.
                            c.bandwidth = [up_i.min(down_a).max(1), up_a.min(down_i).max(1)];
                            c.next_free = [self.now, self.now];
                        }
                        self.metrics.conns_established += 1;
                        let peer_of_acc = self.nodes[initiator.0].external_addr;
                        let peer_of_init = target;
                        self.with_app(acc, |app, ctx| {
                            app.on_connected(ctx, conn, Direction::Inbound, peer_of_acc)
                        });
                        self.with_app(initiator, |app, ctx| {
                            app.on_connected(ctx, conn, Direction::Outbound, peer_of_init)
                        });
                    }
                    _ => {
                        // Failed dial: drop the table entry immediately —
                        // nothing else can reference this connection.
                        self.conns.remove(&conn.0);
                        self.metrics.conns_failed += 1;
                        if self.nodes[initiator.0].alive {
                            self.with_app(initiator, |app, ctx| app.on_connect_failed(ctx, conn));
                        }
                    }
                }
            }
            EventKind::Data { conn, to, data } => {
                // A Data event only exists if the connection was Open at
                // send time; deliver it even if a close landed since (bytes
                // already in flight arrive before the FIN, like TCP). Only
                // a dead receiver drops data.
                let deliver = match self.conns.get(&conn.0) {
                    Some(_) => self.nodes[to.0].alive,
                    None => false,
                };
                if deliver {
                    self.metrics.bytes_delivered += data.len() as u64;
                    self.with_app(to, |app, ctx| app.on_data(ctx, conn, &data));
                } else {
                    self.metrics.bytes_dropped += data.len() as u64;
                }
                self.pool.recycle(data);
            }
            EventKind::CloseNotify { conn, to } => {
                // Reap the table entry: data queued before the close was
                // ordered ahead of this FIN on the same direction, and
                // reverse-direction stragglers are dropped like data in
                // flight at a TCP reset. Month-scale runs make millions of
                // short-lived connections; keeping dead entries would be a
                // leak.
                if self.conns.remove(&conn.0).is_none() {
                    return;
                }
                self.metrics.conns_closed += 1;
                if self.nodes[to.0].alive {
                    self.with_app(to, |app, ctx| app.on_closed(ctx, conn));
                }
            }
            EventKind::Timer { node, token } => {
                if self.nodes[node.0].alive {
                    self.metrics.timers_fired += 1;
                    self.with_app(node, |app, ctx| app.on_timer(ctx, token));
                }
            }
            EventKind::Reset { conn, to } => {
                // Spontaneous reset: the table entry was reaped at the
                // moment the reset fired; this event only carries the
                // notification to one endpoint.
                if self.nodes[to.0].alive {
                    self.with_app(to, |app, ctx| app.on_closed(ctx, conn));
                }
            }
            EventKind::ChurnDown { node } => self.churn_down(node),
            EventKind::ChurnUp { node } => self.churn_up(node),
        }
        self.sync_stats();
    }

    /// Runs `f` against a node's app with a fresh command buffer, then
    /// applies the buffered actions.
    /// Harness entry point: runs `f` against a node's app with a live
    /// [`Ctx`], then applies any actions the app requested (sends,
    /// connects, timers). This is how instrumented experiments drive an
    /// app from outside the event loop — e.g. issuing a search on a
    /// crawler node and draining its observations. Returns `None` if the
    /// node is offline.
    pub fn with_node<R>(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut dyn App, &mut Ctx<'_>) -> R,
    ) -> Option<R> {
        if let Some(s) = &mut self.sharded {
            return s.with_node(node, f);
        }
        if !self.nodes[node.0].alive {
            return None;
        }
        let mut app = self.nodes[node.0].app.take()?;
        let mut actions = Vec::new();
        let r;
        let start = std::time::Instant::now();
        {
            let slot = &self.nodes[node.0];
            let mut ctx = Ctx {
                now: self.now,
                node,
                local_addr: slot.local_addr,
                external_addr: slot.external_addr,
                rng: &mut self.rng,
                actions: &mut actions,
                next_conn: &mut self.next_conn_id,
                pool: &mut self.pool,
                profile: &mut self.metrics.timing,
                registry: &mut self.metrics.telemetry,
                telemetry: &mut self.telemetry,
            };
            r = f(app.as_mut(), &mut ctx);
        }
        let mid = std::time::Instant::now();
        self.metrics
            .timing
            .record(Subsystem::App, (mid - start).as_nanos() as u64);
        self.nodes[node.0].app = Some(app);
        self.apply(node, actions);
        self.metrics
            .timing
            .record(Subsystem::TcpPump, mid.elapsed().as_nanos() as u64);
        self.sync_stats();
        Some(r)
    }

    fn with_app<F: FnOnce(&mut Box<dyn App>, &mut Ctx<'_>)>(&mut self, node: NodeId, f: F) {
        let mut app = match self.nodes[node.0].app.take() {
            Some(a) => a,
            None => return, // re-entrant dispatch to a node being dropped
        };
        let mut actions = Vec::new();
        let start = std::time::Instant::now();
        {
            let slot = &self.nodes[node.0];
            let mut ctx = Ctx {
                now: self.now,
                node,
                local_addr: slot.local_addr,
                external_addr: slot.external_addr,
                rng: &mut self.rng,
                actions: &mut actions,
                next_conn: &mut self.next_conn_id,
                pool: &mut self.pool,
                profile: &mut self.metrics.timing,
                registry: &mut self.metrics.telemetry,
                telemetry: &mut self.telemetry,
            };
            f(&mut app, &mut ctx);
        }
        let mid = std::time::Instant::now();
        self.metrics
            .timing
            .record(Subsystem::App, (mid - start).as_nanos() as u64);
        self.nodes[node.0].app = Some(app);
        self.apply(node, actions);
        self.metrics
            .timing
            .record(Subsystem::TcpPump, mid.elapsed().as_nanos() as u64);
    }

    fn apply(&mut self, node: NodeId, actions: Vec<Action>) {
        for act in actions {
            match act {
                Action::Connect { conn, target } => {
                    let mut latency = SimDuration::from_micros(
                        self.rng
                            .gen_range(self.config.latency_us.0..=self.config.latency_us.1),
                    );
                    let mult = self.config.faults.latency_mult(&mut self.rng);
                    if mult > 1 {
                        self.metrics.faults_latency_spikes += 1;
                        self.emit_fault(FaultKind::LatencySpike);
                        latency = SimDuration::from_micros(latency.as_micros() * mult);
                    }
                    self.conns.insert(
                        conn.0,
                        Conn {
                            initiator: node,
                            acceptor: None,
                            latency,
                            bandwidth: [1, 1],
                            next_free: [self.now, self.now],
                            state: ConnState::Pending,
                        },
                    );
                    self.queue
                        .push(self.now + latency, EventKind::ConnAttempt { conn, target });
                }
                Action::Send { conn, data } => {
                    self.send_bytes(node, conn, data);
                }
                Action::Close { conn, .. } => {
                    self.close_conn(node, conn);
                }
                Action::Timer { delay, token } => {
                    self.queue
                        .push(self.now + delay, EventKind::Timer { node, token });
                }
                Action::Shutdown => {
                    self.shutdown_node(node);
                }
            }
        }
    }

    fn send_bytes(&mut self, from: NodeId, conn: ConnId, data: Vec<u8>) {
        let (to, arrival_base) = {
            let c = match self.conns.get_mut(&conn.0) {
                Some(c) => c,
                None => {
                    self.metrics.bytes_dropped += data.len() as u64;
                    self.pool.release(data);
                    return;
                }
            };
            if c.state != ConnState::Open {
                self.metrics.bytes_dropped += data.len() as u64;
                self.pool.release(data);
                return;
            }
            let acceptor = c.acceptor.expect("open conn has acceptor");
            let dir = if from == c.initiator { 0 } else { 1 };
            let to = if dir == 0 { acceptor } else { c.initiator };
            let start = c.next_free[dir].max(self.now);
            let transmit =
                SimDuration::from_micros(data.len() as u64 * 1_000_000 / c.bandwidth[dir]);
            c.next_free[dir] = start + transmit;
            (to, start + transmit + c.latency)
        };
        // Spontaneous reset (fault plan): the connection dies at this
        // write. Both endpoints hear `on_closed` — the sender immediately
        // (RST on write), the peer after one latency — and everything in
        // flight is lost, this send included.
        if self.config.faults.send_resets(&mut self.rng) {
            let latency = match self.conns.remove(&conn.0) {
                Some(c) => c.latency,
                None => return,
            };
            self.metrics.faults_resets += 1;
            self.emit_fault(FaultKind::Reset);
            self.metrics.conns_closed += 1;
            self.metrics.bytes_dropped += data.len() as u64;
            self.pool.release(data);
            self.queue
                .push(self.now, EventKind::Reset { conn, to: from });
            self.queue
                .push(self.now + latency, EventKind::Reset { conn, to });
            return;
        }
        match self.config.mss {
            Some(mss) if data.len() > mss => {
                // Zero-copy fan-out: every fragment is a window into one
                // shared buffer, spread one microsecond apart to preserve
                // order. The buffer returns to the pool when the last
                // fragment is delivered.
                let total = data.len();
                let buf = Arc::new(data);
                let mut t = arrival_base;
                let mut start = 0;
                while start < total {
                    let end = (start + mss).min(total);
                    let payload = Payload::Shared {
                        buf: buf.clone(),
                        start,
                        end,
                    };
                    if let Some(payload) = self.fault_chunk(payload) {
                        self.queue.push(
                            t,
                            EventKind::Data {
                                conn,
                                to,
                                data: payload,
                            },
                        );
                    }
                    t += SimDuration::from_micros(1);
                    start = end;
                }
            }
            _ => {
                if let Some(payload) = self.fault_chunk(Payload::Owned(data)) {
                    self.queue.push(
                        arrival_base,
                        EventKind::Data {
                            conn,
                            to,
                            data: payload,
                        },
                    );
                }
            }
        }
    }

    /// Applies the fault plan's sampled fate to one chunk, returning the
    /// (possibly mutated) payload to deliver, or `None` when it is lost.
    /// The fault-free fast path performs no RNG draw.
    fn fault_chunk(&mut self, payload: Payload) -> Option<Payload> {
        let faults = self.config.faults;
        if faults.chunk_loss == 0.0 && faults.corrupt == 0.0 {
            return Some(payload);
        }
        let drop_chunk = |sim: &mut Self, payload: Payload| {
            sim.metrics.faults_chunks_dropped += 1;
            sim.emit_fault(FaultKind::ChunkDrop);
            sim.metrics.bytes_dropped += payload.len() as u64;
            if let Payload::Owned(v) = payload {
                sim.pool.release(v);
            }
        };
        match faults.chunk_fate(&mut self.rng) {
            ChunkFate::Deliver => Some(payload),
            ChunkFate::Drop => {
                drop_chunk(self, payload);
                None
            }
            ChunkFate::Truncate => {
                let len = payload.len();
                let keep = len / 2;
                if keep == 0 {
                    drop_chunk(self, payload);
                    return None;
                }
                self.metrics.faults_chunks_corrupted += 1;
                self.emit_fault(FaultKind::ChunkTruncate);
                self.metrics.bytes_dropped += (len - keep) as u64;
                Some(match payload {
                    Payload::Owned(mut v) => {
                        v.truncate(keep);
                        Payload::Owned(v)
                    }
                    Payload::Shared { buf, start, .. } => Payload::Shared {
                        buf,
                        start,
                        end: start + keep,
                    },
                })
            }
            ChunkFate::BitFlip => {
                let len = payload.len();
                if len == 0 {
                    return Some(payload);
                }
                self.metrics.faults_chunks_corrupted += 1;
                self.emit_fault(FaultKind::ChunkBitFlip);
                let bit = self.rng.gen_range(0..len * 8);
                Some(match payload {
                    Payload::Owned(mut v) => {
                        v[bit / 8] ^= 1 << (bit % 8);
                        Payload::Owned(v)
                    }
                    Payload::Shared { buf, start, end } => {
                        let mut v = buf[start..end].to_vec();
                        v[bit / 8] ^= 1 << (bit % 8);
                        Payload::Owned(v)
                    }
                })
            }
        }
    }

    fn close_conn(&mut self, closer: NodeId, conn: ConnId) {
        let (peer, when) = {
            let c = match self.conns.get_mut(&conn.0) {
                Some(c) => c,
                None => return,
            };
            match c.state {
                ConnState::Closed => return,
                ConnState::Pending => {
                    // Connection abandoned before establishment; the
                    // pending ConnAttempt event will find no entry.
                    self.conns.remove(&conn.0);
                    return;
                }
                ConnState::Open => {}
            }
            let acceptor = c.acceptor.expect("open conn has acceptor");
            let dir = if closer == c.initiator { 0 } else { 1 };
            let peer = if dir == 0 { acceptor } else { c.initiator };
            // FIN is ordered after any queued data on this direction.
            let when = c.next_free[dir].max(self.now) + c.latency;
            c.state = ConnState::Closed;
            (peer, when)
        };
        self.queue
            .push(when, EventKind::CloseNotify { conn, to: peer });
    }

    fn shutdown_node(&mut self, node: NodeId) {
        if !self.nodes[node.0].alive {
            return;
        }
        self.nodes[node.0].alive = false;
        self.metrics.nodes_stopped += 1;
        self.listeners.remove(&self.nodes[node.0].external_addr);
        // Close every open connection this node participates in.
        let mut involved: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.state == ConnState::Open && (c.initiator == node || c.acceptor == Some(node))
            })
            .map(|(&id, _)| id)
            .collect();
        // HashMap iteration order is process-random; sort so close events
        // schedule in a reproducible order.
        involved.sort_unstable();
        for id in involved {
            self.close_conn(node, ConnId(id));
        }
    }

    /// Runs a callback against a node's app but discards any actions it
    /// buffers — the "host lost power" semantics of churn death, where the
    /// app's bookkeeping must update but nothing it tries to send leaves
    /// the machine.
    fn notify_app_discard<F: FnOnce(&mut Box<dyn App>, &mut Ctx<'_>)>(
        &mut self,
        node: NodeId,
        f: F,
    ) {
        let mut app = match self.nodes[node.0].app.take() {
            Some(a) => a,
            None => return,
        };
        let mut actions = Vec::new();
        {
            let slot = &self.nodes[node.0];
            let mut ctx = Ctx {
                now: self.now,
                node,
                local_addr: slot.local_addr,
                external_addr: slot.external_addr,
                rng: &mut self.rng,
                actions: &mut actions,
                next_conn: &mut self.next_conn_id,
                pool: &mut self.pool,
                profile: &mut self.metrics.timing,
                registry: &mut self.metrics.telemetry,
                telemetry: &mut self.telemetry,
            };
            f(&mut app, &mut ctx);
        }
        self.nodes[node.0].app = Some(app);
    }

    /// A churn session ends: the node dies mid-whatever-it-was-doing.
    /// Open connections close toward their peers (FIN after queued data,
    /// like `shutdown_node`), and the dying app is told about every
    /// connection it had — with its reactions discarded — so its state is
    /// consistent when the session restarts.
    fn churn_down(&mut self, node: NodeId) {
        if !self.nodes[node.0].alive {
            // The app shut itself down in the meantime; that death is
            // permanent and the churn session does not resurrect it.
            return;
        }
        self.metrics.faults_churn_downs += 1;
        if self.telemetry.enabled(EventCategory::Churn) {
            self.telemetry.emit(TelemetryEvent::new(
                self.now,
                EventBody::ChurnDown {
                    node: node.0 as u64,
                },
            ));
        }
        // Partition this node's connections: established ones get a close
        // handshake, dials still in flight are abandoned.
        let mut open = Vec::new();
        let mut pending = Vec::new();
        for (&id, c) in &self.conns {
            match c.state {
                ConnState::Open if c.initiator == node || c.acceptor == Some(node) => {
                    open.push(ConnId(id));
                }
                ConnState::Pending if c.initiator == node => pending.push(ConnId(id)),
                _ => {}
            }
        }
        // HashMap iteration order is process-random; sort so the close
        // events and app notifications replay identically run to run.
        open.sort_unstable_by_key(|c| c.0);
        pending.sort_unstable_by_key(|c| c.0);
        for conn in &open {
            self.close_conn(node, *conn);
        }
        for conn in &pending {
            // The ConnAttempt event will find no entry and do nothing.
            self.conns.remove(&conn.0);
            self.metrics.conns_failed += 1;
        }
        self.nodes[node.0].alive = false;
        self.metrics.nodes_stopped += 1;
        self.listeners.remove(&self.nodes[node.0].external_addr);
        for conn in open {
            self.notify_app_discard(node, |app, ctx| app.on_closed(ctx, conn));
        }
        for conn in pending {
            self.notify_app_discard(node, |app, ctx| app.on_connect_failed(ctx, conn));
        }
        let churn = self.config.faults.churn.expect("churn event implies plan");
        let down = self
            .rng
            .gen_range(churn.downtime_secs.0..=churn.downtime_secs.1);
        self.queue.push(
            self.now + SimDuration::from_secs(down),
            EventKind::ChurnUp { node },
        );
    }

    /// A churn session begins: the node comes back online, re-registers
    /// its listener and restarts its app (`on_start` re-bootstraps), then
    /// schedules the next session end.
    fn churn_up(&mut self, node: NodeId) {
        if self.nodes[node.0].alive {
            return;
        }
        self.nodes[node.0].alive = true;
        self.metrics.faults_churn_ups += 1;
        if self.telemetry.enabled(EventCategory::Churn) {
            self.telemetry.emit(TelemetryEvent::new(
                self.now,
                EventBody::ChurnUp {
                    node: node.0 as u64,
                },
            ));
        }
        if self.nodes[node.0].listener {
            self.listeners
                .insert(self.nodes[node.0].external_addr, node);
        }
        self.queue.push(self.now, EventKind::Start { node });
        let churn = self.config.faults.churn.expect("churn event implies plan");
        let up = self
            .rng
            .gen_range(churn.uptime_secs.0..=churn.uptime_secs.1);
        self.queue.push(
            self.now + SimDuration::from_secs(up),
            EventKind::ChurnDown { node },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Log {
        events: Vec<String>,
    }

    type SharedLog = Arc<Mutex<Log>>;

    struct Echo {
        log: SharedLog,
    }

    impl App for Echo {
        fn on_connected(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, dir: Direction, _p: HostAddr) {
            self.log
                .lock()
                .unwrap()
                .events
                .push(format!("server connected {dir:?}"));
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
            self.log
                .lock()
                .unwrap()
                .events
                .push(format!("server got {}", String::from_utf8_lossy(data)));
            ctx.send(conn, data);
        }
        fn on_closed(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
            self.log.lock().unwrap().events.push("server closed".into());
        }
    }

    struct Client {
        log: SharedLog,
        server: HostAddr,
        payload: Vec<u8>,
    }

    impl App for Client {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.connect(self.server);
        }
        fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, _d: Direction, _p: HostAddr) {
            ctx.send(conn, &self.payload.clone());
        }
        fn on_connect_failed(&mut self, _ctx: &mut Ctx<'_>, _conn: ConnId) {
            self.log
                .lock()
                .unwrap()
                .events
                .push("client connect failed".into());
        }
        fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, data: &[u8]) {
            self.log
                .lock()
                .unwrap()
                .events
                .push(format!("client got {}", String::from_utf8_lossy(data)));
            ctx.close(conn);
        }
    }

    fn new_log() -> SharedLog {
        Arc::new(Mutex::new(Log::default()))
    }

    #[test]
    fn echo_roundtrip_with_close() {
        let log = new_log();
        let mut sim = Simulator::new(SimConfig::default(), 1);
        let server = sim.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Echo { log: log.clone() }),
        );
        let server_addr = sim.node_addr(server);
        sim.spawn(
            NodeSpec::public(),
            Box::new(Client {
                log: log.clone(),
                server: server_addr,
                payload: b"ping".to_vec(),
            }),
        );
        sim.run_to_quiescence();
        let events = log.lock().unwrap().events.clone();
        assert_eq!(
            events,
            vec![
                "server connected Inbound",
                "server got ping",
                "client got ping",
                "server closed"
            ]
        );
        assert_eq!(sim.metrics().conns_established, 1);
        assert_eq!(sim.metrics().conns_closed, 1);
    }

    #[test]
    fn connect_to_nobody_fails() {
        let log = new_log();
        let mut sim = Simulator::new(SimConfig::default(), 2);
        let phantom = HostAddr::new(std::net::Ipv4Addr::new(9, 9, 9, 9), 1234);
        sim.spawn(
            NodeSpec::public(),
            Box::new(Client {
                log: log.clone(),
                server: phantom,
                payload: vec![],
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(log.lock().unwrap().events, vec!["client connect failed"]);
        assert_eq!(sim.metrics().conns_failed, 1);
    }

    #[test]
    fn nat_node_is_not_dialable_but_can_dial() {
        let log = new_log();
        let mut sim = Simulator::new(SimConfig::default(), 3);
        // NAT "server": listener must not register.
        let nat = sim.spawn(
            NodeSpec::nat().listen(6346),
            Box::new(Echo { log: log.clone() }),
        );
        let nat_addr = sim.node_addr(nat);
        sim.spawn(
            NodeSpec::public(),
            Box::new(Client {
                log: log.clone(),
                server: nat_addr,
                payload: b"x".to_vec(),
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(log.lock().unwrap().events, vec!["client connect failed"]);
        // And the NAT node's local address is private while external is not.
        assert!(sim.node_local_addr(nat).is_private());
        assert!(!sim.node_addr(nat).is_private());

        // NAT node can dial out.
        let log2 = new_log();
        let mut sim2 = Simulator::new(SimConfig::default(), 4);
        let server = sim2.spawn(
            NodeSpec::public().listen(6346),
            Box::new(Echo { log: log2.clone() }),
        );
        let server_addr = sim2.node_addr(server);
        sim2.spawn(
            NodeSpec::nat(),
            Box::new(Client {
                log: log2.clone(),
                server: server_addr,
                payload: b"y".to_vec(),
            }),
        );
        sim2.run_to_quiescence();
        assert!(log2
            .lock()
            .unwrap()
            .events
            .iter()
            .any(|e| e == "client got y"));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| {
            let log = new_log();
            let mut sim = Simulator::new(SimConfig::default(), seed);
            let server = sim.spawn(
                NodeSpec::public().listen(1),
                Box::new(Echo { log: log.clone() }),
            );
            let addr = sim.node_addr(server);
            for i in 0..10 {
                sim.spawn(
                    NodeSpec::public(),
                    Box::new(Client {
                        log: log.clone(),
                        server: addr,
                        payload: format!("m{i}").into_bytes(),
                    }),
                );
            }
            sim.run_to_quiescence();
            let events = log.lock().unwrap().events.clone();
            (events, sim.metrics().clone(), sim.now())
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn bandwidth_serializes_transfers() {
        // A 100 KB send on a 10 KB/s uplink takes ≥ 10 simulated seconds.
        struct Sender {
            server: HostAddr,
        }
        impl App for Sender {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.server);
            }
            fn on_connected(
                &mut self,
                ctx: &mut Ctx<'_>,
                conn: ConnId,
                _d: Direction,
                _p: HostAddr,
            ) {
                ctx.send(conn, &vec![0u8; 100_000]);
            }
        }
        struct Sink {
            done_at: SharedDone,
        }
        type SharedDone = Arc<Mutex<Option<SimTime>>>;
        impl App for Sink {
            fn on_data(&mut self, ctx: &mut Ctx<'_>, _c: ConnId, _d: &[u8]) {
                *self.done_at.lock().unwrap() = Some(ctx.now());
            }
        }
        let done: SharedDone = Arc::new(Mutex::new(None));
        let mut sim = Simulator::new(SimConfig::default(), 5);
        let sink = sim.spawn(
            NodeSpec::public().listen(80).download(1_000_000),
            Box::new(Sink {
                done_at: done.clone(),
            }),
        );
        let addr = sim.node_addr(sink);
        sim.spawn(
            NodeSpec::public().upload(10_000),
            Box::new(Sender { server: addr }),
        );
        sim.run_to_quiescence();
        let t = done.lock().unwrap().expect("delivered");
        assert!(t >= SimTime::from_secs(10), "arrived too fast: {t}");
        assert!(t <= SimTime::from_secs(11), "arrived too slow: {t}");
    }

    #[test]
    fn mss_fragments_but_preserves_order_and_content() {
        struct Collect {
            got: Arc<Mutex<Vec<u8>>>,
            chunks: Arc<Mutex<usize>>,
        }
        impl App for Collect {
            fn on_data(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId, data: &[u8]) {
                self.got.lock().unwrap().extend_from_slice(data);
                *self.chunks.lock().unwrap() += 1;
            }
        }
        struct Send1K {
            server: HostAddr,
        }
        impl App for Send1K {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.server);
            }
            fn on_connected(
                &mut self,
                ctx: &mut Ctx<'_>,
                conn: ConnId,
                _d: Direction,
                _p: HostAddr,
            ) {
                let payload: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
                ctx.send(conn, &payload);
            }
        }
        let got = Arc::new(Mutex::new(Vec::new()));
        let chunks = Arc::new(Mutex::new(0usize));
        let mut sim = Simulator::new(
            SimConfig {
                mss: Some(100),
                ..SimConfig::default()
            },
            6,
        );
        let sink = sim.spawn(
            NodeSpec::public().listen(80),
            Box::new(Collect {
                got: got.clone(),
                chunks: chunks.clone(),
            }),
        );
        let addr = sim.node_addr(sink);
        sim.spawn(NodeSpec::public(), Box::new(Send1K { server: addr }));
        sim.run_to_quiescence();
        let expected: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(*got.lock().unwrap(), expected);
        assert_eq!(*chunks.lock().unwrap(), 10);
    }

    #[test]
    fn stop_node_closes_peer_connections() {
        let log = new_log();
        let mut sim = Simulator::new(SimConfig::default(), 7);
        let server = sim.spawn(
            NodeSpec::public().listen(1),
            Box::new(Echo { log: log.clone() }),
        );
        let addr = sim.node_addr(server);
        struct Idle {
            server: HostAddr,
            closed: Arc<Mutex<bool>>,
        }
        impl App for Idle {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.connect(self.server);
            }
            fn on_closed(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId) {
                *self.closed.lock().unwrap() = true;
            }
        }
        let closed = Arc::new(Mutex::new(false));
        sim.spawn(
            NodeSpec::public(),
            Box::new(Idle {
                server: addr,
                closed: closed.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(5));
        assert!(sim.is_alive(server));
        sim.stop_node(server);
        sim.run_to_quiescence();
        assert!(!sim.is_alive(server));
        assert!(*closed.lock().unwrap(), "peer should observe close");
        // Dialing the stopped node now fails.
        let log3 = new_log();
        sim.spawn(
            NodeSpec::public(),
            Box::new(Client {
                log: log3.clone(),
                server: addr,
                payload: vec![],
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(log3.lock().unwrap().events, vec!["client connect failed"]);
    }

    #[test]
    fn timers_fire_in_order() {
        struct Timers {
            fired: Arc<Mutex<Vec<u64>>>,
        }
        impl App for Timers {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_secs(3), 3);
                ctx.set_timer(SimDuration::from_secs(1), 1);
                ctx.set_timer(SimDuration::from_secs(2), 2);
            }
            fn on_timer(&mut self, _ctx: &mut Ctx<'_>, token: u64) {
                self.fired.lock().unwrap().push(token);
            }
        }
        let fired = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulator::new(SimConfig::default(), 8);
        sim.spawn(
            NodeSpec::public(),
            Box::new(Timers {
                fired: fired.clone(),
            }),
        );
        sim.run_to_quiescence();
        assert_eq!(*fired.lock().unwrap(), vec![1, 2, 3]);
        assert_eq!(sim.metrics().timers_fired, 3);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Simulator::new(SimConfig::default(), 9);
        sim.run_until(SimTime::from_days(2));
        assert_eq!(sim.now(), SimTime::from_days(2));
    }

    #[test]
    fn self_dial_fails() {
        // A node dialing its own listen address must not connect to itself.
        struct SelfDial {
            failed: Arc<Mutex<bool>>,
        }
        impl App for SelfDial {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.external_addr();
                ctx.connect(me);
            }
            fn on_connect_failed(&mut self, _ctx: &mut Ctx<'_>, _c: ConnId) {
                *self.failed.lock().unwrap() = true;
            }
        }
        let failed = Arc::new(Mutex::new(false));
        let mut sim = Simulator::new(SimConfig::default(), 10);
        sim.spawn(
            NodeSpec::public().listen(5),
            Box::new(SelfDial {
                failed: failed.clone(),
            }),
        );
        sim.run_to_quiescence();
        assert!(*failed.lock().unwrap());
    }
}
