//! The threaded execution backend: one OS thread per shard, fed through
//! real `l25gc_nfv::ring` SPSC pairs.
//!
//! The analytic backend *models* the sharded FIFO servers; this backend
//! *runs* them. Each shard is a [`ShardWorker`] on its own thread,
//! attached to the dispatcher by an [`l25gc_nfv::duplex`] channel — a
//! submit ring carrying [`Submit`] descriptors out and a completion ring
//! carrying [`Completion`] descriptors back, the same lock-free SPSC
//! structure the NFs use for packet descriptors. The dispatcher does
//! SUPI-hash routing, high-water admission control (the `Shed`/`Queue`
//! policies keep their semantics, now against *real* ring occupancy),
//! and drains completions into the shared `l25gc-obs` histograms.
//!
//! Latency is still computed in virtual time by the same
//! [`FifoServer`] the analytic backend runs (`max(busy_until, arrival) +
//! occupancy`, plus off-shard wire time), so the latency tables stay
//! comparable; what the threaded run adds is **wall-clock truth**: how
//! many events/s the dispatcher + rings + workers actually move
//! ([`WallClock`](crate::driver::WallClock)), and loss accounting over a
//! real concurrent substrate (every submission is either completed or
//! recorded as a typed drop — nothing vanishes).
//!
//! There is one admission path: every routed event is staged and crosses
//! its submit ring in a `push_burst` of up to
//! [`LoadConfig::dispatch_batch`] events, and batch 1 is simply a burst
//! of one. The [`Pool`] is one of the two [`ShardExec`] engines the
//! driver loop runs over.
//!
//! Workers record the stage histograms into private `Obs` bundles (no
//! locks on the hot path) which the dispatcher absorbs after join — the
//! cross-thread recorder pattern `l25gc-obs` supports via
//! [`Obs::absorb`].
//!
//! Placement and waiting reproduce the paper's testbed discipline: with
//! pinning enabled each worker lands on its own physical core (OpenNetVM's
//! one-NF-per-core map, via [`l25gc_nfv::topology`]) and every wait site
//! goes through a [`Waiter`] — the spin→yield→park ladder that keeps
//! wall-clock `sustained_eps` stable on shared machines. Pinning failures
//! warn once and the run continues unpinned; they are never fatal.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use l25gc_core::UeEvent;
use l25gc_nfv::ring::{duplex, DuplexHost, DuplexWorker};
use l25gc_nfv::topology::{pin_current_thread, CpuTopology, PinPlan};
use l25gc_obs::{DropCode, EventKind, MetricsTimeline, Obs};
use l25gc_sim::SimTime;

use crate::dispatch::ProfileSet;
use crate::driver::{record_admitted, record_served, ExecTotals, LoadConfig, ShardExec, Telemetry};
use crate::fifo::FifoServer;
use crate::shard::{OverloadPolicy, SHARD_LABELS};
use crate::wait::{WaitStats, Waiter};

/// Submissions a worker drains per ring poll (the DPDK burst idiom).
const BURST: usize = 64;

/// Virtual-time flush deadline for staged dispatch: a staged burst whose
/// oldest arrival has aged past this is flushed even if under-full, so
/// batching can never hold an event back across a long arrival gap. The
/// deadline is in *virtual* nanoseconds — queue-wait is charged from the
/// arrival instant either way, so the latency anatomy is exact and this
/// bound only caps how stale the ring's wall-clock view may get. 50 ms
/// sits below the calibrated per-procedure occupancy (tens of ms), so a
/// staged event can never wait out even one service time, while arrival
/// gaps tighter than the deadline — overload, flash crowds — let bursts
/// genuinely fill to the configured batch size.
const FLUSH_DEADLINE_NS: u64 = 50_000_000;

/// `seq` value of the stop sentinel; FIFO rings guarantee every real
/// submission is processed before the worker sees it.
const STOP_SEQ: u64 = u64::MAX;

/// One procedure crossing the submit ring, 24 bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Submit {
    /// Monotone per-run sequence number (closed loop matches on it).
    pub(crate) seq: u64,
    /// Procedure kind.
    pub(crate) kind: UeEvent,
    /// The UE issuing the procedure (span sampling).
    pub(crate) ue: u32,
    /// Virtual arrival instant.
    pub(crate) at: SimTime,
}

/// One completed procedure crossing the completion ring back.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Completion {
    /// Sequence number of the originating [`Submit`].
    pub(crate) seq: u64,
    /// Procedure kind (histogram routing).
    pub(crate) kind: UeEvent,
    /// The UE it belongs to (span sampling).
    pub(crate) ue: u32,
    /// Virtual arrival instant (latency = `completes_at - at`).
    pub(crate) at: SimTime,
    /// Virtual end-to-end completion instant.
    pub(crate) completes_at: SimTime,
}

/// What one worker thread hands back at join, beside its [`FifoServer`].
struct WorkerStats {
    /// Which shard this worker served (a killed shard yields two stats
    /// bundles: the dead primary's and its standby's).
    shard: u16,
    /// Procedures this worker served.
    served: u64,
    /// Whether this worker is actually pinned to its planned CPU.
    pinned: bool,
    /// Wait-ladder counters from both of the worker's wait sites.
    wait: WaitStats,
    /// The worker's private recorder bundle.
    obs: Obs,
    /// The worker's private timeline lane (completion counts + latency
    /// deltas for its shard), merged by the dispatcher at join.
    timeline: Option<MetricsTimeline>,
}

/// One shard's server loop: pop submissions in bursts, advance the
/// shard's [`FifoServer`], push completions back in bursts. Runs until
/// the stop sentinel.
struct ShardWorker {
    port: DuplexWorker<Submit, Completion>,
    profiles: ProfileSet,
    shard: u16,
    /// The shard's service recurrence — the same code, over the same
    /// arrivals and outages, as the analytic backend's, so the two
    /// latency distributions match event-for-event when nothing is shed.
    fifo: FifoServer,
    served: u64,
    obs: Obs,
    timeline: Option<MetricsTimeline>,
    /// Completions accumulated while serving a burst, pushed with
    /// `push_burst` after the burst — symmetric to the `pop_burst` drain.
    out_buf: Vec<Completion>,
    /// CPU to pin to at thread start (`None` = leave placement to the OS).
    pin_cpu: Option<u32>,
    /// Shared warn-once latch for pinning failures across the pool.
    pin_warn: Arc<AtomicBool>,
    /// Wait site: submit ring empty.
    idle_wait: Waiter,
    /// Wait site: completion ring full.
    complete_wait: Waiter,
}

/// Pins the calling thread to `cpu` when one is planned; `true` when the
/// thread actually landed there. Pinning is best-effort: a failure warns
/// once per pool (`latch`) and the run continues unpinned.
fn pin_to(cpu: Option<u32>, what: &str, latch: &AtomicBool) -> bool {
    let Some(cpu) = cpu else { return false };
    match pin_current_thread(cpu) {
        Ok(()) => true,
        Err(e) => {
            if !latch.swap(true, Ordering::Relaxed) {
                eprintln!("warning: pinning {what} to cpu {cpu} failed ({e}); continuing unpinned");
            }
            false
        }
    }
}

impl ShardWorker {
    fn run(mut self) -> (FifoServer, WorkerStats) {
        let pinned = pin_to(self.pin_cpu, "shard worker", &self.pin_warn);
        let mut buf: Vec<Submit> = Vec::with_capacity(BURST);
        'serve: loop {
            let n = self.port.submissions.pop_burst(&mut buf, BURST);
            if n == 0 {
                self.idle_wait.wait();
                continue;
            }
            self.idle_wait.reset();
            for s in buf.drain(..) {
                if s.seq == STOP_SEQ {
                    break 'serve;
                }
                self.serve(s);
            }
            self.flush_completions();
        }
        self.flush_completions();
        let mut wait = self.idle_wait.stats();
        wait.absorb(&self.complete_wait.stats());
        let stats = WorkerStats {
            shard: self.shard,
            served: self.served,
            pinned,
            wait,
            obs: self.obs,
            timeline: self.timeline,
        };
        (self.fifo, stats)
    }

    /// Serves one submission. The completion is buffered, not pushed;
    /// [`ShardWorker::flush_completions`] sends the whole burst.
    fn serve(&mut self, s: Submit) {
        let svc = self.fifo.serve(s.at, self.profiles.get(s.kind));
        self.served += 1;
        record_served(
            &mut self.obs,
            self.timeline.as_mut(),
            self.shard,
            s.at,
            &svc,
        );
        self.out_buf.push(Completion {
            seq: s.seq,
            kind: s.kind,
            ue: s.ue,
            at: s.at,
            completes_at: svc.completes_at,
        });
    }

    /// Pushes the buffered completions as bursts, waiting out a full
    /// completion ring. The dispatcher drains completions wherever it
    /// waits on this worker — a full submit ring, a round trip, the stop
    /// sentinel — so this wait is deadlock-free.
    fn flush_completions(&mut self) {
        while !self.out_buf.is_empty() {
            if self.port.complete.push_burst(&mut self.out_buf) == 0 {
                self.complete_wait.wait();
            } else {
                self.complete_wait.reset();
            }
        }
    }
}

/// One scripted kill the dispatcher still has to deliver.
struct PendingKill {
    shard: u16,
    at: SimTime,
    fired: bool,
}

type Host = DuplexHost<Submit, Completion>;
type Handle = thread::JoinHandle<(FifoServer, WorkerStats)>;

/// Everything needed to put a worker on a shard — at pool start, and
/// again for the standby when a kill fires.
struct Respawn<'a> {
    cfg: &'a LoadConfig,
    profiles: &'a ProfileSet,
    pin_cpus: Vec<Option<u32>>,
    pin_warn: Arc<AtomicBool>,
}

impl Respawn<'_> {
    /// Spawns a worker for shard `i` on a fresh duplex pair, serving from
    /// `fifo`'s clock. `role` suffixes the thread name.
    fn spawn(&self, i: usize, fifo: FifoServer, role: &str) -> (Host, Handle) {
        let cfg = self.cfg;
        let label = SHARD_LABELS[i % SHARD_LABELS.len()];
        let (mut host, port) = duplex::<Submit, Completion>(cfg.shard_cfg.ring_capacity, label);
        host.submit.set_high_water(cfg.shard_cfg.high_water);
        let worker = ShardWorker {
            port,
            profiles: self.profiles.clone(),
            shard: i as u16,
            fifo,
            served: 0,
            obs: Obs::new(),
            // Each worker gets a full-width timeline and records only its
            // own lane; `MetricsTimeline::absorb` then merges them into
            // the dispatcher's — the same private-recorder discipline as
            // `Obs`.
            timeline: cfg
                .metrics_interval
                .map(|iv| MetricsTimeline::new(iv, cfg.shard_cfg.shards)),
            out_buf: Vec::with_capacity(BURST),
            pin_cpu: self.pin_cpus[i],
            pin_warn: self.pin_warn.clone(),
            idle_wait: Waiter::new(),
            complete_wait: Waiter::new(),
        };
        let handle = thread::Builder::new()
            .name(format!("l25gc-{label}{role}"))
            .spawn(move || worker.run())
            .expect("spawn shard worker");
        (host, handle)
    }
}

/// The dispatcher's side of the pool: per-shard duplex hosts plus the
/// join handles, the staging buffers, and the drop accounting.
pub(crate) struct Pool<'a> {
    hosts: Vec<Host>,
    /// `None` only while a shard's worker is being stopped and joined.
    handles: Vec<Option<Handle>>,
    /// One `Thread` handle per worker, for wake-on-submit: a push that
    /// takes a submit ring from empty to non-empty unparks its worker so
    /// a parked shard reacts immediately instead of riding out the park
    /// timeout. `unpark` on a running thread is a cheap no-op-ish store.
    workers: Vec<thread::Thread>,
    /// The dispatcher's own copy of each shard's [`FifoServer`]: it
    /// knows the shard's outages for the admission accounting and, when
    /// a timeline is on, serves every dispatch at offer time — the same
    /// recurrence over the same arrivals as the worker's copy, so the
    /// utilization lanes are live (recorded at dispatch, not at join)
    /// and match the analytic backend's.
    lanes: Vec<FifoServer>,
    shed: u64,
    /// Sequence number of the next dispatch = procedures dispatched.
    next_seq: u64,
    comp_buf: Vec<Completion>,
    /// Whether the dispatcher itself landed on its planned CPU.
    dispatcher_pinned: bool,
    /// Wait site: full submit ring.
    offer_wait: Waiter,
    /// Wait site: stopping a worker.
    shutdown_wait: Waiter,
    /// Wait site: closed-loop completion round trip.
    await_wait: Waiter,
    /// Scripted kills not yet delivered, in plan order.
    kills: Vec<PendingKill>,
    /// Stats of workers already joined mid-run (killed primaries).
    retired: Vec<WorkerStats>,
    /// Worker-spawn context, kept for failover.
    respawn: Respawn<'a>,
    /// Arrivals shed while their shard was inside a scripted outage.
    lost_in_outage: u64,
    /// Per-shard staging buffers: routed events accumulate here and cross
    /// the submit ring as one `push_burst` of up to
    /// [`LoadConfig::dispatch_batch`] events, amortising the admission
    /// check, the ring's release fence, and the wake-on-submit unpark
    /// over the whole burst. Batch 1 is a burst of one.
    staged: Vec<Vec<Submit>>,
    /// When the pool started: the run's wall clock.
    wall_start: Instant,
}

impl<'a> Pool<'a> {
    pub(crate) fn spawn(cfg: &'a LoadConfig, profiles: &'a ProfileSet) -> Pool<'a> {
        let wall_start = Instant::now();
        let shards = cfg.shard_cfg.shards as usize;
        let pin_warn = Arc::new(AtomicBool::new(false));
        // One worker per distinct physical core, dispatcher on a spare
        // core when one exists — OpenNetVM's core map. Any failure here
        // (no sysfs, cgroup cpuset, non-Linux) degrades to unpinned.
        let plan: Option<PinPlan> = if cfg.pin {
            match CpuTopology::detect() {
                Ok(topo) => Some(topo.pin_plan(shards)),
                Err(e) => {
                    if !pin_warn.swap(true, Ordering::Relaxed) {
                        eprintln!(
                            "warning: pinning requested but CPU topology discovery failed ({e}); running unpinned"
                        );
                    }
                    None
                }
            }
        } else {
            None
        };
        let dispatcher_cpu = plan.as_ref().and_then(|p| p.dispatcher);
        let dispatcher_pinned = pin_to(dispatcher_cpu, "dispatcher", &pin_warn);
        let respawn = Respawn {
            cfg,
            profiles,
            pin_cpus: (0..shards)
                .map(|i| plan.as_ref().map(|p| p.worker_cpus[i]))
                .collect(),
            pin_warn,
        };
        // Outage intervals and the kill schedule from the fault plan —
        // the same compiled intervals the analytic backend floors with.
        let lanes = FifoServer::per_shard(&cfg.outages(), shards);
        let kills = cfg
            .fault
            .iter()
            .flat_map(|f| f.kills())
            .map(|e| PendingKill {
                shard: e.shard,
                at: SimTime::ZERO + e.at,
                fired: false,
            });
        let (hosts, handles): (Vec<Host>, Vec<Handle>) = lanes
            .iter()
            .enumerate()
            .map(|(i, fifo)| respawn.spawn(i, fifo.clone(), ""))
            .unzip();
        Pool {
            hosts,
            workers: handles.iter().map(|h| h.thread().clone()).collect(),
            handles: handles.into_iter().map(Some).collect(),
            lanes,
            shed: 0,
            next_seq: 0,
            comp_buf: Vec::with_capacity(BURST),
            dispatcher_pinned,
            offer_wait: Waiter::new(),
            shutdown_wait: Waiter::new(),
            await_wait: Waiter::new(),
            kills: kills.collect(),
            retired: Vec::new(),
            respawn,
            lost_in_outage: 0,
            staged: (0..shards)
                .map(|_| Vec::with_capacity(cfg.dispatch_batch))
                .collect(),
            wall_start,
        }
    }

    /// Delivers every scripted kill whose virtual time has been reached.
    /// Called from the dispatch loop (with the current arrival time) and
    /// once more at the end (with the horizon) so trailing kills fire.
    fn maybe_fire_kills(&mut self, now: SimTime, tel: &mut Telemetry) {
        while let Some(idx) = self.kills.iter().position(|k| !k.fired && k.at <= now) {
            self.kills[idx].fired = true;
            let shard = self.kills[idx].shard;
            self.fail_over(shard, tel);
        }
    }

    /// Kills `shard`'s primary worker and fails its queue pair over to a
    /// freshly spawned standby. The stop sentinel rides the same FIFO
    /// ring as the backlog, so the primary serves everything already
    /// logged before dying — the counter-ordered log replay of §3.5 —
    /// and the standby resumes from the replica checkpoint: the
    /// primary's [`FifoServer`], which keeps the shard's recurrence
    /// unbroken, so threaded latencies still match the analytic backend.
    fn fail_over(&mut self, shard: u16, tel: &mut Telemetry) {
        let i = shard as usize;
        // Staged events were logged (admitted and sequenced) before the
        // kill fired; flush them ahead of the sentinel so the dying
        // primary serves its whole logged backlog.
        self.flush_shard(i, tel);
        let (fifo, stats) = self.stop_worker(i, tel);
        self.retired.push(stats);
        let (host, handle) = self.respawn.spawn(i, fifo, "-standby");
        self.workers[i] = handle.thread().clone();
        self.handles[i] = Some(handle);
        self.hosts[i] = host;
    }

    /// Delivers the stop sentinel behind shard `i`'s backlog and joins
    /// its worker, draining completions the whole time: the worker's
    /// remaining backlog can owe more completions than the completion
    /// ring holds, and a worker waiting for room never exits.
    fn stop_worker(&mut self, i: usize, tel: &mut Telemetry) -> (FifoServer, WorkerStats) {
        let stop = Submit {
            seq: STOP_SEQ,
            kind: UeEvent::Registration,
            ue: 0,
            at: SimTime::ZERO,
        };
        while self.hosts[i].submit.push(stop).is_err() {
            self.drain_completions(tel);
            self.shutdown_wait.wait();
        }
        // The worker may be idle-parked on an empty ring; wake it so it
        // sees the sentinel without waiting out the park timeout.
        self.workers[i].unpark();
        let handle = self.handles[i].take().expect("one live worker per shard");
        while !handle.is_finished() {
            self.drain_completions(tel);
            self.shutdown_wait.wait();
        }
        self.shutdown_wait.reset();
        let joined = handle.join().expect("shard worker panicked");
        // The final flush may have landed between the last drain and
        // thread exit; empty the completion ring before the pair can be
        // replaced, or those completions are lost with it.
        self.drain_completions(tel);
        joined
    }

    /// Drains every shard's completion ring into `tel`.
    fn drain_completions(&mut self, tel: &mut Telemetry) {
        for host in &mut self.hosts {
            while host.completions.pop_burst(&mut self.comp_buf, BURST) > 0 {
                for c in self.comp_buf.drain(..) {
                    tel.record_completion(c.kind, c.ue, c.at, c.completes_at);
                }
            }
        }
    }

    /// Shard `i`'s logical occupancy: submit ring plus staged.
    fn depth(&self, i: usize) -> usize {
        self.hosts[i].submit.len() + self.staged[i].len()
    }

    /// Pushes shard `i`'s staged burst into its submit ring as one
    /// `push_burst`: one consumer-index refresh, one release fence, and
    /// at most one wake-on-submit unpark for the whole burst. Residue
    /// (ring full — `Queue` policy only, see `offer`) waits for worker
    /// progress, draining completions so the pair cannot wedge.
    fn flush_shard(&mut self, i: usize, tel: &mut Telemetry) {
        // The burst's oldest arrival: the window the flush is charged to.
        let Some(&Submit { at, .. }) = self.staged[i].first() else {
            return;
        };
        let fill = self.staged[i].len() as u64;
        loop {
            let (submit, staged) = (&mut self.hosts[i].submit, &mut self.staged[i]);
            let queued = submit.len();
            let pushed = submit.push_burst(staged);
            // Empty → non-empty transition: the worker may be parked in
            // its idle wait; wake it so the burst is served now, not
            // after the park timeout. (If `unpark` lands before the park,
            // the saved token makes the park return immediately.)
            if pushed > 0 && queued == 0 {
                self.workers[i].unpark();
            }
            if staged.is_empty() {
                break;
            }
            self.drain_completions(tel);
            self.offer_wait.wait();
        }
        self.offer_wait.reset();
        // The batch lanes describe staging; per-event dispatch has none.
        if self.respawn.cfg.dispatch_batch > 1 {
            if let Some(tl) = tel.timeline.as_mut() {
                tl.record_batch_flush(i as u16, at, fill);
            }
        }
    }

    /// Flushes every shard whose oldest staged arrival has aged past
    /// [`FLUSH_DEADLINE_NS`] of virtual time — the deadline flush that
    /// keeps under-full bursts from riding out long arrival gaps.
    fn flush_expired(&mut self, now: SimTime, tel: &mut Telemetry) {
        for i in 0..self.staged.len() {
            if let Some(oldest) = self.staged[i].first() {
                if now.duration_since(oldest.at).as_nanos() >= FLUSH_DEADLINE_NS {
                    self.flush_shard(i, tel);
                }
            }
        }
    }
}

/// The threaded engine. Everything virtual-time — the seq order, the
/// FIFO recurrence, the latency anatomy — is fixed at offer time, so
/// when a staged burst physically crosses the ring changes wall-clock
/// behaviour only.
impl ShardExec for Pool<'_> {
    type Ticket = u64;

    /// The only admission path: high-water admission against *logical*
    /// occupancy (ring plus staged), then staging. The seq is assigned
    /// and all virtual-time accounting (depth, the utilization lanes)
    /// happens here, at the arrival instant, so the timeline is
    /// independent of when the burst crosses the ring. Returns the seq.
    fn offer(
        &mut self,
        shard: u16,
        kind: UeEvent,
        ue: u32,
        at: SimTime,
        profiles: &ProfileSet,
        tel: &mut Telemetry,
    ) -> Option<u64> {
        self.maybe_fire_kills(at, tel);
        self.flush_expired(at, tel);
        let i = shard as usize;
        let cfg = self.respawn.cfg;
        // Under Shed the shard is first flushed and the verdict comes
        // from the real ring against its own (capacity-clamped) mark —
        // the substrate's congestion signal. Because admission caps
        // logical occupancy at that mark, a flush under Shed can never
        // meet a full ring: overload shows up as admission shed, never
        // as a backpressure drop. Under Queue a full ring blocks the
        // flush instead.
        if cfg.shard_cfg.policy == OverloadPolicy::Shed
            && self.depth(i) >= self.hosts[i].submit.high_water()
        {
            self.flush_shard(i, tel);
            if self.hosts[i].submit.above_high_water() {
                self.lost_in_outage += u64::from(self.lanes[i].in_outage(at));
                self.shed += 1;
                tel.obs.event(
                    at,
                    EventKind::PacketDrop {
                        reason: DropCode::AdmissionShed,
                        seid: u64::from(ue) + 1,
                    },
                );
                if let Some(tl) = tel.timeline.as_mut() {
                    tl.record_shed(shard, at);
                }
                return None;
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.staged[i].push(Submit { seq, kind, ue, at });
        if let Some(tl) = tel.timeline.as_mut() {
            let svc = self.lanes[i].serve(at, profiles.get(kind));
            record_admitted(tl, shard, at, self.depth(i), &svc);
        }
        if self.staged[i].len() >= cfg.dispatch_batch {
            self.flush_shard(i, tel);
        }
        Some(seq)
    }

    /// Waits until the completion for `seq` comes back from `shard`,
    /// recording it (and anything drained along the way) — a round trip
    /// through the duplex pair.
    fn completion(&mut self, shard: u16, seq: u64, tel: &mut Telemetry) -> SimTime {
        // `seq` may still be staged (closed loop issues then immediately
        // awaits); flush the shard so the round trip can complete.
        self.flush_shard(shard as usize, tel);
        loop {
            if let Some(c) = self.hosts[shard as usize].completions.pop() {
                self.await_wait.reset();
                tel.record_completion(c.kind, c.ue, c.at, c.completes_at);
                if c.seq == seq {
                    return c.completes_at;
                }
            } else {
                self.await_wait.wait();
            }
        }
    }

    /// Opportunistic drain: keeps completion rings shallow and spreads
    /// histogram recording across the run.
    fn poll(&mut self, tel: &mut Telemetry) {
        self.drain_completions(tel);
    }

    /// Fires trailing kills, flushes staged residue ahead of the stop
    /// sentinels, stops every worker and merges the per-worker recorder
    /// bundles into `tel`.
    fn finish(mut self, tel: &mut Telemetry) -> ExecTotals {
        // Kills scripted after the last arrival still fire, so the
        // failover (and its replay accounting) happens before the join.
        self.maybe_fire_kills(tel.horizon, tel);
        // Every sequenced submission reaches its worker before any stop.
        for i in 0..self.hosts.len() {
            self.flush_shard(i, tel);
        }
        let mut all = std::mem::take(&mut self.retired);
        let mut servers = Vec::with_capacity(self.hosts.len());
        for i in 0..self.hosts.len() {
            let (fifo, stats) = self.stop_worker(i, tel);
            servers.push(fifo);
            all.push(stats);
        }
        // The dispatcher's own wait sites, before the workers fold in —
        // what dispatcher utilization subtracts from wall time.
        let mut wait = self.offer_wait.stats();
        wait.absorb(&self.shutdown_wait.stats());
        wait.absorb(&self.await_wait.stats());
        let dispatcher_wait = wait;
        // Per-shard wait counters *sum* a killed primary's stats with
        // its standby's, so a shard's descheduled time survives failover
        // instead of being flattened into the pool-wide total.
        let mut per_shard_wait = vec![WaitStats::default(); servers.len()];
        let (mut served, mut pinned_workers) = (0u64, 0u64);
        for stats in all {
            served += stats.served;
            pinned_workers += u64::from(stats.pinned);
            per_shard_wait[stats.shard as usize].absorb(&stats.wait);
            wait.absorb(&stats.wait);
            tel.obs.absorb(&stats.obs);
            if let (Some(tl), Some(wtl)) = (tel.timeline.as_mut(), stats.timeline.as_ref()) {
                tl.absorb(wtl);
            }
        }
        debug_assert_eq!(
            served, self.next_seq,
            "every dispatched submission is served exactly once"
        );
        let elapsed = self.wall_start.elapsed();
        ExecTotals {
            shed: self.shed,
            // A full ring blocks the flush; it never drops.
            backpressure: 0,
            lost_in_outage: self.lost_in_outage,
            servers,
            // Effective placement: pinning is best-effort, so report it.
            gauges: vec![
                ("pinned_workers", pinned_workers),
                ("pinned_dispatcher", u64::from(self.dispatcher_pinned)),
            ],
            per_shard_wait,
            wait,
            dispatcher_wait,
            elapsed: Some(elapsed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::calibrate;
    use crate::driver::{Driver, ExecBackend, HIST_QUEUE_WAIT, HIST_SERVICE, HIST_TRANSIT};
    use crate::shard::ShardConfig;
    use l25gc_core::Deployment;
    use l25gc_sim::SimDuration;

    /// Runs `scenario(idle)` — spawn a pool, leave its workers facing an
    /// empty submit ring for `idle`, then drive it — until `parked` finds
    /// the park tier in the outcome, doubling `idle` over at most six
    /// attempts. An idle worker parks after 128 + 32 missed polls, which
    /// is microseconds once it is scheduled; the retry covers a host too
    /// busy to schedule it inside the gap.
    fn until_parked<R>(
        parked: impl Fn(&R) -> bool,
        scenario: impl Fn(std::time::Duration) -> R,
    ) -> R {
        let mut idle = std::time::Duration::from_millis(5);
        for _ in 0..6 {
            let outcome = scenario(idle);
            if parked(&outcome) {
                return outcome;
            }
            idle *= 2;
        }
        panic!("an idle worker never reached the park tier of the wait ladder");
    }

    #[test]
    fn descriptors_stay_compact() {
        assert!(std::mem::size_of::<Submit>() <= 24);
        assert!(std::mem::size_of::<Completion>() <= 32);
    }

    #[test]
    fn threaded_open_loop_reports_wall_clock_and_loses_nothing() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(5_000)
            .shards(4)
            .offered_eps(400.0)
            .duration(SimDuration::from_secs(2))
            .seed(17)
            .backend(ExecBackend::Threaded)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let wall = r.wall.expect("threaded runs carry wall stats");
        assert!(wall.elapsed.as_nanos() > 0);
        assert!(wall.sustained_eps > 0.0);
        assert_eq!(
            r.completed_total, r.dispatched,
            "every submission completes"
        );
        assert_eq!(
            r.offered,
            r.dispatched + r.shed + r.backpressure + r.infeasible,
            "every arrival is accounted"
        );
        assert!(
            r.obs.hists.get(HIST_QUEUE_WAIT).is_some(),
            "worker histograms merged at drain"
        );
    }

    #[test]
    fn threaded_single_worker_matches_analytic_when_unshed() {
        let profiles = calibrate(Deployment::L25gc);
        // Generous ring so neither backend sheds: the two engines then
        // run the identical virtual-time recurrence over the identical
        // arrival sequence.
        let base = LoadConfig::builder()
            .ues(3_000)
            .shards(1)
            .high_water(4_096)
            .ring_capacity(8_192)
            .offered_eps(150.0)
            .duration(SimDuration::from_secs(2))
            .seed(23);
        let a = Driver::new(base.clone().backend(ExecBackend::Analytic).build().unwrap())
            .unwrap()
            .run(&profiles);
        let t = Driver::new(base.backend(ExecBackend::Threaded).build().unwrap())
            .unwrap()
            .run(&profiles);
        assert_eq!(a.shed + a.backpressure, 0, "test needs an unshed config");
        assert_eq!(t.shed + t.backpressure, 0);
        assert_eq!(a.offered, t.offered);
        assert_eq!(a.dispatched, t.dispatched);
        assert_eq!(a.infeasible, t.infeasible);
        assert_eq!(a.achieved_eps, t.achieved_eps);
        assert_eq!(a.p50, t.p50, "same latency multiset → same quantiles");
        assert_eq!(a.p99, t.p99);
        assert_eq!(a.active_ues, t.active_ues);
        // The stage decomposition uses identical boundaries in both
        // backends, so the per-stage distributions match too.
        assert_eq!(a.queue_wait_p99, t.queue_wait_p99);
        assert_eq!(a.service_p99, t.service_p99);
        assert_eq!(a.transit_p99, t.transit_p99);
    }

    #[test]
    fn wake_on_submit_unparks_idle_workers() {
        let profiles = calibrate(Deployment::L25gc);
        // Drive the pool directly with a genuine wall-clock idle gap: a
        // worker facing an empty submit ring descends the ladder and
        // parks over and over (100 µs timeout), then a submission must
        // round-trip via the empty→non-empty unpark. Correctness, not
        // latency, is what the assertions pin down — a lost wakeup would
        // still complete via the park timeout — but the worker must
        // actually have parked for the wake path to be exercised at all.
        let cfg = LoadConfig::builder()
            .ues(100)
            .shards(1)
            .seed(71)
            .backend(ExecBackend::Threaded)
            .build()
            .unwrap();
        let (stats, tel, done) = until_parked(
            |(stats, ..): &(ExecTotals, Telemetry, SimTime)| stats.wait.parks > 0,
            |idle| {
                let mut tel = Telemetry::new(&cfg);
                let mut pool = Pool::spawn(&cfg, &profiles);
                std::thread::sleep(idle);
                let seq = pool
                    .offer(
                        0,
                        UeEvent::Registration,
                        0,
                        SimTime::from_nanos(1),
                        &profiles,
                        &mut tel,
                    )
                    .expect("empty ring admits");
                let done = pool.completion(0, seq, &mut tel);
                (pool.finish(&mut tel), tel, done)
            },
        );
        assert!(done > SimTime::from_nanos(1), "completion carries latency");
        assert!(stats.wait.parks > 0, "an idle worker must actually park");
        assert_eq!(tel.completed_total, 1, "the woken worker served it");
        // The worker-side stage histograms came back through the merge.
        let obs = &tel.obs;
        assert_eq!(obs.hists.get(HIST_QUEUE_WAIT).map(|h| h.count()), Some(1));
        assert_eq!(obs.hists.get(HIST_SERVICE).map(|h| h.count()), Some(1));
        assert_eq!(obs.hists.get(HIST_TRANSIT).map(|h| h.count()), Some(1));
    }

    #[test]
    fn threaded_overload_sheds_with_typed_drops_and_stays_lossless() {
        let profiles = calibrate(Deployment::Free5gc);
        // Tiny rings + a hot offered rate: admission control and ring
        // backpressure must both engage, and the accounting must close.
        let cfg = LoadConfig::builder()
            .ues(2_000)
            .shards(2)
            .high_water(4)
            .ring_capacity(8)
            .offered_eps(50_000.0)
            .duration(SimDuration::from_millis(500))
            .seed(31)
            .backend(ExecBackend::Threaded)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert_eq!(r.completed_total, r.dispatched, "no silent loss");
        assert_eq!(
            r.offered,
            r.dispatched + r.shed + r.backpressure + r.infeasible
        );
        let drops = r
            .obs
            .flight
            .iter()
            .filter(|e| matches!(e.kind, EventKind::PacketDrop { .. }))
            .count() as u64
            + r.obs.flight.dropped();
        assert_eq!(drops, r.shed + r.backpressure, "every drop is typed");
    }

    #[test]
    fn threaded_closed_loop_round_trips() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(1_000)
            .shards(2)
            .duration(SimDuration::from_secs(1))
            .seed(41)
            .backend(ExecBackend::Threaded)
            .closed_loop(8, SimDuration::from_millis(5))
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert!(r.dispatched > 0);
        assert_eq!(r.completed_total, r.dispatched);
        assert!(r.wall.is_some());
    }

    #[test]
    fn threaded_timeline_sums_match_dispatched_and_merge_worker_lanes() {
        let profiles = calibrate(Deployment::Free5gc);
        // Hot enough that shed/backpressure lanes fill too.
        let cfg = LoadConfig::builder()
            .ues(3_000)
            .shards(4)
            .high_water(8)
            .ring_capacity(16)
            .offered_eps(20_000.0)
            .duration(SimDuration::from_secs(1))
            .seed(53)
            .backend(ExecBackend::Threaded)
            .metrics_interval(SimDuration::from_millis(100))
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let tl = r.timeline.as_ref().expect("timeline was requested");
        assert_eq!(tl.shards(), 4);
        assert_eq!(
            tl.dispatched_total(),
            r.dispatched,
            "summed per-window dispatches equal the run's dispatched total"
        );
        assert_eq!(
            tl.completed_total(),
            r.dispatched,
            "worker completion lanes merged at join cover every dispatch"
        );
        assert_eq!(tl.shed_total(), r.shed);
        assert!(r.shed > 0, "config must exercise the shed lane");
        // More than one shard lane actually carries data.
        let active_lanes = (0..tl.shards())
            .filter(|&s| tl.lane(s).iter().any(|w| w.dispatched > 0))
            .count();
        assert!(active_lanes > 1, "dispatches spread over shards");
    }

    #[test]
    fn threaded_trace_sampling_records_strided_spans() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(2_000)
            .shards(2)
            .offered_eps(2_000.0)
            .duration(SimDuration::from_secs(1))
            .seed(59)
            .backend(ExecBackend::Threaded)
            .trace_sample(64)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        let spans = r.obs.spans.spans();
        assert!(!spans.is_empty(), "sampled UEs leave spans");
        assert!(spans.iter().all(|s| s.ue % 64 == 0));
    }

    #[test]
    fn every_wait_strategy_is_loss_free_under_overload() {
        let profiles = calibrate(Deployment::Free5gc);
        // "Every" strategy is the one wait ladder. Tiny rings + hot
        // offered rate: shed, backpressure, and the full-completion-ring
        // wait all engage.
        let cfg = LoadConfig::builder()
            .ues(2_000)
            .shards(2)
            .high_water(4)
            .ring_capacity(8)
            .offered_eps(30_000.0)
            .duration(SimDuration::from_millis(300))
            .seed(61)
            .backend(ExecBackend::Threaded)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert_eq!(
            r.completed_total, r.dispatched,
            "every dispatched submission completes"
        );
        assert_eq!(
            r.offered,
            r.dispatched + r.shed + r.backpressure + r.infeasible,
            "every arrival is accounted"
        );
        let gauges: Vec<_> = r
            .obs
            .flight
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Gauge { name, value } => Some((name, value)),
                _ => None,
            })
            .collect();
        let g = |n: &str| {
            gauges
                .iter()
                .rev()
                .find(|(name, _)| *name == n)
                .map(|(_, v)| *v)
        };
        for name in [
            "wait_spins",
            "wait_yields",
            "wait_parks",
            "wait_transitions",
            "wait_blocked_us",
        ] {
            assert!(g(name).is_some(), "{name}: wait gauge exported");
        }
    }

    #[test]
    fn pinning_requested_on_restricted_host_warns_and_completes() {
        // Whatever this machine allows, a pinned run must complete
        // loss-free: either affinity works (workers pinned) or it is
        // denied and the pool degrades to unpinned with a warning.
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(1_000)
            .shards(2)
            .offered_eps(500.0)
            .duration(SimDuration::from_millis(300))
            .seed(67)
            .backend(ExecBackend::Threaded)
            .pin(true)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert_eq!(r.completed_total, r.dispatched);
        let pinned = r
            .obs
            .flight
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Gauge {
                    name: "pinned_workers",
                    value,
                } => Some(value),
                _ => None,
            })
            .last();
        assert!(pinned.is_some(), "pinned_workers gauge always exported");
        assert!(pinned.unwrap() <= 2);
    }

    #[test]
    fn queue_policy_never_drops_in_threaded_mode() {
        let profiles = calibrate(Deployment::L25gc);
        let cfg = LoadConfig::builder()
            .ues(2_000)
            .shards(2)
            .shard_cfg(ShardConfig {
                shards: 2,
                high_water: 4,
                policy: OverloadPolicy::Queue,
                ring_capacity: 8,
            })
            .offered_eps(20_000.0)
            .duration(SimDuration::from_millis(200))
            .seed(47)
            .backend(ExecBackend::Threaded)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert_eq!(r.shed, 0, "queue policy never sheds");
        assert_eq!(r.backpressure, 0, "queue policy blocks instead of dropping");
        assert_eq!(r.completed_total, r.dispatched);
    }

    #[test]
    fn threaded_kill_fails_over_to_standby_loss_free() {
        let profiles = calibrate(Deployment::L25gc);
        // A scripted mid-run kill under Queue with wide rings: the
        // primary thread really dies, the standby inherits its SPSC
        // pair, and every dispatched UE still completes — on one worker
        // or the other.
        let plan = crate::fault::FaultPlan::parse("kill@500ms:shard=0").unwrap();
        let cfg = LoadConfig::builder()
            .ues(5_000)
            .shards(2)
            .shard_cfg(ShardConfig {
                shards: 2,
                high_water: 1 << 14,
                policy: OverloadPolicy::Queue,
                ring_capacity: 1 << 15,
            })
            .offered_eps(8_000.0)
            .duration(SimDuration::from_secs(1))
            .seed(53)
            .backend(ExecBackend::Threaded)
            .fault(plan)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert_eq!(
            r.shed + r.backpressure,
            0,
            "Queue with headroom drops nothing"
        );
        assert_eq!(
            r.completed_total, r.dispatched,
            "killed worker's UEs complete on the standby"
        );
        let d = r.disruption.expect("kill plan yields a disruption block");
        assert!(d.replayed > 0, "backlog crossed the kill and re-ran");
        assert_eq!(d.completions_lost, 0, "Queue is loss-free across failover");
        assert!(d.disruption_ms > 0.0);
    }

    /// Serializes tests that touch the process-wide shared metrics
    /// server: the registry keyed by `"127.0.0.1:0"` is one server, and
    /// its history is sliced by offset per test.
    static SERVE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn killed_shard_wait_stats_survive_failover() {
        let profiles = calibrate(Deployment::L25gc);
        let plan = crate::fault::FaultPlan::parse("kill@1ms:shard=0").unwrap();
        let cfg = LoadConfig::builder()
            .ues(100)
            .shards(2)
            .seed(73)
            .backend(ExecBackend::Threaded)
            .fault(plan)
            .build()
            .unwrap();
        let stats = until_parked(
            |stats: &ExecTotals| stats.per_shard_wait[0].parks > 0,
            |idle| {
                let mut tel = Telemetry::new(&cfg);
                let mut pool = Pool::spawn(&cfg, &profiles);
                // Let the shard-0 primary park on its empty submit ring so
                // it accumulates descheduled time before it is killed.
                std::thread::sleep(idle);
                // This arrival is past the scripted kill instant, so the
                // kill fires first: the parked primary is retired and
                // replaced, and the submission is served by the standby.
                let seq = pool
                    .offer(
                        0,
                        UeEvent::Registration,
                        0,
                        SimTime::from_nanos(2_000_000),
                        &profiles,
                        &mut tel,
                    )
                    .expect("empty ring admits");
                pool.completion(0, seq, &mut tel);
                pool.finish(&mut tel)
            },
        );
        assert_eq!(stats.per_shard_wait.len(), 2);
        let s0 = &stats.per_shard_wait[0];
        assert!(s0.parks > 0, "the killed primary parked while idle");
        assert!(
            s0.parked_ns > 0 && s0.blocked_ns >= s0.parked_ns,
            "the killed primary's descheduled time survives the standby merge"
        );
    }

    #[test]
    fn utilization_lanes_agree_across_backends_when_unshed() {
        let profiles = calibrate(Deployment::L25gc);
        let base = LoadConfig::builder()
            .ues(3_000)
            .shards(2)
            .high_water(4_096)
            .ring_capacity(8_192)
            .offered_eps(300.0)
            .duration(SimDuration::from_secs(2))
            .seed(79)
            .metrics_interval(SimDuration::from_millis(100));
        let a = Driver::new(base.clone().backend(ExecBackend::Analytic).build().unwrap())
            .unwrap()
            .run(&profiles);
        let t = Driver::new(base.backend(ExecBackend::Threaded).build().unwrap())
            .unwrap()
            .run(&profiles);
        assert_eq!(a.shed + a.backpressure + t.shed + t.backpressure, 0);
        let (atl, ttl) = (a.timeline.as_ref().unwrap(), t.timeline.as_ref().unwrap());
        for shard in 0..2u16 {
            let (al, tl) = (atl.lane(shard), ttl.lane(shard));
            assert_eq!(al.len(), tl.len(), "shard {shard}: same touched windows");
            for (i, (aw, tw)) in al.iter().zip(tl.iter()).enumerate() {
                assert_eq!(aw.busy_ns, tw.busy_ns, "shard {shard} window {i} busy");
                assert_eq!(
                    aw.occupancy_ns, tw.occupancy_ns,
                    "shard {shard} window {i} occupancy"
                );
            }
        }
        // Report-level utilization agrees too, and sits in (0, 1].
        assert_eq!(a.shard_utilization, t.shard_utilization);
        assert!(a.shard_utilization.iter().all(|&u| u > 0.0 && u <= 1.0));
        // Threaded tiling: busy + blocked + parked fills every window
        // inside the horizon exactly (the final clamp case is guarded by
        // construction: busy within a window never exceeds its length).
        let iv = SimDuration::from_millis(100).as_nanos();
        let horizon_ns = SimDuration::from_secs(2).as_nanos();
        for shard in 0..ttl.shards() {
            for (i, w) in ttl.lane(shard).iter().enumerate() {
                let start = i as u64 * iv;
                if start >= horizon_ns {
                    break;
                }
                let len = iv.min(horizon_ns - start);
                if w.busy_ns <= len {
                    assert_eq!(
                        w.busy_ns + w.blocked_ns + w.parked_ns,
                        len,
                        "shard {shard} window {i} does not tile"
                    );
                }
            }
        }
    }

    #[test]
    fn live_endpoint_shows_outage_flip_and_history_validates() {
        let _guard = SERVE_LOCK.lock().unwrap();
        let profiles = calibrate(Deployment::L25gc);
        let server = l25gc_obs::serve::shared("127.0.0.1:0").unwrap();
        let base_len = server.history_len();
        let plan = crate::fault::FaultPlan::parse("kill@1s:shard=0").unwrap();
        let cfg = LoadConfig::builder()
            .ues(3_000)
            .shards(2)
            .offered_eps(2_000.0)
            .duration(SimDuration::from_secs(3))
            .seed(83)
            .policy(OverloadPolicy::Queue)
            .high_water(1 << 14)
            .ring_capacity(1 << 15)
            .metrics_interval(SimDuration::from_millis(100))
            .serve_metrics("127.0.0.1:0")
            .fault(plan)
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert!(r.dispatched > 0);
        let hist = &server.history()[base_len..];
        assert!(hist.len() >= 3, "windows published: {}", hist.len());
        for snap in hist {
            l25gc_obs::validate_prometheus(&snap.body).expect("live exposition validates");
        }
        // The shard-0 outage gauge flips 0 → 1 → 0 across the run.
        let flag = |s: &l25gc_obs::Snapshot| {
            s.body
                .lines()
                .find(|l| l.starts_with("l25gc_shard_outage{") && l.contains("shard=\"0\""))
                .map(|l| l.ends_with(" 1"))
                .expect("outage gauge present in every snapshot")
        };
        let flags: Vec<bool> = hist.iter().map(flag).collect();
        let first_up = flags.iter().position(|&f| f).expect("outage observed live");
        assert!(first_up > 0, "the gauge starts at 0 before the kill");
        assert!(
            flags[first_up..].iter().any(|&f| !f),
            "the gauge returns to 0 after failover"
        );
        assert!(!flags[flags.len() - 1], "recovered by drain");
        // Phases cover the lifecycle.
        assert!(hist.iter().any(|s| s.phase == "steady"));
        assert!(hist.iter().any(|s| s.phase == "fault-outage"));
        assert_eq!(hist.last().unwrap().phase, "drain");
    }

    #[test]
    fn live_scrapes_validate_and_counters_are_monotone() {
        let _guard = SERVE_LOCK.lock().unwrap();
        let profiles = calibrate(Deployment::L25gc);
        let server = l25gc_obs::serve::shared("127.0.0.1:0").unwrap();
        let base_len = server.history_len();
        let cfg = LoadConfig::builder()
            .ues(2_000)
            .shards(2)
            .offered_eps(2_000.0)
            .duration(SimDuration::from_secs(1))
            .seed(89)
            .backend(ExecBackend::Threaded)
            .metrics_interval(SimDuration::from_millis(100))
            .serve_metrics("127.0.0.1:0")
            .build()
            .unwrap();
        let r = Driver::new(cfg).unwrap().run(&profiles);
        assert!(r.dispatched > 0);
        // Successive published expositions are exactly what GET /metrics
        // served at those instants: each validates, and the counters are
        // monotone between any two scrapes.
        let hist = &server.history()[base_len..];
        assert!(hist.len() >= 2, "at least two mid-run scrapes");
        let counter_sum = |body: &str, name: &str| -> u64 {
            body.lines()
                .filter(|l| l.starts_with(name))
                .filter_map(|l| l.rsplit(' ').next())
                .filter_map(|v| v.parse::<f64>().ok())
                .sum::<f64>() as u64
        };
        let mut prev: Option<(u64, u64)> = None;
        for snap in hist {
            l25gc_obs::validate_prometheus(&snap.body).expect("scrape validates");
            let cur = (
                counter_sum(&snap.body, "l25gc_worker_busy_ns_total"),
                counter_sum(&snap.body, "l25gc_dispatched_total"),
            );
            if let Some(p) = prev {
                assert!(cur.0 >= p.0, "busy counter is monotone");
                assert!(cur.1 >= p.1, "dispatched counter is monotone");
            }
            prev = Some(cur);
        }
        // Worker utilization ratios in the final exposition sit in (0, 1].
        let last = &hist.last().unwrap().body;
        let ratios: Vec<f64> = last
            .lines()
            .filter(|l| l.starts_with("l25gc_worker_utilization_ratio"))
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|v| v.parse::<f64>().ok())
            .collect();
        assert_eq!(ratios.len(), 2, "one ratio per shard");
        assert!(ratios.iter().all(|&u| u > 0.0 && u <= 1.0), "{ratios:?}");
        // The endpoint itself serves the last published snapshot.
        use std::io::{Read as _, Write as _};
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let (_, body) = resp.split_once("\r\n\r\n").unwrap();
        assert_eq!(body, last, "GET /metrics serves the drain snapshot");
        let mut stream = std::net::TcpStream::connect(server.local_addr()).unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        assert!(resp.ends_with("drain\n"), "{resp}");
    }

    #[test]
    fn threaded_fault_run_matches_analytic() {
        let profiles = calibrate(Deployment::L25gc);
        // Identical outage flooring plus the standby inheriting the dead
        // primary's virtual clock keep the shard's FIFO recurrence
        // unbroken — so a faulted threaded run still reproduces the
        // analytic latency multiset exactly.
        let base = LoadConfig::builder()
            .ues(3_000)
            .shards(2)
            .shard_cfg(ShardConfig {
                shards: 2,
                high_water: 1 << 14,
                policy: OverloadPolicy::Queue,
                ring_capacity: 1 << 15,
            })
            .offered_eps(2_000.0)
            .duration(SimDuration::from_secs(2))
            .seed(61)
            .fault(crate::fault::FaultPlan::parse("kill@800ms:shard=1").unwrap());
        let a = Driver::new(base.clone().backend(ExecBackend::Analytic).build().unwrap())
            .unwrap()
            .run(&profiles);
        let t = Driver::new(base.backend(ExecBackend::Threaded).build().unwrap())
            .unwrap()
            .run(&profiles);
        assert_eq!(a.offered, t.offered);
        assert_eq!(a.dispatched, t.dispatched);
        assert_eq!(a.achieved_eps, t.achieved_eps);
        assert_eq!(a.p50, t.p50, "same latency multiset → same quantiles");
        assert_eq!(a.p99, t.p99);
        let (ad, td) = (a.disruption.unwrap(), t.disruption.unwrap());
        assert_eq!(ad.replayed, td.replayed, "replay counts agree");
        assert_eq!(ad.disruption_ms, td.disruption_ms, "measured spans agree");
        assert_eq!(ad.completions_lost, td.completions_lost);
    }

    #[test]
    fn batched_dispatch_matches_batch_one_at_every_size() {
        let profiles = calibrate(Deployment::L25gc);
        // Unshed Queue with wide rings: the latency multiset is fully
        // determined by the per-shard arrival order, which staging
        // preserves — so any batch size must reproduce batch=1 exactly,
        // counts and quantiles both.
        let base = || {
            LoadConfig::builder()
                .ues(3_000)
                .shards(2)
                .shard_cfg(ShardConfig {
                    shards: 2,
                    high_water: 1 << 14,
                    policy: OverloadPolicy::Queue,
                    ring_capacity: 1 << 15,
                })
                .offered_eps(2_000.0)
                .duration(SimDuration::from_secs(1))
                .seed(97)
                .backend(ExecBackend::Threaded)
                .metrics_interval(SimDuration::from_millis(100))
        };
        let one = Driver::new(base().dispatch_batch(1).build().unwrap())
            .unwrap()
            .run(&profiles);
        assert_eq!(
            one.shed + one.backpressure,
            0,
            "test needs an unshed config"
        );
        assert_eq!(
            one.timeline.as_ref().unwrap().batch_flush_total(),
            0,
            "per-event dispatch never stages"
        );
        for batch in [2usize, 8, 32, 128] {
            let b = Driver::new(base().dispatch_batch(batch).build().unwrap())
                .unwrap()
                .run(&profiles);
            assert_eq!(b.shed + b.backpressure, 0, "batch {batch} stays unshed");
            assert_eq!(one.offered, b.offered, "batch {batch}");
            assert_eq!(one.dispatched, b.dispatched, "batch {batch}");
            assert_eq!(one.infeasible, b.infeasible, "batch {batch}");
            assert_eq!(one.achieved_eps, b.achieved_eps, "batch {batch}");
            assert_eq!(b.completed_total, b.dispatched, "batch {batch}: loss-free");
            assert_eq!(one.p50, b.p50, "batch {batch}: same latency multiset");
            assert_eq!(one.p99, b.p99, "batch {batch}");
            assert_eq!(one.queue_wait_p99, b.queue_wait_p99, "batch {batch}");
            assert_eq!(one.service_p99, b.service_p99, "batch {batch}");
            assert_eq!(one.transit_p99, b.transit_p99, "batch {batch}");
            assert_eq!(one.active_ues, b.active_ues, "batch {batch}");
            // The batch lanes prove staging actually engaged: every
            // dispatched event rode some flushed burst, and no burst
            // overfilled the configured size.
            let tl = b.timeline.as_ref().unwrap();
            assert_eq!(tl.batch_events_total(), b.dispatched, "batch {batch}");
            assert!(tl.batch_flush_total() > 0, "batch {batch}: bursts flushed");
            assert_eq!(
                tl.batch_fill().count(),
                tl.batch_flush_total(),
                "batch {batch}: one fill sample per flush"
            );
            assert!(
                tl.batch_fill().max() <= batch as u64,
                "batch {batch}: no burst exceeds the configured size"
            );
        }
    }

    #[test]
    fn batched_threaded_matches_analytic_when_unshed() {
        let profiles = calibrate(Deployment::L25gc);
        // The cross-backend equivalence survives batching: staging moves
        // wall-clock work, never virtual time.
        let base = LoadConfig::builder()
            .ues(3_000)
            .shards(1)
            .high_water(4_096)
            .ring_capacity(8_192)
            .offered_eps(150.0)
            .duration(SimDuration::from_secs(2))
            .seed(23);
        let a = Driver::new(base.clone().backend(ExecBackend::Analytic).build().unwrap())
            .unwrap()
            .run(&profiles);
        let t = Driver::new(
            base.backend(ExecBackend::Threaded)
                .dispatch_batch(32)
                .build()
                .unwrap(),
        )
        .unwrap()
        .run(&profiles);
        assert_eq!(a.shed + a.backpressure + t.shed + t.backpressure, 0);
        assert_eq!(a.dispatched, t.dispatched);
        assert_eq!(a.achieved_eps, t.achieved_eps);
        assert_eq!(a.p50, t.p50, "same latency multiset → same quantiles");
        assert_eq!(a.p99, t.p99);
        assert_eq!(a.queue_wait_p99, t.queue_wait_p99);
        assert_eq!(a.service_p99, t.service_p99);
        assert_eq!(a.transit_p99, t.transit_p99);
    }

    #[test]
    fn parked_worker_wakes_on_burst_of_one() {
        let profiles = calibrate(Deployment::L25gc);
        // Batch 32 with a single offered event: the event stages without
        // flushing, then `completion` flushes a burst of fill 1 —
        // and the single unpark that burst carries must wake the parked
        // worker (satellite: coalesced wakeups still wake on tiny bursts).
        let cfg = LoadConfig::builder()
            .ues(100)
            .shards(1)
            .seed(71)
            .backend(ExecBackend::Threaded)
            .dispatch_batch(32)
            .metrics_interval(SimDuration::from_millis(100))
            .build()
            .unwrap();
        let (stats, tel, done) = until_parked(
            |(stats, ..): &(ExecTotals, Telemetry, SimTime)| stats.wait.parks > 0,
            |idle| {
                let mut tel = Telemetry::new(&cfg);
                let mut pool = Pool::spawn(&cfg, &profiles);
                std::thread::sleep(idle);
                let seq = pool
                    .offer(
                        0,
                        UeEvent::Registration,
                        0,
                        SimTime::from_nanos(1),
                        &profiles,
                        &mut tel,
                    )
                    .expect("under high water admits");
                assert_eq!(
                    pool.hosts[0].submit.len(),
                    0,
                    "a lone event stages instead of crossing the ring"
                );
                let done = pool.completion(0, seq, &mut tel);
                (pool.finish(&mut tel), tel, done)
            },
        );
        assert!(done > SimTime::from_nanos(1), "completion carries latency");
        assert!(stats.wait.parks > 0, "an idle worker must actually park");
        assert_eq!(tel.completed_total, 1, "the woken worker served it");
        let tl = tel.timeline.as_ref().unwrap();
        assert_eq!(tl.batch_flush_total(), 1, "one burst flushed");
        assert_eq!(tl.batch_events_total(), 1, "of fill one");
    }

    #[test]
    fn shutdown_flushes_staged_residue_in_order() {
        let profiles = calibrate(Deployment::L25gc);
        // Ten events staged against a batch of 64 never auto-flush; the
        // shutdown barrier must drain them ahead of the stop sentinels
        // so every sequenced submission is served.
        let cfg = LoadConfig::builder()
            .ues(100)
            .shards(2)
            .seed(79)
            .backend(ExecBackend::Threaded)
            .dispatch_batch(64)
            .build()
            .unwrap();
        let mut tel = Telemetry::new(&cfg);
        let mut pool = Pool::spawn(&cfg, &profiles);
        for n in 0..10u64 {
            pool.offer(
                (n % 2) as u16,
                UeEvent::Registration,
                n as u32,
                SimTime::from_nanos(n + 1),
                &profiles,
                &mut tel,
            )
            .expect("under high water admits");
        }
        let dispatched = pool.next_seq;
        assert_eq!(dispatched, 10);
        assert_eq!(
            pool.staged.iter().map(Vec::len).sum::<usize>(),
            10,
            "nothing crossed the rings yet"
        );
        pool.finish(&mut tel);
        assert_eq!(
            tel.completed_total, dispatched,
            "staged residue drained before the sentinels"
        );
        assert_eq!(tel.completed_total, 10);
    }

    /// Runs `f` on a helper thread and fails, instead of hanging, when it
    /// does not finish in time.
    fn within<T: Send + 'static>(
        limit: std::time::Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        use std::sync::mpsc::{channel, RecvTimeoutError};
        let (tx, rx) = channel();
        let helper = std::thread::spawn(move || tx.send(f()));
        match rx.recv_timeout(limit) {
            Ok(v) => v,
            Err(RecvTimeoutError::Timeout) => {
                panic!("the run wedged: a worker is waiting for completion-ring room nobody makes")
            }
            // The helper died before sending: surface its own panic.
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(helper.join().expect_err("helper panicked"))
            }
        }
    }

    #[test]
    fn small_rings_never_wedge_shutdown() {
        // A 128-slot ring under Queue stays full for the whole run, so at
        // the stop sentinel the worker still owes more completions than
        // its completion ring holds: the join must keep draining, or the
        // worker waits for room for ever.
        let reports = within(std::time::Duration::from_secs(120), || {
            let profiles = calibrate(Deployment::L25gc);
            let cfg = LoadConfig::builder()
                .ues(50_000)
                .shards(1)
                .policy(OverloadPolicy::Queue)
                .ring_capacity(1 << 7)
                .dispatch_batch(32)
                .offered_eps(50_000.0)
                .duration(SimDuration::from_secs(1))
                .seed(101)
                .backend(ExecBackend::Threaded)
                .build()
                .unwrap();
            let driver = Driver::new(cfg).unwrap();
            (0..5).map(|_| driver.run(&profiles)).collect::<Vec<_>>()
        });
        for r in &reports {
            assert!(r.dispatched > 40_000, "dispatched {}", r.dispatched);
            assert_eq!(r.shed + r.backpressure, 0, "Queue never drops");
            assert_eq!(
                r.completed_total, r.dispatched,
                "every submission completes"
            );
        }
    }

    #[test]
    fn high_water_above_ring_capacity_sheds_at_every_batch_size() {
        // The ring clamps its mark to its capacity, and admission reads
        // the ring's mark — so an over-wide configured mark sheds at the
        // full ring whether or not events are staged, instead of blocking
        // the flush as if the policy were Queue.
        for batch in [1usize, 32] {
            let r = within(std::time::Duration::from_secs(120), move || {
                let profiles = calibrate(Deployment::L25gc);
                let cfg = LoadConfig::builder()
                    .ues(5_000)
                    .shards(2)
                    .policy(OverloadPolicy::Shed)
                    .high_water(64)
                    .ring_capacity(4)
                    .dispatch_batch(batch)
                    .offered_eps(20_000.0)
                    .duration(SimDuration::from_secs(1))
                    .seed(103)
                    .backend(ExecBackend::Threaded)
                    .build()
                    .unwrap();
                Driver::new(cfg).unwrap().run(&profiles)
            });
            assert!(r.shed > 0, "batch {batch}: a full ring sheds");
            assert_eq!(r.backpressure, 0, "batch {batch}");
            assert_eq!(r.completed_total, r.dispatched, "batch {batch}: loss-free");
            assert_eq!(
                r.offered,
                r.dispatched + r.shed + r.infeasible,
                "batch {batch}: every arrival is accounted"
            );
        }
    }
}
